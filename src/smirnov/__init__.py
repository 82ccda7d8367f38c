"""Exact enumeration of Smirnov words by descents and cyclic descents.

Smirnov words are words over the positive integers with no two equal
adjacent letters.  This package computes their symmetric-function
enumerators in closed form (elementary, power sum, and fundamental
quasisymmetric expansions), the associated q-Eulerian polynomials with
exact root-of-unity evaluations, and verifies everything against
combinatorial oracles in exact integer arithmetic.

The package namespace holds no names; import the modules, as in
``from smirnov.enumerators import closed_form``.  Importing one module loads
only its import closure; ``exact``, ``walks``, ``symfun``, ``combinat``,
``enumerators``, ``verify`` and ``cli`` each import only modules before it.
"""
