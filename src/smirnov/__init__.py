"""Exact enumeration of Smirnov words by descents and cyclic descents.

Smirnov words are words over the positive integers with no two equal
adjacent letters.  This package computes their symmetric-function
enumerators in closed form (elementary, power sum, and fundamental
quasisymmetric expansions), the associated q-Eulerian polynomials with
exact root-of-unity evaluations, and verifies everything against
combinatorial oracles in exact rational arithmetic.
"""

from .exact import (
    LaurentPoly,
    QtPoly,
    cyclotomic,
    eulerian,
    eval_at_root_of_unity,
    euler_series_check,
    palindrome_unimodal,
    q_binomial,
    t_quantum,
)
from .symfun import (
    NotSymmetricError,
    SymFun,
    SymSeries,
    conjugate,
    e_positivity_report,
    e_unimodal_direct,
    e_unimodal_palindromic,
    monomial_to_e,
    partitions_of,
    z_of,
)
from .combinat import (
    PermStats,
    F_ones_specialization,
    F_principal_series,
    brute_enumerator,
    fundamental_F,
    perm_stats,
)
from .enumerators import (
    FExpansion,
    F_VARIANTS,
    POWERSUM_VARIANTS,
    ROOT_FAMILIES,
    VARIANTS,
    abc,
    cleared_form_check,
    closed_form,
    distinguished_element_check,
    f_expansion,
    powersum_form,
    powersum_top_coefficient,
    q_eulerian,
    q_exp_identity_check,
    root_of_unity,
    transfer_matrix_check,
)

__version__ = "0.1.0"
