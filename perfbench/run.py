"""End-to-end and per-layer benchmark of the smirnov command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the program is run from ``src/`` with
no install step.  Every command is one fresh ``python -m smirnov`` process,
run one at a time.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats passes over the workload's command list for about
``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
alternates untraced passes with traced passes (each command through
``perfbench/tracer.py``), adds one operator-counting pass, and reports the
per-layer metrics.  Both modes check every command's exit code and stdout
against ``perfbench/reference.json``; ``--write-reference`` records that file
from the current program.  ``perfbench/README.md`` says what each metric is
and what it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import CACHES, LAYERS, OPERATORS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
REFERENCE = HERE / "reference.json"
TRACER = HERE / "tracer.py"

SETUP_ARGV = ("qeuler", "--variant", "Ades", "--n", "0")
SETUP_PER_PASS = 5
SETUP_MIN = 15
CAL_REPS = 8
CAL_REF_S = 0.0175
SLICE_S = 0.1
IMPORTTIME_SPAWNS = 5
TRACE_PASSES = 2
MODULES = tuple(LAYERS)

# cli-cold draws from this pool.  n = 8 is the CLI's largest n, and a root of
# unity of order k needs k | n, so the q-root pool is the divisors of 8.
COLD_N = "8"
QEULER_KINDS = ("Ades", "Amajexc", "Aless", "Atilde")
ROOT_KINDS = ("Ades", "Aless", "Atilde")
Q_ROOTS = ("1", "2", "4", "8")
ROOTS_PER_KIND = 3
F_VARIANTS = ("W", "Wless", "Wgreater", "Wtilde")

VERIFY_DEFAULT = ("verify", "--suite", "all", "--format", "json")
ORACLE_DEEP = ("verify", "--suite", "oracle", "--max-n", "7", "--vars", "6", "--format", "json")

TIMED_FUNCTIONS = (
    "combinat.brute_enumerator",
    "combinat.chromatic_qsym",
    "symfun.expand_in_variables",
    "symfun.monomial_to_e",
    "symfun.SymSeries.div",
    "symfun.SymSeries.mul",
    "enumerators.q_eulerian",
    "enumerators.f_expansion",
    "enumerators.closed_form",
    "enumerators.root_of_unity_parts",
    "enumerators.q_exp_identity_check",
    "enumerators.counting_identities",
    "enumerators.unimodality_suite",
    "enumerators.transfer_matrix_check",
)
EXACT_FUNCTIONS = ("eval_at_root_of_unity", "qt_divmod", "cyclotomic", "q_binomial", "eulerian")
SUITES = ("oracle", "powersum", "f", "qexp", "roots", "unimodal", "counting", "series", "transfer")


def cold_commands(roots) -> list[tuple[str, ...]]:
    """The cli-cold command list, with ``roots`` for the (kind, q-root) pairs."""
    cmds = [("qeuler", "--variant", kind, "--n", COLD_N) for kind in QEULER_KINDS]
    cmds += [("roots", "--variant", kind, "--n", COLD_N, "--q-root", k) for kind, k in roots]
    cmds += [("fexpand", "--variant", v, "--n", COLD_N) for v in F_VARIANTS]
    cmds.append(("expand", "--variant", "Wtilde", "--n", COLD_N))
    return [cmd + ("--format", "json") for cmd in cmds]


def workload_commands(name: str, seed: int) -> list[tuple[str, ...]]:
    """The seed only matters for cli-cold: it draws the command order and the
    (kind, q-root) pairs.  The two verify workloads have no free inputs; their
    command is the same for every seed."""
    if name == "verify-default":
        return [VERIFY_DEFAULT]
    if name == "oracle-deep":
        return [ORACLE_DEEP]
    if name == "cli-cold":
        rng = random.Random(seed)
        cmds = cold_commands(
            (kind, k) for kind in ROOT_KINDS for k in sorted(rng.sample(Q_ROOTS, ROOTS_PER_KIND), key=int)
        )
        rng.shuffle(cmds)
        return cmds
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-default", "oracle-deep", "cli-cold")


def reference_commands() -> list[tuple[str, ...]]:
    """Every command any seed can produce."""
    return [VERIFY_DEFAULT, ORACLE_DEEP] + cold_commands(
        (kind, k) for kind in ROOT_KINDS for k in Q_ROOTS
    )


class Run:
    """One finished child process."""

    def __init__(self, argv, code, stdout, wall, rusage, scaled_wall=None):
        self.argv = argv
        self.code = code
        self.stdout = stdout
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024
        # wall and CPU time scaled to the calibration's reference speed
        self.scaled_wall = wall if scaled_wall is None else scaled_wall
        self.scaled_cpu = self.cpu * self.scaled_wall / wall


def _start(args, env, stream):
    pipe, null = subprocess.PIPE, subprocess.DEVNULL
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, stdin=null,
        stdout=pipe if stream == "stdout" else null,
        stderr=pipe if stream == "stderr" else None,
    )


def spawn(args: list[str], env: dict, stream: str = "stdout") -> Run:
    """Run one child to completion, reading its stdout (or, with
    ``stream="stderr"``, its stderr) as it goes, and reap it with wait4 so
    its own CPU time and peak RSS are known."""
    start = time.monotonic()
    proc = _start(args, env, stream)
    reader = proc.stdout if stream == "stdout" else proc.stderr
    try:
        out = reader.read()
    finally:
        reader.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(args, proc.returncode, out, end - start, rusage)


def spawn_calibrated(args: list[str], env: dict, cal: "Calibration") -> Run:
    """Like ``spawn``, but the child runs in slices of at most ``SLICE_S``
    seconds.  Between slices it is stopped (SIGSTOP) while this process
    times a calibration block, so only one of the two runs at any moment, and
    each slice is scaled by the calibration blocks on either side of it.
    Stdout goes to an unnamed file in the checkout rather than a pipe, so
    that no write of the child is cut by a stop."""
    with tempfile.TemporaryFile(dir=ROOT) as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out
        )
        pidfd = os.pidfd_open(proc.pid)
        wall = scaled = 0.0
        status = rusage = None
        try:
            while True:
                if select.select([pidfd], [], [], SLICE_S)[0]:
                    _, status, rusage = os.wait4(proc.pid, 0)
                else:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, rusage = os.wait4(proc.pid, os.WUNTRACED)
                end = time.monotonic()
                factor = cal.scale()
                wall += end - start
                scaled += (end - start) * factor
                if not os.WIFSTOPPED(status):
                    break
                start = time.monotonic()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            if status is None or os.WIFSTOPPED(status):
                # not reaped yet, so the pid is still this child's
                os.kill(proc.pid, signal.SIGKILL)
                os.kill(proc.pid, signal.SIGCONT)
                _, status, rusage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Run(args, proc.returncode, stdout, wall, rusage, scaled)


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def record_digest(record) -> str:
    return digest(json.dumps(record, separators=(",", ":")).encode())


def reference_entry(run: Run) -> dict:
    entry = {"exit": run.code, "stdout": digest(run.stdout)}
    if run.argv[2] == "verify":
        entry["records"] = [record_digest(r) for r in json.loads(run.stdout)]
    return entry


class Gate:
    """Output gate: one operation per verify record or non-verify command.
    An operation fails on an exit code, a record status or stdout that
    differs from the reference."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, cmd: tuple[str, ...], code: int, stdout: bytes) -> None:
        ref = self.reference.get(" ".join(cmd))
        if ref is None:
            self.count(cmd, code, stdout, 1, 1)
            return
        same = code == ref["exit"] and digest(stdout) == ref["stdout"]
        if "records" not in ref:
            self.count(cmd, code, stdout, 1, 0 if same else 1)
            return
        expected = ref["records"]
        try:
            records = json.loads(stdout)
            got = [record_digest(r) for r in records]
            bad = sum(1 for r in records if r.get("status") != "pass")
        except (ValueError, AttributeError, TypeError):
            records, got, bad = [], [], 0
        mismatched = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
        failed = bad + mismatched
        if not same:
            failed = max(failed, 1)
        attempted = max(len(expected), len(got))
        self.count(cmd, code, stdout, attempted, min(failed, attempted))

    def count(self, cmd, code: int, stdout: bytes, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(
                f"gate: {' '.join(cmd)}: exit {code}, {len(stdout)} bytes of stdout, "
                f"{failed} of {attempted} operations failed",
                file=sys.stderr,
            )


def run_command(cmd, env, gate: Gate, prefix=("-m", "smirnov"), cal=None) -> Run:
    args = [*prefix, *cmd]
    run = spawn(args, env) if cal is None else spawn_calibrated(args, env, cal)
    stdout = run.stdout
    if prefix[0] != "-m":
        # the tracer's report is the last line; the program's output precedes it
        stdout = stdout[: stdout.rstrip(b"\n").rfind(b"\n") + 1]
    gate.check(cmd, run.code, stdout)
    return run


def tracer_report(run: Run) -> dict:
    last = run.stdout.rstrip(b"\n").rpartition(b"\n")[2]
    try:
        return json.loads(last)
    except ValueError:
        return {}


def setup_samples(env, count: int, cal: "Calibration") -> list[float]:
    walls = []
    for _ in range(count):
        run = spawn_calibrated(["-m", "smirnov", *SETUP_ARGV], env, cal)
        if run.code != 0:
            raise RuntimeError("set-up command failed")
        walls.append(run.scaled_wall)
    return walls


IMPORT_LINE = re.compile(rb"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+smirnov\.(\w+)\s*$")


def measure_imports(env) -> dict[str, float]:
    """Self import time of each module, from ``python -X importtime``."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        run = spawn(["-X", "importtime", "-m", "smirnov", *SETUP_ARGV], env, stream="stderr")
        seen = {m: 0.0 for m in MODULES}
        for line in run.stdout.splitlines():
            match = IMPORT_LINE.match(line)
            if match and match.group(2).decode() in seen:
                seen[match.group(2).decode()] = int(match.group(1)) / 1e6
        for m in MODULES:
            samples[m].append(seen[m])
    return {f"import.{m}.s": min(v) for m, v in samples.items()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibration_kernel() -> int:
    """A fixed pure-Python workload in the style of the program's hot loops:
    enumerate the 972 words of length 6 over 4 letters with no equal
    neighbours, and count them by content vector and descents in dicts."""
    counts: dict[tuple, dict[int, int]] = {}

    def extend(word: tuple) -> None:
        if len(word) == 6:
            vec = [0] * 4
            for letter in word:
                vec[letter - 1] += 1
            des = sum(1 for a, b in zip(word, word[1:]) if a > b)
            bucket = counts.setdefault(tuple(vec), {})
            bucket[des] = bucket.get(des, 0) + 1
            return
        for c in range(1, 5):
            if not word or word[-1] != c:
                extend(word + (c,))

    extend(())
    return len(counts)


class Calibration:
    """Machine speed, measured between the timed intervals.

    The machine this was tuned on (a 2-vCPU VM shared with other tenants)
    switches every few seconds between an uncontended state and one about
    1.75x slower, and stays in either for seconds to minutes; CPU time
    stretches with wall time, so raw times of the same code spread by 20%
    between runs.  Each interval (a slice of a child process, or a block of
    set-up spawns) is therefore bracketed by calibration blocks, a fixed
    kernel timed in this process while no child runs, and scaled by
    ``CAL_REF_S / mean(block before, block after)``.  Times are reported in
    seconds at the speed where one block takes ``CAL_REF_S``.  The kernel is
    part of the benchmark, not of the program, so a faster program still
    reads faster.
    """

    def __init__(self):
        self.last = self.block()

    @staticmethod
    def block() -> float:
        start = time.perf_counter()
        for _ in range(CAL_REPS):
            calibration_kernel()
        return time.perf_counter() - start

    def scale(self) -> float:
        """Scale for the interval since the previous block."""
        after = self.block()
        factor = CAL_REF_S / ((self.last + after) / 2)
        self.last = after
        return factor


def untraced(commands, env, gate: Gate, seconds: float) -> dict:
    """Repeat passes over the command list, each after a few set-up spawns,
    while the next pass is expected to end within ``seconds``.  Every child
    is scaled by the calibration around it.  ``setup_s`` is the median of
    all set-up spawns; the other times are medians over passes."""
    cal = Calibration()
    setup, walls, cpus, rss = [], [], [], 0.0
    start = time.monotonic()
    while True:
        setup += setup_samples(env, SETUP_PER_PASS, cal)
        runs = [run_command(cmd, env, gate, cal=cal) for cmd in commands]
        walls.append(sum(r.scaled_wall for r in runs))
        cpus.append(sum(r.scaled_cpu for r in runs))
        rss = max([rss] + [r.rss_mb for r in runs])
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    if len(setup) < SETUP_MIN:
        setup += setup_samples(env, SETUP_MIN - len(setup), cal)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def traced(commands, env, gate: Gate) -> dict:
    m: dict[str, dict] = {}
    m.update({k: metric(v, "s") for k, v in measure_imports(env).items()})
    # The tracer's spans are process CPU time, so traced commands are sliced
    # and calibrated like untraced ones; each command's spans are scaled by
    # its own calibration factor.  Times are averaged over the passes, counts
    # taken from the first.
    cal = Calibration()
    share = 1 / TRACE_PASSES
    wall_plain = wall_traced = setup_s = 0.0
    spans: dict[str, list] = {}
    caches: dict[str, list] = {}
    for first in [True] + [False] * (TRACE_PASSES - 1):
        for cmd in commands:
            wall_plain += run_command(cmd, env, gate, cal=cal).scaled_wall * share
        for cmd in commands:
            run = run_command(cmd, env, gate, (str(TRACER), "time", "--"), cal)
            wall_traced += run.scaled_wall * share
            factor = run.scaled_wall / run.wall * share
            report = tracer_report(run)
            for name, s in report.get("spans", {}).items():
                acc = spans.setdefault(name, [0.0, 0.0, 0])
                acc[0] += s["s"] * factor
                acc[1] += s["self_s"] * factor
                acc[2] += s["calls"] if first else 0
            setup_s += report.get("setup_cpu_s", 0.0) * factor
            for name, c in report.get("caches", {}).items() if first else ():
                acc = caches.setdefault(name, [0, 0, 0])
                acc[0] += c["hits"]
                acc[1] += c["misses"]
                acc[2] = max(acc[2], c["entries"])

    counts: dict[str, int] = {}
    for cmd in commands:
        run = run_command(cmd, env, gate, (str(TRACER), "count", "--"))
        for name, c in tracer_report(run).get("counts", {}).items():
            counts[name] = counts.get(name, 0) + c

    def span(name):
        return spans.get(name, [0.0, 0.0, 0])

    for name in TIMED_FUNCTIONS:
        s, self_s, calls = span(name)
        m[f"{name}.s"] = metric(s, "s")
        m[f"{name}.self_s"] = metric(self_s, "s")
        m[f"{name}.calls"] = metric(calls, "count")
    for name in EXACT_FUNCTIONS:
        s, self_s, _ = span(f"exact.{name}")
        m[f"exact.{name}.s"] = metric(s, "s")
        m[f"exact.{name}.self_s"] = metric(self_s, "s")
    for name in OPERATORS:
        m[f"exact.{name}.calls"] = metric(counts.get(name, 0), "count")
    for suite in SUITES:
        m[f"verify.suite.{suite}.s"] = metric(span(f"verify.suite.{suite}")[0], "s")

    layer_self = {layer: 0.0 for layer in MODULES}
    for name, (_, self_s, _) in spans.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for layer in MODULES:
        m[f"{layer}.self_s"] = metric(layer_self[layer], "s")
    m["setup.self_s"] = metric(setup_s, "s")

    visited = counts.get("combinat.words_visited", 0)
    kept = counts.get("combinat.words_kept", 0)
    m["combinat.words_visited"] = metric(visited, "count")
    m["combinat.words_kept"] = metric(kept, "count")
    m["combinat.word_keep_ratio"] = metric(kept / visited if visited else 0.0, "ratio")
    m["symfun.monomials_out"] = metric(counts.get("symfun.monomials_out", 0), "count")
    m["enumerators.perms_swept"] = metric(counts.get("enumerators.perms_swept", 0), "count")

    for name in CACHES:
        hits, misses, entries = caches.get(name, [0, 0, 0])
        m[f"cache.{name}.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
        m[f"cache.{name}.entries"] = metric(entries, "count")

    layer_sum = setup_s + sum(layer_self.values())
    m["trace.wall_s"] = metric(wall_traced, "s")
    m["trace.untraced_wall_s"] = metric(wall_plain, "s")
    m["trace.overhead_s"] = metric(wall_traced - wall_plain, "s")
    m["trace.layer_sum_s"] = metric(layer_sum, "s")
    m["trace.coverage"] = metric(layer_sum / wall_traced, "ratio")
    return m


def write_reference(env) -> int:
    reference = {}
    for cmd in reference_commands():
        run = spawn(["-m", "smirnov", *cmd], env)
        reference[" ".join(cmd)] = reference_entry(run)
        print(f"{run.code}  {run.wall:7.3f}s  {' '.join(cmd)}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    # let a terminated run unwind, so no child is left behind stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = program_env()
    if not (ROOT / "src" / "smirnov" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = spawn(["-m", "smirnov", *SETUP_ARGV], env)
    if warm.code != 0:
        print("error: the set-up command failed; the program does not run", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(env)
    if args.workload is None:
        parser.error("--workload is required")

    gate = Gate(json.loads(REFERENCE.read_text()))
    commands = workload_commands(args.workload, args.seed)
    if args.trace:
        metrics = traced(commands, env, gate)
        metrics["fail_frac"] = metric(gate.failed / gate.attempted, "ratio")
    else:
        metrics = untraced(commands, env, gate, args.seconds)
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
