"""One-command reproduction matrix.

Each criterion function returns ("pass" | "fail" | "skip", detail).
run_criterion times one criterion and fails it when it passes but runs past
its limit; run_matrix runs them all.  Wall times are kept out of the detail
so that callers can keep them off stdout (stdout must stay byte-reproducible).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .cli import _write_text, main as cli_main
from .constructions import lower_bound_construction, random_gallai
from .decompose import gallai_partition, validate_partition
from .formulas import cycle_ramsey, even_cycle_gr_bounds, gr_value
from .graphs import ColoredCompleteGraph, encode
from .patterns import (
    PATTERN_KINDS,
    _MIN_SIZE,
    Pattern,
    brute_force_find,
    contains_pattern,
    find_rainbow_triangle,
    verify_witness,
)
from .search import certify_claim, ramsey_number, search_two_color


@dataclass
class ReproContext:
    quick: bool
    stretch: bool
    jobs: int
    out_dir: str


def _run_cli(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, json.loads(out.getvalue())


def _certify_pairs(pairs, jobs: int, note: str):
    """Certify each (family, s, t) through ``certify_claim`` and re-check its
    witness against both targets.  A pass carries one ``note`` per pair,
    formatted with the family, s, t, the value and the exhausted order's nodes."""
    notes = []
    for family, s, t in pairs:
        report = certify_claim(family, s, t, jobs=jobs)
        cert = report.certificate
        pair = f"({family} {s}, {family} {t})"
        if not report.matches:
            return "fail", f"{pair}: value {report.value}, wanted {report.expected}"
        if cert.witness.n != report.value - 1:
            return "fail", f"{pair}: witness order {cert.witness.n}, wanted {report.value - 1}"
        for color, size in ((1, s), (2, t)):
            if contains_pattern(cert.witness, Pattern(family, size), color) is not None:
                return "fail", f"{pair}: witness holds the target in color {color}"
        if cert.exhausted_outcome.verdict != "exhausted":
            return "fail", f"{pair}: order {report.value} was not exhausted"
        nodes = cert.exhausted_outcome.nodes
        notes.append(note.format(family=family, s=s, t=t, value=report.value, nodes=nodes))
    return "pass", "; ".join(notes)


def _c1_exact_t4(ctx: ReproContext):
    pairs = [("star-plus", 4, 4), ("path-plus", 4, 4)]
    return _certify_pairs(pairs, ctx.jobs, "{family} exhausted order {value} in {nodes} nodes")


def _c2_triangle(ctx: ReproContext):
    tri = Pattern.clique(3)
    cert = ramsey_number(tri, tri, n_max=7)
    if cert.value != 6:
        return "fail", f"triangle value {cert.value}, wanted 6"
    witness = cert.witness
    if witness.n != 5:
        return "fail", f"witness order {witness.n}, wanted 5"
    for v in range(5):
        for color in (1, 2):
            if witness.degree_in_color(v, color) != 2:
                return "fail", "witness is not 2-regular in both colors"
    code, report = _run_cli(["ramsey", "--family", "star-plus", "-t", "3", "--out-dir", ctx.out_dir])
    result = report["result"]
    if code != 1 or result.get("value") != 6 or result.get("divergence") is None:
        return "fail", f"`ramsey -t 3` exited {code} without flagging value 6 as a divergence"
    report = certify_claim("star-plus", 3, 3)
    if report.value != 6 or report.divergence is None:
        return "fail", "size-3 divergence from the linear form was not flagged"
    return "pass", (
        "value 6 with a 2-regular-per-color order-5 witness; divergence flagged by the CLI and the library"
    )


def _c3_stretch(ctx: ReproContext):
    if not ctx.stretch:
        return "skip", "run with --stretch to certify the size-5 and size-6 values and (path-plus 7, path-plus 7)"
    cases = [
        ("star-plus", 5, 5),
        ("path-plus", 5, 5),
        ("path-plus", 4, 5),
        ("star-plus", 6, 6),
        ("path-plus", 6, 6),
        ("path-plus", 7, 7),
    ]
    return _certify_pairs(cases, ctx.jobs, "({family} {s}, {family} {t}) = {value} [{nodes} nodes]")


def _c4_constructions(ctx: ReproContext):
    ts = (4, 5) if ctx.quick else (4, 5, 6)
    ks = range(1, 4) if ctx.quick else range(1, 6)
    checked = 0
    for t in ts:
        for k in ks:
            graph = lower_bound_construction(t, k)
            want = gr_value("star-plus", t, k) - 1
            if graph.n != want:
                return "fail", f"t={t} k={k}: order {graph.n}, wanted {want}"
            path = os.path.join(ctx.out_dir, f"repro-c4-t{t}-k{k}.gcg")
            _write_text(path, encode(graph))
            for family in ("star-plus", "path-plus"):
                code, report = _run_cli(["verify", path, "--family", family, "-t", str(t)])
                if code != 0 or report["result"]["holds"] is not True:
                    return "fail", f"t={t} k={k}: verify found a violation for {family}"
            checked += 1
    return "pass", f"{checked} constructions at threshold-minus-one verified clean"


def _c5_formulas(ctx: ReproContext):
    for family in ("star-plus", "path-plus"):
        for t in range(4, 65):
            if gr_value(family, t, 2) != 2 * t - 1:
                return "fail", f"{family} t={t} k=2 broke the linear two-color form"
        for t in range(4, 17):
            for k in range(1, 17):
                if gr_value(family, t, k + 2) != 5 * (gr_value(family, t, k) - 1) + 1:
                    return "fail", f"{family} t={t} k={k}: recurrence violated"
    spots = [((5, 7), 13), ((4, 6), 7), ((4, 7), 8)]
    for (m, n), want in spots:
        got = cycle_ramsey(m, n)
        if got != want:
            return "fail", f"cycle pair ({m},{n}): {got}, wanted {want}"
    for n in range(2, 51):
        for k in range(1, 51):
            lo, hi = even_cycle_gr_bounds(n, k)
            if lo > hi:
                return "fail", f"even-cycle bounds crossed at n={n} k={k}"
    return "pass", "linear form t<=64, recurrence grid 4..16 x 1..16, cycle spots, bound order"


def _rainbow_oracle(graph: ColoredCompleteGraph):
    for a, b, c in itertools.combinations(range(graph.n), 3):
        x = graph.color_of(a, b)
        y = graph.color_of(a, c)
        z = graph.color_of(b, c)
        if x != y and y != z and x != z:
            return (a, b, c)
    return None


def _random_coloring(n: int, k: int, rng: random.Random) -> ColoredCompleteGraph:
    tri = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
    return ColoredCompleteGraph(n, k, tri)


def _audit_graph(graph: ColoredCompleteGraph) -> str | None:
    fast_rb = find_rainbow_triangle(graph)
    if (fast_rb is None) != (_rainbow_oracle(graph) is None):
        return "rainbow-triangle disagreement"
    if fast_rb is not None and not verify_witness(graph, fast_rb):
        return "rainbow witness failed re-verification"
    for kind in PATTERN_KINDS:
        for size in range(max(2, _MIN_SIZE[kind]), 7):
            pattern = Pattern(kind, size)
            fast = contains_pattern(graph, pattern)
            slow = brute_force_find(graph, pattern)
            if (fast is None) != (slow is None):
                return f"{kind} size {size}: any-color disagreement"
            if fast is not None and not verify_witness(graph, fast):
                return f"{kind} size {size}: witness failed re-verification"
            if size <= 4:
                for color in range(1, graph.k + 1):
                    f2 = contains_pattern(graph, pattern, color)
                    s2 = brute_force_find(graph, pattern, color)
                    if (f2 is None) != (s2 is None):
                        return f"{kind} size {size}: color {color} disagreement"
                    if f2 is not None and not verify_witness(graph, f2):
                        return f"{kind} size {size}: color {color} witness failed"
    return None


def _c6_equivalence(ctx: ReproContext):
    audited = 0
    for bits in range(64):
        tri = [1 + ((bits >> i) & 1) for i in range(6)]
        graph = ColoredCompleteGraph(4, 2, tri)
        problem = _audit_graph(graph)
        if problem:
            return "fail", f"K4 coloring #{bits}: {problem}"
        audited += 1
    rng = random.Random(220)
    samples = 120 if ctx.quick else 1000
    for i in range(samples):
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)
        graph = _random_coloring(n, k, rng)
        problem = _audit_graph(graph)
        if problem:
            return "fail", f"random sample {i} (n={n}, k={k}): {problem}"
        audited += 1
    return "pass", f"{audited} colorings audited against the definitional oracle; zero disagreements"


def _c7_graphs(samples: int, rng: random.Random):
    """(label, coloring) for the seeded random samples, then the constructions."""
    for i in range(samples):
        n = rng.randint(2, 200)
        k = rng.randint(1, 6)
        yield f"sample {i} (n={n}, k={k})", random_gallai(n, k, rng.randrange(2**32))
    for t in (4, 5, 6):
        for k in range(1, 6):
            yield f"construction t={t} k={k}", lower_bound_construction(t, k)


def _c7_decomposition(ctx: ReproContext):
    done = 0
    for label, graph in _c7_graphs(60 if ctx.quick else 500, random.Random(1106)):
        ok, why = validate_partition(graph, gallai_partition(graph))
        if not ok:
            return "fail", f"{label}: {why}"
        done += 1
    return "pass", f"{done} partitions extracted and validated with zero failures"


def _c8_upper_bound(ctx: ReproContext):
    samples = 400 if ctx.quick else 10000
    base = 900000
    for i in range(samples):
        seed = base + i
        graph = random_gallai(16, 3, seed)
        if contains_pattern(graph, Pattern.star_plus(4)) is None:
            path = os.path.join(ctx.out_dir, f"counterexample-order16-seed{seed}.gcg")
            _write_text(path, encode(graph))
            return "fail", f"seed {seed} avoids the order-4 target in all 3 colors; saved to {path}"
    return "pass", f"{samples} rainbow-free colorings of order 16 all contain the order-4 target"


def _child_env() -> dict[str, str]:
    """Environment for a CLI child whose cwd is not this one.

    ``PYTHONPATH`` leads with the directory that holds this package,
    followed by the inherited entries made absolute, so the child imports
    the package under test from a ``src/`` checkout or an install.
    """
    package_root = str(Path(__file__).resolve().parents[1])
    inherited = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}


def _fresh_run(argv: list[str], workdir: str, artifact: str, notes: list[str]):
    """One CLI child in a fresh interpreter; returns (exit code, stdout, artifact
    bytes), or None after adding a note when the child fails or writes no
    artifact.  The artifact is deleted first, so the bytes are this run's."""
    path = Path(workdir) / artifact
    path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "gallai_forge.cli", *argv],
        capture_output=True,
        cwd=workdir,
        env=_child_env(),
    )
    if proc.returncode == 0 and path.exists():
        return proc.returncode, proc.stdout, path.read_bytes()
    lines = proc.stderr.decode("utf-8", "replace").strip().splitlines()
    missing = "" if path.exists() else f", wrote no {artifact}"
    last = lines[-1] if lines else "(no stderr)"
    notes.append(f"`{' '.join(argv)}` exited {proc.returncode}{missing}: {last}")
    return None


def _c9_determinism(ctx: ReproContext):
    notes: list[str] = []
    workdir = ctx.out_dir
    witness = "witness-star-plus-s4-t4-order6.gcg"
    fixed_cases = [
        (["construct", "--family", "star-plus", "-t", "5", "-k", "3", "-o", "c9.gcg"], "c9.gcg"),
        (["random", "-n", "24", "-k", "4", "--seed", "31", "-o", "r9.gcg"], "r9.gcg"),
        (["ramsey", "--family", "star-plus", "-t", "4", "--out-dir", "."], witness),
    ]
    for argv, artifact in fixed_cases:
        runs = [_fresh_run(argv, workdir, artifact, notes) for _ in range(3)]
        if None not in runs and len(set(runs)) != 1:
            notes.append(f"{argv[0]}: 3 identical runs differ")
    # job counts must not change certified verdicts/values or artifacts
    run1 = _fresh_run(
        ["ramsey", "--family", "star-plus", "-t", "4", "--jobs", "1", "--out-dir", "."], workdir, witness, notes
    )
    run4 = _fresh_run(
        ["ramsey", "--family", "star-plus", "-t", "4", "--jobs", "4", "--out-dir", "."], workdir, witness, notes
    )
    if run1 is not None and run4 is not None:
        (code1, out1, witness1), (code4, out4, witness4) = run1, run4
        result1 = json.loads(out1)["result"]
        result4 = json.loads(out4)["result"]
        if not (code1 == code4 and result1 == result4 and witness1 == witness4):
            notes.append("--jobs 1 vs --jobs 4 diverge")
    target = Pattern.star_plus(4)
    solo = search_two_color(6, target, target, jobs=1)
    quad = search_two_color(6, target, target, jobs=4)
    if (solo.verdict, solo.nodes, solo.prunes) != (quad.verdict, quad.nodes, quad.prunes):
        notes.append("search counters differ between jobs=1 and jobs=4")
    elif encode(solo.witness) != encode(quad.witness):
        notes.append("search witnesses differ between jobs=1 and jobs=4")
    if notes:
        return "fail", "; ".join(notes)
    return "pass", (
        "byte-identical CLI outputs across 3 fresh runs and across --jobs {1,4}; search identical at jobs {1,4}"
    )


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    check: Callable[[ReproContext], tuple[str, str]]
    limit: float | None  # seconds; a pass that takes longer is a fail


CRITERIA = [
    Criterion(1, "exact certification at size 4", _c1_exact_t4, 60.0),
    Criterion(2, "triangle value and size-3 divergence", _c2_triangle, 1.0),
    Criterion(3, "stretch certification at sizes 5 to 7", _c3_stretch, 60.0),
    Criterion(4, "lower-bound constructions verify clean", _c4_constructions, 300.0),
    Criterion(5, "closed-form suite", _c5_formulas, None),
    Criterion(6, "detector/oracle equivalence", _c6_equivalence, 120.0),
    Criterion(7, "partition extraction and validation", _c7_decomposition, 300.0),
    Criterion(8, "statistical upper-bound check at order 16", _c8_upper_bound, None),
    Criterion(9, "byte-level determinism", _c9_determinism, None),
]


def run_criterion(criterion: Criterion, ctx: ReproContext) -> dict:
    """Run one criterion; the row carries a 'seconds' key that callers keep
    off stdout."""
    begin = time.perf_counter()
    try:
        status, detail = criterion.check(ctx)
    except Exception as exc:  # a crash is a failed criterion, not a crash of the matrix
        status, detail = "fail", f"exception: {exc!r}"
    elapsed = time.perf_counter() - begin
    if status == "pass" and criterion.limit is not None and elapsed > criterion.limit:
        status, detail = "fail", f"{detail}; ran past the {criterion.limit:g}s limit"
    return {
        "criterion": criterion.number,
        "name": criterion.name,
        "status": status,
        "detail": detail,
        "seconds": elapsed,
    }


def run_matrix(quick: bool = False, stretch: bool = False, jobs: int = 1, out_dir: str = "."):
    """Run all criteria; returns (rows, all_pass).  Raises ValueError for a
    job count below 1 and OSError for an unusable ``out_dir``, before any
    criterion runs."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    ctx = ReproContext(quick=quick, stretch=stretch, jobs=jobs, out_dir=out_dir)
    rows = [run_criterion(criterion, ctx) for criterion in CRITERIA]
    return rows, all(row["status"] != "fail" for row in rows)
