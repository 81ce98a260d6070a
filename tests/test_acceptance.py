"""Acceptance gate: one test per criterion of ``gallai_forge.repro``, each
printing a pass/fail line.

The criteria, their samples, seeds and time limits live in ``repro.py``;
these tests run them with the stretch certification on and four jobs.
"""

from __future__ import annotations

from gallai_forge.repro import CRITERIA, ReproContext, run_criterion

from conftest import ACCEPTANCE_LINES


# the detail ``repro`` prints on stdout for the certification criteria
DETAILS = {
    1: "star-plus exhausted order 7 in 95 nodes; path-plus exhausted order 7 in 95 nodes",
    3: (
        "(star-plus 5, star-plus 5) = 9 [513 nodes]; (path-plus 5, path-plus 5) = 9 [274 nodes]; "
        "(path-plus 4, path-plus 5) = 9 [156 nodes]; (star-plus 6, star-plus 6) = 11 [15651 nodes]; "
        "(path-plus 6, path-plus 6) = 11 [776 nodes]; (path-plus 7, path-plus 7) = 13 [4477 nodes]"
    ),
}


def _run(number: int, tmp_path) -> None:
    criterion = CRITERIA[number - 1]
    ctx = ReproContext(quick=False, stretch=True, jobs=4, out_dir=str(tmp_path))
    row = run_criterion(criterion, ctx)
    limit = "" if criterion.limit is None else f", limit {criterion.limit:g}s"
    ok = row["status"] == "pass"
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {row['detail']} ({row['seconds']:.2f}s{limit})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    if number in DETAILS:
        assert row["detail"] == DETAILS[number]


def test_criterion_1_exact_certification_t4(tmp_path):
    _run(1, tmp_path)


def test_criterion_2_triangle_divergence(tmp_path):
    _run(2, tmp_path)


def test_criterion_3_stretch_t5(tmp_path):
    _run(3, tmp_path)


def test_criterion_4_constructions(tmp_path):
    _run(4, tmp_path)


def test_criterion_5_formula_suite(tmp_path):
    _run(5, tmp_path)


def test_criterion_6_detector_oracle_equivalence(tmp_path):
    _run(6, tmp_path)


def test_criterion_7_decomposition(tmp_path):
    _run(7, tmp_path)


def test_criterion_8_statistical_upper_bound(tmp_path):
    _run(8, tmp_path)


def test_criterion_9_determinism(tmp_path):
    _run(9, tmp_path)
