"""The benchmark's own test.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload briefly, traced and untraced, and checks that the last
line names every metric of BENCHMARK.json with its unit; then plants wrong
results and checks that they are counted as failures.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.import_package()

from gallai_forge import ColoredCompleteGraph  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import PARALLEL_JOBS, Certify, LargeItem, VerifyLarge, make_pair  # noqa: E402
from yardstick import ROUND_SECONDS, Yardstick  # noqa: E402

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


class _PlantedCertify(Certify):
    def setup(self, seed, tracer):
        wrong = replace(make_pair("K3-K3"), expected=7)
        return [[wrong, make_pair("S4-S4")]]


class _PlantedLarge(VerifyLarge):
    def setup(self, seed, tracer):
        rainbow = ColoredCompleteGraph(3, 3, [1, 2, 3])
        # a rainbow triangle presented as a clean random Gallai coloring
        return [[LargeItem("planted", "random", 4, 3, 3, graph=rainbow)]]


@pytest.mark.parametrize(
    "workload, attempted",
    [(_PlantedCertify(), 2), (_PlantedLarge(), 1)],
)
def test_planted_wrong_result_counts_as_failure(workload, attempted):
    result, info = run.measure(workload, seed=1, seconds=0.0, trace=False)
    assert result["attempted"] == attempted
    assert result["failed"] == 1
    assert result["correct"] is False
    assert info["fail_ratio"] == 1 / attempted


def test_result_that_depends_on_jobs_counts_as_failure():
    workload = Certify()
    pairs = [make_pair("K3-K3")]
    workload._signatures["K3-K3"] = ("planted",)  # as if jobs=1 had given another result
    failures = workload.parallel_pass(pairs, NullTracer())
    assert failures == [f"K3-K3: result at jobs={PARALLEL_JOBS} differs from jobs=1"]


def test_yardstick_runs_its_share_and_scales_by_it():
    stick = Yardstick(0.5)
    stick.follow(0.2)
    assert stick.rounds >= 1 and stick.seconds >= 0.1
    rounds = stick.rounds
    stick.follow(0.0)  # the rounds already cover what is owed
    assert stick.rounds == rounds
    assert stick.scale() == ROUND_SECONDS * stick.rounds / stick.seconds
    stick.reset()
    assert (stick.rounds, stick.seconds) == (0, 0.0)
