"""Benchmark for gallai-forge: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

It imports the package from the checkout's ``src/``, calls its public
functions in-process and times each call on an item from outside; a pass's
time is the sum over its items.  Between items it runs the yardstick loop
(``yardstick.py``) for 0.4 of the time the item took, and rescales the
end-to-end timings by the yardstick's speed in the same pass or set-up, so
that the host's slow and fast phases cancel out.  Every output is checked
after its pass, outside the timed region; an item that raises or fails a
check is counted in ``failed``.

stdout ends with two JSON lines.  The first describes the run: machine,
seed, why the workload exists, pass count, fail ratio, the first failures
and the unscaled timings.  The last is the result: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` they are the per-layer ones,
taken from spans recorded around each call; the run pairs each traced pass
with an untraced pass over the same batch, the median difference within a
pair is the tracing overhead, and the spans are written to
``perfbench/out/``.  A traced run of ``certify`` ends with a pass on a
process pool, for the pool's metrics and to check that the result does not
depend on the worker count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from yardstick import Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
POOL_SPAWN_REPEATS = 3
# Yardstick time per second of measured work.  More tracks the host's speed
# more closely and leaves less of a run for the workload.
YARDSTICK_SHARE = 0.4

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "batch_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def import_package() -> None:
    """Import gallai_forge from this checkout's src/ and nowhere else."""
    if not (SRC / "gallai_forge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gallai_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    # child processes get an absolute path: a relative one breaks in another cwd
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), inherited] if inherited else [str(SRC)])
    import gallai_forge

    if Path(gallai_forge.__file__).resolve().parent != SRC / "gallai_forge":
        sys.exit(f"perfbench: gallai_forge was imported from {gallai_forge.__file__}, not {SRC}")


def startup_seconds() -> float:
    """A fresh interpreter importing the package: what every command-line
    call pays before it does any work."""
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gallai_forge"], cwd=ROOT, check=True)
    return time.perf_counter() - begin


def pool_spawn_seconds() -> float:
    """Median wall time for a fresh 2-worker pool to run one trivial task."""
    times = []
    for _ in range(POOL_SPAWN_REPEATS):
        begin = time.perf_counter()
        with ProcessPoolExecutor(max_workers=2) as pool:
            pool.submit(os.getpid).result()
        times.append(time.perf_counter() - begin)
    return median(times)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, pass time) for the tail: the highest percentile with at
    least ten passes beyond it, but never below the upper quartile, which is
    what a run with fewer than 41 passes can show."""
    n = len(times)
    q = max(0.75, (n - 11) / (n - 1)) if n > 1 else 1.0
    ordered = sorted(times)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return 100 * q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run passes for about ``seconds``, yardstick rounds included,
    and check each pass.  Returns (result, info): the last stdout line and
    the one before it."""
    from gallai_forge import search
    from layers import PER_LAYER, per_layer
    from tracing import NullTracer, Tracer, per_order_spans

    tracer = Tracer() if trace else NullTracer()
    untraced = NullTracer()

    def order_spans(t):
        return per_order_spans(t, search) if t.enabled else nullcontext()

    stick = Yardstick(YARDSTICK_SHARE)
    setup_times, setup_scales = [], []
    for i in range(SETUP_REPEATS):
        tracer.round = f"setup{i}"
        begin = time.perf_counter()
        startup_seconds()
        batches = workload.setup(seed, tracer)
        setup_times.append(time.perf_counter() - begin)
        stick.reset()
        stick.follow(setup_times[-1])
        setup_scales.append(stick.scale())

    # raw seconds of the untraced (False) and traced (True) passes
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus, scales = [], []
    failures: list[str] = []
    attempted = 0
    i = 0
    spent = last = 0.0
    # Start another pass while it should end nearer the budget than this one
    # did.  A traced run makes pairs of an untraced and a traced pass over one
    # batch, taking turns at going first.
    while i < 1 + trace or (trace and i % 2) or spent + last / 2 < seconds:
        traced = trace and i % 2 != (i // 2) % 2
        batch = batches[(i // 2 if trace else i) % len(batches)]
        t = tracer if traced else untraced
        t.round = f"pass{i}"
        gc.collect()
        stick.reset()
        results = []
        wall = cpu = 0.0
        pass_begin = time.perf_counter()
        with order_spans(t):
            for item in batch:
                cpu_before = cpu_seconds()
                begin = time.perf_counter()
                results.append(workload.run_item(item, t))
                took = time.perf_counter() - begin
                cpu += cpu_seconds() - cpu_before
                wall += took
                stick.follow(took)
        last = time.perf_counter() - pass_begin
        spent += last
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
            scales.append(stick.scale())
        attempted += len(results)
        tracer.round = "check"
        with order_spans(tracer):
            failures.extend(workload.check(batch, results, tracer))
        i += 1

    parallel = trace and hasattr(workload, "parallel_pass")
    if parallel:
        tracer.round = "parallel"
        with order_spans(tracer):
            failures.extend(workload.parallel_pass(batches[0], tracer))
        attempted += len(batches[0])

    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "passes": len(walls[False]) + len(walls[True]),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }
    if trace:
        overhead = median(t - u for u, t in zip(walls[False], walls[True]))
        spawn = pool_spawn_seconds() if parallel else 0.0
        values = per_layer(tracer.spans, spawn, overhead)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        tracer.dump(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["computed"] = {"patterns.rainbow_triples_per_s": "C(n,3) / rainbow-check seconds, clean inputs only"}
    else:
        passes = [w * s for w, s in zip(walls[False], scales)]
        tail_pct, tail_s = tail(passes)
        info["tail_percentile"] = tail_pct
        info["unscaled"] = {
            "setup_s": median(setup_times),
            "batch_s": median(walls[False]),
            "cpu_s": median(cpus),
            "yardstick_scale": median(scales),
        }
        values = {
            "setup_s": median(t * s for t, s in zip(setup_times, setup_scales)),
            "batch_s": median(passes),
            "batch_tail_s": tail_s,
            "cpu_s": median(c * s for c, s in zip(cpus, scales)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="seconds of passes and yardstick rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import make_workloads

    workload = make_workloads()[args.workload]
    result, info = measure(workload, args.seed, args.seconds, bool(args.trace))
    info["why"] = why[args.workload]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
