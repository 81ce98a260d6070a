"""The three benchmark workloads.

Each workload has a ``setup`` that makes its inputs from the seed, as a
list of batches of items, a ``run_item`` that runs one item through the
package's public functions (a pass runs it on every item of a batch, and
the harness times each call), and a ``check`` that judges a pass's outputs
outside the timed region.  An item that raises, or whose output fails a
check, is a failed item; the run goes on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from gallai_forge import (
    ColoredCompleteGraph,
    Pattern,
    RainbowTrianglePresent,
    SearchBudget,
    brute_force_find,
    contains_pattern,
    cycle_ramsey,
    decode,
    encode,
    find_rainbow_triangle,
    gallai_partition,
    gr_value,
    lower_bound_construction,
    ramsey_number,
    ramsey_value,
    random_gallai,
    reduced_graph,
    validate_partition,
    verify_witness,
)


@dataclass
class Result:
    item: str
    out: object = None
    error: str | None = None


def attempt(item: str, fn, *args, **kwargs) -> Result:
    try:
        return Result(item, fn(*args, **kwargs))
    except Exception as exc:  # an item that raises, BudgetExhausted too, is a failed item
        return Result(item, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# certify

PAIRS = ("K3-K3", "S4-S4", "P4-P4", "S5-S5", "P5-P5", "P4-P5", "S4-S6", "S5-S6", "P5-P6", "P6-P6", "C5-C5")
_KIND = {"K": "clique", "S": "star-plus", "P": "path-plus", "C": "cycle"}

# Far above the slowest order (under 2 s); a search this slow is a failure.
SEARCH_SECONDS = 20.0


def checker_kind(p: Pattern) -> str:
    """Which incremental checker the search builds for ``p``."""
    if p.size == 3 and p.kind in ("clique", "star-plus", "path-plus"):
        return "triangle"
    if p.kind == "star-plus" or (p.kind == "path-plus" and p.size == 4):
        return "star_plus"
    return "generic"


def expected_value(first: Pattern, second: Pattern) -> int:
    """The closed form the certified value must equal."""
    kinds = {first.kind, second.kind}
    if kinds == {"clique"} and first.size == second.size == 3:
        return 6
    if kinds == {"cycle"}:
        return cycle_ramsey(min(first.size, second.size), max(first.size, second.size))
    (family,) = kinds
    return ramsey_value(family, first.size, second.size)


@dataclass(frozen=True)
class Pair:
    name: str
    first: Pattern
    second: Pattern
    expected: int

    @property
    def n_max(self) -> int:
        return 2 * max(self.first.size, self.second.size) + 1

    @property
    def checker(self) -> str:
        # a mixed pair is filed under the slower of its two checkers
        order = ("triangle", "star_plus", "generic")
        return max(checker_kind(self.first), checker_kind(self.second), key=order.index)


def make_pair(name: str) -> Pair:
    first, second = (Pattern(_KIND[code[0]], int(code[1:])) for code in name.split("-"))
    return Pair(name, first, second, expected_value(first, second))


def _signature(cert) -> tuple:
    # everything that must not depend on the worker count
    outcomes = (cert.witness_outcome, cert.exhausted_outcome)
    counts = tuple((o.verdict, o.nodes, o.prunes) if o is not None else None for o in outcomes)
    return (cert.value, counts, encode(cert.witness))


# Workers in the traced run's parallel pass: nproc on the 2-vCPU machine the
# benchmark was written on.  Only the traced run uses the pool: on two
# shared vCPUs the wall time of two workers measures the host's scheduler
# more than the program, so it is not an end-to-end workload.
PARALLEL_JOBS = 2


class Certify:
    """``ramsey_number`` at ``jobs`` workers over fixed target pairs; the
    seed is not used.  ``parallel_pass`` runs the pairs again on a pool."""

    name = "certify"

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self._judged: dict = {}
        self._signatures: dict = {}  # pair name -> signature of its last checked result

    def setup(self, seed: int, tracer) -> list[list[Pair]]:
        return [[make_pair(name) for name in PAIRS]]

    def run_item(self, pair: Pair, tracer) -> Result:
        budget = SearchBudget(max_time=SEARCH_SECONDS)
        with tracer.span("search.ramsey", pair.name):
            return attempt(pair.name, ramsey_number, pair.first, pair.second, pair.n_max, budget=budget, jobs=self.jobs)

    def check(self, pairs: list[Pair], results: list[Result], tracer) -> list[str]:
        failures = []
        for pair, res in zip(pairs, results):
            if res.error is not None:
                failures.append(f"{pair.name}: {res.error}")
                continue
            sig = self._signatures[pair.name] = _signature(res.out)
            problem = self._judged.get((pair.name, sig))
            if problem is None:
                problem = self._judged[(pair.name, sig)] = judge_certificate(pair, res.out) or ""
            if problem:
                failures.append(f"{pair.name}: {problem}")
        return failures

    def parallel_pass(self, pairs: list[Pair], tracer) -> list[str]:
        """Run every pair at ``PARALLEL_JOBS`` workers, after ``check`` has
        seen a pass; a result whose value, counters or witness bytes differ
        from the checked one is a failure."""
        pool = Certify(PARALLEL_JOBS)
        failures = []
        for pair in pairs:
            res = pool.run_item(pair, tracer)
            checked = self._signatures.get(pair.name)
            if res.error is not None:
                failures.append(f"{pair.name} at jobs={PARALLEL_JOBS}: {res.error}")
            elif checked is not None and _signature(res.out) != checked:
                failures.append(f"{pair.name}: result at jobs={PARALLEL_JOBS} differs from jobs={self.jobs}")
        return failures


def judge_certificate(pair: Pair, cert) -> str | None:
    """Check a certificate against the closed form and the definitional
    oracle; returns the first problem found."""
    if cert.value != pair.expected:
        return f"certified value {cert.value}, closed form gives {pair.expected}"
    if cert.exhausted_outcome.verdict != "exhausted":
        return f"final order has verdict {cert.exhausted_outcome.verdict}"
    witness = cert.witness
    if witness.n != cert.value - 1:
        return f"witness order {witness.n}, wanted {cert.value - 1}"
    for p, color in ((pair.first, 1), (pair.second, 2)):
        if brute_force_find(witness, p, color) is not None:
            return f"oracle finds {p.kind} on {p.size} vertices in color {color} of the witness"
    return None


# ---------------------------------------------------------------------------
# verify_large

CONSTRUCTIONS = ((4, 7), (5, 7), (6, 5))  # (t, k): orders 375, 500, 125
RANDOM_ORDERS = (375, 500)
RANDOM_COLORS = 7
RANDOM_TARGET = 4
NON_GALLAI = (500, 3)  # order and colors of the uniform-random coloring


@dataclass(frozen=True)
class LargeItem:
    name: str
    kind: str  # "construction" | "random" | "non_gallai": what the checks expect
    t: int
    k: int
    n: int
    seed: int = 0
    graph: ColoredCompleteGraph | None = None  # given inputs are not built in the pass


@dataclass
class LargeOutput:
    built: ColoredCompleteGraph
    decoded: ColoredCompleteGraph
    rainbow: object
    star_plus: object
    path_plus: object
    partition: object = None
    valid: tuple = (False, "not run")
    reduced: ColoredCompleteGraph | None = None
    refused: object = None


def _all_masks(graph: ColoredCompleteGraph) -> None:
    for c in range(1, graph.k + 1):
        graph.color_masks(c)


class VerifyLarge:
    """Construct or generate, encode; then decode, detect and decompose."""

    name = "verify_large"

    def setup(self, seed: int, tracer) -> list[list[LargeItem]]:
        rng = random.Random(seed)
        items = [
            LargeItem(f"construction-t{t}-k{k}", "construction", t, k, gr_value("star-plus", t, k) - 1)
            for t, k in CONSTRUCTIONS
        ]
        items += [
            LargeItem(f"random-n{n}", "random", RANDOM_TARGET, RANDOM_COLORS, n, seed=rng.randrange(2**32))
            for n in RANDOM_ORDERS
        ]
        n, k = NON_GALLAI
        colors = np.random.default_rng(rng.randrange(2**32)).integers(1, k + 1, size=n * (n - 1) // 2)
        graph = ColoredCompleteGraph(n, k, colors)
        items.append(LargeItem(f"non-gallai-n{n}", "non_gallai", RANDOM_TARGET, k, n, graph=graph))
        return [items]

    def run_item(self, item: LargeItem, tracer) -> Result:
        with tracer.span("item", item.name):
            return attempt(item.name, self._one, item, tracer)

    @staticmethod
    def _one(item: LargeItem, tracer) -> LargeOutput:
        if item.graph is not None:
            built = item.graph
        elif item.kind == "construction":
            built = tracer.call("constructions.build", lower_bound_construction, item.t, item.k)
        else:
            built = tracer.call("constructions.random", random_gallai, item.n, item.k, item.seed)
        text = tracer.call("graphs.encode", encode, built)
        tracer.annotate(bytes=len(text))
        graph = tracer.call("graphs.decode", decode, text)
        tracer.annotate(bytes=len(text))
        tracer.call("graphs.masks", _all_masks, graph)
        rainbow = tracer.call("patterns.rainbow", find_rainbow_triangle, graph)
        tracer.annotate(n=graph.n, hit=rainbow is not None)
        star = tracer.call("patterns.star_plus", contains_pattern, graph, Pattern.star_plus(item.t))
        tracer.annotate(hit=star is not None)
        path = tracer.call("patterns.path_plus", contains_pattern, graph, Pattern.path_plus(item.t))
        tracer.annotate(hit=path is not None)
        out = LargeOutput(built, graph, rainbow, star, path)
        try:
            out.partition = tracer.call("decompose.partition", gallai_partition, graph)
        except RainbowTrianglePresent as exc:
            out.refused = exc.witness
            return out
        out.valid = tracer.call("decompose.validate", validate_partition, graph, out.partition)
        tracer.annotate(parts=len(out.partition.parts))
        out.reduced = tracer.call("decompose.reduced", reduced_graph, graph, out.partition)
        return out

    def check(self, items: list[LargeItem], results: list[Result], tracer) -> list[str]:
        failures = []
        for item, res in zip(items, results):
            problem = res.error if res.error is not None else judge_large(item, res.out)
            if problem:
                failures.append(f"{item.name}: {problem}")
        return failures


def judge_large(item: LargeItem, out: LargeOutput) -> str | None:
    graph = out.decoded
    if graph != out.built:
        return "decode(encode(g)) != g"
    if graph.n != item.n:
        return f"order {graph.n}, wanted {item.n}"
    for label in ("rainbow", "star_plus", "path_plus", "refused"):
        witness = getattr(out, label)
        if witness is not None and not verify_witness(graph, witness):
            return f"{label} witness fails verify_witness"
    if item.kind == "non_gallai":
        if out.rainbow is None:
            return "no rainbow triangle found in the uniform-random coloring"
        if out.refused is None:
            return "gallai_partition accepted a coloring with a rainbow triangle"
        return None
    if out.rainbow is not None:
        return "rainbow triangle reported in a rainbow-free coloring"
    if item.kind == "construction" and (out.star_plus is not None or out.path_plus is not None):
        return "target found in a clean extremal construction"
    if out.partition is None:
        return "gallai_partition refused a rainbow-free coloring"
    ok, why = out.valid
    if not ok:
        return f"partition fails validate_partition: {why}"
    if out.reduced.n != len(out.partition.parts):
        return f"reduced graph has order {out.reduced.n}, partition has {len(out.partition.parts)} parts"
    return None


# ---------------------------------------------------------------------------
# partition_many

MANY_COUNT = 100
MANY_ORDERS = (2, 200)
MANY_COLORS = 6
# With two colors the part count is either a color class's component count
# or n, so one batch's work swings with the seed; passes rotate over several
# batches, and the median pass averages that out.
MANY_BATCHES = 4


class PartitionMany:
    """Extract, validate and reduce many small random Gallai colorings.

    In each batch the orders are spread evenly over 2..200 and the color
    counts cycle through 1..6, so every seed gets the same mix; the seed
    picks each coloring.
    """

    name = "partition_many"

    def setup(self, seed: int, tracer) -> list[list[tuple[str, ColoredCompleteGraph]]]:
        rng = random.Random(seed)
        lo, hi = MANY_ORDERS
        batches = []
        for b in range(MANY_BATCHES):
            batch = []
            for i in range(MANY_COUNT):
                n = lo + (hi - lo) * i // (MANY_COUNT - 1)
                k = 1 + i % MANY_COLORS
                graph = tracer.call("constructions.random", random_gallai, n, k, rng.randrange(2**32))
                batch.append((f"b{b}-n{n}-k{k}", graph))
            batches.append(batch)
        return batches

    def run_item(self, named: tuple[str, ColoredCompleteGraph], tracer) -> Result:
        name, graph = named
        with tracer.span("item", name):
            return attempt(name, self._one, graph, tracer)

    @staticmethod
    def _one(graph: ColoredCompleteGraph, tracer):
        partition = tracer.call("decompose.partition", gallai_partition, graph)
        valid = tracer.call("decompose.validate", validate_partition, graph, partition)
        tracer.annotate(parts=len(partition.parts))
        reduced = tracer.call("decompose.reduced", reduced_graph, graph, partition)
        return partition, valid, reduced

    def check(self, inputs, results: list[Result], tracer) -> list[str]:
        failures = []
        for (name, graph), res in zip(inputs, results):
            problem = res.error if res.error is not None else judge_partition(graph, *res.out)
            if problem:
                failures.append(f"{name}: {problem}")
        return failures


def judge_partition(graph, partition, valid, reduced) -> str | None:
    ok, why = valid
    if not ok:
        return f"partition fails validate_partition: {why}"
    if sorted(v for part in partition.parts for v in part) != list(range(graph.n)):
        return "parts do not cover the vertices exactly once"
    if reduced.n != len(partition.parts):
        return f"reduced graph has order {reduced.n}, partition has {len(partition.parts)} parts"
    return None


def make_workloads() -> dict:
    return {
        w.name: w
        for w in (Certify(), VerifyLarge(), PartitionMany())
    }
