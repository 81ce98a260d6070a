"""Per-layer metrics, computed from the spans of a traced run.

A timing is the median, over the traced set-ups and passes that make the
call, of the seconds spent in it during that set-up or pass.  A rate is
the same median of (amount / seconds).  A layer that a workload never
calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb
from statistics import median

from workloads import PAIRS, PARALLEL_JOBS, make_pair

PER_LAYER = {
    "search.nodes": "count",
    "search.prunes": "count",
    "search.prune_ratio": "ratio",
    "search.nodes_per_s": "nodes/s",
    "search.nodes_per_s.triangle": "nodes/s",
    "search.nodes_per_s.star_plus": "nodes/s",
    "search.nodes_per_s.generic": "nodes/s",
    "search.exhausted_share": "ratio",
    **{f"search.nodes.{pair}": "count" for pair in PAIRS},
    "search.par_efficiency": "ratio",
    "pool.spawn_s": "s",
    "pool.small_pairs_s": "s",
    "graphs.decode_s": "s",
    "graphs.decode_mb_per_s": "MB/s",
    "graphs.encode_s": "s",
    "graphs.encode_mb_per_s": "MB/s",
    "graphs.masks_s": "s",
    "patterns.rainbow_s": "s",
    "patterns.rainbow_triples_per_s": "triples/s",
    "patterns.star_plus_s": "s",
    "patterns.path_plus_s": "s",
    "patterns.hit_ratio": "ratio",
    "decompose.partition_s": "s",
    "decompose.validate_s": "s",
    "decompose.reduced_s": "s",
    "decompose.parts_mean": "parts",
    "decompose.parts_max": "parts",
    "decompose.part_pairs": "count",
    "decompose.validate_pairs_per_s": "pairs/s",
    "constructions.build_s": "s",
    "constructions.random_s": "s",
    "trace.overhead_s": "s",
}

# the largest trees; their exhausted searches measure parallel efficiency
_PAR_ORDER = 11
_SMALL_VALUE = 9
_PATTERN_CALLS = ("patterns.rainbow", "patterns.star_plus", "patterns.path_plus")


def _rounds(spans, name, keep=lambda s: True) -> list[list]:
    """Spans called ``name`` grouped by set-up or pass, in round order.
    Calls that raised are left out."""
    groups: dict[str, list] = defaultdict(list)
    for s in spans:
        if s.name == name and s.round.startswith(("setup", "pass")) and not s.failed and keep(s):
            groups[s.round].append(s)
    return list(groups.values())


def _total(groups, amount) -> float:
    return median(sum(amount(s) for s in g) for g in groups) if groups else 0


def _seconds(groups) -> float:
    return _total(groups, lambda s: s.seconds)


def _rate(groups, amount) -> float:
    rates = [sum(amount(s) for s in g) / t for g in groups if (t := sum(s.seconds for s in g)) > 0]
    return median(rates) if rates else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _nodes(s) -> int:
    return s.attrs["nodes"]


def per_layer(spans, spawn_s: float, overhead_s: float) -> dict[str, float]:
    """Every metric in PER_LAYER.  The pool's metrics come from the spans of
    the parallel pass (round ``parallel``), if the run made one."""
    values: dict[str, float] = {}
    pairs = [make_pair(name) for name in PAIRS]
    checker = {pair.name: pair.checker for pair in pairs}
    small_pairs = {pair.name for pair in pairs if pair.expected <= _SMALL_VALUE}

    orders = _rounds(spans, "search.order")
    nodes = _total(orders, _nodes)
    values["search.nodes"] = nodes
    values["search.prunes"] = _total(orders, lambda s: s.attrs["prunes"])
    values["search.prune_ratio"] = _ratio(values["search.prunes"], nodes)
    values["search.nodes_per_s"] = _rate(orders, _nodes)
    for kind in ("triangle", "star_plus", "generic"):
        of_kind = _rounds(spans, "search.order", lambda s, kind=kind: checker.get(s.item) == kind)
        values[f"search.nodes_per_s.{kind}"] = _rate(of_kind, _nodes)
    exhausted = _total(orders, lambda s: _nodes(s) if s.attrs["verdict"] == "exhausted" else 0)
    values["search.exhausted_share"] = _ratio(exhausted, nodes)
    for pair in PAIRS:
        final = [s for g in orders[:1] for s in g if s.item == pair and s.attrs["verdict"] == "exhausted"]
        values[f"search.nodes.{pair}"] = _nodes(final[0]) if final else 0

    def order_11(s):
        return s.attrs["n"] == _PAR_ORDER and s.attrs["verdict"] == "exhausted"

    # the parallel pass is one round of its own, after the jobs=1 passes
    pooled = [s for s in spans if s.round == "parallel" and not s.failed]
    pooled_11 = [s for s in pooled if s.name == "search.order" and order_11(s)]
    pool_rate = _ratio(sum(map(_nodes, pooled_11)), sum(s.seconds for s in pooled_11))
    single_rate = _rate(_rounds(spans, "search.order", order_11), _nodes)
    values["search.par_efficiency"] = _ratio(pool_rate, PARALLEL_JOBS * single_rate)

    values["pool.spawn_s"] = spawn_s
    small = [s.seconds for s in pooled if s.name == "search.ramsey" and s.item in small_pairs]
    values["pool.small_pairs_s"] = sum(small)

    megabytes = lambda s: s.attrs["bytes"] / 1e6  # noqa: E731
    for step in ("decode", "encode"):
        groups = _rounds(spans, f"graphs.{step}")
        values[f"graphs.{step}_s"] = _seconds(groups)
        values[f"graphs.{step}_mb_per_s"] = _rate(groups, megabytes)
    values["graphs.masks_s"] = _seconds(_rounds(spans, "graphs.masks"))

    values["patterns.rainbow_s"] = _seconds(_rounds(spans, "patterns.rainbow"))
    clean = _rounds(spans, "patterns.rainbow", lambda s: not s.attrs["hit"])
    values["patterns.rainbow_triples_per_s"] = _rate(clean, lambda s: comb(s.attrs["n"], 3))
    values["patterns.star_plus_s"] = _seconds(_rounds(spans, "patterns.star_plus"))
    values["patterns.path_plus_s"] = _seconds(_rounds(spans, "patterns.path_plus"))
    calls = [s for name in _PATTERN_CALLS for g in _rounds(spans, name) for s in g]
    values["patterns.hit_ratio"] = _ratio(sum(s.attrs["hit"] for s in calls), len(calls))

    values["decompose.partition_s"] = _seconds(_rounds(spans, "decompose.partition"))
    validations = _rounds(spans, "decompose.validate")
    values["decompose.validate_s"] = _seconds(validations)
    values["decompose.reduced_s"] = _seconds(_rounds(spans, "decompose.reduced"))
    parts = [s.attrs["parts"] for s in validations[0]] if validations else []
    values["decompose.parts_mean"] = _ratio(sum(parts), len(parts))
    values["decompose.parts_max"] = max(parts, default=0)
    block_count = lambda s: comb(s.attrs["parts"], 2)  # noqa: E731
    values["decompose.part_pairs"] = _total(validations, block_count)
    values["decompose.validate_pairs_per_s"] = _rate(validations, block_count)

    values["constructions.build_s"] = _seconds(_rounds(spans, "constructions.build"))
    values["constructions.random_s"] = _seconds(_rounds(spans, "constructions.random"))
    values["trace.overhead_s"] = overhead_s
    return values
