"""Command-line surface.

Every subcommand prints exactly one JSON report on stdout with the shape
{"command", "inputs", "result", "exit"} and keeps human diagnostics (wall
times, progress) on stderr, so pipelines can parse stdout unconditionally.
``inputs`` echoes every flag under its long name (``_`` written as ``-``),
after derived defaults (``ramsey -s``, ``random --seed``) are resolved.

Exit codes: 0 = claim holds / artifact produced, 1 = claim violated or
value mismatch, 2 = usage or malformed input, 3 = no verdict: the search
budget ran out (reason "nodes" or "time") or no order up to --n-max was
exhausted (reason "n-max").
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .constructions import lower_bound_construction, lower_bound_recipe, random_gallai
from .decompose import RainbowTrianglePresent, gallai_partition
from .formulas import (
    TARGET_FAMILIES,
    describe_cycle,
    describe_even_cycle_bounds,
    describe_gr,
    describe_ramsey,
)
from .graphs import GcgFormatError, decode, encode
from .patterns import PATTERN_KINDS, Pattern, contains_pattern, find_rainbow_triangle
from .search import BudgetExhausted, NotFoundBelowCap, SearchBudget, certify_claim


def _env_seed() -> int:
    raw = os.environ.get("GALLAI_FORGE_SEED", "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"GALLAI_FORGE_SEED must be an integer, got {raw!r}") from None


def _finite_float(text: str) -> float:
    """argparse type for a float that strict JSON can echo: NaN and the
    infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _read_text(path: str) -> str:
    """The file as text with universal newlines, as text mode reads it; a
    non-ASCII byte raises GcgFormatError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # "?" stands in for the fault, so the last line is the one that holds
        # it; splitlines breaks where decode does, at "\r" and "\r\n" too
        lines = (data[: exc.start].decode("ascii") + "?").splitlines()
        fault = f"non-ASCII byte 0x{data[exc.start]:02x}"
        raise GcgFormatError(len(lines), len(lines[-1]), fault) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_text(path: str, text: str) -> None:
    # newline="" keeps the canonical LF bytes on every platform
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _cmd_construct(args: argparse.Namespace):
    graph = lower_bound_construction(args.t, args.k)  # refuses a build larger than memory
    recipe = lower_bound_recipe(args.t, args.k)
    path = args.output or f"construction-{args.family}-t{args.t}-k{args.k}.gcg"
    _write_text(path, encode(graph) + f"# recipe: {recipe.text()}\n")
    threshold = describe_gr(args.family, args.t, args.k)["value"]
    result = {
        "order": graph.n,
        "colors": graph.k,
        "path": path,
        "recipe": recipe.text(),
        "threshold": threshold,
    }
    sys.stderr.write(f"wrote order-{graph.n} coloring with {graph.k} colors to {path}\n")
    return result, 0


def _cmd_verify(args: argparse.Namespace):
    graph = decode(_read_text(args.input))
    checks = []
    rainbow = find_rainbow_triangle(graph)
    checks.append(
        {
            "check": "rainbow-triangle",
            "found": rainbow is not None,
            "witness": None if rainbow is None else rainbow.to_json_dict(),
        }
    )
    violated = rainbow is not None
    if not args.rainbow_only:
        if args.family is None or args.t is None:
            raise ValueError("--family and -t are required unless --rainbow-only is set")
        target = Pattern(args.family, args.t)
        witness = contains_pattern(graph, target)
        checks.append(
            {
                "check": "monochromatic-target",
                "family": args.family,
                "t": args.t,
                "found": witness is not None,
                "witness": None if witness is None else witness.to_json_dict(),
            }
        )
        violated = violated or witness is not None
    result = {"n": graph.n, "k": graph.k, "holds": not violated, "checks": checks}
    return result, (1 if violated else 0)


def _cmd_decompose(args: argparse.Namespace):
    graph = decode(_read_text(args.input))
    try:
        partition = gallai_partition(graph)
    except RainbowTrianglePresent as exc:
        result = {"holds": False, "rainbow_triangle": exc.witness.to_json_dict()}
        return result, 1
    # gallai_partition has validated the partition, so its quotient rows are the reduced graph
    q = partition.quotient.tolist()
    result = {
        "holds": True,
        "partition": partition.to_json_dict(),
        "reduced": {"order": len(q), "rows": [q[i][:i] for i in range(1, len(q))]},
    }
    return result, 0


def _cmd_ramsey(args: argparse.Namespace):
    if args.s is None:
        args.s = args.t
    budget = SearchBudget(max_nodes=args.max_nodes, max_time=args.max_seconds)
    # fail on an unusable --out-dir before the search, not after it
    os.makedirs(args.out_dir, exist_ok=True)
    start = time.perf_counter()
    report = certify_claim(args.family, args.s, args.t, n_max=args.n_max, budget=budget, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    certificate = report.certificate
    witness_path = os.path.join(
        args.out_dir,
        f"witness-{args.family}-s{args.s}-t{args.t}-order{certificate.witness.n}.gcg",
    )
    _write_text(witness_path, encode(certificate.witness))
    sys.stderr.write(
        f"searched orders 2..{certificate.value} in {elapsed:.2f}s "
        f"({certificate.exhausted_outcome.nodes} nodes at the exhausted order)\n"
    )
    return {**report.to_json_dict(), "witness_path": witness_path}, (0 if report.matches else 1)


def _cmd_formula(args: argparse.Namespace):
    result = args.evaluate(args)
    if "value" in result:
        sys.stderr.write(f"value {result['value']} via branch {result['branch']}\n")
    else:
        sys.stderr.write(
            f"bounds [{result['lower']}, {result['upper']}] via branch {result['branch']}\n"
        )
    return result, 0


def _cmd_random(args: argparse.Namespace):
    if args.seed is None:
        args.seed = _env_seed()
    graph = random_gallai(args.n, args.k, args.seed)
    path = args.output or f"random-n{args.n}-k{args.k}-seed{args.seed}.gcg"
    _write_text(path, encode(graph))
    result = {"n": graph.n, "k": graph.k, "seed": args.seed, "path": path}
    return result, 0


def _cmd_repro(args: argparse.Namespace):
    from . import repro

    rows, all_pass = repro.run_matrix(
        quick=args.quick, stretch=args.stretch, jobs=args.jobs, out_dir=args.out_dir
    )
    for row in rows:
        sys.stderr.write(
            f"[{row['status'].upper():<4}] {row['criterion']}. {row['name']} "
            f"({row['seconds']:.1f}s): {row['detail']}\n"
        )
    sys.stderr.write("overall: " + ("PASS" if all_pass else "FAIL") + "\n")
    # wall times stay on stderr so stdout is reproducible byte for byte
    stdout_rows = [{k: v for k, v in row.items() if k != "seconds"} for row in rows]
    result = {"criteria": stdout_rows, "all_pass": all_pass}
    return result, (0 if all_pass else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallai-forge",
        description=(
            "Construct, verify, decompose, and certify rainbow-triangle-free "
            "edge colorings of complete graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write an extremal lower-bound coloring")
    p.add_argument("--family", required=True, choices=TARGET_FAMILIES)
    p.add_argument("-t", type=int, required=True, help="target order (>= 4)")
    p.add_argument("-k", type=int, required=True, help="number of colors (>= 1)")
    p.add_argument("-o", "--output", default=None, help="output GCG path")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring for rainbow triangles and targets")
    p.add_argument("input", help="GCG file to check")
    p.add_argument("--family", choices=PATTERN_KINDS, default=None)
    p.add_argument("-t", type=int, default=None, help="target order")
    p.add_argument("--rainbow-only", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("decompose", help="extract a partition with monochromatic cross edges")
    p.add_argument("input", help="GCG file to decompose")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("ramsey", help="certify a two-color value by exhaustive search")
    p.add_argument("--family", required=True, choices=TARGET_FAMILIES)
    p.add_argument("-t", type=int, required=True, help="second target order")
    p.add_argument("-s", type=int, default=None, help="first target order (defaults to t)")
    p.add_argument("--n-max", type=int, default=None, help="largest order to try")
    per_order = "for each order tried (2 up to the value), counted afresh at each: a run may spend value - 1 caps"
    p.add_argument("--max-nodes", type=int, default=None, help=f"node cap {per_order}")
    p.add_argument("--max-seconds", type=_finite_float, default=None, help=f"time cap in seconds {per_order}")
    p.add_argument("--jobs", type=int, default=1, help="worker processes; changes no counter, witness or stdout byte")
    p.add_argument("--out-dir", default=".", help="directory for witness files")
    p.set_defaults(handler=_cmd_ramsey)

    p = sub.add_parser("formula", help="evaluate a closed-form value or bound")
    fsub = p.add_subparsers(dest="formula", required=True)
    q = fsub.add_parser("gr", help="k-color threshold for a star-plus/path-plus target")
    q.add_argument("--family", required=True, choices=TARGET_FAMILIES)
    q.add_argument("-t", type=int, required=True)
    q.add_argument("-k", type=int, required=True)
    q.set_defaults(evaluate=lambda a: describe_gr(a.family, a.t, a.k))
    q = fsub.add_parser("ramsey", help="two-color value for star-plus/path-plus targets")
    q.add_argument("--family", required=True, choices=TARGET_FAMILIES)
    q.add_argument("-s", type=int, required=True)
    q.add_argument("-t", type=int, required=True)
    q.set_defaults(evaluate=lambda a: describe_ramsey(a.family, a.s, a.t))
    q = fsub.add_parser("cycle", help="two-color cycle-versus-cycle value")
    q.add_argument("-m", type=int, required=True, help="shorter cycle length")
    q.add_argument("-n", type=int, required=True, help="longer cycle length")
    q.set_defaults(evaluate=lambda a: describe_cycle(a.m, a.n))
    q = fsub.add_parser("even-cycle-bounds", help="k-color bounds for an even cycle")
    q.add_argument("-n", type=int, required=True, help="half the cycle length")
    q.add_argument("-k", type=int, required=True)
    q.set_defaults(evaluate=lambda a: describe_even_cycle_bounds(a.n, a.k))
    p.set_defaults(handler=_cmd_formula)

    p = sub.add_parser("random", help="write a seeded random rainbow-free coloring")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="defaults to $GALLAI_FORGE_SEED or 0")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("repro", help="run the acceptance matrix and print a pass/fail table")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.add_argument("--stretch", action="store_true", help="include the size-5 to size-7 certifications")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_repro)

    return parser


# namespace entries that are not flags: the subcommand, its handler, the formula
_NOT_ECHOED = ("command", "handler", "evaluate")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result, code = args.handler(args)
    except GcgFormatError as exc:
        result, code = {"error": f"malformed input: {exc}"}, 2
    except (OSError, ValueError, MemoryError) as exc:
        result, code = {"error": str(exc)}, 2
    except BudgetExhausted as exc:
        result, code = {"error": "budget exhausted", "reason": exc.reason, "nodes": exc.nodes}, 3
    except NotFoundBelowCap as exc:
        result, code = {"error": str(exc), "reason": "n-max"}, 3
    # handlers write derived defaults back onto args, so this echoes them resolved
    inputs = {dest.replace("_", "-"): v for dest, v in vars(args).items() if dest not in _NOT_ECHOED}
    report = {"command": args.command, "inputs": inputs, "result": result, "exit": code}
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
