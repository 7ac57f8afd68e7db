"""Command line interface: solve, generate, verify.

All output is machine-readable JSON with rationals as "p/q" strings,
written to stdout or --out FILE, byte-stable for identical inputs.
Exit codes: 0 success, 1 infeasible instance or failed verification,
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from . import fair as fair_mod
from . import model
from .generators import (
    Graph,
    SetCoverInstance,
    fixture_adversarial,
    gen_clumps,
    gen_from_setcover,
    gen_from_vc3,
    gen_random,
)
from .model import (
    FairInstance,
    Instance,
    InstanceFormatError,
    InstanceSchemaError,
    NumberTooLongError,
    _is_int,
    rational_from,
    rational_str,
)
from .oracle import OracleCapExceeded, brute_force_colorful, brute_force_fair
from .solver import InternalError, solve_colorful

OK = 0
INFEASIBLE = 1
USAGE = 2
INTERNAL = 3

# most points of an instance gen builds in every family, and most gen random
# colors: an instance holds n * n distances, so its time and memory grow with
# n squared (2-core x86 VM: 1.4-1.5 s and 177-188 MB per family at 1,000 points;
# loading the gen random file back, with its metric check: 1.8-2.1 s, 116 MB)
MAX_POINTS = 1000

# most center sets solve-fair --samples draws: time and memory grow linearly
# (2-core x86 VM: 2.1 s and 43 MB at 100,000 samples of a 9-point instance)
MAX_SAMPLES = 100_000


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write_output(payload: dict, out_path):
    text = model.dumps_json(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise CliError(USAGE, f"{path}: invalid JSON: {exc}") from exc


def _centers_payload(kind: str, centers: model.CenterSet) -> dict:
    return {"kind": kind, "radius": rational_str(centers.radius),
            "centers": sorted(centers.centers)}


def _distribution_payload(kind: str, dist: fair_mod.Distribution) -> dict:
    return {"kind": kind, "radius": rational_str(dist.radius), "distribution": [
        {"centers": sorted(centers), "prob": rational_str(weight)}
        for centers, weight in dist.support
    ]}


def _coverage_rows(inst: Instance, report) -> list:
    return [
        {"color": i, "covered": covered, "demand": c.demand}
        for i, (covered, c) in enumerate(zip(report.counts, inst.colors))
    ]


# ---------------------------------------------------------------------------
# trace serialization


def _probe_row(rec, full: bool) -> dict:
    """One solver.ProbeRecord, a probe or a separation, as a trace row.
    Its cuts, LP solves and DP calls sum over the record and its
    separations, as SolveTrace's totals do.  A full row adds the
    record's own cuts, each separation as a full row, and a
    separation's dual point."""
    walk = (rec, *rec.separations)
    row = {
        "radius": rational_str(rec.radius),
        "outcome": rec.outcome,
        "cuts": sum(len(r.cuts) for r in walk),
        "lp_solves": sum(r.lp_solves for r in walk),
        "dp_calls": sum(r.dp_calls for r in walk),
        "restricted_solves": rec.restricted_solves,
        "separations": len(rec.separations),
    }
    if full:
        if rec.dual is not None:
            den = rec.dual.den
            row["mu"] = rational_str(Fraction(rec.dual.mu, den))
            row["eps"] = rational_str(Fraction(1, den))  # the weighted row's margin
            row["alpha"] = [rational_str(Fraction(a, den)) for a in rec.dual.alpha]
        row["cut_details"] = [{"centers": sorted(c.centers), "bound": c.bound} for c in rec.cuts]
        row["separation_details"] = [_probe_row(sep, full) for sep in rec.separations]
    return row


def _trace(trace, full: bool) -> dict:
    return {
        "probes": [_probe_row(rec, full) for rec in trace.records],
        "total_cuts": trace.total_cuts(),
        "total_lp_solves": trace.total_lp_solves(),
        "total_columns": trace.total_columns(),
    }


def _solved(payload: dict, sol, args) -> dict:
    """payload with the solve's probe radius, optimality and trace; also
    writes the full trace to --trace and one line per probe row to
    stderr under --json-logs."""
    payload["probe_radius"] = rational_str(sol.probe_radius)
    payload["optimal"] = sol.optimal
    payload["trace"] = _trace(sol.trace, full=False)
    if args.trace:
        _write_output(_trace(sol.trace, full=True), args.trace)
    if args.json_logs:
        for probe in payload["trace"]["probes"]:
            sys.stderr.write(json.dumps({"event": "probe", **probe}) + "\n")
    return payload


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args):
    inst = model.load_instance(args.instance)
    if isinstance(inst, FairInstance):
        raise CliError(USAGE, "instance has coverage targets; use solve-fair")
    sol = solve_colorful(inst)
    report = model.check_feasible(inst, sol.centers.centers, sol.centers.radius)
    if not report.feasible:
        raise InternalError("solver output fails re-validation")
    payload = _centers_payload("colorful-solution", sol.centers)
    payload["coverage"] = _coverage_rows(inst, report)
    return _solved(payload, sol, args), OK


def cmd_solve_fair(args):
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliError(USAGE, f"--samples must be in 0..{MAX_SAMPLES}, not {args.samples}")
    finst = model.load_instance(args.instance)
    if not isinstance(finst, FairInstance):
        raise CliError(USAGE, "instance has no coverage targets; use solve")
    sol = fair_mod.solve_fair(finst)
    dist = sol.distribution
    for centers, _ in dist.support:
        if not model.check_feasible(finst.base, centers, dist.radius).feasible:
            raise InternalError("distribution support fails re-validation")
    payload = _solved(_distribution_payload("fair-solution", dist), sol, args)
    if args.samples:
        payload["samples"] = [
            sorted(fair_mod.sample(dist, args.seed + i)) for i in range(args.samples)
        ]
    return payload, OK


def cmd_brute(args):
    inst = model.load_instance(args.instance)
    if isinstance(inst, FairInstance):
        return _distribution_payload("fair-optimum", brute_force_fair(inst, cap=args.cap)), OK
    return _centers_payload("colorful-optimum", brute_force_colorful(inst, cap=args.cap)), OK


def _parse_graph_text(text: str) -> Graph:
    edges = []
    declared = None
    top = -1
    # lines end at LF or CRLF, tokens at ASCII spaces and tabs; str.split
    # would also take other whitespace and int() signs, "_" and non-ASCII digits
    for raw in re.split(r"\r?\n", text):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        tokens = re.split(r"[ \t]+", line)
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise CliError(USAGE, f"bad graph line {raw!r}: not nonnegative integers "
                           "separated by spaces or tabs")
        nums = [int(tok) for tok in tokens]
        if len(nums) == 1 and declared is None and not edges:
            declared = nums[0]
            continue
        if len(nums) != 2:
            raise CliError(USAGE, f"bad edge line {raw!r}")
        edges.append(tuple(nums))
        top = max(top, *nums)
    n = declared if declared is not None else top + 1
    if n <= 0:
        raise CliError(USAGE, "graph has no vertices")
    _check_points(n, "graph")
    return Graph(n=n, edges=tuple(edges))


@contextlib.contextmanager
def _parameter_checks():
    """Report a ValueError from the generators' checks of their
    parameters and input files as a usage error.  A generated instance
    that breaks an instance rule (InstanceFormatError) is not one.
    """
    try:
        yield
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise CliError(USAGE, str(exc)) from exc


def _rational(value, what: str) -> Fraction:
    try:
        return rational_from(value)
    except InstanceFormatError as exc:
        raise CliError(USAGE, f"{what}: {exc}") from exc


def _check_points(count: int, what: str, unit: str = "points"):
    """A usage error for an instance of more than MAX_POINTS points (or
    colors), raised before it is built."""
    if count > MAX_POINTS:
        raise CliError(USAGE, f"{what}: {count} {unit}, over the limit of {MAX_POINTS}")


def cmd_gen(args):
    with _parameter_checks():
        if args.family == "vc3":
            with open(args.graph, "r", encoding="utf-8", newline="") as fh:
                g = _parse_graph_text(fh.read())
            _check_points(len(g.edges), "graph edges", "colors")
            inst = gen_from_vc3(g, args.t)
        elif args.family == "setcover":
            sc = _set_cover(_load_json(args.instance))
            _check_points(len(sc.sets), "set cover")
            _check_points(sc.universe, "set cover universe", "colors")
            inst = gen_from_setcover(sc, args.t)
        elif args.family == "clumps":
            _check_points(2 * args.k + 2, f"gen clumps --k {args.k}")
            inst = gen_clumps(args.k, args.gamma, spread=args.spread)
        else:  # random
            _check_points(args.n, "gen random --n")
            _check_points(args.gamma, "gen random --gamma", "colors")
            inst = gen_random(
                args.seed,
                args.n,
                args.k,
                args.gamma,
                metric=args.metric,
                demand_density=_rational(args.demand_density, "--demand-density"),
                p_density=None if args.p_density is None
                else _rational(args.p_density, "--p-density"),
            )
    return model.instance_to_dict(inst), OK


def cmd_fixture(args):
    with _parameter_checks():
        fx = fixture_adversarial(args.m)
    return model.instance_to_dict(fx.instance), OK


def _set_cover(doc) -> SetCoverInstance:
    """A set cover file's instance: a nonnegative integer universe and a
    list of lists of integer elements; bools and other numbers are
    malformed, as in _solution_points."""
    if not (isinstance(doc, dict) and "universe" in doc and "sets" in doc):
        raise CliError(USAGE, "set cover file needs universe and sets")
    universe, sets = doc["universe"], doc["sets"]
    if not (_is_int(universe) and universe >= 0):
        raise CliError(USAGE, "set cover universe must be a nonnegative integer")
    if not (isinstance(sets, list) and all(
        isinstance(s, list) and all(map(_is_int, s)) for s in sets
    )):
        raise CliError(USAGE, "set cover sets must be lists of integer elements")
    return SetCoverInstance(universe=universe, sets=tuple(map(frozenset, sets)))


def _solution_points(value, n: int, what: str) -> list:
    """A list of point indices of an n-point instance; anything else,
    including bools and negative indices, is a malformed solution."""
    if not (isinstance(value, list) and all(_is_int(u) and 0 <= u < n for u in value)):
        raise CliError(
            USAGE, f"solution {what} must be a list of point indices in 0..{n - 1}"
        )
    return value


def _verify_colorful(inst: Instance, doc: dict, violations: list):
    radius = _rational(doc.get("radius"), "solution radius")
    centers = _solution_points(doc["centers"], inst.n, "centers")
    if len(set(centers)) > inst.k:
        violations.append(f"{len(set(centers))} centers exceed budget {inst.k}")
    report = model.check_feasible(inst, centers, radius)
    for i, (covered, c) in enumerate(zip(report.counts, inst.colors)):
        if covered < c.demand:
            violations.append(
                f"color {i} covers {covered} of demanded {c.demand} at radius "
                f"{rational_str(radius)}"
            )


def _verify_fair(finst: FairInstance, doc: dict, violations: list):
    n = finst.base.n
    radius = _rational(doc.get("radius"), "solution radius")
    rows = doc["distribution"]
    if not isinstance(rows, list):
        raise CliError(USAGE, "solution distribution must be a list")
    support = []
    total = Fraction(0)
    for row in rows:
        if not (isinstance(row, dict) and "centers" in row and "prob" in row):
            raise CliError(USAGE, "distribution rows must be {centers, prob} objects")
        weight = _rational(row["prob"], "solution prob")
        centers = _solution_points(row["centers"], n, "distribution centers")
        support.append((frozenset(centers), weight))
        total += weight
        if weight <= 0:
            violations.append(f"probability {row['prob']} is not positive")
    if total != 1:
        violations.append(f"probabilities sum to {rational_str(total)}, not 1")
    weights_ok = not violations
    for centers, _ in support:
        report = model.check_feasible(finst.base, centers, radius)
        if not report.feasible:
            violations.append(
                f"support set {sorted(centers)} infeasible at radius "
                f"{rational_str(radius)}"
            )
    # coverage is a probability only under weights that form a distribution
    if weights_ok:
        dist = fair_mod.Distribution(tuple(support), radius)
        for u in range(n):
            got = fair_mod.coverage_probability(finst.base, dist, u)
            if got < finst.p[u]:
                violations.append(
                    f"coverage {rational_str(got)} below target "
                    f"{rational_str(finst.p[u])} at point {u}"
                )
    if "samples" in doc:
        if not isinstance(doc["samples"], list):
            raise CliError(USAGE, "solution samples must be a list of center lists")
        sets = {centers for centers, _ in support}
        for draw in doc["samples"]:
            if frozenset(_solution_points(draw, n, "samples")) not in sets:
                violations.append(f"sample {draw} is not a support set")


def cmd_verify(args):
    inst = model.load_instance(args.instance)
    doc = _load_json(args.solution)
    if not isinstance(doc, dict):
        raise CliError(USAGE, "solution file must be a JSON object")
    violations = []
    if "distribution" in doc:
        if not isinstance(inst, FairInstance):
            violations.append("instance has no coverage targets for a distribution")
        else:
            _verify_fair(inst, doc, violations)
    elif "centers" in doc:
        base = inst.base if isinstance(inst, FairInstance) else inst
        _verify_colorful(base, doc, violations)
    else:
        violations.append("solution has neither centers nor distribution")
    payload = {"ok": not violations, "violations": violations}
    return payload, OK if not violations else INFEASIBLE


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the life
    of the process: main may be called many times in one process."""
    parser = argparse.ArgumentParser(
        prog="colorful-kcenter",
        description="Colorful k-center solver with coverage-probability variant",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write JSON output here instead of stdout")
    solving = argparse.ArgumentParser(add_help=False, parents=[shared])
    solving.add_argument("--instance", required=True)
    solving.add_argument("--trace", help="write the full probe trace to this file")
    solving.add_argument("--json-logs", action="store_true",
                        help="write one JSON line per probe to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[solving], help="approximate a colorful instance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-fair", parents=[solving],
                       help="distribution meeting per-point coverage targets")
    p.add_argument("--samples", type=int, default=0,
                   help="append this many sampled center sets")
    p.add_argument("--seed", type=int, default=0, help="base seed for sampling")
    p.set_defaults(func=cmd_solve_fair)

    p = sub.add_parser("brute", parents=[shared], help="exact optimum by enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=10**7,
                   help="refuse instances with more candidate center sets")
    p.set_defaults(func=cmd_brute)

    # --out follows the family, whose default would overwrite a value given before it
    p = sub.add_parser("gen", help="emit an instance as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("vc3", parents=[shared])
    g.add_argument("--graph", required=True,
                   help="edge list, one 'u v' per line; optional first line n")
    g.add_argument("--t", type=int, required=True, help="cover size to test")
    g.set_defaults(func=cmd_gen)
    g = fam.add_parser("setcover", parents=[shared])
    g.add_argument("--instance", required=True,
                   help='JSON {"universe": U, "sets": [[..], ..]}')
    g.add_argument("--t", type=int, required=True, help="cover size to test")
    g.set_defaults(func=cmd_gen)
    g = fam.add_parser("random", parents=[shared])
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--gamma", type=int, required=True)
    g.add_argument("--metric", choices=["line", "grid-l1"], default="line")
    g.add_argument("--demand-density", default="1/2",
                   help="fraction of each color demanded, as p/q")
    g.add_argument("--p-density", default=None,
                   help="add coverage targets with this nonzero rate, as p/q")
    g.set_defaults(func=cmd_gen)
    g = fam.add_parser("clumps", parents=[shared])
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--gamma", type=int, required=True)
    g.add_argument("--spread", type=int, default=10)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("fixture", parents=[shared],
                       help="emit a named regression instance")
    p.add_argument("name", choices=["adversarial"])
    p.add_argument("--m", type=int, default=100, help="separation between the groups")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("verify", parents=[shared],
                       help="re-check a solution file against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        payload, code = args.func(args)
        _write_output(payload, args.out)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (InstanceSchemaError, NumberTooLongError, OracleCapExceeded, OSError,
            UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    except InstanceFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INFEASIBLE
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
