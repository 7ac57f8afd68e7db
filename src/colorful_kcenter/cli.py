"""Command line interface: solve, generate, verify, benchmark.

All output is machine-readable JSON with rationals as "p/q" strings,
written to stdout or --out FILE, byte-stable for identical inputs.
Exit codes: 0 success, 1 infeasible instance or failed verification,
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
    rational_from,
    rational_str,
)
from .oracle import OracleCapExceeded, brute_force_colorful, brute_force_fair
from .rounding import SparseRoundError
from .solver import InternalError, solve_colorful

OK = 0
INFEASIBLE = 1
USAGE = 2
INTERNAL = 3


class CliError(Exception):
    """Carries the exit code for a user-facing failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_output(payload: dict, out_path):
    text = _emit_text(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(USAGE, f"{path}: invalid JSON: {exc}") from exc


def _coverage_rows(inst: Instance, report) -> list:
    return [
        {"color": i, "covered": covered, "demand": c.demand}
        for i, (covered, c) in enumerate(zip(report.counts, inst.colors))
    ]


# ---------------------------------------------------------------------------
# trace serialization


def _colorful_trace(trace, full: bool) -> dict:
    probes = []
    for rec in trace.records:
        row = {
            "radius": rational_str(rec.radius),
            "outcome": rec.outcome,
            "cuts": len(rec.cuts),
            "lp_solves": rec.lp_solves,
            "dp_calls": rec.dp_calls,
        }
        if full:
            row["cut_details"] = [
                {"centers": sorted(cut.centers), "bound": cut.bound}
                for cut in rec.cuts
            ]
        probes.append(row)
    return {
        "probes": probes,
        "total_cuts": trace.total_cuts(),
        "total_lp_solves": trace.total_lp_solves(),
    }


def _fair_trace(trace, full: bool) -> dict:
    probes = []
    for rec in trace.records:
        row = {
            "radius": rational_str(rec.radius),
            "outcome": rec.outcome,
            "restricted_solves": rec.restricted_solves,
            "separations": len(rec.separations),
            "cuts": sum(len(sep.cuts) for sep in rec.separations),
        }
        if full:
            row["separation_details"] = [
                {
                    "outcome": sep.outcome,
                    "mu": rational_str(sep.mu),
                    "eps": rational_str(sep.eps),
                    "alpha": [rational_str(a) for a in sep.alpha],
                    "lp_solves": sep.lp_solves,
                    "dp_calls": sep.dp_calls,
                    "cut_details": [
                        {"centers": sorted(cut.centers), "bound": cut.bound}
                        for cut in sep.cuts
                    ],
                }
                for sep in rec.separations
            ]
        probes.append(row)
    return {
        "probes": probes,
        "total_cuts": trace.total_cuts(),
        "total_columns": trace.total_columns(),
    }


def _json_logs(trace_dict: dict):
    for probe in trace_dict["probes"]:
        sys.stderr.write(json.dumps({"event": "probe", **probe}) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args):
    inst = model.load_instance(args.instance)
    if isinstance(inst, FairInstance):
        raise CliError(USAGE, "instance has coverage targets; use solve-fair")
    sol = solve_colorful(inst, linear_scan=args.linear_scan)
    report = model.check_feasible(inst, sol.centers.centers, sol.centers.radius)
    if not report.feasible:
        raise InternalError("solver output fails re-validation")
    payload = {
        "kind": "colorful-solution",
        "radius": rational_str(sol.centers.radius),
        "centers": sorted(sol.centers.centers),
        "coverage": _coverage_rows(inst, report),
        "probe_radius": rational_str(sol.probe_radius),
        "optimal": sol.optimal,
        "trace": _colorful_trace(sol.trace, full=False),
    }
    if args.trace:
        _write_output(_colorful_trace(sol.trace, full=True), args.trace)
    if args.json_logs:
        _json_logs(payload["trace"])
    return payload, OK


def cmd_solve_fair(args):
    finst = model.load_instance(args.instance)
    if not isinstance(finst, FairInstance):
        raise CliError(USAGE, "instance has no coverage targets; use solve")
    sol = fair_mod.solve_fair(finst)
    dist = sol.distribution
    for centers, _ in dist.support:
        if not model.check_feasible(finst.base, centers, dist.radius).feasible:
            raise InternalError("distribution support fails re-validation")
    payload = {
        "kind": "fair-solution",
        "radius": rational_str(dist.radius),
        "distribution": [
            {"centers": sorted(centers), "prob": rational_str(weight)}
            for centers, weight in dist.support
        ],
        "probe_radius": rational_str(sol.probe_radius),
        "optimal": sol.optimal,
        "trace": _fair_trace(sol.trace, full=False),
    }
    if args.samples:
        payload["samples"] = [
            sorted(fair_mod.sample(dist, args.seed + i)) for i in range(args.samples)
        ]
    if args.trace:
        _write_output(_fair_trace(sol.trace, full=True), args.trace)
    if args.json_logs:
        _json_logs(payload["trace"])
    return payload, OK


def cmd_brute(args):
    inst = model.load_instance(args.instance)
    if args.fair and not isinstance(inst, FairInstance):
        raise CliError(USAGE, "--fair needs an instance with coverage targets")
    if isinstance(inst, FairInstance):
        opt = brute_force_fair(inst, cap=args.cap)
        payload = {
            "kind": "fair-optimum",
            "radius": rational_str(opt.radius),
            "distribution": [
                {"centers": sorted(centers), "prob": rational_str(weight)}
                for centers, weight in opt.support
            ],
        }
    else:
        opt = brute_force_colorful(inst, cap=args.cap)
        payload = {
            "kind": "colorful-optimum",
            "radius": rational_str(opt.radius),
            "centers": sorted(opt.centers.centers),
        }
    return payload, OK


def _parse_graph_text(text: str) -> Graph:
    edges = []
    declared = None
    top = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) == 1 and declared is None and not edges:
            declared = int(toks[0])
            continue
        if len(toks) != 2:
            raise CliError(USAGE, f"bad edge line {raw!r}")
        u, v = int(toks[0]), int(toks[1])
        edges.append((u, v))
        top = max(top, u, v)
    n = declared if declared is not None else top + 1
    if n <= 0:
        raise CliError(USAGE, "graph has no vertices")
    return Graph(n=n, edges=tuple(edges))


def cmd_gen(args):
    if args.family == "vc3":
        with open(args.graph, "r", encoding="utf-8") as fh:
            g = _parse_graph_text(fh.read())
        inst = gen_from_vc3(g, args.t)
    elif args.family == "setcover":
        doc = _load_json(args.instance)
        try:
            sc = SetCoverInstance(
                universe=doc["universe"],
                sets=tuple(frozenset(s) for s in doc["sets"]),
            )
        except (KeyError, TypeError) as exc:
            raise CliError(USAGE, f"set cover file needs universe and sets: {exc}")
        inst = gen_from_setcover(sc, args.t)
    elif args.family == "clumps":
        inst = gen_clumps(args.k, args.gamma, spread=args.spread)
    else:  # random
        inst = gen_random(
            args.seed,
            args.n,
            args.k,
            args.gamma,
            metric=args.metric,
            demand_density=rational_from(args.demand_density),
            p_density=None if args.p_density is None else rational_from(args.p_density),
        )
    return model.instance_to_dict(inst), OK


def cmd_fixture(args):
    fx = fixture_adversarial(args.m)
    return model.instance_to_dict(fx.instance), OK


def _verify_colorful(inst: Instance, doc: dict, violations: list):
    radius = rational_from(doc["radius"])
    centers = doc["centers"]
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
    radius = rational_from(doc["radius"])
    support = []
    total = Fraction(0)
    for row in doc["distribution"]:
        weight = rational_from(row["prob"])
        support.append((frozenset(row["centers"]), weight))
        total += weight
        if weight <= 0:
            violations.append(f"probability {row['prob']} is not positive")
    if total != 1:
        violations.append(f"probabilities sum to {rational_str(total)}, not 1")
    for centers, _ in support:
        report = model.check_feasible(finst.base, centers, radius)
        if not report.feasible:
            violations.append(
                f"support set {sorted(centers)} infeasible at radius "
                f"{rational_str(radius)}"
            )
    for u in range(finst.base.n):
        got = Fraction(0)
        for centers, weight in support:
            if any(finst.base.dist[u][c] <= radius for c in centers):
                got += weight
        if got < finst.p[u]:
            violations.append(
                f"coverage {rational_str(got)} below target "
                f"{rational_str(finst.p[u])} at point {u}"
            )
    if "samples" in doc:
        sets = {centers for centers, _ in support}
        for draw in doc["samples"]:
            if frozenset(draw) not in sets:
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


def _parse_seeds(text: str) -> list:
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(int(a), int(b) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _bench_row(args, seed: int) -> dict:
    inst = gen_random(
        seed,
        args.n,
        args.k,
        args.gamma,
        metric=args.metric,
        demand_density=rational_from(args.demand_density),
        p_density=rational_from(args.p_density) if args.fair else None,
    )
    start = time.perf_counter()
    if args.fair:
        sol = fair_mod.solve_fair(inst)
        solver_radius = sol.distribution.radius
        cuts = sol.trace.total_cuts()
        lp_solves = sum(
            rec.restricted_solves + sum(s.lp_solves for s in rec.separations)
            for rec in sol.trace.records
        )
        oracle = brute_force_fair
    else:
        sol = solve_colorful(inst)
        solver_radius = sol.centers.radius
        cuts = sol.trace.total_cuts()
        lp_solves = sol.trace.total_lp_solves()
        oracle = brute_force_colorful
    solve_ms = int((time.perf_counter() - start) * 1000)
    start = time.perf_counter()
    try:
        oracle_radius = oracle(inst, cap=args.cap).radius
    except OracleCapExceeded:
        oracle_radius = None
    oracle_ms = int((time.perf_counter() - start) * 1000)
    row = {
        "id": f"random-{seed}",
        "n": args.n,
        "k": args.k,
        "gamma": args.gamma,
        "oracle_radius": "n/a" if oracle_radius is None else rational_str(oracle_radius),
        "solver_radius": rational_str(solver_radius),
        "ratio": "n/a",
        "cuts": cuts,
        "lp_solves": lp_solves,
        "solve_ms": solve_ms,
        "oracle_ms": oracle_ms,
    }
    if oracle_radius is not None:
        if solver_radius < oracle_radius:
            raise InternalError(
                f"seed {seed}: solver radius {solver_radius} below optimum "
                f"{oracle_radius}"
            )
        if oracle_radius > 0:
            ratio = solver_radius / oracle_radius
            if ratio > 4:
                raise InternalError(f"seed {seed}: ratio {ratio} above 4")
            row["ratio"] = rational_str(ratio)
    return row


def cmd_bench(args):
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise CliError(USAGE, "no seeds given")
    rows = [_bench_row(args, s) for s in seeds]
    payload = {
        "kind": "bench-report",
        "suite": args.suite,
        "fair": args.fair,
        "params": {"n": args.n, "k": args.k, "gamma": args.gamma, "metric": args.metric},
        "rows": rows,
    }
    return payload, OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorful-kcenter",
        description="Colorful k-center solver with coverage-probability variant",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write JSON output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[shared], help="approximate a colorful instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--linear-scan", action="store_true",
                   help="probe candidate radii from below instead of binary search")
    p.add_argument("--trace", help="write the full probe trace to this file")
    p.add_argument("--json-logs", action="store_true",
                   help="write one JSON line per probe to stderr")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-fair", parents=[shared],
                       help="distribution meeting per-point coverage targets")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=int, default=0,
                   help="append this many sampled center sets")
    p.add_argument("--seed", type=int, default=0, help="base seed for sampling")
    p.add_argument("--trace", help="write the full probe trace to this file")
    p.add_argument("--json-logs", action="store_true",
                   help="write one JSON line per probe to stderr")
    p.set_defaults(func=cmd_solve_fair)

    p = sub.add_parser("brute", parents=[shared], help="exact optimum by enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--fair", action="store_true",
                   help="require coverage targets in the instance")
    p.add_argument("--cap", type=int, default=10**7,
                   help="refuse instances with more candidate center sets")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("gen", parents=[shared], help="emit an instance as JSON")
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

    p = sub.add_parser("bench", parents=[shared],
                       help="solver vs oracle table over generated instances")
    p.add_argument("--suite", choices=["random"], default="random")
    p.add_argument("--seeds", required=True, help="e.g. 1..50 or 3,7,11")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--metric", choices=["line", "grid-l1"], default="line")
    p.add_argument("--demand-density", default="1/2")
    p.add_argument("--fair", action="store_true", help="benchmark the fair solver")
    p.add_argument("--p-density", default="2/3")
    p.add_argument("--cap", type=int, default=10**7,
                   help="skip the oracle above this many center sets")
    p.set_defaults(func=cmd_bench)

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
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (InstanceSchemaError, OracleCapExceeded, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE
    except InstanceFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INFEASIBLE
    except (InternalError, SparseRoundError) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return INTERNAL
    _write_output(payload, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
