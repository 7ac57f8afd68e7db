"""Spans around calls into the solver's layers, recorded from outside.

Nothing in the package is instrumented.  `Tracer.patched()` replaces
each traced function at every place the package looks it up at call
time (a module attribute, or a name imported into another module), and
puts the originals back on exit.  Each call records a span: its name,
start, end, parent span and instance id.  Spans stay in memory, in flat
arrays, until the run writes them out.

Counters are read from what traced calls return (LP sizes and statuses,
the solvers' own probe records) after each instance finishes, so that
reading them is not counted inside any span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager

# Traced function -> the modules whose globals callers look it up in.
# The first module is the one that defines it.
TRACED = {
    "cli.main": ("cli",),
    "model.load_instance": ("model",),
    "model.check_feasible": ("model", "solver", "fair"),
    "model.candidate_radii": ("model", "solver", "fair"),
    "solver.solve_colorful": ("solver", "cli"),
    "solver.solve_fixed_radius": ("solver",),
    "solver.build_relaxation": ("solver", "fair"),
    "fair.solve_fair": ("fair",),
    "fair.separate_or_certify": ("fair",),
    "fair.solve_restricted": ("fair",),
    "lp.solve": ("lp",),
    "dp.find_few_outside": ("dp", "solver", "fair"),
    "dp.dp_solve": ("dp",),
    "partition.good_partition": ("partition", "solver", "fair"),
    "partition.verify_partition": ("partition", "solver", "fair"),
    "partition.opening_mass": ("partition", "solver", "fair", "rounding"),
    "rounding.sparse_round": ("rounding", "solver", "fair"),
    "rounding.build_cluster_system": ("rounding", "solver", "fair"),
}
NAMES = tuple(TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}

# Calls whose return value feeds a counter.
_READ_RESULT = {
    "lp.solve",
    "dp.find_few_outside",
    "solver.solve_colorful",
    "fair.solve_fair",
    "fair.separate_or_certify",
    "model.candidate_radii",
}

# The caller that decides which role an LP solve plays.
_LP_ROLE = {
    "solver.solve_fixed_radius": "relaxation",
    "fair.separate_or_certify": "relaxation",
    "rounding.sparse_round": "covering",
    "fair.solve_restricted": "restricted",
}


class Tracer:
    """Span store plus the counters read from traced calls."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.instance = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.current = -1  # instance id stamped on new spans
        self._results = []
        self.counts = {}
        self.missing = set()  # (module, attribute) sites absent from the package

    def _wrap(self, fn, name):
        nid = _ID[name]
        keep = name in _READ_RESULT
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.instance.append(self.current)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if keep:
                self._results.append((name, args, result))
            return result

        return traced

    @contextmanager
    def patched(self, package="colorful_kcenter"):
        """Install the wrappers; restore every original on exit."""
        undo = []
        try:
            for name, sites in TRACED.items():
                home, attr = name.split(".")
                original = getattr(importlib.import_module(f"{package}.{home}"), attr)
                wrapper = self._wrap(original, name)
                for site in sites:
                    module = importlib.import_module(f"{package}.{site}")
                    if getattr(module, attr, None) is not original:
                        self.missing.add((site, attr))
                        continue
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def finish_instance(self):
        """Fold the results returned during the last instance into counters."""
        for name, args, result in self._results:
            _count(self.counts, name, args, result)
        self._results.clear()

    def spans(self):
        return zip(self.name, self.start, self.end, self.parent, self.instance)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tinstance\n")
            for nid, start, end, parent, inst in self.spans():
                fh.write(f"{NAMES[nid]}\t{start}\t{end}\t{parent}\t{inst}\n")


def _bits(values):
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _add(counts, key, amount=1):
    counts[key] = counts.get(key, 0) + amount


def _count(counts, name, args, result):
    if name == "lp.solve":
        program = args[0]
        _add(counts, "lp.rows", len(program.constraints))
        _add(counts, "lp.cols", program.num_vars)
        if result.status == "infeasible":
            _add(counts, "lp.infeasible")
        values = list(result.solution or ())
        if result.dual is not None:
            dual = result.dual
            values += [*dual.row_duals, *dual.lower_duals, *dual.upper_duals]
        counts["lp.max_bits"] = max(counts.get("lp.max_bits", 0), _bits(values))
    elif name == "dp.find_few_outside":
        _add(counts, "dp.hits", result is not None)
    elif name == "model.candidate_radii":
        _add(counts, "model.candidate_radii", len(result))
    elif name == "fair.separate_or_certify":
        _add(counts, "fair.columns" if hasattr(result, "centers") else "fair.certified")
    elif name == "solver.solve_colorful":
        for rec in result.trace.records:
            _add(counts, "solver.probes")
            _add(counts, f"solver.{rec.outcome}")
            _add(counts, "solver.cuts", len(rec.cuts))
            _add(counts, "solver.lp", rec.lp_solves)
    elif name == "fair.solve_fair":
        for rec in result.trace.records:
            _add(counts, "solver.probes")
            _add(counts, "fair.probes")
            _add(counts, "solver.lp", rec.restricted_solves)
            # a certified probe ends in an infeasible separation LP
            if rec.outcome in ("infeasible", "certified"):
                _add(counts, "solver.infeasible")
            elif rec.outcome == "exact":
                _add(counts, "solver.enumerated")
            for sep in rec.separations:
                _add(counts, "solver.cuts", len(sep.cuts))
                _add(counts, "solver.lp", sep.lp_solves)
                if sep.outcome == "column-4r":
                    _add(counts, "solver.rounded-4r")
                elif sep.outcome == "column-2r":
                    _add(counts, "solver.solved-2r")


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover.

    Spans are in start order, as recorded, so each parent's children
    arrive in start order and their union is built in one pass.
    """
    n = len(starts)
    covered = [0] * n
    reach = list(starts)  # end of the covered prefix inside each span
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


_LAYERS = {
    "solver": ("solver.solve_colorful", "solver.solve_fixed_radius", "solver.build_relaxation"),
    "fair": ("fair.solve_fair", "fair.separate_or_certify", "fair.solve_restricted"),
    "dp": ("dp.find_few_outside", "dp.dp_solve"),
    "partition": ("partition.good_partition", "partition.verify_partition", "partition.opening_mass"),
    "rounding": ("rounding.sparse_round", "rounding.build_cluster_system"),
}


def layer_metrics(tracer: Tracer, instances: int, overhead_frac: float) -> dict:
    """Per-layer metrics, counts and times per traced instance."""
    names, parents = tracer.name, tracer.parent
    selfs = self_times(tracer.start, tracer.end, parents)
    calls = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    total_ns = [0] * len(NAMES)
    role_ns = {"relaxation": 0, "covering": 0, "restricted": 0}
    role_of = {_ID[name]: role for name, role in _LP_ROLE.items()}
    lp_id = _ID["lp.solve"]
    for i, nid in enumerate(names):
        calls[nid] += 1
        self_ns[nid] += selfs[i]
        total_ns[nid] += tracer.end[i] - tracer.start[i]
        if nid == lp_id:
            p = parents[i]
            while p >= 0 and names[p] not in role_of:
                p = parents[p]
            if p >= 0:
                role_ns[role_of[names[p]]] += tracer.end[i] - tracer.start[i]
    c = tracer.counts
    per = 1.0 / instances

    def n_calls(*keys):
        return sum(calls[_ID[k]] for k in keys) * per

    def secs(*keys, table=self_ns):
        return sum(table[_ID[k]] for k in keys) * 1e-9 * per

    lp_calls = calls[lp_id]
    ffo_calls = calls[_ID["dp.find_few_outside"]]
    probes = c.get("solver.probes", 0)
    fair_probes = c.get("fair.probes", 0)
    out = {
        "lp.solve.calls": (lp_calls * per, "count/inst"),
        "lp.solve.self_s": (secs("lp.solve"), "s/inst"),
        "lp.solve.rows_mean": (c.get("lp.rows", 0) / lp_calls if lp_calls else 0.0, "count"),
        "lp.solve.cols_mean": (c.get("lp.cols", 0) / lp_calls if lp_calls else 0.0, "count"),
        "lp.solve.infeasible": (c.get("lp.infeasible", 0) * per, "count/inst"),
        "lp.solve.max_bits": (c.get("lp.max_bits", 0), "bits"),
        "lp.solve.relaxation_s": (role_ns["relaxation"] * 1e-9 * per, "s/inst"),
        "lp.solve.covering_s": (role_ns["covering"] * 1e-9 * per, "s/inst"),
        "lp.solve.restricted_s": (role_ns["restricted"] * 1e-9 * per, "s/inst"),
        "solver.probes": (probes * per, "count/inst"),
        "solver.self_s": (secs(*_LAYERS["solver"]), "s/inst"),
        "solver.build_relaxation_s": (
            secs("solver.build_relaxation", table=total_ns), "s/inst"),
        "solver.rounded_4r": (c.get("solver.rounded-4r", 0) * per, "count/inst"),
        "solver.solved_2r": (c.get("solver.solved-2r", 0) * per, "count/inst"),
        "solver.infeasible": (c.get("solver.infeasible", 0) * per, "count/inst"),
        "solver.enumerated": (c.get("solver.enumerated", 0) * per, "count/inst"),
        "solver.cuts": (c.get("solver.cuts", 0) * per, "count/inst"),
        "solver.lp_per_probe": (c.get("solver.lp", 0) / probes if probes else 0.0, "count"),
        "dp.find_few_outside.calls": (ffo_calls * per, "count/inst"),
        "dp.find_few_outside.hit_ratio": (
            c.get("dp.hits", 0) / ffo_calls if ffo_calls else 0.0, "ratio"),
        "dp.dp_solve.calls": (n_calls("dp.dp_solve"), "count/inst"),
        "dp.self_s": (secs(*_LAYERS["dp"]), "s/inst"),
        "fair.solve_restricted.calls": (n_calls("fair.solve_restricted"), "count/inst"),
        "fair.separate_or_certify.calls": (n_calls("fair.separate_or_certify"), "count/inst"),
        "fair.columns": (c.get("fair.columns", 0) * per, "count/inst"),
        "fair.certified": (c.get("fair.certified", 0) * per, "count/inst"),
        "fair.columns_per_probe": (
            c.get("fair.columns", 0) / fair_probes if fair_probes else 0.0, "count"),
        "fair.self_s": (secs(*_LAYERS["fair"]), "s/inst"),
        "partition.calls": (n_calls(*_LAYERS["partition"]), "count/inst"),
        "partition.self_s": (secs(*_LAYERS["partition"]), "s/inst"),
        "rounding.calls": (n_calls(*_LAYERS["rounding"]), "count/inst"),
        "rounding.self_s": (secs(*_LAYERS["rounding"]), "s/inst"),
        "model.check_feasible.calls": (n_calls("model.check_feasible"), "count/inst"),
        "model.check_feasible.self_s": (secs("model.check_feasible"), "s/inst"),
        "model.load_instance_s": (secs("model.load_instance", table=total_ns), "s/inst"),
        "model.candidate_radii": (c.get("model.candidate_radii", 0) * per, "count/inst"),
        "cli.self_s": (secs("cli.main"), "s/inst"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
