#!/usr/bin/env python3
"""Closed-loop solve benchmark for colorful-kcenter.

    python3 benchmarks/run.py --workload colorful --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout and benchmarks the package under
`src/` of that checkout.  One process, one closed-loop client: the next
instance file is solved only after the previous solve returned.  Each
solve is the documented CLI entry point called in-process,
`colorful_kcenter.cli.main(["solve" | "solve-fair", "--instance", F,
"--out", O])`, so loading, metric validation, solving, re-validation and
JSON writing are all timed, and the bytes checked are the bytes a user
gets.

Set-up (package import, instance generation, writing the instance files)
is repeated and timed on its own.  The timed phase makes PASSES passes
over the workload's instances; --seconds sets how many instances there
are, so that the passes take about that long at the seed code and every
later version does the same work.  Solve times are corrected for the
speed of the shared host by a reference computation timed around each
solve (see end_to_end).  After the timed phase, outside any timing, every
output is checked: exit code, the `verify` subcommand, the radius against
an exact brute-force optimum (cached by instance digest), byte-identical
output on every repeat and across runs of the same code, and the
workload's non-triviality floor.

--trace 0 prints the end-to-end metrics.  --trace 1 solves every
instance once untraced and once traced (spans around every layer's
public functions, see tracing.py), checks that both wrote the same
bytes, and prints the per-layer metrics.  The last line of stdout is one
JSON object; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
PACKAGE = "colorful_kcenter"

PASSES = 2  # an instance's solve time is the fastest of its solves
REFERENCE_TERMS = 120  # size of the reference computation
REFERENCE_WINDOW = 4  # solves on each side whose reference timings are pooled
REFERENCE_MS = 0.8  # what the reference computation counts as: its time on a quiet host
SETUP_REPS = 4  # per block; one block before the timed phase, one after
TAIL_BEYOND = 10

# Non-triviality floor: share of instances that must have OPT > 0 with gamma < k.
OPT_FLOOR = {"colorful": 0.5, "fair": 0.5}


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(p, value): the highest integer percentile, by nearest rank, that
    has at least `beyond` samples above it; None with too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        idx = max(0, math.ceil(p * n / 100) - 1)
        if n - 1 - idx >= beyond:
            return p, xs[idx]
    return None


def code_digest() -> str:
    """sha256 over the package sources, so caches never mix code versions."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_digest(solves) -> str:
    """sha256 over the outputs of one pass, in instance order."""
    h = hashlib.sha256()
    for _, path, code, *_ in solves:
        h.update(sha256_file(path).encode() if code == 0 else b"failed")
    return h.hexdigest()


def fresh_import():
    """Import the package anew and return its cli module."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(PACKAGE + ".cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, PACKAGE)):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    return cli


def set_up(workload, seed, count, inst_dir):
    """Set up SETUP_REPS times; returns the cli module, the paths of the
    `count` instance files and the time of each repetition."""
    import workloads

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # every repetition starts from the same heap
        start = time.perf_counter()
        cli = fresh_import()
        model = sys.modules[PACKAGE + ".model"]
        paths = []
        for i in range(count):
            path = os.path.join(inst_dir, f"{i:03d}.json")
            model.save_instance(workloads.make_instance(workload.name, seed, i), path)
            paths.append(path)
        times.append(time.perf_counter() - start)
    return cli, paths, times


def reference_seconds() -> float:
    """Time one fixed computation in exact rational arithmetic, the
    solver's own staple, to measure how fast the host runs right now.

    The garbage collector is off meanwhile, so that the objects the
    program keeps alive cannot make the reference slower."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, REFERENCE_TERMS):
            acc += Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i)
        return time.perf_counter() - start
    finally:
        gc.enable()


def solve_pass(cli, command, paths, out_dir):
    """Solve the instance files one after another, timing the reference
    computation right before and after each solve.  Returns the solves as
    (instance index, output path, exit code, seconds, reference seconds)."""
    solves = []
    for i, path in enumerate(paths):
        out = os.path.join(out_dir, f"{i:03d}.json")
        before = reference_seconds()
        start = time.perf_counter()
        code = cli.main([command, "--instance", path, "--out", out])
        took = time.perf_counter() - start
        solves.append((i, out, code, took, (before + reference_seconds()) / 2))
    return solves


def traced_pass(cli, command, paths, out_dir, tracer):
    """Solve each instance twice in a row, untraced and traced, in
    alternating order, so that the two passes see the same load on the
    machine.  Returns the untraced and the traced solves."""
    plain, traced = [], []
    for i, path in enumerate(paths):
        for with_spans in (i % 2 == 1, i % 2 == 0):
            out = os.path.join(out_dir, "traced" if with_spans else "plain", f"{i:03d}.json")
            tracer.current = i
            with tracer.patched(PACKAGE) if with_spans else contextlib.nullcontext():
                start = time.perf_counter()
                code = cli.main([command, "--instance", path, "--out", out])
                took = time.perf_counter() - start
            tracer.finish_instance()
            (traced if with_spans else plain).append((i, out, code, took))
    return plain, traced


def closed_loop(cli, command, paths, out_dir):
    """The timed phase: PASSES passes over all instances, each writing to
    its own directory."""
    passes = []
    for n in range(PASSES):
        pass_dir = os.path.join(out_dir, f"pass{n}")
        os.makedirs(pass_dir)
        passes.append(solve_pass(cli, command, paths, pass_dir))
    return passes


class Checker:
    """Correctness gate over a run's outputs, outside every timed region."""

    def __init__(self, workload, cli, paths, work_dir):
        import reference

        self.workload = workload
        self.cli = cli
        self.paths = paths
        self.work_dir = work_dir
        self.model = sys.modules[PACKAGE + ".model"]
        self.inst_digest = [sha256_file(p) for p in paths]
        self.refs = reference.ReferenceCache(os.path.join(CACHE_DIR, "reference.json"))
        # output sha256 per instance digest, from earlier runs of this code
        self.known_path = os.path.join(CACHE_DIR, f"outputs-{code_digest()[:16]}.json")
        try:
            with open(self.known_path, "r", encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}
        self.first = {}  # instance index -> sha256 its output must have
        self.verdicts = {}  # (instance index, output sha256) -> failure causes
        self.facts = {}  # instance index -> (opt, radius, cuts, optimal, instance)
        self.causes = {}  # failure cause -> solves that failed with it

    def check(self, solves):
        """Count failed solves; every cause is tallied in self.causes."""
        failed = 0
        for i, path, code, *_ in solves:
            causes = set()
            if code != 0:
                causes.add("exit")
            else:
                sha = sha256_file(path)
                expected = self.first.setdefault(i, self.known.get(self.inst_digest[i], sha))
                if sha != expected:
                    causes.add("changed-bytes")
                if (i, sha) not in self.verdicts:
                    self.verdicts[i, sha] = self._judge(i, path)
                causes |= self.verdicts[i, sha]
            for cause in causes:
                self.causes[cause] = self.causes.get(cause, 0) + 1
            failed += bool(causes)
        return failed

    def _judge(self, i, path):
        causes = set()
        verdict = os.path.join(self.work_dir, "verdict.json")
        code = self.cli.main(
            ["verify", "--instance", self.paths[i], "--solution", path, "--out", verdict]
        )
        ok = False
        if code in (0, 1):
            with open(verdict, "r", encoding="utf-8") as fh:
                ok = json.load(fh)["ok"]
        if code != 0 or not ok:
            causes.add("verify")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            radius = Fraction(doc["radius"])
            cuts = doc["trace"]["total_cuts"]
            optimal = doc["optimal"]
        except (ValueError, KeyError, TypeError):
            causes.add("malformed")
            return causes
        inst = self.model.load_instance(self.paths[i])
        opt = self.refs.optimum(self.inst_digest[i], inst)
        if radius < opt:
            causes.add("below-opt")
        if radius > 4 * opt:
            causes.add("ratio")
        if self.workload == "cuts" and cuts < 1:
            causes.add("no-cut")
        if self.workload == "enum" and not optimal:
            causes.add("not-enumerated")
        self.facts[i] = (opt, radius, cuts, optimal, inst)
        return causes

    def nontrivial(self):
        """Counts over distinct instances: OPT > 0 with gamma < k, a cut
        fired, the enumeration branch taken."""
        rows = list(self.facts.values())
        bases = [inst.base if hasattr(inst, "base") else inst for *_, inst in rows]
        return {
            "instances": len(rows),
            "opt_positive_gamma_lt_k": sum(
                1 for (opt, *_), b in zip(rows, bases) if opt > 0 and b.num_colors < b.k
            ),
            "opt_positive": sum(1 for opt, *_ in rows if opt > 0),
            "cut_fired": sum(1 for _, _, cuts, *_ in rows if cuts > 0),
            "enumerated": sum(1 for *_, optimal, _ in rows if optimal),
        }

    def ratio_mean(self):
        ratios = [float(r / opt) for opt, r, *_ in self.facts.values() if opt > 0]
        return statistics.fmean(ratios) if ratios else None

    def save(self):
        self.refs.save()
        for i, sha in self.first.items():
            self.known.setdefault(self.inst_digest[i], sha)
        tmp = self.known_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, sort_keys=True)
        os.replace(tmp, self.known_path)


def end_to_end(passes, setup_s, rss_mb, ratio):
    """The user-visible metrics, in milliseconds at reference speed.

    The host this runs on is shared, and its CPU runs up to a third slower
    for spells of a minute or more.  Each solve's wall time is therefore
    divided by the time of the reference computation around it (the
    median over the solves within REFERENCE_WINDOW of it, as a single
    millisecond-long timing is noisy) and multiplied by REFERENCE_MS, the
    time that computation is counted as.  An instance's time is then the
    fastest of its solves, one per pass; throughput is instances per second
    of those times.
    """
    corrected = []
    for solves in passes:
        refs = [ref for *_, ref in solves]
        corrected.append([
            took / statistics.median(refs[max(0, j - REFERENCE_WINDOW):j + REFERENCE_WINDOW + 1])
            for j, (*_, took, _) in enumerate(solves)
        ])
    times = [min(t) * REFERENCE_MS / 1000 for t in zip(*corrected)]
    p, tail = tail_percentile(times)
    metrics = {
        "solve_ms_p50": (statistics.median(times) * 1000, "ms"),
        "solve_ms_tail": (tail * 1000, "ms"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "radius_ratio_mean": (ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, p


def wall_p50_ms(passes) -> float:
    """Median over instances of the fastest wall time, uncorrected."""
    return statistics.median(min(s[3] for s in solves) for solves in zip(*passes)) * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.stderr.write(f"error: no package source at {os.path.join(SRC, PACKAGE)}\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work_dir = os.path.join(RUN_DIR, f"{workload.name}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    inst_dir = os.path.join(work_dir, "instances")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(inst_dir)
    os.makedirs(out_dir)
    os.makedirs(CACHE_DIR, exist_ok=True)

    count = workload.instances(args.seconds)
    cli, paths, setup_times = set_up(workload, args.seed, count, inst_dir)
    lines = [f"workload {workload.name}, seed {args.seed}, trace {args.trace}"]

    if args.trace:
        import tracing

        os.makedirs(os.path.join(out_dir, "plain"))
        os.makedirs(os.path.join(out_dir, "traced"))
        tracer = tracing.Tracer()
        plain, traced = traced_pass(cli, workload.command, paths, out_dir, tracer)
        passes = [plain, traced]
    else:
        passes = closed_loop(cli, workload.command, paths, out_dir)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(workload.name, cli, paths, work_dir)
    solves = [s for p in passes for s in p]
    failed = checker.check(solves)
    checker.save()
    problems = []
    digests = [output_digest(p) for p in passes]
    if len(set(digests)) > 1:
        problems.append("passes over the same instances wrote different bytes")
    facts = checker.nontrivial()
    floor = OPT_FLOOR.get(workload.name)
    if floor is not None and facts["opt_positive_gamma_lt_k"] < floor * facts["instances"]:
        problems.append(f"only {facts['opt_positive_gamma_lt_k']} of "
                        f"{facts['instances']} instances have OPT > 0 with gamma < k")
    ratio = checker.ratio_mean()
    if ratio is None:
        problems.append("no instance with OPT > 0 to measure the radius ratio on")
        ratio = 0.0

    lines.append(
        f"solves {len(solves)} in {len(passes)} passes, failed {failed}, "
        f"failed_frac {failed / len(solves):.4f} {json.dumps(checker.causes, sort_keys=True)}"
    )
    lines.append(
        f"non-trivial: OPT>0 with gamma<k {facts['opt_positive_gamma_lt_k']}, "
        f"OPT>0 {facts['opt_positive']}, cut fired {facts['cut_fired']}, "
        f"enumerated {facts['enumerated']} (of {facts['instances']})"
    )
    lines.append(
        f"oracle: {checker.refs.seconds:.3f} s for {checker.refs.new} new references, "
        f"{checker.refs.hits} cached"
    )
    lines.append(f"output digest sha256:{digests[0]}")

    if args.trace:
        overhead = sum(t for *_, t in traced) / sum(t for *_, t in plain) - 1
        metrics = tracing.layer_metrics(tracer, len(traced), overhead)
        tracer.write(os.path.join(work_dir, "spans.tsv.gz"))
        lines.append(f"traced {len(traced)} solves, {len(tracer.start)} spans")
        if tracer.missing:
            lines.append(f"lookup sites not found: {sorted(tracer.missing)}")
    else:
        # a second block of set-ups, some time after the first, so that the
        # median does not hang on one moment's load on the machine
        setup_times += set_up(workload, args.seed, count, inst_dir)[2]
        metrics, p = end_to_end(passes, statistics.median(setup_times), rss_mb, ratio)
        refs = [s[4] for solves in passes for s in solves]
        lines.append(f"solve_ms_tail is p{p} of {len(paths)} instances")
        lines.append(f"uncorrected wall-clock p50 {wall_p50_ms(passes):.3f} ms; reference "
                     f"computation took {statistics.median(refs) * 1000:.4f} ms (median)")

    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    shutil.rmtree(out_dir, ignore_errors=True)

    correct = failed == 0 and not problems
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
