"""Self-tests for the benchmark harness: percentile rule, span arithmetic,
wrapper hygiene, and the exact references it checks outputs against."""

import importlib
import itertools
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from colorful_kcenter import cli, generators, model, oracle  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1, 101)) == (90, 90)
    assert run.tail_percentile(range(11)) == (9, 0)
    assert run.tail_percentile(range(21)) == (52, 10)
    assert run.tail_percentile(range(10)) is None
    for n in range(11, 400):
        xs = list(range(n))
        p, value = run.tail_percentile(xs)
        assert sum(1 for x in xs if x > value) >= 10
        if p < 99:
            above = xs[max(0, -(-(p + 1) * n // 100) - 1)]
            assert sum(1 for x in xs if x > above) < 10


def test_self_time_subtracts_nested_children():
    # root [0,100] holds A [10,40] (which holds A1 [15,25]), B [50,60], C [60,70]
    starts = [0, 10, 15, 50, 60]
    ends = [100, 40, 25, 60, 70]
    parents = [-1, 0, 1, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [50, 20, 10, 10, 10]


def test_wrappers_record_parents_with_a_fake_clock(monkeypatch):
    ticks = itertools.count(0, 10)
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: None, "lp.solve")
    outer = tracer._wrap(lambda: [inner(), inner()], "solver.solve_fixed_radius")
    tracer.current = 7
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.instance) == [7, 7, 7]
    selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
    assert selfs == [30, 10, 10]


def _sites():
    return {
        (site, name.split(".")[1]): getattr(
            importlib.import_module(f"colorful_kcenter.{site}"), name.split(".")[1]
        )
        for name, sites in tracing.TRACED.items()
        for site in sites
    }


def test_patched_restores_the_original_functions():
    before = _sites()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched():
            during = _sites()
            assert all(during[key] is not fn for key, fn in before.items())
            raise RuntimeError("leave the block early")
    assert not tracer.missing
    after = _sites()
    assert all(after[key] is fn for key, fn in before.items())


def test_traced_solve_writes_the_same_bytes(tmp_path):
    inst = generators.gen_clumps(3, 2)
    path = tmp_path / "inst.json"
    model.save_instance(inst, path)
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(["solve", "--instance", str(path), "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.patched():
        assert cli.main(["solve", "--instance", str(path), "--out", str(traced)]) == 0
    tracer.finish_instance()
    assert plain.read_bytes() == traced.read_bytes()
    names = [tracing.NAMES[i] for i in tracer.name]
    assert names[0] == "cli.main" and "lp.solve" in names
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["solver.cuts"]["value"] >= 1
    assert metrics["lp.solve.calls"]["value"] == names.count("lp.solve")


@pytest.mark.parametrize("seed", range(12))
def test_references_match_the_package_oracle(seed):
    inst = generators.gen_random(seed, 8, 3, 2, demand_density=Fraction(1))
    assert reference.colorful_optimum(inst) == oracle.brute_force_colorful(inst).radius
    finst = generators.gen_random(
        seed, 7, 2, 2, demand_density=Fraction(1), p_density=Fraction(2, 3)
    )
    assert reference.fair_optimum(finst) == oracle.brute_force_fair(finst).radius


def test_workloads_vary_labels_with_the_seed_but_keep_the_optimum():
    for name in workloads.WORKLOADS:
        a = workloads.make_instance(name, 5, 3)
        text = model.dumps_instance(a)
        assert text == model.dumps_instance(workloads.make_instance(name, 5, 3))
        b = workloads.make_instance(name, 6, 3)
        assert text != model.dumps_instance(b)
        if name != "cuts":  # the cuts seed also picks the spread
            base_a = a.base if hasattr(a, "base") else a
            base_b = b.base if hasattr(b, "base") else b
            assert sorted(map(sorted, base_a.dist)) == sorted(map(sorted, base_b.dist))
            assert reference.colorful_optimum(base_a) == reference.colorful_optimum(base_b)
    shapes = {(inst.k, inst.num_colors) for inst in (
        workloads.make_instance("cuts", 5, i) for i in range(len(workloads.CUTS_SHAPES))
    )}
    assert shapes == set(workloads.CUTS_SHAPES)
    assert all(w.instances(1) > run.TAIL_BEYOND for w in workloads.WORKLOADS.values())
