"""Command line interface: subcommands, exit codes, byte stability."""

import json
from fractions import Fraction

import pytest

from colorful_kcenter import cli, model
from colorful_kcenter.cli import main
from colorful_kcenter.generators import fixture_adversarial, gen_clumps, gen_from_vc3
from colorful_kcenter.oracle import brute_force_colorful
from colorful_kcenter.solver import InternalError


def write_instance(tmp_path, name, argv):
    path = tmp_path / name
    assert main(argv + ["--out", str(path)]) == 0
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_solve_verify_roundtrip(tmp_path):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "5", "--n", "8", "--k", "2", "--gamma", "2"],
    )
    sol = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    doc = read_json(sol)
    assert doc["kind"] == "colorful-solution"
    assert isinstance(doc["centers"], list)
    assert "/" in doc["radius"]  # rationals stay exact strings
    assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0


def test_solve_fair_roundtrip_with_samples(tmp_path):
    inst = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "7", "--n", "6", "--k", "2", "--gamma", "1",
         "--p-density", "1/2"],
    )
    sol = tmp_path / "sol.json"
    assert main([
        "solve-fair", "--instance", str(inst), "--samples", "5", "--seed", "3",
        "--out", str(sol),
    ]) == 0
    doc = read_json(sol)
    assert doc["kind"] == "fair-solution"
    support = {tuple(row["centers"]) for row in doc["distribution"]}
    assert len(doc["samples"]) == 5
    for draw in doc["samples"]:
        assert tuple(draw) in support
    total = sum(Fraction(model.rational_from(row["prob"])) for row in doc["distribution"])
    assert total == 1
    assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0


def test_solve_rejects_mismatched_instance(tmp_path):
    fair = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "1", "--n", "5", "--k", "1", "--gamma", "1",
         "--p-density", "1/2"],
    )
    plain = write_instance(
        tmp_path, "plain.json",
        ["gen", "random", "--seed", "1", "--n", "5", "--k", "1", "--gamma", "1"],
    )
    assert main(["solve", "--instance", str(fair)]) == 2
    assert main(["solve-fair", "--instance", str(plain)]) == 2
    assert main(["brute", "--instance", str(plain), "--fair"]) == 2


def test_brute_matches_library(tmp_path, capsys):
    inst_path = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "9", "--n", "7", "--k", "2", "--gamma", "2"],
    )
    assert main(["brute", "--instance", str(inst_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "colorful-optimum"
    inst = model.load_instance(str(inst_path))
    opt = brute_force_colorful(inst)
    assert model.rational_from(doc["radius"]) == opt.radius


def test_brute_fair_kind(tmp_path, capsys):
    inst = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "2", "--n", "5", "--k", "2", "--gamma", "1",
         "--p-density", "1/2"],
    )
    assert main(["brute", "--instance", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "fair-optimum"
    assert sum(
        Fraction(model.rational_from(r["prob"])) for r in doc["distribution"]
    ) == 1


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["solve", "--instance", str(missing)]) == 2

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["solve", "--instance", str(garbage)]) == 2

    # schema-valid JSON describing an unsatisfiable demand
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2,
        "k": 1,
        "dist": [["0", "1"], ["1", "0"]],
        "colors": [{"members": [0], "demand": 2}],
    }))
    assert main(["solve", "--instance", str(bad)]) == 1

    assert main(["brute", "--instance", str(missing)]) == 2
    assert main([]) == 2
    assert main(["frobnicate"]) == 2

    # wrong JSON types: one error line and exit 2, never a traceback
    good = {
        "n": 2,
        "k": 1,
        "dist": [["0", "1"], ["1", "0"]],
        "colors": [{"members": [0, 1], "demand": 1}],
        "p": ["1/2", "1"],
    }
    bad.write_text(json.dumps(good))
    assert main(["solve-fair", "--instance", str(bad)]) == 0
    capsys.readouterr()
    for field, value in [
        ("n", "2"), ("n", True), ("k", "1"), ("k", True), ("k", 1.0),
        ("dist", 5), ("dist", [["0", "1"], 5]), ("dist", [["0", "1"], ["1"]]),
        ("dist", [["0", 1.5], ["1", "0"]]), ("dist", [["0", "x"], ["1", "0"]]),
        ("colors", 5), ("colors", [5]),
        ("colors", [{"members": "01", "demand": 1}]),
        ("colors", [{"members": [0, True], "demand": 1}]),
        ("colors", [{"members": [0], "demand": "1"}]),
        ("colors", [{"members": [0], "demand": False}]),
        ("p", 5), ("p", ["1/2"]), ("p", ["1/2", None]),
    ]:
        bad.write_text(json.dumps({**good, field: value}))
        command = "solve-fair" if field == "p" else "solve"
        assert main([command, "--instance", str(bad)]) == 2, (field, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    bad.write_text(json.dumps({k: v for k, v in good.items() if k != "k"}))
    assert main(["solve", "--instance", str(bad)]) == 2
    bad.write_text(json.dumps([good]))
    assert main(["solve", "--instance", str(bad)]) == 2


def test_oracle_cap_exit_code(tmp_path):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "3", "--n", "9", "--k", "3", "--gamma", "1"],
    )
    assert main(["brute", "--instance", str(inst), "--cap", "5"]) == 2


def test_internal_error_exit_code(tmp_path, monkeypatch):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "4", "--n", "5", "--k", "1", "--gamma", "1"],
    )

    def boom(*args, **kwargs):
        raise InternalError("forced")

    monkeypatch.setattr(cli, "solve_colorful", boom)
    assert main(["solve", "--instance", str(inst)]) == 3


def test_verify_flags_violations(tmp_path, capsys):
    # two far-apart points, both demanded, one center: optimum is 10
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "n": 2,
        "k": 1,
        "dist": [["0/1", "10/1"], ["10/1", "0/1"]],
        "colors": [{"members": [0, 1], "demand": 2}],
    }))
    sol = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0
    capsys.readouterr()

    doc = read_json(sol)
    doc["radius"] = "0/1"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--solution", str(tampered)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert any("covers" in v for v in out["violations"])

    doc = read_json(sol)
    doc["centers"] = [0, 1]
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--solution", str(tampered)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any("budget" in v for v in out["violations"])


def test_verify_flags_fair_violations(tmp_path, capsys):
    inst = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "13", "--n", "6", "--k", "2", "--gamma", "1",
         "--p-density", "2/3"],
    )
    sol = tmp_path / "sol.json"
    assert main(["solve-fair", "--instance", str(inst), "--out", str(sol)]) == 0
    capsys.readouterr()
    doc = read_json(sol)
    doc["distribution"][0]["prob"] = "1/97"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--solution", str(tampered)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any("sum to" in v for v in out["violations"])

    doc = read_json(sol)
    doc["samples"] = [[0, 1, 2, 3, 4, 5]]
    tampered.write_text(json.dumps(doc))
    code = main(["verify", "--instance", str(inst), "--solution", str(tampered)])
    out = json.loads(capsys.readouterr().out)
    if frozenset(range(6)) not in {
        frozenset(r["centers"]) for r in doc["distribution"]
    }:
        assert code == 1
        assert any("not a support set" in v for v in out["violations"])


def test_byte_identical_reruns(tmp_path):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "17", "--n", "9", "--k", "2", "--gamma", "2"],
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--instance", str(inst), "--out", str(a)]) == 0
    assert main(["solve", "--instance", str(inst), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")

    fair = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "19", "--n", "6", "--k", "2", "--gamma", "1",
         "--p-density", "1/2"],
    )
    fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
    argv = ["solve-fair", "--instance", str(fair), "--samples", "4", "--seed", "8"]
    assert main(argv + ["--out", str(fa)]) == 0
    assert main(argv + ["--out", str(fb)]) == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_gen_vc3_parsing_variants(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("# a path on three vertices\n4\n0 1\n1 2\n")
    out = write_instance(
        tmp_path, "vc.json", ["gen", "vc3", "--graph", str(graph), "--t", "1"]
    )
    inst = model.load_instance(str(out))
    want = gen_from_vc3(
        cli._parse_graph_text(graph.read_text()), 1
    )
    assert inst.dist == want.dist and inst.colors == want.colors
    assert inst.n == 4  # declared header wins

    bare = tmp_path / "bare.txt"
    bare.write_text("0 1\n2 3\n")
    out2 = write_instance(
        tmp_path, "vc2.json", ["gen", "vc3", "--graph", str(bare), "--t", "2"]
    )
    assert model.load_instance(str(out2)).n == 4  # inferred from edges

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    assert main(["gen", "vc3", "--graph", str(bad), "--t", "1"]) == 2


def test_gen_setcover_and_brute_decision(tmp_path, capsys):
    sc = tmp_path / "sc.json"
    sc.write_text(json.dumps({"universe": 3, "sets": [[0, 1], [1, 2], [2]]}))
    inst = write_instance(
        tmp_path, "scinst.json",
        ["gen", "setcover", "--instance", str(sc), "--t", "2"],
    )
    assert main(["brute", "--instance", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # {0,1} and {1,2} cover everything, so two sets suffice
    assert model.rational_from(doc["radius"]) == 0

    missing_universe = tmp_path / "bad_sc.json"
    missing_universe.write_text(json.dumps({"sets": [[0]]}))
    assert main(["gen", "setcover", "--instance", str(missing_universe), "--t", "1"]) == 2


def test_gen_clumps_and_fixture_match_library(tmp_path):
    out = write_instance(
        tmp_path, "clumps.json", ["gen", "clumps", "--k", "3", "--gamma", "2"]
    )
    assert model.load_instance(str(out)).dist == gen_clumps(3, 2).dist

    fx = write_instance(tmp_path, "fx.json", ["fixture", "adversarial"])
    assert model.load_instance(str(fx)).dist == fixture_adversarial().instance.dist

    fx2 = write_instance(
        tmp_path, "fx2.json", ["fixture", "adversarial", "--m", "12"]
    )
    assert model.load_instance(str(fx2)).dist == fixture_adversarial(12).instance.dist


def test_trace_file_and_json_logs(tmp_path, capsys):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "23", "--n", "8", "--k", "2", "--gamma", "1",
         "--demand-density", "1"],
    )
    trace = tmp_path / "trace.json"
    sol = tmp_path / "sol.json"
    assert main([
        "solve", "--instance", str(inst), "--trace", str(trace),
        "--json-logs", "--out", str(sol),
    ]) == 0
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln.strip()]
    tdoc = read_json(trace)
    assert len(lines) == len(tdoc["probes"])
    for ln in lines:
        assert json.loads(ln)["event"] == "probe"
    for probe in tdoc["probes"]:
        assert "cut_details" in probe


def test_linear_scan_flag(tmp_path):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "29", "--n", "8", "--k", "2", "--gamma", "1",
         "--demand-density", "1"],
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--instance", str(inst), "--out", str(a)]) == 0
    assert main(["solve", "--instance", str(inst), "--linear-scan", "--out", str(b)]) == 0
    da, db = read_json(a), read_json(b)
    # the scan settles at or below the binary search radius
    assert model.rational_from(db["probe_radius"]) <= model.rational_from(da["probe_radius"])


def strip_wall(doc):
    for row in doc["rows"]:
        row.pop("solve_ms")
        row.pop("oracle_ms")
    return doc


def test_bench_rows_rerun_identically(tmp_path):
    argv = ["bench", "--seeds", "1..4", "--n", "6", "--k", "2", "--gamma", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    da, db = read_json(a), read_json(b)
    for row in da["rows"]:
        assert isinstance(row["solve_ms"], int) and isinstance(row["oracle_ms"], int)
    assert strip_wall(da) == strip_wall(db)
    assert [row["id"] for row in da["rows"]] == [f"random-{s}" for s in range(1, 5)]
    for row in da["rows"]:
        if row["ratio"] != "n/a":
            assert model.rational_from(row["ratio"]) <= 4

    assert main(["bench", "--seeds", "", "--n", "5", "--k", "1", "--gamma", "1"]) == 2


def test_bench_fair_and_capped_oracle(tmp_path):
    out = tmp_path / "fair.json"
    assert main([
        "bench", "--seeds", "1,2", "--n", "5", "--k", "2", "--gamma", "1",
        "--fair", "--out", str(out),
    ]) == 0
    doc = read_json(out)
    assert doc["fair"] is True and len(doc["rows"]) == 2

    capped = tmp_path / "capped.json"
    assert main([
        "bench", "--seeds", "1", "--n", "6", "--k", "2", "--gamma", "1",
        "--cap", "3", "--out", str(capped),
    ]) == 0
    row = read_json(capped)["rows"][0]
    assert row["oracle_radius"] == "n/a" and row["ratio"] == "n/a"


def test_seed_list_forms():
    assert cli._parse_seeds("1..4") == [1, 2, 3, 4]
    assert cli._parse_seeds("3,7,11") == [3, 7, 11]
    assert cli._parse_seeds("5") == [5]
