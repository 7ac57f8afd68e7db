"""Command line interface: subcommands, exit codes, byte stability."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import colorful_kcenter
from colorful_kcenter import cli, model
from colorful_kcenter.cli import main
from colorful_kcenter.generators import fixture_adversarial, gen_clumps, gen_from_vc3, gen_random
from colorful_kcenter.oracle import brute_force_colorful
from colorful_kcenter.solver import InternalError
from test_model import coprime_metric


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


# brute's documents, byte for byte, for a colorful instance with OPT > 0
# and a fair one whose optimum mixes three center sets
BRUTE_DOCUMENTS = {
    "colorful": (
        gen_random(1, 9, 3, 2, demand_density=Fraction(1)),
        '{\n  "kind": "colorful-optimum",\n  "radius": "4/1",\n  "centers": [\n'
        '    0,\n    1,\n    2\n  ]\n}\n',
    ),
    "fair": (
        gen_random(4, 8, 2, 2, demand_density=Fraction(1), p_density=Fraction(2, 3)),
        '{\n  "kind": "fair-optimum",\n  "radius": "3/1",\n  "distribution": [\n'
        '    {\n      "centers": [\n        4\n      ],\n      "prob": "1/3"\n    },\n'
        '    {\n      "centers": [\n        0,\n        1\n      ],\n'
        '      "prob": "1/2"\n    },\n'
        '    {\n      "centers": [\n        2,\n        4\n      ],\n'
        '      "prob": "1/6"\n    }\n  ]\n}\n',
    ),
}


@pytest.mark.parametrize("name", sorted(BRUTE_DOCUMENTS))
def test_brute_documents_are_pinned(name, tmp_path):
    inst, expected = BRUTE_DOCUMENTS[name]
    path = tmp_path / "inst.json"
    path.write_text(model.dumps_instance(inst))
    out = tmp_path / "out.json"
    assert main(["brute", "--instance", str(path), "--out", str(out)]) == 0
    assert out.read_text() == expected


def test_gen_out_follows_the_family(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe": 1, "sets": [[0]]}))
    for family in [
        ["vc3", "--graph", str(graph), "--t", "1"],
        ["setcover", "--instance", str(cover), "--t", "1"],
        ["random", "--seed", "1", "--n", "4", "--k", "2", "--gamma", "1"],
        ["clumps", "--k", "2", "--gamma", "2"],
    ]:
        out = tmp_path / "out.json"
        assert main(["gen", *family, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert model.load_instance(str(out))
        out.unlink()
        # before the family, --out is not an option of gen: a usage error
        assert main(["gen", "--out", str(out), *family]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()


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
    for samples in ("-3", str(cli.MAX_SAMPLES + 1)):
        assert main(["solve-fair", "--instance", str(bad), "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    for field, value in [
        ("n", "2"), ("n", True), ("k", "1"), ("k", True), ("k", 1.0),
        ("dist", 5), ("dist", [["0", "1"], 5]), ("dist", [["0", "1"], ["1"]]),
        ("dist", [["0", 1.5], ["1", "0"]]), ("dist", [["0", "x"], ["1", "0"]]),
        ("dist", [["0", "1e999999999"], ["1e999999999", "0"]]),
        # accepted by Fraction() on some Python versions only
        ("dist", [["0", "1_0/3"], ["1_0/3", "0"]]),
        ("dist", [["0", "3 / 4"], ["3 / 4", "0"]]),
        ("dist", [["0", "٣/4"], ["٣/4", "0"]]),
        ("p", ["1/2", ".5"]),
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
    # a metric whose distances (p+1)/p have a distinct prime p per pair: each
    # of the 120 * 120 int row entries would take the lcm's ~10^5 bits, so
    # loading stops before any row is built
    n = 120
    bad.write_text(json.dumps({**good, "n": n, "dist": coprime_metric(n), "p": ["0"] * n}))
    capsys.readouterr()
    for command in ("solve", "solve-fair"):
        assert main([command, "--instance", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(model.MAX_ROW_BITS) in err, err

    # malformed solution files given to verify: one error line and exit 2
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "5", "--n", "8", "--k", "2", "--gamma", "2"],
    )
    sol = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    fair = write_instance(
        tmp_path, "fair.json",
        ["gen", "random", "--seed", "13", "--n", "6", "--k", "2", "--gamma", "1",
         "--p-density", "2/3"],
    )
    dist = tmp_path / "dist.json"
    assert main(["solve-fair", "--instance", str(fair), "--out", str(dist)]) == 0
    capsys.readouterr()
    row = read_json(dist)["distribution"][0]
    tampered = tmp_path / "tampered.json"
    for base, field, value in [
        (sol, "centers", "01"), (sol, "centers", 5), (sol, "centers", [0.0]),
        (sol, "centers", None), (sol, "centers", [13]), (sol, "centers", [8]),
        (sol, "centers", [-1]), (sol, "centers", [True]),
        (sol, "radius", 1.5), (sol, "radius", None), (sol, "radius", [1]),
        (dist, "radius", "x"), (dist, "distribution", 5),
        (dist, "distribution", [5]), (dist, "distribution", [{"centers": [0]}]),
        (dist, "distribution", [{**row, "prob": 0.5}]),
        (dist, "distribution", [{**row, "centers": [-1]}]),
        (dist, "distribution", [{**row, "centers": "0"}]),
        (dist, "samples", 5), (dist, "samples", [[False]]), (dist, "samples", [0]),
        (dist, "samples", [[6]]),
    ]:
        tampered.write_text(json.dumps({**read_json(base), field: value}))
        instance = inst if base == sol else fair
        code = main(["verify", "--instance", str(instance), "--solution", str(tampered)])
        err = capsys.readouterr().err
        assert code == 2, (field, value)
        assert err.startswith("error: ") and err.count("\n") == 1, err
    doc = read_json(sol)
    del doc["radius"]
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--solution", str(tampered)]) == 2
    capsys.readouterr()

    # files that cannot be read or written, or are not UTF-8 JSON text
    latin = tmp_path / "latin.json"
    latin.write_bytes(json.dumps(good).replace("2", "\u00e9").encode("latin-1"))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(good).replace('"demand": 1', '"demand": ' + "9" * 5000))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in [
        ["solve", "--instance", str(inst), "--out", str(tmp_path / "no-dir" / "x.json")],
        ["solve", "--instance", str(tmp_path)],
        ["solve", "--instance", str(latin)],
        ["solve", "--instance", str(huge)],
        ["solve", "--instance", str(deep)],
        ["verify", "--instance", str(inst), "--solution", str(latin)],
        ["verify", "--instance", str(inst), "--solution", str(tmp_path)],
        ["verify", "--instance", str(inst), "--solution", str(huge)],
        ["verify", "--instance", str(inst), "--solution", str(deep)],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    # generator parameters and input files: one error line and exit 2
    capsys.readouterr()
    graph = tmp_path / "graph.txt"
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe": 2, "sets": [[0], [1, 2]]}))
    random_args = ["gen", "random", "--seed", "1", "--n", "4", "--k", "2", "--gamma", "1"]
    cases = [
        ("a b\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("3\n0 5\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("0 -1\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("0 1_0\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("+2 3\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("2 \u0663\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("\uff13\n0 1\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("x\n0 1\n", ["gen", "vc3", "--graph", str(graph), "--t", "1"]),
        ("0 1\n", ["gen", "vc3", "--graph", str(graph), "--t", "-1"]),
        (None, ["gen", "setcover", "--instance", str(cover), "--t", "1"]),
        (None, ["gen", "random", "--seed", "1", "--n", "0", "--k", "1", "--gamma", "1"]),
        (None, ["gen", "random", "--seed", "1", "--n", "3", "--k", "0", "--gamma", "1"]),
        (None, ["gen", "clumps", "--k", "1", "--gamma", "5"]),
        (None, random_args + ["--demand-density", "abc"]),
        (None, random_args + ["--p-density", "1/0"]),
        (None, random_args + ["--demand-density", "3"]),
        (None, random_args + ["--demand-density", "-1"]),
        (None, random_args + ["--p-density", "3"]),
        (None, random_args + ["--p-density", "-1"]),
        (None, ["fixture", "adversarial", "--m", "3"]),
    ]
    # numbers of more than 4,300 digits, which Python does not write out:
    # 2 * r over a 4,300-digit distance, generated distances, and the
    # weights of a distribution whose targets have coprime denominators
    long = LONG_NUMBERS[0]
    three = tmp_path / "long.json"
    # clusters 100 apart, each of diameter near = long / (10**4299 + 3),
    # about 10: 4 red, 4 red, 4 blue, and 3 red + 3 blue, which the
    # greedy picks first at 4 * near, so its centers miss a demand there;
    # the probe at near is solved at 2 * near, by the packing DP, and a
    # service radius (any distance) would be written
    near = f"{long}/{10**4299 + 3}"
    groups = [0] * 4 + [1] * 4 + [2] * 4 + [3] * 6
    three.write_text(json.dumps({
        "n": 18, "k": 3,
        "dist": [["0" if i == j else near if a == b else "100" for j, b in enumerate(groups)]
                 for i, a in enumerate(groups)],
        "colors": [{"members": [*range(8), 12, 13, 14], "demand": 8},
                   {"members": [8, 9, 10, 11, 15, 16, 17], "demand": 4}],
    }))
    four = tmp_path / "long-fair.json"
    four.write_text(json.dumps({
        "n": 4, "k": 1, "dist": [[int(i != j) for j in range(4)] for i in range(4)],
        "colors": [{"members": [0, 1, 2, 3], "demand": 0}],
        "p": [f"1/{2**10000}", f"1/{3**6300}", f"1/{5**4300}", "0"],
    }))
    cases += [
        (None, ["solve", "--instance", str(three)]),
        (None, ["solve-fair", "--instance", str(four)]),
        (None, ["gen", "clumps", "--k", "2", "--gamma", "2", "--spread", long]),
        (None, ["fixture", "adversarial", "--m", long]),
    ]
    for text, argv in cases:
        if text is not None:
            graph.write_text(text, encoding="utf-8")
        assert main(argv) == 2, (text, argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # no family builds an instance of more than the points limit
    limit = cli.MAX_POINTS
    cover.write_text(json.dumps({"universe": 1, "sets": [[0]] * (limit + 1)}))
    for argv in [
        ["gen", "setcover", "--instance", str(cover), "--t", "1"],
        ["gen", "random", "--seed", "1", "--n", str(limit + 1), "--k", "1", "--gamma", "1"],
        ["gen", "random", "--seed", "1", "--n", "10", "--k", "1", "--gamma", str(limit + 1)],
        ["gen", "clumps", "--k", str(limit // 2), "--gamma", "2"],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(limit) in err, err
    # nor one of more than the limit in colors: a set-cover universe, and a
    # vc3 graph's edges, each one color
    star = "".join(f"0 {v}\n" for v in range(1, limit))  # limit - 1 edges
    for colors, more in [(limit, "1 2\n"), (limit + 1, "1 2\n2 3\n")]:
        cover.write_text(json.dumps({"universe": colors, "sets": [list(range(colors))]}))
        graph.write_text(star + more)
        for argv in [
            ["gen", "setcover", "--instance", str(cover), "--t", "1"],
            ["gen", "vc3", "--graph", str(graph), "--t", "1"],
        ]:
            code = main(argv)
            out = capsys.readouterr()
            if colors == limit:
                assert code == 0 and len(json.loads(out.out)["colors"]) == limit, argv
            else:
                assert code == 2 and out.out == "", argv
                assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
                assert f"{colors} colors" in out.err and str(limit) in out.err, out.err
    graph.write_text("3\n0 1\n1 2\n")
    assert main(["gen", "vc3", "--graph", str(graph), "--t", "1"]) == 0
    assert main(random_args + ["--demand-density", "0", "--p-density", "1"]) == 0
    assert main(random_args + ["--demand-density", "1/3", "--p-density", "1/2"]) == 0


def test_one_process_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # main keeps one parser for the process; earlier calls, a usage
    # error among them, must not change what later calls write
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps to the terminal
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "5", "--n", "8", "--k", "2", "--gamma", "2"],
    )
    capsys.readouterr()
    sol = str(tmp_path / "sol.json")
    runs = [
        ["solve", "--instance", str(inst), "--bogus"],
        ["solve", "--instance", str(inst)],
        ["verify", "--instance", str(inst), "--solution", sol],
    ]
    assert main(["solve", "--instance", str(inst), "--out", sol]) == 0
    in_process = []
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    env = dict(os.environ)
    # the directory holding the package this process imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(colorful_kcenter.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    fresh = []
    for argv in runs:
        done = subprocess.run(
            [sys.executable, "-m", "colorful_kcenter.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [2, 0, 0]


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

    # weights that form a distribution, one support set feasible at the
    # radius, but point 1 (target 1/2) is never covered at radius 0
    doc = read_json(sol)
    assert doc["radius"] == "0/1" and read_json(inst)["p"][1] == "1/2"
    doc["distribution"] = [{"centers": [3], "prob": "1/1"}]
    tampered.write_text(json.dumps(doc))
    assert main(["verify", "--instance", str(inst), "--solution", str(tampered)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == ["coverage 0/1 below target 1/2 at point 1"]

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

    crlf = tmp_path / "crlf.txt"
    crlf.write_text("4\r\n0 1\t# a comment\u2003\r\n1  2\r\n", newline="", encoding="utf-8")
    out3 = write_instance(
        tmp_path, "vc3.json", ["gen", "vc3", "--graph", str(crlf), "--t", "1"]
    )
    assert out3.read_bytes() == out.read_bytes()

    bad = tmp_path / "bad.txt"
    # lines end only at LF or CRLF, tokens only at ASCII spaces and tabs
    for text in ["0 1 2\n", "0\u20031\n1\u00a02\n", "0 1\u20281 2\n", "0 1\r1 2\n"] + [
        f"0 1{sep}1 2\n" for sep in "\x1c\x1d\x1e"
    ]:
        bad.write_text(text, newline="", encoding="utf-8")
        assert main(["gen", "vc3", "--graph", str(bad), "--t", "1"]) == 2, text

    # the vertex limit holds for a declared and for an implied count
    limit = cli.MAX_POINTS
    assert cli._parse_graph_text(f"{limit}\n0 {limit - 1}\n").n == limit
    for text in [f"{limit + 1}\n0 1\n", f"0 {limit}\n", "0 999999\n"]:
        with pytest.raises(cli.CliError) as exc:
            cli._parse_graph_text(text)
        assert exc.value.code == 2 and str(limit) in str(exc.value), text
    bad.write_text("0 999999\n")
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

    # a universe or element that is not a JSON integer is never truncated
    capsys.readouterr()
    for doc in [
        {"universe": 3.5, "sets": [[0]]}, {"universe": True, "sets": [[0]]},
        {"universe": -1, "sets": [[0]]}, {"universe": "2", "sets": [[0], [1]]},
        {"universe": 2, "sets": [[0, 1.5], [1]]}, {"universe": 2, "sets": [[0], [True]]},
        {"universe": 2, "sets": ["01"]}, {"universe": 2, "sets": {"0": [0]}},
        [{"universe": 1, "sets": [[0]]}],
    ]:
        missing_universe.write_text(json.dumps(doc))
        assert main(["gen", "setcover", "--instance", str(missing_universe), "--t", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (doc, err)


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


ROW_KEYS = {"radius", "outcome", "cuts", "lp_solves", "dp_calls", "restricted_solves",
            "separations"}
FULL_KEYS = ROW_KEYS | {"cut_details", "separation_details"}


def test_trace_file_and_json_logs(tmp_path, capsys, no_greedy):
    fair_shape = ["--n", "12", "--k", "4", "--gamma", "2", "--demand-density", "1",
                  "--p-density", "2/3"]
    for command, argv, empty_lps in [
        ("solve", ["--seed", "23", "--n", "8", "--k", "2", "--gamma", "1",
                   "--demand-density", "1"], None),
        # the fair relaxation at r rejects the first probe, radius 0: at
        # seed 1 by its verified counting certificate, with no LP, and at
        # seed 11, which the counting bound misses, by two LPs, the
        # cut-free relaxation cold and its re-solve with the target rows
        ("solve-fair", ["--seed", "1", *fair_shape], 0),
        ("solve-fair", ["--seed", "11", *fair_shape], 2),
    ]:
        inst = write_instance(tmp_path, "inst.json", ["gen", "random", *argv])
        trace = tmp_path / "trace.json"
        sol = tmp_path / "sol.json"
        assert main([
            command, "--instance", str(inst), "--trace", str(trace),
            "--json-logs", "--out", str(sol),
        ]) == 0
        err = capsys.readouterr().err
        rows = read_json(sol)["trace"]["probes"]
        assert [json.loads(ln) for ln in err.splitlines()] == [
            {"event": "probe", **row} for row in rows
        ]
        assert all(set(row) == ROW_KEYS for row in rows)
        tdoc = read_json(trace)
        assert [{k: probe[k] for k in row} for probe, row in zip(tdoc["probes"], rows)] == rows
        seps = [sep for probe in tdoc["probes"] for sep in probe["separation_details"]]
        assert all(set(probe) == FULL_KEYS for probe in tdoc["probes"])
        assert all(set(sep) == FULL_KEYS | {"mu", "eps", "alpha"} for sep in seps)
        assert (command == "solve-fair") == bool(seps)
        for doc in (read_json(sol)["trace"], tdoc):
            assert doc["total_cuts"] == sum(row["cuts"] for row in rows)
            assert doc["total_lp_solves"] == sum(
                row["lp_solves"] + row["restricted_solves"] for row in rows
            )
            assert doc["total_columns"] == sum(s["outcome"].startswith("column-") for s in seps)
        if command == "solve-fair":
            assert rows[0]["outcome"] == "empty" and rows[0]["lp_solves"] == empty_lps


def test_linear_scan_flag(tmp_path, capsys):
    inst = write_instance(
        tmp_path, "inst.json",
        ["gen", "random", "--seed", "29", "--n", "8", "--k", "2", "--gamma", "1",
         "--demand-density", "1"],
    )
    # one radius search: the flag that picked another order is gone
    assert main(["solve", "--instance", str(inst), "--linear-scan"]) == 2
    assert "--linear-scan" in capsys.readouterr().err


# Small valid documents for the fuzz test: four points on a line, and
# the same with coverage targets; solutions in the shape verify reads.
LINE = (0, 1, 3, 4)
FUZZ_INSTANCE = {
    "n": 4,
    "k": 2,
    "dist": [[f"{abs(a - b)}/1" for b in LINE] for a in LINE],
    "colors": [{"members": [0, 1, 3], "demand": 2}],
}
FUZZ_FAIR = {**FUZZ_INSTANCE, "p": ["1/2", "0/1", "1/1", "1/3"]}
FUZZ_SOLUTION = {"radius": "0/1", "centers": [0, 1]}
FUZZ_DISTRIBUTION = {
    "radius": "4/1",
    "distribution": [
        {"centers": [0], "prob": "1/2"}, {"centers": [0, 3], "prob": "1/2"},
    ],
    "samples": [[0]],
}
# numbers of 4,300 digits, the most Python writes out in decimal: any
# result they add to, like a sum of probabilities, is too long to write
LONG_NUMBERS = ("9" * 4300, 10**4300 - 1)
JUNK = st.sampled_from([
    None, True, False, 0, 1, 2, -1, 2**64, -(2**70), 0.5, 1.0,
    "", "x", "1/0", "nan", "inf", "-1/2", "2/1", " 3 ", "0x10", "[]", "1e999999999",
    [], {}, [[0, 1]], [None], {"members": [0], "demand": 1}, *LONG_NUMBERS,
])


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_slots(child))
    return out


@st.composite
def document_bytes(draw, doc):
    """The document itself, the document with fields dropped or replaced
    by junk, the document with one byte overwritten (often not UTF-8),
    or arbitrary bytes."""
    form = draw(st.sampled_from(["valid", "mutated", "mutated", "corrupt", "bytes"]))
    if form == "bytes":
        return draw(st.binary(max_size=40))
    if form == "corrupt":
        raw = bytearray(json.dumps(doc).encode())
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        return bytes(raw)
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2)) if form == "mutated" else 0):
        slots = _slots(doc)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(JUNK))
    return json.dumps(doc).encode()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["solve", "solve-fair", "brute", "verify"]),
    st.booleans().flatmap(lambda fair: st.tuples(
        document_bytes(FUZZ_FAIR if fair else FUZZ_INSTANCE),
        document_bytes(FUZZ_DISTRIBUTION if fair else FUZZ_SOLUTION),
    )),
)
# random draws reach a long number in a prob slot of a checked distribution
# only rarely; its sum with the other probability is too long to write
@example("verify", (json.dumps(FUZZ_FAIR).encode(), json.dumps({
    **FUZZ_DISTRIBUTION,
    "distribution": [
        {**row, "prob": LONG_NUMBERS[0]} for row in FUZZ_DISTRIBUTION["distribution"]
    ],
}).encode()))
def test_malformed_documents_never_raise(command, files):
    with tempfile.TemporaryDirectory() as tmp:
        inst, sol = os.path.join(tmp, "inst.json"), os.path.join(tmp, "sol.json")
        for path, data in zip((inst, sol), files):
            with open(path, "wb") as fh:
                fh.write(data)
        argv = [command, "--instance", inst]
        if command == "verify":
            argv += ["--solution", sol]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0 or (command == "verify" and code == 1 and not err):
        assert err == ""
        json.loads(out.getvalue())  # the result, or the verification report
    else:
        assert err.startswith(("error: ", "internal error: ")), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# Generator input files for the fuzz test.  Vertex ids are small or above
# the points limit, so that no accepted graph is large.
FUZZ_SETCOVER = {"universe": 3, "sets": [[0, 1], [1, 2], [2]]}
SMALL_VERTEX = st.integers(0, 19)
VERTEX = st.one_of(
    SMALL_VERTEX, SMALL_VERTEX, SMALL_VERTEX,
    st.integers(cli.MAX_POINTS + 1, 10**12),
).map(str)
EDGE = st.lists(VERTEX, min_size=2, max_size=2)
GRAPH_LINES = st.one_of(EDGE, EDGE, EDGE, st.lists(VERTEX, max_size=1), st.lists(
    VERTEX | st.sampled_from(
        ["-1", "+2", "1.5", "x", "#", "0x1", "1_0", "", "_", "+", "\u0663", "1\u0663"]
    ), max_size=3
))


# separators the graph grammar takes (LF, CRLF, space, tab) and others
# that str.splitlines or str.split would also take
LINE_END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\u2028", "\x1c", "\x1d", "\x1e"])
SPACE = st.sampled_from([" ", " ", "\t", " \t ", "\u00a0", "\u2003"])


@st.composite
def graph_bytes(draw):
    """Edge-list text from vertex ids, junk tokens and separators, or
    arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    text = ""
    for line in draw(st.lists(GRAPH_LINES, max_size=5)):
        text += "".join(draw(SPACE) + tok if i else tok for i, tok in enumerate(line))
        text += draw(LINE_END)
    return text.encode()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["setcover", "vc3"]).flatmap(lambda family: st.tuples(
        st.just(family),
        document_bytes(FUZZ_SETCOVER) if family == "setcover" else graph_bytes(),
    )),
    st.integers(-1, 3),
)
def test_malformed_generator_files_never_raise(case, t):
    family, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        flag = "--instance" if family == "setcover" else "--graph"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gen", family, flag, path, "--t", str(t)])
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    if family == "vc3":
        # a number above the vertex limit is a count, an id or an error
        numbers = [
            int(num) for line in re.split(rb"\r?\n", data)
            for num in re.findall(rb"[0-9]+", line.split(b"#", 1)[0])
        ]
        if any(v > cli.MAX_POINTS for v in numbers):
            assert code == 2, data
    if code == 0:
        assert err == ""
        inst = model.instance_from_dict(json.loads(out.getvalue()))
        if family == "vc3":  # an accepted graph follows the README's grammar
            assert inst.n <= cli.MAX_POINTS
            for line in re.split(rb"\r?\n", data):
                assert re.fullmatch(rb"[ \t0-9]*", line.split(b"#", 1)[0]), data
    else:
        assert err.startswith(("error: ", "internal error: ")), err
        assert err.count("\n") == 1 and err.endswith("\n"), err


# Generator flags for the fuzz test: small ints, large counts, rationals and junk.
FLAG_INT = st.integers(-3, 12).map(str)
FLAG_JUNK = st.sampled_from(
    ["", "x", "1.5", "1/2", "1e3", "0x10", " 3 ", "+4", "1_0", "\u0663", "--n", "-"]
)
FLAG_DENSITY = st.sampled_from(
    ["0", "1", "1/2", "2/3", "0.25", " 1/3 ", "3/2", "-1/4", "1/0", "2", ".5", "1e-1"]
)
# counts of points or colors: small, or above the points limit
FLAG_COUNT = st.one_of(
    FLAG_INT, FLAG_INT, FLAG_INT, st.integers(cli.MAX_POINTS + 1, 10**12).map(str)
)
# lengths that scale every distance: small, or of 4,300 digits, so that
# the distances are too long to write
FLAG_LENGTH = st.one_of(FLAG_INT, FLAG_INT, st.just(LONG_NUMBERS[0]))
GEN_FLAGS = {
    ("gen", "random"): {
        "--seed": FLAG_INT, "--n": FLAG_COUNT, "--k": FLAG_COUNT, "--gamma": FLAG_COUNT,
        "--metric": st.sampled_from(["line", "grid-l1", "grid", ""]),
        "--demand-density": FLAG_DENSITY, "--p-density": FLAG_DENSITY,
    },
    ("gen", "clumps"): {"--k": FLAG_COUNT, "--gamma": FLAG_INT, "--spread": FLAG_LENGTH},
    ("fixture", "adversarial"): {"--m": FLAG_LENGTH},
}


@st.composite
def generator_argv(draw):
    """A gen random, gen clumps or fixture command line: each flag left
    out or given a small int, a count above the points limit, a rational
    or a junk string."""
    command = draw(st.sampled_from(sorted(GEN_FLAGS)))
    argv = list(command)
    for flag, value in GEN_FLAGS[command].items():
        if draw(st.integers(0, 5)):  # usually given
            argv += [flag, draw(st.one_of(value, value, FLAG_JUNK))]
    return argv


@st.composite
def gamma_over_limit_argv(draw):
    """A gen random command valid but for --gamma, above the colors limit:
    without that check it would build a small instance and exit 0."""
    n = draw(st.integers(1, 8))
    return [
        "gen", "random", "--seed", str(draw(st.integers(0, 12))), "--n", str(n),
        "--k", str(draw(st.integers(1, n))),
        "--gamma", str(draw(st.integers(cli.MAX_POINTS + 1, 2 * cli.MAX_POINTS))),
    ]


@settings(max_examples=200, deadline=None)
@given(st.one_of(generator_argv(), generator_argv(), generator_argv(), gamma_over_limit_argv()))
def test_generator_flags_never_raise(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    # gen random's --n and --gamma and gen clumps' --k above the limit are refused
    flags = dict(zip(argv[2::2], argv[3::2]))
    for flag in ("--n", "--gamma") if argv[1] == "random" else ("--k",):
        count = flags.get(flag)
        if argv[0] == "gen" and count and count.isascii() and count.isdigit():
            if int(count) > cli.MAX_POINTS:
                assert code == 2, argv
    if code == 0:
        assert err == ""
        model.instance_from_dict(json.loads(out.getvalue()))
    else:
        # argparse's usage lines may come first; the last line says why
        assert err.endswith("\n"), err
        lines = err.splitlines()
        assert "error: " in lines[-1], err
        assert sum("error:" in line for line in lines) == 1, err
