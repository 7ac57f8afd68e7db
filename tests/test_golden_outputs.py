"""Golden output bytes of the two CLI solvers.

Each case is a small instance from the generators: random instances on
both paths (round-or-cut and exact enumeration), coverage-target
instances on both paths, every clump shape with k <= 5 (the family on
which the cut branch fires), the cover reductions and the adversarial
fixture.  For each case the test runs `solve` (or `solve-fair`) with
`--trace` and `--json-logs` and compares sha256 digests of the solution
file, the trace file and the stderr log against
`tests/golden_outputs.json`; colorful cases also digest the
`--linear-scan` solution.  A pure refactor of the solvers must leave
every digest unchanged.

When a change is meant to alter the output, re-record with

    PYTHONPATH=src python tests/test_golden_outputs.py --record

and name the cases that moved, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from colorful_kcenter.cli import main
from colorful_kcenter.generators import (
    fixture_adversarial,
    gen_clumps,
    gen_from_setcover,
    gen_from_vc3,
    gen_random,
    gen_random_graph,
    gen_random_setcover,
)
from colorful_kcenter.model import FairInstance, dumps_instance

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _cases() -> dict:
    cases = {}
    for seed in range(1, 31):  # round-or-cut path: gamma < k
        k = 2 + seed % 3
        cases[f"random-{seed}"] = gen_random(
            seed, 6 + seed % 5, k, 1 + seed % (k - 1),
            metric="grid-l1" if seed % 2 else "line",
            demand_density=Fraction(1) if seed % 3 else Fraction(1, 2),
        )
    for seed in range(1, 16):  # enumeration path: gamma >= k
        k = 1 + seed % 3
        cases[f"enum-{seed}"] = gen_random(
            seed, 6 + seed % 5, k, k + seed % 2,
            metric="line" if seed % 2 else "grid-l1",
            demand_density=Fraction(1),
        )
    for seed in range(1, 26):  # column generation: gamma < k
        k = 2 + seed % 2
        cases[f"fair-{seed}"] = gen_random(
            seed, 5 + seed % 4, k, 1 + seed % (k - 1),
            metric="grid-l1" if seed % 2 else "line",
            demand_density=Fraction(1) if seed % 3 else Fraction(1, 2),
            p_density=Fraction(2, 3) if seed % 2 else Fraction(1, 2),
        )
    for seed in range(1, 13):  # coverage targets by enumeration
        k = 1 + seed % 2
        cases[f"fair-enum-{seed}"] = gen_random(
            seed, 5 + seed % 3, k, k + seed % 2,
            demand_density=Fraction(1),
            p_density=Fraction(2, 3),
        )
    for k in range(2, 6):
        for gamma in range(2, k + 1):
            cases[f"clumps-{k}-{gamma}"] = gen_clumps(k, gamma)
    for seed in (1, 2):
        cases[f"vc3-{seed}"] = gen_from_vc3(gen_random_graph(seed, 5), 2)
        cases[f"setcover-{seed}"] = gen_from_setcover(
            gen_random_setcover(seed, 4, 4), 2
        )
    cases["adversarial"] = fixture_adversarial().instance
    return cases


CASES = _cases()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue()}")
    return err.getvalue()


def digests(inst, work: Path) -> dict:
    """sha256 of every byte the solver writes for one instance."""
    path = work / "inst.json"
    path.write_text(dumps_instance(inst))
    out, trace = work / "out.json", work / "trace.json"
    command = "solve-fair" if isinstance(inst, FairInstance) else "solve"
    logs = _run([
        command, "--instance", str(path), "--out", str(out),
        "--trace", str(trace), "--json-logs",
    ])
    got = {
        "out": _sha(out.read_bytes()),
        "trace": _sha(trace.read_bytes()),
        "logs": _sha(logs.encode()),
    }
    if command == "solve":
        _run(["solve", "--instance", str(path), "--linear-scan", "--out", str(out)])
        got["scan"] = _sha(out.read_bytes())
    return got


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, golden, tmp_path):
    assert digests(CASES[name], tmp_path) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_outputs.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(inst, Path(tmp)) for name, inst in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} cases in {GOLDEN}")
