#!/usr/bin/env python3
"""Append this checkout's benchmark numbers to the BENCH_<workload>.json
trajectory at the root of the repository.

    python3 tools/bench_record.py

Compiles src/ to bytecode first, so no run pays for it.  Then, for each
workload that BENCHMARK.json declares, runs

    python3 benchmarks/run.py --workload W --seed 1 --seconds 16 --trace T

with --trace 0, for the end-to-end metrics, and with --trace 1, for the
per-layer ones.  Each run's last line of stdout is its JSON summary.
When every run of every workload exited 0 with `correct` true, one entry
is appended to each BENCH_<W>.json, a JSON list: the commit (`git
rev-parse HEAD`), whether the working tree had changes, the seed, the
seconds, `attempted` and `failed` of the untraced run, and both runs'
metrics.  Otherwise nothing is appended and the exit code is 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 16


class RunFailed(Exception):
    """A benchmark run exited nonzero, ended without its JSON summary,
    or found an output wrong."""


def summary(root: Path, workload: str, trace: int) -> dict:
    """The JSON summary of one benchmarks/run.py run, or RunFailed."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    what = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise RunFailed(f"{what} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    try:
        got = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{what} did not end with a JSON line:\n{done.stdout}") from None
    if not (isinstance(got, dict) and got.get("correct") is True):
        raise RunFailed(f"{what} is not correct:\n{done.stdout}")
    return got


def git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(root: Path = ROOT) -> int:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = {}
    try:
        for workload in (w["name"] for w in declared["workloads"]):
            plain, traced = summary(root, workload, 0), summary(root, workload, 1)
            entries[workload] = {
                "seed": SEED,
                "seconds": SECONDS,
                "attempted": plain["attempted"],
                "failed": plain["failed"],
                "end_to_end": plain["metrics"],
                "per_layer": traced["metrics"],
            }
    except RunFailed as exc:
        sys.stderr.write(f"error: {exc}\nnothing recorded\n")
        return 1
    head = {"commit": git(root, "rev-parse", "HEAD"),
            "dirty": bool(git(root, "status", "--porcelain"))}
    for workload, entry in entries.items():
        path = root / f"BENCH_{workload}.json"
        history = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        history.append({**head, **entry})
        path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"{path.name}: entry {len(history)}, commit {head['commit'][:12]}"
              f"{' (dirty tree)' if head['dirty'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
