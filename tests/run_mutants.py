"""Mutation checks: every mutant in tests/mutants.py must be killed.

For each mutant, src/ is copied to a temporary directory, the mutant's
snippet is replaced in its file, and only the mutant's test node runs,
with the copy first on PYTHONPATH.  The run fails if a snippet does not
occur exactly once, or if a node passes (or is not found) against its
mutant.  Each mutant has its own copy and subprocess, so os.cpu_count()
of them run at once; their lines print in table order, then the total
wall time.

    python tests/run_mutants.py             # every mutant
    python tests/run_mutants.py "dual ratio" # those whose name contains it
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

TIMEOUT_S = 300


def check(mutant) -> str:
    """None when the mutant is killed, else what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "colorful_kcenter" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.snippet)
        if found != 1:
            return f"the snippet occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        # run from the temporary directory, so no test database or cache
        # of a mutant's run is left in the repository
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 str(ROOT / mutant.node)],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"{mutant.node} ran past {TIMEOUT_S} s"
    # pytest exits 1 when a test failed; 0 is a surviving mutant, and any
    # other code an error, such as a node that no longer exists
    if done.returncode == 1:
        return None
    tail = "\n".join(done.stdout.splitlines()[-5:])
    return f"{mutant.node} exited {done.returncode}:\n{tail}"


def timed_check(mutant):
    """(check(mutant), its wall time in seconds)."""
    start = time.perf_counter()
    problem = check(mutant)
    return problem, time.perf_counter() - start


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    failed = 0
    start = time.perf_counter()
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for mutant, (problem, took) in zip(chosen, pool.map(timed_check, chosen)):
            print(f"{'killed  ' if problem is None else 'SURVIVED'} {took:5.1f} s  {mutant.name}",
                  flush=True)
            if problem is not None:
                failed += 1
                print("    " + problem.replace("\n", "\n    "))
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if failed or not chosen else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
