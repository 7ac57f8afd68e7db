"""tools/bench_record.py appends one entry per workload only when every
benchmark run succeeded: a run that exits nonzero, ends without its
JSON summary or reports `correct` false leaves every BENCH file as it
was."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

# a stand-in for benchmarks/run.py: workload "good" passes; workload
# "bad" behaves as BAD_RUN, read from the file next to it, says
FAKE_RUN = '''
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
summary = {"correct": True, "attempted": 24, "failed": 0,
           "metrics": {"trace": {"value": int(args["--trace"]), "unit": "flag"}}}
how = (pathlib.Path(__file__).parent / "BAD_RUN").read_text() if args["--workload"] == "bad" else ""
print("workload", args["--workload"])
if how == "exit":
    sys.exit(1)
if how == "no-json":
    print("FAILED: no summary")
elif how == "incorrect":
    print(json.dumps({**summary, "correct": False, "failed": 3}))
else:
    print(json.dumps(summary))
'''


def fake_checkout(tmp_path, workloads, bad_run=""):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "benchmarks" / "BAD_RUN").write_text(bad_run)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": w} for w in workloads]}))
    return tmp_path


@pytest.mark.parametrize("bad_run", ["exit", "no-json", "incorrect"])
def test_a_failed_run_records_nothing(tmp_path, capsys, bad_run):
    root = fake_checkout(tmp_path, ["good", "bad"], bad_run)
    (root / "BENCH_good.json").write_text("[]\n")
    assert bench_record.main(root) == 1
    # the good workload ran first, and its entry is not appended either
    assert (root / "BENCH_good.json").read_text() == "[]\n"
    assert not (root / "BENCH_bad.json").exists()
    assert "nothing recorded" in capsys.readouterr().err


def test_each_workload_gets_one_entry_per_run(tmp_path):
    root = fake_checkout(tmp_path, ["good"])
    (root / ".gitignore").write_text("__pycache__/\n")  # compileall's output
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "x"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    for runs in (1, 2):
        assert bench_record.main(root) == 0
        history = json.loads((root / "BENCH_good.json").read_text())
        assert len(history) == runs
    # the first entry's file is untracked when the second run starts
    assert [e["dirty"] for e in history] == [False, True]
    assert history[0] == {
        "commit": head, "dirty": False, "seed": 1, "seconds": 16, "attempted": 24, "failed": 0,
        "end_to_end": {"trace": {"value": 0, "unit": "flag"}},
        "per_layer": {"trace": {"value": 1, "unit": "flag"}},
    }
