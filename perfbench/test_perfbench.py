"""The benchmark's own test, on tiny inputs (``--smoke``).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_printed(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs():
    fg = run.load_program()
    a = workloads.LawsN4(fg, 5, smoke=True)
    b = workloads.LawsN4(fg, 5, smoke=True)
    assert [S for S, _ in a.picks] == [S for S, _ in b.picks]
    assert {reg for _, reg in a.picks} == {True, False}
    assert (workloads.PoolSweep(fg, 5, True).order
            == workloads.PoolSweep(fg, 5, True).order)


def test_setup_check_fires(monkeypatch):
    fg = run.load_program()
    monkeypatch.setitem(workloads.POOL[True], "non_regular", 9)
    with pytest.raises(workloads.SetupError):
        workloads.PoolSweep(fg, 1, smoke=True)
    monkeypatch.setitem(workloads.A023814, 3, 112)
    with pytest.raises(workloads.SetupError):
        workloads.LawsN4(fg, 1, smoke=True)


def test_verdict_checks_fire():
    fg = run.load_program()
    pool = workloads.PoolSweep(fg, 1, smoke=True)
    pool.regular = [not r for r in pool.regular]
    rec = workloads.measure(pool, 0)
    assert rec.failed == rec.attempted == 1 and rec.problems
    laws = workloads.LawsN4(fg, 1, smoke=True)
    laws.picks = [(S, not regular) for S, regular in laws.picks]
    rec = workloads.measure(laws, 0)
    assert rec.failed == rec.attempted == 2 and rec.problems


def test_census_check_fires_and_exit_code(monkeypatch, capsys):
    (spec, total, classes, digest), *rest = workloads.CENSUS[True]
    monkeypatch.setitem(workloads.CENSUS, True,
                        ((spec, total, classes, "0" * 32), *rest))
    assert run.main(["--workload", "census", "--seed", "1",
                     "--seconds", "0.001", "--trace", "0", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == total


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
