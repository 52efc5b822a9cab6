"""Tests of the benchmark itself, on its quick inputs.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sailfree  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "0.3",
               "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _wrong_isomorphism(h1, h2):
    return tuple(range(h1.n))


def _wrong_maximum(real):
    return lambda n, opts: real(n - 1, opts)


@pytest.mark.parametrize("workload,name,fake", [
    ("canon", "isomorphism", lambda real: _wrong_isomorphism),
    ("prove", "max_sail_free", _wrong_maximum),
])
def test_wrong_answer_raises_fail_ratio_and_exit_code(workload, name, fake, monkeypatch, capsys):
    monkeypatch.setattr(sailfree, name, fake(getattr(sailfree, name)))
    code = run.main(["--workload", workload, "--seconds", "0.2", "--quick"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    fail_line = next(line for line in out if line.startswith("fail_ratio "))
    assert float(fail_line.split()[1]) > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "prove", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
