"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench -q

The two traced runs take about half a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer(sample_id=7)
    inner = tracer.wrap("layer.inner", lambda: None)

    def twice():
        inner()
        inner()

    outer = tracer.wrap("layer.outer", twice)
    outer()  # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    assert tracer.self_s == {"layer.inner": 2, "layer.outer": 3}
    assert [(s[1], s[4], s[5]) for s in tracer.spans] == [
        ("layer.inner", 0, 7), ("layer.inner", 0, 7), ("layer.outer", None, 7)
    ]


def test_end_to_end_metrics_match_the_declaration():
    result = _result("--workload", "battery", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_for_a_fixed_seed():
    runs = [
        _result("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "1")
        for _ in range(2)
    ]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == _declared("per_layer")
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["rings.order_key_calls"] > 0
    assert counts[0]["groebner.basis_size"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
