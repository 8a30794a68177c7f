"""Tests of the benchmark itself:  python -m pytest bench/test_bench.py"""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import workloads
from workloads import WORKLOADS

COUNT_UNITS = ("count", "bytes")


def declared(kind: str) -> set[str]:
    """Metric names BENCHMARK.json declares under ``kind``."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[kind]}


def test_percentile_known_data():
    data = list(range(10, 0, -1))  # 1..10, unsorted
    assert run.percentile(data, 50) == 5.5
    assert run.percentile(data, 90) == pytest.approx(9.1)
    assert run.percentile(data, 0) == 1 and run.percentile(data, 100) == 10
    assert run.percentile([4.0], 90) == 4.0
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert (run.percentile(data, 25), run.percentile(data, 50), run.percentile(data, 75)) == (
        pytest.approx(q1), pytest.approx(q2), pytest.approx(q3))
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_same_seed_gives_identical_inputs(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        wl = workloads.BigCheck(seed, d)
        wl.write_inputs()
        return [f.path.read_bytes() for f in wl.files]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other
    for text in first:
        doc = json.loads(text)
        assert sum(len(v) for k, v in doc.items() if k != "kind") == workloads.TERMS

    grid = [workloads.GridVerify(7, tmp_path).argv(i) for i in range(8)]
    assert grid == [workloads.GridVerify(7, tmp_path).argv(i) for i in range(8)]

    hf = run.fresh_import()
    runs = []
    for _ in range(2):
        wl = workloads.FixedSignAlgebra(7, tmp_path)
        wl.bind(hf)
        runs.append([(r.f.a_abs, r.f.b_abs) for r in (wl.request(i, 0) for i in range(8))])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, monkeypatch):
    monkeypatch.setattr(run, "MIN_REQUESTS", 4)
    result, meta, _ = run.run(name, seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 * run.PASSES
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["requests"] == 4 and meta["seed"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_counts_repeat(name, monkeypatch):
    monkeypatch.setattr(WORKLOADS[name], "traced_requests", 3)
    monkeypatch.setattr(run, "MIN_REQUESTS", 2)
    counts = []
    for _ in range(2):
        result, _, _ = run.run(name, seed=5, seconds=0, trace=True)
        assert result["correct"]
        assert set(result["metrics"]) == declared("per_layer")
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in COUNT_UNITS})
    assert counts[0] == counts[1]
    assert counts[0]["trace.requests"] == 3


def test_fails_without_the_package(tmp_path):
    """Run in a directory holding only the benchmark: exit 2, no result."""
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_wrong_result_is_counted_as_failure(tmp_path):
    wl = workloads.GridVerify(1, tmp_path)
    wl.bind(run.fresh_import())
    res = wl.request(0, 0)
    assert wl.check(0, 0, res) is None
    doc = json.loads(res.output.read_text())
    doc[0]["worst_margin"] += 1e-6
    res.output.write_text(json.dumps(doc))
    assert "worst margin" in wl.check(0, 0, res)
    assert "exit code" in wl.check(0, 0, res._replace(code=1))
