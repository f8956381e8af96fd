"""Smoke tests of the benchmark harness on tiny inputs.

Run with `python3 -m pytest bench/test_smoke.py -q` from the repository root.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run        # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

import lcstates   # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# pass 0 of search_qubits checks the gap between the two controls, which
# needs the full search size; the other workloads shrink
TINY = {"search_qubits": {},
        "search_wide": {"restarts": 2, "max_iters": 3},
        "cli_batch": {"sets": 2, "samples": 10 ** 5}}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_result_line(name, trace, monkeypatch, capsys):
    make = workloads.make
    monkeypatch.setattr(workloads, "make", lambda n: make(n, **TINY[n]))
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cli_batch_shows_known_defects(monkeypatch, capsys):
    make = workloads.make
    monkeypatch.setattr(workloads, "make", lambda n: make(n, **TINY[n]))
    assert run.main(["--workload", "cli_batch", "--seed", "3",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    # z_mixture(0.5) under random local unitaries is not certified
    assert metrics["reach.obstruct.miss_frac"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    a, b = workloads.make("cli_batch", sets=1), workloads.make("cli_batch", sets=1)
    a.prepare(tmp_path / "a", 5, ROOT)
    b.prepare(tmp_path / "b", 5, ROOT)
    for name in ("bip3", "z0.5", "w", "noise3"):
        pa = pathlib.Path(a.sets[0][name])
        pb = pathlib.Path(b.sets[0][name])
        assert pa.read_text() == pb.read_text()


def test_restart_iterations():
    # 1 + k (n + 1) entries for k complete iterations of an n-party search
    assert workloads.restart_iterations(1 + 100 * 4, 3) == 100
    assert workloads.restart_iterations(5, 3) == 1
    # stopped at party 1 of its third iteration: 1 + 2*4 + 1 + 2 entries
    assert workloads.restart_iterations(12, 3) == 3


def test_restart_iterations_match_search():
    target = workloads.noisy_ghz(3, 2)
    res = lcstates.lc_distance_search(target, restarts=2, max_iters=4,
                                      master_seed=1)
    iters = [workloads.restart_iterations(n, 3) for _, _, n in res.per_restart_log]
    assert all(1 <= i <= 4 for i in iters)


def test_computed_costs():
    # (2,2,2) with four Kraus operators per party
    shapes = [(4, 2, 2)] * 3
    assert spans.apply_cost(shapes, (2, 2, 2)) == (3 * 16 * 4 * 2 * 64,
                                                   3 * 16 * 64 * 10)
    flops, _ = spans.gradient_cost(shapes, (2, 2, 2), 0)
    assert flops == 3 * 16 * 4 * 2 * 64 + 4 * 16 * 512


def test_absent_layer_is_reported(monkeypatch):
    monkeypatch.delattr(lcstates.reach, "_party_gradient")
    tracer = spans.Tracer()
    original = lcstates.reach._objective
    tracer.install()
    try:
        assert "reach.gradient" in tracer.absent
        assert lcstates.reach._objective is not original
    finally:
        tracer.uninstall()
    assert lcstates.reach._objective is original


def test_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "cli_batch", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
