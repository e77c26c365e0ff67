import importlib.util
from pathlib import Path


def load_memory():
    path = Path(__file__).resolve().parents[1] / "tools" / "memory.py"
    spec = importlib.util.spec_from_file_location("memory_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_peaks_follow_a_round_run_by_run(tmp_path):
    memory = load_memory()
    workload = memory._workloads_module().WORKLOADS["chunk-train"].tiny()
    rows = memory.peaks(workload, 1, tmp_path)
    assert [row["run"] for row in rows] == ["el", "pr-cont", "ce"]
    rss = [row["ru_maxrss_mib"] for row in rows]
    assert 0 < rss[0] <= rss[1] <= rss[2]  # one process: its peak never falls
    assert all(0 < row["tracemalloc_peak_mib"] < row["ru_maxrss_mib"] for row in rows)
    # each run wrote its artifacts beside its config
    assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["ce.ckpt", "el.ckpt", "pr.ckpt"]


def test_main_prints_a_row_per_run(capsys, monkeypatch):
    memory = load_memory()
    rows = [{"run": run, "ru_maxrss_mib": 50.0 + k, "tracemalloc_peak_mib": 10.0}
            for k, run in enumerate(("el", "pr-cont", "ce"))]
    monkeypatch.setattr(memory, "peaks", lambda workload, seed, out: rows)
    assert memory.main(["typed-wide", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "typed-wide seed 3: MiB after each run_train"
    assert [line.split() for line in lines[2:]] == [
        ["el", "50.0", "10.0"], ["pr-cont", "51.0", "10.0"], ["ce", "52.0", "10.0"]]
