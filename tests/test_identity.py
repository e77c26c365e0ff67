import importlib.util
import json
from pathlib import Path


def load_identity():
    path = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_digests_repeat_across_directories(tmp_path):
    identity = load_identity()
    workloads = [w.tiny() for w in identity._workloads_module().WORKLOADS.values()]
    first = identity.digests(tmp_path / "a", [1], workloads)
    again = identity.digests(tmp_path / "b" / "deeper", [1], workloads)
    assert sorted(first) == sorted(f"{w.name}/1/{key}" for w in workloads
                                   for key in ("el", "pr-cont", "ce", "pr-bin", "el-warm", "decode"))
    assert first == again
    assert all(len(first[f"{w.name}/1/decode"]) == 64 for w in workloads)
    # every run is scored on its test set
    report = (tmp_path / "a" / "typed-wide" / "1" / "el.report.json").read_text()
    assert '"test_loss": null' not in report
    # the warm start reads the el run's checkpoint
    run_dir = (tmp_path / "a" / "typed-wide" / "1").resolve()
    warm = json.loads((run_dir / "el-warm.report.json").read_text())
    assert Path(warm["config"]["init_checkpoint"]) == run_dir / "el.ckpt"


def test_expect_names_the_runs_whose_digests_differ(tmp_path, capsys, monkeypatch):
    identity = load_identity()
    workloads = [w.tiny() for w in identity._workloads_module().WORKLOADS.values()]
    real = identity.digests
    monkeypatch.setattr(identity, "digests", lambda out, seeds: real(out, seeds, workloads))
    assert identity.main([str(tmp_path / "a"), "--seeds", "1"]) == 0
    saved = json.loads(capsys.readouterr().out)
    expect = tmp_path / "expect.json"
    tampered = "chunk-train/1/pr-cont"
    expect.write_text(json.dumps({**saved, tampered: {**saved[tampered], "report": "0" * 64}}))
    assert identity.main([str(tmp_path / "b"), "--seeds", "1", "--expect", str(expect)]) == 1
    assert capsys.readouterr().out == f"{tampered}\n"
    # the same digests again: nothing differs
    monkeypatch.setattr(identity, "digests", lambda out, seeds: saved)
    expect.write_text(json.dumps(saved))
    assert identity.main([str(tmp_path / "c"), "--expect", str(expect)]) == 0
    assert capsys.readouterr().out == f"{len(saved)} digests equal\n"
