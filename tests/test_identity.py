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
    assert sorted(first) == sorted(f"{w.name}/1/{objective}" for w in workloads
                                   for objective in ("el", "pr-cont", "ce", "el-warm"))
    assert first == again
    # every run is scored on its test set
    report = (tmp_path / "a" / "typed-wide" / "1" / "el.report.json").read_text()
    assert '"test_loss": null' not in report
    # the warm start reads the el run's checkpoint
    run_dir = (tmp_path / "a" / "typed-wide" / "1").resolve()
    warm = json.loads((run_dir / "el-warm.report.json").read_text())
    assert Path(warm["config"]["init_checkpoint"]) == run_dir / "el.ckpt"
