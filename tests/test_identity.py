import importlib.util
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
                                   for objective in ("el", "pr-cont", "ce"))
    assert first == again
    # every run is scored on its test set
    report = (tmp_path / "a" / "typed-wide" / "1" / "el.report.json").read_text()
    assert '"test_loss": null' not in report
