import os
import subprocess
import sys
from pathlib import Path

import pytest

import banditchain
from banditchain import (
    BudgetExceededError,
    CheckReport,
    SparseVector,
    run_property_checks,
)


def test_suite_passes_on_shipped_fixtures():
    report = run_property_checks(n_fixtures=4, n_weights=4)
    assert report.all_passed
    names = [r.name for r in report.results]
    assert "pair-factorization" in names
    assert "unbiasedness-pr-cont" in names
    assert all(":" in line for line in report.lines())


def test_corrupted_gradient_fails_unbiasedness(monkeypatch):
    from banditchain import checks

    honest = checks._expected_stochastic_gradient

    def shifted(kind, fx, clip_k=0.0):
        fid = fx.model.instance_feature_ids(fx.instance)[0]
        return honest(kind, fx, clip_k=clip_k) + SparseVector({fid: 0.25})

    monkeypatch.setattr(checks, "_expected_stochastic_gradient", shifted)
    report = run_property_checks(n_fixtures=2, n_weights=2)
    failed = {r.name for r in report.results if r.status == "fail"}
    assert any(name.startswith("unbiasedness") for name in failed)
    assert not report.all_passed


def test_clipped_ce_reported_as_skipped():
    report = run_property_checks(n_fixtures=2, n_weights=2, clip_k=0.05)
    by_name = {r.name: r for r in report.results}
    assert by_name["unbiasedness-ce"].status == "skip"
    assert "by design" in by_name["unbiasedness-ce"].detail
    assert report.all_passed  # skipped is not failed


@pytest.mark.parametrize("kwargs", [{"n_fixtures": 0}, {"n_weights": 0}, {"n_weights": -3}])
def test_suite_that_would_run_no_case_is_rejected(kwargs):
    with pytest.raises(ValueError, match="at least 1"):
        run_property_checks(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"clip_k": 1.5}, r"clipping constant must be in \[0, 1\), got 1.5"),
    ({"clip_k": -0.5}, r"clipping constant must be in \[0, 1\), got -0.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
], ids=["clip_k=1.5", "clip_k=-0.5", "seed=-1"])
def test_out_of_range_arguments_are_rejected_before_any_fixture(monkeypatch, kwargs, message):
    from banditchain import checks

    monkeypatch.setattr(checks, "default_fixtures", lambda **kw: pytest.fail("built fixtures"))
    with pytest.raises(ValueError, match=message):
        run_property_checks(**kwargs)


def test_a_check_that_ran_no_case_fails():
    from banditchain import checks

    results = [
        checks.check_probability_normalization([]),
        checks.check_exact_inference([]),
        *checks.check_gradient_finite_difference([]),
        *checks.check_unbiasedness([], n_weights=2),
        checks.check_pair_factorization([]),
        checks.check_ce_convexity([]),
        checks.check_jensen_step([]),
    ]
    assert len(results) == 13
    assert all(r.status == "fail" and "no cases ran" in r.line() for r in results)
    assert not CheckReport(results).all_passed
    no_weights = checks.check_unbiasedness(checks.default_fixtures(count=1), n_weights=0)
    assert all(r.status == "fail" and "no cases ran" in r.line() for r in no_weights)


def test_budget_guard(monkeypatch):
    from banditchain import oracle

    monkeypatch.setattr(oracle, "MAX_OUTPUTS", 2)
    with pytest.raises(BudgetExceededError):
        run_property_checks(n_fixtures=2, n_weights=1)


def test_scipy_never_loads():
    # a fresh interpreter: this one has loaded scipy through other tests
    src = str(Path(banditchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = (
        "import contextlib, io, sys\n"
        "import banditchain, banditchain.cli\n"
        "print('scipy' in sys.modules)\n"
        "report = banditchain.run_property_checks(n_fixtures=2, n_weights=2)\n"
        "print('scipy' in sys.modules, report.all_passed)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = banditchain.cli.main(['oracle-check', '--fixtures', '2', '--weights', '2'])\n"
        "print('scipy' in sys.modules, code)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "False", "True", "False", "0"]
