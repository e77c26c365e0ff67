import ast
import inspect

import banditchain


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(inspect.getsource(banditchain))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert len(banditchain.__all__) == len(set(banditchain.__all__))
    assert set(banditchain.__all__) == set(imported)


def test_deleted_names_are_not_exported():
    for name in ("ClippingConfig", "StepRecord", "el_gradient", "pr_gradient", "ce_gradient",
                 "pair_expected_features", "PairSample", "map_decode", "OracleBudget",
                 "gain_mass"):
        assert name not in banditchain.__all__
        assert not hasattr(banditchain, name)


def test_deleted_parameters_are_gone():
    """Parameters no caller set to anything but their default were inlined."""
    from banditchain import checks, oracle, synthetic

    deleted = {
        oracle.check_budget: ["budget"],
        oracle.enumerate_outputs: ["budget"],
        oracle.distribution: ["budget"],
        oracle.pair_distribution: ["budget"],
        oracle.brute_objective: ["budget"],
        oracle.brute_gradient: ["budget"],
        checks.run_property_checks: ["budget"],
        checks.check_gradient_finite_difference: ["h", "rtol", "atol"],
        checks.check_ce_convexity: ["n_pairs"],
        checks.make_fixture: ["weight_scale"],
        checks.random_weights: ["scale"],
        synthetic.generate_chunk_instances: ["min_len", "max_len", "tokens_per_class"],
    }
    assert sum(map(len, deleted.values())) == 16
    for fn, names in deleted.items():
        params = inspect.signature(fn).parameters
        assert [name for name in names if name in params] == [], fn.__name__


def test_deleted_model_methods_are_gone():
    """The memo kept with the cached dataset comes from compile_batch alone."""
    assert not hasattr(banditchain.ChainModel, "batch_memo")


def test_deleted_posterior_methods_are_gone():
    for name in ("negated", "expected_features"):
        assert not hasattr(banditchain.ChainPosterior, name)


def test_deleted_oracle_methods_are_gone():
    """The oracle scores label-index paths only: its label-tuple twins are gone."""
    for name in ("feedback", "feedback_pair"):
        assert not hasattr(banditchain.FeedbackOracle, name)


def test_only_the_feedback_module_reads_gold():
    """Outside ChainInstance, no learner-side module reads an instance's gold
    labeling: the feedback module scores predictions against it."""
    from pathlib import Path

    package = Path(banditchain.__file__).parent
    readers = []
    for name in ("chain", "objectives", "sparse", "diagnostics", "trainer"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        owner = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "ChainInstance"
                 for node in ast.walk(cls)}
        readers += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "gold"
                    and id(node) not in owner]
    assert readers == []
