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
                 "pair_expected_features"):
        assert name not in banditchain.__all__
        assert not hasattr(banditchain, name)


def test_deleted_posterior_methods_are_gone():
    for name in ("negated", "expected_features"):
        assert not hasattr(banditchain.ChainPosterior, name)
