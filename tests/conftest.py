import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    ChainModel,
    FeedbackOracle,
    LabelAlphabet,
    SparseVector,
    chunk_alphabet,
    generate_chunk_instances,
)


@pytest.fixture
def ab_alphabet():
    return LabelAlphabet(("A", "B"))


@pytest.fixture
def ab_model(ab_alphabet):
    return ChainModel(ab_alphabet)


@pytest.fixture
def fixed_instance():
    # the canonical 3-token, 2-label fixture used across the suite
    return ChainInstance(tokens=("moss", "fern", "moss"), gold=("A", "B", "A"))


@pytest.fixture
def fixed_weights(ab_model, fixed_instance):
    # seeded weights on every feature the fixture can fire, rounded so the
    # frozen expected values below stay exactly reproducible
    rng = np.random.default_rng(7)
    fids = ab_model.instance_feature_ids(fixed_instance)
    return SparseVector(
        {fid: round(float(v), 6) for fid, v in zip(fids, rng.normal(0, 1, len(fids)))}
    )


@pytest.fixture
def hamming_oracle():
    return FeedbackOracle("hamming")


@pytest.fixture(scope="session")
def synthetic_task():
    rng = np.random.default_rng(42)
    train = generate_chunk_instances(200, rng)
    dev = generate_chunk_instances(50, rng)
    test = generate_chunk_instances(50, rng)
    return ChainModel(chunk_alphabet()), train, dev, test


def random_instance_weights(model, x, seed, scale=0.8):
    rng = np.random.default_rng(seed)
    fids = model.instance_feature_ids(x)
    return SparseVector({fid: scale * float(v) for fid, v in zip(fids, rng.normal(0, 1, len(fids)))})


def record_evaluations(monkeypatch):
    """Patch ``trainer.evaluate`` so that each w ``train`` scores on the dev set
    is copied, in order, into the list returned: the weights at every checkpoint."""
    import banditchain
    import banditchain.trainer as trainer_mod

    seen = []

    def recording(model, w, data, loss):
        seen.append(w.copy())
        return banditchain.evaluate(model, w, data, loss)

    monkeypatch.setattr(trainer_mod, "evaluate", recording)
    return seen
