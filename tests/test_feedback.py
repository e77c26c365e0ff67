import re

import numpy as np
import pytest

from banditchain import (
    ChainInstance,
    FeedbackOracle,
    LossKind,
    bio_spans,
    chunk_f1_loss,
    hamming_loss,
    loss_fn,
    pair_feedback,
)


def test_hamming_identical_and_disjoint():
    assert hamming_loss(("A", "B"), ("A", "B")) == 0.0
    assert hamming_loss(("A", "B"), ("B", "A")) == 1.0


def test_hamming_partial():
    assert hamming_loss(("B", "I", "O"), ("B", "O", "O")) == pytest.approx(1 / 3)


def test_hamming_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        hamming_loss(("A",), ("A", "B"))


def test_hamming_symmetric():
    rng = np.random.default_rng(0)
    labels = ("A", "B", "C")
    for _ in range(50):
        a = tuple(labels[i] for i in rng.integers(3, size=6))
        b = tuple(labels[i] for i in rng.integers(3, size=6))
        assert hamming_loss(a, b) == hamming_loss(b, a)


def test_bio_spans_basic():
    assert bio_spans(("O", "B", "I", "O", "B")) == {(1, 2, ""), (4, 4, "")}


def test_bio_spans_i_after_o_opens_span():
    assert bio_spans(("O", "I", "I")) == {(1, 2, "")}


def test_bio_spans_type_change_opens_span():
    assert bio_spans(("B-NP", "I-VP", "I-VP")) == {(0, 0, "NP"), (1, 2, "VP")}


def test_bio_spans_b_always_opens():
    assert bio_spans(("B", "B", "I")) == {(0, 0, ""), (1, 2, "")}


def test_bio_spans_rejects_non_bio():
    with pytest.raises(ValueError, match="BIO"):
        bio_spans(("O", "X"))


def test_chunk_f1_identical_spans():
    assert chunk_f1_loss(("O", "B", "I"), ("O", "B", "I")) == 0.0


def test_chunk_f1_both_empty():
    assert chunk_f1_loss(("O", "O"), ("O", "O")) == 0.0


def test_chunk_f1_one_empty():
    assert chunk_f1_loss(("O", "B"), ("O", "O")) == 1.0
    assert chunk_f1_loss(("O", "O"), ("O", "B")) == 1.0


def test_chunk_f1_disjoint_nonempty():
    assert chunk_f1_loss(("B", "O", "O"), ("O", "O", "B")) == 1.0


def test_chunk_f1_partial_overlap():
    # gold span (1,2); pred spans (1,2) and (4,4): P=1/2, R=1, F1=2/3
    gold = ("O", "B", "I", "O", "O")
    pred = ("O", "B", "I", "O", "B")
    assert chunk_f1_loss(gold, pred) == pytest.approx(1 / 3)


def test_loss_kind_parsing():
    assert LossKind.parse("chunk-f1") is LossKind.CHUNK_F1
    assert loss_fn("hamming") is hamming_loss
    with pytest.raises(ValueError, match="unknown loss"):
        LossKind.parse("bleu")


def paths_of(labels, *labelings):
    """The label-index paths of equally long label tuples, a row each."""
    return np.array([[labels.index(lab) for lab in y] for y in labelings])


def test_feedback_pointwise():
    oracle = FeedbackOracle("hamming")
    x = ChainInstance(tokens=("a", "b"), gold=("A", "B"))
    labels = ("A", "B")
    assert oracle.feedback_paths([x], paths_of(labels, ("A", "B")), labels) == [0.0]
    assert oracle.feedback_paths([x], paths_of(labels, ("B", "B")), labels) == [0.5]


def test_feedback_requires_gold():
    oracle = FeedbackOracle("hamming")
    with pytest.raises(ValueError, match="gold"):
        oracle.feedback_paths([ChainInstance(tokens=("a",))], np.array([[0]]), ("A", "B"))


def test_feedback_pair_equal_losses_zero():
    oracle = FeedbackOracle("hamming")
    x = ChainInstance(tokens=("a", "b"), gold=("A", "B"))
    labels = ("A", "B")
    pair = paths_of(labels, ("B", "A"), ("B", "A"))
    assert oracle.feedback_paths([x], pair, labels, "bin") == [0.0]
    assert oracle.feedback_paths([x], pair, labels, "cont") == [0.0]


def test_feedback_pair_continuous_gap():
    oracle = FeedbackOracle("hamming")
    x = ChainInstance(tokens=tuple("abcde"), gold=("A", "A", "A", "A", "A"))
    labels = ("A", "B")
    worse = ("B", "B", "B", "A", "A")  # loss 0.6
    better = ("B", "A", "A", "A", "A")  # loss 0.2
    assert oracle.feedback_paths([x], paths_of(labels, worse, better), labels,
                                 "cont") == [pytest.approx(0.4)]
    assert oracle.feedback_paths([x], paths_of(labels, worse, better), labels, "bin") == [1.0]
    assert oracle.feedback_paths([x], paths_of(labels, better, worse), labels, "cont") == [0.0]


def test_feedback_values_stay_in_unit_interval():
    rng = np.random.default_rng(1)
    oracle = FeedbackOracle("chunk-f1")
    labels = ("O", "B", "I")
    for _ in range(100):
        n = int(rng.integers(1, 8))
        gold = tuple(labels[i] for i in rng.integers(3, size=n))
        x = ChainInstance(tokens=tuple(f"t{i}" for i in range(n)), gold=gold)
        [value] = oracle.feedback_paths([x], rng.integers(3, size=(1, n)), labels)
        assert 0.0 <= value <= 1.0


def test_oracle_interface_exposes_only_scalars():
    """API review: no public operation on the oracle returns a labeling."""
    oracle = FeedbackOracle("hamming")
    public = [name for name in dir(oracle) if not name.startswith("_")]
    assert sorted(public) == ["check", "feedback_paths", "kind", "loss"]
    x = ChainInstance(tokens=("a", "b"), gold=("A", "B"))
    assert oracle.check([x], ("A", "B")) is None
    paths = np.array([[1, 0], [0, 1]])
    assert all(isinstance(v, float) for v in oracle.feedback_paths([x], paths[:1], ("A", "B")))
    assert all(isinstance(v, float) for v in oracle.feedback_paths([x], paths, ("A", "B"), "bin"))
    # the loss accessor is a scalar-valued function, not a structure accessor
    assert isinstance(oracle.loss(("A",), ("B",)), float)


# -- chunk-F1 against a test-local copy of the per-call regex implementation ---------

_REFERENCE_BIO = re.compile(r"^(O|[BI](-.+)?)$")


def reference_bio_spans(labels):
    spans, start, kind = set(), None, None
    for i, lab in enumerate(labels):
        if not _REFERENCE_BIO.match(lab):
            raise ValueError(f"label {lab!r} is not a BIO tag")
        if lab == "O":
            if start is not None:
                spans.add((start, i - 1, kind))
                start = None
            continue
        tag, _, chunk_type = lab.partition("-")
        if tag == "B" or start is None or chunk_type != kind:
            if start is not None:
                spans.add((start, i - 1, kind))
            start, kind = i, chunk_type
    if start is not None:
        spans.add((start, len(labels) - 1, kind))
    return spans


def reference_chunk_f1_loss(gold, pred):
    gold_spans, pred_spans = reference_bio_spans(gold), reference_bio_spans(pred)
    if not gold_spans and not pred_spans:
        return 0.0
    if not gold_spans or not pred_spans:
        return 1.0
    tp = len(gold_spans & pred_spans)
    if tp == 0:
        return 1.0
    precision, recall = tp / len(pred_spans), tp / len(gold_spans)
    return 1.0 - 2.0 * precision * recall / (precision + recall)


TYPED = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-ORG", "I-ORG")
UNTYPED = ("O", "B", "I")


@pytest.mark.parametrize("labels", [TYPED, UNTYPED])
def test_chunk_f1_matches_the_regex_reference(labels):
    rng = np.random.default_rng(len(labels))
    golds = [tuple(labels[i] for i in rng.integers(len(labels), size=int(rng.integers(1, 15))))
             for _ in range(40)]
    for _ in range(3):  # later rounds score the same golds from the memo
        for gold in golds:
            pred = tuple(labels[i] for i in rng.integers(len(labels), size=len(gold)))
            assert bio_spans(gold) == reference_bio_spans(gold)
            assert bio_spans(pred) == reference_bio_spans(pred)
            assert chunk_f1_loss(gold, pred) == reference_chunk_f1_loss(gold, pred)
            assert chunk_f1_loss(pred, gold) == reference_chunk_f1_loss(pred, gold)


@pytest.mark.parametrize("gold, pred", [
    (("O", "I-PER", "I-PER", "O"), ("O", "B-PER", "I-PER", "O")),  # I after O
    (("B-PER", "I-LOC", "I-LOC"), ("B-PER", "I-PER", "I-LOC")),  # a type switch
    (("O", "O", "O"), ("O", "B-LOC", "O")),  # all O
    (("O", "O"), ("O", "O")),
    (("I", "O", "I", "I"), ("B", "O", "B", "I")),
])
def test_chunk_f1_edge_labelings_match_the_reference(gold, pred):
    for g, p in ((gold, pred), (pred, gold), (list(gold), list(pred))):
        assert bio_spans(g) == reference_bio_spans(g)
        assert chunk_f1_loss(g, p) == reference_chunk_f1_loss(g, p)


def test_repeated_gold_spans_come_from_the_memo():
    from banditchain.feedback import _gold_spans

    gold = ["B-ORG", "I-ORG", "O", "B-PER", "I-LOC"]
    pred = ("B-ORG", "I-ORG", "O", "B-LOC", "I-LOC")
    first = chunk_f1_loss(gold, pred)
    hits = _gold_spans.cache_info().hits
    assert chunk_f1_loss(gold, pred) == first == reference_chunk_f1_loss(gold, pred)
    assert chunk_f1_loss(tuple(gold), list(pred)) == first
    assert _gold_spans.cache_info().hits == hits + 2


@pytest.mark.parametrize("bad", ["X", "O-PER", "B-", "b-PER"])
def test_non_bio_label_raises_the_same_message_every_time(bad):
    with pytest.raises(ValueError) as expected:
        reference_bio_spans(("O", bad))
    for _ in range(2):
        with pytest.raises(ValueError) as raised:
            bio_spans(("O", bad))
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError) as raised:
            chunk_f1_loss(("O", bad), ("O", "O"))
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError) as raised:
            chunk_f1_loss(("O", "O"), ("O", bad))
        assert str(raised.value) == str(expected.value)


# -- batch forms ----------------------------------------------------------------------


def padded(rows, labels, rng):
    """(B, n_max) label indices of label tuples, with random labels past each
    length, and the (B,) lengths."""
    lengths = np.array([len(row) for row in rows])
    out = rng.integers(len(labels), size=(len(rows), lengths.max()))
    for b, row in enumerate(rows):
        out[b, :len(row)] = [labels.index(lab) for lab in row]
    return out, lengths


def random_rows(labels, rng, count, max_len=12):
    return [tuple(labels[i] for i in rng.integers(len(labels), size=int(rng.integers(1, max_len))))
            for _ in range(count)]


def key_spans(span_keys, labels, n_max):
    """The span sets of a SpanKeys, one per row, with type names."""
    kinds = list(dict.fromkeys(label.partition("-")[2] for label in labels))
    out = [set() for _ in span_keys.counts]
    for key, row in zip(span_keys.keys.tolist(), span_keys.rows.tolist()):
        flat_start, kind = divmod(key, len(labels))
        flat_start, end = divmod(flat_start, n_max)
        assert flat_start // n_max == row
        out[row].add((flat_start % n_max, end, kinds[kind]))
    return out


def assert_batch_scorers_are_bitwise(golds, preds, labels, rng):
    from banditchain.feedback import bio_span_keys, chunk_f1_losses, hamming_losses

    gold, lengths = padded(golds, labels, rng)
    pred, _ = padded(preds, labels, rng)
    expected = [hamming_loss(g, p).hex() for g, p in zip(golds, preds)]
    assert [v.hex() for v in hamming_losses(gold, pred, lengths).tolist()] == expected
    gold_keys, pred_keys = bio_span_keys(gold, lengths, labels), bio_span_keys(pred, lengths, labels)
    assert key_spans(gold_keys, labels, gold.shape[1]) == [bio_spans(g) for g in golds]
    assert key_spans(pred_keys, labels, pred.shape[1]) == [bio_spans(p) for p in preds]
    expected = [chunk_f1_loss(g, p).hex() for g, p in zip(golds, preds)]
    assert [v.hex() for v in chunk_f1_losses(gold_keys, pred_keys).tolist()] == expected


@pytest.mark.parametrize("labels", [TYPED, UNTYPED])
@pytest.mark.parametrize("seed", range(4))
def test_batch_scorers_match_the_per_instance_losses_bitwise(labels, seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        golds = random_rows(labels, rng, int(rng.integers(1, 40)))
        preds = [tuple(labels[i] for i in rng.integers(len(labels), size=len(g)))
                 for g in golds]
        # half the predictions copy spans of the gold, so that hits and partial hits occur
        preds = [tuple(g[i] if rng.random() < 0.5 else p[i] for i in range(len(g)))
                 for g, p in zip(golds, preds)]
        assert_batch_scorers_are_bitwise(golds, preds, labels, rng)


EDGE_PAIRS = [
    (("B-PER",), ("B-PER",)),  # n = 1
    (("I-LOC",), ("O",)),  # n = 1, an empty predicted span set
    (("O",), ("O",)),  # both empty
    (("O", "O", "O"), ("O", "B-LOC", "O")),  # all-O gold: an empty gold span set
    (("O", "I-PER", "I-PER", "O"), ("O", "B-PER", "I-PER", "O")),  # I after O
    (("B-PER", "I-LOC", "I-LOC"), ("B-PER", "I-PER", "I-LOC")),  # I after another type
    (("I-ORG", "B-ORG", "I-ORG"), ("B-ORG", "I-ORG", "I-ORG")),  # I first, B inside a chunk
    (("B-PER", "I-PER", "O", "B-LOC"), ("O", "O", "O", "O")),  # all-O prediction
]
UNTYPED_EDGE_PAIRS = [
    (("I", "O", "I", "I"), ("B", "O", "B", "I")),
    (("B", "B", "I"), ("B", "I", "B")),
    (("I",), ("B",)),
    (("O", "O"), ("I", "I")),
]


@pytest.mark.parametrize("labels, pairs", [(TYPED, EDGE_PAIRS), (UNTYPED, UNTYPED_EDGE_PAIRS)])
def test_batch_scorers_on_edge_labelings(labels, pairs):
    rng = np.random.default_rng(1)
    golds, preds = map(list, zip(*pairs))
    assert_batch_scorers_are_bitwise(golds, preds, labels, rng)
    assert_batch_scorers_are_bitwise(preds, golds, labels, rng)
    for pair in pairs:  # each alone, as a batch of one
        assert_batch_scorers_are_bitwise([pair[0]], [pair[1]], labels, rng)


@pytest.mark.parametrize("bad", ["X", "O-PER", "B-"])
def test_batch_spans_over_a_non_bio_alphabet_raise_as_bio_spans(bad):
    from banditchain.feedback import bio_span_keys

    with pytest.raises(ValueError) as expected:
        bio_spans((bad,))
    # the label need not occur: the alphabet holding it is enough
    with pytest.raises(ValueError) as raised:
        bio_span_keys(np.zeros((1, 2), dtype=np.intp), np.array([2]), ("O", bad))
    assert str(raised.value) == str(expected.value)


# -- index-path feedback ----------------------------------------------------------------


def index_path_case(labels, rng, count, per):
    """count instances (some all-O gold, lengths 1..11) and a padded
    (per * count, n_max) array of predictions for them: random labels, a copy
    of the gold's spans in part, all O, or, in a pair, both rows alike."""
    golds = random_rows(labels, rng, count)
    golds[0] = ("O",) * len(golds[0])
    instances = [ChainInstance(tokens=tuple(f"t{i}" for i in range(len(g))), gold=g)
                 for g in golds]
    rows = []
    for g in golds:
        for c in range(per):
            choice = rng.integers(4)
            if choice == 0:
                row = tuple(labels[i] for i in rng.integers(len(labels), size=len(g)))
            elif choice == 1:
                row = tuple(lab if rng.random() < 0.6 else labels[int(rng.integers(len(labels)))]
                            for lab in g)
            elif choice == 2:
                row = ("O",) * len(g)
            else:  # a tie: the pair's rows are alike (or a copy of the gold)
                row = rows[-1] if c else g
            rows.append(row)
    paths, _ = padded(rows, labels, rng)
    return instances, rows, paths


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
@pytest.mark.parametrize("mode", [None, "bin", "cont"])
@pytest.mark.parametrize("labels", [TYPED, UNTYPED])
@pytest.mark.parametrize("count", [1, 2, 30])
def test_index_path_feedback_equals_the_label_tuples_bitwise(kind, mode, labels, count):
    rng = np.random.default_rng(count * 7 + len(labels))
    oracle = FeedbackOracle(kind)
    per = 1 if mode is None else 2
    for _ in range(4):
        instances, rows, paths = index_path_case(labels, rng, count, per)
        got = oracle.feedback_paths(instances, paths, labels, mode)
        if mode is None:
            expected = [oracle.loss(x.gold, y) for x, y in zip(instances, rows)]
        else:
            expected = [pair_feedback(oracle.loss(x.gold, rows[2 * b]),
                                      oracle.loss(x.gold, rows[2 * b + 1]), mode)
                        for b, x in enumerate(instances)]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [v.hex() for v in expected]
    # the gold forms are cached per instance: scoring again gives the same bits
    assert oracle.feedback_paths(instances, paths, labels, mode) == got


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
def test_a_gold_label_outside_the_labels_is_rejected_by_name(kind):
    oracle = FeedbackOracle(kind)
    labels = ("O", "B-PER", "I-PER")
    outside = ChainInstance(tokens=("a", "b", "c"), gold=("O", "B-LOC", "I-LOC"))
    inside = ChainInstance(tokens=("a", "b", "c"), gold=("B-PER", "O", "O"))
    with pytest.raises(ValueError, match="gold label 'B-LOC'"):
        oracle.check([inside, outside], labels)
    paths = np.array([[1, 2, 0], [1, 0, 2]])
    for instances, rows, mode in (([inside, outside], paths, None), ([outside], paths[:1], None),
                                  ([outside], paths, "cont")):
        with pytest.raises(ValueError, match="gold label 'B-LOC'"):
            oracle.feedback_paths(instances, rows, labels, mode)
    # the instance inside the labels is scored as before
    assert oracle.check([inside], labels) is None
    assert len(oracle.feedback_paths([inside], paths[:1], labels)) == 1


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
@pytest.mark.parametrize("mode", [None, "bin"])
@pytest.mark.parametrize("count", [1, 3])
def test_index_path_feedback_rejects_paths_shorter_than_their_instance(kind, mode, count):
    labels = ("O", "B", "I")
    instances = [ChainInstance(tokens=("a", "b"), gold=("B", "I"))] * (count - 1)
    instances.append(ChainInstance(tokens=("a", "b", "c"), gold=("B", "I", "O")))
    per = 1 if mode is None else 2
    paths = np.zeros((per * count, 2), dtype=np.intp)  # one short of the last instance
    with pytest.raises(ValueError):
        FeedbackOracle(kind).feedback_paths(instances, paths, labels, mode)


@pytest.mark.parametrize("mode, count, rows", [("cont", 1, 1), (None, 2, 1), ("bin", 2, 3),
                                              (None, 1, 2)])
def test_index_path_feedback_rejects_a_row_count_other_than_one_per_chain(mode, count, rows):
    instances = [ChainInstance(tokens=("a", "b"), gold=("B", "O"))] * count
    with pytest.raises(ValueError, match=f"{rows} paths for {count} instances"):
        FeedbackOracle("hamming").feedback_paths(
            instances, np.zeros((rows, 2), dtype=np.intp), ("O", "B", "I"), mode)


@pytest.mark.parametrize("kind", ["hamming", "chunk-f1"])
@pytest.mark.parametrize("mode", [None, "cont"])
def test_index_path_feedback_rejects_paths_that_are_not_label_indices(kind, mode):
    labels = ("O", "B", "I")
    oracle = FeedbackOracle(kind)
    per = 1 if mode is None else 2
    one = ChainInstance(tokens=("a",), gold=("B",))
    if mode is None:  # a 1-D array holds one row per one-token instance by length
        with pytest.raises(ValueError, match="2-D"):
            oracle.feedback_paths([one], np.array([1]), labels, mode)
    with pytest.raises(ValueError, match="2-D"):
        oracle.feedback_paths([one], np.ones((per, 1, 1), dtype=np.intp), labels, mode)
    with pytest.raises(ValueError, match="0.5 is not a label index"):
        oracle.feedback_paths([one], np.full((per, 1), 0.5), labels, mode)
    instances = [ChainInstance(tokens=("a", "b"), gold=("B", "I")), one]
    paths = np.array([[1, 2, 0], [0, 1, 2], [1, 7, 9], [2, 5, -1]])[:per * 2]
    # entries past an instance's length are not live, and any value there is scored alike
    assert len(oracle.feedback_paths(instances, paths, labels, mode)) == 2
    for row, col in ((0, 1), (per, 0), (2 * per - 1, 0)):
        for bad in (-1, len(labels), 10**6):
            rows = paths.copy()
            rows[row, col] = bad
            with pytest.raises(ValueError, match=f"{bad} is not a label index"):
                oracle.feedback_paths(instances, rows, labels, mode)


def test_index_path_feedback_requires_gold():
    with pytest.raises(ValueError, match="no gold"):
        FeedbackOracle("hamming").feedback_paths(
            [ChainInstance(tokens=("a",))], np.zeros((1, 1), dtype=np.intp), ("A", "B"))
