"""File formats and run orchestration.

Formats owned by this module:

* datasets: CoNLL-style TSV, one ``token<TAB>label`` line per token, blank
  line between sequences, UTF-8;
* checkpoints: versioned binary weight dumps, byte-stable and value-exact
  on round trip;
* run configs: one JSON object of known keys (unknown keys are rejected);
* reports: one JSON document per run with the convergence estimates, the
  dev-score curve, the selected checkpoint and a summary row.

``run_train`` checks its inputs before it reads any dataset: a bad config, a
``chunk-f1`` loss over non-BIO labels, or an output path that is a directory,
lies in a missing one, is the other output or is a file the run reads raises
``DataError`` and leaves no file written.  It writes the checkpoint and the
report to temp files beside them and moves both into place once both are written.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .chain import ChainInstance, ChainModel, LabelAlphabet
from .diagnostics import ConvergenceReport, compare_runs, convergence_report
from .feedback import _BIO_LABEL, FeedbackOracle, LossKind
from .objectives import ObjectiveKind
from .sparse import SortedVector, SparseVector
from .trainer import TrainerConfig, evaluate, select_best, train

REPORT_SCHEMA_VERSION = 1

_CHECKPOINT_MAGIC = b"BCWT"
_CHECKPOINT_VERSION = 1


class DataError(ValueError):
    """A problem with an input file: malformed content, unknown keys, bad paths."""


def _lines(path: Path, what: str) -> Iterator[str]:
    """The lines of a UTF-8 ``what`` file, streamed in text mode; a missing file is a
    DataError naming it, and one that is not UTF-8 names the line of its first bad byte."""
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:  # its offset counts from the chunk that failed
        blob = path.read_bytes()
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as exc:  # a line ends at CRLF, LF or CR, as in text mode
            line, at = len((blob[: exc.start] + b".").splitlines()), exc.start
            raise DataError(f"{path}:{line}: not UTF-8 ({exc.reason} at byte {at})") from None
        raise  # the file was rewritten since


# -- datasets ----------------------------------------------------------------


def read_dataset(path: "str | Path", alphabet: LabelAlphabet) -> list[ChainInstance]:
    """Parse a TSV dataset; gold labels are validated against the alphabet."""
    path = Path(path)
    instances: list[ChainInstance] = []
    tokens: list[str] = []
    labels: list[str] = []

    def flush() -> None:
        if tokens:
            instances.append(ChainInstance(tokens=tuple(tokens), gold=tuple(labels)))
            tokens.clear()
            labels.clear()

    for line_no, raw in enumerate(_lines(path, "dataset"), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{line_no}: expected 'token<TAB>label', got {line!r}")
        token, label = parts
        if label not in alphabet:
            raise DataError(
                f"{path}:{line_no}: label {label!r} not in alphabet {alphabet.labels}"
            )
        tokens.append(token)
        labels.append(label)
    flush()
    if not instances:
        raise DataError(f"{path}: no instances found")
    return instances


def write_dataset(path: "str | Path", instances: Sequence[ChainInstance]) -> None:
    """Write a TSV dataset that ``read_dataset`` reads back.  An instance without
    gold, or a token or label that is empty or holds a tab or line break, raises
    ``DataError`` before the file is opened, so the file is left as it was."""
    for i, x in enumerate(instances):
        if x.gold is None:
            raise DataError(f"cannot write instance {i}: it has no gold labels")
        for text in (*x.tokens, *x.gold):
            if not text or "\t" in text or "\n" in text or "\r" in text:
                raise DataError(f"cannot write instance {i}: token or label {text!r} is "
                                "empty or holds a tab or line break")
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for i, x in enumerate(instances):
            if i:
                fh.write("\n")
            for token, label in zip(x.tokens, x.gold):
                fh.write(f"{token}\t{label}\n")


# -- checkpoints ---------------------------------------------------------------


_CHECKPOINT_ENTRY = np.dtype([("fid", "<i8"), ("value", "<f8")])


def write_checkpoint(path: "str | Path", w: "SortedVector | SparseVector") -> None:
    """Persist a weight vector; entries are sorted by feature id.

    The file is byte-stable: the same vector always gives the same bytes.
    After the header, the entries are one packed array of little-endian
    (int64 id, float64 value) pairs: a SortedVector's two arrays as they are.
    A SparseVector is sorted first, and an id of it outside int64 is a
    ``ValueError`` raised before the file is opened.
    """
    if isinstance(w, SparseVector):
        w = SortedVector.from_sparse(w)
    entries = np.empty(len(w), dtype=_CHECKPOINT_ENTRY)
    entries["fid"], entries["value"] = w.ids, w.values
    with Path(path).open("wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HQ", _CHECKPOINT_VERSION, len(entries)))
        fh.write(entries.tobytes())


def read_checkpoint(path: "str | Path") -> SortedVector:
    """The weights a checkpoint holds, read from its bytes with ``np.frombuffer``;
    entries of value zero are dropped.  A file that is not a checkpoint, is
    truncated or has another version is a ``DataError``, and so is one with
    a non-finite value or with ids that are not strictly ascending (every
    file ``write_checkpoint`` writes has them ascending); the message names
    the first bad id."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint file not found: {path}")
    blob = path.read_bytes()
    if not blob.startswith(_CHECKPOINT_MAGIC):
        raise DataError(f"{path}: not a recognized checkpoint file")
    offset = len(_CHECKPOINT_MAGIC) + struct.calcsize("<HQ")
    if len(blob) < offset:
        raise DataError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
    version, count = struct.unpack_from("<HQ", blob, len(_CHECKPOINT_MAGIC))
    if version != _CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) != offset + count * _CHECKPOINT_ENTRY.itemsize:
        raise DataError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
    entries = np.frombuffer(blob, dtype=_CHECKPOINT_ENTRY, count=count, offset=offset)
    try:
        return SortedVector(entries["fid"], entries["value"])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# -- run configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one training run needs, loadable from a JSON file."""

    labels: tuple[str, ...] = ()
    train_path: str = ""
    dev_path: str = ""
    test_path: Optional[str] = None
    loss: str = "hamming"
    emission_offsets: tuple[int, ...] = (0,)
    objective: str = "el"
    gamma: float = 0.1
    iterations: int = 1000
    seed: int = 0
    clip_k: float = 0.0
    l2_lambda: float = 0.0
    epoch_size: Optional[int] = None
    eval_every: Optional[int] = None
    snapshots: int = 64
    lipschitz_pairs: int = 500
    init_checkpoint: Optional[str] = None
    report_path: str = "report.json"
    checkpoint_path: str = "model.ckpt"

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["labels"] = list(self.labels)
        d["emission_offsets"] = list(self.emission_offsets)
        return d

    def model(self) -> ChainModel:
        return ChainModel(LabelAlphabet(self.labels), emission_offsets=self.emission_offsets)

    def trainer_config(self) -> TrainerConfig:
        """The TrainerConfig of this run: each of its fields, taken from ours."""
        return TrainerConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(TrainerConfig)})

    def validate(self) -> None:
        if not self.train_path or not self.dev_path:
            raise DataError("config needs train_path and dev_path")
        paths = [(f"the run's {k}", getattr(self, k)) for k in
                 ("train_path", "dev_path", "test_path", "checkpoint_path", "init_checkpoint")]
        check_not_an_input("report_path", self.report_path, paths)
        # the datasets only: the new checkpoint may replace init_checkpoint, which is read first
        check_not_an_input("checkpoint_path", self.checkpoint_path, paths[:3])
        check_loss_labels(self.loss, self.labels)
        offsets = list(self.emission_offsets)
        if not offsets or len(set(offsets)) != len(offsets):
            raise DataError(f"emission_offsets must be a nonempty list of distinct integers, "
                            f"got {offsets}")
        if self.lipschitz_pairs <= 0:
            raise DataError("lipschitz_pairs must be positive")
        # ahead of the trainer's checks, so that it names a run too short for two
        # epochs before its eval cadence; iterations <= 0 is the trainer's to name
        if self.epoch_size is not None and self.iterations > 0:
            _check_two_epochs(self.iterations, self.epoch_size)
        try:
            LabelAlphabet(self.labels)
            self.trainer_config().validate()
        except ValueError as exc:
            raise DataError(str(exc)) from None


def check_not_an_input(name: str, output: "str | Path", inputs: Sequence[tuple]) -> None:
    """A DataError if output resolves to the path of an input, a (what, path) pair
    (an empty path is skipped): the one check of what a command writes against
    what it reads."""
    out = Path(output).resolve()
    for what, path in inputs:
        if path and Path(path).resolve() == out:
            raise DataError(f"{name} would overwrite {what}: {out}")


def check_loss_labels(loss: "str | LossKind", labels: Sequence[str]) -> None:
    """A DataError unless the loss can score labelings over labels: chunk-f1
    needs every label to be a BIO tag."""
    if LossKind.parse(loss) is LossKind.CHUNK_F1:
        for label in labels:
            if not _BIO_LABEL.match(label):
                raise DataError(
                    f"loss chunk-f1 needs BIO labels: label {label!r} is not a BIO tag"
                )


def _check_two_epochs(iterations: int, epoch_size: int) -> None:
    """The variance estimate in the report needs gradients at 2 epoch boundaries."""
    if iterations < 2 * epoch_size:
        raise DataError(
            f"iterations ({iterations}) must be at least 2 x epoch_size ({epoch_size}): "
            "the report's variance estimate needs 2 epoch gradients"
        )


def _is_float(value: object) -> bool:
    """A JSON float, or an integer that a float can hold; bool is no number."""
    try:
        return type(value) is float or type(value) is int and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
# the JSON value each RunConfig annotation takes, and its name; bool is no number
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "Optional[int]": (lambda v: v is None or type(v) is int, "an integer or null"),
    "float": (_is_float, "a number in float range"),
    "Optional[float]": (lambda v: v is None or _is_float(v), "a number in float range or null"),
    "str": (lambda v: type(v) is str, "a string"),
    "Optional[str]": (lambda v: v is None or type(v) is str, "a string or null"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(type(e) is str for e in v), "a list of strings"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(type(e) is int for e in v), "a list of integers"),
}
_FIELD_TYPES = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(RunConfig)}
_REPORT_TYPES = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(ConvergenceReport)}
_PATH_FIELDS = ("train_path", "dev_path", "test_path", "init_checkpoint",
                "report_path", "checkpoint_path")


def _read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a ``what`` file (config or report), or a DataError."""
    try:
        raw = json.loads("".join(_lines(path, what)))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return raw


def _check_types(values: dict, where: object, types: dict = _FIELD_TYPES,
                 kind: str = "config") -> None:
    """A DataError naming the first key whose value has the wrong JSON type."""
    for key, value in values.items():
        fits, what = types[key]
        if not fits(value):
            raise DataError(f"{where}: {kind} key {key!r} must be {what}, got {value!r}")


def load_config(
    path: "str | Path", overrides: Optional[dict] = None
) -> RunConfig:
    """Load a run config; CLI overrides beat file values beat defaults.

    Relative paths in the file resolve against the file's directory;
    override paths resolve against the current directory.  Each value must
    have its field's JSON type (an integer field takes no 2.0 or true, a
    number field no "0.1"), checked before any value is used.  The loss and
    the objective are kept under their canonical names ("hamming", "el").
    """
    path = Path(path)
    raw = _read_json_object(path, "config")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise DataError(f"{path}: unknown config keys {sorted(unknown)}")
    _check_types(raw, path)
    base = path.parent
    for key in _PATH_FIELDS:
        if raw.get(key):
            raw[key] = str((base / raw[key]).resolve())
    if overrides:
        unknown = set(overrides) - _CONFIG_FIELDS
        if unknown:
            raise DataError(f"unknown override keys {sorted(unknown)}")
        _check_types({k: v for k, v in overrides.items() if v is not None}, "override")
        for key, value in overrides.items():
            if value is None:
                continue
            raw[key] = str(Path(value).resolve()) if key in _PATH_FIELDS else value
    if "labels" in raw:
        raw["labels"] = tuple(raw["labels"])
    if "emission_offsets" in raw:
        raw["emission_offsets"] = tuple(raw["emission_offsets"])
    cfg = RunConfig(**raw)
    cfg.validate()
    return dataclasses.replace(cfg, loss=LossKind.parse(cfg.loss).value,
                               objective=ObjectiveKind.parse(cfg.objective).value)


# -- reports -------------------------------------------------------------------


def write_report(path: "str | Path", report: dict) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def replace_report(path: "str | Path", report: dict) -> None:
    """write_report through a temp file beside path: a failed write leaves path as it was."""
    _write_artifacts((path, write_report, report))


def read_report(path: "str | Path") -> dict:
    path = Path(path)
    report = _read_json_object(path, "report")
    version = report.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise DataError(f"{path}: unsupported report schema version {version!r}")
    return report


def compare_report_files(paths: Sequence["str | Path"]) -> dict:
    """Run the cross-run comparison over saved report files; each convergence
    field must have its JSON type."""
    reports = []
    for path in paths:
        try:
            convergence = read_report(path)["convergence"]
            if not isinstance(convergence, dict):
                raise DataError(f"{path}: report field 'convergence' must be a JSON object")
            _check_types({key: convergence[key] for key in _REPORT_TYPES}, path,
                         _REPORT_TYPES, "convergence")
            reports.append(ConvergenceReport.from_dict(convergence))
        except KeyError as exc:
            raise DataError(f"report is missing convergence field {exc}") from None
    return compare_runs(reports).to_dict()


# -- orchestration ---------------------------------------------------------------


def run_train(config: RunConfig) -> dict:
    """Train per config, select on dev, evaluate on test, write artifacts.

    Returns the report dict that was also written to config.report_path; the
    selected checkpoint goes to config.checkpoint_path.  Both files appear
    together or not at all.
    """
    config.validate()
    for out in (Path(config.report_path), Path(config.checkpoint_path)):
        if not out.parent.is_dir():
            raise DataError(f"output directory not found: {out.parent} (for {out})")
        if out.is_dir():
            raise DataError(f"output path is a directory: {out}")
    model = config.model()
    alphabet = model.alphabet
    train_data = read_dataset(config.train_path, alphabet)
    _check_two_epochs(config.iterations, config.epoch_size or len(train_data))
    dev_data = read_dataset(config.dev_path, alphabet)
    test_data = read_dataset(config.test_path, alphabet) if config.test_path else None
    oracle = FeedbackOracle(config.loss)
    w0 = read_checkpoint(config.init_checkpoint) if config.init_checkpoint else None

    trajectory = train(config.trainer_config(), model, train_data, dev_data, oracle, w0=w0)
    best_t, best_w = select_best(trajectory)
    _, best_dev, best_columns = trajectory.best
    # scored from the selected checkpoint's columns: best_w is what gets written
    test_loss = evaluate(model, best_columns, test_data, oracle.loss) if test_data else None
    convergence = convergence_report(
        trajectory, n_pairs=config.lipschitz_pairs, seed=config.seed
    )

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "convergence": convergence.to_dict(),
        "dev_curve": [[t, loss] for t, loss in trajectory.dev_curve()],
        "selected": {
            "t": best_t,
            "dev_loss": best_dev,
            "checkpoint": str(config.checkpoint_path),
        },
        "summary": {
            "objective": config.objective,
            "iterations_to_best": best_t,
            "best_dev_loss": best_dev,
            "test_loss": test_loss,
            "gamma": config.gamma,
            "l2_lambda": config.l2_lambda,
            "clip_k": config.clip_k,
            "seed": config.seed,
        },
        "feature_norm_bound": trajectory.feature_norm_bound,
    }
    _write_artifacts((config.checkpoint_path, write_checkpoint, best_w),
                     (config.report_path, write_report, report))
    return report


def _write_artifacts(*artifacts: tuple) -> None:
    """Write each (path, writer, value) to a temp file beside its path, then
    move them all into place; a failed write leaves none of them behind."""
    temps: list[Path] = []
    try:
        for path, writer, value in artifacts:
            path = Path(path)
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.tmp"))
            writer(temps[-1], value)
        for (path, _, _), temp in zip(artifacts, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
