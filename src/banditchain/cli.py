"""Command-line surface.

Subcommands: train, eval, diagnose, oracle-check, sample.  Flags override
config-file values, which override defaults.  Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric or property failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .chain import posterior
from .chain import sample as sample_labeling  # noqa: F401  (perfbench's tracer checks this binding)
from .checks import run_property_checks
from .dataio import (
    check_loss_labels, check_not_an_input, compare_report_files, load_config, read_checkpoint,
    read_dataset, replace_report,
)
from .feedback import LossKind, loss_fn
from .objectives import check_clip_k
from .trainer import evaluate

USAGE_ERROR = 1
DATA_ERROR = 2
CHECK_FAILURE = 3


def int_at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer of at least ``low``; anything else is a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def clip_constant(text: str) -> float:
    """A clipping constant k in [0, 1); anything else is a usage error."""
    try:
        return check_clip_k(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--objective", choices=["el", "pr-bin", "pr-cont", "ce"])
    p.add_argument("--gamma", type=float)
    p.add_argument("--clip-k", dest="clip_k", type=float)
    p.add_argument("--lambda", dest="l2_lambda", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--epoch-size", dest="epoch_size", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditchain",
        description="Structured prediction from bandit feedback on chain models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment from a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--report", dest="report_path")
    p_train.add_argument("--checkpoint", dest="checkpoint_path")
    _add_override_flags(p_train)

    p_eval = sub.add_parser("eval", help="mean task loss of a checkpoint on a dataset")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--loss", choices=[k.value for k in LossKind])

    p_sample = sub.add_parser("sample", help="draw labelings from the model")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--data", required=True)
    p_sample.add_argument("--draws", type=int_at_least(1), default=1)
    p_sample.add_argument("--seed", type=int_at_least(0), default=0)

    p_diag = sub.add_parser("diagnose", help="compare convergence estimates across reports")
    p_diag.add_argument("reports", nargs="+")
    p_diag.add_argument("--out")

    p_check = sub.add_parser("oracle-check", help="run the enumeration-backed property suite")
    p_check.add_argument("--seed", type=int_at_least(0), default=0)
    p_check.add_argument("--fixtures", type=int_at_least(1), default=8)
    p_check.add_argument("--weights", type=int_at_least(1), default=20)
    p_check.add_argument("--clip-k", dest="clip_k", type=clip_constant, default=0.0)

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    # every train flag but --config is named after the config field it overrides
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    from .dataio import run_train

    config = load_config(args.config, overrides)
    report = run_train(config)
    summary = report["summary"]
    print(
        f"objective={summary['objective']} best_t={summary['iterations_to_best']} "
        f"best_dev_loss={summary['best_dev_loss']:.4f} "
        f"test_loss={summary['test_loss']}"
    )
    print(f"report written to {config.report_path}")
    print(f"checkpoint written to {config.checkpoint_path}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    check_loss_labels(args.loss or config.loss, config.labels)  # before the data is read
    loss = loss_fn(args.loss or config.loss)
    model = config.model()
    w = read_checkpoint(args.checkpoint)
    data = read_dataset(args.data, model.alphabet)
    mean_loss = evaluate(model, w, data, loss)
    print(json.dumps({"instances": len(data), "mean_loss": mean_loss}))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    model = config.model()
    w = read_checkpoint(args.checkpoint)
    data = read_dataset(args.data, model.alphabet)
    for x in data:
        model.compile(x)
    w = model.to_columns(w)  # once, not once per instance
    rng = np.random.default_rng(args.seed)
    first = True
    for x in data:
        post = posterior(model, w, x)
        for _ in range(args.draws):
            if not first:
                print()
            first = False
            (labeling,) = post.sample(rng)
            for token, label in zip(x.tokens, labeling):
                print(f"{token}\t{label}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if args.out:
        check_not_an_input("--out", args.out, [("a report it reads", p) for p in args.reports])
    summary = compare_report_files(args.reports)
    if args.out:
        replace_report(args.out, summary)
        print(f"comparison written to {args.out}")
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    report = run_property_checks(
        seed=args.seed,
        n_fixtures=args.fixtures,
        n_weights=args.weights,
        clip_k=args.clip_k,
    )
    for line in report.lines():
        print(line)
    if not report.all_passed:
        print("oracle-check: FAILURES detected")
        return CHECK_FAILURE
    print("oracle-check: all properties hold")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
    "diagnose": _cmd_diagnose,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return 0 if not exc.code else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    # DataError and BudgetExceededError are ValueErrors; OSError covers unwritable outputs
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ArithmeticError as exc:  # a diverged run: FloatingPointError names the step
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
