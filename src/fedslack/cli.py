"""Command-line surface: run experiments, inspect partitions, evaluate
checkpoints, sweep hyperparameters, and print top-set selection histograms.

Exit codes: 0 ok, 2 config/usage error, 3 numeric divergence, 4 IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path


from . import nn, runner, threads
from .attacks import AttackSpec
from .data import class_counts, load_csv
from .errors import (ConfigError, DivergenceError, FedslackError, LabelError, PartitionError,
                     ShapeError)
from .metrics import EvalAttack, evaluate, trace_topk
from .runner import ExperimentConfig, load_config, load_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fedslack",
                                description="Federated adversarial training simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(handler=_cmd_run)

    part_p = sub.add_parser("partition", help="partition utilities")
    part_sub = part_p.add_subparsers(dest="action", required=True)
    inspect_p = part_sub.add_parser("inspect", help="print per-client class counts")
    inspect_p.add_argument("--config", required=True)
    inspect_p.set_defaults(handler=_cmd_partition_inspect)

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a test set")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--test", required=True, help="csv test set path")
    eval_p.add_argument("--attack", choices=["none", "fgsm", "pgd20"], default="none")
    eval_p.add_argument("--epsilon", type=float, default=8 / 255)
    eval_p.add_argument("--step-size", type=float, default=2 / 255)
    eval_p.set_defaults(handler=_cmd_eval)

    sweep_p = sub.add_parser("sweep", help="run a seeded grid over one parameter")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True,
                         choices=["alpha", "khat", "epsilon", "clients", "ratio"])
    sweep_p.add_argument("--values", required=True, nargs="+", type=float)
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(handler=_cmd_sweep)

    trace_p = sub.add_parser("trace-topk", help="print top-set selection histogram")
    trace_p.add_argument("--run", required=True, help="output directory of a run")
    trace_p.set_defaults(handler=_cmd_trace_topk)
    return p


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    last = runner.run(config).reports[-1]
    print(f"finished {config.rounds} rounds; final mean drift {last.mean_drift:.6f}"
          + (f", nat acc {last.nat_acc:.4f}, pgd20 acc {last.pgd20_acc:.4f}"
             if last.nat_acc is not None else ""))
    if config.out_dir is None:
        print("note: no --out directory given, metrics were not persisted")
    return EXIT_OK


def _cmd_partition_inspect(args) -> int:
    config = load_config(args.config)
    train_set, _ = runner.build_datasets(config)
    shards = runner.build_shards(config, train_set)
    table = class_counts(train_set, shards)
    header = "client  " + "  ".join(f"c{c:<5d}" for c in range(train_set.num_classes))
    print(header)
    for k, row in enumerate(table):
        print(f"{k:<6d}  " + "  ".join(f"{n:<6d}" for n in row) + f" total {row.sum()}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = nn.load_checkpoint(args.checkpoint)
    ds = load_csv(args.test)
    try:
        spec = AttackSpec(args.epsilon, args.step_size, steps=20 if args.attack == "pgd20" else 1)
    except ConfigError as exc:      # "<field> must be ...": the flag is --<field>
        raise ConfigError(f"--{str(exc).split()[0].replace('_', '-')}: {exc}") from exc
    attack = {"none": EvalAttack.NONE, "fgsm": EvalAttack.FGSM, "pgd20": EvalAttack.PGD}
    try:                            # `evaluate` checks the test set before it attacks
        with threads.one_blas_thread():     # as `runner.run` evaluates
            acc = evaluate(model, ds, attack[args.attack], spec)
    except (ShapeError, LabelError) as exc:
        raise ConfigError(f"{args.test} does not fit checkpoint {args.checkpoint}: {exc}") from exc
    print(f"accuracy: {acc:.4f}")
    return EXIT_OK


def _apply_sweep_value(config: ExperimentConfig, param: str,
                       value: float) -> ExperimentConfig:
    """`config` with the key `param` sweeps set to `value`, merged as a
    config file's value is (an integral value as JSON's integer)."""
    path = {"alpha": "policy.alpha", "khat": "policy.k_hat", "clients": "partition.num_clients",
            "epsilon": "local.attack.epsilon", "ratio": "participation"}[param]
    raw = int(value) if value.is_integer() else value
    for key in reversed(path.split(".")):
        raw = {key: raw}
    try:
        return runner._merged(config, raw)
    except (ConfigError, PartitionError) as exc:
        raise type(exc)(f"--param {param}: {exc}") from exc


def _run_name(param: str, value: float) -> str:
    """`param_value`, the value as `:g` prints it if that reads back as the
    value, else as `repr`: distinct values get distinct names."""
    text = f"{value:g}"
    return f"{param}_{text if float(text) == value else repr(value)}"


def _cmd_sweep(args) -> int:
    base = load_config(args.config)
    # every value is checked before the first run starts
    repeated = [v for i, v in enumerate(args.values) if v in args.values[:i]]
    if repeated:
        raise ConfigError(f"--values gives {repeated[0]!r} more than once")
    configs = [_apply_sweep_value(base, args.param, value) for value in args.values]
    results = []
    for value, config in zip(args.values, configs):
        out = None
        if args.out:
            out = str(Path(args.out) / _run_name(args.param, value))
        config = replace(config, out_dir=out)
        # only the last report is kept: a run's state holds its round matrices
        last = runner.run(config).reports[-1]
        results.append({"value": value, "mean_drift": last.mean_drift,
                        "nat_acc": last.nat_acc, "pgd20_acc": last.pgd20_acc})
        print(f"{args.param}={value:g}: drift {last.mean_drift:.6f}"
              + (f", nat {last.nat_acc:.4f}, pgd20 {last.pgd20_acc:.4f}"
                 if last.nat_acc is not None else ""))
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "sweep.json").write_text(json.dumps(results, indent=2) + "\n")
    return EXIT_OK


def _cmd_trace_topk(args) -> int:
    counts, total_rounds = trace_topk(load_metrics(Path(args.run) / "metrics.csv"))
    print(f"top-set selections over {total_rounds} rounds:")
    for cid, n in counts.items():
        frac = n / total_rounds if total_rounds else 0.0
        bar = "#" * round(40 * frac)
        print(f"client {cid}: {n:4d} ({100 * frac:5.1f}%) {bar}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FedslackError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
