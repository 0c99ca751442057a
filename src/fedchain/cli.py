"""Command-line experiment runner.

Subcommands mirror the experiment surface: `latency-grid` and
`accuracy-sweep` run the comparison grids and exit non-zero if any encoded
trend assertion fails; `single-round` simulates one task round; and
`validate-chain` audits an exported ledger. A named library error, a
config or ledger file that cannot be read, an output that cannot be
written, or a flag value out of range ends a command with one `error:`
line on stderr and exit code 2; 1 stays a failed check or a ledger
violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chain, experiments
from .errors import FedChainError, LedgerIntegrityError
from .experiments import ExperimentConfig


class _BadInput(Exception):
    """A config or ledger file that could not be parsed, or a value out of range."""


def _guarded(call, arg):
    """`call(arg)`, with a ValueError raised as _BadInput."""
    try:
        return call(arg)
    except ValueError as err:
        raise _BadInput(err) from err


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        return _guarded(ExperimentConfig.from_file, args.config)
    return ExperimentConfig()


def _grid_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config of `latency-grid` or `accuracy-sweep`, with the flags the
    subcommand was given applied over it; the list flags' destinations are
    `ExperimentConfig` field names."""
    cfg = _load_config(args)
    if args.seed is not None:
        cfg.seeds = [args.seed + i for i in range(len(cfg.seeds))]
    if args.out:
        cfg.out_dir = args.out
    for name in ("n_nodes", "n_pools", "modes", "alphas"):
        if getattr(args, name, None):
            setattr(cfg, name, getattr(args, name))
    _guarded(ExperimentConfig.check, cfg)
    return cfg


def cmd_grid(args: argparse.Namespace) -> int:
    """`latency-grid` or `accuracy-sweep`: run the grid, write its report and
    print the report's checks."""
    cfg = _grid_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)  # an --out that cannot be written fails before any cell
    rows = experiments.GRIDS[args.command].run(cfg)
    written, checks = experiments.emit_report(cfg, {args.command: rows})
    for path in written:
        print(f"wrote {path}")
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return 0 if all(passed for _, passed, _ in checks) else 1


def cmd_single_round(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cfg.seeds = [args.seed]
    _guarded(ExperimentConfig.check, cfg)
    setup = experiments.build_round_setup(cfg, args.nodes, args.pools, args.seed)
    ledger = chain.Chain()
    result = chain.run_round(ledger, setup, args.mode)
    print(
        f"mode={args.mode} n={args.nodes} pools={args.pools} seed={args.seed} "
        f"latency_ms={result.latency_ms:.1f} winner={result.winner_pool} "
        f"accuracy={result.accuracy:.4f} block_height={result.block.height}"
    )
    violations = chain.validate_chain(ledger)
    if args.ledger:
        ledger.export_jsonl(args.ledger)
        print(f"wrote {args.ledger}")
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    return 0


def cmd_validate_chain(args: argparse.Namespace) -> int:
    try:
        ledger = _guarded(chain.load_chain_jsonl, args.ledger)
    except LedgerIntegrityError as err:
        print(f"violation: {err}")
        return 1
    violations = chain.validate_chain(ledger)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print(f"ok: {len(ledger.blocks) - 1} blocks, no violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedchain", description="Proof-of-useful-federated-learning simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="YAML experiment config file")
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--out", help="output directory")

    grid = sub.add_parser("latency-grid", help="latency comparison across consensus modes")
    add_common(grid)
    grid.add_argument("--modes", nargs="+", choices=chain.MODES, help="consensus modes")
    grid.add_argument("--nodes", dest="n_nodes", type=int, nargs="+", help="node counts")
    grid.add_argument("--pools", dest="n_pools", type=int, nargs="+", help="pool counts")
    grid.set_defaults(func=cmd_grid)

    sweep = sub.add_parser("accuracy-sweep", help="aggregation-scheme accuracy comparison")
    add_common(sweep)
    sweep.add_argument("--alphas", type=float, nargs="+", help="label-skew levels")
    sweep.set_defaults(func=cmd_grid)

    single = sub.add_parser("single-round", help="simulate one task round")
    single.add_argument("--config", help="YAML experiment config file")
    single.add_argument("--mode", default="fedchain", choices=chain.MODES)
    single.add_argument("--nodes", type=int, default=20, help="node count")
    single.add_argument("--pools", type=int, default=4, help="pool count")
    single.add_argument("--seed", type=int, default=0, help="round seed")
    single.add_argument("--ledger", help="write the ledger as JSON lines")
    single.set_defaults(func=cmd_single_round)

    validate = sub.add_parser("validate-chain", help="audit an exported ledger")
    validate.add_argument("ledger", help="ledger JSONL file")
    validate.set_defaults(func=cmd_validate_chain)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FedChainError, _BadInput, OSError) as err:  # OSError: a file not read or written
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
