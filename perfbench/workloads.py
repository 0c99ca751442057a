"""Workloads of the fedchain benchmark.

Each workload turns a workload seed into a fixed list of cells (one "pass"),
runs one cell as the timed unit of work, checks the cell's outputs, and
turns them into the CSV rows whose SHA-256 proves what was computed. See
README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from fedchain import chain, experiments
from fedchain.experiments import ExperimentConfig

DEFAULT_SEED = 1
HELD_OUT_SEED = 20231


def derive_seed(*parts: object) -> int:
    """Stable 31-bit seed for one cell of one workload run."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def ledger_roundtrip(ledger: chain.Chain, path: str) -> chain.Chain:
    """Export the ledger as JSONL and load it back."""
    ledger.export_jsonl(path)
    return chain.load_chain_jsonl(path)


@dataclass
class RoundSpec:
    mode: str
    setup: chain.RoundSetup
    cell_seed: int


@dataclass
class RoundOutput:
    result: chain.RoundResult
    violations: list[str]


class RoundWorkload:
    """Cells are `chain.run_round` calls on generated `RoundSetup`s; the
    timed cell also validates the ledger before and after an export/reload."""

    sim_metric = ("block_latency_ms.mean", "ms")

    def __init__(
        self, name: str, n_nodes: int, n_pools: int, modes: tuple[str, ...],
        setups_per_pass: int, tamper_every: int = 0,
        cfg: ExperimentConfig | None = None,
    ) -> None:
        self.name = name
        self.n_nodes = n_nodes
        self.n_pools = n_pools
        self.modes = modes
        self.setups_per_pass = setups_per_pass
        self.tamper_every = tamper_every  # one pool in this many is tampered; 0 for none
        self.cfg = cfg or ExperimentConfig()

    def build(self, seed: int) -> list[RoundSpec]:
        specs = []
        for k in range(self.setups_per_pass):
            cell_seed = derive_seed(self.name, seed, k)
            setup = experiments.build_round_setup(self.cfg, self.n_nodes, self.n_pools, cell_seed)
            if self.tamper_every:
                rng = np.random.default_rng(cell_seed)
                picked = rng.choice(self.n_pools, size=self.n_pools // self.tamper_every, replace=False)
                setup = replace(setup, tamper_pools=frozenset(int(p) for p in picked))
            specs.extend(RoundSpec(mode, setup, cell_seed) for mode in self.modes)
        return specs

    def run(self, spec: RoundSpec, ledger_path: str) -> RoundOutput:
        ledger = chain.Chain()
        result = chain.run_round(ledger, spec.setup, spec.mode)
        violations = chain.validate_chain(ledger)
        reloaded = ledger_roundtrip(ledger, ledger_path)
        violations += [f"after reload: {v}" for v in chain.validate_chain(reloaded)]
        return RoundOutput(result, violations)

    @staticmethod
    def _winner(out: RoundOutput) -> chain.PoolOutcome:
        return out.result.outcomes[out.result.winner_pool]

    def check(self, spec: RoundSpec, out: RoundOutput) -> list[str]:
        problems = list(out.violations)
        result, setup = out.result, spec.setup
        winner = self._winner(out)
        if winner.pool_id != result.winner_pool:
            problems.append("winner outcome is not the winning pool")
        if not winner.accepted:
            problems.append("winner was not accepted")
        if spec.mode == "fedchain":  # the baselines never tamper
            if result.winner_pool in setup.tamper_pools:
                problems.append("a tampered pool won")
            for o in result.outcomes:
                if o.pool_id in setup.tamper_pools and o.accepted:
                    problems.append(f"tampered pool {o.pool_id} was accepted")
        if sum(result.credits.values()) != setup.task.reward:
            problems.append("credits do not sum to the task reward")
        if not set(result.credits) <= set(winner.members):
            problems.append("credits went outside the winning pool")
        if result.latency_ms != winner.accept_time:
            problems.append("latency_ms differs from the winner's accept time")
        return problems

    def row(self, spec: RoundSpec, out: RoundOutput) -> dict:
        result = out.result
        return {
            "mode": spec.mode,
            "n_nodes": self.n_nodes,
            "n_pools": self.n_pools,
            "seed": spec.cell_seed,
            "round": len(self._winner(out).metrics),
            "winner_pool": result.winner_pool,
            "latency_ms": result.latency_ms,
            "accuracy": result.accuracy,
        }

    def rows_to_csv(self, rows: list[dict]) -> str:
        return experiments.latency_rows_to_csv(rows)

    def sim_value(self, row: dict) -> float:
        return row["latency_ms"]

    def output_counts(self, spec: RoundSpec, out: RoundOutput) -> dict[str, int]:
        """Counts that follow from the outputs alone (no tracing)."""
        outcomes = out.result.outcomes
        winner = self._winner(out)
        return {
            "fed.local_train.calls": sum(len(o.metrics) * len(o.members) for o in outcomes),
            "sharedring.sessions": sum(len(o.metrics) for o in outcomes),
            "winner_train_calls": len(winner.metrics) * len(winner.members),
            "pools": len(outcomes),
            "pools_verified": sum(o.accepted for o in outcomes),
            "blocks": 1,
        }


@dataclass
class SweepSpec:
    scheme: str
    alpha: float
    seed: int


class SweepWorkload:
    """Cells are `experiments.run_sweep_cell` calls; every cell builds its
    own fixture, so data generation is part of the timed work."""

    sim_metric = ("rounds_to_target.mean", "rounds")

    def __init__(self, name: str, cfg: ExperimentConfig, alphas: tuple[float, ...],
                 cells_per_setting: int) -> None:
        self.name = name
        self.cfg = cfg
        self.alphas = alphas
        self.cells_per_setting = cells_per_setting  # cells per (scheme, alpha)

    def build(self, seed: int) -> list[SweepSpec]:
        """Every cell draws its own fixture seed: a fixture that is hard for
        one setting tends to be hard for all, so sharing fixtures across
        settings would make a pass's cost swing more with the seed."""
        return [
            SweepSpec(scheme, alpha, derive_seed(self.name, seed, f, scheme, alpha))
            for f in range(self.cells_per_setting)
            for scheme in ("fedavg", "kl")
            for alpha in self.alphas
        ]

    def run(self, spec: SweepSpec, ledger_path: str) -> dict:
        return experiments.run_sweep_cell(self.cfg, spec.scheme, spec.alpha, spec.seed)

    def check(self, spec: SweepSpec, out: dict) -> list[str]:
        problems = []
        if not 0.0 <= out["final_accuracy"] <= 1.0:
            problems.append(f"final accuracy {out['final_accuracy']} outside [0, 1]")
        if not 1 <= out["rounds_to_target"] <= self.cfg.sweep_max_rounds + 1:
            problems.append(f"rounds_to_target {out['rounds_to_target']} out of range")
        return problems

    def row(self, spec: SweepSpec, out: dict) -> dict:
        return {k: out[k] for k in ("scheme", "alpha", "seed", "rounds_to_target", "final_accuracy")}

    def rows_to_csv(self, rows: list[dict]) -> str:
        return experiments.sweep_rows_to_csv(rows)

    def sim_value(self, row: dict) -> float:
        return row["rounds_to_target"]

    def output_counts(self, spec: SweepSpec, out: dict) -> dict[str, int]:
        return {
            "fed.local_train.calls": len(out["curve"]) * self.cfg.sweep_miners,
            "sharedring.sessions": 0,
            "winner_train_calls": 0,
            "pools": 0,
            "pools_verified": 0,
            "blocks": 0,
        }


# The sweep's default fixture reaches the target in one or two rounds, so
# fixture building dominated the cell. A lower learning rate makes most cells
# take several rounds while staying below sweep_max_rounds; see README.md.
SWEEP_CONFIG = replace(ExperimentConfig(), sweep_miners=16, sweep_lr=0.02)

# At the default separation (4.0) a rare blob geometry keeps pools training
# for up to 40 rounds, doubling a grid cell and making a ring cell 15 times
# dearer, so per-run throughput swung with the seed. At 6.0 pools converge
# within a few rounds for every seed tried; see README.md.
ROUND_CONFIG = replace(ExperimentConfig(), separation=6.0)

# Passes are long so that a run's throughput and median depend little on the
# seed. Grid cells of one seed cost from about 2.3 to 3.6 s each; sixteen
# distinct setups (one pass about fills a 50-s run) average that out. Sweep
# cost is dominated by fedavg at alpha 0.8 and 0.95, whose rounds to target
# range from a few to 61, so a pass holds 96 cells of each setting (768 cells).

WORKLOADS: dict[str, Any] = {
    "grid-wide": RoundWorkload(
        "grid-wide", n_nodes=600, n_pools=60, modes=("fedchain",), setups_per_pass=16,
        tamper_every=4, cfg=ROUND_CONFIG,
    ),
    "ring-deep": RoundWorkload(
        "ring-deep", n_nodes=120, n_pools=2, modes=("fedchain", "gfl_ring"), setups_per_pass=8,
        cfg=ROUND_CONFIG,
    ),
    "sweep-skew": SweepWorkload(
        "sweep-skew", SWEEP_CONFIG, alphas=(0.1, 0.5, 0.8, 0.95), cells_per_setting=96,
    ),
}
