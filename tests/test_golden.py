"""Golden digests of a small fixed latency grid and accuracy sweep.

A change that is meant to keep behaviour must keep these bytes. If a change
moves them on purpose, it says which outputs moved and why, and updates the
digests here.

The digests were made on numpy 2.4.6. Another numpy release may round a
reduction or a matmul differently, so a mismatch there says which release
ran before it says that behaviour moved.
"""

import hashlib

import numpy as np

from fedchain.experiments import (
    ExperimentConfig,
    latency_rows_to_csv,
    run_accuracy_sweep,
    run_latency_grid,
    sweep_rows_to_csv,
)

PINNED_ON = "numpy 2.4.6"
GRID_SHA256 = "c03ca92219593de6ee2cbd527e64099200d4d033bf15f2472ba788941979e8fd"
SWEEP_SHA256 = "d800017957b73b31ee3f7dc7b3061c1ddc7f70ddda3002d2a7bf109587fe4072"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_latency_grid_digest():
    cfg = ExperimentConfig(
        modes=["fedchain", "gfl_ring", "fedavg_central", "pow"],
        n_nodes=[20],
        n_pools=[2, 5],
        seeds=[0, 1],
    )
    digest = sha256(latency_rows_to_csv(run_latency_grid(cfg)))
    assert digest == GRID_SHA256, (
        f"grid digest {digest} (pinned on {PINNED_ON}, ran on numpy {np.__version__})"
    )


def test_accuracy_sweep_digest():
    cfg = ExperimentConfig(
        alphas=[0.1, 0.8], seeds=[0, 1], sweep_miners=4, sweep_samples=400, sweep_max_rounds=20
    )
    digest = sha256(sweep_rows_to_csv(run_accuracy_sweep(cfg)))
    assert digest == SWEEP_SHA256, (
        f"sweep digest {digest} (pinned on {PINNED_ON}, ran on numpy {np.__version__})"
    )
