"""Golden digests of a small fixed latency grid and accuracy sweep.

A change that is meant to keep behaviour must keep these bytes. If a change
moves them on purpose, it says which outputs moved and why, and updates the
digests here.
"""

import hashlib

from fedchain.experiments import (
    ExperimentConfig,
    latency_rows_to_csv,
    run_accuracy_sweep,
    run_latency_grid,
    sweep_rows_to_csv,
)

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
    assert sha256(latency_rows_to_csv(run_latency_grid(cfg))) == GRID_SHA256


def test_accuracy_sweep_digest():
    cfg = ExperimentConfig(
        alphas=[0.1, 0.8], seeds=[0, 1], sweep_miners=4, sweep_samples=400, sweep_max_rounds=20
    )
    assert sha256(sweep_rows_to_csv(run_accuracy_sweep(cfg))) == SWEEP_SHA256
