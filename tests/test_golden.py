"""Golden digests of a small fixed latency grid and accuracy sweep, and of
the fixtures the benchmark builds.

A change that is meant to keep behaviour must keep these bytes. If a change
moves them on purpose, it says which outputs moved and why, and updates the
digests here.

The digests were made on numpy 2.4.6. Another numpy release may round a
reduction or a matmul differently, so a mismatch there says which release
ran before it says that behaviour moved.
"""

import hashlib
from dataclasses import replace

import numpy as np

from fedchain.experiments import (
    ExperimentConfig,
    build_round_setup,
    build_task_fixture,
    latency_rows_to_csv,
    run_accuracy_sweep,
    run_latency_grid,
    sweep_rows_to_csv,
)

PINNED_ON = "numpy 2.4.6"
GRID_SHA256 = "c03ca92219593de6ee2cbd527e64099200d4d033bf15f2472ba788941979e8fd"
SWEEP_SHA256 = "d800017957b73b31ee3f7dc7b3061c1ddc7f70ddda3002d2a7bf109587fe4072"
SETUP_SHA256 = "84c4f5bf6b4e424671a253a4e9a916b9f7767889478274e13913d0403d872536"


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


def test_setup_digest_at_benchmark_scale():
    # The benchmark's 600-node, 60-pool fixture (25,000 rows in 600 parts)
    # and one 16-miner sweep fixture with 16 slack parts, hashed array by
    # array with each shape, so a part boundary that moves moves the digest.
    cfg = ExperimentConfig()
    setup = build_round_setup(cfg, 600, 60, seed=1)
    sweep_cfg = replace(cfg, samples_per_node=cfg.sweep_samples // 16)
    sweep_task, sweep_parts = build_task_fixture(
        sweep_cfg, 16, seed=7, alpha=0.8, alphas=[0.8] * 8 + [0.0] * 8, slack_parts=16
    )
    arrays = [setup.latency, setup.compute_times]
    for task, parts in ((setup.task, setup.miner_data), (sweep_task, sweep_parts)):
        for data in [task.example, task.held_out, *parts]:
            arrays += [data.x, data.y]
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    digest = h.hexdigest()
    assert digest == SETUP_SHA256, (
        f"setup digest {digest} (pinned on {PINNED_ON}, ran on numpy {np.__version__})"
    )
