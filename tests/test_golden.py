"""Golden digests of a small fixed latency grid and accuracy sweep, of the
report files written from them, and of the fixtures the benchmark builds.

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
import pytest

from fedchain.experiments import (
    ExperimentConfig,
    build_round_setup,
    build_task_fixture,
    emit_report,
    latency_rows_to_csv,
    run_accuracy_sweep,
    run_latency_grid,
    sweep_rows_to_csv,
)

PINNED_ON = "numpy 2.4.6"
GRID_SHA256 = "c03ca92219593de6ee2cbd527e64099200d4d033bf15f2472ba788941979e8fd"
SWEEP_SHA256 = "d800017957b73b31ee3f7dc7b3061c1ddc7f70ddda3002d2a7bf109587fe4072"
SETUP_SHA256 = "84c4f5bf6b4e424671a253a4e9a916b9f7767889478274e13913d0403d872536"
# The files `emit_report` writes for the grid and sweep of
# `test_report_files_digest`, given the grid's rows, the sweep's or both.
REPORT_SHA256 = {
    "grid": {
        "latency_grid.csv": "ffcb901f2f867bf5172359572b0b2dcfde8064742481d7e1ef4792769554f9bb",
        "report.md": "d22902800298d838aedd47f7387ecb58487f190d88dc0a1bbde332a60ef0a63b",
    },
    "sweep": {
        "accuracy_curves.csv": "53e78e0233a2454d327d1f8b2b11a09ae8911643acc5516b005269fb8f4ff285",
        "accuracy_sweep.csv": "d800017957b73b31ee3f7dc7b3061c1ddc7f70ddda3002d2a7bf109587fe4072",
        "report.md": "8ccb67ca67e3ce5c6c0a9141bdd71f4471b7b718f74e6f9540bfdda3899aebb8",
    },
    "both": {
        "accuracy_curves.csv": "53e78e0233a2454d327d1f8b2b11a09ae8911643acc5516b005269fb8f4ff285",
        "accuracy_sweep.csv": "d800017957b73b31ee3f7dc7b3061c1ddc7f70ddda3002d2a7bf109587fe4072",
        "latency_grid.csv": "ffcb901f2f867bf5172359572b0b2dcfde8064742481d7e1ef4792769554f9bb",
        "report.md": "f294b11eb54cc89146d1d8a9ea4148379f2e3000c8b78aa51852032ac85457cd",
    },
}


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
    sweep_task, sweep_parts = build_task_fixture(sweep_cfg, [0.8] * 8 + [0.0] * 24, seed=7)
    sweep_parts = sweep_parts[:16]
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


@pytest.mark.parametrize("given", sorted(REPORT_SHA256))
def test_report_files_digest(tmp_path, given):
    # A grid with `fedchain`, so every latency check runs, and the sweep of
    # `test_accuracy_sweep_digest`. The "both" report takes the grid's config.
    grid_cfg = ExperimentConfig(
        modes=["fedchain", "gfl_ring", "fedavg_central"],
        n_nodes=[6, 8],
        n_pools=[2, 3],
        seeds=[0, 1],
        epochs=2,
        max_rounds=30,
    )
    sweep_cfg = ExperimentConfig(
        alphas=[0.1, 0.8], seeds=[0, 1], sweep_miners=4, sweep_samples=400, sweep_max_rounds=20
    )
    rows = {}
    if given in ("grid", "both"):
        rows["latency-grid"] = run_latency_grid(grid_cfg)
    if given in ("sweep", "both"):
        rows["accuracy-sweep"] = run_accuracy_sweep(sweep_cfg)
    emit_report(replace(sweep_cfg if given == "sweep" else grid_cfg, out_dir=str(tmp_path)), rows)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == REPORT_SHA256[given], (
        f"report digests {digests} (pinned on {PINNED_ON}, ran on numpy {np.__version__})"
    )
