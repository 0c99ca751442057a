"""Tests of the benchmark itself, on small workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_ROUNDS = workloads.RoundWorkload(
    "small-rounds", n_nodes=24, n_pools=4, modes=("fedchain", "gfl_ring"),
    setups_per_pass=1, tamper_every=4,
)
SMALL_SWEEP = workloads.SweepWorkload(
    "small-sweep", replace(workloads.SWEEP_CONFIG, sweep_miners=4, sweep_samples=400),
    alphas=(0.1, 0.95), cells_per_setting=1,
)


def _run(wl, seed, tmp_path, trace):
    tracer = tracing.Tracer(bench.traced_modules()) if trace else None
    run = bench.Run(wl, seed, 0.0, tracer, str(tmp_path / "ledger.jsonl"))
    run.set_up()
    run.loop()
    if tracer is not None:
        run.check_traced_counts()
    return run


@pytest.mark.parametrize("wl", [SMALL_ROUNDS, SMALL_SWEEP], ids=lambda w: w.name)
def test_seed_fixes_digest_and_counts(wl, tmp_path):
    first = _run(wl, 3, tmp_path, trace=True)
    again = _run(wl, 3, tmp_path, trace=True)
    other = _run(wl, 4, tmp_path, trace=False)
    for run in (first, again, other):
        assert run.failed == 0 and run.problems == []
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    exact = [name for name, m in first.per_layer().items() if m["unit"] in ("count", "ratio")
             and name != "tracing.overhead"]
    assert exact
    assert {n: first.per_layer()[n]["value"] for n in exact} == {
        n: again.per_layer()[n]["value"] for n in exact
    }


def test_traced_and_untraced_outputs_agree(tmp_path):
    plain = _run(SMALL_ROUNDS, 5, tmp_path, trace=False)
    traced = _run(SMALL_ROUNDS, 5, tmp_path, trace=True)
    assert traced.problems == []
    assert plain.digest() == traced.digest()
    assert plain.sim_metric() == traced.sim_metric()


def test_tracer_reaches_names_bound_by_import(tmp_path):
    from fedchain import chain, experiments, fed

    originals = (fed.local_train, chain.local_train, experiments.local_train)
    tracer = tracing.Tracer(bench.traced_modules())
    tracer.install()
    try:
        assert fed.local_train is chain.local_train is experiments.local_train
        assert fed.local_train is not originals[0]
    finally:
        tracer.uninstall()
    assert (fed.local_train, chain.local_train, experiments.local_train) == originals


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer({})
    tracer.names = ["parent", "child"]
    tracer.spans = [(0, 0.0, 10.0, -1, 1), (1, 2.0, 5.0, 0, 1), (1, 6.0, 7.0, 0, 1)]
    totals = tracer.totals({1})
    assert totals["parent"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["child"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_seconds_scale_wall_time_by_sampled_speed():
    speed = hostspeed.HostSpeed()
    speed.starts, speed.ends, speed.speeds = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1], [0.5, 0.5, 1.0]
    # two probes (0.2 s) inside [0.5, 2.5]; their mean speed is 0.5
    assert speed.reference_s(0.5, 2.5) == pytest.approx((2.0 - 0.2) * 0.5)
    # no probe inside [2.2, 2.8]: the nearest on each side, mean speed 0.75
    assert speed.reference_s(2.2, 2.8) == pytest.approx(0.6 * 0.75)
    assert hostspeed.HostSpeed().reference_s(0.0, 1.5) == 1.5


def test_sampler_runs_and_stops():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        speed.stop()
    taken = len(speed.speeds)
    assert taken >= 3 and all(s > 0 for s in speed.speeds)
    time.sleep(0.1)
    assert len(speed.speeds) == taken
