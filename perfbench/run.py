"""fedchain benchmark: one workload, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-wide --seed 1 --seconds 50 --trace 0

Runs cells of the workload back to back (a closed loop with one caller) for
`--seconds` seconds, checks every cell's outputs, and prints a report. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. End-to-end times are
wall times corrected for the host's speed (hostspeed.py). See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402  (stdlib only; lives next to this file)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 3
PAIR_EVERY = 4  # traced runs time one cell in this many untraced as well

# Counts summed over one traced pass; they repeat exactly for a seed.
PASS_COUNTS = (
    "pools.history_pairs",
    "netsim.events",
    "netsim.sent_size_units",
    "sharedring.ring_messages",
    "fed.samples_trained",
)
# Span name -> per-layer metric of its seconds per cell (inclusive).
LAYER_SECONDS = {
    "pools.bootstrap_history": "pools.bootstrap_history.s",
    "pools.estimate_latency": "pools.estimate_latency.s",
    "pools.announce_heads": "pools.announce_heads.s",
    "pools.assign_pools": "pools.assign_pools.s",
    "netsim.build_topology": "netsim.build_topology.s",
    "sharedring.RingSession.init": "sharedring.RingSession.init_s",
    "sharedring.RingSession.start": "sharedring.RingSession.start_s",
    "fixedpoint.encode": "fixedpoint.encode.s",
    "fixedpoint.decode": "fixedpoint.decode.s",
    "fixedpoint.generate_noise": "fixedpoint.generate_noise.s",
    "fed.local_train": "fed.local_train.s",
    "fed.evaluate": "fed.evaluate.s",
    "fed.local_loss": "fed.local_loss.s",
    "fed.aggregate": "fed.aggregate.s",
    "fed.kl_weights": "fed.kl_weights.s",
    "verify.commit": "verify.commit.s",
    "verify.prove": "verify.prove.s",
    "verify.verify": "verify.verify.s",
    "verify.derive_challenge": "verify.derive_challenge.s",
    "chain.validate_chain": "chain.validate_chain.s",
    "chain.ledger_roundtrip": "chain.ledger_roundtrip.s",
    "data.make_blobs": "data.make_blobs.s",
    "data.partition_noniid": "data.partition_noniid.s",
    "experiments.build_round_setup": "experiments.build_round_setup.s",
}
# Span name -> per-layer metric of its self seconds per cell.
LAYER_SELF_SECONDS = {
    "netsim.run_until_idle": "netsim.run_until_idle.self_s",
    "chain.run_round": "chain.run_round.self_s",
    "experiments.run_sweep_cell": "experiments.run_sweep_cell.self_s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """One measured run of one workload: set-up, the cell loop, the gate."""

    def __init__(self, wl, seed: int, seconds: float, tracer, ledger_path: str,
                 speed=None) -> None:
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.ledger_path = ledger_path
        self.speed = speed  # a started hostspeed.HostSpeed, or None for wall seconds
        self.specs: list = []
        self.reference_rows: list[dict | None] = []
        self.cell_s: list[float] = []  # every timed cell, in run order
        self.cell_wall_s: list[float] = []  # the same cells in wall seconds
        self.by_position: dict[bool, dict[int, list[float]]] = {False: defaultdict(list), True: defaultdict(list)}
        self.traced_cells: set[int] = set()
        self.first_traced: dict[int, int] = {}  # position -> its first traced cell
        self.output_counts: dict[int, dict[str, int]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> dict[str, float]:
        """Generate the inputs (several times; the median counts) and run one
        untimed warm-up cell. Traced runs trace one input build."""
        builds, build_walls = [], []
        for _ in range(1 if self.tracer else SETUP_REPEATS):
            if self.tracer:
                self.tracer.install()
            t = time.perf_counter()
            self.specs = self.wl.build(self.seed)
            done = time.perf_counter()
            builds.append(self.seconds_of(t, done))
            build_walls.append(done - t)
            if self.tracer:
                self.tracer.uninstall()
        self.reference_rows = [None] * len(self.specs)
        t = time.perf_counter()
        self.wl.run(self.specs[0], self.ledger_path)
        done = time.perf_counter()
        return {"build_s": statistics.median(builds), "warm_up_s": self.seconds_of(t, done),
                "wall_s": statistics.median(build_walls) + done - t}

    def loop(self) -> None:
        """Cycle through the pass until the time is up and one whole pass
        has finished. A traced run runs every cell traced, and every
        PAIR_EVERY-th cell of the pass untraced just before, so both sides
        of the overhead ratio see the same inputs and the same machine."""
        k = len(self.specs)
        tracer = self.tracer
        if tracer is None:
            schedule = [(pos, False) for pos in range(k)]
        else:
            schedule = [(pos, traced) for pos in range(k)
                        for traced in ((False, True) if pos % PAIR_EVERY == 0 else (True,))]
        start = time.perf_counter()
        i = 0
        while True:
            pos, traced = schedule[i % len(schedule)]
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
                if traced:
                    self.first_traced.setdefault(pos, i)
            self.run_cell(i, pos, traced)
            i += 1
            if time.perf_counter() - start >= self.seconds and i >= len(schedule):
                break
        if tracer is not None:
            tracer.uninstall()
            tracer.cell = -1

    def run_cell(self, i: int, pos: int, traced: bool) -> None:
        spec = self.specs[pos]
        if self.tracer is not None:
            self.tracer.cell = i
        self.attempted += 1
        gc.collect()
        t = time.perf_counter()
        try:
            out = self.wl.run(spec, self.ledger_path)
        except Exception:  # a cell that raises is a failed cell; keep measuring
            self.failed += 1
            self.problems.append(f"cell {i}: raised\n{traceback.format_exc()}")
            return
        done = time.perf_counter()
        elapsed = self.seconds_of(t, done)
        issues = self.wl.check(spec, out)
        row = self.wl.row(spec, out)
        if self.reference_rows[pos] is None:
            self.reference_rows[pos] = row
        elif row != self.reference_rows[pos]:
            issues.append("outputs differ from an earlier repeat of the same cell")
        if issues:
            self.failed += 1
            self.problems += [f"cell {i}: {msg}" for msg in issues]
            return
        self.cell_s.append(elapsed)
        self.cell_wall_s.append(done - t)
        self.by_position[traced][pos].append(elapsed)
        if traced:
            self.traced_cells.add(i)
        self.output_counts[i] = self.wl.output_counts(spec, out)

    def seconds_of(self, t0: float, t1: float) -> float:
        """Reference seconds of [t0, t1] when the host speed is sampled,
        else wall seconds."""
        return self.speed.reference_s(t0, t1) if self.speed else t1 - t0

    def rows(self) -> list[dict]:
        return [r for r in self.reference_rows if r is not None]

    def digest(self) -> str:
        return hashlib.sha256(self.wl.rows_to_csv(self.rows()).encode()).hexdigest()

    def sim_metric(self) -> dict:
        name, unit = self.wl.sim_metric
        rows = self.rows()
        mean = statistics.fmean(self.wl.sim_value(r) for r in rows) if rows else 0.0
        return {name: metric(mean, unit, len(rows))}

    def end_to_end(self, setup: dict[str, float]) -> dict[str, dict]:
        n = len(self.cell_s)
        metrics = {
            "setup_s": metric(setup["import_s"] + setup["build_s"] + setup["warm_up_s"], "s", 1),
            "cells_per_s": metric(ratio(n, sum(self.cell_s)), "1/s", n),
            "cell_s.p50": metric(statistics.median(self.cell_s) if n else 0.0, "s", n),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            "failed_ratio": metric(ratio(self.failed, self.attempted), "ratio", self.attempted),
        }
        if n >= 100:
            metrics["cell_s.p90"] = metric(statistics.quantiles(self.cell_s, n=10)[-1], "s", n)
        metrics.update(self.sim_metric())
        if self.speed:  # the same timings in wall seconds, for comparison
            metrics["setup_s.wall"] = metric(setup["wall_s"], "s", 1)
            metrics["cells_per_s.wall"] = metric(ratio(n, sum(self.cell_wall_s)), "1/s", n)
            metrics["cell_s.p50.wall"] = metric(
                statistics.median(self.cell_wall_s) if n else 0.0, "s", n)
            metrics["host.speed.p50"] = metric(
                self.speed.median_speed(), "ratio", len(self.speed.speeds))
        return metrics

    def per_layer(self) -> dict[str, dict]:
        tracer, k = self.tracer, len(self.specs)
        traced = self.traced_cells
        n = len(traced)
        first_pass = set(self.first_traced.values())
        in_cells = tracer.totals(traced)
        in_setup = tracer.totals({-1})

        def per_cell(name: str, field: str) -> float:
            return ratio(in_cells[name][field], n) + in_setup[name][field] / k

        pass_counts: Counter = Counter()
        for cell in first_pass:
            pass_counts.update(tracer.counts.get(cell, {}))
        outputs: Counter = Counter()
        for cell in first_pass:
            outputs.update(self.output_counts.get(cell, {}))
        calls = {name: sum(tracer.calls_per_cell(name)[c] for c in first_pass)
                 for name in ("fed.local_train", "sharedring.RingSession.init", "verify.verify")}
        traced_counts: Counter = Counter()
        for cell in traced:
            traced_counts.update(tracer.counts.get(cell, {}))

        m: dict[str, dict] = {}
        for span, name in LAYER_SECONDS.items():
            m[name] = metric(per_cell(span, "s"), "s", n)
        for span, name in LAYER_SELF_SECONDS.items():
            m[name] = metric(per_cell(span, "self_s"), "s", n)
        for name in PASS_COUNTS:
            m[name] = metric(pass_counts[name], "count", k)
        m["netsim.events_per_s"] = metric(
            ratio(traced_counts["netsim.events"], in_cells["netsim.run_until_idle"]["s"]), "1/s", n)
        m["sharedring.sessions"] = metric(calls["sharedring.RingSession.init"], "count", k)
        m["fed.local_train.calls"] = metric(calls["fed.local_train"], "count", k)
        m["fed.samples_per_s"] = metric(
            ratio(traced_counts["fed.samples_trained"], in_cells["fed.local_train"]["s"]), "1/s", n)
        m["verify.accept_ratio"] = metric(
            ratio(pass_counts["verify.accepted"], calls["verify.verify"]), "ratio", k)
        m["chain.messages_per_block"] = metric(
            ratio(pass_counts["netsim.sent"], outputs["blocks"]), "count", k)
        m["chain.size_units_per_block"] = metric(
            ratio(pass_counts["netsim.sent_size_units"], outputs["blocks"]), "count", k)
        m["chain.pools_verified_ratio"] = metric(
            ratio(outputs["pools_verified"], outputs["pools"]), "ratio", k)
        m["chain.winner_train_share"] = metric(
            ratio(outputs["winner_train_calls"], outputs["fed.local_train.calls"]), "ratio", k)
        for name, unit in (("block_latency_ms.mean", "ms"), ("rounds_to_target.mean", "rounds")):
            m[name] = metric(0.0, unit, 0)
        m.update(self.sim_metric())
        overhead, pairs = self.overhead()
        m["tracing.overhead"] = metric(overhead, "ratio", pairs)
        return m

    def overhead(self) -> tuple[float, int]:
        """Traced over untraced wall time of the same cells, and how many
        cells of the pass ran both ways."""
        traced, plain = self.by_position[True], self.by_position[False]
        both = [p for p in traced if p in plain]
        return ratio(sum(statistics.fmean(traced[p]) for p in both),
                     sum(statistics.fmean(plain[p]) for p in both)), len(both)

    def check_traced_counts(self) -> None:
        """Counts seen by the tracer must equal those implied by the outputs."""
        for span, key in (("fed.local_train", "fed.local_train.calls"),
                          ("sharedring.RingSession.init", "sharedring.sessions")):
            seen = self.tracer.calls_per_cell(span)
            for cell in sorted(self.traced_cells):
                expected = self.output_counts[cell][key]
                if seen[cell] != expected:
                    self.problems.append(f"cell {cell}: traced {key} {seen[cell]} != {expected} from outputs")


def traced_modules() -> dict:
    """Every loaded module whose names the tracer may rebind."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "workloads" or name.startswith("fedchain.")}


def environment() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedchain" / "__init__.py").is_file():
        print(f"error: no fedchain sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # numpy links a multithreaded BLAS; keep one thread
        os.environ[var] = "1"
    speed = None
    if not args.trace:  # end-to-end runs time in reference seconds; see hostspeed.py
        speed = hostspeed.HostSpeed()
        speed.start()
    try:
        return measure(args, speed)
    finally:
        if speed is not None:
            speed.stop()


def measure(args: argparse.Namespace, speed) -> int:
    sys.path.insert(0, str(SRC))
    import fedchain  # noqa: F401  (import cost belongs to set-up)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    imported = time.perf_counter()
    tracer = tracing.Tracer(traced_modules()) if args.trace else None

    ledger_path = str(OUT_DIR / f"ledger-{os.getpid()}.jsonl")
    run = Run(workloads.WORKLOADS[args.workload], seed, args.seconds, tracer, ledger_path, speed)
    setup = run.set_up()
    setup["import_s"] = run.seconds_of(_T0, imported)
    setup["wall_s"] += imported - _T0
    run.loop()
    if speed is not None:
        speed.stop()
    if tracer is not None:
        run.check_traced_counts()
        metrics = run.per_layer()
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{seed}.csv"
        tracer.write_spans(str(spans_path))
    else:
        metrics = run.end_to_end(setup)
    Path(ledger_path).unlink(missing_ok=True)

    correct = run.failed == 0 and not run.problems
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("setup " + json.dumps({k: round(v, 6) for k, v in setup.items()}, sort_keys=True))
    print(f"cells per pass {len(run.specs)}; attempted {run.attempted}; failed {run.failed}")
    print(f"output digest sha256 {run.digest()} over {len(run.rows())} rows")
    if tracer is not None:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
