"""Desk-scale experiment grids: latency across consensus modes, accuracy
across label-skew levels. Emits deterministic CSV tables and a markdown
report; trend expectations are encoded as checks, not read off plots.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import chain, netsim
from .data import Dataset, load_csv, make_blobs, partition_noniid
from .errors import DatasetFixtureError, EmptyReportError, LedgerIntegrityError
from .fed import (
    DenseClassifier,
    TrainConfig,
    aggregate,
    aggregation_weights,
    evaluate,
    local_train,
)
from .fed import Architecture

LATENCY_COLUMNS = "mode,n_nodes,n_pools,seed,round,winner_pool,latency_ms,accuracy"
SWEEP_COLUMNS = "scheme,alpha,seed,rounds_to_target,final_accuracy"
CURVE_COLUMNS = "scheme,alpha,seed,round,accuracy"

Check = tuple[str, bool, str]  # (name, passed, detail)


def _is_a(value, type_name: str) -> bool:
    """Whether a config value fits a field annotated `type_name` ("int",
    "float", "str" or "str | None"): an int fits a float, a bool fits
    neither."""
    if value is None:
        return type_name == "str | None"
    kinds = {"int": int, "float": (int, float), "str": str, "str | None": str}[type_name]
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    modes: list[str] = field(default_factory=lambda: ["fedchain", "gfl_ring", "fedavg_central"])
    n_nodes: list[int] = field(default_factory=lambda: [20, 50])
    n_pools: list[int] = field(default_factory=lambda: [2, 5])
    alphas: list[float] = field(default_factory=lambda: [0.1, 0.8])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    target: float = 0.90
    deadline: float = 1e9
    out_dir: str = "results"
    # fixture
    n_features: int = 12
    n_classes: int = 10
    samples_per_node: int = 40
    example_size: int = 400
    held_out_size: int = 600
    separation: float = 4.0
    grid_alpha: float = 0.1
    # training
    lr: float = 0.5
    epochs: int = 1
    batch_size: int = 32
    max_rounds: int = 40
    # sweep
    sweep_miners: int = 8
    sweep_samples: int = 1600
    sweep_lr: float = 0.05
    sweep_max_rounds: int = 60
    # misc protocol knobs
    n_verifiers: int = 3
    pow_difficulty: int = 13
    pow_trial_ms: float = 1.0
    dataset_path: str | None = None  # CSV fixture instead of the synthetic blobs

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """The config in a YAML mapping of field names to values (an empty
        file is the default config). Raises ValueError naming the file when
        it is not YAML or not a mapping, and naming the key for an unknown
        key or a value whose type does not match its field: a list field
        must hold a list of its element type, an int is accepted for a
        float, a bool is not a number, and `dataset_path` is a string or
        null. Raises ValueError naming the file for a value out of range
        (see `check`)."""
        import yaml  # only a config file needs it; it is a fifth of `import fedchain`

        with open(path, encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as err:
                problem = " ".join(str(err).split())  # one line
                raise ValueError(f"config file {path} is not valid YAML: {problem}") from err
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(
                f"config file {path} must hold a mapping of keys, not {type(raw).__name__}"
            )
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=str)}")
        for key, value in raw.items():
            kind, items, verb = cls.__dataclass_fields__[key].type, [value], "be"
            if kind.startswith("list["):
                if not isinstance(value, list):
                    raise ValueError(f"config key {key!r} must be a list, got {value!r}")
                kind, items, verb = kind[5:-1], value, "hold"
            for item in items:
                if not _is_a(item, kind):
                    kind = kind.replace(" | None", " or null")
                    raise ValueError(f"config key {key!r} must {verb} {kind}, got {item!r}")
        cfg = cls(**raw)
        try:
            cfg.check()
        except ValueError as err:
            raise ValueError(f"config file {path}: {err}") from err
        return cfg

    def check(self) -> None:
        """Raise ValueError for a value out of range: a training value that
        `TrainConfig` refuses, a `target` outside (0, 1], `sweep_miners`,
        `sweep_max_rounds`, `n_features`, `n_classes`, `samples_per_node` or
        `example_size` below 1, `sweep_samples` below `sweep_miners` (a sweep
        miner's share would be no rows), a negative `held_out_size`, an
        `n_nodes` entry below 2 or an `n_pools` entry below 1, a mode
        not in `chain.MODES`, pow settings that `chain.pow_range_problem`
        refuses, an alpha or `grid_alpha` outside [0, 1], or a negative
        seed."""
        self.train_config()
        if not 0 < self.target <= 1:
            raise ValueError(f"accuracy target must be in (0, 1], got {self.target}")
        self.train_config(self.sweep_lr)
        for key, floor in (("sweep_miners", 1), ("sweep_max_rounds", 1), ("n_features", 1),
                           ("n_classes", 1), ("samples_per_node", 1), ("example_size", 1),
                           ("held_out_size", 0)):
            if getattr(self, key) < floor:
                raise ValueError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        if self.sweep_samples < self.sweep_miners:
            raise ValueError(
                f"sweep_samples must be >= sweep_miners ({self.sweep_miners}), "
                f"got {self.sweep_samples}"
            )
        if min(self.n_nodes, default=2) < 2:
            raise ValueError(f"need at least 2 nodes, got {min(self.n_nodes)}")
        if min(self.n_pools, default=1) < 1:
            raise ValueError(f"pool count must be >= 1, got {min(self.n_pools)}")
        unknown = [mode for mode in self.modes if mode not in chain.MODES]
        if unknown:
            raise ValueError(f"modes must be in {list(chain.MODES)}, got {unknown[0]!r}")
        problem = chain.pow_range_problem(self.pow_difficulty, self.pow_trial_ms)
        if problem is not None:
            raise ValueError(problem)
        for key, values in (("alphas", self.alphas), ("grid_alpha", [self.grid_alpha])):
            outside = [a for a in values if not 0 <= a <= 1]
            if outside:
                raise ValueError(f"{key} must be in [0, 1], got {outside[0]}")
        if min(self.seeds, default=0) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")

    def fingerprint(self) -> str:
        """Hash of every field but `out_dir`: what a run computes, not where."""
        fields = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        body = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()[:12]

    def train_config(self, lr: float | None = None) -> TrainConfig:
        return TrainConfig(
            lr=self.lr if lr is None else lr,
            epochs=self.epochs,
            batch_size=self.batch_size,
        )


# The last `dataset_path` fixture parsed, keyed by (path, st_mtime_ns, st_size).
_FIXTURE: dict[tuple[str, int, int], Dataset] = {}


def _parsed_fixture(path: str) -> Dataset:
    """The CSV fixture at `path`, parsed once while the file keeps its
    modification time and size. Its arrays are read-only, so no cell can
    change the rows the others share."""
    stat = os.stat(path)
    key = (path, stat.st_mtime_ns, stat.st_size)
    if key not in _FIXTURE:
        full = load_csv(path)
        full.x.setflags(write=False)
        full.y.setflags(write=False)
        _FIXTURE.clear()
        _FIXTURE[key] = full
    return _FIXTURE[key]


def build_task_fixture(cfg: ExperimentConfig, alphas: Sequence[float],
                       seed: int) -> tuple[chain.Task, list[Dataset]]:
    """One blob population sliced into example/held-out/miner splits, so the
    training and verification data share a distribution: `samples_per_node`
    miner rows per entry of `alphas`, cut into one part per entry skewed by
    it. A `dataset_path` fixture is parsed once (`_parsed_fixture`). Raises
    DatasetFixtureError when it has too few rows."""
    total = cfg.example_size + cfg.held_out_size + cfg.samples_per_node * len(alphas)
    if cfg.dataset_path:
        full = _parsed_fixture(cfg.dataset_path)
        if len(full) < total:
            raise DatasetFixtureError(
                f"fixture {cfg.dataset_path} has {len(full)} samples, need {total}"
            )
        order = np.random.default_rng(seed).permutation(len(full))[:total]
        full = full.subset(order)
    else:
        full = make_blobs(
            total, cfg.n_features, cfg.n_classes, seed=seed, separation=cfg.separation
        )
    # `example` and `held_out` are copies, so no task keeps `full` alive;
    # `base` can be a view, because the parts are gathered copies of it.
    example = full.subset(np.arange(cfg.example_size))
    held_out = full.subset(np.arange(cfg.example_size, cfg.example_size + cfg.held_out_size))
    start = cfg.example_size + cfg.held_out_size
    base = Dataset(full.x[start:total], full.y[start:total], full.n_classes)
    parts = partition_noniid(base, alphas, seed=seed + 1)
    task = chain.Task(
        task_id=1,
        arch=Architecture(full.n_features, full.n_classes),
        example=example,
        held_out=held_out,
        target=cfg.target,
        deadline=cfg.deadline,
        reward=1000,
    )
    return task, parts


def build_round_setup(cfg: ExperimentConfig, n_nodes: int, n_pools: int, seed: int) -> chain.RoundSetup:
    """The latency grid's round at (n_nodes, n_pools, seed), with KL
    aggregation. The topology is drawn first, so a node count below 2 is
    refused by name (InvalidTopologyError) before the fixture is built."""
    latency = netsim.build_topology(n_nodes, seed=seed * 31 + 5)
    task, parts = build_task_fixture(cfg, [cfg.grid_alpha] * n_nodes, seed=seed * 7919 + 11)
    compute = netsim.draw_compute_times(n_nodes, seed=seed * 17 + 3)
    return chain.RoundSetup(
        task=task,
        latency=latency,
        compute_times=compute,
        miner_data=parts,
        n_pools=n_pools,
        seed=seed,
        train=cfg.train_config(),
        max_rounds=cfg.max_rounds,
        n_verifiers=cfg.n_verifiers,
        pow_difficulty=cfg.pow_difficulty,
        pow_trial_ms=cfg.pow_trial_ms,
    )


def run_grid_cell(cfg: ExperimentConfig, mode: str, n_nodes: int, n_pools: int, seed: int) -> dict:
    """One (mode, nodes, pools, seed) cell: simulate a round, report the
    time from task publication to the accepted block."""
    setup = build_round_setup(cfg, n_nodes, n_pools, seed)
    ledger = chain.Chain()
    result = chain.run_round(ledger, setup, mode)
    violations = chain.validate_chain(ledger)
    if violations:
        raise LedgerIntegrityError(
            f"{mode} round at n={n_nodes}, p={n_pools}, seed={seed} built an invalid ledger: "
            + "; ".join(violations)
        )
    winner = result.outcomes[result.winner_pool] if result.outcomes else None
    rounds = len(winner.metrics) if winner else 0
    return {
        "mode": mode,
        "n_nodes": n_nodes,
        "n_pools": n_pools,
        "seed": seed,
        "round": rounds,
        "winner_pool": result.winner_pool if result.winner_pool is not None else -1,
        "latency_ms": result.latency_ms,
        "accuracy": result.accuracy,
    }


def run_latency_grid(cfg: ExperimentConfig) -> list[dict]:
    """Full (mode x nodes x pools x seeds) grid. Each cell is computed once
    per key of what it depends on, `(mode, n, seed)` for the baselines,
    which do not depend on the pool count, and `(mode, n, p, seed)` for
    `fedchain`, and reused; infeasible pool counts are skipped with a
    warning."""
    rows: list[dict] = []
    cells: dict[tuple, dict] = {}
    for mode in cfg.modes:
        for n in cfg.n_nodes:
            for p in cfg.n_pools:
                for seed in cfg.seeds:
                    if p > n:
                        warnings.warn(f"skipping infeasible cell: {p} pools > {n} nodes")
                        continue
                    key = (mode, n, p, seed) if mode == "fedchain" else (mode, n, seed)
                    if key not in cells:
                        cells[key] = run_grid_cell(cfg, mode, n, p, seed)
                    rows.append({**cells[key], "n_pools": p})
    return rows


def latency_rows_to_csv(rows: list[dict]) -> str:
    lines = [LATENCY_COLUMNS]
    for r in rows:
        lines.append(
            f"{r['mode']},{r['n_nodes']},{r['n_pools']},{r['seed']},{r['round']},"
            f"{r['winner_pool']},{r['latency_ms']:.6f},{r['accuracy']:.6f}"
        )
    return "\n".join(lines) + "\n"


def latency_trend_checks(rows: list[dict], cfg: ExperimentConfig) -> list[Check]:
    """Encoded expectations: pooled decentralized training beats the
    whole-network ring and the centralized coordinator; more pools means
    lower latency; the coordinator's latency grows with node count. A check
    runs only when `cfg.modes` holds every mode it compares, and fails
    naming the first (mode, nodes, pools) cell it compares that has no rows."""
    n_cmp = 50 if 50 in cfg.n_nodes else max(cfg.n_nodes)
    p_cmp = 5 if 5 in cfg.n_pools else cfg.n_pools[0]

    def check(name, cells, holds, describe) -> Check:
        means = []
        for mode, n, p in cells:
            vals = [r["latency_ms"] for r in rows
                    if (r["mode"], r["n_nodes"], r["n_pools"]) == (mode, n, p)]
            if not vals:
                return name, False, f"no {mode} rows at n={n}, pools={p}"
            means.append(float(np.mean(vals)))
        return name, bool(holds(means)), describe(means)

    checks: list[Check] = []
    for rival in ("gfl_ring", "fedavg_central"):
        if "fedchain" in cfg.modes and rival in cfg.modes:
            checks.append(check(
                f"fedchain_below_{rival}", [("fedchain", n_cmp, p_cmp), (rival, n_cmp, p_cmp)],
                lambda m: m[0] < m[1],
                lambda m: f"fedchain {m[0]:.1f} ms vs {rival} {m[1]:.1f} ms "
                          f"at n={n_cmp}, pools={p_cmp}",
            ))
    pool_levels = sorted(p for p in cfg.n_pools if p <= n_cmp)
    if len(pool_levels) >= 2 and "fedchain" in cfg.modes:
        checks.append(check(
            "fedchain_latency_decreases_with_pools", [("fedchain", n_cmp, p) for p in pool_levels],
            lambda m: all(a > b for a, b in zip(m, m[1:])),
            lambda m: f"pools {pool_levels} -> {['%.1f' % x for x in m]} ms at n={n_cmp}",
        ))
    if "fedavg_central" in cfg.modes and len(cfg.n_nodes) >= 2:
        node_levels = sorted(cfg.n_nodes)
        checks.append(check(
            "fedavg_central_latency_grows_with_nodes",
            [("fedavg_central", n, cfg.n_pools[0]) for n in node_levels],
            lambda m: all(a < b for a, b in zip(m, m[1:])),
            lambda m: f"nodes {node_levels} -> {['%.1f' % x for x in m]} ms",
        ))
    return checks


def run_sweep_cell(cfg: ExperimentConfig, scheme: str, alpha: float, seed: int) -> dict:
    """One aggregation-scheme comparison cell: a single pool of miners,
    half holding data skewed to the sweep's alpha and half holding iid data,
    trained to the accuracy target.

    Heterogeneous divergence across miners is the regime where divergence
    weighting and size weighting actually differ; with every miner skewed
    alike the two schemes coincide. m unskewed slack parts, which no miner
    gets, keep the skewed draws from draining the class pools, so the iid
    miners stay genuinely iid.
    """
    m = cfg.sweep_miners
    grades = [alpha if j < m // 2 else 0.0 for j in range(m)]
    fixture_cfg = replace(cfg, samples_per_node=cfg.sweep_samples // m)
    task, parts = build_task_fixture(fixture_cfg, grades + [0.0] * m, seed=seed * 104729 + 7)
    parts = parts[:m]
    weights = aggregation_weights(scheme, parts, task.example)

    train_cfg = cfg.train_config(cfg.sweep_lr)
    model = DenseClassifier(task.arch, seed=seed)
    curve: list[float] = []
    rounds_to_target = cfg.sweep_max_rounds + 1
    for round_no in range(cfg.sweep_max_rounds):
        trained = [
            local_train(model, parts[j], train_cfg, seed=seed * 1009 + round_no * 97 + j)
            for j in range(m)
        ]
        model = model.clone(aggregate([t.weights for t in trained], weights))
        acc = evaluate(model, task.example)
        curve.append(acc)
        if acc >= cfg.target:
            rounds_to_target = round_no + 1
            break
    return {
        "scheme": scheme,
        "alpha": alpha,
        "seed": seed,
        "rounds_to_target": rounds_to_target,
        "final_accuracy": curve[-1],
        "curve": curve,
    }


def run_accuracy_sweep(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for scheme in ("fedavg", "kl"):
        for alpha in cfg.alphas:
            for seed in cfg.seeds:
                rows.append(run_sweep_cell(cfg, scheme, alpha, seed))
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    lines = [SWEEP_COLUMNS]
    for r in rows:
        lines.append(
            f"{r['scheme']},{r['alpha']:.2f},{r['seed']},{r['rounds_to_target']},"
            f"{r['final_accuracy']:.6f}"
        )
    return "\n".join(lines) + "\n"


def curve_rows_to_csv(rows: list[dict]) -> str:
    lines = [CURVE_COLUMNS]
    for r in rows:
        for idx, acc in enumerate(r["curve"]):
            lines.append(f"{r['scheme']},{r['alpha']:.2f},{r['seed']},{idx},{acc:.6f}")
    return "\n".join(lines) + "\n"


def accuracy_trend_checks(rows: list[dict], cfg: ExperimentConfig) -> list[Check]:
    """Encoded expectations: divergence weighting converges faster than size
    weighting under strong skew, and matches it under weak skew."""
    checks: list[Check] = []
    lo, hi = min(cfg.alphas), max(cfg.alphas)

    def rounds(scheme, alpha):
        return [r["rounds_to_target"] for r in rows if r["scheme"] == scheme and r["alpha"] == alpha]

    def finals(scheme, alpha):
        return [r["final_accuracy"] for r in rows if r["scheme"] == scheme and r["alpha"] == alpha]

    kl_hi, fa_hi = np.median(rounds("kl", hi)), np.median(rounds("fedavg", hi))
    checks.append(
        (
            "kl_faster_under_strong_skew",
            bool(kl_hi < fa_hi),
            f"median rounds to target at alpha={hi}: kl {kl_hi} vs fedavg {fa_hi}",
        )
    )
    kl_lo, fa_lo = np.array(finals("kl", lo)), np.array(finals("fedavg", lo))
    fewest = min(len(kl_lo), len(fa_lo))
    if fewest < 2:  # a pooled sd needs two rows per scheme
        passed, detail = False, f"needs two seeds per scheme at alpha={lo}, got {fewest}"
    else:
        pooled_sd = float(np.sqrt((kl_lo.std(ddof=1) ** 2 + fa_lo.std(ddof=1) ** 2) / 2))
        gap = abs(float(kl_lo.mean() - fa_lo.mean()))
        passed = bool(gap <= 2 * pooled_sd + 1e-9)
        detail = f"|acc gap| {gap:.4f} vs 2 x pooled sd {2 * pooled_sd:.4f} at alpha={lo}"
    checks.append(("schemes_match_under_weak_skew", passed, detail))
    return checks


@dataclass(frozen=True)
class Grid:
    """One experiment grid, from its rows to its artifacts: the function that
    runs its rows, its CSV files with the function that writes each, its
    report section's title and its trend checks."""

    run: Callable[[ExperimentConfig], list[dict]]
    csvs: tuple[tuple[str, Callable[[list[dict]], str]], ...]
    title: str
    checks: Callable[[list[dict], ExperimentConfig], list[Check]]


# By the CLI command that runs each grid and that `emit_report` takes its rows
# by, in the order the report lists them.
GRIDS = {
    "latency-grid": Grid(
        run_latency_grid, (("latency_grid.csv", latency_rows_to_csv),),
        "Latency grid", latency_trend_checks,
    ),
    "accuracy-sweep": Grid(
        run_accuracy_sweep,
        (("accuracy_sweep.csv", sweep_rows_to_csv), ("accuracy_curves.csv", curve_rows_to_csv)),
        "Accuracy sweep", accuracy_trend_checks,
    ),
}


def emit_report(cfg: ExperimentConfig, rows: dict[str, list[dict]]) -> tuple[list[str], list[Check]]:
    """Write into `cfg.out_dir` the CSV files of each grid in `rows`, keyed
    as in `GRIDS` (another key is refused by name), plus a markdown summary
    of its trend checks; returns the written paths and the checks, grid
    after grid. Identical inputs produce byte-identical files (the config
    fingerprint is embedded so runs can be reproduced)."""
    unknown = [key for key in rows if key not in GRIDS]
    if unknown:
        raise ValueError(f"no grid named {unknown[0]!r}; grids are {list(GRIDS)}")
    if not any(rows.values()):
        raise EmptyReportError("no run records to report")
    files: list[tuple[str, str]] = []
    checks: list[Check] = []
    report_lines = ["# Experiment report", "", f"Config fingerprint: `{cfg.fingerprint()}`", ""]
    for key, grid in GRIDS.items():
        grid_rows = rows.get(key)
        if not grid_rows:
            continue
        files += [(name, to_csv(grid_rows)) for name, to_csv in grid.csvs]
        grid_checks = grid.checks(grid_rows, cfg)
        checks += grid_checks
        report_lines += [f"## {grid.title}", ""]
        report_lines += [f"- {'PASS' if ok else 'FAIL'} {name}: {detail}"
                         for name, ok, detail in grid_checks]
        report_lines.append("")
    files.append(("report.md", "\n".join(report_lines)))
    os.makedirs(cfg.out_dir, exist_ok=True)
    written = [os.path.join(cfg.out_dir, name) for name, _ in files]
    for path, (_, text) in zip(written, files):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return written, checks
