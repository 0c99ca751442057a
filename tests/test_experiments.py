import re

import numpy as np
import pytest

from fedchain import experiments
from fedchain.errors import EmptyReportError, LedgerIntegrityError
from fedchain.experiments import ExperimentConfig


def tiny_grid_config(**overrides):
    defaults = dict(
        modes=["fedchain", "gfl_ring", "fedavg_central", "pow"],
        n_nodes=[6, 8],
        n_pools=[2, 7],
        seeds=[0],
        samples_per_node=40,
        epochs=2,
        max_rounds=30,
        pow_difficulty=6,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def tiny_sweep_config(**overrides):
    defaults = dict(
        alphas=[0.1, 0.8],
        seeds=[0, 1],
        sweep_miners=4,
        sweep_samples=480,
        sweep_max_rounds=25,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("n_nodes: [5]\nseeds: [3]\nlr: 0.25\n")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.n_nodes == [5]
        assert cfg.seeds == [3]
        assert cfg.lr == 0.25
        assert cfg.modes  # defaults survive

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("not_a_knob: 1\n")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize("body", ["5\n", "[1, 2]\n", "just text\n"])
    def test_top_level_not_a_mapping_names_the_file(self, tmp_path, body):
        path = tmp_path / "cfg.yaml"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"config file {re.escape(str(path))} must hold a "
                                             "mapping"):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize("key", ["modes", "n_nodes", "n_pools", "alphas", "seeds"])
    @pytest.mark.parametrize("value", ["fedchain", "20", "0.5"])
    def test_list_field_without_a_list_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ValueError, match=f"config key '{key}' must be a list"):
            ExperimentConfig.from_file(str(path))

    def test_invalid_yaml_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seeds: [1,\n")
        with pytest.raises(ValueError, match=f"config file {re.escape(str(path))} is not valid"):
            ExperimentConfig.from_file(str(path))

    def test_empty_file_is_the_default_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert ExperimentConfig.from_file(str(path)) == ExperimentConfig()

    def test_check_accepts_the_smallest_sizes(self):
        ExperimentConfig(example_size=1, held_out_size=0).check()

    def test_fingerprint_tracks_content(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        assert a.fingerprint() == b.fingerprint()
        assert ExperimentConfig(lr=0.9).fingerprint() != a.fingerprint()


class TestLatencyGrid:
    def test_cell_deterministic(self):
        cfg = tiny_grid_config()
        a = experiments.run_grid_cell(cfg, "fedchain", 6, 2, seed=1)
        b = experiments.run_grid_cell(cfg, "fedchain", 6, 2, seed=1)
        assert a == b

    def test_invalid_ledger_raises_a_named_error(self, monkeypatch):
        # a check that survives `python -O`, unlike an assert
        monkeypatch.setattr(experiments.chain, "validate_chain", lambda ledger: ["block 1: forged"])
        with pytest.raises(LedgerIntegrityError, match="seed=1 built an invalid ledger: block 1: forged"):
            experiments.run_grid_cell(tiny_grid_config(), "fedchain", 6, 2, seed=1)

    def test_grid_skips_infeasible_and_counts_rows(self):
        cfg = tiny_grid_config()
        with pytest.warns(UserWarning, match="infeasible"):
            rows = experiments.run_latency_grid(cfg)
        # pools=7 infeasible at n=6: one skip per mode and seed
        expected = len(cfg.modes) * ((2 * 2) - 1) * len(cfg.seeds)
        assert len(rows) == expected
        assert not any(r["n_pools"] > r["n_nodes"] for r in rows)

    def test_dataset_fixture_path(self, tmp_path):
        from fedchain import data

        ds = data.make_blobs(900, n_features=5, n_classes=4, seed=1, separation=4.0)
        path = tmp_path / "fixture.csv"
        data.save_csv(ds, str(path))
        cfg = ExperimentConfig(
            dataset_path=str(path),
            example_size=100,
            held_out_size=200,
            samples_per_node=40,
        )
        task, parts = experiments.build_task_fixture(cfg, n_nodes=4, seed=0, alpha=0.2)
        assert task.arch.n_features == 5
        assert task.arch.n_classes == 4
        assert len(task.example) == 100
        assert len(parts) == 4

    def test_dataset_fixture_too_small(self, tmp_path):
        from fedchain import data

        ds = data.make_blobs(50, n_features=5, n_classes=4, seed=1)
        path = tmp_path / "fixture.csv"
        data.save_csv(ds, str(path))
        cfg = ExperimentConfig(dataset_path=str(path))
        with pytest.raises(ValueError, match="samples"):
            experiments.build_task_fixture(cfg, n_nodes=4, seed=0, alpha=0.2)

    def test_baseline_latency_independent_of_pools(self):
        cfg = tiny_grid_config(n_nodes=[8])
        rows = experiments.run_latency_grid(cfg)
        ring = [r for r in rows if r["mode"] == "gfl_ring"]
        assert len({r["latency_ms"] for r in ring}) == 1

    def test_csv_bytes_deterministic(self):
        cfg = tiny_grid_config(modes=["pow"], n_nodes=[6], n_pools=[2])
        a = experiments.latency_rows_to_csv(experiments.run_latency_grid(cfg))
        b = experiments.latency_rows_to_csv(experiments.run_latency_grid(cfg))
        assert a == b
        assert a.splitlines()[0] == experiments.LATENCY_COLUMNS


class TestSweep:
    def test_cell_deterministic(self):
        cfg = tiny_sweep_config()
        a = experiments.run_sweep_cell(cfg, "kl", 0.8, seed=0)
        b = experiments.run_sweep_cell(cfg, "kl", 0.8, seed=0)
        assert a == b

    def test_sweep_shape(self):
        cfg = tiny_sweep_config()
        rows = experiments.run_accuracy_sweep(cfg)
        assert len(rows) == 2 * len(cfg.alphas) * len(cfg.seeds)
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"fedavg", "kl"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregation scheme: median"):
            experiments.run_sweep_cell(tiny_sweep_config(), "median", 0.8, seed=0)


class TestTrendChecks:
    def test_latency_checks_on_synthetic_rows(self):
        cfg = ExperimentConfig(
            modes=["fedchain", "gfl_ring", "fedavg_central"],
            n_nodes=[10, 20],
            n_pools=[2, 5],
            seeds=[0],
        )
        rows = []
        for mode, base in (("fedchain", 100.0), ("gfl_ring", 500.0), ("fedavg_central", 900.0)):
            for n in cfg.n_nodes:
                for p in cfg.n_pools:
                    latency = base + (n if mode == "fedavg_central" else 0) - 5 * p
                    rows.append(
                        dict(mode=mode, n_nodes=n, n_pools=p, seed=0, round=1,
                             winner_pool=0, latency_ms=latency, accuracy=0.9)
                    )
        checks = dict(
            (name, ok) for name, ok, _ in experiments.latency_trend_checks(rows, cfg)
        )
        assert checks["fedchain_below_gfl_ring"]
        assert checks["fedchain_below_fedavg_central"]
        assert checks["fedchain_latency_decreases_with_pools"]
        assert checks["fedavg_central_latency_grows_with_nodes"]

    def test_accuracy_checks_on_synthetic_rows(self):
        cfg = ExperimentConfig(alphas=[0.1, 0.8], seeds=[0, 1, 2])
        rows = []
        for scheme, hi_rounds in (("kl", 3), ("fedavg", 9)):
            for alpha in cfg.alphas:
                for seed in cfg.seeds:
                    rows.append(
                        dict(scheme=scheme, alpha=alpha, seed=seed,
                             rounds_to_target=hi_rounds if alpha == 0.8 else 2,
                             final_accuracy=0.93 + 0.001 * seed, curve=[0.93])
                    )
        checks = dict(
            (name, ok) for name, ok, _ in experiments.accuracy_trend_checks(rows, cfg)
        )
        assert checks["kl_faster_under_strong_skew"]
        assert checks["schemes_match_under_weak_skew"]


class TestReport:
    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(EmptyReportError):
            experiments.emit_report(ExperimentConfig(), str(tmp_path))

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = tiny_grid_config(modes=["pow"], n_nodes=[6], n_pools=[2])
        rows = experiments.run_latency_grid(cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        experiments.emit_report(cfg, str(out_a), latency_rows=rows)
        experiments.emit_report(cfg, str(out_b), latency_rows=rows)
        for name in ("latency_grid.csv", "report.md"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_report_embeds_fingerprint(self, tmp_path):
        cfg = tiny_grid_config(modes=["pow"], n_nodes=[6], n_pools=[2])
        rows = experiments.run_latency_grid(cfg)
        experiments.emit_report(cfg, str(tmp_path), latency_rows=rows)
        assert cfg.fingerprint() in (tmp_path / "report.md").read_text()
