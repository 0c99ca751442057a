import re
from dataclasses import replace

import numpy as np
import pytest

from fedchain import chain, data, experiments
from fedchain.errors import DatasetFixtureError, EmptyReportError, LedgerIntegrityError
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
        ExperimentConfig(example_size=1, held_out_size=0, n_features=1, n_classes=1,
                         samples_per_node=1, sweep_miners=1, sweep_samples=1,
                         modes=list(chain.MODES)).check()

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
        task, parts = experiments.build_task_fixture(cfg, [0.2] * 4, seed=0)
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
        with pytest.raises(DatasetFixtureError, match="has 50 samples, need 1160"):
            experiments.build_task_fixture(cfg, [0.2] * 4, seed=0)

    @pytest.mark.parametrize("alphas", [[0.5], [0.0, 1.0, 0.3], [0.1] * 9])
    def test_fixture_has_one_part_per_alpha(self, alphas):
        cfg = ExperimentConfig(samples_per_node=20, example_size=50, held_out_size=10)
        task, parts = experiments.build_task_fixture(cfg, alphas, seed=4)
        assert len(parts) == len(alphas)
        assert sum(len(p) for p in parts) <= 20 * len(alphas)

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


class TestFixtureCache:
    """A `dataset_path` fixture is parsed once while its file is unchanged."""

    @staticmethod
    def write_fixture(path, rows):
        data.save_csv(data.make_blobs(rows, n_features=12, n_classes=10, seed=1, separation=4.0),
                      str(path))

    @staticmethod
    def count_parses(monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return data.load_csv(path)

        monkeypatch.setattr(experiments, "load_csv", counting)
        monkeypatch.setattr(experiments, "_FIXTURE", {})
        return calls

    def test_grid_parses_once_and_matches_a_parse_per_cell(self, tmp_path, monkeypatch):
        path = tmp_path / "fixture.csv"
        self.write_fixture(path, 3000)
        cfg = tiny_grid_config(modes=["pow", "fedchain"], n_nodes=[6, 8], n_pools=[2, 3],
                               seeds=[0, 1, 2], dataset_path=str(path))
        calls = self.count_parses(monkeypatch)
        cached = experiments.latency_rows_to_csv(experiments.run_latency_grid(cfg))
        assert calls == [str(path)]
        cell = experiments.run_grid_cell

        def uncached_cell(*args):
            experiments._FIXTURE.clear()
            return cell(*args)

        monkeypatch.setattr(experiments, "run_grid_cell", uncached_cell)
        assert experiments.latency_rows_to_csv(experiments.run_latency_grid(cfg)) == cached
        assert len(calls) == 1 + 2 * 3 + 2 * 2 * 3  # pow per (n, seed), fedchain per cell

    def test_shared_rows_are_read_only(self, tmp_path, monkeypatch):
        path = tmp_path / "fixture.csv"
        self.write_fixture(path, 1500)
        self.count_parses(monkeypatch)
        full = experiments._parsed_fixture(str(path))
        assert not full.x.flags.writeable and not full.y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            full.x[0, 0] = 1.0

    def test_a_fixture_rewritten_with_another_size_is_read_again(self, tmp_path, monkeypatch):
        path = tmp_path / "fixture.csv"
        self.write_fixture(path, 3000)
        calls = self.count_parses(monkeypatch)
        assert len(experiments._parsed_fixture(str(path))) == 3000
        assert len(experiments._parsed_fixture(str(path))) == 3000
        self.write_fixture(path, 2999)
        assert len(experiments._parsed_fixture(str(path))) == 2999
        assert len(calls) == 2


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

    def test_latency_checks_compare_only_the_modes_that_ran(self):
        cfg = ExperimentConfig(modes=["gfl_ring", "fedavg_central"], n_nodes=[10, 20],
                               n_pools=[2, 5], seeds=[0])
        rows = [dict(mode=mode, n_nodes=n, n_pools=p, seed=0, round=1, winner_pool=0,
                     latency_ms=100.0 + n, accuracy=0.9)
                for mode in cfg.modes for n in cfg.n_nodes for p in cfg.n_pools]
        names = [name for name, _, _ in experiments.latency_trend_checks(rows, cfg)]
        assert names == ["fedavg_central_latency_grows_with_nodes"]

    def test_a_compared_cell_without_rows_fails_naming_it(self):
        cfg = ExperimentConfig(modes=["fedchain", "gfl_ring", "fedavg_central"], n_nodes=[6, 20],
                               n_pools=[7], seeds=[0])
        # p=7 > n=6 is skipped by the grid, so no row has (n=6, pools=7)
        rows = [dict(mode=mode, n_nodes=20, n_pools=7, seed=0, round=1, winner_pool=0,
                     latency_ms=latency, accuracy=0.9)
                for mode, latency in (("gfl_ring", 500.0), ("fedavg_central", 900.0))]
        checks = {name: (ok, detail)
                  for name, ok, detail in experiments.latency_trend_checks(rows, cfg)}
        assert checks == {
            "fedchain_below_gfl_ring": (False, "no fedchain rows at n=20, pools=7"),
            "fedchain_below_fedavg_central": (False, "no fedchain rows at n=20, pools=7"),
            "fedavg_central_latency_grows_with_nodes": (False,
                                                        "no fedavg_central rows at n=6, pools=7"),
        }

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

    def test_one_seed_fails_the_weak_skew_check_without_nan(self):
        cfg = ExperimentConfig(alphas=[0.1, 0.8], seeds=[0])
        rows = [dict(scheme=scheme, alpha=alpha, seed=0, rounds_to_target=2,
                     final_accuracy=0.93, curve=[0.93])
                for scheme in ("kl", "fedavg") for alpha in cfg.alphas]
        checks = {name: (ok, detail)
                  for name, ok, detail in experiments.accuracy_trend_checks(rows, cfg)}
        ok, detail = checks["schemes_match_under_weak_skew"]
        assert not ok
        assert detail == "needs two seeds per scheme at alpha=0.1, got 1"


class TestReport:
    @pytest.mark.parametrize("rows", [{}, {"latency-grid": [], "accuracy-sweep": []}])
    def test_empty_report_rejected(self, tmp_path, rows):
        with pytest.raises(EmptyReportError):
            experiments.emit_report(ExperimentConfig(out_dir=str(tmp_path)), rows)

    def test_unknown_rows_key_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="no grid named 'latency_rows'"):
            experiments.emit_report(ExperimentConfig(out_dir=str(out)), {"latency_rows": [{}]})
        assert not out.exists()

    def test_report_bytes_deterministic(self, tmp_path):
        # two configs that differ only in out_dir: one fingerprint, one set of bytes
        a = tiny_grid_config(modes=["pow"], n_nodes=[6], n_pools=[2], out_dir=str(tmp_path / "a"))
        b = replace(a, out_dir=str(tmp_path / "b"))
        assert a.fingerprint() == b.fingerprint()
        rows = experiments.run_latency_grid(a)
        for cfg in (a, b):
            experiments.emit_report(cfg, {"latency-grid": rows})
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        assert names == ["latency_grid.csv", "report.md"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_report_embeds_fingerprint(self, tmp_path):
        cfg = tiny_grid_config(modes=["pow"], n_nodes=[6], n_pools=[2], out_dir=str(tmp_path))
        rows = experiments.run_latency_grid(cfg)
        experiments.emit_report(cfg, {"latency-grid": rows})
        assert cfg.fingerprint() in (tmp_path / "report.md").read_text()
