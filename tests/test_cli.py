import csv
from dataclasses import replace

import pytest

from fedchain import cli, experiments
from fedchain.experiments import ExperimentConfig


def test_single_round_writes_and_validates_ledger(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    rc = cli.main(
        [
            "single-round",
            "--nodes", "8",
            "--pools", "2",
            "--seed", "1",
            "--ledger", str(ledger_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency_ms=" in out
    assert ledger_path.exists()

    rc = cli.main(["validate-chain", str(ledger_path)])
    assert rc == 0
    assert "no violations" in capsys.readouterr().out


def test_validate_chain_flags_corruption(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.jsonl"
    cli.main(
        ["single-round", "--nodes", "6", "--pools", "2", "--seed", "2",
         "--ledger", str(ledger_path)]
    )
    capsys.readouterr()
    lines = ledger_path.read_text().splitlines()
    corrupted = [
        line.replace('"prev_hash": "', '"prev_hash": "00', 1) if '"type": "block"' in line and '"height": 1' in line else line
        for line in lines
    ]
    ledger_path.write_text("\n".join(corrupted) + "\n")
    rc = cli.main(["validate-chain", str(ledger_path)])
    assert rc == 1
    assert "violation" in capsys.readouterr().out


def test_latency_grid_cli(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "modes: [pow]\nn_nodes: [6]\nn_pools: [2]\nseeds: [0]\npow_difficulty: 6\n"
    )
    rc = cli.main(
        ["latency-grid", "--config", str(cfg), "--out", str(tmp_path / "results")]
    )
    out = capsys.readouterr().out
    assert (tmp_path / "results" / "latency_grid.csv").exists()
    assert (tmp_path / "results" / "report.md").exists()
    # a pow-only grid has no trend checks to fail
    assert rc == 0
    assert "wrote" in out


def test_accuracy_sweep_cli(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "alphas: [0.1, 0.8]\nseeds: [0, 1, 2]\nsweep_miners: 6\n"
        "sweep_samples: 600\nsweep_max_rounds: 30\n"
    )
    rc = cli.main(
        ["accuracy-sweep", "--config", str(cfg), "--out", str(tmp_path / "results")]
    )
    out = capsys.readouterr().out
    assert (tmp_path / "results" / "accuracy_sweep.csv").exists()
    assert (tmp_path / "results" / "accuracy_curves.csv").exists()
    assert "kl_faster_under_strong_skew" in out
    assert rc == 0


def test_latency_grid_without_fedchain_compares_only_what_ran(tmp_path, capsys):
    out = tmp_path / "results"
    rc = cli.main(["latency-grid", "--modes", "gfl_ring", "fedavg_central", "--nodes", "20",
                   "--pools", "2", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "fedchain" not in printed and "nan" not in printed
    assert "fedchain" not in (out / "report.md").read_text()


@pytest.mark.parametrize("argv, message", [
    (["single-round", "--nodes", "6", "--pools", "2", "--ledger", "missing/x.jsonl"],
     "error: [Errno 2] No such file or directory: 'missing/x.jsonl'"),
    (["latency-grid", "--modes", "pow", "--nodes", "6", "--pools", "2",
      "--out", "a_file/results"],
     "error: [Errno 20] Not a directory: 'a_file/results'"),
    (["latency-grid", "--modes", "pow", "--nodes", "6", "--pools", "2", "--out", "a_file"],
     "error: [Errno 17] File exists: 'a_file'"),
])
def test_output_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    ran = []
    for key, grid in experiments.GRIDS.items():
        monkeypatch.setitem(experiments.GRIDS, key, replace(grid, run=ran.append))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == message + "\n"
    assert ran == []  # the grid never ran


@pytest.mark.parametrize("argv, message", [
    (["--pools", "0", "--nodes", "6", "--modes", "pow"], "pool count must be >= 1, got 0"),
    (["--pools", "0", "--nodes", "6", "--modes", "fedchain"], "pool count must be >= 1, got 0"),
    (["--pools", "2", "--nodes", "6", "1", "--modes", "pow"], "need at least 2 nodes, got 1"),
    (["--pools", "0", "--nodes", "6", "-2", "--modes", "fedchain"], "need at least 2 nodes, got -2"),
])
def test_grid_axis_out_of_range_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, argv,
                                                         message):
    ran = []
    monkeypatch.setitem(experiments.GRIDS, "latency-grid",
                        replace(experiments.GRIDS["latency-grid"], run=ran.append))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["latency-grid", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert ran == []  # the grid never ran
    assert not (tmp_path / "results").exists()


BAD_HEADER = "line 1: header must be three positive ints n_samples,n_features,n_classes, got "


@pytest.mark.parametrize("command", ["latency-grid", "accuracy-sweep"])
@pytest.mark.parametrize("body, message", [
    ("3,4\n", BAD_HEADER + "'3,4'"),
    ("0,4,2\n", BAD_HEADER + "'0,4,2'"),
    ("n,f,c\n", BAD_HEADER + "'n,f,c'"),
    ("\udcff1,2,3\n", BAD_HEADER + "'\ufffd1,2,3'"),  # a byte that is not UTF-8
    ("2,2,3\n0.1,0.2,1\n0.3,1\n", "line 3: 2 fields, need 3"),
    ("2,2,3\n0.1,0.2,1,0\n0.3,0.4,1\n", "line 2: 4 fields, need 3"),
    ("2,2,3\n0.1,x,1\n0.3,0.4,1\n", "line 2: could not convert string to float: 'x'"),
    ("1,2,3\n0.1,0.2,1.5\n", "line 2: invalid literal for int() with base 10: '1.5'"),
    ("2,2,3\n0.1,0.2,1\n0.3,0.4,3\n", "line 3: label 3 outside [0, 3)"),
    ("1,2,3\n0.1,0.2,-1\n", "line 2: label -1 outside [0, 3)"),
    ("3,2,3\n0.1,0.2,1\n", "line 3: header declares 3 rows, found 1"),
    # a header far larger than the file is refused, not allocated
    ("1000000000000,2,3\n0.1,0.2,1\n", "line 3: header declares 1000000000000 rows, found 1"),
    ("1,1000000000000,3\n0.1,1\n", "line 2: 2 fields, need 1000000000001"),
    ("3,2,3\n0.1,0.2,1\n0.3,0.4,2\n0.5,0.6,0\n", "has 3 samples, need {need}"),
])
def test_bad_dataset_fixture_exits_2(tmp_path, monkeypatch, capsys, command, body, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.csv").write_bytes(body.encode(errors="surrogateescape"))  # \udcff -> 0xff
    (tmp_path / "cfg.yaml").write_text(
        "dataset_path: tiny.csv\nmodes: [pow]\nn_nodes: [6]\nn_pools: [2]\nseeds: [0]\n"
    )
    assert cli.main([command, "--config", "cfg.yaml"]) == 2
    captured = capsys.readouterr()
    need = {"latency-grid": 400 + 600 + 40 * 6, "accuracy-sweep": 400 + 600 + 1600 // 8 * 16}
    assert captured.err == f"error: fixture tiny.csv {message.format(need=need[command])}\n"
    assert captured.out == ""


def test_validate_chain_refuses_an_empty_ledger(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert cli.main(["validate-chain", str(path)]) == 1
    assert capsys.readouterr().out == "violation: no genesis record: no block at height 0\n"


def test_unknown_mode_rejected():
    with pytest.raises(SystemExit):
        cli.main(["single-round", "--mode", "bogus"])


@pytest.mark.parametrize("argv, message", [
    (["single-round", "--nodes", "5", "--pools", "9"], "error: 9 pools for 5 nodes"),
    (["single-round", "--nodes", "0", "--pools", "0"], "error: need at least 2 nodes, got 0"),
    (["latency-grid", "--nodes", "0", "--pools", "0"], "error: need at least 2 nodes, got 0"),
    (["single-round", "--nodes", "-3", "--pools", "1"], "error: need at least 2 nodes, got -3"),
    (["validate-chain", "missing.jsonl"], "error: [Errno 2] No such file or directory"),
    (["latency-grid", "--config", "missing.yaml"], "error: [Errno 2] No such file or directory"),
    (["single-round", "--config", "missing.yaml"], "error: [Errno 2] No such file or directory"),
])
def test_named_error_or_missing_file_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("body, message", [
    ("5\n", "must hold a mapping of keys, not int"),
    ("n_nodes: 20\n", "config key 'n_nodes' must be a list, got 20"),
    ("modes: fedchain\n", "config key 'modes' must be a list, got 'fedchain'"),
    ("modes: [fedchain\n", "is not valid YAML"),
    ("lr: fast\n", "config key 'lr' must be float, got 'fast'"),
    ("n_nodes: [six]\n", "config key 'n_nodes' must hold int, got 'six'"),
    ("n_nodes: [20, true]\n", "config key 'n_nodes' must hold int, got True"),
    ("alphas: [0.1, high]\n", "config key 'alphas' must hold float, got 'high'"),
    ("target: yes\n", "config key 'target' must be float, got True"),
    ("max_rounds: 2.5\n", "config key 'max_rounds' must be int, got 2.5"),
    ("out_dir: 7\n", "config key 'out_dir' must be str, got 7"),
    ("dataset_path: [a.csv]\n", "config key 'dataset_path' must be str or null, got ['a.csv']"),
])
def test_malformed_config_exits_2(tmp_path, capsys, body, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body)
    rc = cli.main(["latency-grid", "--config", str(cfg), "--out", str(tmp_path / "results")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["single-round", "latency-grid", "accuracy-sweep"])
@pytest.mark.parametrize("body, message", [
    ("target: 0.0\n", "accuracy target must be in (0, 1], got 0.0"),
    ("target: 1.5\n", "accuracy target must be in (0, 1], got 1.5"),
    ("lr: -1\n", "learning rate must be >= 0, got -1"),
    ("sweep_lr: -0.5\n", "learning rate must be >= 0, got -0.5"),
    ("epochs: 0\n", "epochs must be >= 1, got 0"),
    ("batch_size: 0\n", "batch size must be >= 1, got 0"),
    ("batch_size: -4\n", "batch size must be >= 1, got -4"),
    ("sweep_miners: 0\n", "sweep_miners must be >= 1, got 0"),
    ("sweep_max_rounds: 0\n", "sweep_max_rounds must be >= 1, got 0"),
    ("example_size: 0\n", "example_size must be >= 1, got 0"),
    ("held_out_size: -5\n", "held_out_size must be >= 0, got -5"),
    ("n_features: 0\n", "n_features must be >= 1, got 0"),
    ("n_features: -2\n", "n_features must be >= 1, got -2"),
    ("n_classes: 0\n", "n_classes must be >= 1, got 0"),
    ("samples_per_node: -100\n", "samples_per_node must be >= 1, got -100"),
    ("samples_per_node: 0\n", "samples_per_node must be >= 1, got 0"),
    ("sweep_samples: 3\n", "sweep_samples must be >= sweep_miners (8), got 3"),
    ("modes: [bogus]\n",
     "modes must be in ['fedchain', 'fedavg_central', 'pow', 'gfl_ring'], got 'bogus'"),
    ("pow_difficulty: 300\n", "pow_difficulty must be in [0, 56], got 300"),
    ("pow_difficulty: 57\n", "pow_difficulty must be in [0, 56], got 57"),
    ("pow_difficulty: -1\n", "pow_difficulty must be in [0, 56], got -1"),
    ("pow_trial_ms: -1\n", "pow_trial_ms must be finite and >= 0, got -1"),
    ("pow_trial_ms: .nan\n", "pow_trial_ms must be finite and >= 0, got nan"),
    ("pow_trial_ms: .inf\n", "pow_trial_ms must be finite and >= 0, got inf"),
    ("n_nodes: [6, 1]\n", "need at least 2 nodes, got 1"),
    ("n_pools: [2, 0]\n", "pool count must be >= 1, got 0"),
])
def test_out_of_range_config_exits_2(tmp_path, monkeypatch, capsys, command, body, message):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body)
    assert cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {cfg}: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["single-round", "latency-grid", "accuracy-sweep"])
@pytest.mark.parametrize("body, message", [
    ("alphas: [0.1, 1.5]\n", "alphas must be in [0, 1], got 1.5"),
    ("alphas: [-0.5]\n", "alphas must be in [0, 1], got -0.5"),
    ("alphas: [.nan]\n", "alphas must be in [0, 1], got nan"),
    ("grid_alpha: 1.5\n", "grid_alpha must be in [0, 1], got 1.5"),
    ("seeds: [0, -1]\n", "seeds must be >= 0, got -1"),
])
def test_alpha_or_seed_out_of_range_in_config_exits_2(tmp_path, monkeypatch, capsys, command,
                                                      body, message):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(body)
    assert cli.main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config file {cfg}: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("argv, message", [
    (["accuracy-sweep", "--alphas", "0.2", "1.5"], "alphas must be in [0, 1], got 1.5"),
    (["accuracy-sweep", "--alphas", "nan"], "alphas must be in [0, 1], got nan"),
    (["accuracy-sweep", "--seed", "-3"], "seeds must be >= 0, got -3"),
    (["latency-grid", "--seed", "-3"], "seeds must be >= 0, got -3"),
    (["single-round", "--seed", "-3"], "seeds must be >= 0, got -3"),
])
def test_out_of_range_flag_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.chdir(tmp_path)
    for name in ("run_sweep_cell", "run_grid_cell", "build_round_setup"):
        monkeypatch.setattr(experiments, name, refuse)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_pow_range_edges_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    for body in ("pow_difficulty: 0\npow_trial_ms: 0\n", "pow_difficulty: 56\n"):
        cfg.write_text(body)
        assert cli.main(["single-round", "--mode", "pow", "--nodes", "6", "--pools", "2",
                         "--config", str(cfg)]) == 0
        assert "latency_ms=" in capsys.readouterr().out


def test_config_takes_ints_for_floats_and_null_for_the_dataset(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("lr: 1\nalphas: [0, 0.5]\ndataset_path: null\nseeds: []\n")
    loaded = ExperimentConfig.from_file(str(cfg))
    assert (loaded.lr, loaded.alphas, loaded.dataset_path, loaded.seeds) == (1, [0, 0.5], None, [])


@pytest.mark.parametrize("argv", [
    ["accuracy-sweep", "--nodes", "5"],
    ["accuracy-sweep", "--pools", "9"],
    ["accuracy-sweep", "--nodes", "5", "--pools", "9"],
    ["single-round", "--out", "results"],
    ["single-round", "--nodes", "6", "7"],
    ["single-round", "--pools", "2", "3"],
])
def test_flag_a_subcommand_does_not_take_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_latency_grid_takes_every_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("modes: [fedchain]\nn_nodes: [50]\nn_pools: [5]\nseeds: [0, 1]\n"
                   "pow_difficulty: 6\n")
    out = tmp_path / "grid"
    rc = cli.main(["latency-grid", "--config", str(cfg), "--out", str(out), "--modes", "pow",
                   "--nodes", "6", "7", "--pools", "2", "--seed", "10"])
    assert rc == 0
    rows = read_rows(out / "latency_grid.csv")
    assert [(r["mode"], r["n_nodes"], r["n_pools"], r["seed"]) for r in rows] == [
        ("pow", n, "2", seed) for n in ("6", "7") for seed in ("10", "11")]
    assert f"wrote {out / 'report.md'}" in capsys.readouterr().out


def test_accuracy_sweep_takes_every_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("alphas: [0.1]\nseeds: [0, 1]\nsweep_miners: 4\nsweep_samples: 400\n"
                   "sweep_max_rounds: 3\n")
    out = tmp_path / "sweep"
    cli.main(["accuracy-sweep", "--config", str(cfg), "--out", str(out),
              "--alphas", "0.2", "0.7", "--seed", "5"])
    rows = read_rows(out / "accuracy_sweep.csv")
    assert [(r["scheme"], r["alpha"], r["seed"]) for r in rows] == [
        (scheme, alpha, seed) for scheme in ("fedavg", "kl") for alpha in ("0.20", "0.70")
        for seed in ("5", "6")]
    assert "schemes_match_under_weak_skew" in capsys.readouterr().out


def test_single_round_takes_every_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    ledger = tmp_path / "ledger.jsonl"
    argv = ["single-round", "--mode", "gfl_ring", "--nodes", "8", "--pools", "2", "--seed", "3",
            "--ledger", str(ledger)]
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert default.startswith("mode=gfl_ring n=8 pools=2 seed=3 ")
    assert ledger.exists() and f"wrote {ledger}" in default
    # the config file sets the round's fixture
    cfg.write_text("separation: 6.0\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    configured = capsys.readouterr().out
    assert configured.startswith("mode=gfl_ring n=8 pools=2 seed=3 ")
    assert configured.split()[4] != default.split()[4]  # latency_ms


def test_single_round_defaults(capsys):
    assert cli.main(["single-round"]) == 0
    assert capsys.readouterr().out.startswith("mode=fedchain n=20 pools=4 seed=0 ")
