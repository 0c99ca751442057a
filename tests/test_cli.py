import pytest

from fedchain import cli


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


def test_unknown_mode_rejected():
    with pytest.raises(SystemExit):
        cli.main(["single-round", "--mode", "bogus"])


@pytest.mark.parametrize("argv, message", [
    (["single-round", "--nodes", "5", "--pools", "9"], "error: 9 pools for 5 nodes"),
    (["validate-chain", "missing.jsonl"], "error: [Errno 2] No such file or directory"),
    (["latency-grid", "--config", "missing.yaml"], "error: [Errno 2] No such file or directory"),
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

