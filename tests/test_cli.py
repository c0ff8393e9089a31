import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ensteal
from ensteal.cli import main
from ensteal.datapool import load_dataset
from ensteal.numkit import load_model


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    train, test = d / "train.aotd", d / "test.aotd"
    common = ["--source", "gaussian_mixture", "--classes", "3", "--dim", "5", "--separation", "4.0"]
    assert run_cli("gen-data", *common, "--n", "500", "--seed", "1", "--out", str(train)) == 0
    assert run_cli("gen-data", *common, "--n", "200", "--seed", "2", "--out", str(test)) == 0
    return train, test


@pytest.fixture(scope="module")
def victim_ckpt(data_files, tmp_path_factory):
    train, test = data_files
    out = tmp_path_factory.mktemp("vic") / "v.ckpt"
    rc = run_cli(
        "train-victim", "--train", str(train), "--test", str(test),
        "--hidden", "12,12", "--epochs", "25", "--seed", "3", "--out", str(out),
    )
    assert rc == 0
    return out


def test_gen_data_writes_loadable_files(data_files, capsys):
    train, test = data_files
    data = load_dataset(train)
    assert data.n == 500 and data.dim == 5
    assert data.labels is not None
    assert load_dataset(test).n == 200


def test_gen_data_unlabeled_and_digits(tmp_path):
    out = tmp_path / "u.aotd"
    rc = run_cli(
        "gen-data", "--source", "tiny_digits", "--height", "6", "--width", "4",
        "--n", "30", "--unlabeled", "--out", str(out),
    )
    assert rc == 0
    data = load_dataset(out)
    assert data.labels is None and data.dim == 24
    assert data.layout is not None


def test_gen_data_identical_bytes(tmp_path):
    a, b = tmp_path / "a.aotd", tmp_path / "b.aotd"
    args = ["gen-data", "--source", "gaussian_mixture", "--n", "40", "--seed", "9"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_victim_checkpoint(victim_ckpt, data_files, capsys):
    model = load_model(victim_ckpt)
    assert model.spec.hidden_layers == (12, 12)
    assert model.spec.num_classes == 3
    assert model.epoch_counter == 25


def test_train_victim_rejects_unlabeled(tmp_path):
    bare = tmp_path / "bare.aotd"
    run_cli("gen-data", "--source", "gaussian_mixture", "--n", "20", "--unlabeled", "--out", str(bare))
    rc = run_cli("train-victim", "--train", str(bare), "--out", str(tmp_path / "x.ckpt"))
    assert rc == 1


def test_missing_file_returns_error_code(tmp_path, capsys):
    rc = run_cli("train-victim", "--train", str(tmp_path / "ghost.aotd"), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert "error" in capsys.readouterr().err


def make_attack_config(tmp_path, victim_ckpt=None, **extra):
    cfg = {
        "seed": 11,
        "victim": {
            "data": {"source": "gaussian_mixture", "classes": 3, "dim": 5, "separation": 4.0},
            "train_n": 400,
            "test_n": 150,
            "hidden_layers": [12, 12],
            "epochs": 20,
        },
        "attack": {
            "pool_n": 500,
            "budget": 90,
            "cycles": 3,
            "strategy": {"kind": "label_disagreement"},
            "ensemble": {"hidden_profile": [[6], [12, 12]], "epochs": 8},
        },
    }
    if victim_ckpt is not None:
        cfg["victim"]["checkpoint"] = str(victim_ckpt)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_run_attack_cli(tmp_path, capsys):
    cfg_path = make_attack_config(tmp_path)
    out = tmp_path / "run"
    rc = run_cli("run-attack", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    msg = capsys.readouterr().out
    assert "spent 90/90" in msg
    assert (out / "report.json").exists()
    # the echo preserves the file's own formatting byte for byte
    assert (out / "config_echo.json").read_text() == cfg_path.read_text()


def test_run_attack_rejects_pool_smaller_than_budget_before_writing(tmp_path, capsys):
    cfg_path = make_attack_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["attack"]["pool_n"] = 50  # budget 90
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert run_cli("run-attack", "--config", str(cfg_path), "--out", str(out)) == 1
    assert "attack: pool_n" in capsys.readouterr().err
    assert not out.exists()


def test_run_attack_rejects_no_validation_rows_before_writing(tmp_path, capsys):
    cfg_path = make_attack_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["attack"].update(pool_n=400, budget=60, cycles=2, validation_fraction=0.0)
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert run_cli("run-attack", "--config", str(cfg_path), "--out", str(out)) == 1
    assert "attack: validation_fraction" in capsys.readouterr().err
    assert not out.exists()


def test_run_attack_seed_override_changes_echo(tmp_path):
    cfg_path = make_attack_config(tmp_path)
    out = tmp_path / "run2"
    rc = run_cli("run-attack", "--config", str(cfg_path), "--seed", "77", "--out", str(out))
    assert rc == 0
    echoed = json.loads((out / "config_echo.json").read_text())
    assert echoed["seed"] == 77


def test_evaluate_cli(tmp_path, data_files, victim_ckpt, capsys):
    _, test = data_files
    cfg_path = make_attack_config(tmp_path, victim_ckpt=victim_ckpt)
    out = tmp_path / "run"
    assert run_cli("run-attack", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    metrics_path = tmp_path / "metrics.json"
    rc = run_cli(
        "evaluate", "--ensemble", str(out / "ensemble"), "--victim", str(victim_ckpt),
        "--data", str(test), "--out", str(metrics_path),
    )
    assert rc == 0
    printed = capsys.readouterr().out
    metrics = json.loads(printed)
    assert json.loads(metrics_path.read_text()) == metrics
    assert set(metrics) >= {"member_accs", "ensemble_acc", "ensemble_agreement", "victim_acc"}
    assert len(metrics["member_accs"]) == 2


def test_adv_transfer_cli(tmp_path, data_files, victim_ckpt, capsys):
    train, test = data_files
    other = tmp_path / "other.ckpt"
    assert run_cli(
        "train-victim", "--train", str(train), "--hidden", "8",
        "--epochs", "15", "--seed", "4", "--out", str(other),
    ) == 0
    capsys.readouterr()
    csv_out = tmp_path / "transfer.csv"
    rc = run_cli(
        "adv-transfer", "--source", str(other), "--victim", str(victim_ckpt),
        "--data", str(test), "--epsilon", "1.0", "--steps", "8",
        "--n-eval", "60", "--seed", "5", "--out", str(csv_out),
    )
    assert rc == 0
    assert "transfer rate:" in capsys.readouterr().out
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "sample_index,clean_src,clean_victim,adv_src,adv_victim"
    assert len(lines) == 61


def test_adv_transfer_needs_labels(tmp_path, victim_ckpt):
    bare = tmp_path / "bare.aotd"
    run_cli("gen-data", "--source", "gaussian_mixture", "--dim", "5", "--classes", "3",
            "--n", "20", "--unlabeled", "--out", str(bare))
    rc = run_cli(
        "adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt),
        "--data", str(bare), "--epsilon", "0.5",
    )
    assert rc == 1


@pytest.mark.parametrize("flag", [["--epsilon", "inf"], ["--epsilon", "nan"], ["--epsilon", "0.5", "--step-size", "inf"]])
def test_adv_transfer_rejects_non_finite_settings(data_files, victim_ckpt, capsys, flag):
    _, test = data_files
    rc = run_cli("adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt),
                 "--data", str(test), "--n-eval", "20", *flag)
    assert rc == 1
    assert "InvalidConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("separation", ["nan", "inf"])
def test_gen_data_rejects_non_finite_separation(tmp_path, capsys, separation):
    rc = run_cli("gen-data", "--source", "gaussian_mixture", "--classes", "3", "--dim", "5",
                 "--separation", separation, "--n", "20", "--out", str(tmp_path / "d.aotd"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "InvalidConfigError" in err and "separation" in err  # not Dataset's finite check


def test_remote_attack_through_served_checkpoint(tmp_path, victim_ckpt):
    # spin the server through its library surface (the CLI command runs the
    # same serve() loop but blocks the process), then run the attack against
    # it with the config's remote section
    from ensteal.netvictim import VictimService
    from ensteal.victim import QueryBudget, VictimOracle

    model = load_model(victim_ckpt)
    with VictimService(VictimOracle(model, QueryBudget(90))) as svc:
        cfg_path = make_attack_config(tmp_path, victim_ckpt=victim_ckpt)
        raw = json.loads(cfg_path.read_text())
        raw["attack"]["remote"] = {"host": svc.host, "port": svc.port}
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "remote_run"
        rc = run_cli("run-attack", "--config", str(cfg_path), "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["budget"]["spent"] == 90


def test_cli_import_leaves_out_the_server_stack():
    # only serve-victim and remote runs import netvictim, and with it socketserver
    code = (
        "import sys, ensteal.cli; "
        "print([m for m in ('ensteal.netvictim', 'socketserver') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ensteal.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_unknown_strategy_fails_cleanly(tmp_path, capsys):
    cfg_path = make_attack_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["attack"]["strategy"]["kind"] = "clairvoyance"
    cfg_path.write_text(json.dumps(raw))
    rc = run_cli("run-attack", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "clairvoyance" in capsys.readouterr().err


def test_out_of_range_value_fails_before_the_run(tmp_path, capsys):
    cfg_path = make_attack_config(tmp_path, ssl={"confidence_threshold": 2.0})
    out = tmp_path / "never"
    rc = run_cli("run-attack", "--config", str(cfg_path), "--out", str(out))
    assert rc == 1
    assert "ssl: confidence_threshold" in capsys.readouterr().err
    assert not out.exists()  # nothing written, no stage run, no query spent
