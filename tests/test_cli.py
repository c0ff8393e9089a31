import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensteal
from conftest import assert_lf_text
from ensteal import adversarial as adv
from ensteal import numkit
from ensteal.cli import _build_parser, main
from ensteal.datapool import Dataset, GaussianMixture, load_dataset, make_synthetic, save_dataset
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


def test_gen_data_source_flags_default_to_the_source_fields(tmp_path):
    out = tmp_path / "d.aotd"
    assert run_cli("gen-data", "--source", "gaussian_mixture", "--n", "40", "--seed", "9", "--out", str(out)) == 0
    want = tmp_path / "want.aotd"
    save_dataset(make_synthetic(GaussianMixture(), 40, 9), want)
    assert out.read_bytes() == want.read_bytes()


def test_train_victim_checkpoint(victim_ckpt, data_files, capsys):
    model = load_model(victim_ckpt)
    assert model.spec.hidden_layers == (12, 12)
    assert model.spec.num_classes == 3
    assert model.epoch_counter == 25


def test_train_victim_rejects_unlabeled(tmp_path, capsys):
    bare = tmp_path / "bare.aotd"
    run_cli("gen-data", "--source", "gaussian_mixture", "--n", "20", "--unlabeled", "--out", str(bare))
    rc = run_cli("train-victim", "--train", str(bare), "--out", str(tmp_path / "x.ckpt"))
    assert rc == 1
    assert capsys.readouterr().err == "error (InvalidInputError): victim training data must be labeled\n"


def test_train_victim_rejects_an_empty_training_file(tmp_path, capsys):
    # it once failed inside numpy, taking the largest label of no labels
    empty = tmp_path / "empty.aotd"
    save_dataset(Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)), empty)
    out = tmp_path / "x.ckpt"
    rc = run_cli("train-victim", "--train", str(empty), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == "error (InvalidInputError): victim training data has no rows\n"
    assert not out.exists()


def test_train_victim_rejects_an_unlabeled_test_set_before_training(tmp_path, data_files, monkeypatch, capsys):
    # it once trained the whole schedule and failed only when scoring
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(numkit, "train_supervised", no_training)
    train, _ = data_files
    bare = tmp_path / "bare.aotd"
    run_cli("gen-data", "--source", "gaussian_mixture", "--classes", "3", "--dim", "5",
            "--n", "20", "--unlabeled", "--out", str(bare))
    out = tmp_path / "x.ckpt"
    rc = run_cli("train-victim", "--train", str(train), "--test", str(bare), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == "error (InvalidInputError): test data must be labeled\n"
    assert not out.exists()


@pytest.mark.parametrize("hidden", ["8,,8", "8,", ",8", "8, ,8"])
def test_train_victim_refuses_an_empty_hidden_width(tmp_path, data_files, capsys, hidden):
    # each used to drop its empty part, train an (8, 8) or (8,) victim and exit 0
    train, _ = data_files
    out = tmp_path / "v.ckpt"
    with pytest.raises(SystemExit) as exc:
        run_cli("train-victim", "--train", str(train), "--hidden", hidden, "--epochs", "1", "--out", str(out))
    assert exc.value.code == 2
    assert f"argument --hidden: invalid _hidden value: '{hidden}'" in capsys.readouterr().err
    assert not out.exists()


def test_train_victim_empty_hidden_means_no_hidden_layer(tmp_path, data_files):
    train, _ = data_files
    out = tmp_path / "v.ckpt"
    assert run_cli("train-victim", "--train", str(train), "--hidden", "", "--epochs", "1", "--out", str(out)) == 0
    assert load_model(out).spec.hidden_layers == ()


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
    # a second run into the same directory is refused and leaves the first's report
    report = (out / "report.json").read_bytes()
    assert run_cli("run-attack", "--config", str(cfg_path), "--out", str(out)) == 1
    assert f"output directory {out} is not empty" in capsys.readouterr().err
    assert (out / "report.json").read_bytes() == report


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


@pytest.mark.parametrize("index", ["members x cycle 1\n0 0.5 1\n", "members 1 cycle 1\n0 high 1\n"])
def test_evaluate_reports_a_malformed_ensemble_index(tmp_path, data_files, victim_ckpt, capsys, index):
    _, test = data_files
    (tmp_path / "index.txt").write_text(index)
    rc = run_cli("evaluate", "--ensemble", str(tmp_path), "--victim", str(victim_ckpt), "--data", str(test))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error (InvalidInputError): malformed ensemble index")


@pytest.fixture(scope="module")
def attack_out(victim_ckpt, tmp_path_factory):
    d = tmp_path_factory.mktemp("attack")
    cfg_path = make_attack_config(d, victim_ckpt=victim_ckpt)
    assert run_cli("run-attack", "--config", str(cfg_path), "--out", str(d / "run")) == 0
    return d / "run"


def test_evaluate_refuses_inputs_it_cannot_score(tmp_path, data_files, victim_ckpt, attack_out, capsys):
    # a 3-class ensemble was scored against a 5-class victim, and against
    # labels up to 6, with exit 0
    _, test = data_files
    made = {}
    for name, flags in [("five", ["5"]), ("seven", ["7"]), ("bare", ["3", "--unlabeled"])]:
        made[name] = tmp_path / f"{name}.aotd"
        gen = ["gen-data", "--source", "gaussian_mixture", "--dim", "5", "--n", "50", "--classes", *flags]
        assert run_cli(*gen, "--out", str(made[name])) == 0
    victim5 = tmp_path / "v5.ckpt"
    assert run_cli("train-victim", "--train", str(made["five"]), "--hidden", "8", "--epochs", "2", "--out", str(victim5)) == 0
    for victim, data, err in [
        (victim5, test, "victim has (input_dim, num_classes) (5, 5), the ensemble has (5, 3)"),
        (victim_ckpt, made["seven"], "labels must lie in [0, 3), got range [0, 6]"),
        (victim_ckpt, made["bare"], "evaluation data must be labeled"),
    ]:
        capsys.readouterr()
        rc = run_cli("evaluate", "--ensemble", str(attack_out / "ensemble"), "--victim", str(victim), "--data", str(data))
        assert rc == 1
        assert capsys.readouterr() == ("", f"error (InvalidInputError): {err}\n")


@pytest.mark.parametrize("source, flag", [("gaussian_mixture", ["--height", "2"]), ("tiny_digits", ["--classes", "3"])])
def test_gen_data_refuses_another_sources_flag(tmp_path, capsys, source, flag):
    # --source gaussian_mixture --height 2 wrote a mixture file, exit 0
    out = tmp_path / "d.aotd"
    assert run_cli("gen-data", "--source", source, *flag, "--n", "5", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error (InvalidConfigError): {flag[0]} does not apply to --source {source}\n"
    assert not out.exists()


def test_adv_transfer_writes_the_csv_of_transferability_at_its_seed(tmp_path, data_files, victim_ckpt):
    train, test = data_files
    other = tmp_path / "other.ckpt"
    assert run_cli("train-victim", "--train", str(train), "--hidden", "8", "--epochs", "5", "--out", str(other)) == 0
    csv_out, want = tmp_path / "transfer.csv", tmp_path / "want.csv"
    assert run_cli(
        "adv-transfer", "--source", str(other), "--victim", str(victim_ckpt), "--data", str(test),
        "--epsilon", "0.8", "--steps", "6", "--n-eval", "40", "--seed", "7", "--out", str(csv_out),
    ) == 0
    data = load_dataset(test)
    cfg = adv.PgdConfig(0.8, 6, n_eval=40)
    result = adv.transferability(load_model(other), load_model(victim_ckpt), data.features, data.labels, cfg, 7)
    adv.write_transfer_csv(want, result)
    assert csv_out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("dim, classes", [("8", "3"), ("5", "4")])
def test_adv_transfer_refuses_a_victim_of_another_shape_before_the_attack(
    tmp_path, data_files, victim_ckpt, capsys, monkeypatch, dim, classes
):
    # an 8-feature source against the 5-feature victim failed only after
    # PGD had run, and a 4-class source against the 3-class victim printed
    # a transfer rate with exit 0
    _, test = data_files
    train, source = tmp_path / "train.aotd", tmp_path / "source.ckpt"
    gen = ["gen-data", "--source", "gaussian_mixture", "--dim", dim, "--classes", classes, "--n", "60"]
    assert run_cli(*gen, "--out", str(train)) == 0
    assert run_cli("train-victim", "--train", str(train), "--hidden", "8", "--epochs", "2", "--out", str(source)) == 0
    grads = []
    real = numkit.input_grad_batch
    monkeypatch.setattr(numkit, "input_grad_batch", lambda *a: grads.append(a) or real(*a))
    capsys.readouterr()
    data = train if dim == "8" else test
    rc = run_cli("adv-transfer", "--source", str(source), "--victim", str(victim_ckpt), "--data", str(data),
                 "--epsilon", "0.5", "--steps", "3", "--n-eval", "20")
    assert rc == 1
    err = f"target has (input_dim, num_classes) (5, 3), the source has ({dim}, {classes})"
    assert capsys.readouterr() == ("", f"error (InvalidInputError): {err}\n")
    assert grads == []


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


def test_adv_transfer_needs_labels(tmp_path, victim_ckpt, capsys):
    # the command printed "error: dataset has no labels" itself, unlike every
    # other refusal, which main reports with the error's class
    bare, csv_out = tmp_path / "bare.aotd", tmp_path / "transfer.csv"
    run_cli("gen-data", "--source", "gaussian_mixture", "--dim", "5", "--classes", "3",
            "--n", "20", "--unlabeled", "--out", str(bare))
    capsys.readouterr()
    rc = run_cli(
        "adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt),
        "--data", str(bare), "--epsilon", "0.5", "--out", str(csv_out),
    )
    assert rc == 1
    assert capsys.readouterr() == ("", "error (InvalidInputError): dataset has no labels\n")
    assert not csv_out.exists()


def test_evaluate_and_adv_transfer_write_utf8_with_lf_line_ends(tmp_path, data_files, victim_ckpt, attack_out):
    # adv-transfer's CSV came from csv.writer and ended its lines in "\r\n"
    _, test = data_files
    metrics, csv_out = tmp_path / "metrics.json", tmp_path / "transfer.csv"
    rc = run_cli("evaluate", "--ensemble", str(attack_out / "ensemble"), "--victim", str(victim_ckpt),
                 "--data", str(test), "--out", str(metrics))
    assert rc == 0
    rc = run_cli("adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt), "--data", str(test),
                 "--epsilon", "0.5", "--steps", "2", "--n-eval", "20", "--out", str(csv_out))
    assert rc == 0
    assert json.loads(assert_lf_text(metrics))["victim_acc"] >= 0
    assert assert_lf_text(csv_out).split("\n")[0] == ",".join(adv.TRANSFER_CSV_HEADER)


@pytest.mark.parametrize("flag", [["--epsilon", "inf"], ["--epsilon", "nan"], ["--epsilon", "0.5", "--step-size", "inf"]])
def test_adv_transfer_rejects_non_finite_settings(data_files, victim_ckpt, capsys, flag):
    _, test = data_files
    rc = run_cli("adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt),
                 "--data", str(test), "--n-eval", "20", *flag)
    assert rc == 1
    assert "InvalidConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("n_eval", ["-5", "0"])
def test_adv_transfer_rejects_a_non_positive_n_eval(tmp_path, data_files, victim_ckpt, capsys, n_eval):
    # -5 attacked rows [:-5] and wrote their CSV; 0 failed on an empty batch
    _, test = data_files
    csv_out = tmp_path / "transfer.csv"
    rc = run_cli("adv-transfer", "--source", str(victim_ckpt), "--victim", str(victim_ckpt),
                 "--data", str(test), "--epsilon", "0.5", "--n-eval", n_eval, "--out", str(csv_out))
    assert rc == 1
    assert "InvalidConfigError" in capsys.readouterr().err
    assert not csv_out.exists()


@pytest.mark.parametrize("separation", ["nan", "inf"])
def test_gen_data_rejects_non_finite_separation(tmp_path, capsys, separation):
    rc = run_cli("gen-data", "--source", "gaussian_mixture", "--classes", "3", "--dim", "5",
                 "--separation", separation, "--n", "20", "--out", str(tmp_path / "d.aotd"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "InvalidConfigError" in err and "separation" in err  # not Dataset's finite check


@pytest.mark.dev
def test_remote_attack_through_served_checkpoint(tmp_path, victim_ckpt):
    # spin the server through its library surface (the CLI command runs the
    # same serve() loop but blocks the process), then run the attack against
    # it with the config's remote section
    from ensteal.netvictim import VictimService
    from ensteal.victim import VictimOracle

    model = load_model(victim_ckpt)
    with VictimService(VictimOracle(model, 90)) as svc:
        cfg_path = make_attack_config(tmp_path, victim_ckpt=victim_ckpt)
        raw = json.loads(cfg_path.read_text())
        raw["attack"]["remote"] = {"host": svc.host, "port": svc.port}
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "remote_run"
        rc = run_cli("run-attack", "--config", str(cfg_path), "--out", str(out))
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["budget"]["spent"] == 90


def test_serve_victim_refuses_a_negative_budget(victim_ckpt, capsys):
    # refused when the oracle is built, before any socket is opened
    assert main(["serve-victim", "--checkpoint", str(victim_ckpt), "--budget", "-1"]) == 1
    assert capsys.readouterr() == ("", "error (InvalidConfigError): budget total must be nonnegative\n")


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


# Every subcommand's options as (option strings, default, type, choices,
# required), taken from the parser before its flags were derived from the
# source table and VictimRecipe: the derivation must not move any of them.
CLI_SURFACE = {
    "gen-data": [
        (["--source"], None, None, ["gaussian_mixture", "tiny_digits"], True),
        (["--classes"], 4, "int", None, False),
        (["--dim"], 8, "int", None, False),
        (["--separation"], 5.0, "float", None, False),
        (["--height"], 10, "int", None, False),
        (["--width"], 6, "int", None, False),
        (["--n"], None, "int", None, True),
        (["--seed"], 0, "int", None, False),
        (["--unlabeled"], False, None, None, False),
        (["--out"], None, None, None, True),
    ],
    "train-victim": [
        (["--train"], None, None, None, True),
        (["--test"], None, None, None, False),
        (["--hidden"], (64, 64), "_hidden", None, False),
        (["--activation"], "relu", None, ["relu", "tanh"], False),
        (["--epochs"], 200, "int", None, False),
        (["--batch-size"], 64, "int", None, False),
        (["--seed"], 0, "int", None, False),
        (["--out"], None, None, None, True),
    ],
    "serve-victim": [
        (["--checkpoint"], None, None, None, True),
        (["--budget"], None, "int", None, True),
        (["--host"], "127.0.0.1", None, None, False),
        (["--port"], 0, "int", None, False),
        (["--log-path"], None, None, None, False),
    ],
    "run-attack": [
        (["--config"], None, None, None, True),
        (["--seed"], None, "int", None, False),
        (["--out"], None, None, None, True),
    ],
    "evaluate": [
        (["--ensemble"], None, None, None, True),
        (["--victim"], None, None, None, True),
        (["--data"], None, None, None, True),
        (["--out"], None, None, None, False),
    ],
    "adv-transfer": [
        (["--source"], None, None, None, True),
        (["--victim"], None, None, None, True),
        (["--data"], None, None, None, True),
        (["--epsilon"], None, "float", None, True),
        (["--steps"], 20, "int", None, False),
        (["--step-size"], None, "float", None, False),
        (["--no-random-start"], False, None, None, False),
        (["--n-eval"], 200, "int", None, False),
        (["--denominator"], "source_fooled", None, ["source_fooled", "all"], False),
        (["--seed"], 0, "int", None, False),
        (["--out"], None, None, None, False),
    ],
}


def test_cli_surface_is_pinned():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (
                a.option_strings,
                a.default,
                None if a.type is None else a.type.__name__,
                None if a.choices is None else list(a.choices),
                a.required,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE
    # and each default its type: 5.0 == 5, but --separation defaults to a float
    def default_types(table):
        return {name: [type(row[1]) for row in rows] for name, rows in table.items()}

    assert default_types(surface) == default_types(CLI_SURFACE)
