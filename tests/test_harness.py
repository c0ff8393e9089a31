import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_lf_text, committee_probs
from ensteal import harness, numkit
from ensteal.adversarial import TransferResult, pgd_attack_batch
from ensteal.config import config_to_dict, load_config, parse_config
from ensteal.datapool import GaussianMixture, initial_split, make_synthetic, split_budget, strong_augment
from ensteal.ensemble import MEMBER_DTYPE, BestCheckpoint, ensemble_predict
from ensteal.errors import InvalidConfigError, InvalidInputError, StageError
from ensteal.harness import (
    ADV_STAGE,
    CYCLE_TRAIN,
    POOL_DATA,
    SELECT,
    TEST_DATA,
    evaluate_models,
    run_attack,
    stage_seed,
)
from ensteal.netvictim import VictimService
from ensteal.numkit import MlpModel, load_model, predict_batch, save_model
from ensteal.seeding import derive_seed, mask64
from ensteal.victim import VictimOracle, VictimRecipe, train_victim


def base_config(**overrides):
    cfg = {
        "seed": 5,
        "victim": {
            "data": {"source": "gaussian_mixture", "classes": 3, "dim": 6, "separation": 4.0},
            "train_n": 600,
            "test_n": 200,
            "hidden_layers": [16, 16],
            "epochs": 25,
        },
        "attack": {
            "pool_n": 800,
            "budget": 120,
            "cycles": 3,
            "strategy": {"kind": "consensus_entropy"},
            "ensemble": {"hidden_profile": [[6], [10], [16, 16]], "epochs": 10},
        },
    }
    cfg.update(overrides)
    return cfg


def victim_test_accuracy(cfg, out) -> float:
    """numkit.accuracy of the run's saved victim on the run's test set."""
    test = make_synthetic(cfg.victim.data, cfg.victim.test_n, stage_seed(mask64(cfg.seed), TEST_DATA))
    return numkit.accuracy(load_model(out / "victim.ckpt"), test.features, test.labels)


# ── seeds ────────────────────────────────────────────────────────────


def test_stage_seeds_distinct():
    root = 123456789
    seeds = {stage_seed(root, off) for off in range(1, 12)}
    assert len(seeds) == 11
    assert stage_seed(root, POOL_DATA) == stage_seed(root, POOL_DATA)
    assert all(0 <= s < 2**64 for s in seeds)


# ── config parsing ───────────────────────────────────────────────────


def test_parse_minimal_config():
    cfg = parse_config(base_config())
    assert cfg.seed == 5
    assert cfg.victim.data.input_dim == 6
    assert cfg.victim.data.num_classes == 3
    assert cfg.attack.strategy.kind == "consensus_entropy"
    assert cfg.ssl is None and cfg.adversarial is None
    assert cfg.victim.sgd().base_lr == 0.1 and cfg.victim.sgd().momentum == 0.5
    assert cfg.attack.validation_fraction == 0.1


@pytest.mark.parametrize(
    "path, value",
    [
        ("victim.data.flavor", "spicy"),
        ("attack.strategy.k", 5),
        ("turbo", True),
        # keys of earlier versions, refused even at the value they held: the
        # optimizers are fixed in each recipe's sgd(), the shortlist factor
        # is selection.HYBRID_POOL_FACTOR, and the perturbations follow the
        # data layout
        ("victim.base_lr", 0.1),
        ("victim.momentum", 0.5),
        ("victim.lr_decay_factor", 0.1),
        ("victim.lr_decay_every", 30),
        ("victim.weight_decay", 0.0),
        ("ssl.lr", 0.002),
        ("ssl.momentum", 0.9),
        ("ssl.pseudo_loss_weight", 1.0),
        ("ssl.augment", None),
        ("attack.strategy.hybrid_pool_factor", 5),
    ],
)
def test_parse_rejects_unknown_keys_with_paths(path, value):
    where, _, key = path.rpartition(".")
    with pytest.raises(InvalidConfigError, match=rf"^unknown key\(s\) in {re.escape(where or 'config')}: {key}$"):
        parse_config(_full_config(path, value))


@pytest.mark.parametrize("value", [None, 1])
def test_victim_arch_index_is_derived_not_configured(value):
    # report.json's victim_arch_index comes from the victim's widths
    raw = base_config()
    raw["attack"]["ensemble"]["victim_arch_index"] = value
    with pytest.raises(InvalidConfigError, match=r"unknown key\(s\) in attack\.ensemble: victim_arch_index"):
        parse_config(raw)


def test_parse_requires_core_fields():
    with pytest.raises(InvalidConfigError, match="seed"):
        parse_config({"victim": {}, "attack": {}})
    cfg = base_config()
    del cfg["attack"]["budget"]
    with pytest.raises(InvalidConfigError):
        parse_config(cfg)
    cfg = base_config()
    del cfg["victim"]["data"]
    with pytest.raises(InvalidConfigError, match="victim.data is required"):
        parse_config(cfg)


def test_parse_gaussian_mixture_defaults():
    # the mixture's keys are optional; gen-data's flags default to the same values
    raw = base_config()
    raw["victim"]["data"] = {"source": "gaussian_mixture"}
    assert parse_config(raw).victim.data == GaussianMixture(4, 8, 5.0)
    raw["victim"]["data"]["dim"] = 3
    assert parse_config(raw).victim.data == GaussianMixture(4, 3, 5.0)


def test_parse_validates_budget_arithmetic():
    cfg = base_config()
    cfg["attack"]["budget"] = 2  # splits to zero queries per cycle
    with pytest.raises(InvalidConfigError):
        parse_config(cfg)
    for cycles in (0, -1):
        cfg = base_config()
        cfg["attack"]["cycles"] = cycles
        with pytest.raises(InvalidConfigError, match="cycles must be positive"):
            parse_config(cfg)


def test_parse_rejects_pool_smaller_than_budget():
    # such a run used to fail at stage cycles, after it had bought labels
    cfg = base_config()
    cfg["attack"]["pool_n"] = 50  # budget 120
    with pytest.raises(InvalidConfigError, match=r"^attack: pool_n 50 .* budget 120"):
        parse_config(cfg)
    cfg["attack"]["pool_n"] = 120
    assert parse_config(cfg).attack.pool_n == 120


def test_parse_rejects_a_split_without_validation_rows():
    # such a run used to fail at stage cycles, after it had bought labels
    cfg = base_config()
    for fraction in (0.0, 0.004):  # round(0.48) == 0 with budget 120
        cfg["attack"]["validation_fraction"] = fraction
        with pytest.raises(InvalidConfigError, match=r"^attack: validation_fraction .* no validation rows"):
            parse_config(cfg)
    cfg["attack"]["validation_fraction"] = 0.005  # round(0.6) == 1
    assert parse_config(cfg).attack.validation_fraction == 0.005


@pytest.mark.parametrize(
    "budget, fraction, validation",
    [(20, 0.125, 2), (12, 0.125, 2), (60, 0.025, 2), (10, 0.05, 0)],
    ids=["2.5", "1.5", "60x0.025", "0.5"],
)
def test_the_config_and_the_draw_split_exact_halves_alike(budget, fraction, validation):
    # round() takes a half to the even neighbour: 2.5 -> 2, 1.5 -> 2, 0.5 -> 0
    assert split_budget(budget, 3, fraction)[0] == validation
    raw = base_config()
    raw["attack"].update(budget=budget, validation_fraction=fraction)
    if validation == 0:
        with pytest.raises(InvalidConfigError, match="gives no validation rows"):
            parse_config(raw)
        return
    val_n, batches = parse_config(raw).attack.split()
    assert (val_n, batches) == split_budget(budget, 3, fraction)
    val_idx, _ = initial_split(raw["attack"]["pool_n"], val_n, batches[0], seed=0)
    assert val_idx.size == validation and val_n + sum(batches) == budget


def test_parse_ssl_and_adv_sections():
    raw = base_config(
        ssl={"confidence_threshold": 0.8, "epochs": 5},
        adversarial={"epsilon": 0.5, "steps": 7, "denominator": "all"},
    )
    cfg = parse_config(raw)
    assert cfg.ssl.confidence_threshold == 0.8
    assert cfg.ssl.per_class_cap == 100
    assert cfg.adversarial.epsilon == 0.5
    assert cfg.adversarial.denominator == "all"
    raw["adversarial"]["denominator"] = "whatever"
    with pytest.raises(InvalidConfigError, match="^adversarial: denominator must be source_fooled or all$"):
        parse_config(raw)


@pytest.mark.dev
def test_parse_tiny_digits_and_remote():
    raw = base_config()
    raw["victim"]["data"] = {"source": "tiny_digits", "height": 8, "width": 5}
    raw["attack"]["remote"] = {"host": "127.0.0.1", "port": 4242}
    cfg = parse_config(raw)
    assert cfg.victim.data.input_dim == 40
    assert cfg.victim.data.num_classes == 10
    assert cfg.attack.remote.port == 4242
    assert cfg.attack.remote.timeout == 10.0
    raw["victim"]["data"]["source"] = "cosmic_rays"
    with pytest.raises(InvalidConfigError):
        parse_config(raw)


@pytest.mark.dev
def test_parsing_a_remote_section_leaves_out_the_server_stack():
    # the section checks its endpoint itself; it used to build a throwaway client
    raw = base_config()
    raw["attack"]["remote"] = {"host": "127.0.0.1", "port": 4242}
    code = (
        "import json, sys; from ensteal.config import parse_config; "
        f"parse_config(json.loads({json.dumps(raw)!r})); "
        "print([m for m in ('ensteal.netvictim', 'socketserver') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _full_config(path: str, value) -> dict:
    """base_config with every optional section present and `path` set to value."""
    raw = base_config(ssl={}, adversarial={"epsilon": 0.5}, outputs={})
    raw["attack"]["remote"] = {"host": "127.0.0.1", "port": 4242}
    *parents, key = path.split(".")
    section = raw
    for part in parents:
        section = section[part]
    section[key] = value
    return raw


@pytest.mark.parametrize(
    "path, value",
    [
        ("seed", "5"),
        ("seed", 5.0),
        ("victim.train_n", True),
        ("victim.epochs", 25.5),
        ("victim.data.separation", True),
        ("victim.batch_size", "64"),
        ("victim.activation", 1),
        ("victim.checkpoint", 7),
        ("victim.hidden_layers", 5),
        ("victim.hidden_layers", [16, 16.5]),
        ("victim.hidden_layers", [16, True]),
        ("victim.data.classes", 3.0),
        ("victim.data.separation", "far"),
        ("victim.data.source", [1]),
        ("attack.budget", 60.9),
        ("attack.pool_n", "800"),
        ("attack.validation_fraction", False),
        ("attack.strategy.hybrid_kcenter", "false"),
        ("attack.strategy.hybrid_kcenter", 0),
        ("ssl.per_class_cap", 30.0),
        ("attack.ensemble.hidden_profile", [[6], 10]),
        ("attack.ensemble.hidden_profile", [[6], [10.0]]),
        ("attack.ensemble.epochs", "10"),
        pytest.param("attack.remote.port", "4242", marks=pytest.mark.dev),
        pytest.param("attack.remote.host", 127, marks=pytest.mark.dev),
        pytest.param("attack.remote.timeout", None, marks=pytest.mark.dev),
        ("ssl.epochs", 2.0),
        ("ssl.confidence_threshold", True),
        ("adversarial.epsilon", "0.5"),
        ("adversarial.random_start", "yes"),
        ("adversarial.step_size", True),
        ("outputs.scores_csv", 1),
        # json.loads reads NaN and Infinity; no number field means either
        ("adversarial.step_size", float("inf")),
        ("adversarial.epsilon", float("nan")),
        ("ssl.confidence_threshold", float("nan")),
        ("attack.validation_fraction", float("-inf")),
        ("victim.data.separation", float("inf")),
        pytest.param("attack.remote.timeout", float("nan"), marks=pytest.mark.dev),
        pytest.param("ssl.confidence_threshold", 10**400, id="ssl.confidence_threshold-int_past_float_range"),
    ],
)
def test_parse_rejects_wrong_types_naming_the_key(path, value):
    parse_config(_full_config("seed", 5))  # the unmodified config is valid
    with pytest.raises(InvalidConfigError, match=re.escape(path)):
        parse_config(_full_config(path, value))


@pytest.mark.parametrize(
    "path, value, section",
    [
        ("ssl.confidence_threshold", 2.0, "ssl"),
        ("ssl.epochs", 0, "ssl"),
        ("ssl.batch_size", -1, "ssl"),
        ("adversarial.steps", 0, "adversarial"),
        ("adversarial.epsilon", -1, "adversarial"),
        ("victim.activation", "gelu", "victim"),
        ("attack.ensemble.hidden_profile", [[0]], "attack.ensemble"),
        pytest.param("attack.remote.timeout", 0, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.timeout", -1.5, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.retries", 0, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.retries", -3, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.port", 0, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.port", -1, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.port", 65536, "attack.remote", marks=pytest.mark.dev),
        pytest.param("attack.remote.port", 70000, "attack.remote", marks=pytest.mark.dev),
    ],
)
def test_parse_rejects_values_a_later_stage_would_reject(path, value, section):
    # each of these used to parse and fail only mid-run, after the budget
    # was spent
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(section)}: "):
        parse_config(_full_config(path, value))


def test_parse_keeps_int_for_float_fields():
    raw = base_config(ssl={"confidence_threshold": 1})
    raw["victim"]["data"]["separation"] = 4
    cfg = parse_config(raw)
    assert cfg.ssl.confidence_threshold == 1.0 and isinstance(cfg.ssl.confidence_threshold, float)
    assert isinstance(cfg.victim.data.separation, float)
    raw["adversarial"] = {"epsilon": 1, "step_size": None}
    cfg = parse_config(raw)
    assert cfg.adversarial.step_size is None
    assert cfg.adversarial.epsilon == 1.0 and isinstance(cfg.adversarial.epsilon, float)


ROOT = Path(__file__).resolve().parents[1]


def _workload_configs() -> list[dict]:
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return [
        w.config(9, "victim.ckpt" if w.load_victim else None, 7411 if w.remote else None)
        for w in workloads.values()
    ]


def _readme_config() -> dict:
    readme = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"one JSON config:\n\n```json\n(.*?)```", readme, re.S).group(1))


def test_config_roundtrip_through_dict():
    raws = [
        base_config(ssl={"epochs": 4}, adversarial={"epsilon": 1.0}, outputs={"scores_csv": True}),
        _full_config("seed", 5),
        _readme_config(),
        *_workload_configs(),
    ]
    assert len(raws) == 6
    for raw in raws:
        cfg = parse_config(raw)
        assert parse_config(config_to_dict(cfg)) == cfg


# The echo of _full_config("seed", 5) on one line: the same keys, types and
# values that config_echo.json of a `run-attack --seed` run prints with
# indent=2, and whose digest seeds the remote request ids.
FULL_CONFIG_ECHO = (
    '{"adversarial": {"denominator": "source_fooled", "epsilon": 0.5, "n_eval": 200, '
    '"random_start": true, "step_size": null, "steps": 20}, '
    '"attack": {"budget": 120, "cycles": 3, "ensemble": {"activation": "relu", "batch_size": 64, '
    '"epochs": 10, "hidden_profile": [[6], [10], [16, 16]]}, "pool_n": 800, '
    '"remote": {"host": "127.0.0.1", "port": 4242, "retries": 3, "timeout": 10.0}, '
    '"strategy": {"hybrid_kcenter": false, "kind": "consensus_entropy"}, '
    '"validation_fraction": 0.1}, '
    '"outputs": {"scores_csv": false}, '
    '"seed": 5, '
    '"ssl": {"batch_size": 64, "confidence_threshold": 0.9, "epochs": 30, '
    '"max_label_changes": 1, "per_class_cap": 100}, '
    '"victim": {"activation": "relu", "batch_size": 64, "checkpoint": null, '
    '"data": {"classes": 3, "dim": 6, "separation": 4.0, "source": "gaussian_mixture"}, '
    '"epochs": 25, "hidden_layers": [16, 16], "test_n": 200, "train_n": 600}}'
)


def test_config_echo_text_is_pinned():
    cfg = parse_config(_full_config("seed", 5))
    assert json.dumps(config_to_dict(cfg), sort_keys=True) == FULL_CONFIG_ECHO


def test_victim_arch_index_auto_detected_against_the_loaded_checkpoint(tmp_path):
    # no hidden_layers key: the config's default (64, 64) is not the
    # checkpoint's (12, 12), which member 1 mirrors
    ckpt = tmp_path / "victim.ckpt"
    save_model(numkit.MlpModel.initialize(numkit.MlpSpec(6, (12, 12), 3, rng_seed=1)), ckpt)
    raw = base_config()
    del raw["victim"]["hidden_layers"]
    raw["victim"]["checkpoint"] = str(ckpt)
    raw["attack"]["cycles"] = 1
    raw["attack"]["ensemble"] = {"hidden_profile": [[6], [12, 12]], "epochs": 2}
    cfg = parse_config(raw)
    report = run_attack(cfg, tmp_path / "run")
    assert report["victim_arch_index"] == 1
    assert report["victim_test_acc"] == victim_test_accuracy(cfg, tmp_path / "run")


def test_load_config_returns_raw_text(tmp_path):
    p = tmp_path / "c.json"
    text = json.dumps(base_config(), indent=3)
    p.write_text(text)
    cfg, raw = load_config(p)
    assert raw == text
    assert cfg.seed == 5
    p.write_text("{nope")
    with pytest.raises(InvalidConfigError):
        load_config(p)


def test_load_config_refuses_a_file_that_is_not_utf8(tmp_path):
    # the decode error escaped as a bare UnicodeDecodeError
    p = tmp_path / "c.json"
    p.write_bytes(b'{"seed": 1\xff}')
    with pytest.raises(InvalidConfigError, match="config is not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        load_config(p)


def test_load_config_rejects_a_literal_nan(tmp_path):
    # json.loads reads NaN, which fails every comparison: a NaN rate once
    # passed its range check and trained as if it were 0
    raw = base_config()
    raw["victim"]["data"]["separation"] = float("nan")
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    assert "NaN" in p.read_text()
    with pytest.raises(InvalidConfigError, match=re.escape("victim.data.separation")):
        load_config(p)


# ── evaluation ───────────────────────────────────────────────────────


def test_evaluate_models_keys():
    src = GaussianMixture(3, 5, 4.0)
    train = make_synthetic(src, 400, seed=1)
    test = make_synthetic(src, 150, seed=2)
    victim, _ = train_victim(train, test, VictimRecipe(epochs=15), seed=0)
    other, _ = train_victim(train, test, VictimRecipe(epochs=10), seed=1)
    victim_labels = predict_batch(victim, test.features)
    out = evaluate_models(committee_probs([victim, other], test.features), victim_labels, test)
    assert set(out) == {
        "member_accs",
        "member_agreements",
        "ensemble_acc",
        "ensemble_agreement",
        "victim_acc",
    }
    assert out["member_agreements"][0] == 1.0  # the victim agrees with itself
    assert 0.0 <= out["ensemble_acc"] <= 1.0
    # the same figures as a forward pass per model on every evaluation
    labels = [predict_batch(m, test.features, MEMBER_DTYPE) for m in (victim, other)]
    vote = ensemble_predict([victim, other], test.features)
    assert out == {
        "member_accs": [float(np.mean(lab == test.labels)) for lab in labels],
        "member_agreements": [float(np.mean(lab == victim_labels)) for lab in labels],
        "ensemble_acc": float(np.mean(vote == test.labels)),
        "ensemble_agreement": float(np.mean(vote == victim_labels)),
        "victim_acc": float(np.mean(victim_labels == test.labels)),
    }


# ── end-to-end runs (kept intentionally small) ───────────────────────


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(
        base_config(
            ssl={"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 20},
            adversarial={"epsilon": 0.8, "steps": 5, "n_eval": 40},
            outputs={"scores_csv": True},
        )
    )
    report = run_attack(cfg, out)
    return cfg, out, report


def test_run_attack_emits_all_files(tiny_run):
    _, out, report = tiny_run
    for name in (
        "config_echo.json",
        "curves.csv",
        "scores.csv",
        "pseudo_hist.csv",
        "report.json",
        "summary.txt",
        "victim.ckpt",
    ):
        assert (out / name).exists(), name
    assert (out / "ensemble" / "index.txt").exists()
    assert (out / "adv_member0.csv").exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report


def test_run_attack_writes_every_text_file_in_utf8_with_lf_line_ends(tiny_run):
    # adv_member{i}.csv came from csv.writer and ended its lines in "\r\n"
    _, out, _ = tiny_run
    texts = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.suffix in (".csv", ".json", ".txt"))
    assert texts == [
        "adv_member0.csv", "adv_member1.csv", "adv_member2.csv", "config_echo.json", "curves.csv",
        "ensemble/index.txt", "pseudo_hist.csv", "report.json", "scores.csv", "summary.txt",
    ]
    for name in texts:
        assert_lf_text(out / name)


def test_run_attack_curves_shape(tiny_run):
    cfg, out, report = tiny_run
    lines = (out / "curves.csv").read_text().strip().split("\n")
    # one accuracy column per member of the 3-member committee
    assert lines[0] == (
        "cycle,queries_spent,member0_acc,member1_acc,member2_acc,ensemble_acc,ensemble_agr"
    )
    assert all(ln.count(",") == lines[0].count(",") for ln in lines[1:])
    # cycles + 1 ssl row
    assert len(lines) == 1 + cfg.attack.cycles + 1
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == [str(c) for c in range(1, cfg.attack.cycles + 2)]
    # queries_spent counts the labels bought by each row: validation plus the
    # batches queried so far; the SSL row's pseudo-labels are not bought
    val_n = round(cfg.attack.budget * cfg.attack.validation_fraction)
    batches = split_budget(cfg.attack.budget, cfg.attack.cycles, cfg.attack.validation_fraction)[1]
    bought = [val_n + sum(batches[:c]) for c in range(1, cfg.attack.cycles + 1)]
    assert [int(r[1]) for r in rows] == [*bought, cfg.attack.budget]
    assert report["ssl"]["n_pseudo"] > 0
    # report["final"] is the last cycle's row, read back from its repr
    final = report["final"]
    assert [float(v) for v in rows[cfg.attack.cycles - 1][2:]] == [
        *final["member_accs"],
        final["ensemble_acc"],
        final["ensemble_agreement"],
    ]


def test_run_attack_budget_accounting(tiny_run):
    cfg, _, report = tiny_run
    assert report["budget"]["total"] == cfg.attack.budget
    assert report["budget"]["spent"] == cfg.attack.budget


def test_run_attack_report_sections(tiny_run):
    cfg, out, report = tiny_run
    assert report["victim_test_acc"] > 0.8
    assert report["victim_test_acc"] == victim_test_accuracy(cfg, out)
    assert report["cycles"] == cfg.attack.cycles
    assert report["members"] == [[6], [10], [16, 16]]
    assert report["victim_arch_index"] == 2
    assert report["ssl"]["n_pseudo"] == sum(report["pseudo_hist"])
    assert len(report["adversarial"]) == 3
    for row in report["adversarial"]:
        assert "transfer_rate" in row and "random_transfer_rate" in row
        assert row["adv_source_acc"] <= 1.0
    assert 0 <= report["final"]["best_member_index"] < 3
    model = load_model(out / "victim.ckpt")
    assert model.spec.hidden_layers == (16, 16)


def test_run_attack_scores_cover_candidates(tiny_run):
    cfg, out, _ = tiny_run
    lines = (out / "scores.csv").read_text().strip().split("\n")
    assert lines[0] == "cycle,sample_index,score,selected"
    rows = [ln.split(",") for ln in lines[1:]]
    cycles_present = {int(r[0]) for r in rows}
    # selection happens before cycles 1..cycles-1... the first selection is
    # cycle 0 (pre-training) is not scored; scored cycles are 1..cycles-1
    assert cycles_present == set(range(1, cfg.attack.cycles))
    picked = [r for r in rows if r[3] == "1"]
    per_cycle = round(0.9 * cfg.attack.budget) // cfg.attack.cycles
    assert len(picked) == per_cycle * (cfg.attack.cycles - 1)


@pytest.mark.parametrize("kind, scored", [("random", False), ("consensus_entropy", True)])
def test_only_scored_strategies_run_the_committee_over_the_pool(tmp_path, monkeypatch, kind, scored):
    rows = []
    real = numkit.probs_batch
    monkeypatch.setattr(numkit, "probs_batch", lambda m, X, *rest: rows.append(len(X)) or real(m, X, *rest))
    raw = base_config()
    raw["attack"]["strategy"]["kind"] = kind
    run_attack(parse_config(raw), tmp_path)
    assert (raw["attack"]["pool_n"] in rows) == scored


def test_run_attack_is_deterministic(tmp_path):
    cfg = parse_config(base_config())
    a, b = tmp_path / "a", tmp_path / "b"
    ra = run_attack(cfg, a)
    rb = run_attack(cfg, b)
    assert ra == rb
    for name in ("curves.csv", "report.json", "summary.txt", "victim.ckpt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_attack_config_echo_prefers_raw_text(tmp_path):
    cfg = parse_config(base_config())
    text = "{\n  \"anything\": true\n}"
    run_attack(cfg, tmp_path, config_text=text)
    assert (tmp_path / "config_echo.json").read_text() == text


def test_run_attack_failure_labels_stage(tmp_path):
    raw = base_config()
    raw["attack"]["remote"] = {"host": "127.0.0.1", "port": 1, "timeout": 0.2, "retries": 1}
    cfg = parse_config(raw)
    with pytest.raises(StageError) as err:
        run_attack(cfg, tmp_path)
    assert err.value.stage in ("victim", "initial_queries")
    summary = (tmp_path / "summary.txt").read_text()
    assert "run failed" in summary
    # the failure path sizes the curves header to the committee as well
    header = (tmp_path / "curves.csv").read_text().split("\n")[0]
    assert header.split(",")[2:-2] == ["member0_acc", "member1_acc", "member2_acc"]


@pytest.mark.parametrize(
    "input_dim, classes, adversarial",
    [(6, 5, False), (6, 2, True), (5, 3, False)],
    ids=["more_classes", "fewer_classes_with_pgd", "other_width"],
)
def test_a_checkpoint_that_does_not_fit_the_data_fails_the_victim_stage(
    tmp_path, monkeypatch, input_dim, classes, adversarial
):
    # base_config's data has 6 features and 3 classes. A 5-class checkpoint
    # once bought the validation and initial labels before failing in
    # `cycles`, and a 2-class one with PGD on spent the whole budget before
    # failing in `adversarial`.
    ckpt = tmp_path / "other.ckpt"
    save_model(MlpModel.initialize(numkit.MlpSpec(input_dim, (16, 16), classes, rng_seed=1)), ckpt)
    raw = base_config()
    raw["victim"]["checkpoint"] = str(ckpt)
    if adversarial:
        raw["adversarial"] = {"epsilon": 0.5}
    built = []

    class RecordingOracle(VictimOracle):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(harness, "VictimOracle", RecordingOracle)
    out = tmp_path / "run"
    with pytest.raises(StageError) as err:
        run_attack(parse_config(raw), out)
    assert err.value.stage == "victim" and isinstance(err.value.cause, InvalidInputError)
    assert (out / "summary.txt").read_text().startswith("run failed: stage 'victim' failed: checkpoint")
    assert built == []  # no oracle was built, so no label was bought
    assert not (out / "victim.ckpt").exists()


def _artifacts(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.bitwise
def test_skipping_saturated_members_leaves_every_artifact_unchanged(tmp_path, monkeypatch):
    raw = base_config(
        ssl={"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 20},
        adversarial={"epsilon": 0.8, "steps": 5, "n_eval": 40},
        outputs={"scores_csv": True},
    )
    # seed 6: member 1 is at 1.0 from cycle 1 and member 2 from cycle 3 (up
    # from 0.917), member 0 never; a skip rule looser than "1.0" shows here
    raw.update(seed=6)
    raw["attack"].update(cycles=4)
    raw["attack"]["ensemble"]["epochs"] = 20
    cfg = parse_config(raw)
    run_attack(cfg, tmp_path / "skip")

    # reference trainers without the skip, built from public numkit calls:
    # every member retrains each cycle and is fine-tuned in the SSL stage
    saturated_at = {"cycle": [], "ssl": []}

    def retrain_every_member(state, pool_state, cfgs, seed):
        saturated_at["cycle"].append([b is not None and b.val_accuracy == 1.0 for b in state.best])
        X, y, _ = pool_state.labeled_data()
        Xv, yv, _ = pool_state.validation_data()
        state.cycle += 1
        for i, member_spec in enumerate(state.spec.members):
            fresh = MlpModel.initialize(member_spec)
            trained, _ = numkit.train_supervised(fresh, (X, y), cfgs[i], derive_seed(seed, i))
            acc = numkit.accuracy(trained, Xv, yv, MEMBER_DTYPE)
            if state.best[i] is None or acc > state.best[i].val_accuracy:
                state.best[i] = BestCheckpoint(trained.copy(), acc, state.cycle)

    def finetune_every_member(state, pool_state, ssl_cfg, seed):
        saturated_at["ssl"].append([b.val_accuracy == 1.0 for b in state.best])
        Xl, yl, _ = pool_state.labeled_data()
        Xp, yp, _ = pool_state.pseudo_data()
        Xv, yv, _ = pool_state.validation_data()
        sgd = ssl_cfg.sgd()
        train_seed = derive_seed(seed, 1)
        for i, best in enumerate(list(state.best)):
            model = best.model.copy()
            velocity = np.zeros_like(model.params)
            for e in range(ssl_cfg.epochs):
                order = np.random.default_rng(derive_seed(train_seed, i, e, 0)).permutation(len(Xl))
                numkit.sgd_epoch(model, velocity, Xl, yl, order, sgd, sgd.base_lr)
                order = np.random.default_rng(derive_seed(train_seed, i, e, 1)).permutation(len(Xp))
                aug_rng = np.random.default_rng((train_seed, mask64(seed), i, e, 1))
                Xa = strong_augment(Xp[order], pool_state.pool.layout, aug_rng)
                numkit.sgd_epoch(model, velocity, Xa, yp[order], np.arange(order.size), sgd, sgd.base_lr)
            model.epoch_counter += ssl_cfg.epochs
            acc = numkit.accuracy(model, Xv, yv, MEMBER_DTYPE)
            if acc > best.val_accuracy:
                state.best[i] = BestCheckpoint(model.copy(), acc, state.cycle + 1)

    monkeypatch.setattr(harness, "train_cycle", retrain_every_member)
    monkeypatch.setattr(harness, "ssl_train", finetune_every_member)
    run_attack(cfg, tmp_path / "every")

    # not vacuous: members were saturated before the last cycle and before
    # SSL, and SSL still fine-tuned at least one member
    assert len(saturated_at["cycle"]) == 4 and any(saturated_at["cycle"][-1])
    assert len(saturated_at["ssl"]) == 1 and 0 < sum(saturated_at["ssl"][0]) < 3
    skip, every = _artifacts(tmp_path / "skip"), _artifacts(tmp_path / "every")
    assert "ensemble/index.txt" in skip and "scores.csv" in skip and "adv_member2.csv" in skip
    assert skip.keys() == every.keys()
    for name in skip:
        assert skip[name] == every[name], name


@pytest.mark.bitwise
@pytest.mark.parametrize("denominator", ["source_fooled", "all"])
@pytest.mark.parametrize("n_eval", [40, 500], ids=["below_test_n", "above_test_n"])
def test_one_transfer_call_per_member_leaves_every_artifact_unchanged(tmp_path, monkeypatch, denominator, n_eval):
    raw = base_config(adversarial={"epsilon": 0.8, "steps": 5, "n_eval": n_eval, "denominator": denominator})
    cfg = parse_config(raw)
    run_attack(cfg, tmp_path / "one")

    # the reference measures a member in nine public calls: it slices the
    # test rows, attacks and makes four label passes, then draws the random
    # signs and makes four more
    adv_seed = stage_seed(mask64(cfg.seed), ADV_STAGE)
    members = []

    def four_passes(source, target, X, y, X_adv):
        clean_src, clean_tgt, adv_src, adv_tgt = (predict_batch(m, Z) for Z in (X, X_adv) for m in (source, target))
        src_fooled = adv_src != y
        both = src_fooled & (adv_tgt != y)
        if denominator == "all":
            rate = float(both.sum() / len(y))
        else:
            rate = None if src_fooled.sum() == 0 else float(both.sum() / src_fooled.sum())
        return clean_src, clean_tgt, adv_src, adv_tgt, src_fooled, both, rate

    def reference_transfer(source, target, X, y, ac, *_seeds):
        i = len(members)  # members are measured in order
        members.append(i)
        X, y = X[:n_eval], y[:n_eval]
        X_pgd = pgd_attack_batch(source, X, y, ac, derive_seed(adv_seed, i))
        clean_src, clean_tgt, adv_src, adv_tgt, src_fooled, both, rate = four_passes(source, target, X, y, X_pgd)
        signs = np.random.default_rng(mask64(derive_seed(adv_seed, i, 1))).integers(0, 2, size=X.shape) * 2 - 1
        random_rate = four_passes(source, target, X, y, X + ac.epsilon * signs)[-1]
        return TransferResult(
            len(y), int(src_fooled.sum()), int(both.sum()), rate, random_rate,
            float(np.mean(clean_src == y)), float(np.mean(clean_tgt == y)),
            float(np.mean(adv_src == y)), float(np.mean(adv_tgt == y)),
            clean_src, clean_tgt, adv_src, adv_tgt,
        )

    monkeypatch.setattr(harness, "transferability", reference_transfer)
    run_attack(cfg, tmp_path / "reference")

    assert len(members) == 3  # every member was measured by the reference
    one, reference = _artifacts(tmp_path / "one"), _artifacts(tmp_path / "reference")
    assert one["adv_member0.csv"].count(b"\n") == 1 + min(n_eval, cfg.victim.test_n)
    rows = json.loads(one["report.json"])["adversarial"]
    assert all(r["transfer_rate"] is not None and r["random_transfer_rate"] is not None for r in rows)
    assert one.keys() == reference.keys()
    for name in one:
        assert one[name] == reference[name], name


def test_a_run_directory_refuses_a_second_run_beside_the_first(tmp_path):
    # a 2-member run without PGD or scores.csv, after a 3-member run with
    # both, left adv_member0-2.csv, scores.csv and ensemble/member2_best.ckpt
    # beside a report.json that names 2 members
    first = base_config(adversarial={"epsilon": 0.8, "steps": 3, "n_eval": 20}, outputs={"scores_csv": True})
    run_attack(parse_config(first), tmp_path)  # an existing empty directory is taken
    before = _artifacts(tmp_path)
    assert {"adv_member2.csv", "scores.csv", "ensemble/member2_best.ckpt"} <= set(before)
    second = base_config()
    second["attack"]["ensemble"]["hidden_profile"] = [[6], [10]]
    with pytest.raises(InvalidConfigError, match=f"^output directory {re.escape(str(tmp_path))} is not empty$"):
        run_attack(parse_config(second), tmp_path)
    assert _artifacts(tmp_path) == before


def test_a_failing_run_leaves_an_earlier_success_as_it_was(tmp_path, monkeypatch):
    # a run that failed in `cycles` after a success into the same directory
    # wrote "run failed" to summary.txt beside the first run's report.json
    cfg = parse_config(base_config())
    out = tmp_path / "run"
    run_attack(cfg, out)
    before = _artifacts(out)
    made = []
    real = harness.make_synthetic
    monkeypatch.setattr(harness, "make_synthetic", lambda *args: made.append(args) or real(*args))

    def cycle_down(*args):
        raise RuntimeError("cycle down")

    monkeypatch.setattr(harness, "train_cycle", cycle_down)
    with pytest.raises(InvalidConfigError, match="is not empty"):
        run_attack(cfg, out)
    assert made == []  # refused before any data was made, trained on or bought
    assert _artifacts(out) == before
    with pytest.raises(StageError) as err:  # the same run fails in a fresh directory
        run_attack(cfg, tmp_path / "fresh")
    assert err.value.stage == "cycles" and made


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_artifacts_agree_on_the_committee_size(tmp_path, k):
    raw = base_config(
        ssl={"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 20},
        adversarial={"epsilon": 0.8, "steps": 3, "n_eval": 20},
    )
    raw["attack"]["ensemble"]["hidden_profile"] = [[4], [6], [8], [10], [12], [14]][:k]
    report = run_attack(parse_config(raw), tmp_path)

    header, *rows = (tmp_path / "curves.csv").read_text().strip().split("\n")
    assert header.split(",")[2:-2] == [f"member{i}_acc" for i in range(k)]
    assert len(rows) == raw["attack"]["cycles"] + 1  # one row per cycle, one after SSL
    assert all(len(row.split(",")) == k + 4 for row in rows)

    assert "ssl" in report
    assert len(report["members"]) == k
    assert len(report["final"]["member_accs"]) == len(report["final"]["member_agreements"]) == k
    assert [a["member"] for a in report["adversarial"]] == list(range(k))
    assert 0 <= report["final"]["best_member_index"] < k

    index = (tmp_path / "ensemble" / "index.txt").read_text().strip().split("\n")
    assert index[0].split()[:2] == ["members", str(k)]
    assert [line.split()[0] for line in index[1:]] == [str(i) for i in range(k)]
    assert sorted(p.name for p in (tmp_path / "ensemble").glob("*.ckpt")) == [
        f"member{i}_best.ckpt" for i in range(k)
    ]
    assert sorted(p.name for p in tmp_path.glob("adv_member*.csv")) == [
        f"adv_member{i}.csv" for i in range(k)
    ]


# ── runs against one long-lived victim server ────────────────────────


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """A saved victim matching base_config's data (6 features, 3 classes)."""
    src = GaussianMixture(3, 6, 4.0)
    model, _ = train_victim(make_synthetic(src, 400, seed=1), None, VictimRecipe(epochs=10), seed=0)
    path = tmp_path_factory.mktemp("served") / "victim.ckpt"
    save_model(model, path)
    return path


def _remote_config(checkpoint, svc, kind="consensus_entropy") -> dict:
    raw = base_config()
    raw["victim"]["checkpoint"] = str(checkpoint)
    raw["attack"]["strategy"]["kind"] = kind
    raw["attack"]["remote"] = {"host": svc.host, "port": svc.port}
    return raw


@pytest.mark.dev
def test_remote_run_reports_rows_it_bought(tmp_path, served_checkpoint):
    # the server's budget (1000) is not the config's (120)
    oracle = VictimOracle(load_model(served_checkpoint), 1000)
    with VictimService(oracle) as svc:
        report = run_attack(parse_config(_remote_config(served_checkpoint, svc)), tmp_path)
    assert report["budget"] == {"total": 120, "spent": 120}
    assert oracle.budget_remaining() == 1000 - 120
    assert "budget: 120/120 queries spent" in (tmp_path / "summary.txt").read_text()


@pytest.mark.dev
def test_remote_runs_of_other_configs_share_one_server(tmp_path, served_checkpoint):
    # same seed, another strategy: the runs send different batches, so their
    # request ids must differ too; a same-config replay keeps its ids and is
    # answered from the server's cache
    oracle = VictimOracle(load_model(served_checkpoint), 1000)
    with VictimService(oracle) as svc:
        for kind in ("consensus_entropy", "random"):
            report = run_attack(parse_config(_remote_config(served_checkpoint, svc, kind)), tmp_path / kind)
            assert report["budget"]["spent"] == 120
        assert oracle.budget_remaining() == 1000 - 2 * 120
        replay = run_attack(parse_config(_remote_config(served_checkpoint, svc)), tmp_path / "replay")
        assert oracle.budget_remaining() == 1000 - 2 * 120
    first = (tmp_path / "consensus_entropy" / "report.json").read_bytes()
    assert (tmp_path / "replay" / "report.json").read_bytes() == first
    assert replay["budget"]["spent"] == 120
