import json
import re

import numpy as np
import pytest

from ensteal import numkit
from ensteal.datapool import GaussianMixture, ImageLayout, make_synthetic
from ensteal.ensemble import ensemble_predict, member_probs_matrix
from ensteal.errors import InvalidConfigError, StageError
from ensteal.harness import (
    ADV_STAGE,
    CYCLE_TRAIN,
    POOL_DATA,
    SELECT,
    config_to_dict,
    evaluate_models,
    load_config,
    parse_config,
    resolve_augment,
    run_attack,
    stage_seed,
)
from ensteal.netvictim import VictimService
from ensteal.numkit import load_model, predict_batch, save_model
from ensteal.victim import QueryBudget, VictimOracle, default_victim_sgd, train_victim


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
    assert cfg.victim.base_lr == 0.1 and cfg.victim.momentum == 0.5
    assert cfg.attack.validation_fraction == 0.1


def test_parse_rejects_unknown_keys_with_paths():
    bad = base_config()
    bad["victim"]["data"]["flavor"] = "spicy"
    with pytest.raises(InvalidConfigError, match="victim.data"):
        parse_config(bad)
    bad = base_config()
    bad["attack"]["strategy"]["k"] = 5
    with pytest.raises(InvalidConfigError, match="attack.strategy"):
        parse_config(bad)
    bad = base_config()
    bad["turbo"] = True
    with pytest.raises(InvalidConfigError, match="turbo"):
        parse_config(bad)


def test_parse_requires_core_fields():
    with pytest.raises(InvalidConfigError, match="seed"):
        parse_config({"victim": {}, "attack": {}})
    cfg = base_config()
    del cfg["attack"]["budget"]
    with pytest.raises(InvalidConfigError):
        parse_config(cfg)
    cfg = base_config()
    del cfg["victim"]["data"]["classes"]
    with pytest.raises(InvalidConfigError):
        parse_config(cfg)


def test_parse_validates_budget_arithmetic():
    cfg = base_config()
    cfg["attack"]["budget"] = 2  # splits to zero queries per cycle
    with pytest.raises(InvalidConfigError):
        parse_config(cfg)


def test_parse_ssl_and_adv_sections():
    raw = base_config(
        ssl={"confidence_threshold": 0.8, "epochs": 5, "augment": None},
        adversarial={"epsilon": 0.5, "steps": 7, "denominator": "all"},
    )
    cfg = parse_config(raw)
    assert cfg.ssl.confidence_threshold == 0.8
    assert cfg.ssl.per_class_cap == 100
    assert cfg.adversarial.epsilon == 0.5
    assert cfg.adversarial.denominator == "all"
    raw["ssl"]["augment"] = {"weak": "jitter"}
    with pytest.raises(InvalidConfigError, match="augment"):
        parse_config(raw)
    raw["ssl"]["augment"] = None
    raw["adversarial"]["denominator"] = "whatever"
    with pytest.raises(InvalidConfigError):
        parse_config(raw)


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
        ("victim.base_lr", True),
        ("victim.base_lr", "0.1"),
        ("victim.activation", 1),
        ("victim.checkpoint", 7),
        ("victim.hidden_layers", 5),
        ("victim.hidden_layers", [16, 16.5]),
        ("victim.hidden_layers", [16, True]),
        ("victim.data.classes", 3.0),
        ("victim.data.separation", "far"),
        ("attack.budget", 60.9),
        ("attack.pool_n", "800"),
        ("attack.validation_fraction", False),
        ("attack.strategy.hybrid_kcenter", "false"),
        ("attack.strategy.hybrid_kcenter", 0),
        ("attack.strategy.hybrid_pool_factor", 2.0),
        ("attack.ensemble.hidden_profile", [[6], 10]),
        ("attack.ensemble.hidden_profile", [[6], [10.0]]),
        ("attack.ensemble.epochs", "10"),
        ("attack.ensemble.victim_arch_index", 1.0),
        ("attack.remote.port", "4242"),
        ("attack.remote.host", 127),
        ("attack.remote.timeout", None),
        ("ssl.epochs", 2.0),
        ("ssl.confidence_threshold", True),
        ("adversarial.epsilon", "0.5"),
        ("adversarial.random_start", "yes"),
        ("adversarial.step_size", True),
        ("outputs.scores_csv", 1),
    ],
)
def test_parse_rejects_wrong_types_naming_the_key(path, value):
    parse_config(_full_config("seed", 5))  # the unmodified config is valid
    with pytest.raises(InvalidConfigError, match=re.escape(path)):
        parse_config(_full_config(path, value))


def test_parse_keeps_int_for_float_fields():
    raw = base_config()
    raw["victim"]["base_lr"] = 1
    raw["victim"]["data"]["separation"] = 4
    cfg = parse_config(raw)
    assert cfg.victim.base_lr == 1.0 and isinstance(cfg.victim.base_lr, float)
    assert isinstance(cfg.victim.data.separation, float)
    raw["attack"]["ensemble"]["victim_arch_index"] = None
    raw["adversarial"] = {"epsilon": 1, "step_size": None}
    cfg = parse_config(raw)
    assert cfg.attack.ensemble.victim_arch_index is None
    assert cfg.adversarial.epsilon == 1.0 and isinstance(cfg.adversarial.epsilon, float)


def test_config_roundtrip_through_dict():
    raw = base_config(
        ssl={"epochs": 4},
        adversarial={"epsilon": 1.0},
        outputs={"scores_csv": True},
    )
    cfg = parse_config(raw)
    again = parse_config(config_to_dict(cfg))
    assert again == cfg


def test_victim_arch_index_auto_detection():
    cfg = parse_config(base_config())
    # profile [[6],[10],[16,16]] contains the victim's (16,16) at index 2
    assert cfg.attack.ensemble.auto_victim_index is True
    raw = base_config()
    raw["attack"]["ensemble"]["victim_arch_index"] = 1
    cfg = parse_config(raw)
    assert cfg.attack.ensemble.victim_arch_index == 1
    assert cfg.attack.ensemble.auto_victim_index is False


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


# ── augment resolution ───────────────────────────────────────────────


def test_resolve_augment_by_layout():
    tab = resolve_augment(None, seed=3)
    assert tab.weak.sigma == 0.05
    img = resolve_augment(ImageLayout(8, 5, 1), seed=3)
    assert img.weak.p == 0.5
    assert img.rng_seed == 3


# ── evaluation ───────────────────────────────────────────────────────


def test_evaluate_models_keys():
    src = GaussianMixture(3, 5, 4.0)
    train = make_synthetic(src, 400, seed=1)
    test = make_synthetic(src, 150, seed=2)
    victim, _ = train_victim(train, test, cfg=default_victim_sgd(epochs=15), seed=0)
    other, _ = train_victim(train, test, cfg=default_victim_sgd(epochs=10), seed=1)
    victim_labels = predict_batch(victim, test.features)
    out = evaluate_models(member_probs_matrix([victim, other], test.features), victim_labels, test)
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
    labels = [predict_batch(m, test.features) for m in (victim, other)]
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


def test_run_attack_curves_shape(tiny_run):
    cfg, out, _ = tiny_run
    lines = (out / "curves.csv").read_text().strip().split("\n")
    # one accuracy column per member of the 3-member committee
    assert lines[0] == (
        "cycle,queries_spent,member0_acc,member1_acc,member2_acc,ensemble_acc,ensemble_agr"
    )
    assert all(ln.count(",") == lines[0].count(",") for ln in lines[1:])
    # cycles + 1 ssl row
    assert len(lines) == 1 + cfg.attack.cycles + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    val_n = round(cfg.attack.budget * cfg.attack.validation_fraction)
    q0 = (cfg.attack.budget - val_n) // cfg.attack.cycles
    assert first[1] == str(val_n + q0)
    last = lines[-1].split(",")
    assert last[1] == str(cfg.attack.budget)


def test_run_attack_budget_accounting(tiny_run):
    cfg, _, report = tiny_run
    assert report["budget"]["total"] == cfg.attack.budget
    assert report["budget"]["spent"] == cfg.attack.budget


def test_run_attack_report_sections(tiny_run):
    cfg, out, report = tiny_run
    assert report["victim_test_acc"] > 0.8
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
    monkeypatch.setattr(numkit, "probs_batch", lambda m, X: rows.append(len(X)) or real(m, X))
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


# ── runs against one long-lived victim server ────────────────────────


@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """A saved victim matching base_config's data (6 features, 3 classes)."""
    src = GaussianMixture(3, 6, 4.0)
    model, _ = train_victim(make_synthetic(src, 400, seed=1), cfg=default_victim_sgd(epochs=10), seed=0)
    path = tmp_path_factory.mktemp("served") / "victim.ckpt"
    save_model(model, path)
    return path


def _remote_config(checkpoint, svc, kind="consensus_entropy") -> dict:
    raw = base_config()
    raw["victim"]["checkpoint"] = str(checkpoint)
    raw["attack"]["strategy"]["kind"] = kind
    raw["attack"]["remote"] = {"host": svc.host, "port": svc.port}
    return raw


def test_remote_run_reports_rows_it_bought(tmp_path, served_checkpoint):
    # the server's budget (1000) is not the config's (120)
    oracle = VictimOracle(load_model(served_checkpoint), QueryBudget(1000))
    with VictimService(oracle) as svc:
        report = run_attack(parse_config(_remote_config(served_checkpoint, svc)), tmp_path)
    assert report["budget"] == {"total": 120, "spent": 120}
    assert oracle.budget_remaining() == 1000 - 120
    assert "budget: 120/120 queries spent" in (tmp_path / "summary.txt").read_text()


def test_remote_runs_of_other_configs_share_one_server(tmp_path, served_checkpoint):
    # same seed, another strategy: the runs send different batches, so their
    # request ids must differ too; a same-config replay keeps its ids and is
    # answered from the server's cache
    oracle = VictimOracle(load_model(served_checkpoint), QueryBudget(1000))
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
