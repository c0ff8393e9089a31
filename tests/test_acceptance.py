"""Acceptance gate: one test per shipped guarantee.

Each test prints a single [criterion N] PASS/FAIL line with the measured
numbers. The heavyweight fixtures (a 3x10 strategy grid at desk scale and
one full reference run) are session-scoped and shared between criteria.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import committee_probs, make_sharp_models, verdicts_as_oracle_shapes
from ensteal import adversarial as adv
from ensteal import config, harness, numkit
from ensteal.cli import main as cli_main
from ensteal.datapool import (
    Dataset,
    GaussianMixture,
    PoolState,
    initial_split,
    make_synthetic,
    split_budget,
)
from ensteal.ensemble import load_ensemble
from ensteal.errors import BudgetExhaustedError
from ensteal.netvictim import VictimService
from ensteal.numkit import MlpModel, MlpSpec, loss_and_grad
from ensteal.seeding import derive_seed
from ensteal.selection import disagreement_scores, entropy_rows, kcenter_select, top_k_select
from ensteal.victim import VictimOracle
from oracles import (
    entropy_direct,
    fd_loss_gradient,
    kcenter_bruteforce,
    ssl_filter_bruteforce,
    topk_bruteforce,
)

SEPARATION = 4.5  # calibrated so the target model tests >= 0.95 on every seed


class criterion:
    """Times a block and prints the [criterion N] PASS/FAIL line."""

    def __init__(self, n: int, desc: str):
        self.n = n
        self.desc = desc

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.n}] {status}: {self.desc} ({self.elapsed():.1f}s)")
        return False


# ── shared desk-scale machinery ──────────────────────────────────────


def desk_config(seed, kind, checkpoint=None, ssl=None, adversarial=None):
    raw = {
        "seed": seed,
        "victim": {
            "data": {
                "source": "gaussian_mixture",
                "classes": 4,
                "dim": 8,
                "separation": SEPARATION,
            },
            "train_n": 4000,
            "test_n": 2000,
        },
        "attack": {
            "pool_n": 20000,
            "budget": 600,
            "cycles": 10,
            "strategy": {"kind": kind},
            "ensemble": {"epochs": 30},
        },
    }
    if checkpoint is not None:
        raw["victim"]["checkpoint"] = str(checkpoint)
    if ssl is not None:
        raw["ssl"] = ssl
    if adversarial is not None:
        raw["adversarial"] = adversarial
    return config.parse_config(raw)


@pytest.fixture(scope="session")
def strategy_grid(tmp_path_factory):
    """random / consensus_entropy / label_disagreement runs on seeds 0-9.

    The random run trains the target model in-run; the scored runs reuse its
    checkpoint, so every strategy faces the same oracle at the same seed.
    """
    base = tmp_path_factory.mktemp("grid")
    reports: dict[tuple[str, int], dict] = {}
    ckpts: dict[int, str] = {}
    slowest = 0.0
    for seed in range(10):
        out = base / f"random_{seed}"
        t0 = time.monotonic()
        reports[("random", seed)] = harness.run_attack(desk_config(seed, "random"), out)
        slowest = max(slowest, time.monotonic() - t0)
        ckpts[seed] = str(out / "victim.ckpt")
        for kind in ("consensus_entropy", "label_disagreement"):
            t0 = time.monotonic()
            reports[(kind, seed)] = harness.run_attack(
                desk_config(seed, kind, checkpoint=ckpts[seed]), base / f"{kind}_{seed}"
            )
            slowest = max(slowest, time.monotonic() - t0)
    return reports, ckpts, slowest


@pytest.fixture(scope="session")
def reference_run(strategy_grid, tmp_path_factory):
    """Seed-9 full pipeline: scored queries, pseudo-label stage, transfer."""
    _, ckpts, _ = strategy_grid
    out = tmp_path_factory.mktemp("ref") / "run"
    cfg = desk_config(
        9,
        "consensus_entropy",
        checkpoint=ckpts[9],
        ssl={},
        adversarial={"epsilon": 1.0, "n_eval": 200},
    )
    t0 = time.monotonic()
    report = harness.run_attack(cfg, out)
    return out, report, time.monotonic() - t0


# ── criterion 1: gradient correctness ────────────────────────────────


def test_criterion_1_gradient_check():
    with criterion(1, "analytic gradients match central differences on 50 model/batch pairs") as c:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for pair in range(50):
            dim = int(rng.integers(2, 7))
            classes = int(rng.integers(2, 6))
            depth = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(3, 8)) for _ in range(depth))
            act = "relu" if rng.integers(2) else "tanh"
            spec = MlpSpec(dim, hidden, classes, act, rng_seed=pair)
            model = MlpModel.initialize(spec)
            n = int(rng.integers(1, 9))
            X = rng.normal(size=(n, dim))
            y = rng.integers(0, classes, n)
            _, grad = loss_and_grad(model, X, y)

            def loss_at(params, X=X, y=y, spec=spec):
                return loss_and_grad(MlpModel(spec, params), X, y)[0]

            fd = fd_loss_gradient(loss_at, model.params, range(model.params.size))
            for k, g_fd in fd.items():
                scale = max(abs(g_fd), abs(grad[k]))
                if scale >= 1e-4:
                    rel = abs(g_fd - grad[k]) / scale
                    worst = max(worst, rel)
                    assert rel < 1e-6, f"pair {pair} coord {k}: rel err {rel:.2e}"
                else:
                    # inactive coordinates: agree to finite-difference noise
                    assert abs(g_fd - grad[k]) < 1e-9
        assert c.elapsed() < 1.0, f"gradient sweep took {c.elapsed():.2f}s"
        c.desc += f" (max rel err {worst:.2e})"


# ── criterion 2: entropy and selection oracles ───────────────────────


def test_criterion_2_selection_oracles():
    with criterion(2, "entropy scoring and both selectors match independent oracles") as c:
        rng = np.random.default_rng(7)
        # entropy_rows, the scorer both scored strategies run, against direct
        # summation on one-row stacks
        for _ in range(200):
            p = rng.random(int(rng.integers(2, 10)))
            p /= p.sum()
            assert abs(entropy_rows(p[None])[0] - entropy_direct(p)) <= 1e-12
        assert entropy_rows([[0.0, 1.0, 0.0]])[0] == 0.0
        for n in (2, 3, 5, 10):
            assert abs(entropy_rows([np.full(n, 1.0 / n)])[0] - np.log(n)) <= 1e-12

        # committee splits: every way 5 votes can land over 6 classes scores
        # as one of the 7 vote-shape entropies
        partitions = [
            (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
        ]
        allowed = sorted(entropy_direct(np.array(p) / 5.0) for p in partitions)
        assert len(set(np.round(allowed, 12))) == 7
        multisets = list(itertools.combinations_with_replacement(range(6), 5))
        labels = np.array(multisets).T  # (members=5, rows)
        probs = np.eye(6)[labels]  # one-hot (members, rows, classes) stack
        scores = disagreement_scores(probs, np.arange(len(multisets)))
        seen = set()
        for s in scores:
            match = [a for a in allowed if abs(s - a) <= 1e-12]
            assert match, f"score {s!r} outside the 7-value set"
            seen.add(round(match[0], 12))
        assert len(seen) == 7  # every vote shape occurs

        # top-k and k-center against brute force, 200 instances each
        for trial in range(200):
            n = int(rng.integers(3, 50))
            k = int(rng.integers(1, n + 1))
            cands = np.sort(rng.choice(600, size=n, replace=False))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
            assert np.array_equal(
                top_k_select(scores, cands, k), topk_bruteforce(scores, cands, k)
            ), f"top-k trial {trial}"
        for trial in range(200):
            n_pool = int(rng.integers(8, 40))
            feats = rng.normal(size=(n_pool, int(rng.integers(2, 5))))
            n_cand = int(rng.integers(2, n_pool + 1))
            cands = np.sort(rng.choice(n_pool, size=n_cand, replace=False))
            rest = np.setdiff1d(np.arange(n_pool), cands)
            n_cent = int(rng.integers(0, min(4, rest.size) + 1))
            cents = rng.choice(rest, size=n_cent, replace=False) if n_cent else np.array([], dtype=np.int64)
            k = int(rng.integers(1, n_cand + 1))
            assert np.array_equal(
                kcenter_select(feats, cands, cents, k),
                kcenter_bruteforce(feats, cands, cents, k),
            ), f"k-center trial {trial}"
        assert c.elapsed() < 5.0, f"selection oracles took {c.elapsed():.2f}s"


# ── criterion 3: pseudo-label filter equivalence ─────────────────────


@pytest.mark.bitwise
def test_criterion_3_filter_equivalence():
    from ensteal.semisup import SslConfig, ssl_filter

    with criterion(3, "pseudo-label filter matches a brute-force reference bit-for-bit") as c:
        rng = np.random.default_rng(31)
        accepted_total = 0
        for trial in range(100):
            d = int(rng.integers(4, 8))
            models = make_sharp_models(5, dim=d, classes=4, seed=1000 + trial)
            ps = PoolState(Dataset(rng.normal(size=(200, d)) * 1.5))
            n_pre = int(rng.integers(0, 50))
            if n_pre:
                pre = np.sort(rng.choice(200, size=n_pre, replace=False))
                ps.query(pre, lambda X: np.zeros(len(X), dtype=np.int64))
            cfg = SslConfig()  # stock guards: at most 1 flip, unanimity, min confidence 0.9
            probs = committee_probs(models, ps.pool.features)
            sel, audit = verdicts_as_oracle_shapes(ssl_filter(models, probs, ps, cfg, seed=trial * 101))
            sel_ref, audit_ref = ssl_filter_bruteforce(models, ps, cfg, seed=trial * 101)
            assert sel == sel_ref, f"trial {trial}: acceptance sets differ"
            assert set(audit) == set(audit_ref)
            for i, rec in audit.items():
                # (changes, unanimous, min confidence): the confidences are
                # positive floats, so == compares them bit for bit
                assert rec == audit_ref[i], f"trial {trial} row {i}"
            accepted_total += len(sel)
        assert accepted_total > 0  # the guards actually pass rows somewhere
        assert c.elapsed() < 10.0, f"filter sweep took {c.elapsed():.2f}s"
        c.desc += f" ({accepted_total} rows accepted across 100 instances)"


# ── criterion 4: budget invariants ───────────────────────────────────


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pool_n=st.integers(12, 50),
    budget=st.integers(2, 24),
    cycles=st.integers(1, 4),
    vf=st.sampled_from([0.0, 0.1, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
def budget_property(pool_n, budget, cycles, vf, seed):
    val_n = round(budget * vf)
    assume(budget < pool_n)  # keep an unlabeled row around for the probes
    assume(cycles <= max(budget - val_n, 0))
    split_val, batches = split_budget(budget, cycles, vf)
    assume(min(batches) >= 1)
    assert split_val == val_n

    rng = np.random.default_rng(seed)
    spec = MlpSpec(3, (4,), 2, "relu", rng_seed=0)
    oracle = VictimOracle(MlpModel.initialize(spec), budget)
    ps = PoolState(Dataset(rng.normal(size=(pool_n, 3))))
    val_idx, q0 = initial_split(pool_n, split_val, batches[0], seed)
    assert val_idx.size == val_n
    assert q0.size == batches[0]
    assert val_n + sum(batches) == budget

    spent_expected = 0
    if val_n:
        oracle.query_labels(val_idx, ps)
        ps.convert_queried_to_validation(val_idx)
        spent_expected += val_n
    oracle.query_labels(q0, ps)
    spent_expected += batches[0]
    assert oracle.budget_remaining() == budget - spent_expected

    for k in range(1, cycles):
        unlabeled = ps.unlabeled_indices()
        remaining = oracle.budget_remaining()
        # an over-budget request is rejected wholesale: no charge, no marks
        probe = unlabeled[: remaining + 1]
        counts_before = ps.counts()
        with pytest.raises(BudgetExhaustedError):
            oracle.query_labels(probe, ps)
        assert oracle.budget_remaining() == remaining
        assert ps.counts() == counts_before

        oracle.query_labels(unlabeled[: batches[k]], ps)
        spent_expected += batches[k]
        assert oracle.budget_remaining() == budget - spent_expected

    # ledger closes exactly at validation + sum of query batches
    assert spent_expected == budget
    assert oracle.budget_remaining() == 0
    counts = ps.counts()
    assert counts["queried"] + counts["validation"] == budget
    with pytest.raises(BudgetExhaustedError):
        oracle.query_labels(ps.unlabeled_indices()[:1], ps)
    assert ps.counts() == counts


def small_run_config(seed=11, checkpoint=None, remote=None):
    raw = {
        "seed": seed,
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
        "ssl": {"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 20},
        "adversarial": {"epsilon": 0.8, "steps": 5, "n_eval": 40},
        "outputs": {"scores_csv": True},
    }
    if checkpoint is not None:
        raw["victim"]["checkpoint"] = str(checkpoint)
    if remote is not None:
        raw["attack"]["remote"] = remote
    return config.parse_config(raw)


def _tree_bytes(root, skip=frozenset()):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            if rel in skip:
                continue
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


@pytest.mark.dev
def test_criterion_4_budget_invariants(tmp_path):
    with criterion(4, "spend ledger invariants hold; remote and local backends agree") as c:
        budget_property()

        local_out = tmp_path / "local"
        local_report = harness.run_attack(small_run_config(), local_out)
        assert local_report["budget"]["spent"] == 120

        model = numkit.load_model(local_out / "victim.ckpt")
        with VictimService(VictimOracle(model, 120)) as svc:
            remote_out = tmp_path / "remote"
            remote_report = harness.run_attack(
                small_run_config(
                    checkpoint=local_out / "victim.ckpt",
                    remote={"host": svc.host, "port": svc.port},
                ),
                remote_out,
            )
        assert remote_report == local_report
        # every emitted byte matches; only the echoed config differs (it
        # names the service address and checkpoint path)
        local_files = _tree_bytes(local_out, skip={"config_echo.json"})
        remote_files = _tree_bytes(remote_out, skip={"config_echo.json"})
        assert set(local_files) == set(remote_files)
        for rel in local_files:
            assert local_files[rel] == remote_files[rel], f"{rel} differs"
        assert c.elapsed() < 60.0, f"budget criterion took {c.elapsed():.1f}s"


# ── criterion 5: desk-scale extraction beats random selection ────────


def test_criterion_5_desk_scale_extraction(strategy_grid, reference_run):
    with criterion(5, "scored strategies match or beat random selection; pseudo stage holds agreement") as c:
        reports, _, slowest = strategy_grid
        _, ref_report, ref_elapsed = reference_run

        for seed in range(10):
            acc = reports[("random", seed)]["victim_test_acc"]
            assert acc >= 0.95, f"seed {seed}: victim test accuracy {acc}"

        def agr(kind, seed):
            return reports[(kind, seed)]["final"]["ensemble_agreement"]

        ce_wins = sum(agr("consensus_entropy", s) >= agr("random", s) for s in range(10))
        ld_wins = sum(agr("label_disagreement", s) >= agr("random", s) for s in range(10))
        assert ce_wins >= 7, f"consensus entropy beat random in only {ce_wins}/10 seeds"
        assert ld_wins >= 7, f"label disagreement beat random in only {ld_wins}/10 seeds"

        ssl = ref_report["ssl"]
        drop = ssl["pre_val_agreement"] - ssl["post_val_agreement"]
        assert drop < 0.01, f"pseudo-label stage dropped validation agreement by {drop}"

        assert ref_elapsed < 300.0, f"reference run took {ref_elapsed:.0f}s"
        assert slowest < 300.0, f"slowest grid run took {slowest:.0f}s"
        c.desc += (
            f" (CE {ce_wins}/10, LD {ld_wins}/10, agreement drop {drop:+.4f},"
            f" reference run {ref_elapsed:.0f}s)"
        )


# ── criterion 6: adversarial transfer properties ─────────────────────


def test_criterion_6_adversarial_transfer(reference_run):
    with criterion(6, "transfer behaves: identity at zero, monotone in budget, beats noise, architecture match wins") as c:
        out, report, _ = reference_run
        root = harness.mask64(9)
        victim = numkit.load_model(out / "victim.ckpt")
        state = load_ensemble(out / "ensemble")
        models = state.best_models()
        src = GaussianMixture(4, 8, SEPARATION)
        test = make_synthetic(src, 2000, harness.stage_seed(root, harness.TEST_DATA))
        X, y = test.features, test.labels  # the call attacks the first n_eval = 200
        adv_seed = harness.stage_seed(root, harness.ADV_STAGE)

        # a zero-budget attack and its baseline leave every label as it was
        zero = adv.transferability(models[2], victim, X, y, adv.PgdConfig(epsilon=0.0, steps=20), 1, 2)
        assert zero.n == 200
        assert np.array_equal(zero.adv_source_labels, zero.clean_source_labels)
        assert np.array_equal(zero.adv_target_labels, zero.clean_target_labels)
        assert zero.random_transfer_rate == zero.transfer_rate

        # the crafted-on model's accuracy never recovers as the ball grows
        for i, m in enumerate(models):
            accs = []
            for eps in (0.0, 0.5, 1.0):
                cfg = adv.PgdConfig(epsilon=eps, steps=20)
                accs.append(adv.transferability(m, victim, X, y, cfg, derive_seed(adv_seed, i)).adv_source_acc)
            assert accs[0] >= accs[1] >= accs[2], f"member {i}: accs {accs}"

        # crafted perturbations carry to the victim better than sign noise
        for i, m in enumerate(models):
            cfg = adv.PgdConfig(epsilon=1.0, steps=20, denominator="all")
            res = adv.transferability(m, victim, X, y, cfg, derive_seed(adv_seed, i), derive_seed(adv_seed, i, 1))
            assert res.transfer_rate > res.random_transfer_rate, (
                f"member {i}: pgd {res.transfer_rate} vs noise {res.random_transfer_rate}"
            )

        # the member sharing the target's architecture transfers best
        rates = [row["transfer_rate"] for row in report["adversarial"]]
        arch = report["victim_arch_index"]
        assert arch == 2
        assert all(rates[arch] >= r for r in rates), f"rates {rates}"

        assert c.elapsed() < 120.0, f"adversarial checks took {c.elapsed():.1f}s"
        c.desc += f" (transfer by member: {[round(r, 3) for r in rates]})"


# ── criterion 7: CLI determinism ─────────────────────────────────────


def _run_cli(*argv):
    assert cli_main(list(argv)) == 0


@pytest.mark.bitwise
def test_criterion_7_cli_determinism(tmp_path, capsys):
    with criterion(7, "every CLI subcommand writes byte-identical files on identical inputs") as c:
        d = tmp_path

        # gen-data: labeled tabular and unlabeled image variants
        for variant, args in {
            "mix": ["--source", "gaussian_mixture", "--classes", "3", "--dim", "5",
                    "--separation", "4.0", "--n", "300", "--seed", "2"],
            "dig": ["--source", "tiny_digits", "--height", "6", "--width", "4",
                    "--n", "120", "--seed", "3", "--unlabeled"],
        }.items():
            a, b = d / f"{variant}_a.aotd", d / f"{variant}_b.aotd"
            _run_cli("gen-data", *args, "--out", str(a))
            _run_cli("gen-data", *args, "--out", str(b))
            assert a.read_bytes() == b.read_bytes(), f"gen-data {variant}"

        # train-victim
        train_args = [
            "train-victim", "--train", str(d / "mix_a.aotd"), "--hidden", "10,10",
            "--epochs", "20", "--seed", "4",
        ]
        _run_cli(*train_args, "--out", str(d / "vic_a.ckpt"))
        _run_cli(*train_args, "--out", str(d / "vic_b.ckpt"))
        assert (d / "vic_a.ckpt").read_bytes() == (d / "vic_b.ckpt").read_bytes()

        # run-attack: full pipeline twice, every output file compared
        cfg_path = d / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "seed": 21,
                    "victim": {
                        "data": {"source": "gaussian_mixture", "classes": 3, "dim": 5,
                                 "separation": 4.0},
                        "train_n": 400, "test_n": 150,
                        "hidden_layers": [12, 12], "epochs": 20,
                    },
                    "attack": {
                        "pool_n": 500, "budget": 90, "cycles": 3,
                        "strategy": {"kind": "label_disagreement", "hybrid_kcenter": True},
                        "ensemble": {"hidden_profile": [[6], [12, 12]], "epochs": 8},
                    },
                    "ssl": {"epochs": 2, "confidence_threshold": 0.6, "per_class_cap": 15},
                    "adversarial": {"epsilon": 0.8, "steps": 5, "n_eval": 30},
                    "outputs": {"scores_csv": True},
                },
                indent=2,
            )
        )
        _run_cli("run-attack", "--config", str(cfg_path), "--out", str(d / "run_a"))
        _run_cli("run-attack", "--config", str(cfg_path), "--out", str(d / "run_b"))
        files_a = _tree_bytes(d / "run_a")
        files_b = _tree_bytes(d / "run_b")
        assert set(files_a) == set(files_b)
        for rel in files_a:
            assert files_a[rel] == files_b[rel], f"run-attack output {rel} differs"

        # evaluate
        eval_args = [
            "evaluate", "--ensemble", str(d / "run_a" / "ensemble"),
            "--victim", str(d / "run_a" / "victim.ckpt"), "--data", str(d / "mix_a.aotd"),
        ]
        _run_cli(*eval_args, "--out", str(d / "m_a.json"))
        _run_cli(*eval_args, "--out", str(d / "m_b.json"))
        assert (d / "m_a.json").read_bytes() == (d / "m_b.json").read_bytes()

        # adv-transfer
        adv_args = [
            "adv-transfer", "--source", str(d / "vic_a.ckpt"),
            "--victim", str(d / "run_a" / "victim.ckpt"), "--data", str(d / "mix_a.aotd"),
            "--epsilon", "1.0", "--steps", "6", "--n-eval", "50", "--seed", "8",
        ]
        _run_cli(*adv_args, "--out", str(d / "t_a.csv"))
        _run_cli(*adv_args, "--out", str(d / "t_b.csv"))
        assert (d / "t_a.csv").read_bytes() == (d / "t_b.csv").read_bytes()

        capsys.readouterr()  # drop accumulated CLI chatter; keep our summary line
        assert c.elapsed() < 60.0, f"CLI determinism took {c.elapsed():.1f}s"
