"""Experiment orchestration: config in, deterministic report files out.

A run is fully described by one JSON config (parsed by `config`) plus one
root seed. Every stage derives its randomness as root XOR a fixed stage
offset (fanned out further per cycle and member), so two runs of the same
config produce byte-identical outputs, and changing one stage's behavior
never perturbs another stage's draws.

Pipeline: synthesize data, obtain the target model (train, load, or talk to
a remote service), split the query budget into validation plus per-cycle
batches, alternate committee refreshes with query selection until the budget
is spent, optionally mine pseudo-labels and run consistency training, and
optionally measure adversarial transfer from every member to the target.

Emitted files (no timestamps anywhere): report.json, curves.csv,
summary.txt, config_echo.json, pseudo_hist.csv, optional scores.csv,
optional per-member adversarial CSVs, the trained victim checkpoint, and
the final ensemble directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from . import adversarial as adv
from . import config, numkit
from .datapool import Dataset, PoolState, initial_split, make_synthetic, per_cycle_batches, strip_labels
from .ensemble import EnsembleState, committee_vote, save_ensemble, train_cycle
from .errors import InvalidInputError, StageError
from .seeding import derive_seed, mask64
from .selection import SCORED_KINDS, select_queries
from .semisup import harvest_pseudo_labels, resolve_augment, ssl_train
from .victim import QueryBudget, VictimOracle, train_victim

# Stage offsets XORed into the root seed; every stage owns one.
POOL_DATA = 1
VICTIM_DATA = 2
TEST_DATA = 3
SPLIT = 4
VICTIM_TRAIN = 5
ENSEMBLE_INIT = 6
CYCLE_TRAIN = 7
SELECT = 8
SSL_STAGE = 9
ADV_STAGE = 10
CLIENT_IDS = 11

SCORES_HEADER = "cycle,sample_index,score,selected"
PSEUDO_HIST_HEADER = "class,count"


def stage_seed(root: int, offset: int) -> int:
    return mask64(mask64(root) ^ offset)


# ── evaluation helpers ───────────────────────────────────────────────


def evaluate_models(probs: np.ndarray, victim_labels: np.ndarray, test: Dataset) -> dict:
    """Member and committee accuracy on ground truth plus agreement with
    the target model's labels, from the members' (members, rows, classes)
    softmax over test and the target's labels for the same rows."""
    if test.labels is None:
        raise InvalidInputError("evaluation data must be labeled")
    y = test.labels
    labels = np.argmax(probs, axis=2)
    vote = committee_vote(probs)
    return {
        "member_accs": [float(np.mean(lab == y)) for lab in labels],
        "member_agreements": [float(np.mean(lab == victim_labels)) for lab in labels],
        "ensemble_acc": float(np.mean(vote == y)),
        "ensemble_agreement": float(np.mean(vote == victim_labels)),
        "victim_acc": float(np.mean(victim_labels == y)),
    }


def _queries_spent(pool_state: PoolState) -> int:
    """Labels bought so far: validation plus queried rows, not pseudo-labels."""
    counts = pool_state.counts()
    return counts["queried"] + counts["validation"]


# ── the run itself ───────────────────────────────────────────────────


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, header: str, rows) -> None:
    _write_lines(path, [header, *(",".join(_fmt(v) for v in row) for row in rows)])


def _write_curves(out_dir, cfg: config.ExperimentConfig, curves_rows: list[list]) -> None:
    """curves.csv with one accuracy column per committee member."""
    members = [f"member{i}_acc" for i in range(len(cfg.attack.ensemble.hidden_profile))]
    header = ",".join(["cycle", "queries_spent", *members, "ensemble_acc", "ensemble_agr"])
    _write_csv(os.path.join(out_dir, "curves.csv"), header, curves_rows)


def run_attack(cfg: config.ExperimentConfig, out_dir, config_text: Optional[str] = None) -> dict:
    """Execute the full experiment and write the report files into out_dir.

    Returns the report dictionary (same content as report.json). Failures
    raise StageError naming the stage; whatever per-cycle rows exist by then
    are still flushed.
    """
    os.makedirs(out_dir, exist_ok=True)
    root = mask64(cfg.seed)
    a = cfg.attack
    curves_rows: list[list] = []
    score_rows: list[list] = []
    report: dict = {"budget": {"total": a.budget}, "cycles": a.cycles, "strategy": a.strategy.kind}
    client = None

    if config_text is None:
        config_text = json.dumps(config.config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    with open(os.path.join(out_dir, "config_echo.json"), "w", newline="") as fh:
        fh.write(config_text)

    try:
        with _stage("data"):
            source = cfg.victim.data
            pool = strip_labels(make_synthetic(source, a.pool_n, stage_seed(root, POOL_DATA)))
            test = make_synthetic(source, cfg.victim.test_n, stage_seed(root, TEST_DATA))

        with _stage("victim"):
            if cfg.victim.checkpoint is not None:
                victim_model = numkit.load_model(cfg.victim.checkpoint)
                # refused before any label is bought
                numkit.check_shape(victim_model, (source.input_dim, source.num_classes), "checkpoint", "victim.data")
            else:
                victim_train = make_synthetic(source, cfg.victim.train_n, stage_seed(root, VICTIM_DATA))
                victim_model, _ = train_victim(
                    victim_train, None, cfg.victim, stage_seed(root, VICTIM_TRAIN), num_classes=source.num_classes
                )
            numkit.save_model(victim_model, os.path.join(out_dir, "victim.ckpt"))
            victim_test_labels = numkit.predict_batch(victim_model, test.features)
            report["victim_test_acc"] = float(np.mean(victim_test_labels == test.labels))
            if a.remote is not None:
                # the server stack is imported only by runs that talk to one
                from .netvictim import RemoteVictimClient

                # ids derive from the seed and the config text: another config's
                # requests never reuse this run's ids, a same-config replay does
                config_digest = hashlib.sha256(config_text.encode()).digest()[:8]
                id_seed = derive_seed(stage_seed(root, CLIENT_IDS), int.from_bytes(config_digest, "big"))
                oracle = client = RemoteVictimClient(
                    a.remote.host, a.remote.port, a.remote.timeout, a.remote.retries, id_seed
                )
            else:
                oracle = VictimOracle(victim_model, QueryBudget(a.budget))

        with _stage("split"):
            pool_state = PoolState(pool)
            val_idx, q0_idx = initial_split(
                a.pool_n, a.budget, a.cycles, a.validation_fraction, stage_seed(root, SPLIT)
            )
            batches = per_cycle_batches(a.budget, a.cycles, a.validation_fraction)

        with _stage("initial_queries"):
            oracle.query_labels(val_idx, pool_state)
            pool_state.convert_queried_to_validation(val_idx)
            oracle.query_labels(q0_idx, pool_state)
            val = Dataset(*pool_state.validation_data()[:2])

        with _stage("ensemble_setup"):
            ens_spec = a.ensemble.spec(source.input_dim, source.num_classes, stage_seed(root, ENSEMBLE_INIT))
            state = EnsembleState(ens_spec)
            member_cfgs = a.ensemble.sgd(ens_spec)
            report["members"] = [list(m.hidden_layers) for m in ens_spec.members]
            # the member whose widths equal the victim's, if any
            profile, victim_hidden = a.ensemble.hidden_profile, victim_model.spec.hidden_layers
            report["victim_arch_index"] = profile.index(victim_hidden) if victim_hidden in profile else None

        def evaluate(row: int) -> dict:
            """The committee on the test set, logged as curves.csv row `row`."""
            ev = evaluate_models(state.best_probs(test), victim_test_labels, test)
            spent = _queries_spent(pool_state)
            curves_rows.append([row, spent, *ev["member_accs"], ev["ensemble_acc"], ev["ensemble_agreement"]])
            return ev

        def val_agreement() -> float:
            return float(np.mean(committee_vote(state.best_probs(val)) == val.labels))

        with _stage("cycles"):
            for c in range(1, a.cycles + 1):
                train_cycle(state, pool_state, member_cfgs, derive_seed(stage_seed(root, CYCLE_TRAIN), c))
                ev = evaluate(c)
                if c < a.cycles:
                    sel = select_queries(
                        a.strategy,
                        state.best_probs(pool) if a.strategy.kind in SCORED_KINDS else None,
                        pool_state,
                        batches[c],
                        seed=derive_seed(stage_seed(root, SELECT), c),
                    )
                    if cfg.outputs.scores_csv and sel.scores is not None:
                        chosen = set(sel.selected.tolist())
                        for cand, sc in zip(sel.candidates.tolist(), sel.scores.tolist()):
                            score_rows.append([c, cand, sc, int(cand in chosen)])
                    oracle.query_labels(sel.selected, pool_state)
            # the last cycle selects nothing, so its evaluation is the final one
            best = state.best_member_index()
            report["final"] = dict(ev, best_member_index=best, best_member_val_acc=state.best[best].val_accuracy)
            del report["final"]["victim_acc"]

        if cfg.ssl is not None:
            with _stage("ssl"):
                ssl_seed = stage_seed(root, SSL_STAGE)
                augment = resolve_augment(pool.layout, ssl_seed)
                pre_agr = val_agreement()
                kept, _, _ = harvest_pseudo_labels(
                    state.best_models(), state.best_probs(pool), pool_state, cfg.ssl, augment, derive_seed(ssl_seed, 0)
                )
                ssl_train(state, pool_state, cfg.ssl, augment, derive_seed(ssl_seed, 1))  # a no-op if none were kept
                ev = evaluate(a.cycles + 1)
                report["ssl"] = {
                    "n_pseudo": len(kept),
                    "pre_val_agreement": pre_agr,
                    "post_val_agreement": val_agreement(),
                    "final_ensemble_acc": ev["ensemble_acc"],
                    "final_ensemble_agreement": ev["ensemble_agreement"],
                }

        if cfg.adversarial is not None:
            with _stage("adversarial"):
                ac = cfg.adversarial
                n_eval = min(ac.n_eval, test.n)
                Xe, ye = test.features[:n_eval], test.labels[:n_eval]
                adv_report = []
                for i, model in enumerate(state.best_models()):
                    pgd_seed = derive_seed(stage_seed(root, ADV_STAGE), i)
                    res = adv.transferability(model, victim_model, Xe, ye, ac, pgd_seed, ac.denominator)
                    X_rand = adv.random_sign_perturbation(
                        Xe, ac.epsilon, seed=derive_seed(stage_seed(root, ADV_STAGE), i, 1)
                    )
                    rand_res = adv.transfer_from_adversarials(
                        model, victim_model, Xe, ye, X_rand, ac.denominator
                    )
                    adv.write_transfer_csv(os.path.join(out_dir, f"adv_member{i}.csv"), res)
                    adv_report.append(
                        {
                            "member": i,
                            "epsilon": ac.epsilon,
                            "transfer_rate": res.transfer_rate,
                            "random_transfer_rate": rand_res.transfer_rate,
                            "source_fooled": res.source_fooled,
                            "both_fooled": res.both_fooled,
                            "adv_source_acc": res.adv_source_acc,
                            "adv_victim_acc": res.adv_target_acc,
                            "clean_victim_acc": res.clean_target_acc,
                        }
                    )
                report["adversarial"] = adv_report

        with _stage("reports"):
            report["budget"]["spent"] = _queries_spent(pool_state)
            _, pseudo_labels, _ = pool_state.pseudo_data()
            report["pseudo_hist"] = np.bincount(pseudo_labels, minlength=cfg.victim.data.num_classes).tolist()
            save_ensemble(state, os.path.join(out_dir, "ensemble"))
            _emit_reports(out_dir, report, curves_rows, score_rows, cfg)
        return report
    except StageError as err:
        _emit_failure(out_dir, err, cfg, curves_rows)
        raise
    finally:
        if client is not None:
            client.close()


def _emit_reports(
    out_dir,
    report: dict,
    curves_rows: list[list],
    score_rows: list[list],
    cfg: config.ExperimentConfig,
) -> None:
    _write_curves(out_dir, cfg, curves_rows)
    _write_csv(os.path.join(out_dir, "pseudo_hist.csv"), PSEUDO_HIST_HEADER, enumerate(report["pseudo_hist"]))
    if cfg.outputs.scores_csv:
        _write_csv(os.path.join(out_dir, "scores.csv"), SCORES_HEADER, score_rows)
    with open(os.path.join(out_dir, "report.json"), "w", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    final = report["final"]
    lines = [
        f"strategy: {report['strategy']}",
        f"victim test accuracy: {_fmt(report['victim_test_acc'])}",
        f"budget: {report['budget']['spent']}/{report['budget']['total']} queries spent",
        f"cycles: {report['cycles']}",
        f"final ensemble accuracy: {_fmt(final['ensemble_acc'])}",
        f"final ensemble agreement: {_fmt(final['ensemble_agreement'])}",
        f"best member: {final['best_member_index']} "
        f"(validation accuracy {_fmt(final['best_member_val_acc'])})",
    ]
    ssl_rep = report.get("ssl")
    if ssl_rep is not None:
        lines.append(
            f"pseudo-labels kept: {ssl_rep['n_pseudo']} "
            f"(validation agreement {_fmt(ssl_rep['pre_val_agreement'])} -> "
            f"{_fmt(ssl_rep['post_val_agreement'])})"
        )
    for row in report.get("adversarial", []):
        lines.append(
            f"member {row['member']} transfer rate: {_fmt(row['transfer_rate'])} "
            f"(random baseline {_fmt(row['random_transfer_rate'])})"
        )
    _write_lines(os.path.join(out_dir, "summary.txt"), lines)


def _emit_failure(out_dir, err: StageError, cfg: config.ExperimentConfig, curves_rows: list[list]) -> None:
    try:
        _write_curves(out_dir, cfg, curves_rows)
        _write_lines(os.path.join(out_dir, "summary.txt"), [f"run failed: {err}"])
    except OSError:
        pass
