"""Experiment orchestration: config in, deterministic report files out.

A run is fully described by one JSON config plus one root seed. Every stage
derives its randomness as root XOR a fixed stage offset (fanned out further
per cycle and member), so two runs of the same config produce byte-identical
outputs, and changing one stage's behavior never perturbs another stage's
draws.

Pipeline: synthesize data, obtain the target model (train, load, or talk to
a remote service), split the query budget into validation plus per-cycle
batches, alternate committee refreshes with query selection until the budget
is spent, optionally mine pseudo-labels and run consistency training, and
optionally measure adversarial transfer from every member to the target.

The config is a tree of frozen section dataclasses: `parse_config` decodes
JSON into it by walking their fields (JSON types checked, unknown keys
rejected, each section range-checked as it is built), and `config_to_dict`
walks it back to the JSON that config_echo.json holds.

Emitted files (no timestamps anywhere): report.json, curves.csv,
summary.txt, config_echo.json, pseudo_hist.csv, optional scores.csv,
optional per-member adversarial CSVs, the trained victim checkpoint, and
the final ensemble directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import adversarial as adv
from . import numkit
from .datapool import (
    AugmentConfig,
    Dataset,
    GaussianJitter,
    GaussianMixture,
    HorizontalFlip,
    JitterDrop,
    PoolState,
    RandLite,
    SyntheticSource,
    TinyDigits,
    initial_split,
    per_cycle_batches,
    strip_labels,
    make_synthetic,
)
from .ensemble import (
    DEFAULT_HIDDEN_PROFILE,
    EnsembleSpec,
    EnsembleState,
    committee_vote,
    default_member_configs,
    make_default_ensemble,
    save_ensemble,
    train_cycle,
)
from .errors import InvalidConfigError, StageError
from .numkit import MlpSpec, SgdConfig
from .seeding import derive_seed, mask64
from .selection import SCORED_KINDS, SelectionStrategy, select_queries
from .semisup import SslConfig, harvest_pseudo_labels, ssl_train
from .victim import DEFAULT_VICTIM_HIDDEN, QueryBudget, VictimOracle, default_victim_sgd, train_victim

if TYPE_CHECKING:
    from .netvictim import RemoteVictimClient

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


# ── config schema ────────────────────────────────────────────────────
#
# Each section is a frozen dataclass whose fields are its JSON keys: a field
# without a default is required, and __post_init__ range-checks the section,
# mostly by building the runtime objects its values feed, so a bad value is
# rejected before any stage runs. _decode and _encode walk these classes.

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(value, kind: type, path: str):
    """value if it has the field's JSON type, else InvalidConfigError naming
    path. Int fields reject bools and floats; float fields take finite ints
    (as floats) and floats, not bools, NaN or Infinity (which json.loads
    reads); bool fields take only true/false."""
    ok = isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind)
    # NaN fails every comparison, and int-float comparisons are exact
    if not ok or kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise InvalidConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


# victim.data names its source class by this tag
_SOURCES = {"gaussian_mixture": GaussianMixture, "tiny_digits": TinyDigits}
_SOURCE_TAGS = {cls: tag for tag, cls in _SOURCES.items()}
_VICTIM_SGD = default_victim_sgd()


def _shared(section, runtime: type) -> dict:
    """The section's values for the fields that a runtime config also has."""
    names = {f.name for f in fields(runtime)}
    return {f.name: getattr(section, f.name) for f in fields(section) if f.name in names}


@dataclass(frozen=True)
class VictimSection:
    data: SyntheticSource
    train_n: int = 4000
    test_n: int = 2000
    hidden_layers: tuple[int, ...] = DEFAULT_VICTIM_HIDDEN
    activation: str = "relu"
    base_lr: float = _VICTIM_SGD.base_lr
    momentum: float = _VICTIM_SGD.momentum
    lr_decay_factor: float = _VICTIM_SGD.lr_decay_factor
    lr_decay_every: int = _VICTIM_SGD.lr_decay_every
    weight_decay: float = _VICTIM_SGD.weight_decay
    epochs: int = _VICTIM_SGD.epochs
    batch_size: int = _VICTIM_SGD.batch_size
    checkpoint: Optional[str] = None

    def __post_init__(self):
        if self.train_n < 1 or self.test_n < 1:
            raise InvalidConfigError("train_n and test_n must be positive")
        self.sgd()
        self.spec(0)

    def sgd(self) -> SgdConfig:
        return SgdConfig(**_shared(self, SgdConfig))

    def spec(self, rng_seed: int) -> MlpSpec:
        return MlpSpec(self.data.input_dim, self.hidden_layers, self.data.num_classes, self.activation, rng_seed)


@dataclass(frozen=True)
class EnsembleSection:
    hidden_profile: tuple[tuple[int, ...], ...] = DEFAULT_HIDDEN_PROFILE
    activation: str = "relu"
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        members = tuple(MlpSpec(1, hidden, 2, self.activation) for hidden in self.hidden_profile)
        default_member_configs(EnsembleSpec(members), self.epochs, self.batch_size)


@dataclass(frozen=True)
class RemoteSection:
    host: str
    port: int
    timeout: float = 10.0
    retries: int = 3

    def __post_init__(self):
        self.client(0)

    def client(self, id_seed: int) -> RemoteVictimClient:
        # the server stack is imported only by runs that talk to one
        from .netvictim import RemoteVictimClient

        return RemoteVictimClient(self.host, self.port, self.timeout, self.retries, id_seed)


@dataclass(frozen=True)
class AttackSection:
    pool_n: int
    budget: int
    cycles: int
    strategy: SelectionStrategy
    validation_fraction: float = 0.1
    ensemble: EnsembleSection = EnsembleSection()
    remote: Optional[RemoteSection] = None

    def __post_init__(self):
        if self.pool_n < 1:
            raise InvalidConfigError("pool_n must be positive")
        per_cycle_batches(self.budget, self.cycles, self.validation_fraction)
        if round(self.validation_fraction * self.budget) < 1:
            raise InvalidConfigError(f"validation_fraction {self.validation_fraction} gives no validation rows")
        if self.pool_n < self.budget:
            raise InvalidConfigError(f"pool_n {self.pool_n} is smaller than the budget {self.budget}")


@dataclass(frozen=True)
class SslSection:
    confidence_threshold: float = SslConfig.confidence_threshold
    max_label_changes: int = SslConfig.max_label_changes
    per_class_cap: int = SslConfig.per_class_cap
    pseudo_loss_weight: float = SslConfig.pseudo_loss_weight
    lr: float = SslConfig.lr
    momentum: float = SslConfig.momentum
    epochs: int = SslConfig.epochs
    batch_size: int = SslConfig.batch_size
    # always null: resolve_augment picks the perturbations from the data layout
    augment: None = None

    def __post_init__(self):
        self.build(resolve_augment(None, 0))

    def build(self, augment: AugmentConfig) -> SslConfig:
        return SslConfig(**{**_shared(self, SslConfig), "augment": augment})


@dataclass(frozen=True)
class AdvSection:
    epsilon: float
    steps: int = adv.PgdConfig.steps
    step_size: Optional[float] = adv.PgdConfig.step_size
    random_start: bool = adv.PgdConfig.random_start
    n_eval: int = 200
    denominator: str = "source_fooled"

    def __post_init__(self):
        if self.n_eval < 1:
            raise InvalidConfigError("n_eval must be positive")
        if self.denominator not in ("source_fooled", "all"):
            raise InvalidConfigError("denominator must be source_fooled or all")
        self.pgd(0)

    def pgd(self, seed: int) -> adv.PgdConfig:
        return adv.PgdConfig(seed=seed, **_shared(self, adv.PgdConfig))


@dataclass(frozen=True)
class OutputSection:
    scores_csv: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    victim: VictimSection
    attack: AttackSection
    ssl: Optional[SslSection] = None
    adversarial: Optional[AdvSection] = None
    outputs: OutputSection = OutputSection()


def _decode(kind, value, path: str):
    """The JSON value at path, checked against kind and converted to it:
    a section dataclass, a tagged data source, Optional[X], tuple[X, ...],
    None, or a scalar type."""
    if kind is type(None):
        if value is not None:
            raise InvalidConfigError(f"{path} must be null, got {value!r}")
        return None
    if kind == SyntheticSource:
        tag = value.get("source") if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in _SOURCES:
            raise InvalidConfigError(f"{path}.source must be {' or '.join(_SOURCES)}")
        return _decode(_SOURCES[tag], {k: v for k, v in value.items() if k != "source"}, path)
    if get_origin(kind) is Union:  # Optional[X]
        return None if value is None else _decode(get_args(kind)[0], value, path)
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise InvalidConfigError(f"{path} must be a list, got {value!r}")
        return tuple(_decode(get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not is_dataclass(kind):
        return _typed(value, kind, path)
    where = path or "config"
    if not isinstance(value, dict):
        raise InvalidConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - {f.name for f in fields(kind)})
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    hints = get_type_hints(kind)
    kwargs = {}
    for f in fields(kind):
        key = f"{path}.{f.name}" if path else f.name
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], key)
        elif f.default is MISSING:
            raise InvalidConfigError(f"{key} is required")
    try:
        return kind(**kwargs)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{where}: {exc}") from exc


def _encode(value):
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        out = {name: _encode(v) for name, v in items}
        tag = _SOURCE_TAGS.get(type(value))
        return out if tag is None else {"source": tag, **out}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def parse_config(obj: dict) -> ExperimentConfig:
    return _decode(ExperimentConfig, obj, "")


def load_config(path) -> tuple[ExperimentConfig, str]:
    """Parse a config file; also returns the raw text for the echo file."""
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(obj), text


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _encode(cfg)


# ── augment resolution ───────────────────────────────────────────────


def resolve_augment(layout, seed: int) -> AugmentConfig:
    """Default weak/strong perturbation pair for the data at hand: light
    jitter vs jitter-plus-dropout on tabular rows, flips vs structural
    edits on images."""
    if layout is None:
        return AugmentConfig(
            weak=GaussianJitter(0.05),
            strong=JitterDrop(sigma=0.2, drop_frac=0.1),
            rng_seed=seed,
        )
    return AugmentConfig(
        weak=HorizontalFlip(0.5),
        strong=RandLite(n_ops=2, magnitude=0.3),
        rng_seed=seed,
    )


# ── evaluation helpers ───────────────────────────────────────────────


def evaluate_models(probs: np.ndarray, victim_labels: np.ndarray, test: Dataset) -> dict:
    """Member and committee accuracy on ground truth plus agreement with
    the target model's labels, from the members' (members, rows, classes)
    softmax over test and the target's labels for the same rows."""
    if test.labels is None:
        raise InvalidConfigError("evaluation data must be labeled")
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


def _write_curves(out_dir, cfg: ExperimentConfig, curves_rows: list[list]) -> None:
    """curves.csv with one accuracy column per committee member."""
    members = [f"member{i}_acc" for i in range(len(cfg.attack.ensemble.hidden_profile))]
    header = ",".join(["cycle", "queries_spent", *members, "ensemble_acc", "ensemble_agr"])
    _write_csv(os.path.join(out_dir, "curves.csv"), header, curves_rows)


def run_attack(cfg: ExperimentConfig, out_dir, config_text: Optional[str] = None) -> dict:
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
    client: Optional[RemoteVictimClient] = None

    if config_text is None:
        config_text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
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
            else:
                victim_train = make_synthetic(source, cfg.victim.train_n, stage_seed(root, VICTIM_DATA))
                spec = cfg.victim.spec(derive_seed(stage_seed(root, VICTIM_TRAIN), 0))
                victim_model, _ = train_victim(
                    victim_train, None, spec, cfg.victim.sgd(), seed=stage_seed(root, VICTIM_TRAIN)
                )
            numkit.save_model(victim_model, os.path.join(out_dir, "victim.ckpt"))
            victim_test_labels = numkit.predict_batch(victim_model, test.features)
            report["victim_test_acc"] = float(np.mean(victim_test_labels == test.labels))
            if a.remote is not None:
                # ids derive from the seed and the config text: another config's
                # requests never reuse this run's ids, a same-config replay does
                config_digest = hashlib.sha256(config_text.encode()).digest()[:8]
                client = a.remote.client(
                    derive_seed(stage_seed(root, CLIENT_IDS), int.from_bytes(config_digest, "big"))
                )
                from .netvictim import RemoteVictimOracle

                oracle = RemoteVictimOracle(client)
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
            ens_spec = make_default_ensemble(
                cfg.victim.data.input_dim,
                cfg.victim.data.num_classes,
                rng_seed=stage_seed(root, ENSEMBLE_INIT),
                activation=a.ensemble.activation,
                hidden_profile=a.ensemble.hidden_profile,
            )
            state = EnsembleState(ens_spec)
            member_cfgs = default_member_configs(ens_spec, a.ensemble.epochs, a.ensemble.batch_size)
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
                ssl_cfg = cfg.ssl.build(resolve_augment(pool.layout, ssl_seed))
                pre_agr = val_agreement()
                kept, _, _ = harvest_pseudo_labels(
                    state.best_models(), state.best_probs(pool), pool_state, ssl_cfg, derive_seed(ssl_seed, 0)
                )
                ssl_train(state, pool_state, ssl_cfg, derive_seed(ssl_seed, 1))  # a no-op if none were kept
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
                    pgd_cfg = ac.pgd(derive_seed(stage_seed(root, ADV_STAGE), i))
                    res = adv.transferability(model, victim_model, Xe, ye, pgd_cfg, ac.denominator)
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
    cfg: ExperimentConfig,
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


def _emit_failure(out_dir, err: StageError, cfg: ExperimentConfig, curves_rows: list[list]) -> None:
    try:
        _write_curves(out_dir, cfg, curves_rows)
        _write_lines(os.path.join(out_dir, "summary.txt"), [f"run failed: {err}"])
    except OSError:
        pass
