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
from dataclasses import dataclass
from typing import Optional

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
    TinyDigits,
    initial_split,
    per_cycle_batches,
    strip_labels,
    make_synthetic,
)
from .ensemble import (
    DEFAULT_HIDDEN_PROFILE,
    EnsembleState,
    consensus_mean,
    default_member_configs,
    ensemble_predict,
    majority_vote,
    make_default_ensemble,
    save_ensemble,
    train_cycle,
)
from .errors import InvalidConfigError, StageError
from .netvictim import RemoteVictimClient, RemoteVictimOracle
from .numkit import MlpSpec, SgdConfig
from .seeding import derive_seed, mask64
from .selection import SCORED_KINDS, SelectionStrategy, select_queries
from .semisup import SslConfig, harvest_pseudo_labels, ssl_train
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


# ── config schema ────────────────────────────────────────────────────


def _section(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{path} must be an object")
    return dict(obj)


def _reject_unknown(leftover: dict, path: str) -> None:
    if leftover:
        keys = ", ".join(sorted(leftover))
        raise InvalidConfigError(f"unknown key(s) in {path}: {keys}")


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _typed(value, kind: type, path: str):
    """value if it has the field's JSON type, else InvalidConfigError naming
    path. Int fields reject bools and floats; float fields take ints (as
    floats) but not bools; bool fields take only true/false."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise InvalidConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _widths(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InvalidConfigError(f"{path} must be a list of integers, got {value!r}")
    return tuple(_typed(w, int, f"{path}[{i}]") for i, w in enumerate(value))


@dataclass(frozen=True)
class DataConfig:
    source: str
    classes: int = 0
    dim: int = 0
    separation: float = 0.0
    height: int = 10
    width: int = 6

    @property
    def input_dim(self) -> int:
        return self.dim if self.source == "gaussian_mixture" else self.height * self.width

    @property
    def num_classes(self) -> int:
        return self.classes if self.source == "gaussian_mixture" else 10

    def build(self):
        if self.source == "gaussian_mixture":
            return GaussianMixture(self.classes, self.dim, self.separation)
        return TinyDigits(self.height, self.width)


def _parse_data(obj, path: str) -> DataConfig:
    d = _section(obj, path)
    source = d.pop("source", None)
    if source == "gaussian_mixture":
        try:
            cfg = DataConfig(
                source=source,
                classes=_typed(d.pop("classes"), int, f"{path}.classes"),
                dim=_typed(d.pop("dim"), int, f"{path}.dim"),
                separation=_typed(d.pop("separation"), float, f"{path}.separation"),
            )
        except KeyError as exc:
            raise InvalidConfigError(
                f"{path} requires classes, dim, and separation"
            ) from exc
    elif source == "tiny_digits":
        cfg = DataConfig(
            source=source,
            height=_typed(d.pop("height", 10), int, f"{path}.height"),
            width=_typed(d.pop("width", 6), int, f"{path}.width"),
        )
    else:
        raise InvalidConfigError(f"{path}.source must be gaussian_mixture or tiny_digits")
    _reject_unknown(d, path)
    cfg.build()  # runs the source's own validation
    return cfg


@dataclass(frozen=True)
class VictimSection:
    data: DataConfig
    train_n: int = 4000
    test_n: int = 2000
    hidden_layers: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    base_lr: float = 0.1
    momentum: float = 0.5
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 30
    weight_decay: float = 0.0
    epochs: int = 200
    batch_size: int = 64
    checkpoint: Optional[str] = None

    def sgd(self) -> SgdConfig:
        return SgdConfig(
            base_lr=self.base_lr,
            momentum=self.momentum,
            lr_decay_factor=self.lr_decay_factor,
            lr_decay_every=self.lr_decay_every,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            batch_size=self.batch_size,
        )


def _parse_victim(obj, path: str) -> VictimSection:
    d = _section(obj, path)
    data = _parse_data(d.pop("data", None), f"{path}.data")
    kwargs = {}
    for key, cast in [
        ("train_n", int),
        ("test_n", int),
        ("activation", str),
        ("base_lr", float),
        ("momentum", float),
        ("lr_decay_factor", float),
        ("lr_decay_every", int),
        ("weight_decay", float),
        ("epochs", int),
        ("batch_size", int),
    ]:
        if key in d:
            kwargs[key] = _typed(d.pop(key), cast, f"{path}.{key}")
    if "hidden_layers" in d:
        kwargs["hidden_layers"] = _widths(d.pop("hidden_layers"), f"{path}.hidden_layers")
    checkpoint = d.pop("checkpoint", None)
    if checkpoint is not None:
        kwargs["checkpoint"] = _typed(checkpoint, str, f"{path}.checkpoint")
    _reject_unknown(d, path)
    cfg = VictimSection(data=data, **kwargs)
    cfg.sgd()
    if cfg.train_n < 1 or cfg.test_n < 1:
        raise InvalidConfigError("train_n and test_n must be positive")
    return cfg


@dataclass(frozen=True)
class StrategySection:
    kind: str
    hybrid_kcenter: bool = False
    hybrid_pool_factor: int = 5

    def build(self, batch_size: int) -> SelectionStrategy:
        return SelectionStrategy(self.kind, batch_size, self.hybrid_kcenter, self.hybrid_pool_factor)


def _parse_strategy(obj, path: str) -> StrategySection:
    d = _section(obj, path)
    kind = d.pop("kind", None)
    if not isinstance(kind, str):
        raise InvalidConfigError(f"{path}.kind is required")
    cfg = StrategySection(
        kind=kind,
        hybrid_kcenter=_typed(d.pop("hybrid_kcenter", False), bool, f"{path}.hybrid_kcenter"),
        hybrid_pool_factor=_typed(d.pop("hybrid_pool_factor", 5), int, f"{path}.hybrid_pool_factor"),
    )
    _reject_unknown(d, path)
    cfg.build(1)
    return cfg


@dataclass(frozen=True)
class EnsembleSection:
    hidden_profile: tuple[tuple[int, ...], ...] = DEFAULT_HIDDEN_PROFILE
    activation: str = "relu"
    epochs: int = 30
    batch_size: int = 64
    victim_arch_index: Optional[int] = None
    auto_victim_index: bool = True


def _parse_ensemble(obj, path: str) -> EnsembleSection:
    d = _section(obj, path)
    kwargs = {}
    if "hidden_profile" in d:
        profile = d.pop("hidden_profile")
        if not isinstance(profile, list) or not profile:
            raise InvalidConfigError(f"{path}.hidden_profile must be a nonempty list")
        kwargs["hidden_profile"] = tuple(
            _widths(layer, f"{path}.hidden_profile[{i}]") for i, layer in enumerate(profile)
        )
    for key, cast in [("activation", str), ("epochs", int), ("batch_size", int)]:
        if key in d:
            kwargs[key] = _typed(d.pop(key), cast, f"{path}.{key}")
    if "victim_arch_index" in d:
        raw = d.pop("victim_arch_index")
        kwargs["victim_arch_index"] = None if raw is None else _typed(raw, int, f"{path}.victim_arch_index")
        kwargs["auto_victim_index"] = False
    _reject_unknown(d, path)
    cfg = EnsembleSection(**kwargs)
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise InvalidConfigError("ensemble epochs and batch_size must be positive")
    return cfg


@dataclass(frozen=True)
class RemoteSection:
    host: str
    port: int
    timeout: float = 10.0
    retries: int = 3


def _parse_remote(obj, path: str) -> Optional[RemoteSection]:
    if obj is None:
        return None
    d = _section(obj, path)
    try:
        cfg = RemoteSection(
            host=_typed(d.pop("host"), str, f"{path}.host"),
            port=_typed(d.pop("port"), int, f"{path}.port"),
            timeout=_typed(d.pop("timeout", 10.0), float, f"{path}.timeout"),
            retries=_typed(d.pop("retries", 3), int, f"{path}.retries"),
        )
    except KeyError as exc:
        raise InvalidConfigError(f"{path} requires host and port") from exc
    _reject_unknown(d, path)
    return cfg


@dataclass(frozen=True)
class AttackSection:
    pool_n: int
    budget: int
    cycles: int
    validation_fraction: float = 0.1
    strategy: StrategySection = StrategySection("consensus_entropy")
    ensemble: EnsembleSection = EnsembleSection()
    remote: Optional[RemoteSection] = None


def _parse_attack(obj, path: str) -> AttackSection:
    d = _section(obj, path)
    try:
        pool_n = _typed(d.pop("pool_n"), int, f"{path}.pool_n")
        budget = _typed(d.pop("budget"), int, f"{path}.budget")
        cycles = _typed(d.pop("cycles"), int, f"{path}.cycles")
    except KeyError as exc:
        raise InvalidConfigError(f"{path} requires pool_n, budget, and cycles") from exc
    strategy = _parse_strategy(d.pop("strategy", None), f"{path}.strategy")
    kwargs = {}
    if "validation_fraction" in d:
        kwargs["validation_fraction"] = _typed(d.pop("validation_fraction"), float, f"{path}.validation_fraction")
    if "ensemble" in d:
        kwargs["ensemble"] = _parse_ensemble(d.pop("ensemble"), f"{path}.ensemble")
    if "remote" in d:
        kwargs["remote"] = _parse_remote(d.pop("remote"), f"{path}.remote")
    _reject_unknown(d, path)
    cfg = AttackSection(pool_n=pool_n, budget=budget, cycles=cycles, strategy=strategy, **kwargs)
    if cfg.pool_n < 1:
        raise InvalidConfigError("pool_n must be positive")
    per_cycle_sizes = per_cycle_batches(cfg.budget, cfg.cycles, cfg.validation_fraction)
    if min(per_cycle_sizes) < 1:
        raise InvalidConfigError("budget leaves an empty query batch")
    return cfg


@dataclass(frozen=True)
class SslSection:
    confidence_threshold: float = 0.9
    max_label_changes: int = 1
    per_class_cap: int = 100
    pseudo_loss_weight: float = 1.0
    lr: float = 0.002
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 64


def _parse_ssl(obj, path: str) -> Optional[SslSection]:
    if obj is None:
        return None
    d = _section(obj, path)
    if d.pop("augment", None) is not None:
        raise InvalidConfigError(
            f"{path}.augment must be null; perturbations are chosen from the data layout"
        )
    kwargs = {}
    for key, cast in [
        ("confidence_threshold", float),
        ("max_label_changes", int),
        ("per_class_cap", int),
        ("pseudo_loss_weight", float),
        ("lr", float),
        ("momentum", float),
        ("epochs", int),
        ("batch_size", int),
    ]:
        if key in d:
            kwargs[key] = _typed(d.pop(key), cast, f"{path}.{key}")
    _reject_unknown(d, path)
    return SslSection(**kwargs)


@dataclass(frozen=True)
class AdvSection:
    epsilon: float
    steps: int = 20
    step_size: Optional[float] = None
    random_start: bool = True
    n_eval: int = 200
    denominator: str = "source_fooled"


def _parse_adv(obj, path: str) -> Optional[AdvSection]:
    if obj is None:
        return None
    d = _section(obj, path)
    try:
        epsilon = _typed(d.pop("epsilon"), float, f"{path}.epsilon")
    except KeyError as exc:
        raise InvalidConfigError(f"{path} requires epsilon") from exc
    kwargs = {}
    for key, cast in [
        ("steps", int),
        ("random_start", bool),
        ("n_eval", int),
        ("denominator", str),
    ]:
        if key in d:
            kwargs[key] = _typed(d.pop(key), cast, f"{path}.{key}")
    if "step_size" in d:
        raw = d.pop("step_size")
        kwargs["step_size"] = None if raw is None else _typed(raw, float, f"{path}.step_size")
    _reject_unknown(d, path)
    cfg = AdvSection(epsilon=epsilon, **kwargs)
    if cfg.n_eval < 1:
        raise InvalidConfigError("n_eval must be positive")
    if cfg.denominator not in ("source_fooled", "all"):
        raise InvalidConfigError("denominator must be source_fooled or all")
    return cfg


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


def parse_config(obj: dict) -> ExperimentConfig:
    d = _section(obj, "config")
    if "seed" not in d:
        raise InvalidConfigError("config requires a seed")
    seed = _typed(d.pop("seed"), int, "seed")
    victim = _parse_victim(d.pop("victim", None), "victim")
    attack = _parse_attack(d.pop("attack", None), "attack")
    ssl = _parse_ssl(d.pop("ssl", None), "ssl")
    advs = _parse_adv(d.pop("adversarial", None), "adversarial")
    out_d = _section(d.pop("outputs", {}), "outputs")
    outputs = OutputSection(scores_csv=_typed(out_d.pop("scores_csv", False), bool, "outputs.scores_csv"))
    _reject_unknown(out_d, "outputs")
    _reject_unknown(d, "config")
    return ExperimentConfig(seed, victim, attack, ssl, advs, outputs)


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
    v, a = cfg.victim, cfg.attack
    data = {"source": v.data.source}
    if v.data.source == "gaussian_mixture":
        data.update(classes=v.data.classes, dim=v.data.dim, separation=v.data.separation)
    else:
        data.update(height=v.data.height, width=v.data.width)
    out: dict = {
        "seed": cfg.seed,
        "victim": {
            "data": data,
            "train_n": v.train_n,
            "test_n": v.test_n,
            "hidden_layers": list(v.hidden_layers),
            "activation": v.activation,
            "base_lr": v.base_lr,
            "momentum": v.momentum,
            "lr_decay_factor": v.lr_decay_factor,
            "lr_decay_every": v.lr_decay_every,
            "weight_decay": v.weight_decay,
            "epochs": v.epochs,
            "batch_size": v.batch_size,
            "checkpoint": v.checkpoint,
        },
        "attack": {
            "pool_n": a.pool_n,
            "budget": a.budget,
            "cycles": a.cycles,
            "validation_fraction": a.validation_fraction,
            "strategy": {
                "kind": a.strategy.kind,
                "hybrid_kcenter": a.strategy.hybrid_kcenter,
                "hybrid_pool_factor": a.strategy.hybrid_pool_factor,
            },
            "ensemble": {
                "hidden_profile": [list(layer) for layer in a.ensemble.hidden_profile],
                "activation": a.ensemble.activation,
                "epochs": a.ensemble.epochs,
                "batch_size": a.ensemble.batch_size,
                **(
                    {}
                    if a.ensemble.auto_victim_index
                    else {"victim_arch_index": a.ensemble.victim_arch_index}
                ),
            },
            "remote": None
            if a.remote is None
            else {
                "host": a.remote.host,
                "port": a.remote.port,
                "timeout": a.remote.timeout,
                "retries": a.remote.retries,
            },
        },
        "ssl": None
        if cfg.ssl is None
        else {
            "confidence_threshold": cfg.ssl.confidence_threshold,
            "max_label_changes": cfg.ssl.max_label_changes,
            "per_class_cap": cfg.ssl.per_class_cap,
            "pseudo_loss_weight": cfg.ssl.pseudo_loss_weight,
            "lr": cfg.ssl.lr,
            "momentum": cfg.ssl.momentum,
            "epochs": cfg.ssl.epochs,
            "batch_size": cfg.ssl.batch_size,
            "augment": None,
        },
        "adversarial": None
        if cfg.adversarial is None
        else {
            "epsilon": cfg.adversarial.epsilon,
            "steps": cfg.adversarial.steps,
            "step_size": cfg.adversarial.step_size,
            "random_start": cfg.adversarial.random_start,
            "n_eval": cfg.adversarial.n_eval,
            "denominator": cfg.adversarial.denominator,
        },
        "outputs": {"scores_csv": cfg.outputs.scores_csv},
    }
    return out


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
    vote = majority_vote(labels, consensus_mean(probs))
    return {
        "member_accs": [float(np.mean(lab == y)) for lab in labels],
        "member_agreements": [float(np.mean(lab == victim_labels)) for lab in labels],
        "ensemble_acc": float(np.mean(vote == y)),
        "ensemble_agreement": float(np.mean(vote == victim_labels)),
        "victim_acc": float(np.mean(victim_labels == y)),
    }


def _validation_agreement(state: EnsembleState, pool_state: PoolState) -> float:
    Xv, yv, _ = pool_state.validation_data()
    vote = ensemble_predict(state.best_models(), Xv)
    return float(np.mean(vote == yv))


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


def _write_curves(out_dir, cfg: ExperimentConfig, curves_rows: list[list]) -> None:
    """curves.csv with one accuracy column per committee member."""
    members = [f"member{i}_acc" for i in range(len(cfg.attack.ensemble.hidden_profile))]
    header = ",".join(["cycle", "queries_spent", *members, "ensemble_acc", "ensemble_agr"])
    rows = [",".join(_fmt(v) for v in row) for row in curves_rows]
    _write_lines(os.path.join(out_dir, "curves.csv"), [header, *rows])


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
            source = cfg.victim.data.build()
            pool = strip_labels(make_synthetic(source, a.pool_n, stage_seed(root, POOL_DATA)))
            victim_train = make_synthetic(source, cfg.victim.train_n, stage_seed(root, VICTIM_DATA))
            test = make_synthetic(source, cfg.victim.test_n, stage_seed(root, TEST_DATA))

        with _stage("victim"):
            if cfg.victim.checkpoint is not None:
                victim_model = numkit.load_model(cfg.victim.checkpoint)
                victim_test_acc = numkit.accuracy(victim_model, test.features, test.labels)
            else:
                spec = MlpSpec(
                    input_dim=cfg.victim.data.input_dim,
                    hidden_layers=cfg.victim.hidden_layers,
                    num_classes=cfg.victim.data.num_classes,
                    activation=cfg.victim.activation,
                    rng_seed=derive_seed(stage_seed(root, VICTIM_TRAIN), 0),
                )
                victim_model, victim_test_acc = train_victim(
                    victim_train, test, spec, cfg.victim.sgd(), seed=stage_seed(root, VICTIM_TRAIN)
                )
            numkit.save_model(victim_model, os.path.join(out_dir, "victim.ckpt"))
            report["victim_test_acc"] = victim_test_acc
            victim_test_labels = numkit.predict_batch(victim_model, test.features)
            if a.remote is not None:
                # ids derive from the seed and the config text: another config's
                # requests never reuse this run's ids, a same-config replay does
                config_digest = hashlib.sha256(config_text.encode()).digest()[:8]
                client = RemoteVictimClient(
                    a.remote.host,
                    a.remote.port,
                    timeout=a.remote.timeout,
                    retries=a.remote.retries,
                    id_seed=derive_seed(stage_seed(root, CLIENT_IDS), int.from_bytes(config_digest, "big")),
                )
                oracle = RemoteVictimOracle(client)
            else:
                oracle = VictimOracle(victim_model, QueryBudget(a.budget))

        with _stage("split"):
            pool_state = PoolState(pool)
            val_idx, q0_idx = initial_split(
                a.pool_n, a.budget, a.cycles, a.validation_fraction, stage_seed(root, SPLIT)
            )
            batches = per_cycle_batches(a.budget, a.cycles, a.validation_fraction)
            val_n = val_idx.size

        with _stage("initial_queries"):
            if val_n > 0:
                oracle.query_labels(val_idx, pool_state)
                pool_state.convert_queried_to_validation(val_idx)
            oracle.query_labels(q0_idx, pool_state)

        with _stage("ensemble_setup"):
            if a.ensemble.auto_victim_index:
                try:
                    victim_arch_index = a.ensemble.hidden_profile.index(cfg.victim.hidden_layers)
                except ValueError:
                    victim_arch_index = None
            else:
                victim_arch_index = a.ensemble.victim_arch_index
            ens_spec = make_default_ensemble(
                cfg.victim.data.input_dim,
                cfg.victim.data.num_classes,
                rng_seed=stage_seed(root, ENSEMBLE_INIT),
                activation=a.ensemble.activation,
                hidden_profile=a.ensemble.hidden_profile,
                victim_arch_index=victim_arch_index,
            )
            state = EnsembleState(ens_spec)
            member_cfgs = default_member_configs(ens_spec, a.ensemble.epochs, a.ensemble.batch_size)
            report["members"] = [list(m.hidden_layers) for m in ens_spec.members]
            report["victim_arch_index"] = victim_arch_index

        with _stage("cycles"):
            strategy = a.strategy.build(batches[0])
            for c in range(1, a.cycles + 1):
                train_cycle(state, pool_state, member_cfgs, derive_seed(stage_seed(root, CYCLE_TRAIN), c))
                spent = val_n + sum(batches[:c])
                ev = evaluate_models(state.best_probs(test), victim_test_labels, test)
                curves_rows.append(
                    [c, spent, *ev["member_accs"], ev["ensemble_acc"], ev["ensemble_agreement"]]
                )
                if c < a.cycles:
                    sel = select_queries(
                        strategy,
                        state.best_probs(pool) if strategy.kind in SCORED_KINDS else None,
                        pool_state,
                        seed=derive_seed(stage_seed(root, SELECT), c),
                        batch_size=batches[c],
                    )
                    if cfg.outputs.scores_csv and sel.scores is not None:
                        chosen = set(sel.selected.tolist())
                        for cand, sc in zip(sel.candidates.tolist(), sel.scores.tolist()):
                            score_rows.append([c, cand, sc, int(cand in chosen)])
                    oracle.query_labels(sel.selected, pool_state)
            final_eval = evaluate_models(state.best_probs(test), victim_test_labels, test)
            report["final"] = {
                "member_accs": final_eval["member_accs"],
                "member_agreements": final_eval["member_agreements"],
                "ensemble_acc": final_eval["ensemble_acc"],
                "ensemble_agreement": final_eval["ensemble_agreement"],
                "best_member_index": state.best_member_index(),
                "best_member_val_acc": state.best[state.best_member_index()].val_accuracy,
            }

        pseudo_hist = [0] * cfg.victim.data.num_classes
        if cfg.ssl is not None:
            with _stage("ssl"):
                aug = resolve_augment(pool.layout, stage_seed(root, SSL_STAGE))
                ssl_cfg = SslConfig(
                    augment=aug,
                    confidence_threshold=cfg.ssl.confidence_threshold,
                    max_label_changes=cfg.ssl.max_label_changes,
                    per_class_cap=cfg.ssl.per_class_cap,
                    pseudo_loss_weight=cfg.ssl.pseudo_loss_weight,
                    lr=cfg.ssl.lr,
                    momentum=cfg.ssl.momentum,
                    epochs=cfg.ssl.epochs,
                    batch_size=cfg.ssl.batch_size,
                )
                pre_agr = _validation_agreement(state, pool_state)
                capped, _audit = harvest_pseudo_labels(
                    state.best_models(), pool_state, ssl_cfg, derive_seed(stage_seed(root, SSL_STAGE), 0)
                )
                for lab in capped.values():
                    pseudo_hist[lab] += 1
                if capped:
                    ssl_train(state, pool_state, ssl_cfg, derive_seed(stage_seed(root, SSL_STAGE), 1))
                post_agr = _validation_agreement(state, pool_state)
                ev = evaluate_models(state.best_probs(test), victim_test_labels, test)
                curves_rows.append(
                    [
                        a.cycles + 1,
                        val_n + sum(batches),
                        *ev["member_accs"],
                        ev["ensemble_acc"],
                        ev["ensemble_agreement"],
                    ]
                )
                report["ssl"] = {
                    "n_pseudo": int(sum(pseudo_hist)),
                    "pre_val_agreement": pre_agr,
                    "post_val_agreement": post_agr,
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
                    pgd_cfg = adv.PgdConfig(
                        epsilon=ac.epsilon,
                        steps=ac.steps,
                        step_size=ac.step_size,
                        random_start=ac.random_start,
                        seed=derive_seed(stage_seed(root, ADV_STAGE), i),
                    )
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
            bought = pool_state.counts()
            report["budget"]["spent"] = bought["queried"] + bought["validation"]
            report["pseudo_hist"] = pseudo_hist
            save_ensemble(state, os.path.join(out_dir, "ensemble"))
            _emit_reports(out_dir, report, curves_rows, score_rows, pseudo_hist, cfg)
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
    pseudo_hist: list[int],
    cfg: ExperimentConfig,
) -> None:
    _write_curves(out_dir, cfg, curves_rows)
    _write_lines(
        os.path.join(out_dir, "pseudo_hist.csv"),
        [PSEUDO_HIST_HEADER, *(f"{i},{n}" for i, n in enumerate(pseudo_hist))],
    )
    if cfg.outputs.scores_csv:
        _write_lines(
            os.path.join(out_dir, "scores.csv"),
            [SCORES_HEADER, *(",".join(_fmt(v) for v in row) for row in score_rows)],
        )
    with open(os.path.join(out_dir, "report.json"), "w", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [
        f"strategy: {report['strategy']}",
        f"victim test accuracy: {_fmt(report.get('victim_test_acc'))}",
        f"budget: {report['budget'].get('spent', 0)}/{report['budget']['total']} queries spent",
        f"cycles: {report['cycles']}",
    ]
    final = report.get("final")
    if final is not None:
        lines += [
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
