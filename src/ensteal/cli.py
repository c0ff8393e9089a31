"""Command-line entry points.

Subcommands cover the full workflow: synthesize datasets, train and serve
the target model, run the extraction experiment from a JSON config, score
saved models against a dataset, and measure adversarial transfer between
two checkpoints. Every command is seeded and writes deterministic bytes, so
identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys

from . import adversarial as adv
from . import config, harness, numkit
from .datapool import GaussianMixture, TinyDigits, load_dataset, make_synthetic, save_dataset, strip_labels
from .ensemble import load_ensemble
from .errors import StageError
from .numkit import MlpSpec
from .seeding import derive_seed
from .victim import DEFAULT_VICTIM_HIDDEN, QueryBudget, VictimOracle, default_victim_sgd, train_victim


def _hidden(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensteal",
        description="model extraction experiments against a query-budgeted hard-label oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset file")
    p.add_argument("--source", choices=["gaussian_mixture", "tiny_digits"], required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--height", type=int, default=TinyDigits.height)
    p.add_argument("--width", type=int, default=TinyDigits.width)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unlabeled", action="store_true", help="strip labels before writing")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-victim", help="fit the target model on a dataset file")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--hidden", type=_hidden, default=DEFAULT_VICTIM_HIDDEN, help="comma-separated widths")
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu")
    p.add_argument("--epochs", type=int, default=default_victim_sgd().epochs)
    p.add_argument("--batch-size", type=int, default=default_victim_sgd().batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("serve-victim", help="serve a checkpoint as a budgeted oracle")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--log-path", help="write the query log CSV here on shutdown")

    p = sub.add_parser("run-attack", help="run the extraction experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a saved ensemble against a dataset")
    p.add_argument("--ensemble", required=True, help="directory written by run-attack")
    p.add_argument("--victim", required=True, help="target model checkpoint")
    p.add_argument("--data", required=True, help="labeled dataset file")
    p.add_argument("--out", help="also write the metrics JSON here")

    p = sub.add_parser("adv-transfer", help="attack one checkpoint, replay on another")
    p.add_argument("--source", required=True)
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True, help="labeled dataset file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=int, default=adv.PgdConfig.steps)
    p.add_argument("--step-size", type=float)
    p.add_argument("--no-random-start", action="store_true")
    p.add_argument("--n-eval", type=int, default=200)
    p.add_argument("--denominator", choices=adv.DENOMINATORS, default="source_fooled")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-sample labels CSV here")
    return parser


def _cmd_gen_data(args) -> int:
    if args.source == "gaussian_mixture":
        source = GaussianMixture(args.classes, args.dim, args.separation)
    else:
        source = TinyDigits(args.height, args.width)
    data = make_synthetic(source, args.n, args.seed)
    if args.unlabeled:
        data = strip_labels(data)
    save_dataset(data, args.out)
    print(f"wrote {data.n} rows ({data.dim} features) to {args.out}")
    return 0


def _cmd_train_victim(args) -> int:
    train = load_dataset(args.train)
    test = load_dataset(args.test) if args.test else None
    if train.labels is None:
        print("error: training data has no labels", file=sys.stderr)
        return 1
    spec = MlpSpec(
        input_dim=train.dim,
        hidden_layers=args.hidden,
        num_classes=int(train.labels.max()) + 1,
        activation=args.activation,
        rng_seed=derive_seed(args.seed, 0),
    )
    cfg = default_victim_sgd(epochs=args.epochs, batch_size=args.batch_size)
    model, acc = train_victim(train, test, spec, cfg, seed=args.seed)
    numkit.save_model(model, args.out)
    if acc is None:
        print(f"wrote checkpoint to {args.out}")
    else:
        print(f"wrote checkpoint to {args.out} (test accuracy {acc!r})")
    return 0


def _cmd_serve_victim(args) -> int:
    model = numkit.load_model(args.checkpoint)
    oracle = VictimOracle(model, QueryBudget(args.budget))

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    from .netvictim import serve

    serve(oracle, args.host, args.port, args.log_path)
    return 0


def _cmd_run_attack(args) -> int:
    cfg, text = config.load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        text = None  # echo the effective config, not the overridden file
    report = harness.run_attack(cfg, args.out, config_text=text)
    print(
        f"done: spent {report['budget']['spent']}/{report['budget']['total']} queries, "
        f"ensemble agreement {report['final']['ensemble_agreement']!r}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    state = load_ensemble(args.ensemble)
    victim_model = numkit.load_model(args.victim)
    data = load_dataset(args.data)
    victim_labels = numkit.predict_batch(victim_model, data.features)
    metrics = harness.evaluate_models(state.best_probs(data), victim_labels, data)
    blob = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(blob)
    sys.stdout.write(blob)
    return 0


def _cmd_adv_transfer(args) -> int:
    source = numkit.load_model(args.source)
    victim_model = numkit.load_model(args.victim)
    data = load_dataset(args.data)
    if data.labels is None:
        print("error: dataset has no labels", file=sys.stderr)
        return 1
    n = min(args.n_eval, data.n)
    cfg = adv.PgdConfig(
        epsilon=args.epsilon,
        steps=args.steps,
        step_size=args.step_size,
        random_start=not args.no_random_start,
        seed=args.seed,
    )
    result = adv.transferability(
        source, victim_model, data.features[:n], data.labels[:n], cfg, args.denominator
    )
    if args.out:
        adv.write_transfer_csv(args.out, result)
    print(
        f"transfer rate: {result.transfer_rate!r} "
        f"({result.both_fooled}/{result.source_fooled} source-fooling rows; "
        f"victim adversarial accuracy {result.adv_target_acc!r})"
    )
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-victim": _cmd_train_victim,
    "serve-victim": _cmd_serve_victim,
    "run-attack": _cmd_run_attack,
    "evaluate": _cmd_evaluate,
    "adv-transfer": _cmd_adv_transfer,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
