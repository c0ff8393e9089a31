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
from typing import get_type_hints

from . import adversarial as adv
from . import config, harness, numkit
from .datapool import load_dataset, make_synthetic, save_dataset, strip_labels
from .ensemble import load_ensemble
from .errors import InvalidConfigError, StageError
from .victim import QueryBudget, VictimOracle, VictimRecipe, train_victim


def _hidden(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensteal",
        description="model extraction experiments against a query-budgeted hard-label oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a dataset file")
    p.add_argument("--source", choices=list(config.SOURCES), required=True)
    for source in config.SOURCES.values():  # one flag per victim.data key
        hints = get_type_hints(source)
        for f in dataclasses.fields(source):
            p.add_argument(f"--{f.name}", type=hints[f.name], default=f.default)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unlabeled", action="store_true", help="strip labels before writing")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-victim", help="fit the target model on a dataset file")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--hidden", type=_hidden, default=VictimRecipe.hidden_layers, help="comma-separated widths")
    p.add_argument("--activation", choices=list(numkit.ACTIVATION_CODES), default=VictimRecipe.activation)
    p.add_argument("--epochs", type=int, default=VictimRecipe.epochs)
    p.add_argument("--batch-size", type=int, default=VictimRecipe.batch_size)
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
    p.add_argument("--steps", type=int, default=config.AdvSection.steps)
    p.add_argument("--step-size", type=float, default=config.AdvSection.step_size)
    p.add_argument("--no-random-start", action="store_true")
    p.add_argument("--n-eval", type=int, default=config.AdvSection.n_eval)
    p.add_argument("--denominator", choices=adv.DENOMINATORS, default=config.AdvSection.denominator)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write per-sample labels CSV here")
    return parser


def _cmd_gen_data(args) -> int:
    kind = config.SOURCES[args.source]
    for other in config.SOURCES.values():  # a flag another source takes would change nothing
        for f in dataclasses.fields(other):
            if other is not kind and getattr(args, f.name) != f.default:
                raise InvalidConfigError(f"--{f.name} does not apply to --source {args.source}")
    source = kind(**{f.name: getattr(args, f.name) for f in dataclasses.fields(kind)})
    data = make_synthetic(source, args.n, args.seed)
    if args.unlabeled:
        data = strip_labels(data)
    save_dataset(data, args.out)
    print(f"wrote {data.n} rows ({data.dim} features) to {args.out}")
    return 0


def _cmd_train_victim(args) -> int:
    train = load_dataset(args.train)
    test = load_dataset(args.test) if args.test else None
    recipe = VictimRecipe(
        hidden_layers=args.hidden, activation=args.activation, epochs=args.epochs, batch_size=args.batch_size
    )
    model, acc = train_victim(train, test, recipe, args.seed)
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
    member = state.spec.members[0]
    numkit.check_shape(victim_model, (member.input_dim, member.num_classes), "victim", "the ensemble")
    data = load_dataset(args.data)
    if data.labels is not None:
        numkit.as_class_labels(victim_model, data.labels, data.n)
    victim_labels = numkit.predict_batch(victim_model, data.features)
    metrics = harness.evaluate_models(state.best_probs(data), victim_labels, data)
    blob = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(blob)
    sys.stdout.write(blob)
    return 0


def _cmd_adv_transfer(args) -> int:
    settings = config.AdvSection(
        epsilon=args.epsilon, steps=args.steps, step_size=args.step_size,
        random_start=not args.no_random_start, n_eval=args.n_eval, denominator=args.denominator,
    )
    source = numkit.load_model(args.source)
    victim_model = numkit.load_model(args.victim)
    data = load_dataset(args.data)
    if data.labels is None:
        print("error: dataset has no labels", file=sys.stderr)
        return 1
    n = min(settings.n_eval, data.n)
    result = adv.transferability(
        source, victim_model, data.features[:n], data.labels[:n], settings, args.seed, settings.denominator
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
