"""Outside-in tracing: spans around the public functions of each layer.

`install()` runs inside an attack process before `run-attack` starts. It
replaces each traced function with a wrapper that records a span (name,
start, end, parent span, work count, failed) and returns the original's
result untouched, so the program computes exactly what it computes
untraced. Spans stay in memory and `Recorder.dump` writes them once the run
is over. `summarize()` runs in the benchmark process and turns a dump into
the per-layer metrics listed in BENCHMARK.json.

The pipeline runs its layers on one thread, so one span stack suffices.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = ("numkit", "datapool", "victim", "ensemble", "selection", "semisup", "adversarial", "netvictim")


def _rows(args, kwargs, result) -> int:
    return len(args[1])


# (span name, module, attribute path, work count taken from the call)
TARGETS = [
    ("harness.run_attack", "ensteal.harness", "run_attack", None),
    ("harness.evaluate_models", "ensteal.harness", "evaluate_models", None),
    ("numkit.train_supervised", "ensteal.numkit", "train_supervised", None),
    ("numkit.loss_and_grad", "ensteal.numkit", "loss_and_grad", None),
    ("numkit.sgd_update", "ensteal.numkit", "sgd_update", None),
    ("numkit.probs_batch", "ensteal.numkit", "probs_batch", _rows),
    ("numkit.input_grad_batch", "ensteal.numkit", "input_grad_batch", _rows),
    ("datapool.weak_augment", "ensteal.datapool", "weak_augment", None),
    ("datapool.strong_augment", "ensteal.datapool", "strong_augment", None),
    ("datapool.labeled_data", "ensteal.datapool", "PoolState.labeled_data", None),
    ("datapool.pseudo_data", "ensteal.datapool", "PoolState.pseudo_data", None),
    ("datapool.validation_data", "ensteal.datapool", "PoolState.validation_data", None),
    ("datapool.make_synthetic", "ensteal.datapool", "make_synthetic", None),
    ("victim.train_victim", "ensteal.victim", "train_victim", None),
    ("victim.query_labels", "ensteal.victim", "VictimOracle.query_labels", _rows),
    ("ensemble.train_cycle", "ensteal.ensemble", "train_cycle", lambda a, k, r: a[0].spec.size),
    ("ensemble.ensemble_predict", "ensteal.ensemble", "ensemble_predict", None),
    ("selection.select_queries", "ensteal.selection", "select_queries", None),
    ("selection.consensus_entropy_scores", "ensteal.selection", "consensus_entropy_scores", _rows),
    ("selection.disagreement_scores", "ensteal.selection", "disagreement_scores", _rows),
    ("selection.kcenter_select", "ensteal.selection", "kcenter_select", None),
    ("semisup.ssl_filter", "ensteal.semisup", "ssl_filter", lambda a, k, r: len(r[1])),
    ("semisup.harvest_pseudo_labels", "ensteal.semisup", "harvest_pseudo_labels", lambda a, k, r: len(r[0])),
    ("semisup.ssl_train", "ensteal.semisup", "ssl_train", None),
    ("adversarial.pgd_attack_batch", "ensteal.adversarial", "pgd_attack_batch", _rows),
    ("netvictim.predict", "ensteal.netvictim", "RemoteVictimClient.predict", None),
    ("netvictim.budget_remaining", "ensteal.netvictim", "RemoteVictimClient.budget_remaining", None),
    ("netvictim.query_labels", "ensteal.netvictim", "RemoteVictimOracle.query_labels", None),
]
NAMES = [t[0] for t in TARGETS]

# Dump layout: a one-line JSON header, then these arrays back to back.
_FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("work", "q"), ("failed", "b"))


class Recorder:
    def __init__(self):
        self.cols = {field: array(code) for field, code in _FIELDS}
        self.stack: list[int] = []

    def wrap(self, name_id: int, fn, work):
        cols, stack, clock = self.cols, self.stack, time.monotonic
        name, parent, start, end = cols["name"], cols["parent"], cols["start"], cols["end"]
        work_col, failed = cols["work"], cols["failed"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            work_col.append(0)
            failed.append(1)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            failed[i] = 0
            if work is not None:
                work_col[i] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": NAMES, "count": len(self.cols["name"])}).encode() + b"\n")
            for field, _ in _FIELDS:
                self.cols[field].tofile(fh)


def install() -> Recorder:
    """Wrap every target. Names bound by `from x import f` in other ensteal
    modules are rebound too, so each call site goes through the wrapper."""
    import importlib

    rec = Recorder()
    for name_id, (_, module_name, path, work) in enumerate(TARGETS):
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = rec.wrap(name_id, original, work)
        if owner_path:
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("ensteal") and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
    return rec


def load(path) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for field, code in _FIELDS:
            col = array(code)
            col.fromfile(fh, n)
            cols[field] = col
    cols["names"] = header["names"]
    return cols


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def summarize(cols: dict) -> tuple[dict, dict]:
    """Per-layer metrics from one traced run, plus the top-level partition.

    A layer's busy time is the union of its spans: spans nested inside a
    span of the same layer are not counted twice. The partition attributes
    each direct child of run_attack to its layer; with harness.self_s
    (run_attack minus its children) it sums to the traced run_s.
    """
    names = cols["names"]
    n = len(cols["name"])
    name_of = [names[i] for i in cols["name"]]
    dur = [cols["end"][i] - cols["start"][i] for i in range(n)]
    parent = cols["parent"]

    total: dict[str, float] = {nm: 0.0 for nm in names}
    calls: dict[str, int] = {nm: 0 for nm in names}
    work: dict[str, int] = {nm: 0 for nm in names}
    failed: dict[str, int] = {nm: 0 for nm in names}
    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    top: dict[str, float] = {}
    rtts: list[float] = []
    layer_of = [nm.split(".", 1)[0] for nm in name_of]
    ancestors = [0] * n  # bitmask of layers open above each span
    bit = {layer: 1 << j for j, layer in enumerate(LAYERS + ("harness",))}
    roots = [i for i in range(n) if name_of[i] == "harness.run_attack"]
    if len(roots) != 1:
        raise ValueError(f"expected one run_attack span, found {len(roots)}")
    root = roots[0]
    child_s = 0.0
    for i in range(n):
        nm, layer, p = name_of[i], layer_of[i], parent[i]
        total[nm] += dur[i]
        calls[nm] += 1
        work[nm] += cols["work"][i]
        failed[nm] += cols["failed"][i]
        if p >= 0:
            ancestors[i] = ancestors[p] | bit[layer_of[p]]
        if layer in busy and not ancestors[i] & bit[layer]:
            busy[layer] += dur[i]
        if p == root:
            child_s += dur[i]
            top[layer] = top.get(layer, 0.0) + dur[i]
        if nm == "netvictim.predict":
            rtts.append(dur[i])
    rtts.sort()

    filtered = work["semisup.ssl_filter"]
    kept = work["semisup.harvest_pseudo_labels"]
    run_s = dur[root]
    metrics = {
        "numkit.minibatches": calls["numkit.loss_and_grad"],
        "numkit.grad_s": total["numkit.loss_and_grad"],
        "numkit.sgd_s": total["numkit.sgd_update"],
        "numkit.fit_s": total["numkit.train_supervised"],
        "numkit.infer_rows": work["numkit.probs_batch"],
        "numkit.infer_s": total["numkit.probs_batch"],
        "numkit.input_grad_s": total["numkit.input_grad_batch"],
        "datapool.weak_aug_calls": calls["datapool.weak_augment"],
        "datapool.weak_aug_s": total["datapool.weak_augment"],
        "datapool.strong_aug_calls": calls["datapool.strong_augment"],
        "datapool.strong_aug_s": total["datapool.strong_augment"],
        "datapool.gather_s": sum(
            total[f"datapool.{v}_data"] for v in ("labeled", "pseudo", "validation")
        ),
        "datapool.synth_s": total["datapool.make_synthetic"],
        "victim.train_s": total["victim.train_victim"],
        "victim.query_rows": work["victim.query_labels"],
        "victim.query_s": total["victim.query_labels"],
        "ensemble.refresh_s": total["ensemble.train_cycle"],
        "ensemble.members_trained": work["ensemble.train_cycle"],
        "ensemble.vote_s": total["ensemble.ensemble_predict"],
        "selection.select_s": total["selection.select_queries"],
        "selection.rows_scored": work["selection.consensus_entropy_scores"]
        + work["selection.disagreement_scores"],
        "selection.kcenter_s": total["selection.kcenter_select"],
        "semisup.filter_s": total["semisup.ssl_filter"],
        "semisup.rows_filtered": filtered,
        "semisup.rows_kept": kept,
        "semisup.accept_ratio": kept / filtered if filtered else 0.0,
        "semisup.train_s": total["semisup.ssl_train"],
        "adversarial.pgd_s": total["adversarial.pgd_attack_batch"],
        "adversarial.rows_attacked": work["adversarial.pgd_attack_batch"],
        "netvictim.requests": calls["netvictim.predict"] + calls["netvictim.budget_remaining"],
        "netvictim.rtt_p50_ms": 1000.0 * _percentile(rtts, 50),
        "netvictim.rtt_p99_ms": 1000.0 * _percentile(rtts, 99),
        "netvictim.query_s": total["netvictim.query_labels"],
        "netvictim.errors": failed["netvictim.predict"] + failed["netvictim.budget_remaining"],
        "harness.eval_s": total["harness.evaluate_models"],
        "harness.self_s": run_s - child_s,
        "trace.run_s": run_s,
        "trace.spans": n,
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
    partition = dict(sorted(top.items(), key=lambda kv: -kv[1]))
    partition["harness.self"] = run_s - child_s
    return metrics, partition
