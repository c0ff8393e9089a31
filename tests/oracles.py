"""Independent reference implementations used to check derived behavior.

Everything here is written the slow, obvious way (explicit loops, full
recomputation each round) and deliberately avoids calling the library's own
selection, entropy, or filtering code. Frozen: changes to the package must
not require edits here.
"""

from __future__ import annotations

import math

import numpy as np


def entropy_direct(p) -> float:
    """Plain summation Shannon entropy in nats, skipping zero entries."""
    total = 0.0
    for v in np.asarray(p, dtype=np.float64).ravel():
        if v > 0.0:
            total -= v * math.log(v)
    return total


def topk_bruteforce(scores, candidates, k: int) -> np.ndarray:
    """Highest k scores, breaking score ties toward the lower index."""
    pairs = sorted(zip(scores, candidates), key=lambda sc: (-sc[0], sc[1]))
    return np.array(sorted(int(c) for _, c in pairs[:k]), dtype=np.int64)


def kcenter_bruteforce(features, candidates, center_indices, k: int) -> np.ndarray:
    """Greedy farthest-point picks, recomputing all squared distances from
    scratch every round; ties go to the lowest candidate index."""
    features = np.asarray(features, dtype=np.float64)
    remaining = sorted(int(c) for c in candidates)
    centers = [features[int(i)] for i in center_indices]
    chosen: list[int] = []
    for _ in range(k):
        best_idx = None
        best_dist = None
        for c in remaining:
            if centers:
                d = min(float(((features[c] - ctr) ** 2).sum()) for ctr in centers)
            else:
                d = math.inf
            if best_dist is None or d > best_dist:
                best_idx, best_dist = c, d
        chosen.append(best_idx)
        remaining.remove(best_idx)
        centers.append(features[best_idx])
    return np.array(sorted(chosen), dtype=np.int64)


def forward_probs(model, X) -> np.ndarray:
    """Softmax outputs recomputed layer by layer from the flat parameters."""
    X = np.asarray(X, dtype=np.float64)
    dims = [model.spec.input_dim, *model.spec.hidden_layers, model.spec.num_classes]
    a = X
    offset = 0
    for li in range(len(dims) - 1):
        fi, fo = dims[li], dims[li + 1]
        W = model.params[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = model.params[offset : offset + fo]
        offset += fo
        z = a @ W + b
        if li < len(dims) - 2:
            if model.spec.activation == "relu":
                a = np.maximum(z, 0.0)
            else:
                a = np.tanh(z)
        else:
            a = z
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward_probs_float32(model, X) -> np.ndarray:
    """Softmax outputs computed entirely in float32: the flat parameters and
    X cast to float32, then every layer recomputed as in forward_probs."""
    params = np.asarray(model.params, dtype=np.float32)
    a = np.asarray(X, dtype=np.float32)
    dims = [model.spec.input_dim, *model.spec.hidden_layers, model.spec.num_classes]
    offset = 0
    for li in range(len(dims) - 1):
        fi, fo = dims[li], dims[li + 1]
        W = params[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = params[offset : offset + fo]
        offset += fo
        z = a @ W + b
        if li < len(dims) - 2:
            a = np.maximum(z, 0.0) if model.spec.activation == "relu" else np.tanh(z)
        else:
            a = z
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    assert out.dtype == np.float32
    return out


def loss_grad_float32(spec, params, X, y):
    """Mean cross-entropy and its gradient computed entirely in float32 from a
    flat float32 parameter vector, with the loss in log-softmax form.

    Recomputes every layer's weights, inputs and pre-activations from scratch;
    returns (float32 loss, flat float32 gradient in canonical order).
    """
    params = np.asarray(params, dtype=np.float32)
    X = np.asarray(X, dtype=np.float32)
    y = np.asarray(y, dtype=np.int64)
    dims = [spec.input_dim, *spec.hidden_layers, spec.num_classes]
    n_layers = len(dims) - 1
    weights, biases = [], []
    offset = 0
    for li in range(n_layers):
        fi, fo = dims[li], dims[li + 1]
        weights.append(params[offset : offset + fi * fo].reshape(fi, fo))
        offset += fi * fo
        biases.append(params[offset : offset + fo])
        offset += fo
    inputs, pre = [], []
    a = X
    for li in range(n_layers):
        inputs.append(a)
        z = a @ weights[li] + biases[li]
        if li < n_layers - 1:
            pre.append(z)
            a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1)
    n = y.size
    rows = np.arange(n)
    loss = np.mean(np.log(s) - shifted[rows, y])
    delta = e / s[:, None]
    delta[rows, y] -= 1.0
    delta /= n
    chunks = [None] * n_layers
    for li in range(n_layers - 1, -1, -1):
        chunks[li] = (inputs[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            back = delta @ weights[li].T
            if spec.activation == "relu":
                delta = back * (pre[li - 1] > 0.0).astype(np.float32)
            else:
                t = np.tanh(pre[li - 1])
                delta = back * (1.0 - t * t)
    grad = np.concatenate([part.ravel() for pair in chunks for part in pair])
    assert loss.dtype == np.float32 and grad.dtype == np.float32
    return loss, grad


def replay_weak_draw(X, op, layout, rng) -> np.ndarray:
    """Re-derive the documented batch draw protocol over a whole (n, d)
    matrix, for the transforms the filter oracle needs. Jitter draws one
    normal per coordinate, row-major; JitterDrop then draws one uniform per
    coordinate, and each row zeroes the coordinates of its round(frac * d)
    smallest uniforms; a flip draws one uniform per row and mirrors the rows
    whose uniform is below p."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    name = type(op).__name__
    if name in ("GaussianJitter", "JitterDrop"):
        out = X + rng.normal(0.0, op.sigma, size=(n, d)) if op.sigma > 0 else X.copy()
        ndrop = int(round(op.drop_frac * d)) if name == "JitterDrop" else 0
        if ndrop > 0:
            u = rng.random((n, d))
            for r in range(n):
                out[r, np.argsort(u[r])[:ndrop]] = 0.0
        return out
    if name == "HorizontalFlip":
        u = rng.random(n)
        out = X.copy()
        for r in range(n):
            if u[r] < op.p:
                img = X[r].reshape(layout.height, layout.width, layout.channels)
                out[r] = img[:, ::-1, :].ravel()
        return out
    raise AssertionError(f"oracle does not replay {name}")


def ssl_filter_bruteforce(models, pool_state, cfg, seed: int):
    """Row-by-row re-derivation of the pseudo-label filter.

    The weak perturbation is drawn once over the whole pool from a generator
    seeded by (seed, augmentation seed), each 64-bit masked, and read at the
    unlabeled rows. For each unlabeled row: run every member in float32, as
    the committee infers, on the row and its perturbed copy, count label
    flips, check unanimity on the clean row, and check every member's
    own-label probability against the threshold.
    Returns (selected, audit_tuples) where audit maps row -> (changes,
    unanimous, min_confidence).
    """
    mask = (1 << 64) - 1
    selected: dict[int, int] = {}
    audit: dict[int, tuple[int, bool, float]] = {}
    idx = [int(i) for i in np.flatnonzero(pool_state.status == 0)]
    if not idx:
        return selected, audit
    features = pool_state.pool.features
    rng = np.random.default_rng((seed & mask, cfg.augment.rng_seed & mask))
    Xw = replay_weak_draw(features, cfg.augment.weak, pool_state.pool.layout, rng)[idx]
    X = features[idx]
    probs = [forward_probs_float32(m, X) for m in models]
    probs_w = [forward_probs_float32(m, Xw) for m in models]
    for j, i in enumerate(idx):
        labels = [int(np.argmax(p[j])) for p in probs]
        labels_w = [int(np.argmax(p[j])) for p in probs_w]
        changes = sum(1 for a, b in zip(labels, labels_w) if a != b)
        unanimous = len(set(labels)) == 1
        min_conf = min(float(p[j][lab]) for p, lab in zip(probs, labels))
        audit[i] = (changes, unanimous, min_conf)
        if (
            changes <= cfg.max_label_changes
            and unanimous
            and min_conf >= cfg.confidence_threshold
        ):
            selected[i] = labels[0]
    return selected, audit


def class_cap_bruteforce(rows, labels, confidence, cap: int):
    """Per class, sort by (-confidence, row) and keep the first cap rows.
    Returns the kept (rows, labels) as lists, rows ascending."""
    by_class: dict[int, list[tuple[float, int]]] = {}
    for row, lab, conf in zip(rows, labels, confidence):
        by_class.setdefault(int(lab), []).append((-float(conf), int(row)))
    kept = sorted((row, lab) for lab, entries in by_class.items() for _, row in sorted(entries)[:cap])
    return [row for row, _ in kept], [lab for _, lab in kept]


def fd_loss_gradient(loss_fn, params: np.ndarray, coords, h: float = 1e-5) -> dict[int, float]:
    """Central finite differences of a scalar loss over chosen coordinates."""
    out = {}
    for k in coords:
        p_plus = params.copy()
        p_plus[k] += h
        p_minus = params.copy()
        p_minus[k] -= h
        out[int(k)] = (loss_fn(p_plus) - loss_fn(p_minus)) / (2.0 * h)
    return out
