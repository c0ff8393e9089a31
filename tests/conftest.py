from pathlib import Path

import numpy as np
import pytest

from ensteal import numkit
from ensteal.datapool import Dataset, GaussianMixture, make_synthetic, strip_labels
from ensteal.ensemble import MEMBER_DTYPE
from ensteal.numkit import MlpModel, MlpSpec, SgdConfig, probs_batch, train_supervised


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bitwise: a bit-for-bit result that must also hold with two BLAS threads, "
        "which CI runs as a step of its own",
    )
    config.addinivalue_line(
        "markers",
        "dev: run again by a CI step of its own under python -X dev, where a "
        "socket or file handle left open fails the test",
    )


def make_sharp_models(k: int, dim: int, classes: int, seed: int, hidden=(5,)) -> list[MlpModel]:
    """Small random models with scaled-up weights, so their softmax outputs
    are confident enough to exercise thresholds and disagreements."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(k):
        spec = MlpSpec(dim, hidden, classes, "tanh", rng_seed=int(rng.integers(1 << 32)))
        m = MlpModel.initialize(spec)
        m.params *= float(rng.uniform(4.0, 10.0))
        models.append(m)
    return models


def committee_probs(models: list[MlpModel], X) -> np.ndarray:
    """(members, rows, classes) stack of each model's softmax over X, in the
    committee's float32: what EnsembleState.best_probs returns for them."""
    return np.stack([probs_batch(m, X, MEMBER_DTYPE) for m in models])


def verdicts_as_oracle_shapes(verdicts):
    """ssl_filter's verdict arrays in the shapes of
    oracles.ssl_filter_bruteforce: (accepted row -> label, row -> (changes,
    unanimous, min_confidence))."""
    v = verdicts
    selected = dict(zip(v.rows[v.accepted].tolist(), v.labels[v.accepted].tolist()))
    audit = {
        row: (changes, unanimous, min_conf)
        for row, changes, unanimous, min_conf in zip(
            v.rows.tolist(), v.changes.tolist(), v.unanimous.tolist(), v.min_confidence.tolist()
        )
    }
    return selected, audit


def assert_lf_text(path) -> str:
    """The file's text, after checking that it decodes as UTF-8 and ends
    every line, the last one included, in "\n" alone."""
    blob = Path(path).read_bytes()
    assert b"\r" not in blob and blob.endswith(b"\n"), path
    return blob.decode("utf-8")


def record_offers(state) -> dict:
    """Wrap state.offer; the returned dict maps each member index to the
    last model offered for it, whether or not it replaced the checkpoint.
    Patch a deep copy only after copying: the wrapper closes over state."""
    offered = {}
    real = state.offer

    def offer(i, model, *args):
        offered[i] = model
        return real(i, model, *args)

    state.offer = offer
    return offered


def spy_probs_batch(monkeypatch) -> list:
    """Wrap numkit.probs_batch; the returned list gets each call's model."""
    calls = []
    real = numkit.probs_batch
    monkeypatch.setattr(numkit, "probs_batch", lambda m, *a: calls.append(m) or real(m, *a))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_mixture() -> Dataset:
    return make_synthetic(GaussianMixture(4, 6, 5.0), 600, seed=11)


@pytest.fixture(scope="session")
def small_pool(small_mixture) -> Dataset:
    return strip_labels(make_synthetic(GaussianMixture(4, 6, 5.0), 400, seed=12))


@pytest.fixture(scope="session")
def trained_small_model(small_mixture) -> MlpModel:
    spec = MlpSpec(6, (16,), 4, "relu", rng_seed=5)
    cfg = SgdConfig(base_lr=0.05, momentum=0.9, epochs=25, batch_size=32)
    model, _ = train_supervised(
        MlpModel.initialize(spec), (small_mixture.features, small_mixture.labels), cfg, 77
    )
    return model
