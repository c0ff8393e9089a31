"""Both binary loaders refuse a damaged file with InvalidInputError alone.

A valid file from save_dataset or save_model, cut to any strict prefix or
extended by a few bytes, must not load, and must not surface as numpy's
ValueError, struct.error or IndexError either.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ensteal.datapool import Dataset, ImageLayout, load_dataset, save_dataset
from ensteal.errors import InvalidInputError
from ensteal.numkit import MlpModel, MlpSpec, load_model, save_model

small = st.integers(1, 4)


def assert_damaged_copies_refused(path, blob: bytes, tails: list[bytes], load) -> None:
    for bad in [blob[:cut] for cut in range(len(blob))] + [blob + tail for tail in tails]:
        path.write_bytes(bad)
        try:
            load(path)
        except InvalidInputError:
            continue
        raise AssertionError(f"{len(bad)} of {len(blob)} bytes loaded")


@st.composite
def datasets(draw) -> Dataset:
    n = draw(st.integers(0, 4))
    layout = draw(st.none() | st.builds(ImageLayout, small, small, small))
    dim = draw(small) if layout is None else layout.flat_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, 5, size=n) if draw(st.booleans()) else None
    return Dataset(rng.normal(size=(n, dim)), labels, layout)


@st.composite
def models(draw) -> MlpModel:
    hidden = tuple(draw(st.lists(small, max_size=2)))
    activation = draw(st.sampled_from(["relu", "tanh"]))
    spec = MlpSpec(draw(small), hidden, draw(small), activation, rng_seed=draw(st.integers(0, 9)))
    return MlpModel.initialize(spec)


tails = st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(data=datasets(), tails=tails)
def test_damaged_dataset_files_are_invalid_input(tmp_path_factory, data, tails):
    path = tmp_path_factory.mktemp("data") / "d.aotd"
    save_dataset(data, path)
    blob = path.read_bytes()
    assert_damaged_copies_refused(path, blob, tails, load_dataset)


@settings(max_examples=25, deadline=None)
@given(model=models(), tails=tails)
def test_damaged_checkpoints_are_invalid_input(tmp_path_factory, model, tails):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_model(model, path)
    blob = path.read_bytes()
    assert_damaged_copies_refused(path, blob, tails, load_model)
