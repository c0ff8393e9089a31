"""Every function the benchmark tracer wraps still exists, and the results
it counts work from still carry those counts.

perfbench/spans.py names each traced function by module and attribute path;
a rename or deletion there would otherwise show only in a traced benchmark
run. The tracer module is read with runpy, so nothing is written under
perfbench/.
"""

import importlib
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import committee_probs, make_sharp_models
from ensteal.datapool import Dataset, PoolState
from ensteal.semisup import SslConfig, harvest_pseudo_labels, ssl_filter

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


@pytest.mark.parametrize("name, module, path", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_target_resolves_to_a_callable(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_semisup_work_counts_are_rows_filtered_and_kept(rng):
    # the tracer reads rows filtered as len(ssl_filter(...)[1]) and rows kept
    # as len(harvest_pseudo_labels(...)[0])
    work = {t[0]: t[3] for t in TARGETS}
    models = [m.copy() for m in make_sharp_models(1, dim=5, classes=3, seed=4) * 5]  # unanimous
    ps = PoolState(Dataset(rng.normal(size=(60, 5))))
    ps.query(range(0, 60, 4), lambda X: np.zeros(len(X), dtype=np.int64))
    cfg = SslConfig(confidence_threshold=0.5, per_class_cap=4)
    args = (models, committee_probs(models, ps.pool.features), ps, cfg, 1)
    filtered = work["semisup.ssl_filter"](args, {}, ssl_filter(*args))
    assert filtered == ps.unlabeled_indices().size == 45
    kept = work["semisup.harvest_pseudo_labels"](args, {}, harvest_pseudo_labels(*args))
    assert 0 < kept == ps.counts()["pseudo"] < filtered
