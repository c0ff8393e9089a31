"""The benchmark's workloads: one extraction config each, built from a seed.

Every workload is a full `ensteal run-attack` over generated inputs. The
three stress different layers (BENCHMARK.json says why each was chosen,
README.md which layer metric should move which end-to-end metric where):

- desk_ref: the ROADMAP reference run; every stage runs, training dominates.
- ssl_digits: the pseudo-label path on image data (RandLite/HorizontalFlip),
  with disagreement scoring plus k-center selection.
- remote_oracle: the victim behind `ensteal serve-victim` over TCP, one
  closed-loop client on one connection; the wire dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# final.ensemble_agreement must reach this; seeds 0-9 give 0.98 or more on
# every workload
AGREEMENT_FLOOR = 0.9

GAUSSIAN = {"source": "gaussian_mixture", "classes": 4, "dim": 8, "separation": 4.5}
DIGITS = {"source": "tiny_digits", "height": 10, "width": 6}


# A loaded victim is made before timing starts: `ensteal gen-data` of this
# many rows from the workload's data source, then `ensteal train-victim`.
VICTIM_ROWS = 4000
VICTIM_EPOCHS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    # (view, layer) expected to lead a traced run: "busy" ranks layers by the
    # union of their spans, "stage" by the direct children of run_attack
    dominant: tuple[str, str]
    load_victim: bool  # False: the victim is trained inside the run
    data: dict
    attack: dict
    ssl: Optional[dict] = None
    adversarial: Optional[dict] = None

    @property
    def remote(self) -> bool:
        return "remote" in self.attack

    @property
    def budget(self) -> int:
        return self.attack["budget"]

    def gen_data_args(self) -> list[str]:
        return [arg for key, value in self.data.items() for arg in (f"--{key}", str(value))]

    def config(self, seed: int, checkpoint: Optional[str], port: Optional[int]) -> dict:
        victim = {"data": dict(self.data), "train_n": 4000, "test_n": 2000}
        if checkpoint is not None:
            victim["checkpoint"] = checkpoint
        attack = dict(self.attack)
        if self.remote:
            attack["remote"] = {"host": "127.0.0.1", "port": port}
        cfg = {"seed": seed, "victim": victim, "attack": attack}
        if self.ssl is not None:
            cfg["ssl"] = dict(self.ssl)
        if self.adversarial is not None:
            cfg["adversarial"] = dict(self.adversarial)
        return cfg


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="desk_ref",
            dominant=("busy", "numkit"),
            load_victim=False,
            data=GAUSSIAN,
            attack={
                "pool_n": 20000,
                "budget": 600,
                "cycles": 10,
                "strategy": {"kind": "consensus_entropy"},
                "ensemble": {"epochs": 30},
            },
            ssl={},
            adversarial={"epsilon": 1.0, "n_eval": 200},
        ),
        Workload(
            name="ssl_digits",
            dominant=("stage", "semisup"),
            load_victim=True,
            data=DIGITS,
            attack={
                "pool_n": 12000,
                "budget": 600,
                "cycles": 10,
                "strategy": {"kind": "label_disagreement", "hybrid_kcenter": True},
                # Without the default 8-unit member, which 10 epochs leave too
                # weak to agree with the others, and with a low confidence bar,
                # every class passes the filter far above the cap on nearly every
                # seed: the cap keeps 600 rows, so the SSL work is the same
                # whatever the seed.
                "ensemble": {"epochs": 10, "hidden_profile": [[32], [64, 64], [128, 64], [256, 128, 64]]},
            },
            ssl={"per_class_cap": 60, "confidence_threshold": 0.2, "max_label_changes": 2},
        ),
        Workload(
            name="remote_oracle",
            dominant=("busy", "netvictim"),
            load_victim=True,
            data=GAUSSIAN,
            attack={
                "pool_n": 40000,
                "budget": 10000,  # about 4 s a repetition, so a 30 s run holds five
                "cycles": 5,
                "strategy": {"kind": "random"},
                "ensemble": {"epochs": 1},
                "remote": None,  # host and port are filled in per run
            },
        ),
    ]
}
