"""Model extraction experiments against a query-budgeted hard-label oracle.

The package trains a committee of substitute networks on labels bought from
a black-box target model, picks each round's queries actively (consensus
entropy, committee disagreement, diversity baselines), optionally grows the
training set with filtered pseudo-labels plus consistency training, and
measures how well adversarial examples crafted on the substitutes carry
over to the target. Everything runs on seeded numpy and reproduces bit for
bit: training arithmetic inside `numkit.sgd_epoch` and the committee's
inference are float32; everything else, the target model's inference and
checkpoints included, is float64.
"""

from .datapool import Dataset, ImageLayout, PoolState
from .ensemble import EnsembleRecipe, EnsembleSpec, EnsembleState
from .errors import (
    AttackFailedError,
    BudgetExhaustedError,
    InvalidConfigError,
    InvalidInputError,
    RemoteUnavailableError,
    StageError,
    TrainingDivergedError,
)
from .numkit import MlpModel, MlpSpec, SgdConfig
from .victim import VictimOracle

__version__ = "0.1.0"

__all__ = [
    "AttackFailedError",
    "BudgetExhaustedError",
    "Dataset",
    "EnsembleRecipe",
    "EnsembleSpec",
    "EnsembleState",
    "ImageLayout",
    "InvalidConfigError",
    "InvalidInputError",
    "MlpModel",
    "MlpSpec",
    "PoolState",
    "RemoteUnavailableError",
    "SgdConfig",
    "StageError",
    "TrainingDivergedError",
    "VictimOracle",
    "__version__",
]
