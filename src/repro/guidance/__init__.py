"""Expert-guidance strategies (paper §5).

* :class:`~repro.guidance.information_gain.InformationGainStrategy` —
  uncertainty-driven guidance (§5.2).
* :class:`~repro.guidance.worker_driven.WorkerDrivenStrategy` —
  worker-driven guidance (§5.3).
* :class:`~repro.guidance.hybrid.HybridStrategy` — dynamic combination
  (§5.4).
* :class:`~repro.guidance.max_entropy.MaxEntropyStrategy` — the paper's
  baseline (§6.6).
* :class:`~repro.guidance.random_strategy.RandomStrategy` — unguided
  validation (§3.2).
* :mod:`~repro.guidance.joint_entropy` — Appendix E subset selection.
"""

from repro.guidance.base import (
    GuidanceContext,
    GuidanceStrategy,
    Selection,
    argmax_with_ties,
)
from repro.guidance.hybrid import HybridStrategy
from repro.guidance.information_gain import (
    LOOKAHEAD_MODES,
    InformationGainStrategy,
)
from repro.guidance.joint_entropy import (
    exact_max_entropy_subset,
    gaussian_joint_entropy,
    greedy_max_entropy_subset,
    greedy_validation_order,
    object_covariance,
)
from repro.guidance.max_entropy import MaxEntropyStrategy
from repro.guidance.random_strategy import RandomStrategy
from repro.guidance.worker_driven import WorkerDrivenStrategy

__all__ = [
    "GuidanceContext",
    "LOOKAHEAD_MODES",
    "GuidanceStrategy",
    "HybridStrategy",
    "InformationGainStrategy",
    "MaxEntropyStrategy",
    "RandomStrategy",
    "Selection",
    "WorkerDrivenStrategy",
    "argmax_with_ties",
    "exact_max_entropy_subset",
    "gaussian_joint_entropy",
    "greedy_max_entropy_subset",
    "greedy_validation_order",
    "object_covariance",
]
