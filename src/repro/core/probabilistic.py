"""The probabilistic answer set ``P = <N, e, U, C>`` (paper §3.1).

Bundles the answers ``N`` as the kernel's flat encoding
(:class:`~repro.core.em_kernel.EncodedAnswers`), the expert-validation
function, the ``n × m`` assignment matrix ``U`` (per-object label
distributions), and the set of worker confusion matrices ``C``. Instances
are produced by :meth:`repro.core.iem.IncrementalEM.conclude` (which batch
EM's ``fit`` calls too) and by a streaming session's snapshot, and
consumed everywhere: uncertainty measurement, instantiation, and expert
guidance. A snapshot carries no vocabulary: workers and objects are
indices, so worker ``w``'s confusion matrix is ``confusions[w]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.em_kernel import EncodedAnswers
from repro.core.validation import ExpertValidation
from repro.errors import InvalidProbabilityError
from repro.utils.checks import check_row_stochastic


@dataclass(frozen=True)
class ProbabilisticAnswerSet:
    """Immutable snapshot of the aggregation state after one `conclude`.

    Attributes
    ----------
    encoded:
        The answers ``N`` the aggregation read, as the kernel's flat
        encoding (faulty workers' answers left out while they are
        masked). A session's snapshot hands over its statistics'
        encoding, so guidance and checks share its kernel plan and CSR
        view.
    validation:
        A *copy* of the expert validation ``e`` the snapshot was built with.
    assignment:
        The ``n × m`` assignment matrix ``U``; every row is a distribution.
    confusions:
        ``k × m × m`` stack of worker confusion matrices ``C``.
    priors:
        Length-``m`` label priors estimated during aggregation (Eq. 3).
    n_em_iterations:
        EM iterations spent producing this snapshot — the quantity compared
        in Figure 8 (incremental vs. non-incremental initialization).
    """

    encoded: EncodedAnswers
    validation: ExpertValidation
    assignment: np.ndarray
    confusions: np.ndarray
    priors: np.ndarray
    n_em_iterations: int = 0
    _assignment_checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.encoded.n_objects
        m = self.encoded.n_labels
        k = self.encoded.n_workers
        if self.assignment.shape != (n, m):
            raise InvalidProbabilityError(
                f"assignment matrix shape {self.assignment.shape} does not "
                f"match answer set ({n} objects × {m} labels)")
        if self.confusions.shape != (k, m, m):
            raise InvalidProbabilityError(
                f"confusion stack shape {self.confusions.shape} does not "
                f"match answer set ({k} workers × {m}×{m})")
        check_row_stochastic(self.assignment, "assignment matrix U")
        self.assignment.setflags(write=False)
        self.confusions.setflags(write=False)
        self.priors.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return self.encoded.n_objects

    @property
    def n_labels(self) -> int:
        return self.encoded.n_labels

    @property
    def n_workers(self) -> int:
        return self.encoded.n_workers

    def probability(self, obj: int, label: int) -> float:
        """``U(o, l)``: probability that ``label`` is correct for ``obj``."""
        return float(self.assignment[obj, label])

    def map_labels(self) -> np.ndarray:
        """Per-object maximum-a-posteriori label codes (ties -> lowest code).

        Note this is the raw argmax over ``U``; the full *filter* step of the
        validation process — which also overrides with expert input — lives
        in :mod:`repro.core.instantiation`.
        """
        return np.argmax(self.assignment, axis=1)

    def correct_label_probabilities(self, gold: np.ndarray) -> np.ndarray:
        """``U(o, g(o))`` per object, for a gold-standard label vector.

        Drives the Figure 6 histogram: how much probability mass the
        aggregation puts on the *actually* correct label.
        """
        gold = np.asarray(gold, dtype=np.int64)
        if gold.shape != (self.n_objects,):
            raise InvalidProbabilityError(
                f"gold vector must have length {self.n_objects}, "
                f"got shape {gold.shape}")
        return self.assignment[np.arange(self.n_objects), gold]

    def __repr__(self) -> str:
        return (f"ProbabilisticAnswerSet(n_objects={self.n_objects}, "
                f"n_workers={self.n_workers}, n_labels={self.n_labels}, "
                f"validated={self.validation.count}, "
                f"em_iterations={self.n_em_iterations})")
