"""Batch Dawid–Skene EM — the "traditional EM" baseline (paper §4.1, [9, 23]).

Traditional EM operates in batch mode: every invocation re-estimates worker
reliability and assignment probabilities from scratch (the paper's §6.4
comparison uses a *random* probability initialization per invocation; the
classical Dawid–Skene choice is a majority-vote initialization — both are
supported). Expert validations can optionally be clamped as ground truth,
which is how the *Separate* integration strategy (§6.3) uses batch EM when
no previous state exists yet.

Batch EM is i-EM without a previous model, so :class:`DawidSkeneEM` is an
:class:`~repro.core.iem.IncrementalEM` whose :meth:`~DawidSkeneEM.fit`
always cold-starts.
"""

from __future__ import annotations

from repro.core.answer_set import AnswerSet
from repro.core.iem import IncrementalEM
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.validation import ExpertValidation


class DawidSkeneEM(IncrementalEM):
    """Batch EM aggregator.

    Takes the :class:`~repro.core.iem.IncrementalEM` parameters: the
    ``init`` policy (``"majority"``, ``"random"`` or ``"uniform"``), the
    kernel knobs and the ``rng`` of the ``"random"`` start.

    Examples
    --------
    >>> from repro.core.answer_set import AnswerSet
    >>> answers = AnswerSet([[0, 0, 1], [1, 1, 1]], labels=("cat", "dog"))
    >>> result = DawidSkeneEM().fit(answers)
    >>> list(result.map_labels())
    [np.int64(0), np.int64(1)]
    """

    def fit(self,
            answer_set: AnswerSet,
            validation: ExpertValidation | None = None,
            ) -> ProbabilisticAnswerSet:
        """Aggregate ``answer_set`` (optionally clamping expert input).

        Parameters
        ----------
        validation:
            When given, the validated objects are treated as ground truth
            (clamped one-hot through every EM iteration). When ``None``,
            plain unsupervised Dawid–Skene runs.
        """
        if validation is None:
            validation = ExpertValidation.empty_for(answer_set)
        return self.conclude(answer_set, validation)
