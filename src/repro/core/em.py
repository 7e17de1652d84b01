"""Batch Dawid–Skene EM — the "traditional EM" baseline (paper §4.1, [9, 23]).

Traditional EM operates in batch mode: every invocation re-estimates worker
reliability and assignment probabilities from scratch (the paper's §6.4
comparison uses a *random* probability initialization per invocation; the
classical Dawid–Skene choice is a majority-vote initialization — both are
supported). Expert validations can optionally be clamped as ground truth,
which is how the *Separate* integration strategy (§6.3) uses batch EM when
no previous state exists yet.
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_set import AnswerSet
from repro.core import em_kernel
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.validation import ExpertValidation
from repro.errors import ConvergenceError
from repro.utils.rng import ensure_rng

#: Supported initialization policies for :class:`DawidSkeneEM`.
INIT_POLICIES = ("majority", "random", "uniform")


class DawidSkeneEM:
    """Batch EM aggregator.

    Parameters
    ----------
    init:
        Initialization policy: ``"majority"`` (vote shares — the classical
        Dawid–Skene start), ``"random"`` (Dirichlet draws — the paper's
        traditional-EM restart), or ``"uniform"``.
    max_iter, tol, smoothing:
        Kernel knobs; see :func:`repro.core.em_kernel.run_em`.
    rng:
        Randomness for the ``"random"`` initialization.
    require_convergence:
        When true, raise :class:`~repro.errors.ConvergenceError` if the
        iteration cap is hit before the tolerance.

    Examples
    --------
    >>> from repro.core.answer_set import AnswerSet
    >>> answers = AnswerSet([[0, 0, 1], [1, 1, 1]], labels=("cat", "dog"))
    >>> result = DawidSkeneEM().fit(answers)
    >>> list(result.map_labels())
    [np.int64(0), np.int64(1)]
    """

    def __init__(self,
                 init: str = "majority",
                 max_iter: int = em_kernel.DEFAULT_MAX_ITER,
                 tol: float = em_kernel.DEFAULT_TOL,
                 smoothing: float = em_kernel.DEFAULT_SMOOTHING,
                 rng: np.random.Generator | int | None = None,
                 require_convergence: bool = False) -> None:
        if init not in INIT_POLICIES:
            raise ValueError(
                f"init must be one of {INIT_POLICIES}, got {init!r}")
        self.init = init
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.smoothing = float(smoothing)
        self.rng = ensure_rng(rng)
        self.require_convergence = bool(require_convergence)

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
        encoded = em_kernel.encode_answers(answer_set)
        if self.init == "majority":
            initial = em_kernel.initial_assignment_majority(encoded)
        elif self.init == "random":
            initial = em_kernel.initial_assignment_random(encoded, self.rng)
        else:
            initial = em_kernel.initial_assignment_uniform(encoded)
        result = em_kernel.run_em(
            encoded,
            initial,
            validation.validated_indices(),
            validation.validated_labels(),
            max_iter=self.max_iter,
            tol=self.tol,
            smoothing=self.smoothing,
        )
        if self.require_convergence and not result.converged:
            raise ConvergenceError(
                f"EM did not converge within {self.max_iter} iterations "
                f"(tol={self.tol})")
        return ProbabilisticAnswerSet(
            answer_set=answer_set,
            validation=validation.copy(),
            assignment=result.assignment,
            confusions=result.confusions,
            priors=result.priors,
            n_em_iterations=result.n_iterations,
        )
