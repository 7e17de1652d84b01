"""The i-EM algorithm: incremental EM with expert input as ground truth
(paper §4.1).

i-EM implements the ``conclude`` function of the validation process. It
differs from traditional batch EM in two ways, matching the paper's two
requirements:

1. **Expert validations are first-class citizens** — validated objects are
   clamped to one-hot expert labels through every E/M iteration (Eq. 4), so
   they anchor the worker-reliability estimate instead of competing with
   crowd votes.
2. **Incrementality (view-maintenance principle [7])** — each invocation
   warm-starts from the previous probabilistic answer set's confusion
   matrices and priors rather than a fresh random estimate, so only the
   marginal change introduced by one new validation must be propagated.
   This both cuts EM iterations (Figure 8) and removes the initialization
   sensitivity of EM (Figure 7).

:meth:`IncrementalEM.refine` is the one entry point for EM over a full
answer set; batch EM and the streaming session solve through it too.
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_set import AnswerSet
from repro.core import em_kernel
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.validation import ExpertValidation
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import ensure_rng

#: Supported cold-start policies (see :class:`IncrementalEM`).
INIT_POLICIES = ("majority", "random", "uniform")


class IncrementalEM:
    """The i-EM aggregator (the ``conclude`` step of the validation process).

    Parameters
    ----------
    init:
        Policy for a solve with no previous model: ``"majority"`` (vote
        shares — the classical Dawid–Skene start, the default),
        ``"random"`` (Dirichlet draws — the paper's traditional-EM
        restart), or ``"uniform"``. Solves given a previous model
        warm-start from it instead.
    max_iter, tol, smoothing:
        Kernel knobs; see :func:`repro.core.em_kernel.run_em`.
    rng:
        Randomness for the ``"random"`` cold start.

    Examples
    --------
    >>> from repro.core.answer_set import AnswerSet
    >>> from repro.core.validation import ExpertValidation
    >>> answers = AnswerSet([[0, 1], [1, 1]], labels=("T", "F"))
    >>> iem = IncrementalEM()
    >>> e = ExpertValidation.empty_for(answers)
    >>> p0 = iem.conclude(answers, e)            # initial aggregation
    >>> e.assign(0, 0)                           # expert validates object 0
    >>> p1 = iem.conclude(answers, e, previous=p0)  # incremental update
    >>> p1.probability(0, 0)
    1.0
    """

    def __init__(self,
                 init: str = "majority",
                 max_iter: int = em_kernel.DEFAULT_MAX_ITER,
                 tol: float = em_kernel.DEFAULT_TOL,
                 smoothing: float = em_kernel.DEFAULT_SMOOTHING,
                 rng: np.random.Generator | int | None = None) -> None:
        if init not in INIT_POLICIES:
            raise ValueError(
                f"init must be one of {INIT_POLICIES}, got {init!r}")
        self.init = init
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.smoothing = float(smoothing)
        self.rng = ensure_rng(rng)

    def refine(self,
               encoded: em_kernel.EncodedAnswers,
               validation: ExpertValidation,
               model: em_kernel.EMResult | ProbabilisticAnswerSet
               | None = None,
               telemetry=NULL_TELEMETRY) -> em_kernel.EMResult:
        """Solve EM over ``encoded`` with ``validation`` clamped (Eq. 4).

        EM starts from one E-step under ``model`` (anything with
        ``confusions`` and ``priors`` of matching dimensions) when one is
        given, and from the ``init`` policy otherwise. ``telemetry``
        receives the kernel's ``em.run`` span, and a ``plan.build`` span
        when ``encoded`` has no kernel plan yet.
        """
        # Build the plan before a warm start's E-step would, so a new
        # encoding's build shows as this refinement's plan.build span.
        em_kernel.kernel_plan(encoded, telemetry)
        if model is not None:
            initial = em_kernel.e_step(encoded, model.confusions,
                                       model.priors)
        elif self.init == "majority":
            initial = em_kernel.initial_assignment_majority(encoded)
        elif self.init == "random":
            initial = em_kernel.initial_assignment_random(encoded, self.rng)
        else:
            initial = em_kernel.initial_assignment_uniform(encoded)
        return em_kernel.run_em(
            encoded,
            initial,
            validation.validated_indices(),
            validation.validated_labels(),
            max_iter=self.max_iter,
            tol=self.tol,
            smoothing=self.smoothing,
            telemetry=telemetry,
        )

    def conclude(self,
                 answer_set: AnswerSet,
                 validation: ExpertValidation,
                 previous: ProbabilisticAnswerSet | None = None,
                 ) -> ProbabilisticAnswerSet:
        """Aggregate answers under the current expert validation.

        Parameters
        ----------
        answer_set:
            The answer set ``N`` (the caller may pass a masked copy when
            faulty workers are being excluded — §5.3).
        validation:
            The expert-validation function ``e_s`` after the newest input.
        previous:
            ``P_{s-1}``, the snapshot of the previous validation-process
            iteration. When provided, EM warm-starts from its confusion
            matrices and priors (one E-step reconstructs ``U``); when
            ``None``, the configured cold-start policy applies.

        Returns
        -------
        ProbabilisticAnswerSet
            The new snapshot ``P_s`` (its ``n_em_iterations`` counts this
            invocation only).
        """
        encoded = em_kernel.encode_answers(answer_set)
        if previous is not None:
            self._check_compatible(encoded, previous)
        result = self.refine(encoded, validation, previous)
        return ProbabilisticAnswerSet(
            encoded=encoded,
            validation=validation.copy(),
            assignment=result.assignment,
            confusions=result.confusions,
            priors=result.priors,
            n_em_iterations=result.n_iterations,
        )

    @staticmethod
    def _check_compatible(encoded: em_kernel.EncodedAnswers,
                          previous: ProbabilisticAnswerSet) -> None:
        """A warm start needs matching worker/label dimensions.

        The object count must match too: i-EM updates over an *unchanged*
        answer matrix as the ground truth grows (§4.1) — only worker
        masking, which preserves shape, is expected between iterations.
        """
        if (previous.n_workers != encoded.n_workers
                or previous.n_labels != encoded.n_labels
                or previous.n_objects != encoded.n_objects):
            raise ValueError(
                "previous probabilistic answer set has shape "
                f"({previous.n_objects}×{previous.n_workers}, "
                f"{previous.n_labels} labels) but the answer set has "
                f"({encoded.n_objects}×{encoded.n_workers}, "
                f"{encoded.n_labels} labels)")
