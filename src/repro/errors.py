"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch library failures with a single ``except`` clause while still
letting programming errors (``TypeError`` and friends raised by NumPy or the
standard library) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TransientError:
    """Mixin marking an error as *transient*: retrying the operation may
    succeed.

    Transient failures — a checkpoint write hitting a momentary IO error,
    an expert endpoint timing out, an injected chaos fault — are the ones
    :func:`repro.resilience.call_with_retry` and
    :class:`repro.resilience.SupervisedExecutor` are allowed to mask by
    retrying. Classification is by inheritance so it survives ``raise ...
    from`` chains and pickling across process pools.
    """


class PermanentError:
    """Mixin marking an error as *permanent*: retrying cannot help.

    Corrupt checkpoints, schema mismatches, and exhausted retry budgets
    are permanent — a supervisor must degrade (quarantine the shard, scan
    back to an older checkpoint, fall back to the exact path) rather than
    spin on retries.
    """


def is_transient(error: BaseException) -> bool:
    """Classify an exception as retryable.

    Explicit :class:`TransientError`/:class:`PermanentError` lineage wins;
    otherwise bare ``OSError``/``TimeoutError`` (the shapes real IO and
    deadline failures arrive in) default to transient, and everything else
    — programming errors, library invariant violations — to permanent.
    """
    if isinstance(error, TransientError):
        return True
    if isinstance(error, PermanentError):
        return False
    return isinstance(error, (OSError, TimeoutError))


class InvalidAnswerSetError(ReproError):
    """An answer set violates a structural invariant.

    Raised when an answer matrix has the wrong shape, contains label codes
    outside ``[-1, n_labels)``, or when the object/worker/label vocabularies
    contain duplicates.
    """


class InvalidValidationError(ReproError):
    """An expert-validation function is inconsistent with its answer set.

    Raised when a validation vector has the wrong length, refers to unknown
    labels, or when a caller tries to validate an object twice with
    conflicting labels without explicitly allowing overwrites.
    """


class InvalidProbabilityError(ReproError):
    """A probabilistic quantity is not a valid distribution.

    Raised when an assignment matrix row does not sum to one, a confusion
    matrix is not row-stochastic, or a prior vector contains negative mass.
    """


class BudgetExhaustedError(ReproError):
    """A validation process was asked to continue past its effort budget."""


class GuidanceError(ReproError):
    """A guidance strategy could not select an object.

    Raised when there are no unvalidated objects left to choose from, when
    a strategy is queried before the process has been initialized, or when
    candidate scores are unusable (NaN) so no argmax exists.
    """


class GoalError(ReproError):
    """A validation goal is misconfigured for the process it guards.

    Raised at :class:`~repro.process.validation_process.ValidationProcess`
    construction when the goal tree needs inputs the process was not given
    — e.g. :class:`~repro.process.goals.PrecisionReached` without gold
    labels — so the mistake surfaces immediately instead of mid-loop out
    of ``is_done()``.
    """


class DatasetError(ReproError):
    """A dataset could not be loaded, parsed, or generated.

    Covers unknown dataset names, malformed triple files, and gold files
    that refer to objects absent from the response file.
    """


class PartitioningError(ReproError):
    """The sparse-matrix partitioner received an unusable input.

    Raised for empty graphs, non-positive block-size limits, and disconnected
    inputs that cannot be balanced under the requested constraints.
    """


class CostModelError(ReproError):
    """The cost model received inconsistent economic parameters.

    Raised for non-positive expert/worker cost ratios, budgets smaller than
    the mandatory initial crowd cost, or allocation ratios outside [0, 1].
    """


class ExpertError(ReproError):
    """A simulated or interactive expert could not produce a validation."""


class ExpertUnavailableError(ExpertError, TransientError):
    """The expert endpoint failed transiently (timeout, flaky connection).

    A :class:`~repro.experts.supervised.SupervisedExpert` retries these;
    only after the retry budget is exhausted does the failure surface.
    """


class StreamingError(ReproError):
    """A streaming validation session was used inconsistently.

    Raised when a snapshot is requested before any refinement has run, or
    when an externally supplied model does not match the session's current
    dimensions.
    """


class StateStoreError(ReproError):
    """Base class for session state-store failures (:mod:`repro.state`).

    Every checkpoint/restore problem derives from this, so callers running
    a recovery path can catch one class and decide between retrying an
    older checkpoint and starting cold.
    """


class CheckpointNotFoundError(StateStoreError, PermanentError):
    """The requested checkpoint (or any checkpoint at all) does not exist."""


class CheckpointCorruptionError(StateStoreError, PermanentError):
    """A checkpoint is unreadable or internally inconsistent.

    Raised for a torn (truncated or unparseable) manifest, a missing or
    unreadable segment file, segment contents that disagree with the
    manifest's bookkeeping, and torn non-final write-ahead-log records —
    anything that must never be silently loaded as session state.
    Permanent: re-reading the same bytes cannot help; recovery means
    scanning back to an older checkpoint.
    """


class CheckpointSchemaError(StateStoreError, PermanentError):
    """A checkpoint was written under an incompatible schema version.

    The on-disk format carries an explicit schema version
    (:data:`repro.state.STATE_SCHEMA_VERSION`); stale or future versions
    are rejected instead of being reinterpreted as garbage.
    """


class CheckpointDimensionError(StateStoreError, PermanentError):
    """A checkpoint's arrays disagree with its declared dimensions.

    Raised when the manifest's ``(n_objects, n_workers, n_labels)`` cannot
    contain the answer log / validation / model arrays found in the
    segments — the signature of mixing segments from different sessions.
    """


class CheckpointWriteError(StateStoreError, TransientError):
    """A checkpoint write failed transiently (IO hiccup, disk pressure).

    The write ordering of :class:`repro.state.FileSessionStore` makes a
    failed checkpoint attempt leave only an uncommitted directory, so the
    whole write is safely retryable.
    """


class ResilienceError(ReproError):
    """Base class for supervised-execution failures (:mod:`repro.resilience`)."""


class DeadlineExceededError(ResilienceError, TransientError):
    """A supervised call ran past its per-attempt deadline.

    Transient: the canonical cause is a slow shard or a stalled endpoint,
    and a retry on a healthy worker usually completes in time.
    """


class RetryExhaustedError(ResilienceError, PermanentError):
    """A transient failure persisted through the whole retry budget.

    Carries the final underlying failure as ``__cause__``. Permanent by
    definition — the budget *was* the retry — so supervisors respond by
    degrading (quarantine, fallback) rather than retrying further.
    """


class InjectedFaultError(ResilienceError):
    """Base class for faults raised by :class:`repro.resilience.FaultInjector`."""


class TransientInjectedFault(InjectedFaultError, TransientError):
    """An injected fault standing in for a retryable failure (crashed
    shard worker, dropped connection)."""


class PermanentInjectedFault(InjectedFaultError, PermanentError):
    """An injected fault standing in for an unretryable failure (poisoned
    shard input, hard hardware fault)."""
