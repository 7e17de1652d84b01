"""Partition-scoped refresh: refine only the shards whose statistics moved.

The paper partitions large sparse answer matrices into dense blocks that
"can be handled more efficiently" (§5.4, Table 5). This module applies the
same idea to the streaming engine: the answer matrix is partitioned once
(:class:`repro.partitioning.MatrixPartitioner`), and when a session's
statistics change, only the blocks containing *dirty* objects are refined —
each block an independent warm-started i-EM solve over its own sub-encoding,
executed shard-parallel through :class:`repro.parallel.Executor`. Assignment
rows of refreshed blocks are written back, and worker confusions plus label
priors are re-estimated globally in one vectorized pass, so the installed
model stays globally coherent.

Exactness: a block solve couples an object only to the workers (and through
them the objects) inside its block. When every block is refreshed and the
partition is a single block, the result is bit-for-bit the session's exact
:meth:`~repro.streaming.session.ValidationSession.conclude`. With multiple
blocks the result is the independent-blocks approximation the paper's
partitioning trades for — blocks share few (ideally zero) workers, so the
gap is the cross-block coupling the partitioner already minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING
from repro.parallel.executor import Executor
from repro.partitioning.partitioner import MatrixPartitioner, Partition
from repro.streaming.session import ValidationSession
from repro.telemetry import NULL_TELEMETRY


@dataclass(frozen=True)
class RefreshReport:
    """Outcome of one partition-scoped refresh.

    ``fallback`` is ``None`` for a normal sharded refresh and
    ``"exact"`` when a supervised refresher degraded to the session's
    exact :meth:`~repro.streaming.session.ValidationSession.conclude`
    because a shard failed or was quarantined.
    """

    n_blocks: int
    refreshed_blocks: tuple[int, ...]
    em_iterations: tuple[int, ...]
    fallback: str | None = None

    @property
    def n_refreshed(self) -> int:
        return len(self.refreshed_blocks)

    @property
    def total_em_iterations(self) -> int:
        return int(sum(self.em_iterations))


def _refine_block(n_objects: int, n_workers: int, n_labels: int,
                  object_index: np.ndarray, worker_index: np.ndarray,
                  label_index: np.ndarray, initial: np.ndarray,
                  validated_objects: np.ndarray, validated_labels: np.ndarray,
                  max_iter: int, tol: float, smoothing: float,
                  ) -> tuple[np.ndarray, int, bool]:
    """One block's i-EM solve (module-level so process pools can pickle it)."""
    encoded = em_kernel.EncodedAnswers(
        n_objects=n_objects, n_workers=n_workers, n_labels=n_labels,
        object_index=object_index, worker_index=worker_index,
        label_index=label_index)
    result = em_kernel.run_em(encoded, initial, validated_objects,
                              validated_labels, max_iter=max_iter, tol=tol,
                              smoothing=smoothing)
    return result.assignment, result.n_iterations, result.converged


class ShardedRefresher:
    """Refresh a session's model block-by-block, dirty blocks only.

    Parameters
    ----------
    max_objects_per_block:
        Partition granularity (see :class:`~repro.partitioning.MatrixPartitioner`).
    executor:
        Parallel map backend for the per-block solves; defaults to serial.
    seed:
        Spectral-bisection seed, for deterministic partitions.
    supervisor:
        Optional :class:`~repro.resilience.SupervisedExecutor`. When set,
        block solves run under its retries/deadlines/quarantine (site
        ``"shard.refresh"``, keyed by block index) and — should any block
        still fail or sit in quarantine — the refresh *degrades instead of
        raising*: it runs the session's exact
        :meth:`~repro.streaming.session.ValidationSession.conclude`,
        records a ``"fallback-exact"`` degradation event, and reports
        ``fallback="exact"``. ``executor`` is ignored in that case; the
        supervisor's own backend runs the solves.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` hub. Each refresh
        runs inside a ``shard.refresh`` span (block counts, warm/cold,
        fallback, and — for supervised runs — the worst per-block queue
        wait and run time from the :class:`TaskOutcome`\\ s), and every
        refreshed block tallies its EM iterations on a per-shard
        ``spawn`` scope (``shard<i>/em.iterations``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.streaming import ValidationSession
    >>> matrix = np.where(np.eye(6, 4, dtype=bool), 0, -1)
    >>> from repro.core.answer_set import AnswerSet
    >>> session = ValidationSession.from_answer_set(
    ...     AnswerSet(matrix, ("a", "b")))
    >>> report = ShardedRefresher(max_objects_per_block=3).refresh(session)
    >>> report.n_refreshed == report.n_blocks  # first refresh does all
    True
    """

    def __init__(self, max_objects_per_block: int = 64,
                 executor: Executor | None = None,
                 seed: int = 0,
                 supervisor=None,
                 telemetry=NULL_TELEMETRY) -> None:
        self.max_objects_per_block = int(max_objects_per_block)
        self.executor = executor or Executor("serial")
        self.seed = int(seed)
        self.supervisor = supervisor
        self.telemetry = telemetry
        self._partition: Partition | None = None
        self._partition_version: int | None = None

    # ------------------------------------------------------------------
    def partition_for(self, session: ValidationSession) -> Partition:
        """The (cached) partition of the session's answers.

        The partitioner reads the statistics' own encoding
        (``session.stats.encoded()``), masked workers left out.

        Keyed on the session's statistics version, so any ingested answer,
        dimension growth, or mask toggle triggers a re-cut — a stale cut
        could attribute answers from workers outside a block's worker set
        to the wrong confusion matrix. Validations do not bump the
        statistics version, so the cache holds across pure
        expert-validation streams (the common refresh driver).
        """
        version = session.stats.version
        if self._partition is None or self._partition_version != version:
            partitioner = MatrixPartitioner(self.max_objects_per_block,
                                            seed=self.seed)
            self._partition = partitioner.partition(session.stats.encoded())
            self._partition_version = version
        return self._partition

    # ------------------------------------------------------------------
    def refresh(self, session: ValidationSession,
                force_all: bool = False) -> RefreshReport:
        """Refine the blocks whose statistics changed and install the model.

        A session without a model (or with grown dimensions) is refreshed
        in full; otherwise only blocks containing
        :attr:`~repro.streaming.session.ValidationSession.dirty_objects`
        are solved, warm-started from the current model.
        """
        partition = self.partition_for(session)
        # Warm starts need the model to match BOTH current dimensions: a
        # grown worker axis would index stale confusions out of bounds.
        warm = (session.model is not None
                and session.model.assignment.shape
                == (session.n_objects, session.n_labels)
                and session.model.confusions.shape[0] == session.n_workers)
        if force_all or not warm:
            dirty_blocks = list(range(partition.n_blocks))
        else:
            dirty = session.dirty_objects
            dirty_blocks = [
                index for index, block in enumerate(partition.blocks)
                if any(int(obj) in dirty for obj in block.object_indices)]
        span = self.telemetry.span(
            "shard.refresh", n_blocks=partition.n_blocks,
            n_dirty=len(dirty_blocks), warm=warm,
            supervised=self.supervisor is not None)
        with span:
            encoded = session.stats.encoded()
            validated = session.validation.as_array()

            if warm:
                assignment = np.array(session.model.assignment, copy=True)
            else:
                assignment = em_kernel.initial_assignment_majority(encoded)
                em_kernel.clamp_validated(
                    assignment, np.flatnonzero(validated != MISSING),
                    validated[validated != MISSING])

            payloads = [
                self._block_payload(session, partition, index, encoded,
                                    validated, warm)
                for index in dirty_blocks]
            if self.supervisor is not None:
                outcomes = self.supervisor.run(_refine_block, payloads,
                                               keys=dirty_blocks,
                                               site="shard.refresh",
                                               star=True)
                if self.telemetry.enabled and outcomes:
                    span.set("max_queue_wait", max(
                        outcome.queue_wait for outcome in outcomes))
                    span.set("max_run_time", max(
                        outcome.elapsed for outcome in outcomes))
                bad = [outcome for outcome in outcomes if not outcome.ok]
                if bad:
                    span.set("fallback", "exact")
                    return self._fallback_exact(session, partition, bad)
                results = [outcome.value for outcome in outcomes]
            else:
                results = self.executor.starmap(_refine_block, payloads)

            iterations: list[int] = []
            for block_index, (block_assignment, n_iter, _converged) \
                    in zip(dirty_blocks, results):
                block = partition.blocks[block_index]
                assignment[block.object_indices, :] = block_assignment
                iterations.append(int(n_iter))
                if self.telemetry.enabled:
                    self.telemetry.spawn(f"shard{block_index}") \
                        .counter("em.iterations").inc(int(n_iter))

            confusions = em_kernel.m_step(encoded, assignment,
                                          session.aggregator.smoothing)
            priors = em_kernel.estimate_priors(assignment)
            session.install_model(assignment, confusions, priors,
                                  n_iterations=max(iterations, default=0),
                                  converged=True)
            span.set("em_iterations", int(sum(iterations)))
        return RefreshReport(n_blocks=partition.n_blocks,
                             refreshed_blocks=tuple(dirty_blocks),
                             em_iterations=tuple(iterations))

    # ------------------------------------------------------------------
    def _fallback_exact(self, session: ValidationSession,
                        partition: Partition, bad) -> RefreshReport:
        """Degrade to the exact path when supervised shards fail.

        The exact conclude is slower but touches no shard machinery, so a
        quarantined or persistently failing block cannot block progress —
        the degradation is recorded, never raised.
        """
        failed = ", ".join(f"block {outcome.key} {outcome.status}"
                           for outcome in bad)
        self.supervisor.event_log.record(
            "fallback-exact", "shard.refresh",
            detail=f"exact conclude replacing sharded refresh ({failed})",
            error=next((outcome.error for outcome in bad
                        if outcome.error), None))
        session.conclude()
        return RefreshReport(n_blocks=partition.n_blocks,
                             refreshed_blocks=(), em_iterations=(),
                             fallback="exact")

    # ------------------------------------------------------------------
    def _block_payload(self, session: ValidationSession,
                       partition: Partition, block_index: int,
                       encoded: em_kernel.EncodedAnswers,
                       validated: np.ndarray, warm: bool) -> tuple:
        block = partition.blocks[block_index]
        objects = np.sort(block.object_indices)
        workers = np.sort(block.worker_indices)
        sub, workers = em_kernel.block_subencoding(
            encoded, objects, workers, n_labels=session.n_labels)
        if warm:
            initial = em_kernel.e_step(
                sub, session.model.confusions[workers],
                session.model.priors)
        else:
            initial = em_kernel.initial_assignment_majority(sub)
        block_validated = validated[objects]
        local_validated = np.flatnonzero(block_validated != MISSING)
        local_labels = block_validated[local_validated]
        aggregator = session.aggregator
        return (objects.size, workers.size, session.n_labels,
                sub.object_index, sub.worker_index, sub.label_index,
                initial, local_validated, local_labels,
                aggregator.max_iter, aggregator.tol, aggregator.smoothing)

    def __repr__(self) -> str:
        return (f"ShardedRefresher(max_objects_per_block="
                f"{self.max_objects_per_block}, executor={self.executor!r})")
