"""Shard-parallel E/M scatters over shared-memory incidence operators
(§5.4 scaled).

The serial :func:`repro.core.em_kernel.m_step` is one sparse product
over all ``A`` answers; at the 10⁵–10⁶-object tiers that single
sequential product is the whole EM iteration. This module partitions the
two operators of :class:`repro.core.em_kernel.KernelPlan` by row block:

* the **M-step** (confusion counts) is sharded by *worker ranges* — the
  shard owning workers ``[w0, w1)`` multiplies rows ``[w0·m, w1·m)`` of
  ``cell_incidence`` into the disjoint output rows of the same range;
* the **E-step scatter** (per-object log-likelihood rows) is sharded by
  *object ranges* — the shard owning objects ``[o0, o1)`` multiplies
  those rows of ``object_incidence``.

A row block of a CSR operator is a contiguous slice of its index array,
so the shards need no permuted copies of anything. Every shard writes a
private output range and, within any output cell, adds the same entries
in the same order as the serial product, so the sharded results are
**bit-for-bit identical** to the serial path — there is no floating
reduction across shards at all, hence the "deterministic reduction order"
comes for free.

Process parallelism without pickling
------------------------------------
Shipping the operators (or even just the per-call assignment) to pool
workers would cost more than the milliseconds the serial product takes.
Instead every operand lives in :mod:`multiprocessing.shared_memory`
segments:

* the static operator arrays (row pointers, column indices, the shared
  ones), written once at construction;
* per-call input buffers (assignment / cell-major log-confusions),
  overwritten by the parent before each fan-out;
* disjoint per-shard output buffers, read by the parent after the
  barrier.

Workers locate the segments through a module-level registry keyed by a
per-kernel token: children forked after construction (the common case —
:class:`repro.parallel.Executor` creates its pool lazily) inherit the
parent's registry entry outright, and the inherited ``MAP_SHARED``
mappings alias the same physical pages, so they see per-call input
updates for free. A worker without the token (pre-existing pools, spawn
contexts) attaches by segment name once and caches the views. Each
worker builds its shard's row-block operator once and caches it beside
the views.

``threads`` executors are supported and bit-identical but give no
speedup — the sparse products hold the GIL (two threads on the two row
halves run at 0.94–0.99× of one thread at the 50k tier) — so
``processes`` is the mode benchmarked against the ≥2× floor in
``benchmarks/test_scale_tiers.py``.
"""

from __future__ import annotations

import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np
from scipy import sparse

from repro.core import em_kernel
from repro.core.confusion import PROB_FLOOR
from repro.parallel.executor import Executor

#: Worker-side registry: token -> dict of named ndarray views (plus the
#: SharedMemory objects keeping them alive, and each shard's cached
#: row-block operator). Fork-inherited entries alias the parent's shared
#: mappings; attach-path entries are built lazily.
_REGISTRY: dict[str, dict] = {}


def _attach(token: str, spec: dict) -> dict:
    """Attach to a kernel's shared segments by name (non-fork workers)."""
    entry: dict = {"_segments": []}
    for name, (shm_name, shape, dtype_str) in spec.items():
        shm = shared_memory.SharedMemory(name=shm_name)
        # This worker did not create the segment; stop its resource
        # tracker from "cleaning up" (unlinking) the parent's memory at
        # worker exit. (Python 3.13 grows a track= parameter for this.)
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        entry["_segments"].append(shm)
        entry[name] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                                 buffer=shm.buf)
    _REGISTRY[token] = entry
    return entry


def _run_shard(token: str, spec: dict, kind: str, shard: tuple) -> None:
    """Multiply one row block into its disjoint output rows (worker side).

    ``kind`` is ``"m"`` (``cell_incidence`` rows times the assignment) or
    ``"e"`` (``object_incidence`` rows times the log-confusions).
    """
    views = _REGISTRY.get(token)
    if views is None:
        views = _attach(token, spec)
    r0, r1, a0, a1 = shard
    source = views[kind + "_in"]
    block = views.get((kind, shard))
    if block is None:
        indptr = views[kind + "_indptr"]
        block = views[(kind, shard)] = sparse.csr_array(
            (views["ones"][a0:a1], views[kind + "_indices"][a0:a1],
             indptr[r0:r1 + 1] - indptr[r0]),
            shape=(r1 - r0, source.shape[0]))
    views[kind + "_out"][r0:r1] = block @ source


def _shard_bounds(starts: np.ndarray, n_shards: int) -> list[tuple]:
    """Answer-balanced ``(seg0, seg1, a0, a1)`` ranges on segment starts.

    ``starts`` is a CSR indptr (per-worker or per-object); boundaries are
    snapped to segment edges so no shard ever splits a worker/object, and
    chosen at equal answer-count quantiles so dense segments don't pile
    into one shard.
    """
    n_segments = int(starts.size) - 1
    total = int(starts[-1])
    if n_segments <= 0 or total <= 0:
        return []
    targets = (total * np.arange(1, n_shards)) // n_shards
    cuts = np.searchsorted(starts, targets, side="left")
    bounds = np.unique(np.concatenate(([0], cuts, [n_segments])))
    return [(int(s0), int(s1), int(starts[s0]), int(starts[s1]))
            for s0, s1 in zip(bounds[:-1], bounds[1:])]


class ShardedKernel:
    """Shard-parallel M-step / E-step scatters over one encoding.

    Parameters
    ----------
    encoded:
        The flat encoding to solve over. Its memoized
        :func:`~repro.core.em_kernel.kernel_plan` supplies the two
        incidence operators, whose row pointers are also the
        worker/object boundaries the shards align to.
    executor:
        A :class:`repro.parallel.Executor` to fan out on. When omitted, a
        process-mode executor is created (and closed by :meth:`close`).
    max_workers:
        Pool size for the internally created executor (ignored when
        ``executor`` is given).
    n_shards:
        Shard count; defaults to the executor's worker count. Results are
        independent of the shard count — sharding changes *where* each
        disjoint output range is computed, never the per-cell addition
        order.

    Pass it to :func:`repro.core.em_kernel.run_em` as ``kernel=`` for a
    shard-parallel M-step. Use as a context manager (or call
    :meth:`close`) so the shared-memory segments are unlinked
    deterministically.
    """

    def __init__(self, encoded: em_kernel.EncodedAnswers,
                 executor: Executor | None = None,
                 *,
                 max_workers: int | None = None,
                 n_shards: int | None = None) -> None:
        self._encoded = encoded
        self._owns_executor = executor is None
        self._executor = executor if executor is not None \
            else Executor("processes", max_workers=max_workers)
        if n_shards is None:
            n_shards = self._executor.max_workers
        self._n_shards = max(1, int(n_shards))
        self._token = uuid.uuid4().hex
        self._spec: dict[str, tuple] = {}
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: dict = {}
        self._closed = False

        plan = em_kernel.kernel_plan(encoded)
        n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
        if encoded.n_answers:
            by_object, by_cell = plan.object_incidence, plan.cell_incidence
            # Worker w's rows of cell_incidence start at indptr[w·m], so
            # every m-th row pointer is the per-worker answer boundary.
            worker_starts = np.asarray(by_cell.indptr[::m], dtype=np.int64)
            self._m_shards = [
                (w0 * m, w1 * m, a0, a1) for w0, w1, a0, a1
                in _shard_bounds(worker_starts, self._n_shards)]
            self._e_shards = _shard_bounds(
                np.asarray(by_object.indptr, dtype=np.int64), self._n_shards)
            # Static operator arrays (written once per encoding epoch).
            self._share("ones", by_object.data)
            self._share("m_indptr", by_cell.indptr)
            self._share("m_indices", by_cell.indices)
            self._share("e_indptr", by_object.indptr)
            self._share("e_indices", by_object.indices)
            # Per-call mutable inputs and disjoint shard outputs.
            self._share("m_in", np.zeros((n, m)))
            self._share("m_out", np.zeros((k * m, m)))
            self._share("e_in", np.zeros((k * m, m)))
            self._share("e_out", np.zeros((n, m)))
            entry = dict(self._views)
            entry["_segments"] = []
            _REGISTRY[self._token] = entry
        else:
            self._m_shards = []
            self._e_shards = []

    # ------------------------------------------------------------------
    @property
    def encoded(self) -> em_kernel.EncodedAnswers:
        return self._encoded

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def _share(self, name: str, array: np.ndarray) -> None:
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        self._segments.append(shm)
        self._spec[name] = (shm.name, tuple(array.shape), array.dtype.str)
        self._views[name] = view

    def _fan_out(self, kind: str, shards: list[tuple]) -> None:
        self._executor.starmap(
            _run_shard,
            [(self._token, self._spec, kind, shard) for shard in shards])

    # ------------------------------------------------------------------
    def m_step(self, assignment: np.ndarray,
               smoothing: float = em_kernel.DEFAULT_SMOOTHING) -> np.ndarray:
        """Worker-sharded Eq. 5 — bit-for-bit equal to the serial path."""
        if self._closed:
            raise RuntimeError("ShardedKernel is closed")
        encoded = self._encoded
        if not encoded.n_answers:
            return em_kernel.m_step(encoded, assignment, smoothing)
        self._views["m_in"][...] = assignment
        self._fan_out("m", self._m_shards)
        return em_kernel.confusions_from_cell_counts(self._views["m_out"],
                                                     smoothing)

    def scatter_log_likelihood(self,
                               log_confusions: np.ndarray) -> np.ndarray:
        """Object-sharded E scatter — bit-equal to the serial path."""
        if self._closed:
            raise RuntimeError("ShardedKernel is closed")
        encoded = self._encoded
        n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
        if not encoded.n_answers:
            return np.zeros((n, m), dtype=float)
        # Cell-major layout: row w·m + l holds log F_w(·, l).
        self._views["e_in"].reshape(k, m, m)[...] = \
            np.transpose(log_confusions, (0, 2, 1))
        self._fan_out("e", self._e_shards)
        return self._views["e_out"].copy()

    def e_step(self, confusions: np.ndarray, priors: np.ndarray,
               *,
               log_confusions: np.ndarray | None = None,
               log_priors: np.ndarray | None = None) -> np.ndarray:
        """Sharded Eq. 1 — mirrors :func:`repro.core.em_kernel.e_step`."""
        if log_confusions is None:
            log_confusions = np.log(np.clip(confusions, PROB_FLOOR, None))
        if log_priors is None:
            log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
        return em_kernel.normalize_log_likelihood(
            self.scatter_log_likelihood(log_confusions), log_priors)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the shared segments (and any internally owned pool)."""
        if self._closed:
            return
        self._closed = True
        # Tear the pool down *before* unlinking so no worker is mid-shard
        # when the segments disappear.
        if self._owns_executor:
            self._executor.close()
        _REGISTRY.pop(self._token, None)
        self._views.clear()
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "ShardedKernel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"ShardedKernel(n_answers={self._encoded.n_answers}, "
                f"n_shards={self._n_shards}, "
                f"executor={self._executor!r}, closed={self._closed})")
