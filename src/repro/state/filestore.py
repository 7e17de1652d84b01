"""File-backed session store: npz segments + JSON manifest + JSONL WAL.

On-disk layout under the store root::

    root/
      wal.jsonl                 # one JSON record per line, append-only
      ckpt-000000/
        manifest.json           # schema version, dims, config, RNG state
        global.npz              # model arrays + the concluded mask
        segment-000.npz         # answer log (+ validations)
      ckpt-000001/
        ...

Crash safety comes from write ordering: a checkpoint directory's segments
and ``global.npz`` are written first and the manifest last, atomically
(temp file + ``os.replace``). A crash mid-checkpoint therefore leaves a
directory without a manifest — recognized as incomplete and skipped when
selecting the latest checkpoint — never a manifest describing missing
data. A manifest that exists but cannot be parsed, a missing segment, or
segment contents that disagree with the manifest are *corruption* and
raise typed :mod:`repro.errors` exceptions rather than loading garbage.

The WAL tolerates exactly one torn record: a truncated **final** line
(the record being appended when the process died) is dropped on read; a
malformed line anywhere earlier raises
:class:`~repro.errors.CheckpointCorruptionError`. Opening the store makes
one streaming pass over the WAL that checks every line but keeps only the
record count, the end offset of the last whole record, and the positions
of ``step`` markers; :meth:`FileSessionStore.wal_records` counts its way
past the records it skips instead of decoding them. Each append is one
unbuffered ``write`` to an ``O_APPEND`` descriptor that the store opens
at its first append (cutting a torn tail off first, so later appends
never land behind it) and keeps until :meth:`FileSessionStore.close`. A
returned append is in the kernel, so it survives the process being
killed; nothing is fsynced.

Segments: a checkpoint writes its answer log and validations as one
segment whose entries are keyed by their log positions. The reader
accepts any number of segments (earlier builds could split a checkpoint
into one segment per partition block): it concatenates them and sorts by
position, recovering the exact insertion order however many segments
hold it. The reader parses every manifest field inside one typed guard,
checks the answer log, the validations, the masked workers and the
model against the declared dimensions, and checks that no cell repeats
in the log, so a checkpoint that fails a check fails
:meth:`~FileSessionStore.load_state` with a typed error, and
``restore()`` scans back past it. Listing skips a manifest whose listing
fields cannot be read, as it skips a torn one.

Older checkpoints carry things this build does not read, and the reader
accepts them without a schema bump: a manifest ``vocab`` entry (object,
worker and label names), a segment ``dirty`` array (the objects changed
since the last conclude, which no refinement read), and a
``concluded_validated`` array in ``global.npz`` (the validations at the
last conclude). Each segment still carries an empty ``dirty`` array,
because earlier readers of this schema version require the key.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import weakref
from pathlib import Path

import numpy as np

from repro.core.answer_set import MISSING
from repro.core.em_kernel import _cell_keys
from repro.core.iem import INIT_POLICIES
from repro.errors import (CheckpointCorruptionError,
                          CheckpointDimensionError,
                          CheckpointNotFoundError, CheckpointSchemaError)
from repro.state.snapshot import STATE_SCHEMA_VERSION, SessionState
from repro.state.store import EVENT_KINDS, CheckpointInfo, SessionStore
from repro.telemetry import NULL_TELEMETRY
from repro.utils.rng import rng_from_state

_CKPT_PREFIX = "ckpt-"
_MANIFEST = "manifest.json"
_GLOBAL = "global.npz"
_WAL = "wal.jsonl"
#: Same bytes as ``json.dumps(record, separators=(",", ":"))``, built once.
_WAL_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: ``json.loads`` of a str, without its per-call argument handling.
_WAL_DECODER = json.JSONDecoder()


class FileSessionStore(SessionStore):
    """Durable :class:`~repro.state.store.SessionStore` rooted at a directory.

    Examples
    --------
    >>> store = FileSessionStore(tmp_path)          # doctest: +SKIP
    >>> store.checkpoint(session)                   # doctest: +SKIP
    >>> restored = store.restore()                  # doctest: +SKIP
    >>> store.close()                               # doctest: +SKIP

    The first :meth:`append` opens the WAL for writing and the store keeps
    that descriptor; :meth:`close` releases it, as does garbage collection
    of the store, and a later append opens it again. A store that only
    reads never opens the WAL for writing.

    Resilience hooks
    ----------------
    :meth:`checkpoint` raises its own errors: a failed write surfaces as
    :class:`~repro.errors.CheckpointWriteError` (or a bare ``OSError``),
    which :func:`~repro.resilience.call_with_retry` classifies transient.
    Retrying is the caller's choice, and it is safe because the manifest
    is the commit point: a failed attempt leaves an uncommitted directory,
    as a crash would, and the retry writes the next checkpoint id.
    ``fault_injector`` arms two sites:
    ``"filestore.checkpoint-write"`` fires just *before* the manifest
    commit (simulating a torn checkpoint), and
    ``"filestore.segment-read"`` fires during restore assembly
    (simulating a corrupt segment). ``event_log`` receives the restore
    scan-back events. ``telemetry`` (a
    :class:`repro.telemetry.Telemetry` hub or spawn scope) times every
    checkpoint write (``store.checkpoint_write`` span +
    ``store.checkpoint_write_seconds`` histogram) and state load
    (``store.restore_load`` span + ``store.restore_seconds``); the
    on-disk bytes are identical with telemetry on or off.
    """

    def __init__(self, root: str | os.PathLike, *,
                 fault_injector=None,
                 event_log=None,
                 telemetry=NULL_TELEMETRY) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fault_injector = fault_injector
        self.event_log = event_log
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._wal_path = self.root / _WAL
        self._wal_fd = None  # opened by the first append
        # The WAL index: record count, end offset of the last whole
        # record, and (position, step) of every step marker.
        self._wal_count = self._wal_end = 0
        self._steps: list[tuple[int, int]] = []
        self._index_wal()

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------
    def append(self, record: dict) -> int:
        kind = record.get("kind")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        step = int(record["step"]) if kind == "step" else None
        data = (_WAL_ENCODER.encode(record) + "\n").encode()
        if self._wal_fd is None:
            # Count what another writer appended since the index was built,
            # then cut the torn bytes after the last whole record so new
            # records never land behind them.
            self._index_wal()
            fd = os.open(self._wal_path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            # Closes the descriptor once: at close(), or when the store is
            # collected (appends are unbuffered, so there is nothing to flush).
            self._close_wal = weakref.finalize(self, os.close, fd)
            os.ftruncate(fd, self._wal_end)
            self._wal_fd = fd
        written = os.write(self._wal_fd, data)
        while written < len(data):  # a full disk or a signal cut it short
            written += os.write(self._wal_fd, data[written:])
        self._wal_end += written
        if step is not None:
            self._steps.append((self._wal_count, step))
        self._wal_count += 1
        return self._wal_count

    def close(self) -> None:
        """Release the WAL append descriptor, if an append opened one."""
        if self._wal_fd is not None:
            self._close_wal()
            self._wal_fd = None

    @property
    def wal_position(self) -> int:
        return self._wal_count

    def wal_records(self, start: int = 0) -> list[dict]:
        return [record for _end, record in self._read_wal(skip=start)]

    def step_before(self, position: int) -> int | None:
        index = bisect.bisect_left(self._steps, (position,))
        return self._steps[index - 1][1] if index else None

    def _index_wal(self) -> None:
        """Extend the WAL index over the whole records past its end."""
        count, end, steps = self._wal_count, self._wal_end, self._steps
        for end, record in self._read_wal(end, count):
            if isinstance(record, dict) and record.get("kind") == "step":
                steps.append((count, int(record["step"])))
            count += 1
        self._wal_count, self._wal_end = count, end

    def _read_wal(self, offset: int = 0, position: int = 0, skip: int = 0):
        """Yield ``(end offset, record)`` per whole WAL record.

        Reads from byte ``offset``, which starts record ``position``; the
        first ``skip`` lines are counted past, not decoded. The torn-tail
        rules live here: bytes after the last newline are a record torn
        mid-append and are dropped, as is a final line that does not
        decode; a malformed line anywhere earlier raises
        :class:`~repro.errors.CheckpointCorruptionError`.
        """
        try:
            handle = open(self._wal_path, "rb")
        except FileNotFoundError:
            return
        with handle:
            handle.seek(offset)
            lines = iter(handle)
            position += sum(1 for _ in itertools.islice(lines, skip))
            offset = handle.tell()
            for line in lines:
                if not line.endswith(b"\n"):
                    return  # after the last newline: torn mid-append
                offset += len(line)
                try:
                    record = _WAL_DECODER.decode(line.decode())
                except ValueError as exc:
                    if next(lines, None) is None:
                        return  # torn final record that got its newline out
                    raise CheckpointCorruptionError(
                        f"WAL record {position} in {self._wal_path} is not "
                        f"valid JSON: {exc}") from exc
                position += 1
                yield offset, record

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, session, *,
                   meta: dict | None = None) -> CheckpointInfo:
        state = session.capture_state()
        checkpoint_id = self._next_checkpoint_id()
        directory = self.root / f"{_CKPT_PREFIX}{checkpoint_id:06d}"
        # A failed write raises as it is and leaves an uncommitted
        # directory (no manifest): listing and restore skip it, and the
        # next checkpoint takes the next id.
        span = self.telemetry.span("store.checkpoint_write",
                                   checkpoint_id=checkpoint_id,
                                   n_answers=state.n_answers)
        with span:
            info = self._write_checkpoint(directory, checkpoint_id, state,
                                          meta)
        self.telemetry.histogram(
            "store.checkpoint_write_seconds").observe(span.duration)
        return info

    def _write_checkpoint(self, directory: Path, checkpoint_id: int,
                          state: SessionState,
                          meta: dict | None) -> CheckpointInfo:
        directory.mkdir(parents=True, exist_ok=True)

        segments = self._write_segment(directory, state)
        global_arrays = {}
        if state.concluded is not None:
            global_arrays["concluded"] = state.concluded
        if state.assignment is not None:
            global_arrays["assignment"] = state.assignment
            global_arrays["confusions"] = state.confusions
            global_arrays["priors"] = state.priors
        np.savez(directory / _GLOBAL, **global_arrays)

        info = CheckpointInfo(
            checkpoint_id=checkpoint_id,
            wal_position=self._wal_count,
            n_answers=state.n_answers,
            n_validated=int((state.validated != MISSING).sum()),
            meta=dict(meta or {}))
        manifest = {
            "schema_version": state.schema_version,
            "checkpoint_id": checkpoint_id,
            "wal_position": info.wal_position,
            "dims": {"n_objects": state.n_objects,
                     "n_workers": state.n_workers,
                     "n_labels": state.n_labels},
            "config": {"init": state.init, "max_iter": state.max_iter,
                       "tol": state.tol, "smoothing": state.smoothing,
                       "on_conflict": state.on_conflict},
            "rng_state": state.rng_state,
            "masked_workers": list(state.masked_workers),
            "n_answers": state.n_answers,
            "n_validated": info.n_validated,
            "has_model": state.has_model,
            "model": {"n_iterations": state.model_n_iterations,
                      "converged": state.model_converged,
                      "dims": None if state.model_dims is None
                      else list(state.model_dims)},
            "has_concluded": state.concluded is not None,
            "counters": {"n_concludes": state.n_concludes,
                         "total_em_iterations": state.total_em_iterations,
                         "n_conflicts": state.n_conflicts},
            "segments": segments,
            "meta": info.meta,
        }
        # Manifest last, atomically: its presence is the commit point. The
        # injected fault fires here — after the segments, before the commit
        # — so a fired fault leaves exactly the torn-checkpoint shape that
        # a real crash would.
        if self.fault_injector is not None:
            self.fault_injector.check("filestore.checkpoint-write",
                                      checkpoint_id)
        tmp = directory / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
        os.replace(tmp, directory / _MANIFEST)
        return info

    def _write_segment(self, directory: Path,
                       state: SessionState) -> list[dict]:
        """Write the one segment; returns the manifest's segment list."""
        validated_objects = np.flatnonzero(state.validated != MISSING)
        name = "segment-000.npz"
        np.savez(directory / name,
                 positions=np.arange(state.n_answers, dtype=np.intp),
                 objects=state.log_objects,
                 workers=state.log_workers,
                 labels=state.log_labels,
                 validated_objects=validated_objects,
                 validated_labels=state.validated[validated_objects],
                 # Readers before this build require the key; nothing
                 # reads its contents.
                 dirty=np.empty(0, dtype=np.int64))
        return [{"file": name, "n_entries": state.n_answers}]

    def checkpoints(self) -> list[CheckpointInfo]:
        infos = []
        for checkpoint_id, directory in self._checkpoint_dirs():
            manifest_path = directory / _MANIFEST
            if not manifest_path.exists():
                continue  # incomplete (crashed mid-write): not committed
            try:
                manifest = self._load_manifest(manifest_path)
                info = CheckpointInfo(
                    checkpoint_id=checkpoint_id,
                    wal_position=int(manifest.get("wal_position", 0)),
                    n_answers=int(manifest.get("n_answers", 0)),
                    n_validated=int(manifest.get("n_validated", 0)),
                    meta=dict(manifest.get("meta", {})))
            except (CheckpointCorruptionError, TypeError, ValueError,
                    OverflowError):
                # A torn manifest, or one whose listing fields cannot be
                # read, never committed — equivalent to a crash one
                # syscall earlier. Listing skips it; explicit
                # load_state(checkpoint_id) stays strict about the fields
                # it reads.
                continue
            infos.append(info)
        return infos

    def load_state(self, checkpoint_id: int | None = None) -> SessionState:
        span = self.telemetry.span("store.restore_load",
                                   checkpoint_id=checkpoint_id)
        with span:
            directory = self._resolve_checkpoint_dir(checkpoint_id)
            manifest = self._load_manifest(directory / _MANIFEST)
            if manifest.get("schema_version") != STATE_SCHEMA_VERSION:
                raise CheckpointSchemaError(
                    f"checkpoint {directory.name} has schema version "
                    f"{manifest.get('schema_version')!r}; this build reads "
                    f"version {STATE_SCHEMA_VERSION}")
            state = self._assemble(directory, manifest)
        self.telemetry.histogram(
            "store.restore_seconds").observe(span.duration)
        return state

    # ------------------------------------------------------------------
    def _assemble(self, directory: Path, manifest: dict) -> SessionState:
        try:
            dims = manifest["dims"]
            n_objects = int(dims["n_objects"])
            n_workers = int(dims["n_workers"])
            n_labels = int(dims["n_labels"])
            n_answers = int(manifest["n_answers"])
            segments = [(str(entry["file"]), int(entry["n_entries"]))
                        for entry in manifest["segments"]]
            config = manifest["config"]
            model_meta = manifest.get("model", {})
            model_dims = model_meta.get("dims")
            counters = manifest.get("counters", {})
            # Every other field the state takes from the manifest.
            fields = dict(
                init=str(config["init"]), max_iter=int(config["max_iter"]),
                tol=float(config["tol"]),
                smoothing=float(config["smoothing"]),
                on_conflict=str(config.get("on_conflict", "error")),
                rng_state=manifest["rng_state"],
                masked_workers=tuple(
                    int(w) for w in manifest.get("masked_workers", [])),
                model_n_iterations=int(model_meta.get("n_iterations", 0)),
                model_converged=bool(model_meta.get("converged", False)),
                model_dims=None if model_dims is None
                else (int(model_dims[0]), int(model_dims[1])),
                n_concludes=int(counters.get("n_concludes", 0)),
                total_em_iterations=int(
                    counters.get("total_em_iterations", 0)),
                n_conflicts=int(counters.get("n_conflicts", 0)))
            rng_from_state(fields["rng_state"])  # one that numpy can load
            if fields["init"] not in INIT_POLICIES \
                    or fields["on_conflict"] not in ("error", "ignore"):
                raise ValueError(
                    f"unknown init {fields['init']!r} or conflict policy "
                    f"{fields['on_conflict']!r}")
        except (KeyError, IndexError, TypeError, ValueError,
                OverflowError, AttributeError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {directory.name} manifest has missing or "
                f"unreadable fields: {exc!r}") from exc

        positions, objs, wrks, labs = [], [], [], []
        validated = np.full(n_objects, MISSING, dtype=np.int64)
        suffix = directory.name[len(_CKPT_PREFIX):]
        read_key = int(suffix) if suffix.isdigit() else suffix
        for name, n_entries in segments:
            if self.fault_injector is not None:
                # A fired "corrupt" fault raises CheckpointCorruptionError
                # exactly as a garbage segment would, driving the restore
                # scan-back path without touching real bytes.
                self.fault_injector.check("filestore.segment-read", read_key)
            path = directory / name
            if not path.exists():
                raise CheckpointCorruptionError(
                    f"checkpoint {directory.name} manifest lists segment "
                    f"{name} but the file is missing")
            try:
                with np.load(path, allow_pickle=False) as seg:
                    seg_positions = seg["positions"]
                    if seg_positions.size != n_entries:
                        raise CheckpointCorruptionError(
                            f"segment {name} holds {seg_positions.size} "
                            f"entries; manifest expects {n_entries}")
                    positions.append(seg_positions)
                    objs.append(seg["objects"])
                    wrks.append(seg["workers"])
                    labs.append(seg["labels"])
                    v_obj = seg["validated_objects"]
                    v_lab = seg["validated_labels"]
                    if v_obj.size and (v_obj.min() < 0
                                       or v_obj.max() >= n_objects):
                        raise CheckpointDimensionError(
                            f"segment {name} validates objects outside "
                            f"[0, {n_objects})")
                    if v_lab.size and (v_lab.min() < 0
                                       or v_lab.max() >= n_labels):
                        raise CheckpointDimensionError(
                            f"segment {name} validates with labels outside "
                            f"[0, {n_labels})")
                    validated[v_obj] = v_lab
            except (OSError, ValueError, KeyError) as exc:
                raise CheckpointCorruptionError(
                    f"segment {name} of checkpoint {directory.name} is "
                    f"unreadable: {exc}") from exc

        position = np.concatenate(positions) if positions \
            else np.empty(0, dtype=np.int64)
        log_objects = np.concatenate(objs) if objs \
            else np.empty(0, dtype=np.int64)
        log_workers = np.concatenate(wrks) if wrks \
            else np.empty(0, dtype=np.int64)
        log_labels = np.concatenate(labs) if labs \
            else np.empty(0, dtype=np.int64)
        if position.size != n_answers:
            raise CheckpointCorruptionError(
                f"checkpoint {directory.name} segments hold "
                f"{position.size} answers; manifest expects {n_answers}")
        order = np.argsort(position, kind="stable")
        if position.size and not np.array_equal(
                position[order], np.arange(n_answers)):
            raise CheckpointCorruptionError(
                f"checkpoint {directory.name} segment positions do not "
                f"reassemble into a contiguous answer log")
        log_objects = np.ascontiguousarray(log_objects[order])
        log_workers = np.ascontiguousarray(log_workers[order])
        log_labels = np.ascontiguousarray(log_labels[order])
        if log_objects.size and (
                log_objects.min() < 0 or log_objects.max() >= n_objects
                or log_workers.min() < 0 or log_workers.max() >= n_workers
                or log_labels.min() < 0 or log_labels.max() >= n_labels):
            raise CheckpointDimensionError(
                f"checkpoint {directory.name} answer log exceeds declared "
                f"dimensions ({n_objects} × {n_workers}, {n_labels} labels)")
        # A session never logs a cell twice. Sort the cell keys, as
        # AnswerStats does, so a repeat fails here, where restore() can
        # scan back, and not in the rebuild that follows.
        keys = _cell_keys(log_objects, log_workers)
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise CheckpointCorruptionError(
                f"checkpoint {directory.name} answer log holds a cell twice")
        if any(not 0 <= w < n_workers for w in fields["masked_workers"]):
            raise CheckpointDimensionError(
                f"checkpoint {directory.name} masks workers outside "
                f"[0, {n_workers})")

        concluded = None
        assignment = confusions = priors = None
        try:
            with np.load(directory / _GLOBAL, allow_pickle=False) as blob:
                if manifest.get("has_concluded"):
                    concluded = blob["concluded"].astype(bool).copy()
                if manifest.get("has_model"):
                    assignment = blob["assignment"].copy()
                    confusions = blob["confusions"].copy()
                    priors = blob["priors"].copy()
        except (OSError, ValueError, KeyError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {directory.name} global arrays are "
                f"unreadable: {exc}") from exc
        if assignment is not None:
            expected_n, expected_k = fields["model_dims"] \
                or (n_objects, n_workers)
            if assignment.shape != (expected_n, n_labels) \
                    or confusions.shape != (expected_k, n_labels, n_labels) \
                    or priors.shape != (n_labels,):
                raise CheckpointDimensionError(
                    f"checkpoint {directory.name} model shapes "
                    f"{assignment.shape}/{confusions.shape}/{priors.shape} "
                    f"do not match declared dimensions")

        if concluded is not None and concluded.shape != (n_objects,):
            raise CheckpointDimensionError(
                f"checkpoint {directory.name} concluded mask has shape "
                f"{concluded.shape}; expected ({n_objects},)")
        return SessionState(
            n_objects=n_objects, n_workers=n_workers, n_labels=n_labels,
            log_objects=log_objects, log_workers=log_workers,
            log_labels=log_labels, validated=validated,
            assignment=assignment, confusions=confusions, priors=priors,
            concluded=concluded, **fields)

    # ------------------------------------------------------------------
    def _checkpoint_dirs(self) -> list[tuple[int, Path]]:
        found = []
        for child in self.root.iterdir():
            if child.is_dir() and child.name.startswith(_CKPT_PREFIX):
                suffix = child.name[len(_CKPT_PREFIX):]
                if suffix.isdigit():
                    found.append((int(suffix), child))
        return sorted(found)

    def _next_checkpoint_id(self) -> int:
        dirs = self._checkpoint_dirs()
        return dirs[-1][0] + 1 if dirs else 0

    def _resolve_checkpoint_dir(self,
                                checkpoint_id: int | None) -> Path:
        dirs = self._checkpoint_dirs()
        if checkpoint_id is not None:
            for found_id, directory in dirs:
                if found_id == checkpoint_id:
                    if not (directory / _MANIFEST).exists():
                        raise CheckpointCorruptionError(
                            f"checkpoint {directory.name} has no manifest "
                            f"(write did not complete)")
                    return directory
            raise CheckpointNotFoundError(
                f"no checkpoint with id {checkpoint_id} under {self.root}")
        for found_id, directory in reversed(dirs):
            if (directory / _MANIFEST).exists():
                return directory
        raise CheckpointNotFoundError(
            f"no completed checkpoints under {self.root}")

    @staticmethod
    def _load_manifest(path: Path) -> dict:
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise CheckpointCorruptionError(
                f"checkpoint manifest {path} is missing") from exc
        except (json.JSONDecodeError, OSError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint manifest {path} is torn or unreadable: "
                f"{exc}") from exc
        if not isinstance(manifest, dict):
            raise CheckpointCorruptionError(
                f"checkpoint manifest {path} holds a "
                f"{type(manifest).__name__}, not an object")
        return manifest
