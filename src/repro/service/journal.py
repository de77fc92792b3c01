"""Durable write-ahead journal for the simulation service.

An append-only log of job lifecycle records (``submitted`` / ``leased``
/ ``heartbeat`` / ``done`` / ``failed`` / ``dead_letter``) that a
restarted :class:`~repro.service.cluster.coordinator.ClusterService`
replays to reconstruct its queue and re-dispatch orphaned work.  Design
points:

* **One record per line** — a JSON object ``{"crc", "seq", "rec"}``
  where ``crc`` is the CRC-32 of the canonical serialisation of
  ``rec``.  A flipped bit breaks either the JSON framing or the
  checksum; replay *skips* the record (counted), it never aborts.
* **Torn-tail tolerance** — a crash mid-append leaves a partial final
  line; replay detects it (unparseable record at the very end of the
  newest segment), counts it once and stops cleanly.  Durable state
  regresses by at most that one record, and the job it described is
  re-driven from its previous journaled state.
* **Segmented** — the log rotates into numbered segment files
  (``segment-000001.jrnl`` ...) once the active one exceeds
  ``max_segment_bytes``; :meth:`compact` rewrites only the live records
  into a fresh segment and deletes every older one, so the journal's
  size tracks the number of *open* jobs, not the total ever submitted.
* **Tunable durability** — ``sync="always"`` fsyncs every append;
  ``"batch"`` (the service default) flushes every record to the kernel
  (a SIGKILL of the process loses nothing) and group-commits fsyncs
  from a background flusher thread every ``sync_interval_s`` seconds
  plus on rotation/compaction/close, keeping the multi-millisecond
  fsync tail off the submit path and bounding the post-OS-crash loss
  window by *time* rather than record count; ``"off"`` is for
  throwaway test journals.

The journal stores facts, not interpretations: :func:`fold_jobs` is the
shared replay fold that turns the record stream into per-job final
states for the service (and the sweep's orphan report).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

#: Version of the on-disk record framing written by this build.
#: Schema 2 (telemetry plane) added the ``span`` record type and the
#: ``ts`` / ``trace`` fields on lifecycle records; the framing itself is
#: unchanged, so v1 journals replay losslessly (they just carry no span
#: history).  Replay treats records from any *unknown* version as
#: corrupt (skipped, never misread).
JOURNAL_SCHEMA = 2

#: Schema versions replay understands (backward-readable set).
SUPPORTED_SCHEMAS = frozenset((1, 2))

#: Record types a journal append will accept.  ``span`` (schema 2)
#: persists one per-job telemetry span event with no lifecycle effect;
#: ``node`` records cluster-node roster transitions (register / suspect
#: / dead) — informational for post-mortems, ignored by the job fold.
RECORD_TYPES = ("submitted", "leased", "heartbeat", "done", "failed",
                "dead_letter", "drain", "span", "node")

#: Job states that end a job's lifecycle.
TERMINAL_STATES = ("done", "failed", "dead_letter")

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jrnl"


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _frame(seq: int, rec: dict) -> bytes:
    payload = _canon(rec).encode()
    crc = zlib.crc32(payload)
    return (b'{"crc":%d,"schema":%d,"seq":%d,"rec":%s}\n'
            % (crc, JOURNAL_SCHEMA, seq, payload))


def _unframe(line: bytes) -> Optional[dict]:
    """The validated record (with ``seq``), or None when corrupt/torn."""
    try:
        envelope = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(envelope, dict):
        return None
    if envelope.get("schema") not in SUPPORTED_SCHEMAS:
        return None
    rec = envelope.get("rec")
    if not isinstance(rec, dict) or not isinstance(envelope.get("seq"), int):
        return None
    if zlib.crc32(_canon(rec).encode()) != envelope.get("crc"):
        return None
    rec = dict(rec)
    rec["seq"] = envelope["seq"]
    return rec


class Journal:
    """Append-only, checksummed, segmented write-ahead journal."""

    def __init__(self, root: Union[str, Path], sync: str = "batch",
                 max_segment_bytes: int = 1 << 20,
                 sync_interval_s: float = 0.05) -> None:
        if sync not in ("always", "batch", "off"):
            raise ValueError(f"sync must be always|batch|off, not {sync!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sync = sync
        self.max_segment_bytes = max_segment_bytes
        self.sync_interval_s = max(0.001, sync_interval_s)
        self.stats: Dict[str, int] = {
            "appends": 0, "fsyncs": 0, "rotations": 0, "compactions": 0,
            "replayed": 0, "corrupt_skipped": 0, "torn_tail": 0,
        }
        self._lock = threading.RLock()
        self._fh = None
        self._size = 0  # bytes in the active segment (avoids tell())
        self._dirty = False  # flushed-but-not-fsynced records pending
        self._seq = self._scan_last_seq()
        self._flusher_stop = threading.Event()
        self._flusher = None
        if sync == "batch":
            self._flusher = threading.Thread(
                target=self._flush_loop, name="journal-flusher", daemon=True)
            self._flusher.start()

    # -- segments --------------------------------------------------------------

    def segments(self) -> List[Path]:
        """All segment files, oldest first."""
        return sorted(self.root.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    @staticmethod
    def _segment_index(path: Path) -> int:
        stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return 0

    def _segment_path(self, index: int) -> Path:
        return self.root / f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"

    def _next_index(self) -> int:
        existing = self.segments()
        return (self._segment_index(existing[-1]) + 1) if existing else 1

    def _scan_last_seq(self) -> int:
        last = 0
        for rec in self._iter_segments(self.segments(), count=False):
            last = max(last, rec.get("seq", 0))
        return last

    # -- append ----------------------------------------------------------------

    def _open_active(self):
        if self._fh is None or self._fh.closed:
            segments = self.segments()
            path = segments[-1] if segments else self._segment_path(1)
            self._fh = open(path, "ab")
            try:
                self._size = path.stat().st_size
            except OSError:
                self._size = 0
        return self._fh

    def append(self, type_: str, **fields) -> int:
        """Durably append one record; returns its sequence number."""
        if type_ not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {type_!r}")
        rec = {"t": type_}
        rec.update(fields)
        with self._lock:
            fh = self._fh  # fast path: already open (the common case)
            if fh is None or fh.closed:
                fh = self._open_active()
            self._seq += 1
            frame = _frame(self._seq, rec)
            fh.write(frame)
            fh.flush()  # reaches the kernel: a process kill loses nothing
            self._size += len(frame)
            self.stats["appends"] += 1
            if self.sync == "always":
                os.fsync(fh.fileno())
                self.stats["fsyncs"] += 1
            elif self.sync == "batch":
                self._dirty = True  # the flusher thread group-commits
            if self._size >= self.max_segment_bytes:
                self._rotate()
            return self._seq

    def _rotate(self) -> None:
        fh = self._fh
        if fh is not None and not fh.closed:
            fh.flush()
            if self.sync != "off":
                os.fsync(fh.fileno())
                self.stats["fsyncs"] += 1
            fh.close()
        self._fh = open(self._segment_path(self._next_index()), "ab")
        self._size = 0
        self._dirty = False
        self.stats["rotations"] += 1

    def _flush_loop(self) -> None:
        """Group-commit fsync for ``sync="batch"``: at most one fsync per
        ``sync_interval_s``, taken off the append path so submit latency
        never eats the (occasionally multi-ms) fsync tail."""
        while not self._flusher_stop.wait(self.sync_interval_s):
            with self._lock:
                fh = self._fh
                if not self._dirty or fh is None or fh.closed:
                    continue
                try:
                    # fsync outside the lock (on a dup so a concurrent
                    # rotate/close can't invalidate the fd) — appends
                    # must never wait out the fsync tail.
                    dup = os.dup(fh.fileno())
                except (OSError, ValueError):
                    continue
                self._dirty = False
            try:
                os.fsync(dup)
                self.stats["fsyncs"] += 1
            except OSError:  # transient (e.g. full disk): retry next tick
                with self._lock:
                    self._dirty = True
            finally:
                try:
                    os.close(dup)
                except OSError:
                    pass

    def close(self) -> None:
        self._flusher_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
            self._flusher = None
        with self._lock:
            fh = self._fh
            if fh is not None and not fh.closed:
                fh.flush()
                if self.sync != "off":
                    os.fsync(fh.fileno())
                    self.stats["fsyncs"] += 1
                fh.close()
            self._fh = None
            self._dirty = False

    # -- replay ----------------------------------------------------------------

    def _iter_segments(self, segments: List[Path],
                       count: bool = True) -> Iterator[dict]:
        for seg_i, path in enumerate(segments):
            try:
                with open(path, "rb") as fh:
                    lines = fh.read().split(b"\n")
            except OSError:
                continue
            if lines and lines[-1] == b"":
                lines.pop()
            for line_i, line in enumerate(lines):
                if not line.strip():
                    continue
                rec = _unframe(line)
                if rec is None:
                    if count:
                        at_tail = (seg_i == len(segments) - 1
                                   and line_i == len(lines) - 1)
                        if at_tail:
                            self.stats["torn_tail"] += 1
                        else:
                            self.stats["corrupt_skipped"] += 1
                    continue
                if count:
                    self.stats["replayed"] += 1
                yield rec

    def records(self) -> Iterator[dict]:
        """Every valid record, oldest first, across all segments.

        Corrupt records are skipped and counted; an unparseable record
        at the very tail of the newest segment counts as a torn tail.
        """
        with self._lock:
            segments = self.segments()
        yield from self._iter_segments(segments)

    # -- compaction ------------------------------------------------------------

    def compact(self, live_records: List[dict]) -> None:
        """Atomically replace the whole journal with ``live_records``.

        Each entry is ``{"t": type, ...fields}``.  The records land in a
        brand-new segment (fsync'd before old segments are deleted), so
        a crash during compaction leaves either the old journal or the
        new one — never neither.
        """
        with self._lock:
            old = self.segments()
            fresh = self._segment_path(self._next_index())
            with open(fresh, "wb") as fh:
                for rec in live_records:
                    rec = dict(rec)
                    type_ = rec.pop("t")
                    rec.pop("seq", None)
                    if type_ not in RECORD_TYPES:
                        raise ValueError(
                            f"unknown journal record type {type_!r}")
                    self._seq += 1
                    fh.write(_frame(self._seq, {"t": type_, **rec}))
                fh.flush()
                os.fsync(fh.fileno())
                self.stats["fsyncs"] += 1
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            self._fh = open(fresh, "ab")
            try:
                self._size = fresh.stat().st_size
            except OSError:
                self._size = 0
            self._dirty = False
            for path in old:
                try:
                    path.unlink()
                except OSError:
                    pass
            self.stats["compactions"] += 1

    def stats_snapshot(self) -> dict:
        with self._lock:
            snapshot = dict(self.stats)
            snapshot["segments"] = len(self.segments())
            snapshot["sync"] = self.sync
        return snapshot


def fold_jobs(records) -> Dict[str, dict]:
    """Fold a record stream into per-job final states, oldest first.

    Returns ``{job_id: state}`` in submission order, where each state is
    ``{"job", "status", "key", "spec", "priority", "attempts", "error",
    "cached"}``.  ``status`` is ``submitted`` / ``leased`` or one of
    :data:`TERMINAL_STATES`; a record for a job with no surviving
    ``submitted`` record (corrupt/truncated) is dropped — the client
    never got a durable acknowledgement for work we cannot describe.
    """
    jobs: Dict[str, dict] = {}
    for rec in records:
        type_ = rec.get("t")
        job = rec.get("job")
        if type_ == "submitted":
            if job is None:
                continue
            cached = bool(rec.get("cached"))
            jobs[job] = {
                # A cache-served submission is born terminal: one
                # record covers its whole lifecycle.
                "job": job, "status": "done" if cached else "submitted",
                "key": rec.get("key"), "spec": rec.get("spec"),
                "priority": rec.get("priority", 100),
                "attempts": 0, "error": None,
                "cached": cached,
                "trace": rec.get("trace"), "ts": rec.get("ts"),
            }
        elif job in jobs:
            state = jobs[job]
            if state["status"] in TERMINAL_STATES:
                continue  # terminal states never regress
            if type_ == "leased":
                state["status"] = "leased"
                state["attempts"] = rec.get("attempt", state["attempts"] + 1)
            elif type_ == "done":
                state["status"] = "done"
                state["cached"] = bool(rec.get("cached", state["cached"]))
            elif type_ == "failed":
                state["status"] = "failed"
                state["error"] = rec.get("error")
            elif type_ == "dead_letter":
                state["status"] = "dead_letter"
                state["error"] = rec.get("error")
            # "heartbeat" renews a lease and "span" records telemetry;
            # neither changes replayed lifecycle state (spans are folded
            # separately by repro.obs.telemetry.fold_spans).
    return jobs
