"""Structure-of-arrays trace representation and binary codec.

The interpreted engine consumes traces as lists of
:class:`~repro.isa.instruction.DynInst` objects.  That shape is friendly to
the timing models but expensive to ship: pickling object graphs costs both
time and space, and every pool worker / cluster node pays the object churn
again on load.

:class:`TraceArrays` holds the same dynamic trace as parallel typed columns
(``array`` module arrays — one Python object per *column*, not per
instruction):

========  ========  ===============================================
column    typecode  meaning
========  ========  ===============================================
pc        q         static instruction address
op        B         :class:`~repro.isa.opcodes.OpClass` value
dst       h         destination arch register, ``-1`` for none
nsrc      B         number of source registers (0..2 inline)
src0      h         first source register, ``-1`` when absent
src1      h         second source register, ``-1`` when absent
mem_addr  q         effective address, ``-1`` for non-memory ops
mem_size  h         access width in bytes (0 for non-memory ops)
taken     B         branch outcome (0/1)
target    q         taken-branch target, ``-1`` for none
========  ========  ===============================================

Instructions with more than two sources (none are emitted by the synthetic
generator today, but the codec must not silently corrupt them) spill into a
ragged ``extra_srcs`` side table keyed by trace index.

The binary codec (`encode` / `decode`) wraps the columns in a versioned
container::

    magic "RTRC" | u16 version | u32 header_len | header JSON | payload

where the header records the column layout, byte order, instruction count
and the sha256 of the payload, and the payload is the raw little-endian
column bytes back to back.  ``decode`` verifies length, layout, and digest
before returning, so a truncated or bit-flipped entry is always rejected
with :class:`TraceCodecError` rather than yielding a wrong trace.

Materialisation back to ``DynInst`` objects happens once, lazily, via
:meth:`TraceArrays.materialize` (columns converted from an object trace
keep that trace as their materialised view); runs share the resulting
list exactly as they share generator-produced traces today.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import DynInst
from repro.isa.opcodes import LATENCY, OpClass

#: Derived per-op classification used by the vector-tier kernels:
#: 0 = non-memory non-branch, 1 = load, 2 = store, 3 = branch/jump.
KIND_OTHER, KIND_LOAD, KIND_STORE, KIND_BRANCH = 0, 1, 2, 3
KIND_OF = tuple(
    KIND_LOAD if OpClass(v).is_load else
    KIND_STORE if OpClass(v).is_store else
    KIND_BRANCH if OpClass(v).is_branch else KIND_OTHER
    for v in range(len(OpClass)))
LAT_OF = tuple(LATENCY[OpClass(v)] for v in range(len(OpClass)))

#: Container magic + format version.  Bump the version whenever the column
#: set or header schema changes; ``decode`` rejects unknown versions.
MAGIC = b"RTRC"
CODEC_VERSION = 1

#: Column layout, in payload order.  (name, array typecode)
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pc", "q"),
    ("op", "B"),
    ("dst", "h"),
    ("nsrc", "B"),
    ("src0", "h"),
    ("src1", "h"),
    ("mem_addr", "q"),
    ("mem_size", "h"),
    ("taken", "B"),
    ("target", "q"),
)

_NONE = -1


class TraceCodecError(ValueError):
    """Raised when a binary trace container fails validation."""


class TraceArrays:
    """One dynamic trace as parallel typed columns."""

    __slots__ = tuple(name for name, _ in _COLUMNS) + (
        "extra_srcs", "_materialized", "_derived")

    def __init__(self) -> None:
        for name, typecode in _COLUMNS:
            setattr(self, name, array(typecode))
        # Ragged overflow for instructions with >2 sources: index -> tuple.
        self.extra_srcs: Dict[int, Tuple[int, ...]] = {}
        self._materialized: Optional[List[DynInst]] = None
        self._derived = None

    def __len__(self) -> int:
        return len(self.pc)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_instructions(cls, trace: Sequence[DynInst]) -> "TraceArrays":
        """Convert an object trace into columns (one pass, no mutation).

        The source list becomes the materialised view, so runs given the
        columns keep working on the caller's own ``DynInst`` objects."""
        self = cls()
        pc = self.pc
        op = self.op
        dst = self.dst
        nsrc = self.nsrc
        src0 = self.src0
        src1 = self.src1
        mem_addr = self.mem_addr
        mem_size = self.mem_size
        taken = self.taken
        target = self.target
        extra = self.extra_srcs
        for idx, inst in enumerate(trace):
            pc.append(inst.pc)
            op.append(int(inst.op))
            dst.append(_NONE if inst.dst is None else inst.dst)
            srcs = inst.srcs
            n = len(srcs)
            nsrc.append(min(n, 2))
            src0.append(srcs[0] if n > 0 else _NONE)
            src1.append(srcs[1] if n > 1 else _NONE)
            if n > 2:
                extra[idx] = tuple(srcs[2:])
            mem_addr.append(_NONE if inst.mem_addr is None else inst.mem_addr)
            mem_size.append(inst.mem_size if inst.mem_addr is not None else 0)
            taken.append(1 if inst.taken else 0)
            target.append(_NONE if inst.target is None else inst.target)
        self._materialized = (trace if isinstance(trace, list)
                              else list(trace))
        return self

    def hot_columns(self) -> Tuple[array, array, array]:
        """Derived ``(kind, latency, line)`` columns for the kernel tier.

        Computed once per trace and never serialised — they are pure
        functions of the ``op`` and ``pc`` columns.
        """
        derived = self._derived
        if derived is None:
            kind_of = KIND_OF
            lat_of = LAT_OF
            derived = (array("B", bytes(kind_of[v] for v in self.op)),
                       array("B", bytes(lat_of[v] for v in self.op)),
                       array("q", [pc >> 6 for pc in self.pc]))
            self._derived = derived
        return derived

    # -- materialisation ----------------------------------------------------

    def materialize(self) -> List[DynInst]:
        """Expand back to ``DynInst`` objects (cached after the first call).

        The result is bit-identical to the object stream the columns were
        built from: ``None`` sentinels are restored, source tuples keep
        their original arity, and ``mem_size`` reverts to the constructor
        default for non-memory ops so round-trip equality holds field by
        field.
        """
        if self._materialized is not None:
            return self._materialized
        out: List[DynInst] = []
        extra = self.extra_srcs
        op_of = [OpClass(v) for v in range(len(OpClass))]
        for idx in range(len(self.pc)):
            n = self.nsrc[idx]
            if n == 0:
                srcs: Tuple[int, ...] = ()
            elif n == 1:
                srcs = (self.src0[idx],)
            else:
                srcs = (self.src0[idx], self.src1[idx])
                if idx in extra:
                    srcs += extra[idx]
            dst = self.dst[idx]
            mem_addr = self.mem_addr[idx]
            target = self.target[idx]
            inst = DynInst(
                pc=self.pc[idx],
                op=op_of[self.op[idx]],
                srcs=srcs,
                dst=None if dst == _NONE else dst,
                mem_addr=None if mem_addr == _NONE else mem_addr,
                mem_size=self.mem_size[idx] if mem_addr != _NONE else 8,
                taken=bool(self.taken[idx]),
                target=None if target == _NONE else target,
            )
            out.append(inst)
        self._materialized = out
        return out

    # -- binary codec --------------------------------------------------------

    def encode(self, key: str = "") -> bytes:
        """Serialise to the versioned binary container.

        ``key`` (the TraceStore content key) is embedded in the header so a
        store entry renamed onto the wrong key fails verification, matching
        the ``verify_envelope`` contract of the result store.
        """
        columns = []
        payload_parts = []
        for name, typecode in _COLUMNS:
            col: array = getattr(self, name)
            if sys.byteorder != "little":  # pragma: no cover - x86/arm LE
                col = array(typecode, col)
                col.byteswap()
            raw = col.tobytes()
            columns.append({"name": name, "typecode": typecode,
                            "count": len(col), "nbytes": len(raw)})
            payload_parts.append(raw)
        payload = b"".join(payload_parts)
        header = {
            "version": CODEC_VERSION,
            "key": key,
            "n": len(self),
            "byteorder": "little",
            "columns": columns,
            "extra_srcs": {str(i): list(v)
                           for i, v in sorted(self.extra_srcs.items())},
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        header_bytes = json.dumps(header, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8")
        return b"".join((
            MAGIC,
            CODEC_VERSION.to_bytes(2, "little"),
            len(header_bytes).to_bytes(4, "little"),
            header_bytes,
            payload,
        ))

    @classmethod
    def decode(cls, raw: bytes, key: Optional[str] = None) -> "TraceArrays":
        """Parse and verify a binary container.

        Raises :class:`TraceCodecError` on any malformed input: bad magic,
        unknown version, truncated header or payload, digest mismatch, or a
        key that does not match ``key`` (when given).  Never raises anything
        else for hostile bytes.
        """
        if len(raw) < 10:
            raise TraceCodecError("container shorter than fixed header")
        if raw[:4] != MAGIC:
            raise TraceCodecError("bad magic (not a binary trace container)")
        version = int.from_bytes(raw[4:6], "little")
        if version != CODEC_VERSION:
            raise TraceCodecError(f"unsupported codec version {version}")
        header_len = int.from_bytes(raw[6:10], "little")
        if len(raw) < 10 + header_len:
            raise TraceCodecError("truncated header")
        try:
            header = json.loads(raw[10:10 + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceCodecError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise TraceCodecError("header is not an object")
        payload = raw[10 + header_len:]
        expected = header.get("sha256")
        if not isinstance(expected, str):
            raise TraceCodecError("header missing payload digest")
        actual = hashlib.sha256(payload).hexdigest()
        if actual != expected:
            raise TraceCodecError(
                f"payload digest mismatch (have {actual[:12]}.., "
                f"header says {expected[:12]}..)")
        if key is not None and header.get("key") not in ("", key):
            raise TraceCodecError(
                f"container key {header.get('key')!r} does not match {key!r}")
        columns = header.get("columns")
        if (not isinstance(columns, list)
                or [(c.get("name"), c.get("typecode")) for c in columns
                    if isinstance(c, dict)] != list(_COLUMNS)):
            raise TraceCodecError("unexpected column layout")
        n = header.get("n")
        self = cls()
        offset = 0
        for spec in columns:
            name = spec["name"]
            typecode = spec["typecode"]
            nbytes = spec.get("nbytes")
            count = spec.get("count")
            if not isinstance(nbytes, int) or not isinstance(count, int):
                raise TraceCodecError(f"column {name}: malformed sizes")
            if count != n:
                raise TraceCodecError(
                    f"column {name}: count {count} != trace length {n}")
            chunk = payload[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise TraceCodecError(f"column {name}: truncated payload")
            col = array(typecode)
            try:
                col.frombytes(chunk)
            except ValueError as exc:
                raise TraceCodecError(f"column {name}: {exc}") from exc
            if sys.byteorder != "little":  # pragma: no cover - LE hosts
                col.byteswap()
            if len(col) != count:
                raise TraceCodecError(f"column {name}: item count mismatch")
            setattr(self, name, col)
            offset += nbytes
        if offset != len(payload):
            raise TraceCodecError(
                f"{len(payload) - offset} trailing payload bytes")
        extra = header.get("extra_srcs", {})
        if not isinstance(extra, dict):
            raise TraceCodecError("malformed extra_srcs table")
        try:
            self.extra_srcs = {int(i): tuple(int(r) for r in v)
                               for i, v in extra.items()}
        except (TypeError, ValueError) as exc:
            raise TraceCodecError(f"malformed extra_srcs table: {exc}") from exc
        ops = self.op
        n_ops = len(OpClass)
        for idx in range(len(ops)):
            if ops[idx] >= n_ops:
                raise TraceCodecError(
                    f"instruction {idx}: opcode {ops[idx]} out of range")
        return self


def encode_trace(trace: Sequence[DynInst], key: str = "") -> bytes:
    """One-shot: object stream -> binary container."""
    if isinstance(trace, TraceArrays):
        return trace.encode(key)
    return TraceArrays.from_instructions(trace).encode(key)


def decode_trace(raw: bytes, key: Optional[str] = None) -> List[DynInst]:
    """One-shot: binary container -> object stream (validated)."""
    return TraceArrays.decode(raw, key).materialize()
