"""Versioned, checksummed on-disk checkpoint container.

One checkpoint is a single file with three sections::

    <header JSON>\\n
    <state JSON bytes>
    <NPZ bytes>

The one-line header carries a magic string, the format version, the
checkpoint ``kind`` (``"swat"``, ``"asr-site"``, ...), caller metadata, and
the byte length plus SHA-256 digest of each following section.  The state
section is the checkpointed object's ``to_state()`` dict with every
``np.ndarray`` *lifted out* and replaced by a ``{"__array__": name}``
marker; the arrays themselves live in the trailing NPZ blob, so coefficient
vectors and prefix rings are stored in their exact binary form (bit-identical
restore) while everything else stays greppable JSON.

Durability discipline:

* **Atomic writes** — the file is serialized to ``<path>.tmp`` in the same
  directory, flushed and fsynced, then moved over ``path`` with
  :func:`os.replace`; a reader never observes a half-written checkpoint
  through the final name.
* **Fail-closed loads** — :func:`load_checkpoint` re-hashes both sections and
  verifies magic, version, kind, and lengths before deserializing anything;
  any mismatch (torn tail, flipped bit, truncated header) raises
  :exc:`CheckpointCorruptError` so recovery can fall back to a cold resync
  instead of trusting garbage.
* **Strict JSON** — both JSON sections are encoded with ``allow_nan=False``;
  a non-finite float fails the write loudly rather than emitting the
  non-standard ``NaN``/``Infinity`` tokens.

Torn-write injection: a :class:`~repro.network.faults.FaultPlan` with
``torn_write_rate > 0`` can be passed to :func:`write_checkpoint`; when the
keyed roll fires, the file is deliberately truncated at a rolled fraction of
its length *after* the atomic rename — modelling a filesystem that lied
about durability (power loss after rename, lost sectors).  This is what
exercises the checksum-rejection path end to end.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..network.faults import FaultPlan
from ..obs import metrics as obs
from ..obs.causal import block_finish, block_start

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointCorruptError",
    "lift_arrays",
    "plant_arrays",
    "write_checkpoint",
    "load_checkpoint",
    "pack_swat_state",
]

#: First token of every checkpoint header; a file that does not start with
#: it is not a checkpoint at all.
MAGIC = "repro-checkpoint"

#: On-disk format version; bumped on incompatible layout changes so old
#: readers fail closed instead of misparsing.
FORMAT_VERSION = 1

#: Marker key used by the array-lifting walk.  State dicts must not use it
#: as an ordinary key (none of the library's ``to_state`` payloads do).
_ARRAY_KEY = "__array__"

#: Byte-size histogram buckets for ``checkpoint.write.bytes``.
SIZE_BUCKETS: Tuple[float, ...] = (
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
    1048576,
    4194304,
)

#: Purpose codes appended to the caller's torn-write key so the decision
#: and truncation-fraction draws are independent.
_ROLL_TORN = 0
_ROLL_TORN_FRACTION = 1


class CheckpointCorruptError(ValueError):
    """The checkpoint file failed validation (checksum, magic, structure).

    Recovery code treats this exactly like a missing checkpoint: fall back
    to the legacy cold-resync path.  It is a :exc:`ValueError` subclass so
    callers that only know "the state was bad" keep working.
    """


# --------------------------------------------------------------- array lift


def lift_arrays(state: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Replace every ``np.ndarray`` in ``state`` with a JSON-safe marker.

    Returns the rewritten structure and a ``name -> array`` mapping destined
    for the NPZ section.  The walk preserves dict insertion order (checkpoint
    bytes are deterministic for deterministic state dicts).
    """
    arrays: Dict[str, np.ndarray] = {}

    def walk(obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            name = f"a{len(arrays)}"
            arrays[name] = obj
            return {_ARRAY_KEY: name}
        if isinstance(obj, dict):
            if _ARRAY_KEY in obj:
                raise ValueError(
                    f"state dicts must not use the reserved key {_ARRAY_KEY!r}"
                )
            return {key: walk(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(value) for value in obj]
        return obj

    return walk(state), arrays


def plant_arrays(state: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Inverse of :func:`lift_arrays`: resolve markers back to arrays."""

    def walk(obj: Any) -> Any:
        if isinstance(obj, dict):
            if set(obj) == {_ARRAY_KEY}:
                name = obj[_ARRAY_KEY]
                if name not in arrays:
                    raise CheckpointCorruptError(
                        f"state references missing array {name!r}"
                    )
                return arrays[name]
            return {key: walk(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [walk(value) for value in obj]
        return obj

    return walk(state)


def pack_swat_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a ``Swat.to_state()`` dict's numeric lists to ndarrays.

    ``Swat.to_state`` emits plain JSON lists; checkpoints store coefficient
    vectors and the raw ring buffer in the NPZ section instead.
    ``Swat.from_state`` accepts arrays wherever it accepts lists, so the
    packed dict restores without an unpacking step.
    """
    packed = dict(state)
    packed["buffer"] = np.asarray(state["buffer"], dtype=np.float64)
    nodes = []
    for entry in state["nodes"]:
        node = dict(entry)
        node["coeffs"] = np.asarray(entry["coeffs"], dtype=np.float64)
        nodes.append(node)
    packed["nodes"] = nodes
    return packed


# -------------------------------------------------------------------- write


def _encode(kind: str, state: Any, meta: Optional[Mapping[str, Any]]) -> bytes:
    lifted, arrays = lift_arrays(state)
    state_bytes = json.dumps(lifted, allow_nan=False).encode("utf-8")
    npz_bytes = b""
    if arrays:
        blob = io.BytesIO()
        np.savez(blob, **arrays)
        npz_bytes = blob.getvalue()
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": kind,
        "meta": dict(meta) if meta else {},
        "state_bytes": len(state_bytes),
        "state_sha256": hashlib.sha256(state_bytes).hexdigest(),
        "npz_bytes": len(npz_bytes),
        "npz_sha256": hashlib.sha256(npz_bytes).hexdigest(),
    }
    header_bytes = json.dumps(header, allow_nan=False).encode("utf-8")
    if b"\n" in header_bytes:  # pragma: no cover - json never emits newlines
        raise ValueError("checkpoint header must be a single line")
    return header_bytes + b"\n" + state_bytes + npz_bytes


def write_checkpoint(
    path: str,
    kind: str,
    state: Any,
    meta: Optional[Mapping[str, Any]] = None,
    *,
    faults: Optional[FaultPlan] = None,
    torn_key: Optional[Tuple[int, ...]] = None,
) -> int:
    """Atomically write one checkpoint file; returns the bytes written.

    ``faults``/``torn_key`` opt into seeded torn-write injection (see the
    module docstring); a torn write leaves a truncated file behind and bumps
    ``checkpoint.torn_writes`` so tests can assert the injection fired.
    """
    _t0 = block_start(None)  # no tracer: set exactly when metrics are on
    data = _encode(kind, state, meta)
    torn = False
    if faults is not None and faults.roll_torn_write(
        None if torn_key is None else torn_key + (_ROLL_TORN,)
    ):
        torn = True
        fraction = faults.roll_torn_fraction(
            None if torn_key is None else torn_key + (_ROLL_TORN_FRACTION,)
        )
        data = data[: int(len(data) * fraction)]
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    if _t0 is not None:
        obs.counter("checkpoint.writes", kind=kind).inc()
        obs.histogram("checkpoint.write.bytes", buckets=SIZE_BUCKETS).observe(
            len(data)
        )
        if torn:
            obs.counter("checkpoint.torn_writes", kind=kind).inc()
        block_finish(_t0, "checkpoint.write.latency", None, None)
    return len(data)


# --------------------------------------------------------------------- load


def _corrupt(path: str, detail: str) -> CheckpointCorruptError:
    if obs.ENABLED:
        obs.counter("checkpoint.load.corrupt").inc()
    return CheckpointCorruptError(f"corrupt checkpoint {path}: {detail}")


def load_checkpoint(
    path: str, kind: Optional[str] = None
) -> Tuple[Any, Dict[str, Any]]:
    """Load and fully validate one checkpoint; returns ``(state, meta)``.

    Raises :exc:`CheckpointCorruptError` on any structural or checksum
    failure (bumping the ``checkpoint.load.corrupt`` counter), and plain
    :exc:`FileNotFoundError` when the file does not exist — the two cases
    deserve different log lines even though recovery treats them alike.
    """
    _t0 = block_start(None)  # no tracer: set exactly when metrics are on
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise _corrupt(path, "missing header line")
    try:
        header = json.loads(raw[:newline])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _corrupt(path, f"unparseable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise _corrupt(path, "bad magic")
    if header.get("version") != FORMAT_VERSION:
        raise _corrupt(path, f"unsupported format version {header.get('version')!r}")
    if kind is not None and header.get("kind") != kind:
        raise _corrupt(
            path, f"kind {header.get('kind')!r} does not match expected {kind!r}"
        )
    try:
        state_len = int(header["state_bytes"])
        npz_len = int(header["npz_bytes"])
        state_digest = str(header["state_sha256"])
        npz_digest = str(header["npz_sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _corrupt(path, f"malformed header: {exc}") from exc
    body = raw[newline + 1 :]
    if len(body) != state_len + npz_len:
        raise _corrupt(
            path,
            f"body holds {len(body)} bytes, header promises "
            f"{state_len + npz_len} (torn write?)",
        )
    state_bytes = body[:state_len]
    npz_bytes = body[state_len:]
    if hashlib.sha256(state_bytes).hexdigest() != state_digest:
        raise _corrupt(path, "state section fails its checksum")
    if hashlib.sha256(npz_bytes).hexdigest() != npz_digest:
        raise _corrupt(path, "array section fails its checksum")
    try:
        lifted = json.loads(state_bytes)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # A checksum-valid but unparseable state section means the writer
        # was broken, not the disk; still refuse to restore from it.
        raise _corrupt(path, f"unparseable state section: {exc}") from exc
    arrays: Dict[str, np.ndarray] = {}
    if npz_bytes:
        try:
            with np.load(io.BytesIO(npz_bytes), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except (ValueError, OSError, KeyError) as exc:
            raise _corrupt(path, f"unparseable array section: {exc}") from exc
    state = plant_arrays(lifted, arrays)
    if _t0 is not None:
        obs.counter("checkpoint.loads", kind=str(header.get("kind"))).inc()
        block_finish(_t0, "checkpoint.load.latency", None, None)
    meta = header.get("meta")
    return state, dict(meta) if isinstance(meta, dict) else {}
