"""Write-ahead log: the durability substrate under the columnar store.

Every mutation of a :class:`~repro.store.durable.DurableGraph` is
appended here — and fsynced — *before* it touches the in-memory index,
so a crash at any instant loses at most the writes that were
never acknowledged.  The log is a directory of numbered segment files::

    wal/seg-0000000000000001.wal
    wal/seg-0000000000000002.wal
    ...

Each segment starts with a fixed header (magic + format version) and is
a run of self-describing records::

    <u32 payload length> <u32 CRC32(payload)> <payload>
    payload = op byte (b"+" add / b"-" remove)
              + k x 3 x (u32 length + bytes)   # encoded S, P, O terms

A record holds up to :data:`BATCH_TRIPLES` triples of one write and
at most :data:`MAX_PAYLOAD` bytes (:meth:`WalWriter.append_batch`): one
frame and one CRC per batch instead of per triple.  Replay yields one
:class:`WalRecord` per triple.  Format version 1 held one triple per
record, which is the one-triple case of version 2, so replay reads both;
a writer never appends to a segment of another version.

Terms travel in the same tagged binary codec the snapshot format uses
(:func:`repro.store.snapshot.encode_term`), so a record is fully
self-contained: replay never depends on how a particular graph instance
happened to assign integer ids.

Crash anatomy and the replay contract:

* A kill mid-append can only tear the **final** segment (rotation seals
  the previous segment with an fsync before the next one exists).
  Replay detects the torn tail — a short length field, a length pointing
  past EOF, or a CRC mismatch — truncates the file back to the last
  whole record, and reports how many bytes it discarded.
* The same damage inside a *sealed* (non-final) segment cannot be crash
  debris, so it raises :class:`~repro.errors.WALError` instead of being
  silently dropped.
* Records are *absolute* set operations (ensure-present / ensure-absent),
  which makes replay idempotent: applying any ordered suffix of the log
  on top of a snapshot that already reflects a prefix of it converges to
  the same state.  Checkpointing exploits this — segments are only
  pruned once *every* retained snapshot generation covers them, so
  falling back to an older generation still replays to the exact
  acknowledged state.

``sync()`` is the acknowledgement point: :class:`WalWriter.append` only
buffers into the OS, and the durable graph calls ``sync()`` once per
public mutation call — one fsync amortized over an entire ``add_all``
batch (the "fsync-batched" policy the ingest-overhead benchmark gates).
"""

from __future__ import annotations

import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as _np

from ..errors import WALError

__all__ = [
    "WAL_MAGIC",
    "WalRecord",
    "WalReplayReport",
    "WalWriter",
    "encode_field",
    "replay_wal",
    "segment_name",
    "segment_path",
    "list_segments",
    "fsync_directory",
]

WAL_MAGIC = b"REPROWAL\x00"
WAL_VERSION = 2
#: Versions replay reads: version 1 is version 2 with one triple per record.
_READABLE_VERSIONS = (1, 2)

_SEG_HEADER = struct.Struct("<9sH")  # magic, version
_FRAME = struct.Struct("<II")  # payload length, CRC32(payload)
_U32 = struct.Struct("<I")

#: Rotate to a fresh segment once the current one crosses this size.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024

#: The largest record payload: a writer closes a record before it would
#: pass this, so a larger length field is corruption, not a record.
MAX_PAYLOAD = 64 * 1024 * 1024

#: Triples per record of a bulk write.
BATCH_TRIPLES = 1024

OP_ADD = b"+"
OP_REMOVE = b"-"
_OPS = (OP_ADD, OP_REMOVE)


def fsync_directory(path: str) -> None:
    """Flush directory metadata (creates/renames/unlinks) to disk.

    Best-effort: platforms that cannot fsync a directory fd (or sandboxed
    filesystems that reject it) degrade to a no-op rather than failing
    the write they were meant to harden.
    """
    try:
        fd = os.open(path or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def segment_name(seq: int) -> str:
    return f"seg-{seq:016d}.wal"


def segment_path(directory: str, seq: int) -> str:
    return os.path.join(directory, segment_name(seq))


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(seq, path)`` for every segment file, in ascending seq order."""
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith("seg-") and name.endswith(".wal"):
            middle = name[len("seg-"):-len(".wal")]
            if middle.isdigit():
                out.append((int(middle), os.path.join(directory, name)))
    out.sort()
    return out


@dataclass(frozen=True)
class WalRecord:
    """One replayed triple mutation: op + the three encoded terms."""

    op: bytes  # OP_ADD or OP_REMOVE
    s: bytes
    p: bytes
    o: bytes


def encode_field(term: bytes) -> bytes:
    """One encoded term as a record field: u32 length + bytes."""
    return _U32.pack(len(term)) + term


def _decode_payload(payload: bytes, where: str) -> list[WalRecord]:
    op = payload[:1]
    if op not in _OPS:
        raise WALError(f"{where}: unknown WAL op byte {op!r}")
    terms = []
    position = 1
    while position < len(payload) or not terms or len(terms) % 3:
        if position + 4 > len(payload):
            raise WALError(f"{where}: WAL record payload is short")
        (length,) = _U32.unpack_from(payload, position)
        position += 4
        if position + length > len(payload):
            raise WALError(f"{where}: WAL term runs past the record payload")
        terms.append(payload[position : position + length])
        position += length
    return [WalRecord(op, *terms[i : i + 3]) for i in range(0, len(terms), 3)]


def _segment_version(path: str, opener: Callable) -> int:
    """The format version in a segment's header."""
    with opener(path, "rb") as handle:
        return _SEG_HEADER.unpack(handle.read(_SEG_HEADER.size))[1]


@dataclass
class WalReplayReport:
    """What replay found: volume, and any torn tail it repaired."""

    segments: int = 0
    records: int = 0
    torn_bytes: int = 0  # crash debris truncated off the final segment
    repaired_path: str | None = None
    errors: list[str] = field(default_factory=list)


def _scan_segment(
    data: bytes, path: str, final: bool
) -> tuple[list[WalRecord], int]:
    """Decode one segment; returns (records, valid byte length).

    For the final segment, any malformed suffix is treated as a torn
    tail: scanning stops at the last whole record and the caller
    truncates the file there.  For sealed segments the same damage is a
    hard :class:`WALError`.
    """
    records: list[WalRecord] = []
    if len(data) < _SEG_HEADER.size:
        if final:
            return records, 0
        raise WALError(f"{path}: sealed WAL segment is missing its header")
    magic, version = _SEG_HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        if final:
            return records, 0
        raise WALError(f"{path}: not a WAL segment (bad magic)")
    if version not in _READABLE_VERSIONS:
        raise WALError(
            f"{path}: WAL format version {version}; this build reads {WAL_VERSION}"
        )
    position = _SEG_HEADER.size
    while position < len(data):
        start = position
        if position + _FRAME.size > len(data):
            break  # torn length/CRC frame
        length, crc = _FRAME.unpack_from(data, position)
        position += _FRAME.size
        if length > MAX_PAYLOAD or position + length > len(data):
            position = start
            break  # torn or insane payload
        payload = data[position : position + length]
        if zlib.crc32(payload) != crc:
            position = start
            break  # torn mid-payload (or flipped bits)
        records.extend(_decode_payload(payload, path))
        position += length
    if position < len(data) and not final:
        raise WALError(
            f"{path}: corrupt record at byte {position} inside a sealed segment"
        )
    return records, position


def replay_wal(
    directory: str,
    *,
    opener: Callable = open,
    repair: bool = True,
) -> tuple[Iterator[WalRecord], WalReplayReport]:
    """Read every record in seq order; repair the final segment's tail.

    Returns ``(records, report)`` where ``records`` is a fully-read list
    (replay volume is bounded by checkpoint pruning) and ``report``
    describes what was found.  With ``repair=True`` (the default) a torn
    final segment is truncated on disk back to its last whole record, so
    the writer can append cleanly after recovery.
    """
    report = WalReplayReport()
    segments = list_segments(directory)
    records: list[WalRecord] = []
    for index, (seq, path) in enumerate(segments):
        final = index == len(segments) - 1
        with opener(path, "rb") as handle:
            data = handle.read()
        segment_records, valid = _scan_segment(data, path, final)
        records.extend(segment_records)
        report.segments += 1
        report.records += len(segment_records)
        if valid < len(data):
            report.torn_bytes += len(data) - valid
            report.repaired_path = path
            if repair:
                with opener(path, "r+b") as handle:
                    handle.truncate(valid)
                    handle.flush()
                    os.fsync(handle.fileno())
    return records, report


class WalWriter:
    """Appends framed records to the current segment, rotating as needed.

    Single-writer by design (mirroring :class:`~repro.store.graph.Graph`
    itself); the owning durable graph serializes calls.  After any I/O
    failure the writer poisons itself: a half-written record must never
    get more bytes appended after it, so every later ``append``/``sync``
    raises :class:`WALError` until the store is reopened (which repairs
    the tail).
    """

    def __init__(
        self,
        directory: str,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
        opener: Callable = open,
    ):
        self._directory = directory
        self._segment_bytes = max(segment_bytes, _SEG_HEADER.size + 1)
        self._fsync = fsync
        self._opener = opener
        self._handle = None
        self._seq = 0
        self._position = 0
        self._poisoned: str | None = None
        self._closed = False
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        os.makedirs(directory, exist_ok=True)
        segments = list_segments(directory)
        if segments:
            seq, path = segments[-1]
            size = os.path.getsize(path)
            if size < _SEG_HEADER.size:
                # Crash debris from a rotation that never wrote a whole
                # header; reinitialize the segment in place.
                self._open_segment(seq, fresh=True)
            elif self._guard(lambda: _segment_version(path, opener)) != WAL_VERSION:
                self._open_segment(seq + 1, fresh=True)
            else:
                self._seq = seq
                self._handle = self._guard(lambda: opener(path, "ab"))
                self._position = size
        else:
            self._open_segment(1, fresh=True)

    # -- internals ----------------------------------------------------------

    def _guard(self, action):
        """Run an I/O action; poison the writer if it fails."""
        try:
            return action()
        except OSError as exc:
            self._poisoned = str(exc)
            raise WALError(f"write-ahead log I/O failed: {exc}") from exc

    def _check(self) -> None:
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._poisoned is not None:
            raise WALError(
                "write-ahead log is poisoned after an I/O failure "
                f"({self._poisoned}); reopen the store to recover"
            )

    def _open_segment(self, seq: int, fresh: bool) -> None:
        path = segment_path(self._directory, seq)

        def action():
            handle = self._opener(path, "wb" if fresh else "ab")
            handle.write(_SEG_HEADER.pack(WAL_MAGIC, WAL_VERSION))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
            return handle

        self._handle = self._guard(action)
        fsync_directory(self._directory)
        self._seq = seq
        self._position = _SEG_HEADER.size

    # -- the write path -----------------------------------------------------

    @property
    def current_seq(self) -> int:
        return self._seq

    @property
    def directory(self) -> str:
        return self._directory

    def append(self, op: bytes, s: bytes, p: bytes, o: bytes) -> None:
        """Buffer one record; durable only after the next :meth:`sync`."""
        self.append_batch(op, [encode_field(s), encode_field(p), encode_field(o)])

    def append_batch(self, op: bytes, fields: list[bytes]) -> None:
        """Buffer the triples of ``fields`` — three :func:`encode_field`
        fields per triple, flat — in records of at most
        :data:`BATCH_TRIPLES` triples and :data:`MAX_PAYLOAD` bytes,
        rotating before any record that finds the segment full; durable
        only after the next :meth:`sync`.  A triple too large for any
        record raises :class:`WALError` before anything is written.  A
        record is framed as length + CRC32 + payload (op byte, then the
        fields)."""
        self._check()
        sizes = _np.fromiter(map(len, fields), dtype=_np.int64, count=len(fields))
        triple_sizes = sizes.reshape(-1, 3).sum(axis=1)
        if len(triple_sizes) and triple_sizes.max() >= MAX_PAYLOAD:
            raise WALError(
                f"a triple of {int(triple_sizes.max())} encoded bytes does not "
                f"fit a WAL record of at most {MAX_PAYLOAD} bytes")
        # ends[i]: field bytes of triples 0..i; a record's payload is its
        # triples' field bytes plus the op byte.
        ends = _np.cumsum(triple_sizes).tolist()
        start = 0
        try:
            while start < len(ends):
                base = ends[start - 1] if start else 0
                stop = min(start + BATCH_TRIPLES,
                           bisect_right(ends, base + MAX_PAYLOAD - 1, start))
                if self._position >= self._segment_bytes:
                    self.rotate()
                payload = op + b"".join(fields[3 * start : 3 * stop])
                frame = _FRAME.pack(len(payload), zlib.crc32(payload))
                self._handle.write(frame)
                self._handle.write(payload)
                self._position += len(frame) + len(payload)
                self.records_appended += stop - start
                self.bytes_appended += len(frame) + len(payload)
                start = stop
        except OSError as exc:  # poison, as _guard does
            self._poisoned = str(exc)
            raise WALError(f"write-ahead log I/O failed: {exc}") from exc

    def sync(self) -> None:
        """Flush buffered records to the OS and (by default) to disk.

        This is the acknowledgement barrier: once it returns, every
        record appended before it survives any crash.
        """
        self._check()

        def action():
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

        self._guard(action)
        self.syncs += 1

    def rotate(self) -> int:
        """Seal the current segment and start the next; returns its seq.

        The seal is an fsync, so after rotation the previous segment can
        never be torn — the invariant sealed-segment replay relies on.
        """
        self._check()
        self.sync()
        self._guard(self._handle.close)
        self._open_segment(self._seq + 1, fresh=True)
        return self._seq

    def prune_before(self, seq: int) -> int:
        """Delete sealed segments with seq < ``seq``; returns how many.

        Deletes oldest-first so a crash mid-prune always leaves a
        contiguous suffix of the log on disk.
        """
        removed = 0
        for segment_seq, path in list_segments(self._directory):
            if segment_seq >= seq or segment_seq == self._seq:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                break  # keep the suffix contiguous
        if removed:
            fsync_directory(self._directory)
        return removed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._handle is not None and self._poisoned is None:
            try:
                self._handle.flush()
                if self._fsync:
                    os.fsync(self._handle.fileno())
            except OSError:
                pass
            try:
                self._handle.close()
            except OSError:
                pass

    def __repr__(self) -> str:
        return (
            f"<WalWriter seg {self._seq} @{self._position}B, "
            f"{self.records_appended} records, {self.syncs} syncs>"
        )
