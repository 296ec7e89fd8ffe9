"""Persistent graph snapshots: mmap-loadable columnar dumps.

A snapshot file is a versioned binary dump of one graph's columnar state:

* a fixed header (magic, version, epoch, triple/term counts),
* a section table of ``(offset, length)`` pairs,
* the nine raw little-endian int64 column blocks (SPO/POS/OSP runs),
* the three CSR first-key offset arrays belonging to those runs,
* the term-dictionary segment: an offsets array, a byte-order permutation
  (term ids sorted by their encoded bytes, for binary-search lookup), and
  the concatenated term blob,
* a small JSON predicate-statistics table.

``load_snapshot`` maps the file with :mod:`mmap` and builds the index
directly over memoryview slices of the mapping — no column is copied and
no term is decoded, so bootstrap cost is O(file open) regardless of graph
size (the page cache faults data in as queries touch it).  Loading the
same file from several threads or processes shares the underlying pages
read-only.

Terms are serialized in a tagged binary format (not N-Triples) so that
round-tripping is exact: ``Literal("x", datatype=xsd:string)`` and the
plain ``Literal("x")`` are distinct terms and must stay distinct.

Epoch semantics: the writer's epoch is stored in the header and becomes
the loaded graph's starting epoch, so cache keys derived from
``(uid, epoch)`` stay meaningful across the dump — a writable loaded
graph bumps it on mutation as usual, while a read-only
:class:`SnapshotView` can never change it.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import IO, Callable, Iterator

from ..errors import ReadOnlySnapshotError, SnapshotError
from ..rdf.terms import BNode, IRI, Literal, Node
from .columnar import Run, build_run_from_columns
from .graph import Graph
from .index import DEFAULT_FLUSH_THRESHOLD, NumericMemo, TripleIndex
from .wal import fsync_directory

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "verify_snapshot",
    "SnapshotView",
    "SnapshotTermDictionary",
    "SECTION_NAMES",
]

MAGIC = b"REPROSNAP\x00"
#: Version 2 added per-section CRC32s and the header/table checksum —
#: the crash-safety layer; version-1 files predate integrity checking
#: and are not read by this build.
VERSION = 2

#: Section order in the file.  0-8: run columns (SPO a,b,c / POS / OSP);
#: 9-11: CSR offset arrays; 12: term offsets; 13: term sort order;
#: 14: term blob; 15: predicate stats JSON.
_N_SECTIONS = 16
SECTION_NAMES = (
    "spo.a", "spo.b", "spo.c",
    "pos.a", "pos.b", "pos.c",
    "osp.a", "osp.b", "osp.c",
    "spo.starts", "pos.starts", "osp.starts",
    "term.offsets", "term.order", "term.blob",
    "stats",
)
_HEADER = struct.Struct("<10sHIQQQ")  # magic, version, flags, epoch, triples, terms
_SECTION = struct.Struct("<QQQ")  # offset, length, CRC32 of the section bytes
_U32 = struct.Struct("<I")

_FLAG_NONE = 0


# --------------------------------------------------------------------------
# Term codec: tag byte + (length-prefixed annex for literals) + UTF-8 body.
# Byte equality === term equality, which is all the binary-search lookup
# needs; the sort order of the encoded bytes is arbitrary but consistent.
# --------------------------------------------------------------------------


def encode_term(term: Node) -> bytes:
    if isinstance(term, IRI):
        return b"I" + term.value.encode("utf-8")
    if isinstance(term, BNode):
        return b"B" + term.label.encode("utf-8")
    if isinstance(term, Literal):
        if term.language is not None:
            annex = term.language.encode("utf-8")
            return b"L\x01" + _U32.pack(len(annex)) + annex + term.lexical.encode("utf-8")
        if term.datatype is not None:
            annex = term.datatype.value.encode("utf-8")
            return b"L\x02" + _U32.pack(len(annex)) + annex + term.lexical.encode("utf-8")
        return b"L\x00" + term.lexical.encode("utf-8")
    raise SnapshotError(f"cannot serialize term of type {type(term).__name__}")


def decode_term(data: bytes) -> Node:
    tag = data[:1]
    if tag == b"I":
        return IRI(data[1:].decode("utf-8"))
    if tag == b"B":
        return BNode(data[1:].decode("utf-8"))
    if tag == b"L":
        kind = data[1]
        if kind == 0:
            return Literal(data[2:].decode("utf-8"))
        (annex_len,) = _U32.unpack_from(data, 2)
        annex = data[6 : 6 + annex_len].decode("utf-8")
        lexical = data[6 + annex_len :].decode("utf-8")
        if kind == 1:
            return Literal(lexical, language=annex)
        if kind == 2:
            return Literal(lexical, datatype=IRI(annex))
    raise SnapshotError(f"unknown term tag {data[:2]!r} in snapshot")


class SnapshotTermDictionary(NumericMemo):
    """A term dictionary decoding lazily from a snapshot's term segment.

    Implements the :class:`~repro.store.index.TermDictionary` API.  Ids
    below the snapshot's term count resolve against the mmap'd blob:
    ``decode`` parses a term the first time that id is touched (memoized),
    and ``lookup`` binary-searches the byte-sorted order without
    materializing any :class:`Node`.  Terms encoded *after* load live in
    a small overlay, so a loaded graph stays writable.
    """

    __slots__ = ("_offsets", "_order", "_blob", "_base",
                 "_cache", "_extra_ids", "_extra_terms", "_numbers")

    def __init__(self, offsets, order, blob) -> None:
        self._offsets = offsets  # int64 view, base+1 entries into blob
        self._order = order      # int64 view: term ids sorted by bytes
        self._blob = blob        # bytes-like view of concatenated terms
        self._base = len(order)
        self._cache: dict[int, Node] = {}
        self._extra_ids: dict[Node, int] = {}
        self._extra_terms: list[Node] = []
        self._numbers: dict[int, object] = {}

    def __len__(self) -> int:
        return self._base + len(self._extra_terms)

    def _term_bytes(self, term_id: int) -> bytes:
        offsets = self._offsets
        return bytes(self._blob[offsets[term_id] : offsets[term_id + 1]])

    def decode(self, term_id: int) -> Node:
        if term_id >= self._base:
            return self._extra_terms[term_id - self._base]
        term = self._cache.get(term_id)
        if term is None:
            term = decode_term(self._term_bytes(term_id))
            self._cache[term_id] = term
        return term

    def lookup(self, term: Node) -> int | None:
        existing = self._extra_ids.get(term)
        if existing is not None:
            return existing
        key = encode_term(term)
        order = self._order
        lo, hi = 0, self._base
        while lo < hi:
            mid = (lo + hi) // 2
            tid = order[mid]
            candidate = self._term_bytes(tid)
            if candidate < key:
                lo = mid + 1
            elif candidate > key:
                hi = mid
            else:
                return tid
        return None

    def encode(self, term: Node) -> int:
        """Return the id for ``term``, assigning an overlay id if unseen."""
        term_id = self.lookup(term)
        if term_id is None:
            term_id = self._base + len(self._extra_terms)
            self._extra_terms.append(term)
            self._extra_ids[term] = term_id
        return term_id

    def terms(self) -> Iterator[Node]:
        """All terms in id order (materializes lazily as it goes)."""
        for term_id in range(len(self)):
            yield self.decode(term_id)

    @property
    def materialized_terms(self) -> int:
        """How many ids currently have a live :class:`Node` object."""
        return len(self._cache) + len(self._extra_terms)


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------


def _graph_runs(graph: Graph) -> tuple[tuple[Run, Run, Run], list[tuple[int, int, int, int]]]:
    """The three sorted runs + catalog rows, after folding level 0."""
    index = graph.triple_index
    index.flush()
    return index.runs, list(index.predicate_stat_rows())


def _column_bytes(view) -> bytes:
    """Raw little-endian bytes of an int64 memoryview."""
    if sys.byteorder == "little":
        return bytes(view)
    swapped = array("q", view)
    swapped.byteswap()  # pragma: no cover - big-endian hosts only
    return swapped.tobytes()  # pragma: no cover


def save_snapshot(graph: Graph, path: str, *, opener: Callable = open) -> int:
    """Write ``graph`` to ``path`` atomically; returns the size in bytes.

    The graph's level 0 and tombstones are folded first, so the file holds exactly
    the three sorted runs.

    Crash safety: the bytes go to ``path + ".tmp"`` first, are fsynced,
    and only then renamed over ``path`` (followed by a directory fsync so
    the rename itself is durable).  A crash at any point leaves either
    the previous file untouched or the complete new one — never a
    half-written snapshot under the real name.  Every section carries a
    CRC32 in the section table, verified again at load time.

    ``opener`` exists for the crash-recovery harness: the resilience
    layer's disk-fault shim substitutes a file object that fails or
    "crashes" at a scheduled byte, proving the atomicity claim.
    """
    runs, stat_rows = _graph_runs(graph)
    terms = graph.term_dictionary
    n_terms = len(terms)

    encoded = [encode_term(term) for term in terms.terms()]
    offsets = array("q", bytes(8 * (n_terms + 1)))
    position = 0
    for i, blob in enumerate(encoded):
        offsets[i] = position
        position += len(blob)
    offsets[n_terms] = position
    order = array("q", sorted(range(n_terms), key=encoded.__getitem__))

    sections: list[bytes] = []
    for run in runs:
        sections.extend(
            (_column_bytes(run.a), _column_bytes(run.b), _column_bytes(run.c))
        )
    for run in runs:
        sections.append(_column_bytes(run.starts))
    sections.append(_column_bytes(memoryview(offsets)))
    sections.append(_column_bytes(memoryview(order)))
    sections.append(b"".join(encoded))
    sections.append(json.dumps({"predicates": stat_rows}).encode("utf-8"))

    header = _HEADER.pack(MAGIC, VERSION, _FLAG_NONE, graph.epoch, len(graph), n_terms)
    table_size = _N_SECTIONS * _SECTION.size
    preamble_size = len(header) + table_size + _U32.size  # + header/table CRC
    cursor = preamble_size
    table = bytearray()
    starts = []
    for section in sections:
        cursor += (-cursor) % 8  # 8-byte alignment for zero-copy casts
        starts.append(cursor)
        table += _SECTION.pack(cursor, len(section), zlib.crc32(section))
        cursor += len(section)
    head_crc = _U32.pack(zlib.crc32(bytes(table), zlib.crc32(header)))

    temp = path + ".tmp"
    out = opener(temp, "wb")
    try:
        out.write(header)
        out.write(table)
        out.write(head_crc)
        position = preamble_size
        for start, section in zip(starts, sections):
            out.write(b"\x00" * (start - position))
            out.write(section)
            position = start + len(section)
        size = out.tell()
        out.flush()
        os.fsync(out.fileno())
    except OSError as exc:
        try:
            out.close()
        except OSError:
            pass
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    else:
        out.close()
    os.replace(temp, path)
    fsync_directory(os.path.dirname(path))
    return size


# --------------------------------------------------------------------------
# Loading
# --------------------------------------------------------------------------


def _int64_view(buffer: memoryview, offset: int, length: int):
    """A zero-copy int64 view of one section (copies on big-endian hosts)."""
    raw = buffer[offset : offset + length]
    if length % 8:
        raise SnapshotError("int64 section length is not a multiple of 8")
    if sys.byteorder == "little":
        return raw.cast("q")
    swapped = array("q", raw)  # pragma: no cover - big-endian hosts only
    swapped.byteswap()  # pragma: no cover
    return memoryview(swapped)  # pragma: no cover


def _map_and_check(
    path: str, verify: bool
) -> tuple[mmap.mmap, memoryview, list[tuple[int, int]], tuple[int, int, int]]:
    """Open, map, and structurally validate a snapshot file.

    Returns ``(mapped, buffer, table, (epoch, n_triples, n_terms))`` with
    the section table reduced to ``(offset, length)`` pairs.  Every
    structural defect — short file, bad magic/version, a section running
    past EOF, a checksum mismatch — surfaces as :class:`SnapshotError`
    naming the problem (and the section), never an opaque struct or
    index error from deeper in the loader.
    """
    try:
        handle: IO[bytes] = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"cannot open snapshot {path!r}: {exc}") from exc
    with handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:
            raise SnapshotError(f"cannot map snapshot {path!r}: {exc}") from exc
    buffer = memoryview(mapped)
    preamble = _HEADER.size + _N_SECTIONS * _SECTION.size + _U32.size
    if len(buffer) < preamble:
        raise SnapshotError(
            f"snapshot {path!r} is truncated: {len(buffer)} bytes cannot hold "
            f"the {preamble}-byte header and section table"
        )
    magic, version, _flags, epoch, n_triples, n_terms = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise SnapshotError(f"{path!r} is not a repro snapshot (bad magic)")
    if version != VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has format version {version}; this build reads {VERSION}"
        )
    table_bytes = bytes(buffer[_HEADER.size : _HEADER.size + _N_SECTIONS * _SECTION.size])
    (stored_head_crc,) = _U32.unpack_from(buffer, _HEADER.size + len(table_bytes))
    head_crc = zlib.crc32(table_bytes, zlib.crc32(bytes(buffer[: _HEADER.size])))
    if head_crc != stored_head_crc:
        raise SnapshotError(
            f"snapshot {path!r}: header/section-table checksum mismatch "
            "(the file is corrupt or was written by an interrupted save)"
        )
    table: list[tuple[int, int]] = []
    position = _HEADER.size
    for index in range(_N_SECTIONS):
        offset, length, crc = _SECTION.unpack_from(buffer, position)
        end = offset + length
        if offset < preamble or end > len(buffer):
            raise SnapshotError(
                f"snapshot {path!r} is truncated: section "
                f"{SECTION_NAMES[index]!r} spans bytes {offset}..{end} of a "
                f"{len(buffer)}-byte file"
            )
        if verify and zlib.crc32(buffer[offset:end]) != crc:
            raise SnapshotError(
                f"snapshot {path!r}: checksum mismatch in section "
                f"{SECTION_NAMES[index]!r} (bytes {offset}..{end})"
            )
        table.append((offset, length))
        position += _SECTION.size
    return mapped, buffer, table, (epoch, n_triples, n_terms)


def load_snapshot(
    path: str,
    *,
    name: IRI | None = None,
    readonly: bool = False,
    verify: bool = True,
    flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
) -> Graph:
    """Load a snapshot as a :class:`Graph` backed by the mmap'd file.

    With ``readonly=True`` the result is a :class:`SnapshotView` — an
    epoch-pinned graph that raises :class:`ReadOnlySnapshotError` on any
    mutation and is safe to share across threads (and, since the pages
    are mapped read-only from the same file, across processes).

    ``verify=True`` (the default) checks every section's CRC32 before
    trusting it — one sequential pass over the file, still orders of
    magnitude cheaper than a re-ingest and the reason a flipped bit
    surfaces as a :class:`SnapshotError` naming the section instead of a
    wrong query answer months later.  Pass ``verify=False`` to skip the
    scan when the file was just written and verified by this process.
    """
    mapped, buffer, table, (epoch, n_triples, n_terms) = _map_and_check(path, verify)

    columns = [_int64_view(buffer, off, length) for off, length in table[:9]]
    starts = [_int64_view(buffer, off, length) for off, length in table[9:12]]
    for column in columns:
        if len(column) != n_triples:
            raise SnapshotError(f"snapshot {path!r}: column length != triple count")
    runs = []
    for i in range(3):
        a, b, c = columns[3 * i : 3 * i + 3]
        if n_triples and len(starts[i]) >= 2:
            run = Run(a, b, c, starts[i], owner=mapped)
        else:
            run = build_run_from_columns(a, b, c)
        runs.append(run)

    offsets = _int64_view(buffer, *table[12])
    order = _int64_view(buffer, *table[13])
    if len(offsets) != n_terms + 1 or len(order) != n_terms:
        raise SnapshotError(f"snapshot {path!r}: term table lengths are inconsistent")
    blob_off, blob_len = table[14]
    blob = buffer[blob_off : blob_off + blob_len]
    dictionary = SnapshotTermDictionary(offsets, order, blob)

    stats_off, stats_len = table[15]
    try:
        stats = json.loads(bytes(buffer[stats_off : stats_off + stats_len]))
        stat_rows = [tuple(row) for row in stats["predicates"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError(f"snapshot {path!r}: bad statistics section") from exc

    index = TripleIndex.from_runs(
        runs, n_triples, stat_rows, flush_threshold=flush_threshold
    )
    cls = SnapshotView if readonly else Graph
    graph = cls.__new__(cls)
    graph.name = name
    graph._terms = dictionary
    graph._index = index
    graph._epoch = epoch
    graph._uid = next(Graph._uids)
    return graph


def verify_snapshot(path: str) -> dict:
    """Fully check a snapshot's integrity without building a graph.

    Validates the magic, version, header/table checksum, every section's
    bounds and CRC32, and the cross-section length invariants (column
    lengths vs the triple count, term-table lengths vs the term count).
    Raises :class:`SnapshotError` naming the first failure; on success
    returns a report dict (triples, terms, epoch, per-section sizes)
    that ``repro snapshot verify`` renders.
    """
    mapped, buffer, table, (epoch, n_triples, n_terms) = _map_and_check(path, True)
    try:
        for index in range(9):
            offset, length = table[index]
            if length != 8 * n_triples:
                raise SnapshotError(
                    f"snapshot {path!r}: section {SECTION_NAMES[index]!r} holds "
                    f"{length // 8} values but the header promises {n_triples} triples"
                )
        if table[12][1] != 8 * (n_terms + 1) or table[13][1] != 8 * n_terms:
            raise SnapshotError(
                f"snapshot {path!r}: term table lengths are inconsistent with "
                f"the header's {n_terms} terms"
            )
        stats_off, stats_len = table[15]
        try:
            stats = json.loads(bytes(buffer[stats_off : stats_off + stats_len]))
            predicates = len(stats["predicates"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotError(f"snapshot {path!r}: bad statistics section") from exc
        return {
            "path": path,
            "size": len(buffer),
            "version": VERSION,
            "epoch": epoch,
            "triples": n_triples,
            "terms": n_terms,
            "predicates": predicates,
            "sections": [
                {"name": SECTION_NAMES[i], "offset": table[i][0], "length": table[i][1]}
                for i in range(_N_SECTIONS)
            ],
        }
    finally:
        buffer.release()
        mapped.close()


class SnapshotView(Graph):
    """A read-only graph over a snapshot file.

    Shares the full query API with :class:`Graph` but rejects every
    mutation, so one mmap'd snapshot can safely back many concurrent
    readers — worker threads, or separate server processes pointing at
    the same file (the OS shares the read-only pages between them).  Its
    epoch is pinned to the value stored at save time, so cached results
    keyed by ``(uid, epoch)`` stay valid forever.
    """

    __slots__ = ()

    @classmethod
    def open(cls, path: str, *, name: IRI | None = None) -> "SnapshotView":
        view = load_snapshot(path, name=name, readonly=True)
        assert isinstance(view, SnapshotView)
        return view

    def _readonly(self) -> ReadOnlySnapshotError:
        return ReadOnlySnapshotError(
            "this graph is a read-only SnapshotView; load the snapshot with "
            "Graph.load_snapshot(path) to get a writable copy-on-write graph"
        )

    def add(self, triple) -> bool:
        raise self._readonly()

    def add_all(self, triples) -> int:
        raise self._readonly()

    def remove(self, triple) -> bool:
        raise self._readonly()
