"""Durable graphs: WAL-protected writes + checkpointed snapshot generations.

:class:`DurableGraph` is a :class:`~repro.store.graph.Graph` whose
mutations survive ``kill -9``.  It owns a directory::

    <dir>/
        snap-00000002-0000000000000003.snap   # generation 2, WAL start 3
        snap-00000003-0000000000000005.snap   # generation 3, WAL start 5
        wal/seg-0000000000000004.wal          # sealed segment
        wal/seg-0000000000000005.wal          # current segment

The write protocol is classic WAL-before-apply: every ``add``/``remove``
first appends a self-contained record (terms in the snapshot codec) to
the log and **fsyncs**, and only then touches the in-memory columnar
index.  One public call is one fsync — ``add_all`` logs its whole batch
and syncs once — so the acknowledgement point is the return of the
mutation call, and the recovery invariant is exact:

    after a crash at *any* instant, :meth:`DurableGraph.open` rebuilds a
    state equal to applying some prefix of the submitted operation
    sequence that includes every acknowledged one — never a torn,
    interleaved, or corrupt state.

Checkpoints (:meth:`DurableGraph.checkpoint`) bound the log: the WAL is
rotated to a fresh segment (seq *S*), the whole graph is dumped to an
atomically-renamed, checksummed snapshot whose filename records *S* as
its **WAL start**, and then old generations beyond the retention count —
plus every WAL segment no retained generation needs — are pruned.
Because WAL records are absolute set operations, replaying any suffix of
the log over any retained generation converges to the same state; that
is what makes the *generation fallback* sound: if the newest snapshot
fails CRC verification at boot, recovery silently drops to the previous
generation and replays a slightly longer WAL suffix.

Recovery (:meth:`DurableGraph.open`) therefore boots in three steps:
mmap-load the newest snapshot generation that passes verification, replay
every WAL record still on disk in order (repairing a torn final-segment
tail by truncation), and reopen the log for appending.  The
:class:`RecoveryReport` left on the instance says exactly what happened.

Single-writer, like :class:`Graph` itself: concurrent readers belong on
:class:`~repro.store.snapshot.SnapshotView`\\ s over the generation files
(the serving layer's pattern), while one writer appends and checkpoints.
"""

from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as _np

from ..errors import SnapshotError, WALError
from ..rdf.terms import IRI
from ..rdf.triple import Triple
from .graph import Graph
from .snapshot import decode_term, encode_term, load_snapshot, save_snapshot
from .wal import (
    DEFAULT_SEGMENT_BYTES,
    OP_ADD,
    OP_REMOVE,
    WalWriter,
    encode_field,
    replay_wal,
)

__all__ = ["DurableGraph", "RecoveryReport", "list_generations"]

#: Snapshot generation filename: generation counter + the first WAL
#: segment seq *not* reflected in the file.  Filename-borne metadata is
#: crash-atomic for free: it exists iff the ``os.replace`` landed.
_SNAP_PATTERN = re.compile(r"^snap-(\d{8})-(\d{16})\.snap$")

#: How many snapshot generations (and the WAL suffix the oldest of them
#: needs) survive a checkpoint.  Two is the minimum that makes fallback
#: meaningful: the newest may be corrupt, the previous must still boot.
DEFAULT_RETAIN = 2

#: Bound on the id -> record field memo the batched WAL write path keeps
#: (terms repeat heavily in cube data; the memo turns re-encoding into a
#: dict hit on an int).
_FIELD_CACHE_LIMIT = 1 << 16


def _snapshot_name(generation: int, wal_start: int) -> str:
    return f"snap-{generation:08d}-{wal_start:016d}.snap"


def list_generations(directory: str) -> list[tuple[int, int, str]]:
    """``(generation, wal_start, path)`` sorted newest generation first."""
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SNAP_PATTERN.match(name)
        if match:
            out.append(
                (int(match.group(1)), int(match.group(2)),
                 os.path.join(directory, name))
            )
    out.sort(reverse=True)
    return out


@dataclass
class RecoveryReport:
    """What :meth:`DurableGraph.open` found and did."""

    directory: str
    generation: int = 0
    snapshot_path: str | None = None
    replayed_records: int = 0
    torn_bytes: int = 0
    #: Generations that failed verification, newest first: (path, error).
    rejected: list[tuple[str, str]] = field(default_factory=list)

    @property
    def fell_back(self) -> bool:
        """True when the newest generation was rejected and an older one
        (or the empty state) booted instead."""
        return bool(self.rejected)


class DurableGraph(Graph):
    """A graph whose writes are WAL-protected and checkpointable.

    Construct via :meth:`open` (or ``Graph.open_durable``); the plain
    constructor is inherited but deliberately unusable — a durable graph
    only makes sense bound to its directory.
    """

    __slots__ = (
        "_directory", "_wal", "_generation", "_retain", "_recovery",
        "_opener", "_verify", "_auto_checkpoint", "_since_checkpoint",
        "_fields", "_closed",
    )

    # -- construction / recovery -------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        name: IRI | None = None,
        fsync: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        retain: int = DEFAULT_RETAIN,
        verify: bool = True,
        auto_checkpoint: int | None = None,
        flush_threshold: int | None = None,
        opener: Callable = open,
    ) -> "DurableGraph":
        """Open (or create) the durable store at ``directory``.

        Boot = newest verifiable snapshot generation + WAL replay.  A
        generation failing CRC verification is skipped (recorded in
        :attr:`recovery`) and the previous one boots instead; only if
        *every* retained generation is corrupt does this raise, because
        then acknowledged writes are genuinely unrecoverable.

        ``fsync=False`` keeps the full WAL protocol but skips the
        physical disk barrier — for tests and benchmarks that simulate
        crashes at the file level, not for production data.
        ``auto_checkpoint=N`` checkpoints automatically once N records
        accumulate since the last one.
        """
        os.makedirs(directory, exist_ok=True)
        wal_dir = os.path.join(directory, "wal")
        os.makedirs(wal_dir, exist_ok=True)
        cls._sweep_temp_files(directory)

        report = RecoveryReport(directory=directory)
        base: Graph | None = None
        generations = list_generations(directory)
        for generation, _wal_start, path in generations:
            try:
                kwargs = {} if flush_threshold is None else {
                    "flush_threshold": flush_threshold}
                base = load_snapshot(path, name=name, verify=verify, **kwargs)
            except SnapshotError as exc:
                report.rejected.append((path, str(exc)))
                continue
            report.generation = generation
            report.snapshot_path = path
            break
        if base is None:
            if generations:
                details = "; ".join(
                    f"{os.path.basename(p)}: {err}" for p, err in report.rejected
                )
                raise SnapshotError(
                    f"every snapshot generation in {directory!r} failed "
                    f"verification ({details}); acknowledged writes cannot "
                    "be recovered"
                )
            base = Graph(name=name, flush_threshold=flush_threshold)

        graph = cls.__new__(cls)
        graph.name = base.name
        graph._terms = base._terms
        graph._index = base._index
        graph._epoch = base._epoch
        graph._uid = next(Graph._uids)
        graph._directory = directory
        graph._generation = report.generation
        graph._retain = max(1, retain)
        graph._opener = opener
        graph._verify = verify
        graph._auto_checkpoint = auto_checkpoint
        graph._since_checkpoint = 0
        graph._fields = {}
        graph._closed = False
        graph._wal = None

        records, replay_report = replay_wal(wal_dir, opener=opener)
        graph._replay(records)
        report.replayed_records = len(records)
        report.torn_bytes = replay_report.torn_bytes
        graph._recovery = report
        graph._wal = WalWriter(
            wal_dir, segment_bytes=segment_bytes, fsync=fsync, opener=opener
        )
        return graph

    def _replay(self, records) -> None:
        """Apply WAL records in order: each run of consecutive adds as one
        bulk write, each remove on its own."""
        columns = (array("q"), array("q"), array("q"))
        encode = self._terms.encode
        for record in records:
            if record.op == OP_ADD:
                for column, term in zip(columns, (record.s, record.p, record.o)):
                    column.append(encode(decode_term(term)))
                continue
            self._add_ids(*columns)
            columns = (array("q"), array("q"), array("q"))
            Graph.remove(self, Triple(decode_term(record.s), decode_term(record.p),
                                      decode_term(record.o)))
        self._add_ids(*columns)

    @staticmethod
    def _sweep_temp_files(directory: str) -> None:
        """Drop ``*.tmp`` debris a crash mid-save may have left behind."""
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass

    # -- introspection ------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def generation(self) -> int:
        """The snapshot generation this store last checkpointed (0 = none)."""
        return self._generation

    @property
    def recovery(self) -> RecoveryReport:
        """How the last :meth:`open` rebuilt this graph."""
        return self._recovery

    @property
    def wal(self) -> WalWriter:
        return self._wal

    def durability_stats(self) -> dict:
        """Counters for the serving layer's ``/stats`` document."""
        report = self._recovery
        return {
            "directory": self._directory,
            "generation": self._generation,
            "wal_records": self._wal.records_appended,
            "wal_bytes": self._wal.bytes_appended,
            "wal_syncs": self._wal.syncs,
            "wal_segment": self._wal.current_seq,
            "pending_mutations": getattr(self._index, "pending_mutations", 0),
            "records_since_checkpoint": self._since_checkpoint,
            "recovery": {
                "generation": report.generation,
                "replayed_records": report.replayed_records,
                "torn_bytes": report.torn_bytes,
                "fell_back": report.fell_back,
            },
        }

    # -- the WAL-before-apply write path ------------------------------------

    def _field(self, term_id: int) -> bytes:
        """The WAL record field of a dictionary id, memoized."""
        memo = self._fields
        encoded = memo.get(term_id)
        if encoded is None:
            encoded = encode_field(encode_term(self._terms.decode(term_id)))
            if len(memo) >= _FIELD_CACHE_LIMIT:
                memo.clear()
            memo[term_id] = encoded
        return encoded

    def _writer(self) -> WalWriter:
        if self._closed:
            raise WALError("this durable graph is closed")
        return self._wal

    def _log_triple(self, op: bytes, triple: Triple) -> None:
        self._writer().append_batch(
            op, [encode_field(encode_term(term)) for term in triple])

    def _note_writes(self, count: int) -> None:
        self._since_checkpoint += count
        if (
            self._auto_checkpoint is not None
            and self._since_checkpoint >= self._auto_checkpoint
        ):
            self.checkpoint()

    def add(self, triple: Triple) -> bool:
        self._log_triple(OP_ADD, triple)
        self._wal.sync()
        added = Graph.add(self, triple)
        self._note_writes(1)
        return added

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples under a single fsync (group commit).

        The batch is encoded to id columns once: the WAL records (up to
        :data:`~repro.store.wal.BATCH_TRIPLES` triples each) are written
        from them, then the index takes them.  New terms enter
        the dictionary before the log write, so a batch whose iterator
        or log write fails can leave terms without a triple (none is
        added); after a failed write the log is poisoned, and a reopen
        rebuilds the store from disk.
        """
        columns = (array("q"), array("q"), array("q"))
        self._encode_all(triples, columns)
        if not len(columns[0]):
            return 0
        wal = self._writer()
        ids = _np.column_stack([_np.frombuffer(col, dtype=_np.int64)
                                for col in columns]).ravel().tolist()
        hit, encode = self._fields.get, self._field
        # Record fields are never empty, so a memo hit is truthy.
        wal.append_batch(OP_ADD, [hit(i) or encode(i) for i in ids])
        wal.sync()
        added = self._add_ids(*columns)
        self._note_writes(len(columns[0]))
        return added

    def remove(self, triple: Triple) -> bool:
        self._log_triple(OP_REMOVE, triple)
        self._wal.sync()
        removed = Graph.remove(self, triple)
        self._note_writes(1)
        return removed

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> str:
        """Dump a new snapshot generation and truncate the covered WAL.

        Protocol (each step crash-safe on its own):

        1. rotate the WAL — seals the current segment, so everything this
           graph contains lives in segments ``< S`` (the fresh seq);
        2. atomically save ``snap-<gen+1>-<S>.snap`` (temp + fsync +
           rename + directory fsync, per-section CRCs);
        3. prune generations beyond the retention count, then delete WAL
           segments older than the *oldest retained* generation's WAL
           start — never segments a surviving snapshot might need.

        Returns the new snapshot's path.
        """
        if self._closed:
            raise WALError("this durable graph is closed")
        wal_start = self._wal.rotate()
        generation = self._generation + 1
        path = os.path.join(self._directory, _snapshot_name(generation, wal_start))
        save_snapshot(self, path, opener=self._opener)
        self._generation = generation
        self._since_checkpoint = 0
        self._prune()
        return path

    def _prune(self) -> None:
        generations = list_generations(self._directory)
        keep = generations[: self._retain]
        for _generation, _wal_start, path in generations[self._retain:]:
            try:
                os.unlink(path)
            except OSError:
                pass
        if keep:
            self._wal.prune_before(min(wal_start for _g, wal_start, _p in keep))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL; the graph object becomes read-only."""
        if self._closed:
            return
        self._closed = True
        self._wal.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DurableGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<DurableGraph {self._directory!r}: {len(self)} triples, "
            f"generation {self._generation}>"
        )
