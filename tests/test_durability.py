"""Durability suite: WAL framing, crash recovery, atomic snapshots.

The contract under test (see ``repro/store/durable.py``): after a crash
at *any* instant — mid-WAL-record, mid-fsync, mid-snapshot-save —
reopening the directory recovers a verified-consistent store equal to
applying some prefix of the submitted operations that contains every
acknowledged one.  The Hypothesis property at the bottom proves the
exact-prefix shape by cutting the log at every record boundary and at
points inside records; the fault-injection tests prove the same through
the :class:`~repro.resilience.FaultyFS` shim instead of scissors.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError, WALError
from repro.rdf import IRI, Literal
from repro.rdf.triple import Triple
from repro.resilience import DiskFaultPlan, FaultyFS, SimulatedCrash
from repro.store import (
    DurableGraph,
    Graph,
    WalWriter,
    load_snapshot,
    replay_wal,
    save_snapshot,
    verify_snapshot,
)
from repro.store import wal as wal_module
from repro.store.snapshot import SECTION_NAMES
from repro.store.wal import (
    OP_ADD,
    OP_REMOVE,
    WAL_MAGIC,
    encode_field,
    list_segments,
    segment_path,
)


def t(i: int, p: str = "p") -> Triple:
    return Triple(IRI(f"urn:s{i}"), IRI(f"urn:{p}"), Literal(str(i)))


def triples(graph) -> set:
    return set(graph)


# -- WAL framing and replay ------------------------------------------------


class TestWal:
    def test_roundtrip(self, tmp_path):
        wal = WalWriter(str(tmp_path), fsync=False)
        wal.append(OP_ADD, b"s1", b"p1", b"o1")
        wal.append(OP_REMOVE, b"s2", b"p2", b"o2")
        wal.sync()
        wal.close()
        records, report = replay_wal(str(tmp_path))
        assert [(r.op, r.s, r.p, r.o) for r in records] == [
            (OP_ADD, b"s1", b"p1", b"o1"),
            (OP_REMOVE, b"s2", b"p2", b"o2"),
        ]
        assert report.records == 2 and report.torn_bytes == 0

    def test_rotation_and_resume(self, tmp_path):
        # Tiny segment budget: every append rotates, so records spread
        # over many segments and replay must stitch them in seq order.
        wal = WalWriter(str(tmp_path), segment_bytes=64, fsync=False)
        for i in range(10):
            wal.append(OP_ADD, f"s{i}".encode(), b"p", b"o")
        wal.sync()
        assert wal.current_seq > 1
        wal.close()
        records, report = replay_wal(str(tmp_path))
        assert [r.s for r in records] == [f"s{i}".encode() for i in range(10)]
        # Reopen resumes the last segment rather than abandoning it.
        wal2 = WalWriter(str(tmp_path), segment_bytes=64, fsync=False)
        wal2.append(OP_ADD, b"s10", b"p", b"o")
        wal2.sync()
        wal2.close()
        records, _ = replay_wal(str(tmp_path))
        assert records[-1].s == b"s10" and len(records) == 11

    def test_torn_tail_truncated_at_every_cut(self, tmp_path):
        # Write 5 records, then replay every possible torn prefix of the
        # segment: recovery must always yield exactly the whole records
        # before the cut, and repair must leave the file appendable.
        wal = WalWriter(str(tmp_path), fsync=False)
        boundaries = [wal._position]
        for i in range(5):
            wal.append(OP_ADD, f"s{i}".encode(), b"p", b"o")
            boundaries.append(wal._position)
        wal.sync()
        wal.close()
        path = segment_path(str(tmp_path), 1)
        data = open(path, "rb").read()
        assert len(data) == boundaries[-1]
        for cut in range(len(data) + 1):
            other = tempfile.mkdtemp()
            try:
                cut_path = segment_path(other, 1)
                with open(cut_path, "wb") as handle:
                    handle.write(data[:cut])
                records, report = replay_wal(other)
                expected = sum(1 for b in boundaries[1:] if b <= cut)
                assert len(records) == expected, cut
                # A cut inside the segment header tears the whole file
                # (truncated to empty); past it, to the last whole record.
                repaired = 0 if cut < boundaries[0] else boundaries[expected]
                assert os.path.getsize(cut_path) == repaired
                if cut > 0 and cut not in boundaries:
                    assert report.torn_bytes > 0
                # After repair the writer can append cleanly.
                wal2 = WalWriter(other, fsync=False)
                wal2.append(OP_ADD, b"x", b"y", b"z")
                wal2.sync()
                wal2.close()
                records, _ = replay_wal(other)
                assert len(records) == expected + 1
            finally:
                shutil.rmtree(other)

    def test_corrupt_sealed_segment_is_an_error(self, tmp_path):
        wal = WalWriter(str(tmp_path), segment_bytes=64, fsync=False)
        for i in range(12):
            wal.append(OP_ADD, f"s{i}".encode(), b"p", b"o")
        wal.sync()
        wal.close()
        seqs = list_segments(str(tmp_path))
        assert len(seqs) >= 3
        # Flip a byte inside a *sealed* (non-final) segment.
        victim = seqs[0][1]
        blob = bytearray(open(victim, "rb").read())
        blob[-2] ^= 0xFF
        open(victim, "wb").write(bytes(blob))
        with pytest.raises(WALError, match="sealed"):
            replay_wal(str(tmp_path))

    def test_flipped_bit_in_final_segment_truncates(self, tmp_path):
        wal = WalWriter(str(tmp_path), fsync=False)
        wal.append(OP_ADD, b"s", b"p", b"o")
        wal.append(OP_ADD, b"s2", b"p2", b"o2")
        wal.sync()
        wal.close()
        path = segment_path(str(tmp_path), 1)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # corrupt the last record's payload
        open(path, "wb").write(bytes(blob))
        records, report = replay_wal(str(tmp_path))
        assert [r.s for r in records] == [b"s"]
        assert report.torn_bytes > 0

    def test_writer_poisons_after_io_failure(self, tmp_path):
        fs = FaultyFS(DiskFaultPlan(fail_at_byte=60))
        wal = WalWriter(str(tmp_path), fsync=False, opener=fs)
        with pytest.raises(WALError):
            for i in range(100):
                wal.append(OP_ADD, f"s{i}".encode(), b"p", b"o")
        with pytest.raises(WALError, match="poisoned"):
            wal.append(OP_ADD, b"s", b"p", b"o")
        with pytest.raises(WALError, match="poisoned"):
            wal.sync()

    def test_prune_keeps_suffix(self, tmp_path):
        wal = WalWriter(str(tmp_path), segment_bytes=64, fsync=False)
        for i in range(8):
            wal.append(OP_ADD, f"s{i}".encode(), b"p", b"o")
        wal.sync()
        current = wal.current_seq
        removed = wal.prune_before(current)
        kept = [seq for seq, _ in list_segments(str(tmp_path))]
        assert removed > 0 and kept == sorted(kept) and kept[-1] == current
        wal.close()

    def test_records_close_before_the_payload_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "MAX_PAYLOAD", 200)
        wal = WalWriter(str(tmp_path), fsync=False)
        fields = [encode_field(f"{part}{i:03d}".encode() * 8)
                  for i in range(40) for part in "spo"]
        wal.append_batch(OP_ADD, fields)
        wal.sync()
        wal.close()
        data = open(segment_path(str(tmp_path), 1), "rb").read()
        position, lengths = len(WAL_MAGIC) + 2, []  # past magic + version
        while position < len(data):
            length = int.from_bytes(data[position:position + 4], "little")
            lengths.append(length)
            position += 8 + length
        assert len(lengths) > 1 and max(lengths) <= 200
        records, report = replay_wal(str(tmp_path))
        assert [r.s for r in records] == [f"s{i:03d}".encode() * 8 for i in range(40)]
        assert report.torn_bytes == 0

    def test_triple_too_large_for_a_record_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "MAX_PAYLOAD", 100)
        wal = WalWriter(str(tmp_path), fsync=False)
        wal.append(OP_ADD, b"s", b"p", b"o")
        before = wal._position
        small = [encode_field(b"s"), encode_field(b"p"), encode_field(b"o")]
        with pytest.raises(WALError, match="does not fit"):
            wal.append_batch(OP_ADD, small + [encode_field(b"x" * 100), *small[1:]])
        assert wal._position == before
        wal.append(OP_ADD, b"s2", b"p", b"o")  # not poisoned
        wal.close()
        records, _ = replay_wal(str(tmp_path))
        assert [r.s for r in records] == [b"s", b"s2"]

    def test_version1_segment_replays_and_is_not_appended_to(self, tmp_path):
        # A version-1 record is a one-triple version-2 record.
        payload = OP_ADD + b"".join(encode_field(term) for term in (b"s", b"p", b"o"))
        with open(segment_path(str(tmp_path), 1), "wb") as handle:
            handle.write(WAL_MAGIC + (1).to_bytes(2, "little"))
            handle.write(len(payload).to_bytes(4, "little")
                         + zlib.crc32(payload).to_bytes(4, "little") + payload)
        wal = WalWriter(str(tmp_path), fsync=False)
        assert wal.current_seq == 2
        wal.append_batch(OP_ADD, [encode_field(term) for term in
                                  (b"s2", b"p", b"o", b"s3", b"p", b"o")])
        wal.close()
        records, _ = replay_wal(str(tmp_path))
        assert [r.s for r in records] == [b"s", b"s2", b"s3"]


# -- DurableGraph lifecycle -------------------------------------------------


class TestDurableGraph:
    def test_reopen_replays_acknowledged_writes(self, tmp_path):
        d = str(tmp_path / "store")
        with DurableGraph.open(d, fsync=False) as g:
            g.add(t(1))
            g.add_all([t(2), t(3), t(4)])
            g.remove(t(3))
        g2 = DurableGraph.open(d, fsync=False)
        assert triples(g2) == {t(1), t(2), t(4)}
        assert g2.recovery.replayed_records == 5
        g2.close()

    def test_bulk_write_past_one_record_payload_survives_reopen(self, tmp_path):
        # 1 024 triples of ~70 KB literals hold more bytes than one record
        # may: the write must split them, and every one must come back.
        d = str(tmp_path / "store")
        batch = [Triple(IRI(f"urn:s{i}"), IRI("urn:abstract"),
                        Literal(f"{i:05d}" * 14_000)) for i in range(1024)]
        with DurableGraph.open(d, fsync=False) as g:
            assert g.add_all(batch) == 1024
            g.add(t(1))
        g2 = DurableGraph.open(d, fsync=False)
        try:
            assert g2.recovery.torn_bytes == 0
            assert g2.recovery.replayed_records == 1025
            assert triples(g2) == {*batch, t(1)}
        finally:
            g2.close()

    def test_checkpoint_truncates_wal_and_bounds_replay(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add_all([t(i) for i in range(20)])
        g.checkpoint()
        g.add(t(100))
        g.close()
        g2 = DurableGraph.open(d, fsync=False)
        # Only the post-checkpoint tail replays; the 20 come off the snapshot.
        assert g2.recovery.replayed_records == 1
        assert len(g2) == 21 and t(100) in g2
        g2.close()

    def test_generation_fallback_on_corrupt_newest(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add_all([t(i) for i in range(10)])
        g.checkpoint()
        g.add(t(50))
        g.checkpoint()
        g.close()
        snaps = sorted(n for n in os.listdir(d) if n.endswith(".snap"))
        assert len(snaps) == 2
        with open(os.path.join(d, snaps[-1]), "r+b") as handle:
            handle.seek(300)
            handle.write(b"\xde\xad\xbe\xef")
        g2 = DurableGraph.open(d, fsync=False)
        assert g2.recovery.fell_back
        assert [os.path.basename(p) for p, _ in g2.recovery.rejected] == [snaps[-1]]
        # The older generation + retained WAL replay reach the same state.
        assert triples(g2) == {t(i) for i in range(10)} | {t(50)}
        g2.close()

    def test_all_generations_corrupt_raises(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add(t(1))
        g.checkpoint()
        g.close()
        for name in os.listdir(d):
            if name.endswith(".snap"):
                with open(os.path.join(d, name), "r+b") as handle:
                    handle.seek(100)
                    handle.write(b"\x00" * 8)
        with pytest.raises(SnapshotError, match="every snapshot generation"):
            DurableGraph.open(d, fsync=False)

    def test_retention_prunes_generations_and_segments(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False, retain=2)
        for round_no in range(5):
            g.add(t(round_no))
            g.checkpoint()
        snaps = [n for n in os.listdir(d) if n.endswith(".snap")]
        assert len(snaps) == 2
        # Retained WAL segments all have seq >= the oldest kept wal_start.
        oldest_start = min(int(n.split("-")[2].split(".")[0]) for n in snaps)
        seqs = [seq for seq, _ in list_segments(os.path.join(d, "wal"))]
        assert all(seq >= oldest_start for seq in seqs)
        g.close()

    def test_auto_checkpoint(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False, auto_checkpoint=10)
        g.add_all([t(i) for i in range(25)])
        assert g.generation >= 1
        g.close()

    def test_closed_graph_refuses_writes(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add(t(1))
        g.close()
        assert g.closed
        with pytest.raises(WALError, match="closed"):
            g.add(t(2))
        with pytest.raises(WALError, match="closed"):
            g.checkpoint()

    def test_durability_stats_shape(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add_all([t(i) for i in range(5)])
        stats = g.durability_stats()
        assert stats["wal_records"] == 5
        assert stats["wal_syncs"] == 1  # one group-commit fsync for add_all
        assert stats["records_since_checkpoint"] == 5
        assert stats["recovery"]["replayed_records"] == 0
        g.checkpoint()
        assert g.durability_stats()["records_since_checkpoint"] == 0
        g.close()

    def test_open_durable_classmethod(self, tmp_path):
        d = str(tmp_path / "store")
        g = Graph.open_durable(d, fsync=False)
        assert isinstance(g, DurableGraph)
        g.add(t(1))
        g.close()
        g2 = Graph.open_durable(d, fsync=False)
        assert t(1) in g2
        g2.close()


# -- crash injection through the filesystem shim ----------------------------


class TestCrashInjection:
    def test_crash_mid_append_recovers_acknowledged_prefix(self, tmp_path):
        d = str(tmp_path / "store")
        fs = FaultyFS(DiskFaultPlan(crash_at_byte=900))
        g = DurableGraph.open(d, fsync=False, opener=fs)
        acked = 0
        with pytest.raises(SimulatedCrash):
            for i in range(500):
                g.add(t(i))
                acked += 1
        assert fs.fired == "crash_at_byte" and acked > 0
        g2 = DurableGraph.open(d, fsync=False)
        # Exact prefix: every acked write present, at most the one
        # in-flight unacked record beyond them.
        assert len(g2) in (acked, acked + 1)
        assert all(t(i) in g2 for i in range(acked))
        g2.close()

    def test_short_write_then_recovery(self, tmp_path):
        d = str(tmp_path / "store")
        fs = FaultyFS(DiskFaultPlan(short_write_at_byte=700))
        g = DurableGraph.open(d, fsync=False, opener=fs)
        acked = 0
        with pytest.raises(WALError):
            for i in range(500):
                g.add(t(i))
                acked += 1
        g2 = DurableGraph.open(d, fsync=False)
        assert g2.recovery.torn_bytes >= 0
        assert all(t(i) in g2 for i in range(acked))
        assert len(g2) in (acked, acked + 1)
        g2.close()

    def test_crash_during_checkpoint_keeps_previous_state(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add_all([t(i) for i in range(30)])
        g._opener = FaultyFS(DiskFaultPlan(crash_at_fsync=1))
        with pytest.raises(SimulatedCrash):
            g.checkpoint()
        # The crash left temp debris and no completed generation.
        assert any(n.endswith(".tmp") for n in os.listdir(d))
        assert not any(n.endswith(".snap") for n in os.listdir(d))
        g2 = DurableGraph.open(d, fsync=False)
        assert triples(g2) == {t(i) for i in range(30)}
        assert not any(n.endswith(".tmp") for n in os.listdir(d))
        g2.close()

    def test_crash_mid_snapshot_body_never_replaces_old_generation(self, tmp_path):
        d = str(tmp_path / "store")
        g = DurableGraph.open(d, fsync=False)
        g.add_all([t(i) for i in range(30)])
        g.checkpoint()
        good = {n for n in os.listdir(d) if n.endswith(".snap")}
        g.add(t(99))
        g._opener = FaultyFS(DiskFaultPlan(crash_at_byte=200))
        with pytest.raises(SimulatedCrash):
            g.checkpoint()
        assert {n for n in os.listdir(d) if n.endswith(".snap")} == good
        g2 = DurableGraph.open(d, fsync=False)
        assert triples(g2) == {t(i) for i in range(30)} | {t(99)}
        g2.close()

    def test_save_failure_cleans_temp_and_raises(self, tmp_path):
        graph = Graph(triples=[t(i) for i in range(10)])
        path = str(tmp_path / "x.snap")
        fs = FaultyFS(DiskFaultPlan(fail_at_byte=100))
        with pytest.raises(SnapshotError):
            save_snapshot(graph, path, opener=fs)
        # Survivable OSError: the temp file is unlinked, nothing published.
        assert os.listdir(str(tmp_path)) == []


# -- snapshot verification --------------------------------------------------


class TestSnapshotVerify:
    def _snap(self, tmp_path, n=20):
        graph = Graph(triples=[t(i) for i in range(n)])
        path = str(tmp_path / "g.snap")
        save_snapshot(graph, path)
        return graph, path

    def test_verify_ok(self, tmp_path):
        graph, path = self._snap(tmp_path)
        report = verify_snapshot(path)
        assert report["triples"] == len(graph)
        assert [s["name"] for s in report["sections"]] == list(SECTION_NAMES)

    def test_truncation_at_many_lengths_is_always_clear(self, tmp_path):
        _, path = self._snap(tmp_path)
        data = open(path, "rb").read()
        for cut in (0, 1, 7, 16, 100, len(data) // 2, len(data) - 1):
            short = str(tmp_path / f"cut{cut}.snap")
            open(short, "wb").write(data[:cut])
            with pytest.raises(SnapshotError):
                verify_snapshot(short)
            with pytest.raises(SnapshotError):
                load_snapshot(short)

    def test_section_corruption_names_the_section(self, tmp_path):
        _, path = self._snap(tmp_path)
        report = verify_snapshot(path)
        for section in (report["sections"][0], report["sections"][-1]):
            blob = bytearray(open(path, "rb").read())
            blob[section["offset"]] ^= 0xFF
            bad = str(tmp_path / f"bad-{section['name']}.snap")
            open(bad, "wb").write(bytes(blob))
            with pytest.raises(SnapshotError, match=section["name"]):
                load_snapshot(bad)

    def test_unverified_load_skips_crc(self, tmp_path):
        # verify=False trades the integrity sweep for O(open) boot; a
        # corrupt column section then goes undetected at load time.
        _, path = self._snap(tmp_path)
        report = verify_snapshot(path)
        section = report["sections"][1]
        blob = bytearray(open(path, "rb").read())
        blob[section["offset"] + 2] ^= 0x01
        open(path, "wb").write(bytes(blob))
        load_snapshot(path, verify=False)  # no error: caller opted out
        with pytest.raises(SnapshotError, match=section["name"]):
            load_snapshot(path, verify=True)


# -- CLI surface ------------------------------------------------------------


class TestCli:
    def test_data_dir_seeds_then_recovers(self, tmp_path):
        from repro.cli import main

        d = str(tmp_path / "data")
        out = io.StringIO()
        assert main(["--data-dir", d, "--observations", "20"],
                    stdin=io.StringIO("quit\n"), stdout=out) == 0
        assert any(n.endswith(".snap") for n in os.listdir(d))
        # Second boot recovers instead of re-ingesting; same store works.
        out2 = io.StringIO()
        assert main(["--data-dir", d, "--observations", "20"],
                    stdin=io.StringIO("quit\n"), stdout=out2) == 0
        assert "ready" in out2.getvalue()

    def test_snapshot_verify_subcommand(self, tmp_path):
        from repro.cli import main

        graph = Graph(triples=[t(i) for i in range(5)])
        path = str(tmp_path / "g.snap")
        save_snapshot(graph, path)
        out = io.StringIO()
        assert main(["snapshot", "verify", path],
                    stdin=io.StringIO(""), stdout=out) == 0
        assert out.getvalue().startswith("OK")
        with open(path, "r+b") as handle:
            handle.seek(120)
            handle.write(b"\xff\xff\xff\xff")
        out2 = io.StringIO()
        assert main(["snapshot", "verify", path],
                    stdin=io.StringIO(""), stdout=out2) == 1
        assert out2.getvalue().startswith("CORRUPT")


# -- the recovery property --------------------------------------------------

small_ids = st.integers(min_value=0, max_value=5)
op_lists = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]),
              st.tuples(small_ids, small_ids, small_ids)),
    min_size=1, max_size=12,
)


def _as_triple(ids) -> Triple:
    return Triple(IRI(f"urn:s{ids[0]}"), IRI(f"urn:p{ids[1]}"), Literal(str(ids[2])))


@settings(max_examples=20, deadline=None)
@given(ops=op_lists)
def test_recovery_is_exactly_the_acknowledged_prefix(ops):
    """Cut the WAL at every record boundary and inside records: recovery
    equals the state after exactly the whole records before the cut, and
    the recovered graph matches an in-memory replica that applied the
    same prefix without any log."""
    base = tempfile.mkdtemp()
    try:
        d = os.path.join(base, "store")
        g = DurableGraph.open(d, fsync=False)
        boundaries = [g.wal._position]
        states = [set()]
        expected = set()
        for op, ids in ops:
            triple = _as_triple(ids)
            if op == "add":
                g.add(triple)
                expected.add(triple)
            else:
                g.remove(triple)
                expected.discard(triple)
            boundaries.append(g.wal._position)
            states.append(set(expected))
        g.close()
        seg = segment_path(os.path.join(d, "wal"), 1)
        data = open(seg, "rb").read()
        assert len(data) == boundaries[-1]

        # Every record boundary, plus mid-record cuts: one byte into the
        # frame, mid-payload, and one byte short of completion.
        cuts = set(boundaries)
        for prev, nxt in zip(boundaries, boundaries[1:]):
            cuts.update({prev + 1, (prev + nxt) // 2, nxt - 1})
        for cut in sorted(c for c in cuts if 0 <= c <= len(data)):
            trial = os.path.join(base, f"cut{cut}")
            os.makedirs(os.path.join(trial, "wal"))
            with open(segment_path(os.path.join(trial, "wal"), 1), "wb") as h:
                h.write(data[:cut])
            recovered = DurableGraph.open(trial, fsync=False)
            k = sum(1 for b in boundaries[1:] if b <= cut)
            assert triples(recovered) == states[k], (cut, k)
            # Replay the same acknowledged prefix into a plain graph and
            # compare through the facade.
            replica = Graph()
            for op, ids in ops[:k]:
                triple = _as_triple(ids)
                replica.add(triple) if op == "add" else replica.remove(triple)
            assert triples(replica) == triples(recovered)
            recovered.close()
            shutil.rmtree(trial)
    finally:
        shutil.rmtree(base)


@settings(max_examples=10, deadline=None)
@given(ops=op_lists, checkpoint_after=st.integers(min_value=0, max_value=12))
def test_recovery_after_checkpoint_matches_full_replay(ops, checkpoint_after):
    """A checkpoint anywhere in the sequence never changes what recovery
    returns: snapshot + WAL tail ≡ applying every operation in order."""
    base = tempfile.mkdtemp()
    try:
        d = os.path.join(base, "store")
        g = DurableGraph.open(d, fsync=False)
        expected = set()
        for index, (op, ids) in enumerate(ops):
            triple = _as_triple(ids)
            if op == "add":
                g.add(triple)
                expected.add(triple)
            else:
                g.remove(triple)
                expected.discard(triple)
            if index == checkpoint_after:
                g.checkpoint()
        g.close()
        recovered = DurableGraph.open(d, fsync=False)
        assert triples(recovered) == expected
        recovered.close()
    finally:
        shutil.rmtree(base)
