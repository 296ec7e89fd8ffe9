"""Durability overhead: WAL-protected ingest vs plain in-memory ingest.

The durability tentpole's acceptance gate.  The same synthetic
observation stream as the storage benchmark is ingested twice —

* **WAL off** — a plain in-memory ``Graph`` (crash loses everything);
* **WAL on** — a ``DurableGraph`` in chunked batches (group commit:
  one log sync per ``add_all`` call, the fsync-batched policy).

The gate: WAL-on ingest must stay within **1.5x** of WAL-off at 100k
observations (700k triples), judged on the median ratio of
:data:`REPEATS` alternating WAL-off / WAL-on pairs — one sample of each
would let a noisy neighbour decide it.
Physical-fsync cost is hardware, not code, so the gated runs use
``fsync=False`` — the full WAL protocol (encode, frame, CRC, write,
flush into the OS) minus the disk barrier; a ``fsync=True`` run is also
reported, ungated, for the operator's eyes.

Checkpoint and recovery timings ride along in ``BENCH_durability.json``
(informational): snapshot dump cost, boot-from-snapshot cost, and WAL
tail replay rate.

Scale is environment-tunable so CI can run a reduced gate quickly::

    REPRO_BENCH_DUR_OBS=20000 pytest benchmarks/test_durability.py
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time

from repro.store import DurableGraph, Graph

from .helpers import emit, emit_json, fmt_ms, format_table
from .test_store_scale import TRIPLES_PER_OBSERVATION, synth_triples

N_OBSERVATIONS = int(os.environ.get("REPRO_BENCH_DUR_OBS", "100000"))
#: Triples per ``add_all`` call — one group-commit sync each.
CHUNK = int(os.environ.get("REPRO_BENCH_DUR_CHUNK", "4096"))
#: Hard ceiling on WAL-on / WAL-off ingest time.
MAX_OVERHEAD = float(os.environ.get("REPRO_BENCH_DUR_MAX_OVERHEAD", "1.5"))
#: Alternating WAL-off / WAL-on pairs; the gate reads their median ratio.
REPEATS = 3


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _ingest_plain(triples) -> tuple[Graph, float]:
    start = time.perf_counter()
    graph = Graph()
    for chunk in _chunks(triples, CHUNK):
        graph.add_all(chunk)
    return graph, time.perf_counter() - start


def _ingest_durable(triples, directory, fsync) -> tuple[DurableGraph, float]:
    start = time.perf_counter()
    graph = DurableGraph.open(directory, fsync=fsync)
    for chunk in _chunks(triples, CHUNK):
        graph.add_all(chunk)
    return graph, time.perf_counter() - start


def test_wal_ingest_overhead():
    triples = synth_triples(N_OBSERVATIONS)
    base = tempfile.mkdtemp(prefix="repro-dur-bench-")
    try:
        plain_times, wal_times, ratios = [], [], []
        durable = None
        for repeat in range(REPEATS):
            # Each ingest runs with the previous store released, so no
            # pair pays for the other's memory.
            if durable is not None:
                durable.close()
                durable = None
                shutil.rmtree(os.path.join(base, "nofsync"))
            gc.collect()
            plain, plain_s = _ingest_plain(triples)
            expected = len(plain)
            del plain
            gc.collect()
            durable, wal_s = _ingest_durable(
                triples, os.path.join(base, "nofsync"), fsync=False
            )
            assert len(durable) == expected
            plain_times.append(plain_s)
            wal_times.append(wal_s)
            ratios.append(wal_s / plain_s)
        overhead = statistics.median(ratios)
        plain_s = statistics.median(plain_times)
        wal_s = statistics.median(wal_times)

        # Real disk barriers, reported but not gated (hardware-bound).
        fsync_dir = os.path.join(base, "fsync")
        durable_f, fsync_s = _ingest_durable(triples, fsync_dir, fsync=True)
        assert len(durable_f) == expected

        # Checkpoint: WAL tail -> snapshot generation, then prune.
        start = time.perf_counter()
        snapshot_path = durable.checkpoint()
        checkpoint_s = time.perf_counter() - start
        snapshot_mb = os.path.getsize(snapshot_path) / 1e6
        durable.close()
        durable_f.close()

        # Recovery split: snapshot-only boot vs WAL-tail replay.
        start = time.perf_counter()
        booted = DurableGraph.open(os.path.join(base, "nofsync"), fsync=False)
        boot_s = time.perf_counter() - start
        assert len(booted) == expected
        assert booted.recovery.replayed_records == 0  # all in the snapshot
        booted.close()

        start = time.perf_counter()
        replayed = DurableGraph.open(fsync_dir, fsync=False)
        replay_s = time.perf_counter() - start
        n_records = replayed.recovery.replayed_records
        assert n_records == len(triples)  # never checkpointed: full replay
        assert len(replayed) == expected
        replayed.close()

        rows = [
            ["WAL off (in-memory)", fmt_ms(plain_s), "1.00x", "-"],
            ["WAL on (group commit)", fmt_ms(wal_s), f"{overhead:.2f}x",
             f"gate <= {MAX_OVERHEAD:.1f}x (median of {REPEATS})"],
            ["WAL on + fsync", fmt_ms(fsync_s), f"{fsync_s / plain_s:.2f}x",
             "informational"],
            ["checkpoint (snapshot)", fmt_ms(checkpoint_s),
             f"{snapshot_mb:.1f} MB", "informational"],
            ["boot from snapshot", fmt_ms(boot_s), "-", "informational"],
            ["boot via WAL replay", fmt_ms(replay_s),
             f"{n_records / max(replay_s, 1e-9) / 1e3:.0f}k rec/s",
             "informational"],
        ]
        emit(
            "durability",
            f"Durable ingest at {N_OBSERVATIONS} observations "
            f"({N_OBSERVATIONS * TRIPLES_PER_OBSERVATION} triples, "
            f"chunks of {CHUNK})",
            format_table(["path", "time", "ratio", "gate"], rows),
        )
        emit_json("durability", {
            "observations": N_OBSERVATIONS,
            "triples": N_OBSERVATIONS * TRIPLES_PER_OBSERVATION,
            "chunk": CHUNK,
            "ingest_plain_s": plain_s,
            "ingest_wal_s": wal_s,
            "ingest_wal_fsync_s": fsync_s,
            "wal_overhead": overhead,
            "wal_overhead_pairs": ratios,
            "wal_overhead_gate": MAX_OVERHEAD,
            "checkpoint_s": checkpoint_s,
            "snapshot_mb": snapshot_mb,
            "boot_snapshot_s": boot_s,
            "boot_replay_s": replay_s,
            "replayed_records": n_records,
        })
        assert overhead <= MAX_OVERHEAD, (
            f"WAL ingest overhead {overhead:.2f}x exceeds the "
            f"{MAX_OVERHEAD:.1f}x gate at {N_OBSERVATIONS} observations"
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
