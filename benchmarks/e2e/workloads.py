"""The measured passes: in-process scripts, HTTP sessions, the write mix.

Three passes cover the four workloads.  ``explore_inproc`` and
``members_dbpedia`` are :func:`script_pass` on different cube shapes,
``explore_http`` is :func:`http_pass`, ``write_mix`` is :func:`write_pass`.
Every pass is a closed loop: a client sends its next step when the previous
one has answered.  A traced run reuses the same passes at probe size for the
layers its workload bypasses, so every per-layer number is measured on the
workload's own data (see ``layers.py``).
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import shutil
import threading
import time
import urllib.parse
from dataclasses import dataclass, field

from repro.core import VirtualSchemaGraph
from repro.qb import OBSERVATION_CLASS
from repro.rdf.ntriples import parse_ntriples
from repro.serving.cache import QueryCache
from repro.store import Graph
from repro.store.endpoint import Endpoint
from repro.store.text_index import TextIndex

from . import checks, drivers
from .inputs import NT_FILE, SNAPSHOT_FILE
from .spec import (ORACLE_STEPS, OVERRUN, WARMUP_SCRIPTS,
                   WRITE_CHECKPOINT_EVERY, WRITE_READS_PER_BATCH,
                   WRITE_SEED_SHARE, Workload)
from .tracing import RecordingEndpoint, Tracer

COUNT_OBSERVATIONS = (
    f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o a {OBSERVATION_CLASS.n3()} }}")


@dataclass
class Run:
    """One invocation: what to run, on which inputs, where to write."""

    workload: Workload
    seed: int
    seconds: float
    inputs_dir: str
    manifest: dict
    work_dir: str
    env: dict

    @property
    def scripts(self) -> list[dict]:
        return self.manifest["scripts"]

    @property
    def warmups(self) -> list[dict]:
        return self.scripts[-WARMUP_SCRIPTS:]

    @property
    def accept(self) -> dict:
        return self.manifest["accept"]

    @property
    def nt_path(self) -> str:
        return os.path.join(self.inputs_dir, NT_FILE)

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.inputs_dir, SNAPSHOT_FILE)

    def deadline(self) -> float:
        return time.perf_counter() + OVERRUN * self.seconds


@dataclass
class Pass:
    """What one measured pass produced."""

    steps: list = field(default_factory=list)  # timed exploration steps
    wall: float = 0.0  # measured-phase seconds the steps are divided by
    operations: int = 0  # steps plus write batches (write_mix)
    peak_rss_mb: float = 0.0
    checks_attempted: int = 0
    failures: list = field(default_factory=list)  # notes of failed checks
    oracle: list = field(default_factory=list)  # (query, digest) samples
    tracers: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    truncated: bool = False

    def check(self, ok: bool, note: str) -> None:
        self.checks_attempted += 1
        if not ok:
            self.failures.append(note)

    def take(self, step, sampler: "Reservoir") -> None:
        self.steps.append(step)
        if step.table is not None:
            sampler.offer(step)


class Reservoir:
    """Seeded sample of answer-bearing steps for the engine cross-check."""

    def __init__(self, seed: int, size: int = ORACLE_STEPS):
        self._rng = random.Random(f"oracle:{seed}")
        self._size = size
        self._seen = 0
        self.sample: list[tuple] = []

    def offer(self, step) -> None:
        self._seen += 1
        if len(self.sample) < self._size:
            self.sample.append((step.query, step.table.digest()))
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self._size:
                self.sample[slot] = (step.query, step.table.digest())


def oracle_check(result: Pass, graph, sample: list[tuple],
                 recompute: bool = False) -> None:
    """Sampled steps re-executed tuple-at-a-time, compared as bags.

    ``recompute`` also re-runs the batched engine: the graph has changed
    since the step was timed (write_mix), so both sides run on it now.
    """
    oracle = Endpoint(graph, vectorize=False)
    batched = Endpoint(graph) if recompute else None
    for query, digest in sample:
        if batched is not None:
            digest = checks.Table.from_result_set(batched.select(query)).digest()
        expected = checks.Table.from_result_set(oracle.select(query)).digest()
        result.check(digest == expected,
                     "batched and tuple-at-a-time answers differ")


# -- in-process ---------------------------------------------------------------


@dataclass
class Store:
    graph: object
    endpoint: Endpoint
    vgraph: VirtualSchemaGraph


def warm_synthesis(endpoint, vgraph, script: dict) -> None:
    """The first interaction answered: set-up ends here."""
    session = drivers.InprocSession(endpoint, vgraph)
    step = session.synthesize(script["example"])
    if not step.ok:
        raise RuntimeError(f"warm-up synthesis failed: {step.note}")


def setup_inproc(run: Run, stages: dict | None = None) -> Store:
    """N-Triples file -> graph -> text index -> bootstrap -> warm-up synth.

    With ``stages`` (the traced run) parsing and index ingest are timed
    apart, and the bootstrap's SELECTs are counted.
    """
    clock = time.perf_counter
    with open(run.nt_path, encoding="utf-8") as source:
        if stages is None:
            graph = Graph.from_ntriples(source)
        else:
            started = clock()
            triples = list(parse_ntriples(source))
            stages["rdf.ntriples.parse_s"] = clock() - started
            started = clock()
            graph = Graph(triples=triples)
            stages["store.index.ingest_s"] = clock() - started
            stages["store.index.ingest_triples_per_s"] = (
                len(graph) / stages["store.index.ingest_s"])
            del triples
    started = clock()
    index = TextIndex.from_graph(graph)
    built = clock()
    endpoint = Endpoint(graph, text_index=index)
    vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
    if stages is not None:
        stages["store.text_index.build_s"] = built - started
        stages["core.virtual_graph.bootstrap_s"] = clock() - built
        stages["core.virtual_graph.bootstrap_selects"] = float(
            endpoint.stats.select_queries)
    warm_synthesis(endpoint, vgraph, run.warmups[0])
    return Store(graph, endpoint, vgraph)


def script_pass(run: Run, store: Store, scripts: list[dict], *,
                traced: bool = False, warm: bool = True) -> Pass:
    """One client walking ``scripts`` through ``ExplorationSession``."""
    result = Pass()
    tracer = Tracer() if traced else None
    endpoint = store.endpoint
    if traced:
        endpoint = RecordingEndpoint(store.endpoint, tracer)
        result.tracers.append(tracer)
        result.info["recorder"] = endpoint
    sampler = Reservoir(run.seed)
    exact = run.workload.one_to_n
    if warm:
        for script in run.warmups:
            session = drivers.InprocSession(store.endpoint, store.vgraph)
            for _ in drivers.script_steps(session, script, run.accept,
                                          exact_resum=exact):
                pass
    result.info["endpoint_before"] = store.endpoint.stats.snapshot()
    deadline = run.deadline()
    for script in scripts:
        if time.perf_counter() > deadline:
            result.truncated = True
            break
        if tracer is not None:
            tracer.script = script["index"]
        session = drivers.InprocSession(endpoint, store.vgraph, tracer)
        for step in drivers.script_steps(session, script, run.accept,
                                         exact_resum=exact):
            result.take(step, sampler)
    result.info["endpoint_after"] = store.endpoint.stats.snapshot()
    # one client, no think time: the phase is the sum of its steps
    result.wall = sum(step.seconds for step in result.steps)
    result.operations = len(result.steps)
    result.oracle = sampler.sample
    return result


# -- over HTTP ----------------------------------------------------------------


def start_server(run: Run) -> drivers.ServerChild:
    """Restart-to-ready: spawn, mmap the snapshot, bootstrap, first synth."""
    child = drivers.ServerChild(run.snapshot_path, run.env)
    try:
        child.wait_ready()
        client = drivers.HttpClient(child.host, child.port, "setup")
        session = drivers.HttpSession(client)  # forces the bootstrap
        step = session.synthesize(run.warmups[0]["example"])  # the text index
        if not step.ok:
            raise RuntimeError(f"warm-up synthesis failed: {step.note}")
        session.close()
        client.close()
    except BaseException:
        child.stop()
        raise
    return child


def zipf_sessions(count: int) -> list[int]:
    """``count`` draws from ``2 * count`` scripts, Zipf(1.0) by script index.

    A pool twice the number of draws makes about half of the sessions a
    repeat of an earlier one, whatever ``--seconds`` is.  Which sessions
    repeat is part of the traffic's shape, the same for every seed.
    """
    rng = random.Random("sessions")
    weights = [1.0 / (rank + 1) for rank in range(2 * count)]
    return rng.choices(range(2 * count), weights=weights, k=count)


def http_pass(run: Run, child: drivers.ServerChild, sessions: list[int], *,
              traced: bool = False, clients: int = 2) -> Pass:
    """``clients`` keep-alive tenants walking ``sessions`` (script indexes)."""
    result = Pass()
    scripts = run.scripts
    exact = run.workload.one_to_n
    warm = drivers.HttpClient(child.host, child.port, "warmup")
    for script in run.warmups:
        session = drivers.HttpSession(warm)
        for _ in drivers.script_steps(session, script, run.accept,
                                      exact_resum=exact):
            pass
        session.close()
    _, before, _ = warm.request("GET", "/stats")
    deadline = run.deadline()
    lock = threading.Lock()
    samplers = [Reservoir(run.seed + c) for c in range(clients)]
    errors: list[BaseException] = []

    def tenant(number: int) -> None:
        tracer = Tracer() if traced else None
        client = drivers.HttpClient(child.host, child.port, f"tenant-{number}")
        mine: list = []
        try:
            for index in sessions[number::clients]:
                if time.perf_counter() > deadline:
                    result.truncated = True
                    break
                if tracer is not None:
                    tracer.script = index
                session = drivers.HttpSession(client, tracer)
                for step in drivers.script_steps(
                        session, scripts[index], run.accept, exact_resum=exact):
                    mine.append(step)
                    if step.table is not None:
                        samplers[number].offer(step)
                session.close()
        except BaseException as error:  # surfaced after the join
            errors.append(error)
        finally:
            client.close()
            with lock:
                result.steps.extend(mine)
                if tracer is not None:
                    result.tracers.append(tracer)

    threads = [threading.Thread(target=tenant, args=(c,)) for c in range(clients)]
    cpu_before = time.process_time()
    server_cpu_before = child.cpu_seconds()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    result.operations = len(result.steps)
    result.info["client_cpu_share"] = (
        (time.process_time() - cpu_before) / result.wall)
    result.info["server_cpu_share"] = (
        (child.cpu_seconds() - server_cpu_before) / result.wall)
    _, after, _ = warm.request("GET", "/stats")
    result.info["stats_before"] = json.loads(before)
    result.info["stats_after"] = json.loads(after)
    if traced:
        result.info["probes"] = server_probes(warm)
    warm.close()
    result.peak_rss_mb = child.peak_rss_mb()
    # a repeated session must get, byte for byte, what the first one got
    first: dict[tuple, str] = {}
    for step in result.steps:
        key = (step.script, step.slot, step.kind, step.attempt)
        if first.setdefault(key, step.body_digest) != step.body_digest:
            step.fail("a repeated step's answer differs from the first")
    result.oracle = [s for sampler in samplers for s in sampler.sample][:ORACLE_STEPS]
    return result


def server_probes(client: drivers.HttpClient, repeats: int = 60) -> dict:
    """Floors of the request path: liveness, and a cached trivial ASK."""
    ask = "/sparql?" + urllib.parse.urlencode(
        {"query": f"ASK {{ ?o a {OBSERVATION_CLASS.n3()} }}"})
    client.request("GET", ask)  # fills the cache
    probes = {}
    for name, path in (("healthz", "/healthz"), ("cached_ask", ask)):
        times = []
        for _ in range(repeats):
            status, _, seconds = client.request("GET", path)
            if status != 200:
                raise RuntimeError(f"probe {path} -> {status}")
            times.append(seconds)
        probes[name] = times
    return probes


# -- the write mix --------------------------------------------------------------


class DurableStore:
    """write_mix set-up: open + seed ``add_all`` + checkpoint + index + bootstrap."""

    def __init__(self, run: Run, triples: list):
        manifest = run.manifest
        self.triples = triples
        self.per_observation = manifest["obs_triples"]
        self.seeded = int(manifest["observations"] * WRITE_SEED_SHARE)
        self.unseeded = manifest["observations"] - self.seeded
        self.cut = manifest["obs_start"] + self.seeded * self.per_observation
        # scripts whose example observation is in the seed: their members
        # are reachable from the first moment on
        usable = [s for s in run.scripts if s["observation"] < self.seeded]
        self.scripts = usable[:-WARMUP_SCRIPTS]
        self.warmups = usable[-WARMUP_SCRIPTS:]
        self.directory = os.path.join(
            run.work_dir, f"durable-{time.monotonic_ns()}")
        self.graph = Graph.open_durable(self.directory, fsync=True)
        try:
            self.graph.add_all(triples[:self.cut])
            self.graph.checkpoint()
            self.endpoint = Endpoint(
                self.graph, text_index=TextIndex.from_graph(self.graph),
                cache=QueryCache())
            self.vgraph = VirtualSchemaGraph.bootstrap(
                self.endpoint, OBSERVATION_CLASS)
            warm_synthesis(self.endpoint, self.vgraph, self.warmups[0])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        self.graph.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def load_triples(run: Run) -> list:
    """The triple stream in generation order (observations last)."""
    with open(run.nt_path, encoding="utf-8") as source:
        return list(parse_ntriples(source))


def write_pass(run: Run, store: DurableStore, batches: int, *,
               traced: bool = False) -> Pass:
    """Batches of new observations interleaved with reads, then recovery.

    One thread on purpose: WAL bytes, syncs and checkpoints then repeat
    exactly.  After every batch the running script does two read steps on a
    cache-enabled endpoint (the first meets a fresh delta buffer and an
    invalidated cache), with a checkpoint every 50 batches (sooner in a
    short pass, so that there are always at least 3 cycles); at the end the
    store is closed, reopened and must hold exactly what was acknowledged.
    Consumes ``store``.
    """
    result = Pass()
    graph, triples, cut = store.graph, store.triples, store.cut
    batches = min(batches, store.unseeded)
    batch_triples = (store.unseeded // batches) * store.per_observation
    checkpoint_every = max(1, min(WRITE_CHECKPOINT_EVERY, batches // 3))
    try:
        tracer = Tracer() if traced else None
        endpoint = store.endpoint
        if traced:
            endpoint = RecordingEndpoint(store.endpoint, tracer)
            result.tracers.append(tracer)
            result.info["recorder"] = endpoint
        probe = Endpoint(graph)  # uncached: sees the delta merge alone
        sampler = Reservoir(run.seed)

        def walk(scripts, session_endpoint, session_tracer):
            for script in scripts:
                if session_tracer is not None:
                    session_tracer.script = script["index"]
                session = drivers.InprocSession(
                    session_endpoint, store.vgraph, session_tracer)
                yield from drivers.script_steps(
                    session, script, run.accept,
                    exact_resum=run.workload.one_to_n, invariants=False)

        for _ in walk(store.warmups, store.endpoint, None):
            pass
        stream = walk(itertools.cycle(store.scripts), endpoint, tracer)
        result.info["endpoint_before"] = store.endpoint.stats.snapshot()
        durability_before = graph.durability_stats()
        acks, checkpoints, penalties = [], [], []
        acknowledged = 0
        deadline = run.deadline()
        for batch in range(batches):
            if time.perf_counter() > deadline:
                result.truncated = True
                break
            chunk = triples[cut + batch * batch_triples:
                            cut + (batch + 1) * batch_triples]
            started = time.perf_counter()
            acknowledged += graph.add_all(chunk)
            acks.append(time.perf_counter() - started)
            if traced:
                first = time.perf_counter()
                probe.select(COUNT_OBSERVATIONS)
                second = time.perf_counter()
                probe.select(COUNT_OBSERVATIONS)
                penalties.append((second - first) - (time.perf_counter() - second))
            for _ in range(WRITE_READS_PER_BATCH):
                result.take(next(stream), sampler)
            if (batch + 1) % checkpoint_every == 0:
                started = time.perf_counter()
                graph.checkpoint()
                checkpoints.append(time.perf_counter() - started)
        durability_after = graph.durability_stats()
        result.info["endpoint_after"] = store.endpoint.stats.snapshot()
        expected_triples = len(graph)
    finally:
        graph.close()

    result.wall = (sum(step.seconds for step in result.steps)
                   + sum(acks) + sum(checkpoints))
    result.operations = len(result.steps) + len(acks)
    started = time.perf_counter()
    recovered = Graph.open_durable(store.directory, fsync=True)
    recovery_s = time.perf_counter() - started
    try:
        result.check(len(recovered) == expected_triples == cut + acknowledged,
                     f"recovered {len(recovered)} triples, acknowledged "
                     f"{cut + acknowledged}")
        counted = Endpoint(recovered).select(COUNT_OBSERVATIONS)
        seen = int(counted.rows[0][0].lexical) * store.per_observation
        result.check(seen == acknowledged + store.seeded * store.per_observation,
                     f"COUNT sees {seen} observation triples after recovery")
        oracle_check(result, recovered, sampler.sample, recompute=True)
        replayed = recovered.durability_stats()["recovery"]["replayed_records"]
    finally:
        recovered.close()
        store.stop()
    result.info["write"] = {
        "acks": acks,
        "checkpoints": checkpoints,
        "penalties": penalties,
        "acknowledged": acknowledged,
        "batch_triples": batch_triples,
        "recovery_s": recovery_s,
        "replayed_records": replayed,
        "wal_bytes": (durability_after["wal_bytes"]
                      - durability_before["wal_bytes"]),
        "wal_syncs": (durability_after["wal_syncs"]
                      - durability_before["wal_syncs"]),
    }
    return result


def repeat_setups(setup, repeats: int):
    """Run ``setup`` ``repeats`` times; the last state and every duration.

    Earlier states are dropped (and collected) before the next set-up, so
    peak memory is that of one store, not of all of them.
    """
    durations = []
    state = None
    for _ in range(repeats):
        if hasattr(state, "stop"):
            state.stop()
        state = None
        gc.collect()
        started = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - started)
    return state, durations
