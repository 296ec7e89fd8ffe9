"""Unit tests for the query builder, the endpoint facade, and the
endpoint's read-write lock."""

import sys
import threading
import time

import pytest

from repro.errors import QueryTimeoutError, SPARQLSyntaxError
from repro.rdf import IRI, Literal, Triple, Variable, literal_from_python
from repro.serving import QueryCache
from repro.sparql import SelectBuilder, agg, parse_query, path, var
from repro.store import Endpoint, Graph, TextIndex
from repro.store.endpoint import RWLock

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


@pytest.fixture
def graph():
    g = Graph()
    for index in range(6):
        g.add(Triple(iri(f"obs{index}"), iri("dim"), iri(f"m{index % 2}")))
        g.add(Triple(iri(f"obs{index}"), iri("val"), literal_from_python(index * 10)))
    g.add(Triple(iri("m0"), iri("label"), Literal("Member Zero")))
    g.add(Triple(iri("m1"), iri("label"), Literal("Member One")))
    return g


class TestSelectBuilder:
    def test_basic_query(self, graph):
        q = (SelectBuilder()
             .select(var("m"))
             .where(var("o"), iri("dim"), var("m"))
             .distinct()
             .build())
        rs = Endpoint(graph).select(q)
        assert len(rs) == 2

    def test_aggregate_with_group_by(self, graph):
        q = (SelectBuilder()
             .select(var("m"))
             .select_agg("SUM", var("v"), var("total"))
             .where(var("o"), iri("dim"), var("m"))
             .where(var("o"), iri("val"), var("v"))
             .group_by(var("m"))
             .order_by(var("total"), ascending=False)
             .build())
        rs = Endpoint(graph).select(q)
        totals = [row[1].to_python() for row in rs]
        assert totals == sorted(totals, reverse=True)

    def test_where_path(self, graph):
        q = (SelectBuilder()
             .select(var("l"))
             .where_path(var("o"), [iri("dim"), iri("label")], var("l"))
             .distinct()
             .build())
        rs = Endpoint(graph).select(q)
        assert {row[0].lexical for row in rs} == {"Member Zero", "Member One"}

    def test_filters(self, graph):
        q = (SelectBuilder()
             .select(var("o"))
             .where(var("o"), iri("val"), var("v"))
             .filter_range(var("v"), low=20, high=40)
             .build())
        rs = Endpoint(graph).select(q)
        assert len(rs) == 3

    def test_filter_range_exclusive(self, graph):
        q = (SelectBuilder()
             .select(var("o"))
             .where(var("o"), iri("val"), var("v"))
             .filter_range(var("v"), low=20, high=40,
                           low_inclusive=False, high_inclusive=False)
             .build())
        assert len(Endpoint(graph).select(q)) == 1

    def test_filter_range_requires_bound(self):
        with pytest.raises(ValueError):
            SelectBuilder().filter_range(var("v"))

    def test_filter_in_and_equals(self, graph):
        q = (SelectBuilder()
             .select(var("o"))
             .where(var("o"), iri("dim"), var("m"))
             .filter_in(var("m"), [iri("m0")])
             .build())
        assert len(Endpoint(graph).select(q)) == 3
        q2 = (SelectBuilder()
              .select(var("o"))
              .where(var("o"), iri("val"), var("v"))
              .filter_equals(var("v"), 30)
              .build())
        assert len(Endpoint(graph).select(q2)) == 1

    def test_values(self, graph):
        q = (SelectBuilder()
             .select(var("o"))
             .values([var("m")], [[iri("m1")]])
             .where(var("o"), iri("dim"), var("m"))
             .build())
        assert len(Endpoint(graph).select(q)) == 3

    def test_limit_offset_validation(self):
        with pytest.raises(ValueError):
            SelectBuilder().limit(-1)
        with pytest.raises(ValueError):
            SelectBuilder().offset(-1)

    def test_built_query_roundtrips(self, graph):
        q = (SelectBuilder()
             .select(var("m"))
             .select_agg("AVG", var("v"), var("a"), distinct=True)
             .where(var("o"), iri("dim"), var("m"))
             .where(var("o"), iri("val"), var("v"))
             .group_by(var("m"))
             .limit(5)
             .build())
        text = q.to_sparql()
        assert parse_query(text).to_sparql() == text

    def test_path_helper(self):
        assert path(iri("a")) == iri("a")
        two = path(iri("a"), iri("b"))
        assert two.to_sparql() == f"<{EX}a> / <{EX}b>"
        with pytest.raises(ValueError):
            path()

    def test_agg_helper(self):
        assert agg("COUNT").to_sparql() == "COUNT(*)"
        assert agg("sum", var("v")).to_sparql() == "SUM(?v)"


class TestEndpoint:
    def test_query_text_dispatch(self, graph):
        endpoint = Endpoint(graph)
        rs = endpoint.query(f"SELECT ?o WHERE {{ ?o <{EX}dim> <{EX}m0> }}")
        assert len(rs) == 3
        assert endpoint.query(f"ASK {{ ?o <{EX}dim> <{EX}m0> }}") is True

    def test_stats_counters(self, graph):
        endpoint = Endpoint(graph)
        endpoint.query(f"SELECT ?o WHERE {{ ?o <{EX}dim> ?m }}")
        endpoint.query(f"ASK {{ ?o <{EX}dim> ?m }}")
        endpoint.resolve_keyword("Member Zero")
        assert endpoint.stats.select_queries == 1
        assert endpoint.stats.ask_queries == 1
        assert endpoint.stats.keyword_lookups == 1
        assert endpoint.stats.total_queries == 2
        endpoint.stats.reset()
        assert endpoint.stats.total_queries == 0

    def test_default_timeout_applies(self, graph):
        endpoint = Endpoint(graph, default_timeout=-1.0)
        with pytest.raises(QueryTimeoutError):
            endpoint.select(f"SELECT ?o ?p ?x WHERE {{ ?o ?p ?x }}")
        assert endpoint.stats.timeouts == 1

    def test_per_call_timeout_overrides(self, graph):
        endpoint = Endpoint(graph, default_timeout=-1.0)
        rs = endpoint.select(f"SELECT ?o WHERE {{ ?o <{EX}dim> ?m }}", timeout=30)
        assert len(rs) == 6

    def test_is_non_empty(self, graph):
        endpoint = Endpoint(graph)
        q = parse_query(
            f"SELECT ?m (SUM(?v) AS ?t) WHERE {{ ?o <{EX}dim> ?m . "
            f"?o <{EX}val> ?v }} GROUP BY ?m"
        )
        assert endpoint.is_non_empty(q)
        empty = parse_query(
            f"SELECT ?m WHERE {{ ?o <{EX}dim> <{EX}nothere> . ?o <{EX}dim> ?m }}"
        )
        assert not endpoint.is_non_empty(empty)

    def test_is_non_empty_respects_having(self, graph):
        endpoint = Endpoint(graph)
        q = parse_query(
            f"SELECT ?m (SUM(?v) AS ?t) WHERE {{ ?o <{EX}dim> ?m . "
            f"?o <{EX}val> ?v }} GROUP BY ?m HAVING (SUM(?v) > 100000)"
        )
        assert not endpoint.is_non_empty(q)

    def test_refresh_text_index(self, graph):
        endpoint = Endpoint(graph)
        assert endpoint.resolve_keyword("Member Zero")
        graph.add(Triple(iri("m2"), iri("label"), Literal("Member Two")))
        assert not endpoint.resolve_keyword("Member Two")  # stale index
        endpoint.refresh_text_index()
        assert endpoint.resolve_keyword("Member Two")

    def test_injected_text_index(self, graph):
        index = TextIndex.from_graph(graph)
        endpoint = Endpoint(graph, text_index=index)
        assert endpoint.text_index is index


class TestRWLock:
    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        reader1_in = threading.Event()
        release_reader1 = threading.Event()
        late_reader_entered = threading.Event()

        def first_reader():
            with lock.read_locked():
                order.append("reader1-in")
                reader1_in.set()
                release_reader1.wait(timeout=5)

        def writer():
            with lock.write_locked():
                order.append("writer-in")

        def late_reader():
            with lock.read_locked():
                order.append("reader2-in")
                late_reader_entered.set()

        t_reader = threading.Thread(target=first_reader)
        t_writer = threading.Thread(target=writer)
        t_reader.start()
        assert reader1_in.wait(timeout=5)  # reader1 holds the lock
        t_writer.start()
        while lock._writers_waiting == 0:  # writer queued behind reader1
            pass
        t_late = threading.Thread(target=late_reader)
        t_late.start()
        # Writer preference: with reader1 still holding and the writer
        # queued, reader2 must not slip in ahead of the writer.
        assert not late_reader_entered.wait(timeout=0.15)
        release_reader1.set()
        for thread in (t_reader, t_writer, t_late):
            thread.join(timeout=5)
        assert order == ["reader1-in", "writer-in", "reader2-in"]

    def test_writer_excludes_readers(self):
        lock = RWLock()
        log = []

        def reader(delay):
            with lock.read_locked():
                log.append("r-in")
                time.sleep(delay)
                log.append("r-out")

        def writer():
            with lock.write_locked():
                log.append("w")

        threads = [threading.Thread(target=reader, args=(0.05,)) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.01)  # let readers enter
        w = threading.Thread(target=writer)
        w.start()
        for t in threads + [w]:
            t.join(timeout=5)
        # The writer ran strictly after every in-flight reader left.
        assert log.index("w") > max(i for i, e in enumerate(log) if e == "r-out") - 1
        assert log.count("r-in") == 3 and log.count("w") == 1

    def test_stress_no_starvation_and_exclusion(self):
        lock = RWLock()
        state = {"value": 0}
        violations = []
        n_writers, n_readers, rounds = 3, 6, 60

        def writer(seed):
            for _ in range(rounds):
                with lock.write_locked():
                    before = state["value"]
                    state["value"] = before + 1  # non-atomic without the lock

        def reader(seed):
            for _ in range(rounds):
                with lock.read_locked():
                    value = state["value"]
                    if value != state["value"]:  # a writer ran concurrently
                        violations.append(value)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
        threads += [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)  # no deadlock
        assert not violations
        assert state["value"] == n_writers * rounds  # no lost writer updates

    def test_write_lock_protects_counter(self):
        lock = RWLock()
        state = {"n": 0}

        def bump():
            for _ in range(200):
                with lock.write_locked():
                    current = state["n"]
                    time.sleep(0)  # force interleaving opportunity
                    state["n"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert state["n"] == 800


class TestEndpointLocking:
    """The endpoint as its own lock owner, with no serving layer in front."""

    DIM_Q = f"SELECT ?o ?m WHERE {{ ?o <{EX}dim> ?m }}"
    BATCH = 5

    def test_readers_never_see_half_a_mutate(self, graph):
        endpoint = Endpoint(graph, cache=QueryCache())
        torn = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                rows = len(endpoint.select(self.DIM_Q))
                if (rows - 6) % self.BATCH:
                    torn.append(rows)

        def add_batch(g, batch):
            # One triple per add: without the write lock a reader could
            # land between any two of them.
            for i in range(batch * self.BATCH, (batch + 1) * self.BATCH):
                g.add(Triple(iri(f"new{i}"), iri("dim"), iri("m0")))

        def writer():
            for batch in range(30):
                endpoint.mutate(lambda g, batch=batch: add_batch(g, batch))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            mutator = threading.Thread(target=writer)
            mutator.start()
            mutator.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not torn
        # Quiesced: the cached answer equals a fresh uncached evaluation.
        endpoint.select(self.DIM_Q)
        hits = endpoint.stats.cache_hits
        cached = endpoint.select(self.DIM_Q)
        assert endpoint.stats.cache_hits == hits + 1
        assert cached == Endpoint(graph).select(self.DIM_Q)
        assert len(cached) == 6 + 30 * self.BATCH

    def test_leaves_record_latency_and_errors(self, graph):
        endpoint = Endpoint(graph)
        endpoint.select(self.DIM_Q)
        endpoint.ask(f"ASK {{ ?o <{EX}dim> <{EX}m0> }}")
        endpoint.ask(f"ASK {{ ?o <{EX}dim> <{EX}none> }}")
        endpoint.resolve_keyword("Member Zero")
        with pytest.raises(QueryTimeoutError):
            endpoint.select(self.DIM_Q, timeout=0)
        with pytest.raises(SPARQLSyntaxError):
            endpoint.select("SELECT ?x WHERE { broken")
        stats = endpoint.stats.snapshot()
        assert len(stats.latencies) == 6  # one per leaf call
        assert stats.errors == 2 and stats.timeouts == 1
        endpoint.stats.reset()
        assert endpoint.stats.errors == 0 and not endpoint.stats.latencies
