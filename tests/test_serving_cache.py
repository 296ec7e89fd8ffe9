"""Serving cache: LRU/TTL mechanics, epoch invalidation, cached == uncached.

The load-bearing property is at the bottom: over a randomized interleaving
of queries and graph mutations, a cached endpoint and an uncached endpoint
sharing the same graph must return identical results at every step — i.e.
the epoch counter makes stale cache entries unreachable the moment the
graph changes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Literal
from repro.rdf.triple import Triple
from repro.serving import MISS, LRUCache, QueryCache, timeout_class
from repro.store import Dataset, Endpoint, Graph, GraphView


def triple(i: int, p: str = "p", o: str | None = None) -> Triple:
    return Triple(IRI(f"urn:s{i}"), IRI(f"urn:{p}"), Literal(o or str(i)))


def small_graph(n: int = 20) -> Graph:
    return Graph(triples=[triple(i) for i in range(n)])


# ---------------------------------------------------------------------------
# LRUCache mechanics
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_falsy_values_are_cacheable(self):
        cache = LRUCache(maxsize=4)
        cache.put("ask", False)
        cache.put("empty", [])
        assert cache.get("ask") is False
        assert cache.get("empty") == []

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a" → "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.stats.evictions == 0

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = LRUCache(maxsize=4, ttl=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 5.0
        assert cache.get("a") == 1
        now[0] = 10.0
        assert cache.get("a") is MISS
        assert cache.stats.expirations == 1

    def test_invalidate_and_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUCache(maxsize=1, ttl=0)

    def test_hit_rate(self):
        cache = LRUCache(maxsize=4)
        assert cache.stats.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_newer_epoch_purges_older_entries_of_its_graph(self):
        cache = LRUCache(maxsize=8, version=lambda key: key[1])
        for text in "abc":
            cache.put((text, ("g1", 1)), text)
        cache.put(("a", ("g2", 1)), "other graph")
        cache.put(("a", ("g1", 2)), "new")
        # Only the dead epoch's entries went, counted as expirations.
        assert len(cache) == 2
        assert cache.stats.expirations == 3 and cache.stats.evictions == 0
        assert cache.get(("a", ("g2", 1))) == "other graph"
        # A late put for the superseded epoch is ignored.
        cache.put(("b", ("g1", 1)), "late")
        assert cache.get(("b", ("g1", 1))) is MISS
        assert len(cache) == 2


class TestQueryCacheKeys:
    def test_timeout_class_buckets(self):
        assert timeout_class(None) == "none"
        assert timeout_class(1.5) == "1.500"
        assert timeout_class(1.5001) == "1.500"
        assert timeout_class(2.0) != timeout_class(None)

    def test_result_keys_distinguish_kind_epoch_timeout(self):
        cache = QueryCache()
        base = cache.result_key("Q", 1, None, "select")
        assert cache.result_key("Q", 2, None, "select") != base
        assert cache.result_key("Q", 1, None, "ask") != base
        assert cache.result_key("Q", 1, 5.0, "select") != base
        assert cache.result_key("Q", 1, None, "select") == base


# ---------------------------------------------------------------------------
# Epoch counters
# ---------------------------------------------------------------------------


class TestEpoch:
    def test_add_bumps_duplicate_does_not(self):
        g = Graph()
        assert g.epoch == 0
        assert g.add(triple(1))
        assert g.epoch == 1
        assert not g.add(triple(1))  # duplicate
        assert g.epoch == 1

    def test_remove_bumps_absent_does_not(self):
        g = Graph(triples=[triple(1)])
        before = g.epoch
        assert g.remove(triple(1))
        assert g.epoch == before + 1
        assert not g.remove(triple(99))
        assert g.epoch == before + 1

    def test_bulk_load_bumps(self):
        g = Graph()
        g.add_all(triple(i) for i in range(7))
        assert g.epoch == 7

    def test_graph_view_epoch_aggregates_members(self):
        a, b = small_graph(3), small_graph(3)
        view = GraphView([a, b])
        before = view.epoch
        b.add(triple(99))
        assert view.epoch == before + 1

    def test_dataset_epoch_covers_named_graphs(self):
        ds = Dataset()
        before = ds.epoch
        ds.graph(IRI("urn:g1")).add(triple(1))
        ds.default_graph.add(triple(2))
        assert ds.epoch == before + 2


# ---------------------------------------------------------------------------
# Endpoint + cache integration
# ---------------------------------------------------------------------------

SELECT_ALL = "SELECT ?s ?o WHERE { ?s <urn:p> ?o }"
ASK_SOME = "ASK { <urn:s3> <urn:p> ?o }"
CONSTRUCT_COPY = "CONSTRUCT { ?s <urn:q> ?o } WHERE { ?s <urn:p> ?o }"


class TestEndpointCache:
    def test_select_hit_returns_equal_independent_result(self):
        ep = Endpoint(small_graph(), cache=QueryCache())
        first = ep.select(SELECT_ALL)
        second = ep.select(SELECT_ALL)
        assert first == second
        assert ep.stats.cache_hits == 1
        # Mutating the returned copy must not poison the cache.
        second.rows.clear()
        assert ep.select(SELECT_ALL) == first

    def test_ask_and_construct_are_cached(self):
        ep = Endpoint(small_graph(), cache=QueryCache())
        assert ep.ask(ASK_SOME) is ep.ask(ASK_SOME) is True
        g1 = ep.construct(CONSTRUCT_COPY)
        g2 = ep.construct(CONSTRUCT_COPY)
        assert ep.stats.cache_hits == 2
        assert sorted(g1.triples()) == sorted(g2.triples())
        # Each hit materializes a private graph.
        g2.add(triple(500, p="q"))
        assert sorted(ep.construct(CONSTRUCT_COPY).triples()) == sorted(g1.triples())

    def test_construct_counts_its_own_counter(self):
        ep = Endpoint(small_graph())
        ep.construct(CONSTRUCT_COPY)
        assert ep.stats.construct_queries == 1
        assert ep.stats.select_queries == 0
        assert ep.stats.total_queries == 1
        ep.stats.reset()
        assert ep.stats.construct_queries == 0
        assert ep.stats.total_queries == 0

    def test_mutation_invalidates_select(self):
        g = small_graph()
        ep = Endpoint(g, cache=QueryCache())
        before = ep.select(SELECT_ALL)
        g.add(triple(100))
        after = ep.select(SELECT_ALL)
        assert len(after) == len(before) + 1

    def test_mutation_invalidates_ask_and_construct(self):
        g = Graph(triples=[triple(3)])
        ep = Endpoint(g, cache=QueryCache())
        assert ep.ask(ASK_SOME) is True
        assert len(ep.construct(CONSTRUCT_COPY)) == 1
        g.remove(triple(3))
        assert ep.ask(ASK_SOME) is False
        assert len(ep.construct(CONSTRUCT_COPY)) == 0

    def test_keyword_resolution_cached_by_epoch(self):
        g = small_graph()
        ep = Endpoint(g, cache=QueryCache())
        first = ep.resolve_keyword("3")
        assert ep.resolve_keyword("3") == first
        assert ep.stats.cache_hits == 1
        g.add(triple(200, o="3"))
        ep.refresh_text_index()
        wider = ep.resolve_keyword("3")
        assert len(wider) == len(first) + 1

    def test_uncacheable_graph_without_epoch_still_works(self):
        class Bare:
            """Graph stand-in with no epoch attribute."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == "epoch":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        ep = Endpoint(Bare(small_graph()), cache=QueryCache())
        assert ep.select(SELECT_ALL) == ep.select(SELECT_ALL)
        assert ep.stats.cache_hits == 0  # nothing cached, nothing wrong


# ---------------------------------------------------------------------------
# Property: cached and uncached endpoints agree under arbitrary workloads
# ---------------------------------------------------------------------------

QUERY_POOL = (
    SELECT_ALL,
    ASK_SOME,
    "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
    "ASK { <urn:missing> <urn:p> ?o }",
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, len(QUERY_POOL) - 1)),
        st.tuples(st.just("add"), st.integers(0, 12)),
        st.tuples(st.just("remove"), st.integers(0, 12)),
    ),
    max_size=30,
)


def epochs_held(cache: QueryCache) -> set:
    """The graph epochs of every entry in the versioned tiers."""
    return ({key[1][1] for key in cache.results._data}
            | {key[2][1] for key in cache.keywords._data})


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_cached_equals_uncached_over_random_workloads(ops):
    graph = small_graph(8)
    cached = Endpoint(graph, cache=QueryCache(max_results=16))
    uncached = Endpoint(graph)
    for op, arg in ops:
        if op == "add":
            graph.add(triple(arg))
        elif op == "remove":
            graph.remove(triple(arg))
        else:
            text = QUERY_POOL[arg]
            assert cached.query(text) == uncached.query(text)
            # A query after a mutation stores the new epoch, which drops
            # every entry of the old one.
            assert epochs_held(cached.cache) == {graph.epoch}
    # Final sweep: every pool query agrees after all mutations.
    for text in QUERY_POOL:
        assert cached.query(text) == uncached.query(text)
    assert epochs_held(cached.cache) == {graph.epoch}
