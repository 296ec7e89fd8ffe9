"""Spans recorded from the benchmark's side of every layer boundary.

A span is ``(id, name, start, end, parent, script, step)``.  Spans stay in
memory and are written out when the run ends.  A layer's *self time* is its
spans' duration minus the part their child spans cover, so the self times of
everything under a step add up to the step's wall time.

:class:`RecordingEndpoint` is the proxy handed to ``ExplorationSession`` in
place of the ``Endpoint``: it puts a span around each call into the store
and remembers every distinct SELECT for the stage-by-stage replay.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.store.endpoint import DEFAULT_TIMEOUT, Endpoint


class Tracer:
    """Span recorder for one thread of control; ``None`` parents are roots."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.script = -1
        self.step = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent,
                  self.script, self.step]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """One JSON object per span; ids are made unique across the tracers."""
    offset = 0
    with open(path, "w", encoding="utf-8") as out:
        for tracer in tracers:
            for sid, name, start, end, parent, script, step in tracer.spans:
                out.write(json.dumps({
                    "id": sid + offset, "name": name, "start": start,
                    "end": end,
                    "parent": None if parent is None else parent + offset,
                    "script": script, "step": step}) + "\n")
            offset += len(tracer.spans)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for sid, _name, start, end, parent, _script, _step in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {span[0]: (span[3] - span[2]) - covered.get(span[0], 0.0)
            for span in spans}


def layer_of(name: str) -> str:
    """``core.refine.topk.propose`` -> ``core.refine.topk``; steps stay apart."""
    if name.startswith("step:"):
        return "benchmark.step"
    return name.rsplit(".", 1)[0]


def rank_layers(spans: list[list]) -> list[tuple[str, float, int]]:
    """``(layer, self seconds, spans)`` by decreasing self time."""
    own = self_times(spans)
    totals: dict[str, list] = {}
    for span in spans:
        entry = totals.setdefault(layer_of(span[1]), [0.0, 0])
        entry[0] += own[span[0]]
        entry[1] += 1
    return sorted(((layer, t, n) for layer, (t, n) in totals.items()),
                  key=lambda item: -item[1])


class RecordingEndpoint:
    """Endpoint proxy: one span per store call, distinct SELECTs remembered."""

    def __init__(self, inner: Endpoint, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.selects: dict = {}  # distinct query -> rows of its first answer
        self.rows = 0  # rows returned by all SELECTs
        self.asks = 0

    # what the analytics layer reads directly off an endpoint
    @property
    def graph(self):
        return self._inner.graph

    @property
    def stats(self):
        return self._inner.stats

    @property
    def default_timeout(self):
        return self._inner.default_timeout

    @property
    def cache(self):
        return self._inner.cache

    @property
    def text_index(self):
        return self._inner.text_index

    def select(self, query, timeout=DEFAULT_TIMEOUT):
        with self._tracer.span("store.endpoint.select"):
            result = self._inner.select(query, timeout=timeout)
        self.selects.setdefault(query, len(result))
        self.rows += len(result)
        return result

    def ask(self, query, timeout=DEFAULT_TIMEOUT):
        self.asks += 1
        with self._tracer.span("store.endpoint.ask"):
            return self._inner.ask(query, timeout=timeout)

    def ask_batch(self, queries, timeout=DEFAULT_TIMEOUT):
        self.asks += len(queries)
        with self._tracer.span("store.endpoint.ask_batch"):
            return self._inner.ask_batch(queries, timeout=timeout)

    def resolve_keyword(self, keyword, exact=True):
        with self._tracer.span("store.text_index.lookup"):
            return self._inner.resolve_keyword(keyword, exact=exact)

    # Endpoint's probe logic calls self.ask / self.select, i.e. this proxy.
    is_non_empty = Endpoint.is_non_empty
