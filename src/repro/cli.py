"""Command-line interface: exploration shell, one-shot queries, serving.

Three entry points share one data-loading pipeline:

* the interactive exploration shell (the default, mirroring the paper's
  server + UI deployment at REPL scale)::

      python -m repro --dataset eurostat --observations 2000 --scale 0.4

* one-shot query execution with a wire-format flag::

      python -m repro query "SELECT ..." --format csv

* the SPARQL-protocol HTTP server (see :mod:`repro.server`)::

      python -m repro serve --port 8080 --workers 8 --quota-rate 50

Commands inside the shell::

    find <v1>, <v2>, ...   synthesize queries from example values
    pick <n>               choose candidate n and run it
    show [n]               print up to n rows of the current results
    sparql                 print the current query's SPARQL text
    refine <kind>          list (ranked) refinements: disaggregate,
                           topk, percentile, similarity
    apply <kind> <n>       apply refinement n of that kind
    back                   backtrack one step
    profile                print the dataset profile
    help / quit

The shell is a thin, testable layer: every command is handled by
:meth:`ExplorerShell.handle`, which returns the text to print.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from .core import (
    ExplorationSession,
    VirtualSchemaGraph,
    contrast,
    insight_summary,
    labeled_results,
    profile,
    rank_refinements,
    to_markdown,
)
from .datasets import generate_dbpedia, generate_eurostat, generate_production
from .errors import ReproError
from .qb import OBSERVATION_CLASS
from .rdf import IRI
from .resilience import with_resilience
from .serving import QueryCache, QueryService
from .store import Endpoint, Graph

__all__ = ["ExplorerShell", "build_endpoint", "main"]

_GENERATORS = {
    "eurostat": generate_eurostat,
    "production": generate_production,
    "dbpedia": generate_dbpedia,
}


def build_endpoint(args: argparse.Namespace) -> tuple[Endpoint, IRI]:
    """Construct the endpoint from CLI arguments (dataset or N-Triples file).

    When ``--cache-size`` is positive (the default) the endpoint gets a
    :class:`QueryCache`, so repeated REOLAP probes and re-executed
    refinements are served from memory.  With ``--chaos-seed`` the
    endpoint is wrapped in a deterministic
    :class:`~repro.resilience.FaultInjector` — a demo (and test) mode
    that makes the store misbehave like a remote endpoint under load, so
    the ``--retries``/``--breaker`` machinery has something to absorb.
    """
    cache = QueryCache(max_results=args.cache_size) if getattr(
        args, "cache_size", 0) > 0 else None
    if getattr(args, "data_dir", None):
        # Durable boot: recover snapshot + WAL tail; a brand-new directory
        # is seeded from the configured source and checkpointed once, so
        # the second boot never re-ingests.
        graph = Graph.open_durable(args.data_dir)
        if len(graph) == 0:
            if args.ntriples:
                with open(args.ntriples, encoding="utf-8") as handle:
                    source = Graph.from_ntriples(handle)
            else:
                generator = _GENERATORS[args.dataset]
                source = generator(n_observations=args.observations,
                                   scale=args.scale, seed=args.seed).graph
            graph.add_all(iter(source))
            graph.checkpoint()
        endpoint = Endpoint(graph, cache=cache)
        return endpoint, IRI(args.observation_class)
    if getattr(args, "snapshot", None):
        # O(file open) bootstrap: the columns are mmap'd, terms decode
        # lazily, and several processes given the same file share pages.
        graph = Graph.load_snapshot(args.snapshot)
        endpoint = Endpoint(graph, cache=cache)
        return endpoint, IRI(args.observation_class)
    if args.ntriples:
        with open(args.ntriples, encoding="utf-8") as handle:
            graph = Graph.from_ntriples(handle)
        endpoint = Endpoint(graph, cache=cache)
        observation_class = IRI(args.observation_class)
    else:
        generator = _GENERATORS[args.dataset]
        kg = generator(n_observations=args.observations, scale=args.scale, seed=args.seed)
        endpoint = kg.endpoint(cache=cache)
        observation_class = OBSERVATION_CLASS
    chaos_seed = getattr(args, "chaos_seed", None)
    if chaos_seed is not None:
        from .resilience import FaultInjector, FaultPlan

        endpoint = FaultInjector(
            endpoint,
            FaultPlan.random(
                chaos_seed,
                timeout_rate=0.05,
                transient_rate=0.10,
                latency_rate=0.10,
                max_latency=0.002,
            ),
        )
    return endpoint, observation_class


def _close_durable(endpoint) -> None:
    """Checkpoint and close a durable store on clean shutdown.

    A clean exit compacts the WAL into a fresh snapshot generation, so
    the next boot is a pure mmap load with no replay.  No-op for plain
    in-memory graphs.  Crashes skip this — that is what the WAL is for.
    """
    graph = getattr(endpoint, "graph", None)
    if hasattr(graph, "checkpoint") and not getattr(graph, "closed", True):
        graph.checkpoint()
        graph.close()


def _render_declines(decline_reasons: dict) -> str:
    """Per-reason decline tally, most frequent first; ``decline-free``
    when the compiled engine accepted every query."""
    if not decline_reasons:
        return "decline-free"
    ranked = sorted(decline_reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    return ", ".join(f"{reason} {count}" for reason, count in ranked)


class ExplorerShell:
    """Stateful command handler behind the REPL."""

    def __init__(self, endpoint: Endpoint, observation_class: IRI,
                 service: QueryService | None = None):
        self.service = service
        if service is not None:
            # The service's endpoint carries its resilience decorators,
            # which the stats command reports.
            self.endpoint = service.endpoint
            self.vgraph = service.vgraph(observation_class)
            self._session_id = service.open_session(observation_class)
            self.session = service.session(self._session_id)
        else:
            self.endpoint = endpoint
            self.vgraph = VirtualSchemaGraph.bootstrap(endpoint, observation_class)
            self.session = ExplorationSession(endpoint, self.vgraph)
        self._candidates = []
        self._last_proposals: dict[str, list] = {}

    # -- command dispatch ------------------------------------------------------

    def handle(self, line: str) -> str:
        """Execute one command line; returns the text to display."""
        line = line.strip()
        if not line:
            return ""
        command, _, rest = line.partition(" ")
        command = command.lower()
        handlers = {
            "find": self._cmd_find,
            "pick": self._cmd_pick,
            "show": self._cmd_show,
            "sparql": self._cmd_sparql,
            "refine": self._cmd_refine,
            "apply": self._cmd_apply,
            "back": self._cmd_back,
            "profile": self._cmd_profile,
            "stats": self._cmd_stats,
            "insights": self._cmd_insights,
            "trace": self._cmd_trace,
            "contrast": self._cmd_contrast,
            "help": self._cmd_help,
        }
        handler = handlers.get(command)
        if handler is None:
            return f"unknown command {command!r}; type 'help'"
        try:
            return handler(rest.strip())
        except ReproError as error:
            return f"error: {error}"
        except (IndexError, ValueError, KeyError) as error:
            return f"error: {error}"

    # -- individual commands -----------------------------------------------------

    def _degraded_notice(self, failures_before: int) -> str | None:
        failures = self.session.failures
        if len(failures) > failures_before:
            last = failures[-1]
            return (f"(degraded: {last.error_type} — {last.error}; "
                    "the session stays usable, try again)")
        return None

    def _cmd_find(self, rest: str) -> str:
        values = tuple(v.strip() for v in rest.split(",") if v.strip())
        if not values:
            return "usage: find <value>[, <value> ...]"
        failures_before = len(self.session.failures)
        self._candidates = self.session.synthesize(*values)
        lines = [f"{len(self._candidates)} candidate queries:"]
        lines.extend(
            f"  [{index}] {candidate.description}"
            for index, candidate in enumerate(self._candidates)
        )
        report = self.session.last_report
        if report is not None and report.degraded:
            lines.append("(degraded: endpoint faults hid some candidates — "
                         f"{report.probe_failures} probes lost)")
        notice = self._degraded_notice(failures_before)
        if notice:
            lines.append(notice)
        if self._candidates:
            lines.append("pick one with: pick <n>")
        return "\n".join(lines)

    def _cmd_pick(self, rest: str) -> str:
        index = int(rest)
        failures_before = len(self.session.failures)
        results = self.session.choose(index)
        notice = self._degraded_notice(failures_before)
        if notice:
            return notice
        return (
            f"executed: {self.session.query.description}\n"
            f"{len(results)} result tuples; 'show' to display, "
            f"'refine <kind>' for refinements"
        )

    def _cmd_show(self, rest: str) -> str:
        limit = int(rest) if rest else 15
        pretty = labeled_results(self.endpoint, self.session.results)
        return pretty.pretty(max_rows=limit)

    def _cmd_sparql(self, rest: str) -> str:
        return self.session.query.sparql()

    def _cmd_refine(self, rest: str) -> str:
        kind = rest or "disaggregate"
        proposals = self.session.refinements(kind)
        self._last_proposals[kind] = proposals
        if not proposals:
            return f"no {kind} refinements available here"
        ranked = rank_refinements(proposals, self.session.results)
        lines = [f"{len(proposals)} {kind} refinements (best first):"]
        for ranked_item in ranked:
            index = proposals.index(ranked_item.item)
            lines.append(f"  [{index}] {ranked_item.item.explanation}")
            lines.append(f"        ({ranked_item.reason})")
        lines.append(f"apply one with: apply {kind} <n>")
        return "\n".join(lines)

    def _cmd_apply(self, rest: str) -> str:
        kind, _, index_text = rest.partition(" ")
        proposals = self._last_proposals.get(kind)
        if proposals is None:
            proposals = self.session.refinements(kind)
            self._last_proposals[kind] = proposals
        refinement = proposals[int(index_text)]
        failures_before = len(self.session.failures)
        results = self.session.apply(refinement, options_offered=len(proposals))
        notice = self._degraded_notice(failures_before)
        if notice:
            return notice
        self._last_proposals.clear()
        return (
            f"applied: {refinement.explanation}\n"
            f"{len(results)} result tuples"
        )

    def _cmd_back(self, rest: str) -> str:
        step = self.session.back()
        self._last_proposals.clear()
        return f"backtracked to: {step.query.description}"

    def _cmd_profile(self, rest: str) -> str:
        return profile(self.vgraph).pretty()

    def _cmd_stats(self, rest: str) -> str:
        stats = self.endpoint.stats.snapshot()
        lines = [
            "endpoint:",
            f"  queries         {stats.total_queries} "
            f"(select {stats.select_queries}, ask {stats.ask_queries}, "
            f"construct {stats.construct_queries})",
            f"  aggregates      fused {stats.fused_aggregates}, "
            f"fallback {stats.fallback_aggregates} "
            f"({stats.groups_formed} groups from {stats.aggregate_rows} rows)",
            f"  selects         compiled {stats.compiled_selects}, "
            f"fallback {stats.fallback_selects}",
            f"  executions      batched {stats.batched_executions} "
            f"(fallback rows {stats.fallback_batch_rows}), "
            f"tuple {stats.tuple_executions}, "
            f"term-space {stats.fallback_selects + stats.fallback_aggregates} "
            f"({_render_declines(stats.decline_reasons)})",
            f"  keyword lookups {stats.keyword_lookups}",
            f"  timeouts        {stats.timeouts}",
            f"  cache hits      {stats.cache_hits}",
        ]
        cache = getattr(self.endpoint, "cache", None)
        if cache is not None:
            lines.append("cache tiers (hits/misses/evictions):")
            for tier, tier_stats in cache.stats.items():
                lines.append(
                    f"  {tier:<9} {tier_stats.hits}/{tier_stats.misses}"
                    f"/{tier_stats.evictions}"
                )
        if self.service is not None:
            lines.append("serving:")
            lines.extend("  " + line for line in
                         self.service.stats().pretty().splitlines())
        resilience = getattr(self.endpoint, "resilience", None)
        if resilience is not None:
            snap = resilience.snapshot()
            lines.append("resilience:")
            lines.append(f"  guarded calls   {snap.calls} "
                         f"(retries {snap.retries}, recovered {snap.recovered}, "
                         f"giveups {snap.giveups})")
            breaker = getattr(self.endpoint, "breaker", None)
            if breaker is not None:
                lines.append(f"  breaker         {breaker.state} "
                             f"({breaker.stats.trips} trips)")
            lines.append(f"  breaker sheds   {snap.breaker_rejections} "
                         f"(stale served {snap.stale_served})")
        events = getattr(self.endpoint, "events", None)
        if events:
            injected = [event for event in events if event.kind != "ok"]
            lines.append(f"chaos: {len(injected)} faults injected over "
                         f"{len(events)} endpoint calls")
        failures = self.session.failures
        if failures:
            lines.append(f"session: {len(failures)} interactions degraded "
                         "by endpoint faults")
        return "\n".join(lines)

    def _cmd_insights(self, rest: str) -> str:
        insights = insight_summary(self.session.query, self.session.results)
        if not insights:
            return "no notable insights in the current results"
        return "\n".join("* " + line for line in insights)

    def _cmd_trace(self, rest: str) -> str:
        return to_markdown(self.session)

    def _cmd_contrast(self, rest: str) -> str:
        left, _, right = rest.partition(" vs ")
        if not right:
            return "usage: contrast <example A> vs <example B>"
        example_a = tuple(v.strip() for v in left.split(",") if v.strip())
        example_b = tuple(v.strip() for v in right.split(",") if v.strip())
        comparisons = contrast(self.endpoint, self.vgraph, example_a, example_b)
        return "\n\n".join(c.pretty() for c in comparisons)

    def _cmd_help(self, rest: str) -> str:
        kinds = "|".join(sorted(self.session.methods))
        return (
            "commands:\n"
            "  find <v1>[, <v2> ...]  synthesize queries from examples\n"
            "  pick <n>               choose and execute candidate n\n"
            "  show [rows]            display current results\n"
            "  sparql                 print the current SPARQL query\n"
            f"  refine <kind>          list refinements ({kinds})\n"
            "  apply <kind> <n>       apply a refinement\n"
            "  back                   backtrack one step\n"
            "  insights               notable facts about the current results\n"
            "  trace                  Markdown record of this exploration\n"
            "  contrast A vs B        compare two example sets side by side\n"
            "  profile                dataset overview\n"
            "  stats                  endpoint / cache / serving statistics\n"
            "  quit                   leave"
        )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common_args(parser: argparse.ArgumentParser,
                     suppress: bool = False) -> None:
    """Dataset/engine/serving flags shared by every entry point.

    The main parser gets real defaults; subparsers get ``SUPPRESS``
    versions of the same flags, so ``repro serve --dataset production``
    works without the subparser's defaults clobbering flags given before
    the subcommand.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--dataset", choices=sorted(_GENERATORS),
                        default=default("eurostat"),
                        help="built-in synthetic dataset to explore")
    parser.add_argument("--observations", type=int, default=default(2000))
    parser.add_argument("--scale", type=float, default=default(0.4),
                        help="member-pool scale factor (1.0 = paper scale)")
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--ntriples", metavar="FILE", default=default(None),
                        help="explore an N-Triples file instead of a generator")
    parser.add_argument("--snapshot", metavar="FILE", default=default(None),
                        help="boot from a columnar snapshot file instead of "
                             "re-ingesting (see 'repro snapshot save')")
    parser.add_argument("--data-dir", metavar="DIR", default=default(None),
                        help="open a durable store rooted at DIR: writes go "
                             "through a write-ahead log, and boot recovers "
                             "the newest checkpoint + WAL tail; an empty DIR "
                             "is seeded from the configured dataset once")
    parser.add_argument("--observation-class",
                        default=default(str(OBSERVATION_CLASS)),
                        help="observation class IRI (with --ntriples)")
    parser.add_argument("--workers", type=_positive_int, default=default(4),
                        help="serving worker threads (see repro.serving)")
    parser.add_argument("--cache-size", type=_nonnegative_int,
                        default=default(4096),
                        help="query result cache entries; 0 disables caching")
    parser.add_argument("--retries", type=_nonnegative_int, default=default(0),
                        help="retry budget for transient endpoint faults "
                             "(exponential backoff; 0 disables retries)")
    parser.add_argument("--breaker", action="store_true", default=default(False),
                        help="enable the per-endpoint circuit breaker "
                             "(shed calls while the store fails persistently)")
    parser.add_argument("--serve-stale", action="store_true",
                        default=default(False),
                        help="answer from last-known-good results while the "
                             "circuit breaker is open (implies --breaker)")
    parser.add_argument("--chaos-seed", type=int, default=default(None),
                        metavar="SEED",
                        help="inject deterministic endpoint faults from this "
                             "seed (demo/testing; see repro.resilience)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RE2xOLAP: example-driven exploratory analytics over KGs",
    )
    _add_common_args(parser)
    subparsers = parser.add_subparsers(dest="command", metavar="command")

    serve = subparsers.add_parser(
        "serve",
        help="run the SPARQL-protocol HTTP server (see repro.server)")
    _add_common_args(serve, suppress=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_nonnegative_int, default=8080,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--quota-rate", type=float, default=None,
                       metavar="REQ_PER_S",
                       help="per-tenant token-bucket refill rate "
                            "(default: unlimited)")
    serve.add_argument("--quota-burst", type=float, default=20.0,
                       help="per-tenant token-bucket burst capacity")
    serve.add_argument("--max-queue", type=_positive_int, default=64,
                       help="per-tenant pending-request lane depth")
    serve.add_argument("--request-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="total budget per request incl. queueing; "
                            "aged-out requests are shed with 503")

    snapshot = subparsers.add_parser(
        "snapshot",
        help="save the store to (or verify loading from) a columnar "
             "snapshot file")
    _add_common_args(snapshot, suppress=True)
    snapshot.add_argument("action", choices=("save", "load", "verify"),
                          help="'save' ingests the dataset and writes FILE; "
                               "'load' opens FILE and prints its stats; "
                               "'verify' checks every section CRC without "
                               "building a graph")
    snapshot.add_argument("path", metavar="FILE",
                          help="snapshot file to write, read, or verify")

    query = subparsers.add_parser(
        "query", help="run one SPARQL query and print the results")
    _add_common_args(query, suppress=True)
    query.add_argument("sparql", help="the query text")
    query.add_argument("--format", choices=("json", "csv", "tsv", "table"),
                       default="table",
                       help="output serialization (SPARQL JSON / CSV / TSV "
                            "or a fixed-width table)")
    query.add_argument("--timeout", default=None, metavar="SECONDS",
                       help="evaluation timeout; 'none' disables it, 0 is an "
                            "already-expired budget (both honored literally)")
    return parser


def _query_main(args: argparse.Namespace, stdout: IO[str]) -> int:
    """``repro query``: run one query, print in the requested format."""
    from .sparql.results import ResultSet, to_csv, to_sparql_json, to_tsv
    from .store.endpoint import DEFAULT_TIMEOUT
    from .store.graph import Graph as _Graph

    endpoint, _ = build_endpoint(args)
    timeout = DEFAULT_TIMEOUT
    if args.timeout is not None:
        raw = args.timeout.strip().lower()
        # Explicit "none" and explicit 0 are honored literally; only an
        # absent flag defers to the endpoint default.
        timeout = None if raw in ("none", "off") else float(raw)
    result = endpoint.query(args.sparql, timeout=timeout)
    if isinstance(result, _Graph):
        print(result.to_ntriples(), end="", file=stdout)
        return 0
    writers = {"json": to_sparql_json, "csv": to_csv, "tsv": to_tsv}
    if args.format in writers:
        print(writers[args.format](result), end="", file=stdout)
    elif isinstance(result, ResultSet):
        print(result.pretty(max_rows=None), file=stdout)
    else:
        print("true" if result else "false", file=stdout)
    return 0


def _snapshot_main(args: argparse.Namespace, stdout: IO[str]) -> int:
    """``repro snapshot save|load``: persist or verify a columnar dump."""
    import os
    import time

    if args.action == "verify":
        from .errors import SnapshotError
        from .store import verify_snapshot

        started = time.perf_counter()
        try:
            report = verify_snapshot(args.path)
        except SnapshotError as error:
            print(f"CORRUPT: {error}", file=stdout)
            return 1
        elapsed = time.perf_counter() - started
        print(f"OK: {args.path} ({report['size'] / 1e6:.1f} MB, format v"
              f"{report['version']}): {report['triples']} triples, "
              f"{report['terms']} terms, {report['predicates']} predicates, "
              f"{len(report['sections'])} sections verified "
              f"in {elapsed * 1000:.1f}ms", file=stdout)
        return 0
    if args.action == "save":
        print("loading data and bootstrapping (one-off)...", file=stdout)
        endpoint, _ = build_endpoint(args)
        graph = endpoint.graph
        started = time.perf_counter()
        size = graph.save_snapshot(args.path)
        elapsed = time.perf_counter() - started
        print(f"saved {len(graph)} triples "
              f"({len(graph.term_dictionary)} terms) to {args.path}: "
              f"{size / 1e6:.1f} MB in {elapsed:.2f}s", file=stdout)
        return 0
    started = time.perf_counter()
    graph = Graph.load_snapshot(args.path)
    elapsed = time.perf_counter() - started
    size = os.path.getsize(args.path)
    print(f"loaded {len(graph)} triples "
          f"({len(graph.term_dictionary)} terms, epoch {graph.epoch}) "
          f"from {args.path} ({size / 1e6:.1f} MB) in {elapsed * 1000:.1f}ms",
          file=stdout)
    return 0


def _serve_main(args: argparse.Namespace, stdin: IO[str],
                stdout: IO[str]) -> int:
    """``repro serve``: boot the HTTP front-end, run until EOF/interrupt."""
    from .server import ReproServer, ServerHandle

    print("loading data and bootstrapping (one-off)...", file=stdout)
    endpoint, observation_class = build_endpoint(args)
    # Resilience is wired per tenant by the server itself, so the service
    # runs undecorated here (cache_size forwarded: --cache-size 0 stays off).
    service = QueryService(endpoint, workers=args.workers,
                           max_queue=args.max_queue,
                           cache_size=args.cache_size,
                           request_deadline=args.request_deadline)
    server = ReproServer(
        service, args.host, args.port,
        observation_class=IRI(args.observation_class),
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        retries=args.retries, breaker=args.breaker,
        serve_stale=args.serve_stale, own_service=True,
    )
    handle = ServerHandle(server).start()
    print(f"serving SPARQL at {handle.url}/sparql "
          f"({args.workers} workers, quota "
          f"{args.quota_rate if args.quota_rate else 'unlimited'}); "
          "Ctrl-C or EOF to stop", file=stdout, flush=True)
    try:
        for _line in stdin:
            pass
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
        _close_durable(endpoint)
    print("bye", file=stdout)
    return 0


def main(argv: list[str] | None = None, stdin: IO[str] | None = None,
         stdout: IO[str] | None = None) -> int:
    """Entry point; ``stdin``/``stdout`` are injectable for testing."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    args = make_parser().parse_args(argv)
    command = getattr(args, "command", None)
    if command == "query":
        return _query_main(args, stdout)
    if command == "serve":
        return _serve_main(args, stdin, stdout)
    if command == "snapshot":
        return _snapshot_main(args, stdout)
    print("loading data and bootstrapping (one-off)...", file=stdout)
    endpoint, observation_class = build_endpoint(args)
    # cache_size is forwarded so --cache-size 0 stays off: the service
    # adopts the endpoint's cache and must not substitute a default one.
    service = QueryService(
        with_resilience(endpoint, args.retries, args.breaker,
                        args.serve_stale),
        workers=args.workers, cache_size=args.cache_size)
    # Bootstrap (schema crawl, session setup) runs against the clean
    # store; the fault schedule is armed for the interactive workload.
    chaos = endpoint if hasattr(endpoint, "disarm") else None
    if chaos is not None:
        chaos.disarm()
    try:
        shell = ExplorerShell(endpoint, observation_class, service=service)
        if chaos is not None:
            chaos.arm()
        print(f"ready: {shell.vgraph.n_levels} levels, "
              f"{shell.vgraph.observation_count} observations "
              f"({args.workers} workers, cache "
              f"{'off' if endpoint.cache is None else 'on'}). Type 'help'.",
              file=stdout)
        for line in stdin:
            if line.strip().lower() in ("quit", "exit", "q"):
                break
            output = shell.handle(line)
            if output:
                print(output, file=stdout)
            print("> ", end="", file=stdout, flush=True)
    finally:
        service.shutdown()
        _close_durable(endpoint)
    print("bye", file=stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
