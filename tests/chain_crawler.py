"""The path-chain crawler: the Virtual Schema Graph's reference oracle.

This is the bootstrap the member-set crawl replaced.  Every discovery
query joins *all* observations through the level's predicate chain
(``?o a C . ?o p1/…/pk ?m``), three per level, so its cost grows with the
observations; its answers define what the member-set crawl must return.
"""

from repro.core import VirtualSchemaGraph, VLevel
from repro.core.virtual_graph import DEFAULT_EXCLUDED_PREDICATES, DEFAULT_MAX_DEPTH
from repro.errors import BootstrapError
from repro.qb.vocabulary import LABEL


def chain_bootstrap(endpoint, observation_class,
                    excluded_predicates=DEFAULT_EXCLUDED_PREDICATES,
                    max_depth=DEFAULT_MAX_DEPTH, sample_size=3):
    crawler = ChainCrawler(endpoint, observation_class, excluded_predicates,
                           max_depth, sample_size)
    return crawler.crawl(VirtualSchemaGraph)


def chain_refreshed(vgraph, endpoint):
    """Member counts recounted through one COUNT(DISTINCT) per level."""
    updated = {}
    for path, level in vgraph.levels.items():
        updated[path] = VLevel(
            path=level.path,
            member_count=count_members(endpoint, vgraph.observation_class, path),
            label=level.label,
            attribute_predicates=level.attribute_predicates,
            sample_members=level.sample_members,
        )
    return VirtualSchemaGraph(
        vgraph.observation_class, updated, dict(vgraph.measures),
        count_observations(endpoint, vgraph.observation_class),
        vgraph.observation_attributes,
    )


class ChainCrawler:
    def __init__(self, endpoint, observation_class, excluded, max_depth, sample_size):
        self.endpoint = endpoint
        self.cls = observation_class
        self.excluded = excluded
        self.max_depth = max_depth
        self.sample_size = sample_size

    def crawl(self, factory):
        n_obs = count_observations(self.endpoint, self.cls)
        if n_obs == 0:
            raise BootstrapError(
                f"no observations of class {self.cls.n3()} in the endpoint"
            )
        dimension_predicates, measure_predicates, obs_attributes = self._observation_predicates()
        if not measure_predicates:
            raise BootstrapError("no numeric measure predicates found on observations")
        levels = {}
        for predicate in dimension_predicates:
            self._expand((predicate,), levels)
        measures = {p: self._predicate_label(p) for p in measure_predicates}
        return factory(self.cls, levels, measures, n_obs, tuple(obs_attributes))

    def _observation_predicates(self):
        result = self.endpoint.select(
            f"SELECT DISTINCT ?p WHERE {{ ?o a {self.cls.n3()} . ?o ?p ?x . "
            f"FILTER(!isLiteral(?x)) }}"
        )
        dimensions = sorted(
            (row[0] for row in result if row[0] not in self.excluded),
            key=lambda p: p.value,
        )
        result = self.endpoint.select(
            f"SELECT DISTINCT ?p WHERE {{ ?o a {self.cls.n3()} . ?o ?p ?x . "
            f"FILTER(isNumeric(?x)) }}"
        )
        measures = sorted((row[0] for row in result), key=lambda p: p.value)
        result = self.endpoint.select(
            f"SELECT DISTINCT ?p WHERE {{ ?o a {self.cls.n3()} . ?o ?p ?x . "
            f"FILTER(isLiteral(?x) && !isNumeric(?x)) }}"
        )
        attributes = sorted((row[0] for row in result), key=lambda p: p.value)
        return dimensions, measures, attributes

    def _expand(self, path, levels):
        member_count, samples = self._level_members(path)
        if member_count == 0:
            return
        levels[path] = VLevel(
            path=path,
            member_count=member_count,
            label=" / ".join(self._predicate_label(p) for p in path),
            attribute_predicates=tuple(self._member_predicates(path, "isLiteral(?x)")),
            sample_members=samples,
        )
        if len(path) >= self.max_depth:
            return
        for predicate in self._member_predicates(path, "!isLiteral(?x)"):
            if predicate in self.excluded or predicate in path:
                continue
            self._expand(path + (predicate,), levels)

    def _level_members(self, path):
        chain = " / ".join(p.n3() for p in path)
        result = self.endpoint.select(
            f"SELECT DISTINCT ?m WHERE {{ ?o a {self.cls.n3()} . ?o {chain} ?m }}"
        )
        members = sorted((row[0] for row in result), key=lambda t: t.sort_key())
        return len(members), tuple(members[: self.sample_size])

    def _member_predicates(self, path, constraint):
        chain = " / ".join(p.n3() for p in path)
        result = self.endpoint.select(
            f"SELECT DISTINCT ?q WHERE {{ ?o a {self.cls.n3()} . ?o {chain} ?m . "
            f"?m ?q ?x . FILTER({constraint}) }}"
        )
        return sorted((row[0] for row in result), key=lambda p: p.value)

    def _predicate_label(self, predicate):
        result = self.endpoint.select(
            f"SELECT ?l WHERE {{ {predicate.n3()} {LABEL.n3()} ?l }} LIMIT 1"
        )
        if result.rows:
            return result.rows[0][0].lexical
        return predicate.local_name().replace("_", " ").title()


def count_observations(endpoint, observation_class):
    result = endpoint.select(
        f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o a {observation_class.n3()} }}"
    )
    return int(result.rows[0][0].lexical)


def count_members(endpoint, observation_class, path):
    chain = " / ".join(p.n3() for p in path)
    result = endpoint.select(
        f"SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{ ?o a {observation_class.n3()} . "
        f"?o {chain} ?m }}"
    )
    return int(result.rows[0][0].lexical)
