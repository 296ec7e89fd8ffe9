"""The Virtual Schema Graph (Section 5.2 of the paper).

An in-memory summary of how dimension hierarchies are organized: one node
per hierarchy *level* — not per member — plus an implicit observation
root, making it "orders of magnitude smaller than the underlying graph".
Each level is identified by the *predicate path* that reaches its members
from an observation node (e.g. ``country_of_origin / in_continent`` for
the origin-continent level), which is also exactly the BGP chain a
generated query needs.

The graph is built at system bootstrap by crawling the SPARQL endpoint,
given nothing but the observation class.  A roll-up step maps one level's
members to the next level's, so only level 1 needs the observations: one
scan yields every dimension predicate with its member set, and each
deeper level is the image of its parent's members under one roll-up
predicate, read by one query over those members (a depth cap guards
against cycles).  Bootstrap cost grows with the schema, plus three
linear observation scans (dimension, measure and attribute predicates).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, replace

from ..errors import BootstrapError
from ..qb.vocabulary import LABEL, MEMBER_OF, ROLLS_UP_TO, TYPE
from ..rdf.namespace import QB, QB4O
from ..rdf.terms import IRI, Literal, Variable
from ..store.endpoint import Endpoint

__all__ = ["VLevel", "VirtualSchemaGraph", "DEFAULT_EXCLUDED_PREDICATES"]

#: Vocabulary predicates the crawler must not mistake for hierarchy steps.
DEFAULT_EXCLUDED_PREDICATES = frozenset(
    {TYPE, MEMBER_OF, ROLLS_UP_TO, QB.dataSet, QB.structure, QB4O.inLevel}
)

#: Hierarchies deeper than this are treated as cycles and cut off.
DEFAULT_MAX_DEPTH = 6


@dataclass(frozen=True)
class VLevel:
    """One virtual-graph node: a hierarchy level of some dimension.

    ``path`` is the predicate sequence from the observation root to the
    level's members; ``path[0]`` is the dimension predicate, the rest are
    rollup predicates.  ``label`` is assembled from the predicates'
    ``rdfs:label`` annotations and drives the natural-language rendering of
    queries.
    """

    path: tuple[IRI, ...]
    member_count: int
    label: str
    attribute_predicates: tuple[IRI, ...] = ()
    sample_members: tuple[IRI, ...] = ()

    def __post_init__(self):
        if not self.path:
            raise ValueError("a level path must contain at least the dimension predicate")

    @property
    def dimension_predicate(self) -> IRI:
        return self.path[0]

    @property
    def terminal_predicate(self) -> IRI:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_base(self) -> bool:
        return len(self.path) == 1

    def is_finer_than(self, other: "VLevel") -> bool:
        """True when this level is a strict refinement (prefix) of ``other``."""
        return (
            len(self.path) < len(other.path)
            and other.path[: len(self.path)] == self.path
        )

    def is_coarser_than(self, other: "VLevel") -> bool:
        return other.is_finer_than(self)

    def variable(self) -> Variable:
        """The canonical query variable naming this level.

        Deterministic in the path, so two query dimensions sharing a path
        prefix share the intermediate variables (and hence BGPs).
        """
        return path_variable(self.path)

    def __repr__(self) -> str:
        return f"<VLevel {self.label!r} depth={self.depth} members={self.member_count}>"


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^0-9A-Za-z_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "p" + cleaned
    return cleaned.lower()


def path_variable(path: tuple[IRI, ...]) -> Variable:
    """The canonical variable for a predicate path from the observation."""
    return Variable("_".join(_sanitize(p.local_name()) for p in path))


class VirtualSchemaGraph:
    """Levels, measures, and the traversal API used by synthesis/refinement."""

    def __init__(
        self,
        observation_class: IRI,
        levels: dict[tuple[IRI, ...], VLevel],
        measures: dict[IRI, str],
        observation_count: int,
        observation_attributes: tuple[IRI, ...] = (),
    ):
        if not levels:
            raise BootstrapError("virtual schema graph has no levels")
        if not measures:
            raise BootstrapError("virtual schema graph has no measures")
        self.observation_class = observation_class
        self.levels = dict(levels)
        self.measures = dict(measures)
        self.observation_count = observation_count
        self.observation_attributes = tuple(observation_attributes)

    # -- traversal -----------------------------------------------------------

    def all_levels(self) -> list[VLevel]:
        """Every level, ordered by path for determinism."""
        return [self.levels[key] for key in sorted(self.levels, key=_path_key)]

    def base_levels(self) -> list[VLevel]:
        return [lvl for lvl in self.all_levels() if lvl.is_base]

    def dimension_predicates(self) -> list[IRI]:
        return sorted({lvl.dimension_predicate for lvl in self.levels.values()},
                      key=lambda p: p.value)

    def level(self, path: tuple[IRI, ...]) -> VLevel:
        try:
            return self.levels[tuple(path)]
        except KeyError:
            raise KeyError(f"no level with path {[p.value for p in path]}") from None

    def levels_of_dimension(self, dimension_predicate: IRI) -> list[VLevel]:
        return [lvl for lvl in self.all_levels()
                if lvl.dimension_predicate == dimension_predicate]

    def levels_with_terminal(self, predicate: IRI) -> list[VLevel]:
        """Levels whose members are reached through ``predicate``.

        This is the structural lookup behind interpretation discovery: a
        member's incoming predicate identifies its candidate levels.
        """
        return [lvl for lvl in self.all_levels() if lvl.terminal_predicate == predicate]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def n_members(self) -> int:
        """Total member count over all levels (the paper's |N_D|)."""
        return sum(lvl.member_count for lvl in self.levels.values())

    def summary(self) -> str:
        """A small tree rendering of the schema, for logs and examples."""
        lines = [f"observations ({self.observation_count}) of {self.observation_class.n3()}"]
        for level in self.all_levels():
            indent = "  " * level.depth
            lines.append(f"{indent}{level.label} [{level.member_count} members]")
        lines.append("measures: " + ", ".join(sorted(self.measures.values())))
        return "\n".join(lines)

    # -- construction ----------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        endpoint: Endpoint,
        observation_class: IRI,
        excluded_predicates: frozenset[IRI] = DEFAULT_EXCLUDED_PREDICATES,
        max_depth: int = DEFAULT_MAX_DEPTH,
        sample_size: int = 3,
    ) -> "VirtualSchemaGraph":
        """Crawl the endpoint and build the virtual schema graph.

        Only the endpoint address and the observation class are required —
        "no other information about the dataset is assumed" (Section 7.1).
        """
        crawler = _Crawler(endpoint, observation_class, excluded_predicates,
                           max_depth, sample_size)
        return crawler.crawl(cls)

    def refreshed(self, endpoint: Endpoint) -> "VirtualSchemaGraph":
        """Recount members after data was appended, without re-crawling.

        This is the paper's incremental-update path: when only new data
        arrives under an unchanged schema, the structure is reusable and
        only the per-level statistics need refreshing: the member-set walk
        recounts and resamples the known levels' members.
        """
        # The bootstrap's sample size, as far as the samples show it.
        shown = max(len(level.sample_members) for level in self.levels.values())
        crawler = _Crawler(endpoint, self.observation_class, sample_size=shown)
        found = crawler.walk((*self.measures, *self.observation_attributes),
                             lambda path, predicate, _: path + (predicate,) in self.levels)
        updated = {}
        for path, level in self.levels.items():
            members = found[path][0] if path in found else set()
            updated[path] = replace(level, member_count=len(members),
                                    sample_members=crawler.samples(members))
        return VirtualSchemaGraph(
            self.observation_class, updated, dict(self.measures),
            crawler.count_observations(), self.observation_attributes,
        )


def _path_key(path: tuple[IRI, ...]) -> tuple:
    return tuple(p.value for p in path)


class _Crawler:
    """Bootstrap worker: walks distinct member sets through the endpoint.

    Each level costs one query over its members (``VALUES ?m { ... } ?m ?q
    ?x``), whose rows give its attribute and roll-up predicates and each
    child level's member set.  Blank-node members cannot be named in
    ``VALUES``: they are counted and sampled, but not followed.
    """

    def __init__(self, endpoint, observation_class,
                 excluded=DEFAULT_EXCLUDED_PREDICATES,
                 max_depth=DEFAULT_MAX_DEPTH, sample_size=3):
        self.endpoint = endpoint
        self.cls = observation_class
        self.excluded = excluded
        self.max_depth = max_depth
        self.sample_size = sample_size
        self._labels: dict[IRI, str] = {}

    def crawl(self, factory) -> "VirtualSchemaGraph":
        n_obs = self.count_observations()
        if n_obs == 0:
            raise BootstrapError(f"no observations of class {self.cls.n3()} in the endpoint")
        # Numeric literal objects → measures; other literals → attributes.
        measure_predicates = self._predicates("isNumeric(?x)")
        if not measure_predicates:
            raise BootstrapError("no numeric measure predicates found on observations")
        obs_attributes = self._predicates("isLiteral(?x) && !isNumeric(?x)")
        found = self.walk((*measure_predicates, *obs_attributes), self._follows)
        levels = {
            path: VLevel(path, len(members),
                         " / ".join(self._predicate_label(p) for p in path),
                         attributes, self.samples(members))
            for path, (members, attributes) in found.items()
        }
        measures = {p: self._predicate_label(p) for p in measure_predicates}
        return factory(self.cls, levels, measures, n_obs, tuple(obs_attributes))

    def _follows(self, path: tuple[IRI, ...], predicate: IRI, rollup: bool) -> bool:
        """Whether the crawl opens a level at ``path + (predicate,)``."""
        if predicate in self.excluded or not rollup:
            return False
        return not path or (len(path) < self.max_depth and predicate not in path)

    def walk(self, literal_predicates, follows) -> dict:
        """``{path: (member set, attribute predicates)}`` for every level
        ``follows(parent_path, predicate, is_rollup)`` admits, depth first.

        A dimension predicate among ``literal_predicates`` (those with
        literal objects) has those literals as level-1 members too.
        """
        base: dict[IRI, set] = {}
        for predicate, member in self._scan("?p ?x", "!isLiteral(?x)"):
            base.setdefault(predicate, set()).add(member)
        mixed = " ".join(p.n3() for p in literal_predicates
                         if p in base and follows((), p, True))
        if mixed:
            for predicate, member in self._scan(
                    "?p ?x", "isLiteral(?x)", f"VALUES ?p {{ {mixed} }} "):
                base[predicate].add(member)
        found: dict = {}
        for predicate in sorted(base):
            if follows((), predicate, True):
                self._descend((predicate,), base[predicate], follows, found)
        return found

    def _descend(self, path, members, follows, found) -> None:
        """Register the level at ``path``, then the child levels it admits."""
        images: dict[IRI, set] = {}
        attributes, rollups = set(), set()
        named = " ".join(m.n3() for m in members if isinstance(m, IRI))
        if named:
            result = self.endpoint.select(
                f"SELECT DISTINCT ?q ?x WHERE {{ VALUES ?m {{ {named} }} ?m ?q ?x }}"
            )
            for predicate, target in result.rows:
                images.setdefault(predicate, set()).add(target)
                (attributes if isinstance(target, Literal) else rollups).add(predicate)
        found[path] = (members, tuple(sorted(attributes)))
        for predicate in sorted(images):
            if follows(path, predicate, predicate in rollups):
                self._descend(path + (predicate,), images[predicate], follows, found)

    def _scan(self, keys: str, constraint: str, prefix: str = "") -> list:
        """The distinct ``keys`` rows of one observation-triple scan, grouped:
        the engine folds groups in id space but decodes every row for DISTINCT."""
        return self.endpoint.select(
            f"SELECT {keys} WHERE {{ {prefix}?o a {self.cls.n3()} . ?o ?p ?x . "
            f"FILTER({constraint}) }} GROUP BY {keys}"
        ).rows

    def _predicates(self, constraint: str) -> list[IRI]:
        return sorted(row[0] for row in self._scan("?p", constraint))

    def count_observations(self) -> int:
        result = self.endpoint.select(
            f"SELECT (COUNT(?o) AS ?n) WHERE {{ ?o a {self.cls.n3()} }}"
        )
        return int(result.rows[0][0].lexical)

    def samples(self, members) -> tuple:
        return tuple(heapq.nsmallest(self.sample_size, members,
                                     key=lambda t: t.sort_key()))

    def _predicate_label(self, predicate: IRI) -> str:
        """The predicate's ``rdfs:label``, asked for once per crawl."""
        if predicate not in self._labels:
            rows = self.endpoint.select(
                f"SELECT ?l WHERE {{ {predicate.n3()} {LABEL.n3()} ?l }} LIMIT 1"
            ).rows
            self._labels[predicate] = (
                rows[0][0].lexical if rows
                else predicate.local_name().replace("_", " ").title())
        return self._labels[predicate]
