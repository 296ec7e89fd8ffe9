"""Materializing a cube schema into RDF triples.

:class:`CubeBuilder` turns a :class:`~repro.qb.schema.CubeSchema` plus an
observation count into a statistical knowledge graph laid out exactly as
Section 3 describes (and Figure 1 depicts):

* one node per observation, typed ``qb:Observation``;
* a dimension-predicate edge from each observation to a base-level member
  per dimension;
* rollup edges between members of adjacent hierarchy levels (M-to-N when
  the schema asks for it);
* an ``rdfs:label`` literal on every member and predicate — the attribute
  predicates REOLAP's keyword matching resolves against;
* one numeric measure literal per measure per observation;
* QB / QB4OLAP annotation triples (``qb4o:memberOf`` etc.) that the
  SPARQLByE baseline uses and the virtual-graph crawler ignores.

Generation is fully deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import SchemaError
from ..rdf.namespace import Namespace
from ..rdf.terms import IRI, Literal, XSD_DOUBLE, XSD_INTEGER
from ..rdf.triple import Triple
from ..store.endpoint import Endpoint
from ..store.graph import Graph
from .schema import CubeSchema, DimensionSpec, HierarchySpec, LevelSpec, MeasureSpec
from .vocabulary import (
    DIMENSION_PROPERTY,
    LABEL,
    LEVEL_CLASS,
    MEASURE_PROPERTY,
    MEMBER_OF,
    OBSERVATION_CLASS,
    ROLLS_UP_TO,
    TYPE,
)

__all__ = ["CubeBuilder", "StatisticalKG", "Member"]


@dataclass(frozen=True)
class Member:
    """One generated dimension member: its IRI and display label."""

    iri: IRI
    label: str


@dataclass
class StatisticalKG:
    """A generated statistical knowledge graph plus its bookkeeping.

    ``members`` maps ``(dimension name, level name)`` to the generated
    members of that level — the ground truth benchmarks sample example
    tuples from.  ``level_iri`` maps the same key to the level's schema
    IRI (used by annotations and the SPARQLByE baseline).
    """

    schema: CubeSchema
    graph: Graph
    n_observations: int
    members: dict[tuple[str, str], list[Member]] = field(default_factory=dict)
    level_iri: dict[tuple[str, str], IRI] = field(default_factory=dict)

    def endpoint(self, **kwargs) -> Endpoint:
        """A SPARQL endpoint over this KG's graph."""
        return Endpoint(self.graph, **kwargs)

    def members_of(self, dimension: str, level: str) -> list[Member]:
        key = (dimension, level)
        if key not in self.members:
            raise KeyError(f"no level {level!r} in dimension {dimension!r}")
        return list(self.members[key])

    def sample_member(self, rng: random.Random, dimension: str | None = None) -> tuple[str, str, Member]:
        """A random (dimension, level, member) triple, for workload generation."""
        keys = sorted(k for k in self.members if dimension is None or k[0] == dimension)
        if not keys:
            raise KeyError(f"no members for dimension {dimension!r}")
        dim, level = keys[rng.randrange(len(keys))]
        candidates = self.members[(dim, level)]
        return dim, level, candidates[rng.randrange(len(candidates))]

    @property
    def n_triples(self) -> int:
        return len(self.graph)

    def describe(self) -> dict[str, int]:
        """Dataset characteristics in the shape of the paper's Table 3."""
        stats = self.schema.describe()
        stats["observations"] = self.n_observations
        stats["triples"] = self.n_triples
        return stats


class CubeBuilder:
    """Generates a :class:`StatisticalKG` from a schema, deterministically."""

    def __init__(self, schema: CubeSchema, seed: int = 0, annotate: bool = True):
        self.schema = schema
        self.seed = seed
        self.annotate = annotate
        self.ns = Namespace(schema.namespace)

    # -- IRI layout -----------------------------------------------------------

    def dimension_predicate(self, dimension: DimensionSpec) -> IRI:
        return self.ns.term(f"prop/{dimension.predicate_local_name}")

    def rollup_predicate(self, name: str) -> IRI:
        return self.ns.term(f"prop/{name}")

    def measure_predicate(self, measure: MeasureSpec) -> IRI:
        return self.ns.term(f"measure/{measure.name}")

    def attribute_predicate(self, index: int) -> IRI:
        return self.ns.term(f"prop/attr_{index}")

    def member_iri(self, pool: str, index: int) -> IRI:
        return self.ns.term(f"member/{pool}/{index}")

    def observation_iri(self, index: int) -> IRI:
        return self.ns.term(f"obs/{index}")

    def level_schema_iri(self, dimension: DimensionSpec, level: LevelSpec) -> IRI:
        return self.ns.term(f"level/{dimension.name}/{level.name}")

    # -- generation ---------------------------------------------------------

    def build(self, n_observations: int, graph: Graph | None = None) -> StatisticalKG:
        """Generate the full KG with ``n_observations`` observations."""
        if n_observations < 0:
            raise SchemaError("n_observations must be >= 0")
        rng = random.Random(self.seed)
        graph = graph if graph is not None else Graph()
        kg = StatisticalKG(self.schema, graph, n_observations)
        graph.add_all(self._triples(rng, kg, n_observations))
        return kg

    def _triples(self, rng: random.Random, kg: StatisticalKG, n_observations: int):
        """Every triple of the KG in generation order, filling ``kg``'s
        bookkeeping on the way: one bulk write streams them."""
        pools = yield from self._build_member_pools(rng, kg)
        yield from self._build_hierarchy_edges(rng, pools)
        yield from self._annotate_schema(kg)
        yield from self._build_observations(rng, pools, n_observations)

    def _build_member_pools(self, rng: random.Random, kg: StatisticalKG):
        """Create the member entities, one pool per distinct pool key."""
        pools: dict[str, list[Member]] = {}
        for dimension in self.schema.dimensions:
            for hierarchy, level in dimension.levels():
                key = level.pool_key
                if key in pools:
                    if len(pools[key]) != level.size:
                        raise SchemaError(
                            f"pool {key!r} used with sizes {len(pools[key])} and {level.size}"
                        )
                else:
                    pools[key] = yield from self._generate_pool(rng, key, level)
                kg.members[(dimension.name, level.name)] = pools[key]
        return pools

    def _generate_pool(self, rng: random.Random, key: str, level: LevelSpec):
        members: list[Member] = []
        for index in range(level.size):
            if level.label_values is not None:
                label = level.label_values[index]
            else:
                label = f"{key.replace('_', ' ').title()} {index}"
            member = Member(self.member_iri(key, index), label)
            yield Triple(member.iri, LABEL, Literal(label))
            members.append(member)
        return members

    def _build_hierarchy_edges(self, rng: random.Random,
                               pools: dict[str, list[Member]]):
        """Link each member to its parent(s) in the next level up.

        The parent assignment is a deterministic function of the *pool pair
        and predicate*, so dimensions sharing pools (origin/destination
        countries) share one consistent rollup structure, exactly like the
        shared ``In_Continent`` edges of Figure 1.
        """
        done: set[tuple[str, str, str]] = set()
        for dimension in self.schema.dimensions:
            for hierarchy in dimension.hierarchies:
                for step in range(len(hierarchy.levels) - 1):
                    lower, upper = hierarchy.levels[step], hierarchy.levels[step + 1]
                    predicate_name = hierarchy.rollup_names[step]
                    signature = (lower.pool_key, upper.pool_key, predicate_name)
                    if signature in done:
                        continue
                    done.add(signature)
                    predicate = self.rollup_predicate(predicate_name)
                    # Seed per signature: the structure must not depend on
                    # the order dimensions are declared in.
                    step_rng = random.Random(f"{self.seed}:{signature}")
                    lower_members = pools[lower.pool_key]
                    upper_members = pools[upper.pool_key]
                    fan = min(upper.parents_per_member, len(upper_members))
                    for child_index, child in enumerate(lower_members):
                        # Every parent keeps at least one child (round-robin
                        # base), extra parents drawn at random for M-to-N.
                        base_parent = upper_members[child_index % len(upper_members)]
                        parents = {base_parent.iri}
                        while len(parents) < fan:
                            parents.add(upper_members[step_rng.randrange(len(upper_members))].iri)
                        for parent_iri in sorted(parents, key=lambda i: i.value):
                            yield Triple(child.iri, predicate, parent_iri)

    def _annotate_schema(self, kg: StatisticalKG):
        """Emit labels and QB/QB4OLAP typing for predicates and levels."""
        for dimension in self.schema.dimensions:
            predicate = self.dimension_predicate(dimension)
            yield Triple(predicate, LABEL, Literal(_title(dimension.predicate_local_name)))
            if self.annotate:
                yield Triple(predicate, TYPE, DIMENSION_PROPERTY)
            for hierarchy, level in dimension.levels():
                level_iri = self.level_schema_iri(dimension, level)
                kg.level_iri[(dimension.name, level.name)] = level_iri
                yield Triple(level_iri, LABEL, Literal(_title(level.name)))
                if self.annotate:
                    yield Triple(level_iri, TYPE, LEVEL_CLASS)
                    for member in kg.members[(dimension.name, level.name)]:
                        yield Triple(member.iri, MEMBER_OF, level_iri)
            if self.annotate:
                for hierarchy in dimension.hierarchies:
                    for step in range(len(hierarchy.levels) - 1):
                        lower = self.level_schema_iri(dimension, hierarchy.levels[step])
                        upper = self.level_schema_iri(dimension, hierarchy.levels[step + 1])
                        yield Triple(lower, ROLLS_UP_TO, upper)
            for hierarchy in dimension.hierarchies:
                for name in hierarchy.rollup_names:
                    predicate = self.rollup_predicate(name)
                    yield Triple(predicate, LABEL, Literal(_title(name)))
        for measure in self.schema.measures:
            predicate = self.measure_predicate(measure)
            yield Triple(predicate, LABEL, Literal(_title(measure.name)))
            if self.annotate:
                yield Triple(predicate, TYPE, MEASURE_PROPERTY)

    def _build_observations(self, rng: random.Random,
                            pools: dict[str, list[Member]], n_observations: int):
        dim_predicates = [
            (self.dimension_predicate(d), pools[d.base_level.pool_key])
            for d in self.schema.dimensions
        ]
        measure_predicates = [(self.measure_predicate(m), m) for m in self.schema.measures]
        attr_predicates = [
            self.attribute_predicate(i) for i in range(self.schema.observation_attributes)
        ]
        for index in range(n_observations):
            obs = self.observation_iri(index)
            yield Triple(obs, TYPE, OBSERVATION_CLASS)
            for predicate, members in dim_predicates:
                member = members[rng.randrange(len(members))]
                yield Triple(obs, predicate, member.iri)
            for predicate, measure in measure_predicates:
                # Squared uniform: a right-skewed value distribution so
                # top-k / percentile refinements have distinguishable tails.
                raw = measure.low + (measure.high - measure.low) * rng.random() ** 2
                if measure.integral:
                    literal = Literal(str(int(raw)), datatype=XSD_INTEGER)
                else:
                    literal = Literal(repr(raw), datatype=XSD_DOUBLE)
                yield Triple(obs, predicate, literal)
            for position, predicate in enumerate(attr_predicates):
                yield Triple(obs, predicate, Literal(f"note {index}.{position}"))


def _title(name: str) -> str:
    """``country_of_origin`` → ``Country Of Origin`` (predicate labels)."""
    return name.replace("_", " ").title()
