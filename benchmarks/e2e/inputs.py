"""Input generation: synthetic cube -> N-Triples file, snapshot, scripts.

Runs as a child process (``python inputs.py '<json>'``) so the generator's
own memory never counts towards the measured process, and is never inside a
timed region; its wall time is reported as ``inputgen_s``.

A *script* is one exploration: an example tuple drawn from a real
observation (so synthesis has at least one candidate) plus the numbers that
pick a candidate and one refinement from every menu.  ``seed`` drives the
cube (members, roll-ups, measures) and which observation each example comes
from.  The *shape* of the traffic — which dimensions and levels script ``i``
exemplifies and which menu entries it picks — belongs to the workload and is
the same for every seed: runs on different seeds then ask the same kinds of
question of different data, and their metrics are comparable.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "..", "..", "src"))

INPUTS_FILE = "inputs.json"
NT_FILE = "data.nt"
SNAPSHOT_FILE = "data.snap"
PICKS_PER_SCRIPT = 8


def inputs_dir(cache_dir: str, dataset: str, observations: int, scale: float,
               seed: int) -> str:
    return os.path.join(cache_dir, f"inputs-{dataset}-{observations}-{scale}-{seed}")


def generate(directory: str, dataset: str, observations: int, scale: float,
             seed: int, sizes: list[int], n_scripts: int) -> dict:
    """Write the input files into ``directory``; returns the manifest."""
    from repro import datasets
    from repro.qb.cube import CubeBuilder
    from repro.qb.vocabulary import LABEL
    from repro.rdf.ntriples import serialize_ntriples
    from repro.store.graph import Graph

    class StreamGraph(Graph):
        """Remembers generation order: write_mix replays it as a stream."""

        __slots__ = ("stream",)

        def add(self, triple):
            added = super().add(triple)
            if added:
                self.stream.append(triple)
            return added

    started = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    schema = getattr(datasets, f"{dataset}_schema")(scale)
    builder = CubeBuilder(schema, seed=seed)
    graph = StreamGraph()
    graph.stream = []
    kg = builder.build(observations, graph=graph)

    with open(os.path.join(directory, NT_FILE), "w", encoding="utf-8") as out:
        serialize_ntriples(graph.stream, out)
    snapshot_bytes = graph.save_snapshot(os.path.join(directory, SNAPSHOT_FILE))

    by_label: dict[str, list] = {}
    for members in kg.members.values():
        for member in members:
            by_label.setdefault(member.label, []).append(member.iri.value)

    shape = random.Random(f"shape:{dataset}")
    rng = random.Random(f"scripts:{seed}")
    scripts = []
    accept: dict[str, list] = {}  # keyword -> members carrying that label
    for index in range(n_scripts):
        size = min(sizes[index % len(sizes)], len(schema.dimensions))
        number = rng.randrange(observations)
        observation = builder.observation_iri(number)
        # Keywords of one tuple never share a member pool (origin and
        # destination countries, say), so every reading of the tuple puts
        # them in different columns and one row must match them all.
        while True:
            levels = []
            for dimension in shape.sample(schema.dimensions, size):
                hierarchy = shape.choice(dimension.hierarchies)
                depth = shape.randrange(len(hierarchy.levels))
                levels.append((dimension, hierarchy, depth))
            pools = {h.levels[depth].pool_key for _, h, depth in levels}
            if len(pools) == size:
                break
        example = []
        for dimension, hierarchy, depth in levels:
            member = graph.value(
                observation, builder.dimension_predicate(dimension), None)
            for step in range(depth):
                parents = sorted(
                    graph.objects(member, builder.rollup_predicate(
                        hierarchy.rollup_names[step])),
                    key=lambda term: term.value)
                member = rng.choice(parents)
            label = graph.value(member, LABEL, None).lexical
            example.append(label)
            accept[label] = sorted(set(by_label[label]))
        scripts.append({
            "index": index,
            "observation": number,
            "example": example,
            "picks": [shape.randrange(1 << 30) for _ in range(PICKS_PER_SCRIPT)],
        })

    obs_triples = (1 + len(schema.dimensions) + len(schema.measures)
                   + schema.observation_attributes)
    manifest = {
        "dataset": dataset,
        "observations": observations,
        "scale": scale,
        "seed": seed,
        "triples": len(graph),
        "levels": schema.describe()["L"],
        "members": schema.describe()["N_D"],
        "snapshot_bytes": snapshot_bytes,
        "obs_triples": obs_triples,
        "obs_start": len(graph.stream) - observations * obs_triples,
        "scripts": scripts,
        "accept": accept,
        "inputgen_s": time.perf_counter() - started,
    }
    with open(os.path.join(directory, INPUTS_FILE), "w", encoding="utf-8") as out:
        json.dump(manifest, out)
    return manifest


def load_or_generate(cache_dir: str, workload, observations: int, seed: int,
                     n_scripts: int, env: dict) -> tuple[str, dict]:
    """The input directory and manifest, generated by a child when missing."""
    directory = inputs_dir(cache_dir, workload.dataset, observations,
                           workload.scale, seed)
    path = os.path.join(directory, INPUTS_FILE)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if len(manifest["scripts"]) >= n_scripts:
            return directory, manifest
    args = {
        "directory": directory, "dataset": workload.dataset,
        "observations": observations, "scale": workload.scale, "seed": seed,
        "sizes": list(workload.sizes), "n_scripts": n_scripts,
    }
    subprocess.run([sys.executable, os.path.abspath(__file__), json.dumps(args)],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    with open(path, encoding="utf-8") as handle:
        return directory, json.load(handle)


if __name__ == "__main__":
    generate(**json.loads(sys.argv[1]))
