"""The docs name only flags, modules, symbols and keys that exist.

Every ``--flag`` README.md and DESIGN.md mention is one the CLI accepts,
every backticked ``repro.…`` path or ``file.py::symbol`` in README.md,
DESIGN.md and benchmarks/e2e/README.md resolves by import and getattr,
every key they name under ``/stats`` is in the server's stats document,
and the package docstring's quickstart runs.  A flag, module, symbol or
key that is renamed or deleted but still written in the docs fails here,
so the docs cannot keep advertising what the program no longer has.
"""

import argparse
import importlib
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import make_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
#: Flags of other programs the docs quote: pytest-benchmark and curl.
FOREIGN = {"--benchmark-only", "--data-urlencode"}
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def cli_flags() -> set[str]:
    """The long options of the top-level parser and every subparser."""
    flags: set[str] = set()
    pending = [make_parser()]
    while pending:
        parser = pending.pop()
        for action in parser._actions:
            flags.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.values())
    return flags


def doc_flags(name: str) -> set[str]:
    return set(FLAG.findall((ROOT / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", DOCS)
def test_documented_flags_are_accepted(name):
    unknown = doc_flags(name) - cli_flags() - FOREIGN
    assert not unknown, f"{name} names flags the CLI rejects: {sorted(unknown)}"


def test_foreign_allowlist_stays_foreign_and_used():
    # An allowlisted flag the CLI grew, or one the docs no longer quote,
    # would hide a real mismatch: keep the list exact.
    assert not FOREIGN & cli_flags()
    documented = set().union(*(doc_flags(name) for name in DOCS))
    assert FOREIGN <= documented


PATH_DOCS = ("README.md", "DESIGN.md", "benchmarks/e2e/README.md")
DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")
FILE_SYMBOL = re.compile(r"`([\w/]+)\.py::([\w.]+)`")


def doc_paths(name: str) -> list[tuple[str, str]]:
    """(module candidates, attribute chain) pairs the doc names.

    ``repro.a.b.C`` is split at every dot; the longest importable prefix
    is the module.  ``dir/file.py::Sym`` names a module by its file path,
    taken from the repository root (``tests/…``, ``benchmarks/…``) or
    from the ``repro`` package (``core/reolap.py``, ``repro/store/…``).
    """
    text = (ROOT / name).read_text(encoding="utf-8")
    found = [(dotted, "") for dotted in DOTTED.findall(text)]
    for path, symbol in FILE_SYMBOL.findall(text):
        parts = path.split("/")
        if parts[0] == "src":
            parts = parts[1:]
        if parts[0] not in ("repro", "tests", "benchmarks"):
            parts = ["repro"] + parts
        found.append((".".join(parts), symbol))
    return found


def resolve(module_path: str, symbol: str):
    """Import the longest module prefix of ``module_path``, then getattr
    the rest of it and ``symbol``; raise if any step is missing."""
    parts = module_path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:] + (symbol.split(".") if symbol else []):
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(module_path)


@pytest.mark.parametrize("name", PATH_DOCS)
def test_documented_paths_resolve(name):
    paths = doc_paths(name)
    missing = []
    for module_path, symbol in paths:
        try:
            resolve(module_path, symbol)
        except (ImportError, AttributeError):
            missing.append(f"{module_path}::{symbol}" if symbol else module_path)
    assert not missing, f"{name} names what does not exist: {missing}"


def test_path_check_finds_the_documented_paths():
    # A regex that silently matched nothing would pass every doc.
    assert sum(len(doc_paths(name)) for name in PATH_DOCS) >= 15


#: Keys the docs name under ``/stats``, each with the doc text naming it.
STATS_KEYS = {
    "serving": ("README.md", "/stats # serving/endpoint/tenant counters"),
    "endpoint": ("README.md", "/stats # serving/endpoint/tenant counters"),
    "tenants": ("README.md", "/stats # serving/endpoint/tenant counters"),
    "durability": ("README.md",
                   "`/stats` endpoint reports WAL and recovery counters "
                   "under `durability`"),
    "durability.recovery": ("DESIGN.md",
                            "`/stats` under `durability.recovery`"),
}


def test_documented_stats_keys_exist(tmp_path):
    from repro.rdf import IRI, Triple
    from repro.server.app import ReproServer
    from repro.serving import QueryService
    from repro.store import Endpoint, Graph

    graph = Graph.open_durable(tmp_path / "kg", fsync=False)
    graph.add(Triple(IRI("http://example.org/s"), IRI("http://example.org/p"),
                     IRI("http://example.org/o")))
    service = QueryService(Endpoint(graph), workers=1)
    try:
        assert service.submit("ASK { ?s ?p ?o }").result()
        document = ReproServer(service).stats_document()
    finally:
        service.shutdown()
        graph.close()
    for key, (name, phrase) in STATS_KEYS.items():
        text = " ".join((ROOT / name).read_text(encoding="utf-8").split())
        assert phrase in text, f"{name} no longer says {phrase!r}"
        node = document
        for part in key.split("."):
            assert part in node, f"/stats has no {key!r}, which {name} names"
            node = node[part]
    assert document["tenants"], "/stats lists no tenant counters"


def test_package_quickstart_runs(capsys):
    import repro

    doc = repro.__doc__
    block = doc[doc.index("Quickstart::") + len("Quickstart::"):]
    exec(compile(textwrap.dedent(block), "repro.__doc__", "exec"), {})
    assert capsys.readouterr().out.strip(), "the quickstart printed no candidate"
