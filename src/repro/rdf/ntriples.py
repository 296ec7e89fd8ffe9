"""N-Triples parser and serializer.

N-Triples is the line-oriented RDF serialization: one triple per line,
terms written in full.  It is the interchange format the library uses for
loading fixture data and dumping graphs, mirroring how the paper's system
loads datasets into the triple store before bootstrap.

Both readers share one line scanner.  A well-formed line matches one
anchored regex whose subject alternative is IRI|bnode and whose predicate
is an IRI, so the match alone applies :class:`Triple`'s positional checks;
each distinct term text is parsed once per document through a memo.  A
line the regex rejects is re-read term by term with :func:`parse_term`,
which raises the :class:`RDFSyntaxError` naming the fault and the line.
"""

from __future__ import annotations

import re
from array import array
from typing import IO, Callable, Iterable, Iterator, TypeVar

from ..errors import RDFSyntaxError
from .terms import IRI, BNode, Literal, Node
from .triple import Triple

__all__ = ["parse_ntriples", "parse_ntriples_ids", "serialize_ntriples", "parse_term"]

_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9_.-]+)")
_LITERAL_RE = re.compile(
    r'"((?:[^"\\]|\\.)*)"'
    r"(?:\^\^<([^<>\s]*)>|@([A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*))?"
)

# One whole triple line, the three term patterns above without their
# groups.  The bnode lookahead makes its label maximal, as
# ``_BNODE_RE.match`` takes it: ``_:b.`` must stay the label ``b.``, not
# become ``_:b`` plus the terminating dot.  The literal needs no guard:
# a shorter language tag is followed by a letter, never by ``\s*\.``.
_IRI_TEXT = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_BNODE_TEXT = r"_:[A-Za-z0-9_.-]+(?![A-Za-z0-9_.-])"
_LITERAL_TEXT = (
    r'"(?:[^"\\]|\\.)*"'
    r"(?:\^\^<[^<>\s]*>|@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*)?"
)
_LINE_RE = re.compile(
    rf"({_IRI_TEXT}|{_BNODE_TEXT})\s*({_IRI_TEXT})\s*"
    rf"({_IRI_TEXT}|{_BNODE_TEXT}|{_LITERAL_TEXT})\s*\.(?:\s*#(?s:.*))?"
)

_UNESCAPES = {
    "\\\\": "\\",
    '\\"': '"',
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
}
_UNESCAPE_RE = re.compile(r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}|\\.")


def _unescape(text: str) -> str:
    def repl(match: re.Match) -> str:
        seq = match.group(0)
        if seq in _UNESCAPES:
            return _UNESCAPES[seq]
        if seq.startswith(("\\u", "\\U")):
            return chr(int(seq[2:], 16))
        raise RDFSyntaxError(f"unknown escape sequence {seq!r}")

    return _UNESCAPE_RE.sub(repl, text)


def parse_term(text: str, line: int | None = None) -> tuple[Node, str]:
    """Parse one term from the front of ``text``.

    Returns the term and the remaining (left-stripped) text.
    """
    text = text.lstrip()
    if text.startswith("<"):
        match = _IRI_RE.match(text)
        if not match:
            raise RDFSyntaxError(f"malformed IRI near {text[:40]!r}", line)
        return IRI(match.group(1)), text[match.end():].lstrip()
    if text.startswith("_:"):
        match = _BNODE_RE.match(text)
        if not match:
            raise RDFSyntaxError(f"malformed blank node near {text[:40]!r}", line)
        return BNode(match.group(1)), text[match.end():].lstrip()
    if text.startswith('"'):
        match = _LITERAL_RE.match(text)
        if not match:
            raise RDFSyntaxError(f"malformed literal near {text[:40]!r}", line)
        lexical = _unescape(match.group(1))
        datatype = IRI(match.group(2)) if match.group(2) else None
        language = match.group(3)
        return Literal(lexical, datatype=datatype, language=language), text[match.end():].lstrip()
    raise RDFSyntaxError(f"unexpected token near {text[:40]!r}", line)


_T = TypeVar("_T")


def _parse_line(stripped: str, lineno: int) -> tuple[Node, Node, Node]:
    """One triple line, term by term: the path that names a line's fault."""
    s, rest = parse_term(stripped, lineno)
    p, rest = parse_term(rest, lineno)
    if not isinstance(p, IRI):
        raise RDFSyntaxError("predicate must be an IRI", lineno)
    o, rest = parse_term(rest, lineno)
    if not rest.startswith("."):
        raise RDFSyntaxError("missing terminating '.'", lineno)
    trailing = rest[1:].strip()
    if trailing and not trailing.startswith("#"):
        raise RDFSyntaxError(f"unexpected content after '.': {trailing!r}", lineno)
    try:
        Triple(s, p, o)
    except TypeError as exc:
        raise RDFSyntaxError(str(exc), lineno) from exc
    return s, p, o


def _scan(source: str | IO[str], intern: Callable[[Node], _T]) -> Iterator[tuple[_T, _T, _T]]:
    """``(intern(s), intern(p), intern(o))`` per triple line of ``source``.

    ``intern`` runs once per distinct term text: the memo maps each text
    to its interned value for the rest of the document.
    """
    lines: Iterable[str]
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source
    memo: dict[str, _T] = {}
    get = memo.get
    match_line = _LINE_RE.fullmatch

    def miss(text: str, lineno: int) -> _T:
        value = memo[text] = intern(parse_term(text, lineno)[0])
        return value

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = match_line(stripped)
        if match is None:
            s, p, o = _parse_line(stripped, lineno)
            yield intern(s), intern(p), intern(o)
            continue
        s_text, p_text, o_text = match.groups()
        s = get(s_text)
        if s is None:
            s = miss(s_text, lineno)
        p = get(p_text)
        if p is None:
            p = miss(p_text, lineno)
        o = get(o_text)
        if o is None:
            o = miss(o_text, lineno)
        yield s, p, o


def _same(term: Node) -> Node:
    return term


def parse_ntriples(source: str | IO[str]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document (string or open file)."""
    for s, p, o in _scan(source, _same):
        yield Triple(s, p, o)


def parse_ntriples_ids(
    source: str | IO[str], encode: Callable[[Node], int]
) -> tuple[array, array, array]:
    """An N-Triples document as three int64 id columns ``(s, p, o)``.

    ``encode`` maps a term to its id (a term dictionary's ``encode``); it
    sees each term in document order, so ids come out as a per-triple
    load would assign them, and no :class:`Triple` is built.
    """
    subjects, predicates, objects = array("q"), array("q"), array("q")
    add_s, add_p, add_o = subjects.append, predicates.append, objects.append
    for s, p, o in _scan(source, encode):
        add_s(s)
        add_p(p)
        add_o(o)
    return subjects, predicates, objects


def serialize_ntriples(triples: Iterable[Triple], out: IO[str] | None = None) -> str | None:
    """Serialize ``triples`` in N-Triples format.

    When ``out`` is given, lines are written to it and ``None`` is returned;
    otherwise the document is returned as one string.
    """
    if out is None:
        return "".join(t.n3() + "\n" for t in triples)
    for t in triples:
        out.write(t.n3() + "\n")
    return None
