"""The ``.qv`` quiver text format: :class:`QuiverDoc`, its parser and its
canonical emitter.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    quiver   := "quiver" IDENT "{" clauses "}"
    clauses  := "vertices:" IDENT+ ["arrows:" arrow ("," arrow)*]
                ["relations:" rel ("," rel)*]
    arrow    := IDENT ":" IDENT "->" IDENT
    rel      := IDENT "*" IDENT
    IDENT    := [A-Za-z0-9_]+

``quiver``, ``vertices``, ``arrows`` and ``relations`` are reserved words.
A present clause must be nonempty; quivers without arrows or relations omit
the clause.  Relation paths longer than two arrows are rejected
(``NonQuadraticRelationError``) since the relation ideals here are
quadratic monomial.  ``emit_dsl`` produces a canonical form — name order is
by (length, string) so numeric labels sort naturally — and
``parse_quiver_dsl(emit_dsl(doc)) == doc``: ``emit_dsl`` refuses a document
without vertices, or with a name that is not an IDENT or is reserved.

Lines end where ``str.splitlines`` ends them: ``\\n``, ``\\r\\n``, a lone
``\\r``, ``\\x0c``, ``\\u2028`` and the rest.  Any of them ends a ``#``
comment, and a ``DslSyntaxError`` counts its line and column in those
lines.  The first character that fits no token is reported before any
grammar error, wherever it stands.  The text is scanned once, and
positions are worked out only when an error is raised.

This module needs only :mod:`stepquiver.quiver` and the standard library,
so reading, checking and writing quivers never loads numpy.  The
expression language in :mod:`stepquiver.dsl` shares its
:class:`_TokenCursor`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .errors import DslSyntaxError, NonQuadraticRelationError, StepQuiverError
from .quiver import Arrow, GentlePresentation, Quiver, _intern, _names, _relation, _set

RESERVED = ("quiver", "vertices", "arrows", "relations")
_IDENT = re.compile(r"[A-Za-z0-9_]+")
_NAME_CHARS = re.compile(r"[A-Za-z0-9_ ]+")


# ---------------------------------------------------------------------------
# quiver documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuiverDoc:
    """A named quiver presentation in canonical order.

    Construction validates vertex references and arrow-name uniqueness by
    building the document's :class:`Quiver`, which ``quiver()`` returns.
    """

    name: str
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[str, str], ...]
    _quiver: Quiver = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # checked once, here, so that the sorts can compare the names
        vertices, arrows, names = _names(self.vertices, self.arrows)
        rels = tuple(sorted(dict.fromkeys(map(_relation, self.relations)),
                            key=lambda r: (len(r[0]), r[0], len(r[1]), r[1])))
        # (length, name) order from C-level sorts: a stable sort by length of
        # what is already in name order, so arrows of one name keep theirs
        by_name = sorted(range(len(arrows)), key=names.__getitem__)
        order = sorted(by_name, key=tuple(map(len, names)).__getitem__)
        q = _intern(object.__new__(Quiver), sorted(sorted(vertices), key=len),
                    tuple(map(arrows.__getitem__, order)), tuple(map(names.__getitem__, order)))
        _set(self, relations=rels, vertices=q.vertices, arrows=q.arrows, _quiver=q)

    def quiver(self) -> Quiver:
        return self._quiver


def doc_from_presentation(name: str, p: GentlePresentation) -> QuiverDoc:
    return QuiverDoc(name, p.quiver.vertices, p.quiver.arrows, p.relations)


# One scan of the whole text.  A comment runs to the next line break of
# ``str.splitlines``; the last alternative takes the rest of the text from
# the first character that fits no token, so a bad character ends the token
# list and is reported before any grammar error.
_QV_TOKEN = re.compile(r"#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*"
                       r"|->|[{}:,*]|[A-Za-z0-9_]+|\S.*", re.DOTALL)
_PUNCT = frozenset(("{", "}", ":", ",", "*", "->"))
# every other token is an identifier; "" marks the end of input
_NOT_IDENT = _PUNCT | frozenset(RESERVED) | {""}


class _TokenCursor:
    """Position in a list of token strings; errors point at the offending
    token, or just past the last one at end of input.  Positions are worked
    out only on error, from ``_start`` (a token's offset in the text) and
    ``_line_col`` (an offset as a line and column)."""

    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def _err(self, expected: str, pos: Optional[int] = None):
        pos = self.pos if pos is None else pos
        toks = self.toks
        if pos < len(toks):
            raise DslSyntaxError(*self._line_col(self._start(pos)), expected, toks[pos])
        end = self._start(len(toks) - 1) + len(toks[-1]) if toks else 0
        raise DslSyntaxError(*self._line_col(end), expected, "end of input")

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None


class _QvParser(_TokenCursor):
    def __init__(self, text: str):
        self.text = text
        toks = _QV_TOKEN.findall(text)
        if "#" in text:
            toks = [t for t in toks if t[0] != "#"]
        if toks and toks[-1] not in _PUNCT and not _IDENT.match(toks[-1]):
            raise DslSyntaxError(*self._line_col(len(text) - len(toks[-1])),
                                 "token", toks[-1][0])
        super().__init__(toks)

    def _start(self, i: int) -> int:
        return [m.start() for m in _QV_TOKEN.finditer(self.text)
                if m.group()[0] != "#"][i]

    def _line_col(self, offset: int) -> tuple[int, int]:
        """1-based line and column of ``text[offset]``, with the lines of
        ``str.splitlines``."""
        lines = (self.text[:offset] + "x").splitlines()  # "x" stands in for text[offset]
        return len(lines), len(lines[-1])

    def parse(self) -> QuiverDoc:
        # Token i is read only once token i - 1 is known not to be the end
        # marker, so the index never passes it.
        toks, fail = self.toks + [""], self._err
        if toks[0] != "quiver":
            fail("quiver", 0)
        name = toks[1]
        if name in _NOT_IDENT:
            fail("quiver name", 1)
        for i, want in ((2, "{"), (3, "vertices"), (4, ":")):
            if toks[i] != want:
                fail(want, i)
        i = first = 5
        while True:
            t = toks[i]
            if t == "}" or t == "" or (t in ("arrows", "relations") and toks[i + 1] == ":"):
                break
            if t in _NOT_IDENT:
                fail("vertex name", i)
            i += 1
        if i == first:
            fail("vertex name", i)
        vertices = toks[first:i]
        arrows = []
        if toks[i] == "arrows" and toks[i + 1] == ":":
            i += 2
            while True:
                if toks[i] in _NOT_IDENT:
                    fail("arrow declaration", i)
                if toks[i + 1] != ":":
                    fail(":", i + 1)
                if toks[i + 2] in _NOT_IDENT:
                    fail("source vertex", i + 2)
                if toks[i + 3] != "->":
                    fail("->", i + 3)
                if toks[i + 4] in _NOT_IDENT:
                    fail("target vertex", i + 4)
                arrows.append(Arrow(toks[i], toks[i + 2], toks[i + 4]))
                i += 5
                if toks[i] != ",":
                    break
                i += 1
        relations = []
        if toks[i] == "relations" and toks[i + 1] == ":":
            i += 2
            while True:
                first = i
                if toks[i] in _NOT_IDENT:
                    fail("relation path", i)
                while toks[i + 1] == "*":
                    i += 2
                    if toks[i] in _NOT_IDENT:
                        fail("relation path", i)
                if i != first + 2:
                    path = toks[first:i + 1:2]
                    raise NonQuadraticRelationError(
                        f"relation {'*'.join(path)} has length {len(path)}, not 2"
                    )
                relations.append((toks[first], toks[i]))
                i += 1
                if toks[i] != ",":
                    break
                i += 1
        if toks[i] != "}":
            fail("}", i)
        if i + 1 != len(self.toks):
            fail("end of input", i + 1)
        return name, vertices, arrows, relations


def parse_quiver_dsl(text: str) -> QuiverDoc:
    """Parse the quiver DSL into a canonical ``QuiverDoc``.

    Raises ``DslSyntaxError`` (with line/column and what was expected) on
    malformed input, ``NonQuadraticRelationError`` on relation paths of
    length other than two, and the ``UnknownVertexError`` /
    ``DuplicateArrowError`` of quiver construction on bad references.
    """
    # the parser, and with it the token list, is gone before the names are interned
    return QuiverDoc(*_QvParser(text).parse())


def emit_dsl(doc: QuiverDoc) -> str:
    """The canonical ``.qv`` text of ``doc``; ``StepQuiverError`` for a
    document that no text parses back to (see the module docstring)."""
    if not doc.vertices:
        raise StepQuiverError(f"quiver {doc.name!r} declares no vertices")
    names = (doc.name, *doc.vertices, *doc._quiver._ints.arrow_names,
             *chain.from_iterable(doc.relations))
    # one regex pass over the names joined by single spaces: a space inside
    # a name shows as one space too many
    text = " ".join(names) if isinstance(doc.name, str) else ""
    if (text.count(" ") != len(names) - 1 or not _NAME_CHARS.fullmatch(text)
            or not _NOT_IDENT.isdisjoint(names)):
        bad = next(x for x in names if not isinstance(x, str)
                   or x in _NOT_IDENT or not _IDENT.fullmatch(x))
        raise StepQuiverError(f"name {bad!r} is not a .qv identifier: "
                              f"[A-Za-z0-9_]+ and not one of {', '.join(RESERVED)}")
    lines = [f"quiver {doc.name} {{"]
    lines.append("  vertices: " + " ".join(doc.vertices))
    if doc.arrows:
        decls = ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in doc.arrows)
        lines.append("  arrows: " + decls)
    if doc.relations:
        lines.append("  relations: " + ", ".join(f"{a}*{b}" for a, b in doc.relations))
    lines.append("}")
    return "\n".join(lines) + "\n"
