"""Textual language for presentations, morphisms and modules.

Grammar (whitespace-insensitive within lines, '#' comments to end of line):

    file     := block*
    block    := "algebra" NAME "gens" NAME+ ["order" "deglex" prec] ("rel" poly)* "end"
              | "morphism" NAME ":" NAME "->" NAME ("map" NAME "=>" poly)* "end"
              | "module" NAME "over" NAME "dim" INT ("act" NAME "=" matrix)* "end"
    prec     := NAME (">" NAME)*          # greatest first; ">" optional
    poly     := ["-"] term (("+"|"-") term)*
    term     := RATIONAL | [RATIONAL] NAME+      # juxtaposition is product
    RATIONAL := INT ["/" INT]             # nonzero denominator
    matrix   := "[" row (";" row)* "]"    # dim rows of dim entries
    row      := (["-"] RATIONAL)*

Generator names are not keywords.  Morphisms and modules name algebras declared
above them, and block names are unique within each kind.  A morphism maps
each generator at most once and a module acts by each generator at most
once; a matrix has at least one row, so a ``dim 0`` module takes no
``act`` line.  A relation whose terms cancel to zero is a parse error.
Parsing is loss free: pretty-printing a parsed file and reparsing gives
the same result.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from zhuind.algebra import Presentation
from zhuind.freealg import MonomialOrder, NcPoly, Word


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # NAME | INT | PUNCT
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)|(?P<INT>\d+)|(?P<PUNCT>=>|->|[>:=/\[\];+\-*])|(?P<BAD>\S)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            if m.lastgroup == "BAD":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            tokens.append(Token(m.lastgroup, m.group(), lineno, m.start() + 1))
    return tokens


class AlgebraBlock(NamedTuple):
    name: str
    gens: list[str]
    precedence: list[str]  # names, greatest first; defaults to declaration order
    relations: list[NcPoly]

    def order(self) -> MonomialOrder:
        ranked = [self.gens.index(n) for n in self.precedence]
        return MonomialOrder.from_ranking(ranked)

    def presentation(self) -> Presentation:
        return Presentation(self.name, tuple(self.gens), self.order(), tuple(self.relations))


class MorphismBlock(NamedTuple):
    name: str
    source: str
    target: str
    images: dict[str, NcPoly]  # source generator name -> target polynomial


class ModuleBlock(NamedTuple):
    name: str
    algebra: str
    dim: int
    actions: dict[str, list[list[Fraction]]]


Block = AlgebraBlock | MorphismBlock | ModuleBlock


class SourceFile(NamedTuple):
    blocks: list[Block]

    def algebras(self) -> dict[str, AlgebraBlock]:
        return {b.name: b for b in self.blocks if isinstance(b, AlgebraBlock)}

    def morphisms(self) -> dict[str, MorphismBlock]:
        return {b.name: b for b in self.blocks if isinstance(b, MorphismBlock)}

    def modules(self) -> dict[str, ModuleBlock]:
        return {b.name: b for b in self.blocks if isinstance(b, ModuleBlock)}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.algebras: dict[str, AlgebraBlock] = {}  # the algebra blocks parsed so far, by name

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def last(self) -> Token:
        return self.tokens[-1] if self.tokens else Token("PUNCT", "", 1, 1)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.last()
            raise ParseError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def accept(self, *words: str) -> Token | None:
        """The next token when its text is one of ``words``, consumed; otherwise None."""
        tok = self.peek()
        return self.next() if tok is not None and tok.text in words else None

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "NAME":
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_name(self) -> bool:
        """Whether the next token is a name that is not a keyword."""
        tok = self.peek()
        return tok is not None and tok.kind == "NAME" and tok.text not in _KEYWORDS

    # -- polynomials and matrices --------------------------------------

    def parse_rational(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        tok = self.next()
        if tok.kind != "INT":
            raise ParseError(f"malformed rational near {tok.text!r}", tok.line, tok.col)
        den = 1
        if self.accept("/"):
            den_tok = self.next()
            if den_tok.kind != "INT" or int(den_tok.text) == 0:
                raise ParseError("malformed rational denominator", den_tok.line, den_tok.col)
            den = int(den_tok.text)
        return Fraction(sign * int(tok.text), den)

    def parse_term(self, gens: dict[str, int]) -> NcPoly:
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.kind == "INT":
            coeff = self.parse_rational()
        elif not self.at_name():
            where = tok or self.last()
            raise ParseError("expected a term", where.line, where.col)
        letters: list[int] = []
        while self.at_name():
            tok = self.next()
            if tok.text not in gens:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
            letters.append(gens[tok.text])
        return NcPoly.monomial(tuple(letters), coeff)

    def parse_poly(self, gens: dict[str, int]) -> NcPoly:
        sign = -1 if self.accept("-") else 1
        poly = self.parse_term(gens).scale(sign)
        while op := self.accept("+", "-"):
            term = self.parse_term(gens)
            poly = poly + (term if op.text == "+" else term.scale(-1))
        return poly

    def parse_matrix(self, dim: int) -> list[list[Fraction]]:
        open_tok = self.expect("[")
        rows: list[list[Fraction]] = [[]]
        while not self.accept("]"):
            if self.peek() is None:
                raise ParseError("unterminated matrix", open_tok.line, open_tok.col)
            if self.accept(";"):
                rows.append([])
            else:
                rows[-1].append(self.parse_rational())
        if any(len(r) != len(rows[0]) for r in rows):
            raise ParseError("ragged matrix rows", open_tok.line, open_tok.col)
        if len(rows) != dim or len(rows[0]) != dim:
            raise ParseError(
                f"matrix must be {dim}x{dim}, found {len(rows)}x{len(rows[0])}", open_tok.line, open_tok.col
            )
        return rows

    # -- blocks --------------------------------------------------------

    def entries(self, keyword: str, sep: str, gens: list[str], unknown: str, parse_value: Callable[[], object]) -> dict:
        """``(keyword NAME sep value)* "end"`` as a dict from generator name to value, each name at most once."""
        out = {}
        while self.accept(keyword):
            tok = self.expect_name()
            if tok.text not in gens:
                raise ParseError(f"{unknown} {tok.text!r}", tok.line, tok.col)
            if tok.text in out:
                raise ParseError(f"duplicate {keyword} of generator {tok.text!r}", tok.line, tok.col)
            self.expect(sep)
            out[tok.text] = parse_value()
        self.expect("end")
        return out

    def parse_algebra(self) -> AlgebraBlock:
        head = self.expect("algebra")
        name = self.expect_name().text
        self.expect("gens")
        gens: list[str] = []
        while self.at_name():
            gens.append(self.next().text)
        if not gens:
            raise ParseError("algebra needs at least one generator", head.line, head.col)
        gen_map = {g: i for i, g in enumerate(gens)}
        if len(gen_map) != len(gens):
            raise ParseError("duplicate generator name", head.line, head.col)
        precedence = list(gens)
        if self.accept("order"):
            self.expect("deglex")
            precedence = []
            while (tok := self.peek()) is not None and tok.text not in _KEYWORDS:
                if tok.text != ">":
                    if tok.text not in gen_map:
                        raise ParseError(f"unknown generator {tok.text!r} in order", tok.line, tok.col)
                    precedence.append(tok.text)
                self.next()
            if sorted(precedence) != sorted(gens):
                raise ParseError("order must list every generator exactly once", head.line, head.col)
        relations: list[NcPoly] = []
        while rel_tok := self.accept("rel"):
            rel = self.parse_poly(gen_map)
            if rel.is_zero():
                raise ParseError("relation is zero", rel_tok.line, rel_tok.col)
            relations.append(rel)
        self.expect("end")
        block = self.algebras[name] = AlgebraBlock(name, gens, precedence, relations)
        return block

    def parse_morphism(self) -> MorphismBlock:
        head = self.expect("morphism")
        name = self.expect_name().text
        self.expect(":")
        source = self.expect_name().text
        self.expect("->")
        target = self.expect_name().text
        if source not in self.algebras or target not in self.algebras:
            raise ParseError(f"morphism {name!r} references undeclared algebra", head.line, head.col)
        tgt_map = {g: i for i, g in enumerate(self.algebras[target].gens)}
        images = self.entries("map", "=>", self.algebras[source].gens, "unknown source generator", lambda: self.parse_poly(tgt_map))
        return MorphismBlock(name, source, target, images)

    def parse_module(self) -> ModuleBlock:
        head = self.expect("module")
        name = self.expect_name().text
        self.expect("over")
        owner = self.expect_name().text
        if owner not in self.algebras:
            raise ParseError(f"module {name!r} over undeclared algebra {owner!r}", head.line, head.col)
        self.expect("dim")
        dim_tok = self.next()
        if dim_tok.kind != "INT":
            raise ParseError("module dimension must be an integer", dim_tok.line, dim_tok.col)
        dim = int(dim_tok.text)
        actions = self.entries("act", "=", self.algebras[owner].gens, "unknown generator", lambda: self.parse_matrix(dim))
        return ModuleBlock(name, owner, dim, actions)


_KEYWORDS = {"algebra", "morphism", "module", "gens", "order", "deglex", "rel", "end", "map", "over", "dim", "act"}


def parse(text: str) -> SourceFile:
    """Parse a source file; raises ParseError with position on failure."""
    parser = _Parser(tokenize(text))
    block_parsers = {"algebra": parser.parse_algebra, "morphism": parser.parse_morphism, "module": parser.parse_module}
    blocks: list[Block] = []
    seen: set[tuple[str, str]] = set()  # (block keyword, name)
    while (tok := parser.peek()) is not None:
        if tok.text not in block_parsers:
            raise ParseError(f"expected a block keyword, found {tok.text!r}", tok.line, tok.col)
        block = block_parsers[tok.text]()
        if (tok.text, block.name) in seen:
            raise ParseError(f"duplicate {tok.text} name {block.name!r}", tok.line, tok.col)
        seen.add((tok.text, block.name))
        blocks.append(block)
    return SourceFile(blocks)


def parse_poly_text(text: str, gen_names: tuple[str, ...] | list[str]) -> NcPoly:
    """Parse a standalone polynomial over the given generator names."""
    tokens = tokenize(text)
    parser = _Parser(tokens)
    poly = parser.parse_poly({g: i for i, g in enumerate(gen_names)})
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return poly


# -- pretty printing ----------------------------------------------------


def format_fraction(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(poly: NcPoly, gen_names: list[str] | tuple[str, ...], order: MonomialOrder | None = None) -> str:
    if poly.is_zero():
        return "0"
    words = sorted(poly.terms, key=(order.key if order else None), reverse=order is not None)
    chunks: list[str] = []
    for i, w in enumerate(words):
        c = poly.terms[w]
        mag = abs(c)
        body = " ".join(gen_names[g] for g in w)
        if not w:
            piece = format_fraction(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{format_fraction(mag)} {body}"
        if i == 0:
            chunks.append(piece if c > 0 else f"- {piece}")
        else:
            chunks.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(chunks)


def pretty_print(source: SourceFile) -> str:
    lines: list[str] = []
    algebras = source.algebras()
    for block in source.blocks:
        if isinstance(block, AlgebraBlock):
            order = block.order()
            lines.append(f"algebra {block.name}")
            lines.append("  gens " + " ".join(block.gens))
            lines.append("  order deglex " + " > ".join(block.precedence))
            for rel in block.relations:
                lines.append("  rel " + format_poly(rel, block.gens, order))
            lines.append("end")
        elif isinstance(block, MorphismBlock):
            lines.append(f"morphism {block.name} : {block.source} -> {block.target}")
            tgt = algebras[block.target]
            for g, img in block.images.items():
                lines.append(f"  map {g} => " + format_poly(img, tgt.gens, tgt.order()))
            lines.append("end")
        else:
            lines.append(f"module {block.name} over {block.algebra} dim {block.dim}")
            for g, mat in block.actions.items():
                rows = " ; ".join(" ".join(format_fraction(x) for x in row) for row in mat)
                lines.append(f"  act {g} = [ {rows} ]")
            lines.append("end")
        lines.append("")
    return "\n".join(lines)
