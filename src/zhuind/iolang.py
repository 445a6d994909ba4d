"""Textual language for presentations, morphisms and modules.

Grammar (whitespace-insensitive within lines, '#' comments to end of line):

    file     := block+
    block    := "algebra" NAME "gens" NAME+ ["order" "deglex" prec] ("rel" poly)* "end"
              | "morphism" NAME ":" NAME "->" NAME ("map" NAME "=>" poly)* "end"
              | "module" NAME "over" NAME "dim" INT ("act" NAME "=" matrix)* "end"
    prec     := NAME (">" NAME)*          # greatest first; ">" optional
    poly     := ["-"] term (("+"|"-") term)*
    term     := RATIONAL | [RATIONAL] NAME+      # juxtaposition is product
    RATIONAL := INT ["/" INT]
    matrix   := "[" row (";" row)* "]"    # row := RATIONAL*

A relation whose terms cancel to zero is a parse error.  Parsing is loss
free: pretty-printing a parsed file and reparsing gives the same result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from zhuind.algebra import Presentation
from zhuind.freealg import MonomialOrder, NcPoly, Word


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | PUNCT
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|=>|->|[>:=/\[\];+\-*]")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(body, pos)
            if not m:
                raise ParseError(f"unexpected character {body[pos]!r}", lineno, pos + 1)
            text_ = m.group(0)
            kind = "NAME" if text_[0].isalpha() or text_[0] == "_" else ("INT" if text_.isdigit() else "PUNCT")
            tokens.append(Token(kind, text_, lineno, pos + 1))
            pos = m.end()
    return tokens


@dataclass
class AlgebraBlock:
    name: str
    gens: list[str]
    precedence: list[str]  # names, greatest first; defaults to declaration order
    relations: list[NcPoly]

    def order(self) -> MonomialOrder:
        ranked = [self.gens.index(n) for n in self.precedence]
        return MonomialOrder.from_ranking(ranked)

    def presentation(self) -> Presentation:
        return Presentation(self.name, tuple(self.gens), self.order(), tuple(self.relations))


@dataclass
class MorphismBlock:
    name: str
    source: str
    target: str
    images: dict[str, NcPoly]  # source generator name -> target polynomial


@dataclass
class ModuleBlock:
    name: str
    algebra: str
    dim: int
    actions: dict[str, list[list[Fraction]]]


Block = AlgebraBlock | MorphismBlock | ModuleBlock


@dataclass
class SourceFile:
    blocks: list[Block] = field(default_factory=list)

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

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text in words

    # -- polynomials --------------------------------------------------

    def parse_rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "INT":
            raise ParseError(f"malformed rational near {tok.text!r}", tok.line, tok.col)
        num = int(tok.text)
        if self.at_keyword("/"):
            self.next()
            den_tok = self.next()
            if den_tok.kind != "INT" or int(den_tok.text) == 0:
                raise ParseError("malformed rational denominator", den_tok.line, den_tok.col)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    def parse_term(self, gens: dict[str, int]) -> NcPoly:
        coeff = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.kind == "INT":
            coeff = self.parse_rational()
        elif tok is None or tok.kind != "NAME" or tok.text in _KEYWORDS:
            where = tok or self.last()
            raise ParseError("expected a term", where.line, where.col)
        letters: list[int] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "NAME" or tok.text in _KEYWORDS:
                break
            if tok.text not in gens:
                raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
            letters.append(gens[tok.text])
            self.next()
        return NcPoly.monomial(tuple(letters), coeff)

    def parse_poly(self, gens: dict[str, int]) -> NcPoly:
        sign = Fraction(1)
        if self.at_keyword("-"):
            self.next()
            sign = Fraction(-1)
        poly = self.parse_term(gens).scale(sign)
        while self.at_keyword("+", "-"):
            op = self.next().text
            term = self.parse_term(gens)
            poly = poly + (term if op == "+" else term.scale(-1))
        return poly

    # -- blocks --------------------------------------------------------

    def parse_algebra(self) -> AlgebraBlock:
        head = self.expect("algebra")
        name = self.expect_name().text
        self.expect("gens")
        gens: list[str] = []
        while self.peek() is not None and self.peek().kind == "NAME" and not self.at_keyword(*_KEYWORDS):
            gens.append(self.next().text)
        if not gens:
            raise ParseError("algebra needs at least one generator", head.line, head.col)
        gen_map = {g: i for i, g in enumerate(gens)}
        if len(gen_map) != len(gens):
            raise ParseError("duplicate generator name", head.line, head.col)
        precedence = list(gens)
        if self.at_keyword("order"):
            self.next()
            self.expect("deglex")
            precedence = []
            while True:
                tok = self.peek()
                if tok is None or tok.text in _KEYWORDS:
                    break
                if tok.text == ">":
                    self.next()
                    continue
                if tok.text not in gen_map:
                    raise ParseError(f"unknown generator {tok.text!r} in order", tok.line, tok.col)
                precedence.append(self.next().text)
            if sorted(precedence) != sorted(gens):
                raise ParseError("order must list every generator exactly once", head.line, head.col)
        relations: list[NcPoly] = []
        while self.at_keyword("rel"):
            rel_tok = self.next()
            rel = self.parse_poly(gen_map)
            if rel.is_zero():
                raise ParseError("relation is zero", rel_tok.line, rel_tok.col)
            relations.append(rel)
        self.expect("end")
        return AlgebraBlock(name, gens, precedence, relations)

    def parse_matrix(self, dim: int) -> list[list[Fraction]]:
        open_tok = self.expect("[")
        rows: list[list[Fraction]] = []
        row: list[Fraction] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unterminated matrix", open_tok.line, open_tok.col)
            if tok.text == ";":
                self.next()
                rows.append(row)
                row = []
                continue
            if tok.text == "]":
                self.next()
                rows.append(row)
                break
            sign = Fraction(1)
            if tok.text == "-":
                self.next()
                sign = Fraction(-1)
            row.append(sign * self.parse_rational())
        for r in rows:
            if len(r) != len(rows[0]):
                raise ParseError("ragged matrix rows", open_tok.line, open_tok.col)
        if dim and (len(rows) != dim or len(rows[0]) != dim):
            raise ParseError(
                f"matrix must be {dim}x{dim}, found {len(rows)}x{len(rows[0])}", open_tok.line, open_tok.col
            )
        return rows


_KEYWORDS = {"algebra", "morphism", "module", "gens", "order", "deglex", "rel", "end", "map", "over", "dim", "act"}


def parse(text: str) -> SourceFile:
    """Parse a source file; raises ParseError with position on failure."""
    tokens = tokenize(text)
    parser = _Parser(tokens)
    out = SourceFile()
    algebras: dict[str, AlgebraBlock] = {}
    seen: set[tuple[str, str]] = set()  # (block keyword, name)
    while parser.peek() is not None:
        tok = parser.peek()
        if tok.text == "algebra":
            block = parser.parse_algebra()
            algebras[block.name] = block
        elif tok.text == "morphism":
            head = parser.expect("morphism")
            name = parser.expect_name().text
            parser.expect(":")
            source = parser.expect_name().text
            parser.expect("->")
            target = parser.expect_name().text
            if source not in algebras or target not in algebras:
                raise ParseError(f"morphism {name!r} references undeclared algebra", head.line, head.col)
            tgt_map = {g: i for i, g in enumerate(algebras[target].gens)}
            src_gens = set(algebras[source].gens)
            images: dict[str, NcPoly] = {}
            while parser.at_keyword("map"):
                parser.next()
                g_tok = parser.expect_name()
                if g_tok.text not in src_gens:
                    raise ParseError(f"unknown source generator {g_tok.text!r}", g_tok.line, g_tok.col)
                parser.expect("=>")
                images[g_tok.text] = parser.parse_poly(tgt_map)
            parser.expect("end")
            block = MorphismBlock(name, source, target, images)
        elif tok.text == "module":
            head = parser.expect("module")
            name = parser.expect_name().text
            parser.expect("over")
            owner = parser.expect_name().text
            if owner not in algebras:
                raise ParseError(f"module {name!r} over undeclared algebra {owner!r}", head.line, head.col)
            parser.expect("dim")
            dim_tok = parser.next()
            if dim_tok.kind != "INT":
                raise ParseError("module dimension must be an integer", dim_tok.line, dim_tok.col)
            dim = int(dim_tok.text)
            gen_set = set(algebras[owner].gens)
            actions: dict[str, list[list[Fraction]]] = {}
            while parser.at_keyword("act"):
                parser.next()
                g_tok = parser.expect_name()
                if g_tok.text not in gen_set:
                    raise ParseError(f"unknown generator {g_tok.text!r}", g_tok.line, g_tok.col)
                parser.expect("=")
                actions[g_tok.text] = parser.parse_matrix(dim)
            parser.expect("end")
            block = ModuleBlock(name, owner, dim, actions)
        else:
            raise ParseError(f"expected a block keyword, found {tok.text!r}", tok.line, tok.col)
        if (tok.text, block.name) in seen:
            raise ParseError(f"duplicate {tok.text} name {block.name!r}", tok.line, tok.col)
        seen.add((tok.text, block.name))
        out.blocks.append(block)
    return out


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
