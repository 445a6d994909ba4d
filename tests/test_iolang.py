import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zhuind import catalog
from zhuind.algebra import AlgebraHandle, Presentation
from zhuind.freealg import NcPoly
from zhuind.iolang import ParseError, format_poly, parse, parse_poly_text, pretty_print, tokenize

F = Fraction

VA1_TEXT = """
# the five-dimensional rank-one algebra, quotient relations only
algebra a1 gens e f h order deglex e > f > h
  rel e h + e
  rel h h - h - 2 f e
  rel f h - f
  rel e e
  rel f f
end
"""


def test_parse_algebra_block():
    src = parse(VA1_TEXT)
    block = src.algebras()["a1"]
    assert len(block.gens) == 3
    assert len(block.relations) == 5
    assert block.precedence == ["e", "f", "h"]


def test_parse_coefficient_term():
    poly = parse_poly_text("1/2 x y - y x", ("x", "y"))
    assert poly.terms.get((0, 1)) == F(1, 2)
    assert poly.terms.get((1, 0)) == F(-1)


def test_parse_unknown_generator_positioned():
    text = "algebra a gens e h\n  rel e q\nend\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2
    assert "q" in err.value.message


def test_parse_malformed_rational():
    with pytest.raises(ParseError):
        parse_poly_text("1/0 x", ("x",))


def test_parse_matrix_dimension_mismatch():
    text = "algebra a gens x end\nmodule m over a dim 2\n  act x = [ 1 0 ]\nend\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "2x2" in err.value.message


@pytest.mark.parametrize("matrix, found", [("[ 5 ]", "1x1"), ("[ ]", "1x0")])
def test_a_zero_dimensional_module_takes_no_act_line(matrix, found):
    assert parse("algebra a gens y end\nmodule z over a dim 0 end\n").modules()["z"].actions == {}
    with pytest.raises(ParseError) as err:
        parse(f"algebra a gens y end\nmodule z over a dim 0\n  act y = {matrix}\nend\n")
    assert err.value.message == f"matrix must be 0x0, found {found}"
    assert (err.value.line, err.value.col) == (3, 11)


def test_parse_ragged_matrix():
    text = "algebra a gens x end\nmodule m over a dim 2\n  act x = [ 1 0 ; 1 ]\nend\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_morphism_and_module_blocks():
    text = (
        "algebra a gens x end\n"
        "algebra b gens u v\n  rel u v - v u\nend\n"
        "morphism f : a -> b\n  map x => 1/4 u u + v\nend\n"
        "module m over b dim 2\n  act u = [ 1 0 ; 0 -1 ]\nend\n"
    )
    src = parse(text)
    f = src.morphisms()["f"]
    assert f.source == "a" and f.target == "b"
    assert f.images["x"].terms.get((0, 0)) == F(1, 4)
    m = src.modules()["m"]
    assert m.dim == 2 and m.actions["u"][1][1] == F(-1)


def test_undeclared_algebra_reference():
    with pytest.raises(ParseError):
        parse("morphism f : a -> b\nend\n")


def test_round_trip_fixed_point_small_file():
    printed = pretty_print(parse(VA1_TEXT))
    assert pretty_print(parse(printed)) == printed


def test_round_trip_fixed_point_catalog():
    text = catalog.catalog_source()
    once = pretty_print(parse(text))
    assert pretty_print(parse(once)) == once


def test_catalog_source_rebuilds_same_algebras():
    src = parse(catalog.catalog_source())
    block = src.algebras()["a_va1"]
    pres = Presentation(block.name, tuple(block.gens), block.order(), tuple(block.relations))
    rebuilt = AlgebraHandle.build(pres)
    original = catalog.algebra("a_va1")
    assert rebuilt.dim() == original.dim()
    assert set(rebuilt.basis) == set(original.basis)


def test_format_poly_round_trips_terms():
    gens = ("x", "y")
    for text in ("x y - y x", "- 1/2 x x + 3 y", "x + 1", "2"):
        poly = parse_poly_text(text, gens)
        assert parse_poly_text(format_poly(poly, gens), gens) == poly


def test_format_zero():
    assert format_poly(NcPoly.zero(), ("x",)) == "0"


@pytest.mark.parametrize("text", ["e +", "+", "e + + f", "2 -"])
def test_empty_term_is_rejected(text):
    with pytest.raises(ParseError) as err:
        parse_poly_text(text, ("e", "f"))
    assert err.value.message == "expected a term"


def test_relation_without_polynomial_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("algebra a gens x\n  rel\nend\n")
    assert err.value.message == "expected a term"
    assert (err.value.line, err.value.col) == (3, 1)


@pytest.mark.parametrize(
    "text, message, where",
    [
        ("algebra a gens x rel x x x end\nalgebra a gens y rel y y end\n", "duplicate algebra name 'a'", (2, 1)),
        (
            "algebra a gens x end\nmorphism f : a -> a end\n  morphism f : a -> a map x => x end\n",
            "duplicate morphism name 'f'",
            (3, 3),
        ),
        (
            "algebra a gens x end\nmodule m over a dim 1 end\nmodule m over a dim 2 end\n",
            "duplicate module name 'm'",
            (3, 1),
        ),
    ],
    ids=["algebra", "morphism", "module"],
)
def test_duplicate_block_name_is_rejected(text, message, where):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == where


def test_blocks_of_different_kinds_may_share_a_name():
    src = parse("algebra a gens x end\nmorphism a : a -> a end\nmodule a over a dim 1 end\n")
    assert list(src.algebras()) == list(src.morphisms()) == list(src.modules()) == ["a"]


@pytest.mark.parametrize(
    "text, message, where",
    [
        (
            "algebra a gens x y end\nmorphism f : a -> a\n  map x => y\n  map y => x\n  map x => x\nend\n",
            "duplicate map of generator 'x'",
            (5, 7),
        ),
        (
            "algebra a gens x end\nmodule m over a dim 1\n  act x = [ 1 ]\n  act x = [ 2 ]\nend\n",
            "duplicate act of generator 'x'",
            (4, 7),
        ),
    ],
    ids=["map", "act"],
)
def test_a_generator_is_mapped_or_acted_on_at_most_once(text, message, where):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == message
    assert (err.value.line, err.value.col) == where


def test_readme_source_language_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Source-file language", 1)[1].split("```", 2)[1]
    assert [b.name for b in parse(example).blocks] == ["a1", "a0", "pi", "m"]


# -- token-level mutations ----------------------------------------------

# the block texts of the tests above, and their polynomial texts with the generators they parse over
_BLOCK_TEXTS = (
    VA1_TEXT,
    "algebra a gens e h\n  rel e q\nend\n",
    "algebra a gens x end\nmodule m over a dim 2\n  act x = [ 1 0 ]\nend\n",
    "algebra a gens x end\nmodule m over a dim 2\n  act x = [ 1 0 ; 1 ]\nend\n",
    "algebra a gens x end\n"
    "algebra b gens u v\n  rel u v - v u\nend\n"
    "morphism f : a -> b\n  map x => 1/4 u u + v\nend\n"
    "module m over b dim 2\n  act u = [ 1 0 ; 0 -1 ]\nend\n",
    "morphism f : a -> b\nend\n",
    "algebra a gens x\n  rel\nend\n",
    "algebra a gens x rel x x x end\nalgebra a gens y rel y y end\n",
    "algebra a gens x end\nmorphism f : a -> a end\n  morphism f : a -> a map x => x end\n",
    "algebra a gens x end\nmodule m over a dim 1 end\nmodule m over a dim 2 end\n",
    "algebra a gens x end\nmorphism a : a -> a end\nmodule a over a dim 1 end\n",
)
_POLY_TEXTS = (
    ("1/2 x y - y x", ("x", "y")),
    ("1/0 x", ("x",)),
    ("x y - y x", ("x", "y")),
    ("- 1/2 x x + 3 y", ("x", "y")),
    ("x + 1", ("x", "y")),
    ("e +", ("e", "f")),
    ("e + + f", ("e", "f")),
    ("2 -", ("e", "f")),
)
_REPLACEMENTS = ("end", "->", "1/0", "-", "[", "zz")
_MUTANTS_PER_TEXT = 400
# sha256 over the outcome of every mutant below: the repr of what it parses to, or its error with position
MUTATION_CORPUS_SHA256 = "e28c73a0f56f1dd81b0b181c18b82740613d1f3e89e4fc7be1a60333eb57089d"


def _mutants(text: str, rng: random.Random) -> list[str]:
    """Every text one token-level edit away from ``text``, or a seeded sample of ``_MUTANTS_PER_TEXT`` of them."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = [(starts[t.line - 1] + t.col - 1, starts[t.line - 1] + t.col - 1 + len(t.text)) for t in tokenize(text)]
    out = []
    for i, (a, b) in enumerate(spans):
        out.append(text[:a] + text[b:])
        out.append(text[:b] + " " + text[a:])
        if i + 1 < len(spans):
            c, d = spans[i + 1]
            out.append(text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:])
        out.extend(text[:a] + r + text[b:] for r in _REPLACEMENTS)
    return out if len(out) <= _MUTANTS_PER_TEXT else rng.sample(out, _MUTANTS_PER_TEXT)


def _outcome(parse_text) -> str:
    try:
        return repr(parse_text())
    except ParseError as err:
        return f"error {err.message!r} at {err.line}:{err.col}"


def test_token_mutations_parse_to_pinned_outcomes():
    rng = random.Random(29)
    outcomes = []
    for text in (catalog.catalog_source(), *_BLOCK_TEXTS):
        outcomes.extend(_outcome(lambda: parse(m).blocks) for m in _mutants(text, rng))
    for text, gens in _POLY_TEXTS:
        outcomes.extend(_outcome(lambda: parse_poly_text(m, gens)) for m in _mutants(text, rng))
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == MUTATION_CORPUS_SHA256
