from fractions import Fraction

import pytest

from zhuind import catalog
from zhuind.algebra import AlgebraHandle, Presentation
from zhuind.freealg import NcPoly
from zhuind.iolang import ParseError, format_poly, parse, parse_poly_text, pretty_print

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
