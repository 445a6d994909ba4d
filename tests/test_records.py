"""The package's records: plain types with value equality, no assignment, and no ``dataclasses`` at import."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zhuind.algebra import DimensionResult, Presentation
from zhuind.freealg import MonomialOrder, NcPoly
from zhuind.iolang import Token
from zhuind.morphism import KernelCertificate
from zhuind.rewrite import Ambiguity, RewriteRule

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI command is a fresh interpreter; dataclasses pulls in inspect, ast, dis and tokenize
    probe = "import sys, zhuind.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_presentation_rejects_duplicate_generator_names():
    with pytest.raises(ValueError, match="unique"):
        Presentation("dup", ("x", "x"), MonomialOrder((1, 0)), ())


def test_presentation_rejects_a_zero_relation():
    with pytest.raises(ValueError, match="nonzero"):
        Presentation("zero", ("x",), MonomialOrder((0,)), (NcPoly.gen(0), NcPoly.zero()))


def test_kernel_certificates_differing_only_in_products_are_equal():
    a = KernelCertificate("exact", 2, ((1, 0, 1), (3, 1, 2)), products=5)
    b = KernelCertificate("exact", 2, ((1, 0, 1), (3, 1, 2)))
    assert a == b and hash(a) == hash(b)
    assert a != KernelCertificate("contained", 2, a.table, 5)
    assert repr(a) == "KernelCertificate(status='exact', degree=2, table=((1, 0, 1), (3, 1, 2)), products=5)"


def test_equal_rewrite_rules_hash_equal():
    trace = ((Fraction(1), (), 0, ()),)
    a = RewriteRule((0, 1), NcPoly.gen(1), trace)
    b = RewriteRule((0, 1), NcPoly.gen(1), tuple(trace))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != RewriteRule((0, 1), NcPoly.gen(1)) and a != ((0, 1), NcPoly.gen(1), trace)
    assert repr(RewriteRule((1,), NcPoly.zero())) == "RewriteRule(lhs=(1,), rhs=NcPoly({}), trace=())"


def _records():
    order = MonomialOrder((0,))
    return [
        (RewriteRule((0,), NcPoly.zero()), "rhs"),
        (Ambiguity("overlap", 0, 1, (0, 0, 0), 1), "witness"),
        (Presentation("p", ("x",), order, ()), "relations"),
        (KernelCertificate("exact", 0, ()), "products"),
        (order, "precedence"),
        (DimensionResult("finite", 1, (1,)), "value"),
        (Token("NAME", "x", 1, 1), "text"),
    ]


@pytest.mark.parametrize(("record", "field"), _records(), ids=[type(record).__name__ for record, _ in _records()])
def test_assigning_to_a_field_of_a_frozen_record_raises(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
