import contextlib
from fractions import Fraction

import pytest

from dense import dense_module, mat_mul, zeros
from zhuind import catalog
from zhuind.linalg import RowSpace, invert
from zhuind.repmod import FinModule
from zhuind.rewrite import RewriteRule, RewriteSystem


@pytest.fixture(scope="session")
def va1():
    return catalog.algebra("a_va1")


@pytest.fixture(scope="session")
def va2():
    return catalog.algebra("a_va2")


@pytest.fixture(scope="session")
def vp():
    return catalog.algebra("a_vp")


@pytest.fixture(scope="session")
def vb():
    return catalog.algebra("vb")


@pytest.fixture(scope="session")
def heis():
    return catalog.algebra("heis")


@pytest.fixture(scope="session")
def vir():
    return catalog.algebra("vir")


@pytest.fixture(scope="session")
def permuted_copy():
    """``permuted_copy(module, perm)``: the same module in a shuffled basis, an explicit isomorphic copy."""

    def build(module, perm, label=""):
        p = zeros(module.dim, module.dim)
        for i, j in enumerate(perm):
            p[i][j] = Fraction(1)
        pinv = invert(p)
        actions = {g: mat_mul(mat_mul(p, mat), pinv) for g, mat in module.actions.items()}
        return dense_module(module.owner, module.dim, actions, label or f"{module.label}~")

    return build


@pytest.fixture(scope="session")
def doubled_rhs():
    """``doubled_rhs(system, rule)``: ``system`` with ``rule``'s right-hand side doubled, every other rule kept."""

    def build(system, rule):
        rules = [RewriteRule(r.lhs, r.rhs.scale(2), r.trace) if r is rule else r for r in system.rules]
        return RewriteSystem(system.order, rules, system.confluent_to_degree, system.relations)

    return build


@pytest.fixture(scope="session")
def direct_sum():
    """``direct_sum(a, b)``: the block-diagonal module over the common owner, ``a``'s basis first."""

    def build(a, b):
        assert a.owner is b.owner
        columns = [ca + [{a.dim + i: x for i, x in col.items()} for col in cb] for ca, cb in zip(a.columns, b.columns)]
        return FinModule(a.owner, a.dim + b.dim, columns, f"{a.label}+{b.label}")

    return build


@pytest.fixture(scope="session")
def recorded_adds():
    """``with recorded_adds() as grew:`` lists what each ``RowSpace.add`` returned (True: the dimension grew)."""

    @contextlib.contextmanager
    def record():
        grew = []
        original = RowSpace.add

        def add(self, vec):
            grew.append(original(self, vec))
            return grew[-1]

        RowSpace.add = add
        try:
            yield grew
        finally:
            RowSpace.add = original

    return record
