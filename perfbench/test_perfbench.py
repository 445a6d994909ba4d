"""Tests of the benchmark's own checkers and tracer.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root.  Every checker is shown to accept a correct output and
to reject the same output with one deliberate corruption.
"""

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from zhuind import catalog  # noqa: E402
from zhuind.freealg import NcPoly  # noqa: E402

F = Fraction


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else F(0) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.3:
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        assert checks.rank(rows) == sympy.Matrix(rows).rank()


def test_rule_traces_reject_changed_coefficient():
    handle = catalog.algebra("a_va1")
    relations = workloads.as_dicts(handle.system.relations)
    rules = list(handle.system.rules)
    assert checks.check_rule_traces(relations, rules) == []
    i = next(i for i, r in enumerate(rules) if r.trace)
    c, left, idx, right = rules[i].trace[0]
    rules[i] = type(rules[i])(rules[i].lhs, rules[i].rhs, ((c + 1, left, idx, right),) + rules[i].trace[1:])
    assert checks.check_rule_traces(relations, rules)


def test_reduction_rejects_flipped_term_and_reducible_word():
    system = catalog.algebra("a_va2").system
    relations = workloads.as_dicts(system.relations)
    lhs = [r.lhs for r in system.rules]
    p = NcPoly({(2, 3): F(1), (1, 0, 2): F(2, 3), (0,): F(-5)})  # x_a x_ma + 2/3 y x x_a - 5 x
    nf, trace = system.reduce_traced(p)
    assert not nf.is_zero()
    assert checks.check_reduction(dict(p.terms), dict(nf.terms), relations, trace, lhs) == []
    flipped = dict(nf.terms)
    w = next(iter(flipped))
    flipped[w] = -flipped[w]
    assert checks.check_reduction(dict(p.terms), flipped, relations, trace, lhs)
    unreduced = dict(nf.terms)
    unreduced[lhs[0]] = F(1)
    assert checks.check_reduction(dict(p.terms), unreduced, relations, trace, lhs)


def test_qplane_closed_form_matches_program_and_rejects_wrong_power():
    n, m, q = 4, 5, F(-2, 3)
    from zhuind.algebra import AlgebraHandle

    handle = AlgebraHandle.build(workloads.Completion._plane(n, m, q))
    rng = random.Random(11)
    for _ in range(30):
        p = workloads.rand_poly(rng, 2, [rng.randint(0, 9) for _ in range(rng.randint(1, 4))])
        assert dict(handle.system.reduce(p).terms) == checks.qplane_normal_form(dict(p.terms), n, m, q)
    yx = {(1, 0): F(1)}
    assert checks.qplane_normal_form(yx, n, m, q) == {(0, 1): q}
    assert checks.qplane_normal_form(yx, n, m, q) != {(0, 1): q * q}
    assert checks.qplane_profile(n, m, 9)[: 9] == handle.dim_result.profile


def test_certificate_table_rejects_rank_off_by_one():
    table = ((1, 0, 1), (5, 2, 3), (11, 6, 5))
    assert checks.check_certificate_table(table, [1, 3, 5], [1, 5, 11]) == []
    bad = ((1, 0, 1), (5, 2, 4), (11, 6, 5))
    assert checks.check_certificate_table(bad, [1, 3, 5], [1, 5, 11])
    assert checks.check_certificate_table(table, [1, 3, 6], [1, 5, 11])


def test_decomposition_rejects_changed_multiplicity():
    dims = {"L0": 1, "L_lambda_alpha": 3, "L_lambda_beta": 3}
    entries = (("L0", 1), ("L_lambda_alpha", 1), ("L_lambda_beta", 1))
    assert checks.check_decomposition(entries, 0, 7, dims) == []
    assert checks.check_decomposition((("L0", 2),) + entries[1:], 0, 7, dims)
    assert checks.check_decomposition(entries, 1, 7, dims)


def test_module_check_and_schur_reject_corruption():
    irr = catalog.irreducibles("a_va2")
    relations = workloads.as_dicts(catalog.presentation("a_va2").relations)
    mod = irr[1]
    assert checks.check_module(mod.actions, mod.dim, relations) == []
    bad = copy.deepcopy(mod.actions)
    bad[0][0][1] += 1
    assert checks.check_module(bad, mod.dim, relations)
    data = [(m.label, m.actions, m.dim) for m in irr]
    assert checks.check_schur(data) == []
    assert checks.check_schur(data + [("copy", mod.actions, mod.dim)])


def test_completion_check_rejects_wrong_dimension_and_profile():
    wl = workloads.Completion()
    wl.setup(random.Random(1))
    pres = catalog.presentation("a_va1")
    good = wl._op("a_va1", pres, 12, 5, wl.ref_profile["a_va1"])
    handle = good.run()
    assert good.check(handle) == []
    assert wl._op("a_va1", pres, 12, 6, wl.ref_profile["a_va1"]).check(handle)
    assert wl._op("a_va1", pres, 12, 5, (1, 3, 2) + (0,) * 6).check(handle)
    fault = wl._op("pow_fault", wl._pow(9), 12, 9, workloads.pow_profile(9), fault=True)
    with pytest.raises(Exception):
        fault.run()  # the named fault: a finite algebra past the fixed probe


VERIFY_OK = {"failures": 2, "cases": [{"case": f"c{i:02d}", "status": "FAIL" if i in (2, 11) else "PASS"} for i in range(1, 16)]}
KERNEL_OK = {"status": "exact", "degree": 8, "per_degree": [[1, 0, 1], [7, 0, 7], [14, 3, 11], [19, 7, 12], [24, 11, 13], [29, 15, 14], [34, 19, 15], [39, 24, 15], [44, 29, 15]]}
CHECK_OK = {"algebras": [{"algebra": a, "dimension": d, "confluent_to_degree": "infinite"} for a, d in [("heis", "unbounded"), ("vir", "unbounded"), ("vb", "unbounded"), ("a_va1", 5), ("a_va2", 19), ("a_vp", "unbounded")]]}
INDUCE_OK = {"dim": 1, "decomposition": "L0:1", "residual": 0, "voa_label": "V_{A2}"}


def test_cli_checks_accept_expected_reports():
    cli = workloads.CliCold
    assert cli._check_verify((1, VERIFY_OK)) == []
    assert cli._check_kernel((0, KERNEL_OK)) == []
    assert cli._check_dim((0, {"dimension": 19})) == []
    assert cli._check_check((0, CHECK_OK)) == []
    assert cli._check_induce_vp((0, INDUCE_OK)) == []


def test_cli_checks_reject_corrupted_reports():
    cli = workloads.CliCold
    verify = copy.deepcopy(VERIFY_OK)
    verify["cases"][2]["status"] = "FAIL"
    assert cli._check_verify((1, verify))
    assert cli._check_verify((0, VERIFY_OK))
    kernel = copy.deepcopy(KERNEL_OK)
    kernel["per_degree"][4][2] += 1
    assert cli._check_kernel((0, kernel))
    assert cli._check_kernel((0, dict(KERNEL_OK, status="contained")))
    assert cli._check_dim((0, {"dimension": 18}))
    check = copy.deepcopy(CHECK_OK)
    check["algebras"][3]["dimension"] = 4
    assert cli._check_check((0, check))
    assert cli._check_induce_vp((0, dict(INDUCE_OK, decomposition="L0:2")))
    assert cli._check_induce_vp((0, dict(INDUCE_OK, voa_label="V_{A2+λα}")))


def test_tracer_records_nested_spans_and_restores_functions():
    from zhuind import algebra, rewrite
    from zhuind.algebra import AlgebraHandle

    complete, reduce = rewrite.complete, rewrite.RewriteSystem.reduce
    tracer = Tracer().install()
    try:
        handle = AlgebraHandle.build(catalog.presentation("a_va1"))
        handle.system.reduce(NcPoly.monomial((0, 1, 2)))
    finally:
        tracer.uninstall()
    assert rewrite.complete is complete and rewrite.RewriteSystem.reduce is reduce
    assert algebra.rewrite.complete is complete
    spans = tracer.snapshot()
    build = spans["algebra.AlgebraHandle.build"]
    assert spans["rewrite.complete"]["calls"] == 1
    assert build["self_s"] < build["total_s"]
    figures = layer_metrics(spans, 1)
    assert figures["rewrite.complete.rules_out"] == len(handle.system.rules)
    assert figures["rewrite.reduce.calls"] == 1
    assert 0 < figures["rewrite.reduce_word.distinct_share"] <= 1
