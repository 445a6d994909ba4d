import json
import os
import pathlib
import subprocess
import sys

import pytest

import zhuind
from zhuind import catalog, rewrite
from zhuind.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "a_va1", "h h h")
    assert code == 0 and out.strip() == "h"


def test_nf_json(capsys):
    code, out, _ = run(capsys, "nf", "a_va1", "e e", "--json")
    assert code == 0
    assert json.loads(out)["normal_form"] == "0"


def test_dim_catalog(capsys):
    code, out, _ = run(capsys, "dim", "a_va2")
    assert code == 0 and "dim 19" in out


def test_dim_unknown_id_exits_2(capsys):
    code, _, err = run(capsys, "dim", "nope")
    assert code == 2 and "unknown" in err


def test_json_before_the_subcommand_is_refused(capsys):
    # --json belongs to the subcommand; before it, it used to be accepted and ignored (text, exit 0)
    with pytest.raises(SystemExit) as exc:
        main(["--json", "dim", "a_va1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and "--json" in captured.err
    code, out, _ = run(capsys, "dim", "a_va1", "--json")
    assert code == 0 and json.loads(out)["command"] == "dim"


def test_check_file(tmp_path, capsys):
    path = tmp_path / "cat.alg"
    path.write_text(catalog.catalog_source(), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path), "--max-deg", "8")
    assert code == 0
    assert "a_va2" in out and "dim 19" in out


def test_dim_from_file(tmp_path, capsys):
    path = tmp_path / "one.alg"
    path.write_text("algebra tiny gens a\n  rel a a - a\nend\n", encoding="utf-8")
    code, out, _ = run(capsys, "dim", f"{path}#tiny")
    assert code == 0 and "dim 2" in out


def test_kernel(capsys):
    code, out, _ = run(capsys, "kernel", "--via", "heis_to_va1")
    assert code == 0 and "exact" in out


def test_kernel_injective(capsys):
    code, out, _ = run(capsys, "kernel", "--via", "va1_to_va2")
    assert code == 0 and "empty" in out


def test_induce_report(capsys):
    code, out, _ = run(capsys, "induce", "--via", "va1_to_va2", "--module", "va1_trivial")
    assert code == 0
    assert "dim 7" in out
    assert "L0:1 + L_lambda_alpha:1 + L_lambda_beta:1" in out
    assert "V_{A2} ⊕ V_{A2+λα} ⊕ V_{A2+λβ}" in out


def test_induce_family_parameter(capsys):
    code, out, _ = run(capsys, "induce", "--via", "vir_to_va1", "--module", "vir_mod(1/4)")
    assert code == 0 and "L_half:2" in out


def test_induce_module_algebra_mismatch(capsys):
    code, _, err = run(capsys, "induce", "--via", "va1_to_va2", "--module", "va2_L0")
    assert code == 2 and "not over the source" in err


def test_restrict_report(capsys):
    code, out, _ = run(capsys, "restrict", "--via", "va1_to_va2", "--module", "va2_L_lambda_beta")
    assert code == 0 and "trivial:1 + L_half:1" in out


def test_char_report(capsys):
    code, out, _ = run(capsys, "char", "--module", "va1_L_half")
    assert code == 0 and "chi(h h) = 2" in out


def test_artin_report(capsys):
    code, out, _ = run(capsys, "artin", "--target", "a_va1")
    assert code == 0 and "1/2*Ind_1/4" in out


def test_artin_rank_two_refused(capsys):
    code, _, err = run(capsys, "artin", "--target", "a_va2")
    assert code == 2


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "c01")
    assert code == 0 and "c01 [PASS]" in out


def test_verify_unknown_case(capsys):
    code, _, err = run(capsys, "verify", "c99")
    assert code == 2


def test_verify_known_defect_case_fails(capsys):
    code, out, _ = run(capsys, "verify", "c11")
    assert code == 1 and "c11 [FAIL]" in out
    assert "known source defect" in out


def test_verify_reports_a_raising_case_as_a_fail_line(monkeypatch, capsys):
    from zhuind import verify

    def raising_case():
        raise ValueError("first line\nsecond line")

    monkeypatch.setattr(verify, "CASES", [(cid, desc, prov, raising_case if cid == "c01" else fn) for cid, desc, prov, fn in verify.CASES])
    (result,) = verify.run(["c01"])
    assert (result.status, result.actual) == ("FAIL", "raised ValueError('first line\\nsecond line')")
    code, out, err = run(capsys, "verify", "c01")
    assert code == 1 and "c01 [FAIL]" in out and "    actual:   raised ValueError(" in out
    assert "Traceback" not in out + err and "0/1 cases PASS" in out


def test_every_acceptance_row_is_a_reachable_case(capsys):
    from zhuind import verify

    assert verify.case_ids() == [f"c{n:02d}" for n in range(1, 16)]
    code, out, _ = run(capsys, "verify", "c08", "c14")
    assert code == 0 and "2/2 cases PASS" in out


def test_json_reports_byte_identical(capsys):
    _, out1, _ = run(capsys, "induce", "--via", "va1_to_va2", "--module", "va1_L_half", "--json")
    _, out2, _ = run(capsys, "induce", "--via", "va1_to_va2", "--module", "va1_L_half", "--json")
    assert out1 == out2
    _, v1, _ = run(capsys, "verify", "c01", "c08", "--json")
    _, v2, _ = run(capsys, "verify", "c01", "c08", "--json")
    assert v1 == v2


def test_kernel_table_is_pinned_past_the_probe_degree(capsys):
    code, out, _ = run(capsys, "kernel", "--via", "vp_to_va2", "--degree", "12", "--json")
    report = json.loads(out)
    assert code == 0 and report["status"] == "exact" and report["degree"] == 12
    tail = [[19 + 5 * k, 4 + 5 * k, 15] for k in range(10)]
    assert report["per_degree"] == [[1, 0, 1], [7, 0, 7], [14, 0, 14]] + tail


@pytest.mark.parametrize(
    "via, degree, report",
    [
        ("heis_to_va1", "1000", "heis_to_va1: exact to degree 1000 (candidates: x x x - x)\n"),
        ("vir_to_va1", "2000", "vir_to_va1: exact to degree 2000 (candidates: y y - 1/4 y)\n"),
    ],
)
def test_kernel_past_the_recursion_limit_answers(capsys, via, degree, report):
    # the longest source word has more letters than the default recursion limit (1000) allows frames
    code, out, err = run(capsys, "kernel", "--via", via, "--degree", degree)
    assert (code, out, err) == (0, report, "")


def test_kernel_negative_degree_exits_2(capsys):
    code, out, err = run(capsys, "kernel", "--via", "vp_to_va2", "--degree", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "degree" in err


@pytest.mark.parametrize("spec", ["vir_mod(1/0)", "vir_mod(x)"])
def test_induce_bad_module_parameter_exits_2(capsys, spec):
    code, out, err = run(capsys, "induce", "--via", "vir_to_va1", "--module", spec)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "bad parameters for vir_mod" in err


@pytest.mark.parametrize(
    "spec, needle",
    [
        ("vp_mod_U0()", "vp_mod_U0 takes 1 parameter, got 0"),
        ("vp_mod_U0(1,2)", "vp_mod_U0 takes 1 parameter, got 2"),
        ("vp_mod_U0(1/0)", "zero denominator in '1/0'"),
    ],
)
def test_induce_module_parameter_error_names_the_fault(capsys, spec, needle):
    code, out, err = run(capsys, "induce", "--via", "vp_to_va2", "--module", spec)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and needle in err and "Traceback" not in err


_ZERO = "algebra z gens a rel 1 end\n"
_DIM_TEN = "algebra big gens a rel a a a a a a a a a a - a end\n"
_TRACE_BLOWUP = """algebra t gens x y z order deglex x > y > z
  rel z x + 3/2
  rel x y x z - y y - 1/3
  rel z x y z + 3/2 y y x
end
"""


@pytest.mark.parametrize(
    "source, argv, needle",
    [
        (_ZERO, ("check", "{path}"), "z: completion failed (inconsistent"),
        (_ZERO, ("dim", "{path}#z"), "z: completion failed (inconsistent"),
        (None, ("check", "{path}", "--max-deg", "-3"), "--max-deg must be >= 0, got -3"),
        (_TRACE_BLOWUP, ("check", "{path}"), "t: completion failed (budget: a rule trace exceeds 10000 atoms"),
    ],
    ids=["check-zero", "dim-zero", "check-negative-max-deg", "check-trace-blowup"],
)
def test_completion_and_certificate_errors_exit_2(tmp_path, capsys, source, argv, needle):
    path = tmp_path / "bad.alg"
    path.write_text(source or catalog.catalog_source(), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("argv", [("check", "{path}"), ("dim", "{path}#a_va2")], ids=["check", "dim-file"])
def test_completion_past_the_rewrite_step_budget_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a reduction inside completion that passes LETTER_BUDGET is a completion error, not a traceback
    monkeypatch.setattr(rewrite, "LETTER_BUDGET", 5)
    path = tmp_path / "catalog.zi"
    path.write_text(catalog.catalog_source(), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "completion failed (budget: reduction step budget exceeded at degree bound" in err


_PLANE = """algebra q gens x y order deglex y > x
  rel x x x x x x
  rel y y y y
  rel y x - 2/3 x y
end
"""
# acyclic with 5 normal words under its degree-3 rules, but a longer ambiguity adds a short rule
_SHORT_RULE = """algebra c gens x y order deglex x > y
  rel x x + 2 y
  rel y x y - y x x y
  rel 2 y y y + y - x
end
"""


@pytest.mark.parametrize(
    "source, argv, want_code, needle",
    [
        (_DIM_TEN, ("check", "{path}"), 1, "big: unknown beyond degree 12; raise --max-deg\n"),
        (_DIM_TEN, ("nf", "{path}#big", "a a a a a a a a a a a"), 0, "a a\n"),
        (_DIM_TEN, ("check", "{path}", "--max-deg", "20"), 0, "confluent to infinite, dim 10, profile [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0]\n"),
        (_PLANE, ("dim", "{path}#q"), 0, "q: dim 24\n"),
        (_PLANE, ("check", "{path}"), 0, "dim 24, profile [1, 2, 3, 4, 4, 4, 3, 2, 1, 0]\n"),
        (_SHORT_RULE, ("check", "{path}", "--max-deg", "3"), 1, "c: unknown beyond degree 3; raise --max-deg\n"),
        (_SHORT_RULE, ("check", "{path}", "--max-deg", "16"), 0, "confluent to infinite, dim 1, profile [1, 0, 0, 0, 0, 0, 0, 0, 0]\n"),
    ],
    ids=["check-dim-ten", "nf-dim-ten", "check-dim-ten-at-20", "dim-plane", "check-plane", "check-short-rule-at-3", "check-short-rule-at-16"],
)
def test_dimension_decided_from_the_rules(tmp_path, capsys, source, argv, want_code, needle):
    path = tmp_path / "fin.zi"
    path.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == want_code and err == ""
    assert out.endswith(needle) and out.count("\n") == 1


def test_unknown_dimension_in_json(tmp_path, capsys):
    path = tmp_path / "fin.zi"
    path.write_text(_SHORT_RULE + _PLANE, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "--max-deg", "3", "--json")
    rows = {row["algebra"]: row for row in json.loads(out)["algebras"]}
    assert code == 1 and err == ""
    assert rows["c"]["dimension"] == "unknown" and rows["c"]["confluent_to_degree"] == "3"
    assert rows["c"]["normal_words_per_degree"] == []
    assert rows["q"]["dimension"] == "unknown"  # x^6 needs more than degree 3
    code, out, _ = run(capsys, "check", str(path), "--max-deg", "16", "--json")
    assert code == 0 and [row["dimension"] for row in json.loads(out)["algebras"]] == [1, 24]


@pytest.mark.parametrize(
    "argv",
    [("check", "{path}", "--max-deg", "-1"), ("dim", "{path}#a_va1", "--max-deg", "-1"), ("dim", "a_va2", "--max-deg", "-1")],
    ids=["check", "dim-file", "dim-catalog"],
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_negative_max_deg_exits_2(tmp_path, capsys, argv, json_flag):
    path = tmp_path / "cat.zi"
    path.write_text(catalog.catalog_source(), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv), *json_flag)
    assert code == 2 and out == ""
    assert err == "error: --max-deg must be >= 0, got -1\n"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_dim_catalog_honours_max_deg(capsys, json_flag):
    code, out, err = run(capsys, "dim", "a_va2", "--max-deg", "2", *json_flag)
    assert code == 1 and err == ""
    if json_flag:
        assert json.loads(out)["dimension"] == "unknown" and json.loads(out)["kind"] == "unknown"
    else:
        assert out == "a_va2: unknown beyond degree 2; raise --max-deg\n"
    default = run(capsys, "dim", "a_va2", *json_flag)
    assert default[0] == 0
    assert run(capsys, "dim", "a_va2", "--max-deg", "12", *json_flag) == default


def test_empty_term_in_expression_exits_2(capsys):
    code, out, err = run(capsys, "nf", "a_va1", "e +")
    assert code == 2 and out == "" and "expected a term" in err


def test_nf_of_a_word_longer_than_the_recursion_limit(capsys):
    # h h h -> h, so h^2000 rewrites a thousand times in one chain
    code, out, err = run(capsys, "nf", "a_va1", " ".join(["h"] * 2000))
    assert (code, out, err) == (0, "h h\n", "")


def test_nf_with_a_chain_past_the_recursion_limit(capsys):
    # in vb, x y -> y: x^n y rewrites n times in one chain, which the memo loop follows without recursing
    n = sys.getrecursionlimit() + 500
    code, out, err = run(capsys, "nf", "vb", " ".join(["x"] * n) + " y")
    assert (code, out, err) == (0, "y\n", "")


def test_nf_past_the_rewrite_step_budget_exits_2(capsys, monkeypatch):
    # both loops stop once they charged LETTER_BUDGET letters: the memo loop about 100 rewrites into the chain,
    # then the heap loop about 100 steps in.  The catalog handle is shared, and the test above leaves the
    # normal forms of x^k y in its memo, which would answer at once: the memo is emptied first
    catalog.algebra("vb").system._memo.clear()
    n = sys.getrecursionlimit() + 500
    monkeypatch.setattr(rewrite, "LETTER_BUDGET", 100 * n)
    code, out, err = run(capsys, "nf", "vb", " ".join(["x"] * n) + " y")
    assert code == 2 and out == "" and err == "error: expression too large to reduce: reduction step budget exceeded\n"


def test_nf_of_a_long_word_stops_within_the_letter_budget(capsys):
    # y^1500 x_a = x_a (y - 1)^1500 takes about 1.1 million rewrites of 1,501-letter words: the memo loop
    # overruns the budget, and the heap loop, charged 1,501 letters a step, stops after about 3,300 steps
    code, out, err = run(capsys, "nf", "a_vp", " ".join(["y"] * 1500 + ["x_a"]))
    assert code == 2 and out == "" and err == "error: expression too large to reduce: reduction step budget exceeded\n"


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", None], ids=["non-utf8", "missing"])
@pytest.mark.parametrize("argv", [("check", "{path}"), ("dim", "{path}#a")], ids=["check", "dim"])
def test_unreadable_source_exits_2(tmp_path, capsys, content, argv):
    path = tmp_path / "bin.zi"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"cannot read {path}" in err
    assert content is None or "utf-8" in err


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n\n"], ids=["empty", "comment", "blank"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_check_without_algebra_exits_2(tmp_path, capsys, text, json_flag):
    path = tmp_path / "none.zi"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), *json_flag)
    assert code == 2 and out == ""
    assert err == f"error: no algebra block in {path}\n"


def test_check_duplicate_algebra_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.zi"
    path.write_text("algebra a gens x rel x x x end\nalgebra a gens y rel y y end\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "duplicate algebra name 'a'" in err


@pytest.mark.parametrize("rel", ["x - x", "0 x", "0", "1/2 x x - 1/2 x x"], ids=["cancel", "zero-coeff", "zero", "fraction-cancel"])
@pytest.mark.parametrize("argv", [("check", "{path}"), ("dim", "{path}#z")], ids=["check", "dim"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_zero_relation_is_a_parse_error(tmp_path, capsys, rel, argv, json_flag):
    path = tmp_path / "zero.zi"
    path.write_text(f"algebra z gens x\n  rel x x x\n  rel {rel}\nend\n", encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv), *json_flag)
    assert code == 2 and out == ""
    assert err == "parse error: 3:3: relation is zero\n"


def test_closed_stdout_exits_1_without_traceback():
    # as in `zhuind verify c01 --json | head -1` when head has exited before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(zhuind.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zhuind.cli", "verify", "c01", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
