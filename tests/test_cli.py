import json

import pytest

from zhuind import catalog
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


def test_kernel_negative_degree_exits_2(capsys):
    code, out, err = run(capsys, "kernel", "--via", "vp_to_va2", "--degree", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "degree" in err


@pytest.mark.parametrize("spec", ["vir_mod(1/0)", "vir_mod(x)"])
def test_induce_bad_module_parameter_exits_2(capsys, spec):
    code, out, err = run(capsys, "induce", "--via", "vir_to_va1", "--module", spec)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "bad parameters for vir_mod" in err


_ZERO = "algebra z gens a rel 1 end\n"
_DIM_TEN = "algebra big gens a rel a a a a a a a a a a - a end\n"


@pytest.mark.parametrize(
    "source, argv, needle",
    [
        (_ZERO, ("check", "{path}"), "z: completion failed (inconsistent"),
        (_ZERO, ("dim", "{path}#z"), "z: completion failed (inconsistent"),
        (_DIM_TEN, ("check", "{path}"), "big: confluence certified to degree 12, needed 18; raise --max-deg"),
        (_DIM_TEN, ("nf", "{path}#big", "a"), "big: confluence certified to degree 12, needed 18; raise --max-deg"),
        (None, ("check", "{path}", "--max-deg", "-3"), "certified to degree -3, needed"),
    ],
    ids=["check-zero", "dim-zero", "check-dim-ten", "nf-dim-ten", "check-negative-max-deg"],
)
def test_completion_and_certificate_errors_exit_2(tmp_path, capsys, source, argv, needle):
    path = tmp_path / "bad.alg"
    path.write_text(source or catalog.catalog_source(), encoding="utf-8")
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and needle in err


def test_empty_term_in_expression_exits_2(capsys):
    code, out, err = run(capsys, "nf", "a_va1", "e +")
    assert code == 2 and out == "" and "expected a term" in err


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
