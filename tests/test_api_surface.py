"""Every public function, class, method and class field in the package has a reader outside its own definition.

The scan of definitions is by name: a definition counts as used when its
name appears as a Python name token (comments and strings do not count)
somewhere in the package, the scripts or the benchmark harness beyond its
own ``def`` or ``class`` line.  A script or harness file's tokens do not
count for a name that any script or harness file defines, so a harness
helper does not stand in for the package function it shares a name with,
in its own file or in another.  An annotated class field counts as used
when some ``ast.Attribute`` load of its name (reads inside f-strings
included) appears in those files.  That scan matches attribute names
only, not classes: a field is read as soon as any object's attribute of
the same name is, so an unread ``line`` field of the source-language
blocks went unseen while ``Token.line`` was read.  Tests are not callers:
API that only tests use belongs in the tests.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zhuind"
HARNESS = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

CHECK_REASON = "validates the morphism blocks of a source file in check"

# names kept without a caller in the package, each for a reason
ALLOWED = {
    "pretty_print": "the documented parse / pretty-print round trip of the source language",
    "generated_by_unit_image": "certifies the Frobenius bijection once reciprocity is checked as an explicit map",
    "check_well_defined": CHECK_REASON,
}

# class fields kept without a reader in the package, each for a reason
ALLOWED_FIELDS = {
    "Violation.relation": CHECK_REASON,
    "Violation.residue": CHECK_REASON,
}


def _trees(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _defined_names(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _definitions() -> Counter:
    """Public module-level functions and classes, and public methods of those classes, by name."""
    defs: Counter = Counter()
    for tree in _trees(sorted(PACKAGE.glob("*.py"))).values():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    defs[item.name] += 1
    return defs


def _name_tokens(paths) -> Counter:
    texts = {path: path.read_text(encoding="utf-8") for path in paths}
    harness_defs = set().union(*(_defined_names(ast.parse(text)) for path, text in texts.items() if path.parent != PACKAGE))
    names: Counter = Counter()
    for path, text in texts.items():
        skip = set() if path.parent == PACKAGE else harness_defs
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME and tok.string not in skip:
                names[tok.string] += 1
    return names


def _fields() -> set[tuple[str, str]]:
    """(class, field) for every annotated field in a class body of the package."""
    return {
        (node.name, item.target.id)
        for tree in _trees(PACKAGE.glob("*.py")).values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def _attribute_reads(paths) -> set[str]:
    return {
        node.attr
        for tree in _trees(paths).values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_no_public_name_without_a_caller():
    defs, names = _definitions(), _name_tokens([*PACKAGE.glob("*.py"), *HARNESS])
    uncalled = {name for name, n in defs.items() if names[name] <= n}
    assert uncalled == set(ALLOWED)


def test_no_class_field_without_a_reader():
    reads = _attribute_reads([*PACKAGE.glob("*.py"), *HARNESS])
    unread = {f"{cls}.{name}" for cls, name in _fields() if name not in reads}
    assert unread == set(ALLOWED_FIELDS)


def test_a_harness_file_does_not_call_the_names_it_defines(tmp_path):
    # one file defines and calls its own helper, the other calls the package's
    own = tmp_path / "own.py"
    own.write_text("def helper(x):\n    return x\n\n\nhelper(1)\n", encoding="utf-8")
    other = tmp_path / "other.py"
    other.write_text("from zhuind.rewrite import complete\n\ncomplete([], None)\n", encoding="utf-8")
    names = _name_tokens([own, other])
    assert names["helper"] == 0 and names["complete"] == 2


def test_a_name_one_harness_file_defines_does_not_count_in_another(tmp_path):
    # the checks file has its own check_module, which the workload calls; the package's is not called
    checks = tmp_path / "checks.py"
    checks.write_text("def check_module(actions):\n    return []\n", encoding="utf-8")
    workloads = tmp_path / "workloads.py"
    workloads.write_text("import checks\n\nchecks.check_module({})\n", encoding="utf-8")
    assert _name_tokens([checks, workloads])["check_module"] == 0


def test_field_reads_inside_f_strings_count(tmp_path):
    path = tmp_path / "report.py"
    # a store and a comment are not reads
    path.write_text('r.unit_map = []\nprint(f"{r.reduced_dim} {r.module.dim}")\n# r.voa_label\n', encoding="utf-8")
    assert _attribute_reads([path]) == {"reduced_dim", "module", "dim"}
