"""Every public function, class and method in the package has a caller outside its own definition.

The scan is by name: a definition counts as used when its name appears as
a Python name token (comments and strings do not count) somewhere in the
package, the scripts or the benchmark harness beyond its own ``def`` or
``class`` line.  Tests are not callers: API that only tests use belongs in
the tests.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zhuind"

# names kept without a caller in the package, each for a reason
ALLOWED = {
    "find_ambiguities": "the tests' confluence oracle for completed systems",
    "pretty_print": "the documented parse / pretty-print round trip of the source language",
    "generated_by_unit_image": "certifies the Frobenius bijection once reciprocity is checked as an explicit map",
    "regular_module": "the trace form of the regular module certifies the semisimple targets",
    "independence_check": "decompositions read from character vectors need the irreducible characters independent",
    "check_well_defined": "validates the morphism blocks of a source file in check",
}


def _definitions() -> Counter:
    """Public module-level functions and classes, and public methods of those classes, by name."""
    defs: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    defs[item.name] += 1
    return defs


def _name_tokens() -> Counter:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names: Counter = Counter()
    for path in files:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            if tok.type == tokenize.NAME:
                names[tok.string] += 1
    return names


def test_no_public_name_without_a_caller():
    defs, names = _definitions(), _name_tokens()
    uncalled = {name for name, n in defs.items() if names[name] <= n}
    assert uncalled == set(ALLOWED)
