"""Every public function, method and property of the package is entered by a command or a report script.

A fresh interpreter runs every command of ``scripts/output_digest.py``,
the one CLI command it leaves out (``nf``) and the three report scripts
whose stdout ``tests/test_scripts.py`` pins, in one process under
``sys.setprofile``, and lists the package functions it entered.  A
public name (module-level function, or method or property of a public
class, by its qualified name) that none of them enters is kept only with
a reason in ``UNREACHED``; a listed name that is entered fails too, so
the list cannot go stale.  A fresh interpreter is used because the
catalog is built once per process and other tests build it first.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zhuind"

PERFBENCH_ONLY = "called by the benchmark harness only"
CHECK_REASON = "validates the morphism blocks of a source file in check"

# public names no command or report script enters, each for a reason
UNREACHED = {
    "algebra.AlgebraHandle.mul_coords": PERFBENCH_ONLY,
    "repmod.FinModule.actions": PERFBENCH_ONLY,
    "induct.frobenius_check": PERFBENCH_ONLY,
    "rewrite.RewriteSystem.reduce_traced": PERFBENCH_ONLY,
    "rewrite.confluence_fuzz": PERFBENCH_ONLY,
    "freealg.NcPoly.gen": PERFBENCH_ONLY,
    "induct.generated_by_unit_image": "certifies the Frobenius bijection once reciprocity is checked as an explicit map",
    "morphism.check_well_defined": CHECK_REASON,
    "iolang.pretty_print": "the documented parse / pretty-print round trip of the source language",
    "algebra.AlgebraHandle.from_coords": "only a finite morphism with a nonzero kernel reaches it; va1_to_va2, the one finite catalog morphism, is injective",
}

# runs in the child: prints the (file, qualified name) pairs of every function entered
CORPUS = r"""
import contextlib, importlib.util, io, json, os, sys

scripts = sys.argv[1]
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))


sys.setprofile(profile)
from zhuind.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    main(["nf", "a_va1", "h h h"])
for name in ("output_digest", "completion_report", "induction_tables", "kernel_report"):
    spec = importlib.util.spec_from_file_location(name, os.path.join(scripts, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with contextlib.redirect_stdout(io.StringIO()):
        mod.main()
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _public_names() -> set[str]:
    """``module.function`` and ``module.Class.member`` for every public definition of the package."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(f"{path.stem}.{node.name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def _entered_names() -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CORPUS, str(ROOT / "scripts")], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {
        f"{path.stem}.{qualname}"
        for filename, qualname in json.loads(proc.stdout)
        if (path := pathlib.Path(filename).resolve()).parent == PACKAGE
    }


def test_every_public_name_is_entered_or_listed_with_a_reason():
    public, entered = _public_names(), _entered_names()
    assert set(UNREACHED) <= public  # every listed name still exists
    assert public - entered == set(UNREACHED)
