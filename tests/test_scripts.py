"""The report scripts run in this process, each with its stdout pinned.

``completion_report.py`` and ``kernel_report.py`` are the only readers of
the completion counters (pairs resolved, rules added and retired) and of
``KernelCertificate.products``; a change to any of those, to a catalog
rule or to an induction table changes a digest here.
"""

import contextlib
import hashlib
import importlib.util
import io
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

# sha256 of each script's stdout, and its line count
PINNED = {
    "completion_report": ("c6519f16e391517528d85ffa0e4ba3a37a95f93f79e98346d9c6165b2ba05c24", 135),
    "induction_tables": ("c228d92308c1bc0f6e32aa875756a987e91cfdb86944906687e1410550591bf8", 42),
    "kernel_report": ("bf21dd2e35945b78b01b25274ab49c2ca299c9ffea158b599f221810634fe9d9", 5),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_script_output_is_pinned(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        mod.main()
    text = out.getvalue()
    assert (hashlib.sha256(text.encode()).hexdigest(), len(text.splitlines())) == PINNED[name], text
