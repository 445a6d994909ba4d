#!/usr/bin/env python3
"""Print one sha256 per CLI report, to check that a change leaves outputs byte-identical.

Runs ``zhuind.cli.main`` in this process on the reports whose bytes are
meant to be stable: ``verify all`` (``--json`` and ``--verbose``),
``kernel --via M --json`` for every catalog morphism, ``dim a_va2
--json``, both ``induce --via va1_to_va2`` reports and ``check --json``
on the catalog printed in the source language.  Each line is the digest
of the command's stdout, its exit code and the command.  Run it on two
checkouts and diff the output:

    PYTHONPATH=src python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import os
import tempfile

from zhuind import catalog
from zhuind.cli import main as cli_main

COMMANDS = [
    ["verify", "all", "--json"],
    ["verify", "all", "--verbose"],
    *(["kernel", "--via", mor_id, "--json"] for mor_id in catalog.MORPHISM_IDS),
    ["dim", "a_va2", "--json"],
    ["induce", "--via", "va1_to_va2", "--module", "va1_trivial"],
    ["induce", "--via", "va1_to_va2", "--module", "va1_L_half"],
    ["check", "catalog.zi", "--json"],
]


def digest(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # a relative path keeps the "file" field of the check report stable
        with open(os.path.join(tmp, "catalog.zi"), "w", encoding="utf-8") as fh:
            fh.write(catalog.catalog_source())
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                sha, code = digest(argv)
                print(f"{sha}  exit={code}  {' '.join(argv)}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
