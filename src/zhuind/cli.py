"""Command line interface.

Subcommands: check, dim, nf, kernel, induce, restrict, char, artin,
verify.  ``--json`` switches every report to a stable-keyed JSON
document.  Exit codes: 0 all requested checks pass, 1 a verification or
check failed or stdout was closed before the report was written, 2
unknown ids or malformed input.  ``check`` and ``dim`` exit 1 when a
completion is confluent only to degree D: its dimension is unknown, the
report line reads ``NAME: unknown beyond degree D; raise --max-deg`` and
the JSON ``"dimension"`` is ``"unknown"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from zhuind import catalog, verify
from zhuind.algebra import AlgebraHandle, DimensionResult, Presentation
from zhuind.chars import artin_solve
from zhuind.induct import induce, restrict
from zhuind.iolang import ParseError, format_fraction, format_poly, parse, parse_poly_text
from zhuind.morphism import certify_kernel, kernel_basis_finite
from zhuind.repmod import char_vector, decompose
from zhuind.rewrite import INFINITE, CompletionError

USAGE_EXIT = 2


class CliError(Exception):
    """Bad input: ``main`` prints the message and returns ``USAGE_EXIT``."""


def _build(pres: Presentation, max_degree: int) -> AlgebraHandle:
    """Complete a presentation; a failure is bad input."""
    try:
        return AlgebraHandle.build(pres, max_degree=max_degree)
    except CompletionError as exc:
        raise CliError(f"{pres.name}: completion failed ({exc})")


def _degree(flag: str, value: int | None) -> int | None:
    """A degree option, None when not given; a negative one is bad input."""
    if value is not None and value < 0:
        raise CliError(f"{flag} must be >= 0, got {value}")
    return value


def _read_source(path: str) -> str:
    """The text of a source file; an unreadable or non-UTF-8 file is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _load_algebra(spec: str, max_degree: int | None = None) -> AlgebraHandle:
    """Either a catalog id or FILE#NAME, completed at ``max_degree`` when it is given.

    Without it a catalog id gets its cached completion (``catalog.COMPLETION_DEGREE``)
    and FILE#NAME is completed at degree 12.
    """
    if "#" in spec:
        path, name = spec.split("#", 1)
        source = parse(_read_source(path))
        blocks = source.algebras()
        if name not in blocks:
            raise CliError(f"no algebra {name!r} in {path}")
        return _build(blocks[name].presentation(), 12 if max_degree is None else max_degree)
    if spec in catalog.ALGEBRA_IDS:
        return catalog.algebra(spec) if max_degree is None else _build(catalog.presentation(spec), max_degree)
    raise CliError(f"unknown algebra id {spec!r}")


def _load_module(spec: str):
    """Catalog module id, optionally with parameters: fam(p1,p2)."""
    spec = spec.strip()
    if "(" in spec:
        name, rest = spec.split("(", 1)
        if not rest.endswith(")"):
            raise CliError(f"malformed module spec {spec!r}")
        args = rest[:-1].strip()
        params = tuple(_parameter(name.strip(), a.strip()) for a in args.split(",")) if args else ()
    else:
        name, params = spec, ()
    name = name.strip()
    if name in catalog.MODULE_IDS and not params:
        return catalog.module(name)
    if name in catalog.FAMILY_IDS:
        try:
            return catalog.module(name, params)
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad parameters for {name}: {exc}")
    raise CliError(f"unknown module {spec!r}")


def _parameter(name: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CliError(f"bad parameters for {name}: zero denominator in {text!r}")
    except ValueError as exc:
        raise CliError(f"bad parameters for {name}: {exc}")


def _morphism(mor_id: str):
    if mor_id not in catalog.MORPHISM_IDS:
        raise CliError(f"unknown morphism id {mor_id!r}")
    return catalog.morphism(mor_id)


def _emit(report: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, ensure_ascii=False, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cert_str(cert: float) -> str:
    return "infinite" if cert == INFINITE else str(int(cert))


def _dimension(dim: DimensionResult) -> int | str:
    """The JSON ``"dimension"``: the dimension, "unbounded" or "unknown"."""
    return dim.value if dim.is_finite() else dim.kind


def _unknown_line(name: str, dim: DimensionResult) -> str:
    return f"{name}: unknown beyond degree {dim.value}; raise --max-deg"


# -- subcommands ---------------------------------------------------------


def cmd_check(args) -> int:
    max_degree = _degree("--max-deg", args.max_deg)
    blocks = parse(_read_source(args.file)).algebras()
    if not blocks:
        raise CliError(f"no algebra block in {args.file}")
    entries = []
    lines = []
    for name, block in blocks.items():
        handle = _build(block.presentation(), max_degree)
        dim = handle.dim_result
        entries.append(
            {
                "algebra": name,
                "generators": len(block.gens),
                "relations": len(block.relations),
                "rules": len(handle.system.rules),
                "confluent_to_degree": _cert_str(handle.system.confluent_to_degree),
                "dimension": _dimension(dim),
                "normal_words_per_degree": list(dim.profile),
            }
        )
        lines.append(
            _unknown_line(name, dim)
            if dim.kind == "unknown"
            else f"{name}: {len(block.relations)} relations -> {len(handle.system.rules)} rules, "
            f"confluent to {_cert_str(handle.system.confluent_to_degree)}, "
            f"dim {_dimension(dim)}, profile {list(dim.profile)}"
        )
    _emit({"command": "check", "file": args.file, "algebras": entries}, lines, args.json)
    return 1 if any(e["dimension"] == "unknown" for e in entries) else 0


def cmd_dim(args) -> int:
    handle = _load_algebra(args.algebra, max_degree=_degree("--max-deg", args.max_deg))
    dim = handle.dim_result
    report = {
        "command": "dim",
        "algebra": handle.name,
        "dimension": _dimension(dim),
        "kind": dim.kind,
        "normal_words_per_degree": list(dim.profile),
    }
    unknown = dim.kind == "unknown"
    line = _unknown_line(handle.name, dim) if unknown else f"{handle.name}: {'dim ' if dim.is_finite() else ''}{_dimension(dim)}"
    _emit(report, [line], args.json)
    return 1 if unknown else 0


def cmd_nf(args) -> int:
    handle = _load_algebra(args.algebra)
    try:
        poly = parse_poly_text(args.expr, handle.gen_names)
    except ParseError as exc:
        raise CliError(f"bad expression: {exc}")
    try:
        reduced = handle.system.reduce(poly)
    except RuntimeError as exc:  # the rewrite-step budget, as when a normal form has thousands of long words
        raise CliError(f"expression too large to reduce: {exc}") from None
    rendered = format_poly(reduced, handle.gen_names, handle.system.order)
    _emit({"command": "nf", "algebra": handle.name, "input": args.expr, "normal_form": rendered}, [rendered], args.json)
    return 0


def cmd_kernel(args) -> int:
    m = _morphism(args.via)
    cands = list(catalog.kernel_candidates(args.via))
    degree = _degree("--degree", args.degree if args.degree is not None else catalog.KERNEL_PROBE_DEGREE[args.via])
    if m.source.basis is not None:
        basis = kernel_basis_finite(m)
        rendered = [format_poly(el.poly, m.source.gen_names, m.source.system.order) for el in basis]
        report = {"command": "kernel", "morphism": args.via, "kind": "finite", "kernel_basis": rendered}
        _emit(report, [f"{args.via}: kernel basis {rendered or 'empty'}"], args.json)
        return 0
    cert = certify_kernel(m, cands, degree)
    rendered = [format_poly(el.poly, m.source.gen_names, m.source.system.order) for el in cands]
    report = {
        "command": "kernel",
        "morphism": args.via,
        "kind": "certified",
        "candidates": rendered,
        "status": cert.status,
        "degree": cert.degree,
        "per_degree": [list(row) for row in cert.table],
    }
    _emit(report, [f"{args.via}: {cert.status} to degree {cert.degree} (candidates: {', '.join(rendered)})"], args.json)
    return 0 if cert.status == "exact" else 1


def cmd_induce(args) -> int:
    m = _morphism(args.via)
    module = _load_module(args.module)
    if module.owner is not m.source:
        raise CliError(f"module {args.module!r} is not over the source of {args.via}")
    kernel = list(catalog.kernel_candidates(args.via))
    irr = catalog.irreducibles(m.target.name)
    result = induce(m, kernel, module, irr, catalog.VOA_LABELS)
    rec = result.decomposition
    report = {
        "command": "induce",
        "morphism": args.via,
        "module": module.label,
        "dim": result.dim,
        "reduced_dim": result.reduced_dim,
        "decomposition": str(rec),
        "residual": rec.residual if rec else None,
        "voa_label": result.voa_label,
    }
    lines = [
        f"Ind({module.label}) along {args.via}: dim {result.dim}",
        f"decomposition: {rec}",
        f"voa label: {result.voa_label}",
    ]
    _emit(report, lines, args.json)
    return 0 if rec is None or rec.residual == 0 else 1


def cmd_restrict(args) -> int:
    m = _morphism(args.via)
    module = _load_module(args.module)
    if module.owner is not m.target:
        raise CliError(f"module {args.module!r} is not over the target of {args.via}")
    res = restrict(m, module)
    report = {
        "command": "restrict",
        "morphism": args.via,
        "module": module.label,
        "dim": res.dim,
    }
    lines = [f"Res({module.label}) along {args.via}: dim {res.dim}"]
    if m.source.name in ("a_va1", "a_va2"):
        rec = decompose(res, catalog.irreducibles(m.source.name))
        report["decomposition"] = str(rec)
        lines.append(f"decomposition: {rec}")
    _emit(report, lines, args.json)
    return 0


def cmd_char(args) -> int:
    module = _load_module(args.module)
    if module.owner.basis is None:
        raise CliError("characters need a finite-dimensional owner algebra")
    cv = char_vector(module)
    handle = module.owner
    named = {
        (" ".join(handle.gen_names[g] for g in w) or "1"): format_fraction(v)
        for w, v in zip(handle.basis, cv.values)
    }
    report = {"command": "char", "module": module.label, "owner": handle.name, "values": named}
    lines = [f"character of {module.label} over {handle.name}:"] + [f"  chi({k}) = {v}" for k, v in named.items()]
    _emit(report, lines, args.json)
    return 0


def cmd_artin(args) -> int:
    if args.target != "a_va1":
        raise CliError(
            "the rational-coefficient solver runs only for a_va1 "
            "(the rank-two fundamental irreducibles share a conformal weight)"
        )
    va1 = catalog.algebra("a_va1")
    weights = [Fraction(0), Fraction(1, 4)]
    irr = catalog.irreducibles("a_va1")
    coeffs = artin_solve(va1, va1.element("1/4 h h"), weights, irr)
    rows = {irr[i].label: [format_fraction(c) for c in row] for i, row in enumerate(coeffs)}
    report = {
        "command": "artin",
        "target": args.target,
        "weights": [format_fraction(w) for w in weights],
        "coefficients": rows,
    }
    lines = [f"chi_{lbl} = " + " + ".join(f"{c}*Ind_{format_fraction(w)}" for c, w in zip(row, weights) if c != "0") for lbl, row in rows.items()]
    _emit(report, lines, args.json)
    return 0


def cmd_verify(args) -> int:
    wanted = None if not args.cases or args.cases == ["all"] else args.cases
    known = set(verify.case_ids())
    if wanted is not None:
        unknown = [c for c in wanted if c not in known]
        if unknown:
            raise CliError(f"unknown case ids: {', '.join(unknown)}")
    results = verify.run(wanted)
    rows = [r.row() for r in results]
    lines = []
    for r in results:
        lines.append(f"{r.case} [{r.status}] {r.description}")
        if args.verbose or r.status == "FAIL":
            lines.append(f"    expected: {r.expected}")
            lines.append(f"    actual:   {r.actual}")
            for d in r.details:
                lines.append(f"    - {d}")
    n_fail = sum(1 for r in results if r.status == "FAIL")
    lines.append(f"{len(results) - n_fail}/{len(results)} cases PASS")
    _emit({"command": "verify", "cases": rows, "failures": n_fail}, lines, args.json)
    return 1 if n_fail else 0


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zhuind", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("check", help="parse a source file and complete its algebras")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, default=12)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dim", help="dimension of a catalog algebra or FILE#NAME")
    p.add_argument("algebra")
    p.add_argument("--max-deg", type=int, default=None, help="completion degree bound (default: the catalog's, or 12 for FILE#NAME)")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("nf", help="normal form of an expression in an algebra")
    p.add_argument("algebra")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("kernel", help="kernel basis or certificate for a catalog morphism")
    p.add_argument("--via", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("induce", help="induce a module along a catalog morphism")
    p.add_argument("--via", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("restrict", help="restrict a module along a catalog morphism")
    p.add_argument("--via", required=True)
    p.add_argument("--module", required=True)
    p.set_defaults(fn=cmd_restrict)

    p = sub.add_parser("char", help="character vector of a module")
    p.add_argument("--module", required=True)
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("artin", help="rational induction coefficients")
    p.add_argument("--target", required=True)
    p.set_defaults(fn=cmd_artin)

    p = sub.add_parser("verify", help="run verification cases (default: all)")
    p.add_argument("cases", nargs="*", metavar="CASE")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not in the flush at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        # stdout was closed by its reader; aim it at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
