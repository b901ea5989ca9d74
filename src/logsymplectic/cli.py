"""Command-line interface: reproducible reports over JSON fixtures.

Commands: jacobi, pfaffian, genpos, verify-exactness, toric-report.
Exit codes: 0 success / verdict true, 1 verdict false, 2 input error
(including an ``--out`` report that cannot be written, and an integer
option or ``--I`` entry that is not an optional "-" and ASCII digits).
Reports are canonical JSON: sorted keys, no whitespace outside strings,
no floats (rationals are strings) and no timestamps, so identical inputs
produce byte-identical files.  Without an indent, ``json.dumps`` runs the
C encoder; pretty-print a report with ``python3 -m json.tool``.

``main`` builds its parser once per process and may be called repeatedly;
argparse gives every call a fresh namespace, so no option carries over
from one call to the next.  ``build_parser()`` returns a fresh parser to
any other caller.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from .complexes import _theta, exactness_report, qi_cohomology
from .genpos import poisson_t_general
from .poisson import PoissonStructure, _field, _int_field, pfaffian, schouten
from .ring import coefficient
from .toric import (
    betti_torus,
    certify,
    deformation_tangent_dim,
    log_hodge_numbers,
    make_toric,
    random_skew,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


# an integer option or --I entry: an optional "-" and ASCII digits, spaces
# around allowed; int() alone would also take "+", "_" and other digits
_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def _integer(raw: str) -> int:
    """raw read by ``_INTEGER``; ``main`` returns 2 on its ArgumentTypeError."""
    if not _INTEGER.fullmatch(raw):
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    return int(raw)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(report: dict, out: str | None):
    if out:
        try:
            Path(out).write_text(canonical_json(report))
        except OSError as exc:
            raise InputError(f"cannot write report to {out}: {exc.strerror or exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the top-level JSON value must be an object")
    return doc


def _load_structure(path: str) -> PoissonStructure:
    doc = _load_json(path)
    try:
        return PoissonStructure.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad structure file {path}: {exc}") from exc


def _load_matrix(path: str) -> list[list[int | Fraction]]:
    doc = _load_json(path)
    try:
        size = _int_field(doc, "size")
        entries = _field(doc, "entries")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError("'entries' must be an array of arrays")
        grid = [[coefficient(x) for x in row] for row in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad matrix file {path}: {exc}") from exc
    if len(grid) != size or any(len(r) != size for r in grid):
        raise InputError(f"matrix in {path} is not {size}x{size}")
    return grid


def cmd_jacobi(args) -> int:
    p = _load_structure(args.structure)
    bracket = schouten(p.bivector, p.bivector)
    holds = bracket.is_zero()
    report = {
        "command": "jacobi",
        "structure": p.to_json(),
        "jacobi_holds": holds,
        "self_bracket": None if holds else bracket.serialize()["terms"],
    }
    _emit(report, args.out)
    if holds:
        print("jacobi: PASS ([Pi,Pi] = 0)")
    else:
        print(f"jacobi: FAIL ([Pi,Pi] has {len(bracket.terms)} nonzero components)")
        for term in report["self_bracket"]:
            print(f"  {term['indices']}: {term['coeff']}")
    return EXIT_TRUE if holds else EXIT_FALSE


def cmd_pfaffian(args) -> int:
    grid = _load_matrix(args.matrix)
    try:
        value = pfaffian(grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = {
        "command": "pfaffian",
        "size": len(grid),
        "pfaffian": str(value),
        "nonsingular": value != 0,
    }
    _emit(report, args.out)
    print(f"pfaffian: {value} ({'nonsingular' if value != 0 else 'singular'})")
    return EXIT_TRUE if value != 0 else EXIT_FALSE


def cmd_genpos(args) -> int:
    if args.t < 1:
        raise InputError("t must be >= 1")
    p = _load_structure(args.structure)
    try:
        cert = poisson_t_general(p, args.t)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = {"command": "genpos", **cert.serialize()}
    _emit(report, args.out)
    if cert.verdict:
        print(f"genpos t={args.t}: PASS ({len(cert.witnesses)} column sets witnessed)")
    else:
        print(f"genpos t={args.t}: FAIL (first failing columns: {list(cert.first_failure)})")
    return EXIT_TRUE if cert.verdict else EXIT_FALSE


def _parse_index_set(raw: str) -> tuple[int, ...]:
    try:
        parts = tuple(sorted(_integer(x) for x in raw.split(",") if x.strip()))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"bad index set {raw!r}") from exc
    if not parts:
        raise InputError("empty index set")
    return parts


def cmd_verify_exactness(args) -> int:
    if args.weight_cap < 0:
        raise InputError("weight-cap must be >= 0")
    p = _load_structure(args.structure)
    iset = _parse_index_set(args.index_set)
    nv = p.var_spec.total_vars
    if args.max_degree is not None and not len(iset) <= args.max_degree <= nv:
        raise InputError(f"max-degree must lie in {len(iset)}..{nv} (|I|..2n)")
    try:
        _theta(p)  # the phi-model gate; refuses a singular A
        dims = qi_cohomology(p, iset, args.weight_cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    top = nv if args.max_degree is None else args.max_degree
    dims = {(k, w): h for (k, w), h in dims.items() if k <= top}
    report = {
        "command": "verify-exactness",
        "index_set": list(iset),
        "max_degree": top,
        "dphi_signs": {str(i): "-1" for i in iset},  # the poles F_i = -1 the gate checked
        **exactness_report(f"Q{list(iset)}", args.weight_cap, dims),
    }
    _emit(report, args.out)
    print(f"verify-exactness Q{list(iset)} degrees {len(iset)}..{top}: {report['verdict']}")
    for row in report["table"]:
        if row["dim_cohomology"] != 0 or args.verbose:
            print(
                f"  degree {row['degree']} weight {row['weight']}: "
                f"dim H = {row['dim_cohomology']}"
            )
    return EXIT_TRUE if report["verdict"] == "exact" else EXIT_FALSE


def cmd_toric_report(args) -> int:
    if args.matrix and args.random:
        raise InputError("--matrix and --random exclude each other")
    if args.n is not None and not args.random:
        raise InputError("--n needs --random")
    if args.seed is not None and not args.random:
        raise InputError("--seed needs --random")
    if args.n is not None and args.n < 1:
        raise InputError("n must be >= 1")
    if args.matrix:
        grid = _load_matrix(args.matrix)
    elif args.random and args.n is not None:
        grid = random_skew(random.Random(args.seed or 0), 2 * args.n)
    else:
        raise InputError("either --matrix or --random with --n is required")
    try:
        t = make_toric(grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = certify(t)
    d = 2 * t.n
    dims = {
        "betti": [betti_torus(d, i) for i in range(d + 1)],
        "log_hodge_row0": [log_hodge_numbers(d, 0, j) for j in range(d + 1)],
    }
    if t.n >= 2:
        dims["deformation_tangent"] = deformation_tangent_dim(t.n)
    report = {
        "command": "toric-report",
        "matrix": t.matrix.serialize(),
        "dimension_table": dims,
        **report,
    }
    _emit(report, args.out)
    print(f"toric-report n={t.n}: pfaffian {report['pfaffian']}, "
          f"nonsingular={report['nonsingular']}, jacobi={report['jacobi_holds']}")
    if report["degeneracy_divisor"]:
        dd = report["degeneracy_divisor"]
        print(f"  divisor multiplicities {dd['multiplicities']}, snc={dd['simple_normal_crossings']}")
    print(f"  general position: {report['general_position']}")
    print(f"  dimension table: {dims}")
    ok = report["log_symplectic_2_general"] and report["certificates_verified"]
    return EXIT_TRUE if ok else EXIT_FALSE


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses through ``InputError``, so ``main``
    returns 2 with one error line instead of exiting with the usage text;
    its sub-command parsers are of this class too."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="logsymplectic",
        description="Exact checks for log-symplectic Poisson structures in local coordinates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobi", help="check the Schouten self-bracket of a structure file")
    p.add_argument("--structure", required=True)
    p.add_argument("--out", help="write the canonical JSON report here")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("pfaffian", help="Pfaffian of a constant skew matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("genpos", help="t-general position test with certificate")
    p.add_argument("--structure", required=True)
    p.add_argument("--t", type=_integer, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_genpos)

    p = sub.add_parser(
        "verify-exactness",
        help="cohomology table of one graded piece of the log-plus filtration",
        description="Cohomology table of the graded piece Q_I in degrees |I|..--max-degree "
        "(default 2n) and weights up to --weight-cap, counted block by block: each integer F, "
        "-1 on I and >= 0 off I, whose F.A vanishes off I adds C(2n-|I|, k-|I|) in degree k; "
        "no matrix is built or ranked.  Q_I is exact for |I| = 1, and for "
        "|I| = 2 unless I is a 2-resonant pair of the log matrix A (F.A vanishes off I for an "
        "integer F that is -1 on I and >= 0 off I).  So exactness rests on no 2-resonance, not "
        "on 2-general position: fixtures/resonant_structure.json is 2-general, yet Q_(3,4) is "
        "not exact.  That the paper's general position means no 2-resonance is a conjecture.",
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--I", dest="index_set", required=True, help="comma-separated divisor indices")
    p.add_argument("--max-degree", type=_integer, default=None)
    p.add_argument("--weight-cap", type=_integer, default=4)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_exactness)

    p = sub.add_parser("toric-report", help="full certification report of an invariant structure")
    p.add_argument("--matrix")
    p.add_argument("--random", action="store_true", help="draw a random matrix instead")
    p.add_argument("--n", type=_integer, default=None, help="half-dimension for --random")
    p.add_argument("--seed", type=_integer, default=None, help="seed for --random (default 0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_toric_report)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
