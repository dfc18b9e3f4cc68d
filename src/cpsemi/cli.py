"""Command-line interface.

Subcommands::

    cpsemi analyze    --input gen.json            full analysis report
    cpsemi covariance --input gen.json --units u.json [--t 1.0 --m 512]
    cpsemi verify     --input gen.json [--checks product_system,domination,gauge,units,covariance]
    cpsemi decompose  --input gen.json            canonical form (re-ingestible as "gkls")
    cpsemi index      --input gen.json            rank / index only

Input files are JSON generator specs.  Complex scalars are encoded as
[re, im] pairs, matrices as row-major nested lists of such pairs::

    {"type": "superop", "n": 2, "matrix": [[...n^2 pairs...], ...]}
    {"type": "gkls", "n": 2, "kraus": [[[..]..]..], "k": [[..]..]}
    {"type": "hamiltonian_lindblad", "n": 2, "h": [[..]..], "lindblad": [..]}

Output is key-sorted JSON (stdout or --output), byte-identical for
identical (input, flags, seed).  Exit codes: 0 ok, 1 parse error, 2 input
is not a generator, 3 numerical limit exceeded (or a verification check
failed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import (
    LogBranch,
    NotCCP,
    NotCP,
    NotHermitian,
    NotHermiticityPreserving,
    NotMember,
    NotPSD,
    ParseError,
    Tolerances,
    apply_superop,
    covariance,
    covariance_estimate,
    decompose,
    dominates,
    extract_gauge,
    gauge_shift,
    hamiltonian_lindblad,
    kraus_to_superop,
    make_unit,
    product_system_check,
    same_generator,
    sample_units,
    symbols_equal,
    verify_unit,
)
from .generator import GklsForm, gkls_superop
from .sampling import random_cp_map
from .semigroup import covariance_kernel, gram_dimension

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_GENERATOR = 2
EXIT_NUMERICAL = 3

_INDEX_NOTE = (
    "dimension of the generator's metric operator space; equals the numerical "
    "index of the minimal dilation to a semigroup of *-endomorphisms"
)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _c2j(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _m2j(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[_c2j(z) for z in row] for row in m]


def _j2c(obj, what: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) for x in obj)
    ):
        raise ParseError(f"{what}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _j2m(obj, rows: int, cols: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{what}: expected {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{what}: row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _j2c(entry, f"{what}[{i}][{j}]")
    return out


def load_generator(path: str, tol: Tolerances) -> tuple[np.ndarray, int]:
    """Read a generator spec file and return (superoperator matrix, n)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    kind = doc.get("type")
    n = doc.get("n")
    if not isinstance(n, int) or not 2 <= n <= 16:
        raise ParseError("'n' must be an integer between 2 and 16")
    if kind == "superop":
        mat = _j2m(doc.get("matrix"), n * n, n * n, "matrix")
        return mat, n
    if kind == "gkls":
        kraus_doc = doc.get("kraus")
        if not isinstance(kraus_doc, list):
            raise ParseError("'kraus' must be a list of matrices")
        ops = [_j2m(op, n, n, f"kraus[{i}]") for i, op in enumerate(kraus_doc)]
        k = _j2m(doc.get("k"), n, n, "k")
        return gkls_superop(k, kraus_to_superop(ops) if ops else None), n
    if kind == "hamiltonian_lindblad":
        h = _j2m(doc.get("h"), n, n, "h")
        lind_doc = doc.get("lindblad")
        if not isinstance(lind_doc, list):
            raise ParseError("'lindblad' must be a list of matrices")
        ops = [_j2m(op, n, n, f"lindblad[{i}]") for i, op in enumerate(lind_doc)]
        try:
            mat = hamiltonian_lindblad(h, ops, tol)
        except NotHermitian as exc:
            raise ParseError(str(exc)) from exc
        return mat, n
    raise ParseError(f"unknown generator type {kind!r}")


def load_units(path: str, d: GklsForm, tol: Tolerances):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    entries = doc.get("units") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or len(entries) < 2:
        raise ParseError("units file must contain a 'units' list with two entries")
    units = []
    for i, entry in enumerate(entries[:2]):
        if not isinstance(entry, dict):
            raise ParseError(f"units[{i}] must be an object")
        c = _j2c(entry.get("c"), f"units[{i}].c")
        v_doc = entry.get("v")
        if not isinstance(v_doc, list) or len(v_doc) != d.space.dim:
            raise ParseError(
                f"units[{i}].v must list {d.space.dim} coordinate pairs"
            )
        coords = [_j2c(p, f"units[{i}].v[{j}]") for j, p in enumerate(v_doc)]
        units.append(make_unit(d, c, coords))
    return units


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analyze(args, tol: Tolerances) -> int:
    mat, n = load_generator(args.input, tol)
    report: dict = {"command": "analyze", "n": n}
    # decompose applies the Hermiticity and CCP tests and raises on failure.
    try:
        d = decompose(mat, tol)
    except (NotCCP, NotHermiticityPreserving) as exc:
        report.update(hermiticity_preserving=isinstance(exc, NotCCP), ccp=False, error=str(exc))
        if isinstance(exc, NotCCP) and exc.witness is not None:
            report["witness"] = [_c2j(z) for z in exc.witness]
            report["projected_eigenvalue"] = float(exc.eigenvalue)
        _emit(report, args.output)
        return EXIT_NOT_GENERATOR
    report.update(hermiticity_preserving=True, ccp=True)
    # The semigroup exp(tL) is unital iff the generator kills the identity.
    lone = apply_superop(mat, np.eye(n))
    report["unital"] = bool(
        float(np.linalg.norm(lone)) <= tol.residual * max(1.0, float(np.linalg.norm(mat)))
    )
    report["rank"] = d.space.dim
    report["index"] = d.space.dim
    report["index_note"] = _INDEX_NOTE
    report["kraus"] = [_m2j(v) for v in d.space.basis]
    report["k"] = _m2j(d.k)
    report["residual"] = d.residual
    if d.space.dim == 0:
        report["note"] = "rank 0: the semigroup consists of *-automorphisms"
    _emit(report, args.output)
    return EXIT_OK


def cmd_covariance(args, tol: Tolerances) -> int:
    mat, n = load_generator(args.input, tol)
    try:
        d = decompose(mat, tol)
    except (NotCCP, NotHermiticityPreserving) as exc:
        _emit({"command": "covariance", "error": str(exc)}, args.output)
        return EXIT_NOT_GENERATOR
    u1, u2 = load_units(args.units, d, tol)
    closed = covariance(d, u1, u2)
    try:
        est = covariance_estimate(mat, u1, u2, t=args.t, m=args.m, tol=tol)
    except (LogBranch, NotMember) as exc:
        _emit(
            {
                "command": "covariance",
                "closed": _c2j(closed),
                "error": str(exc),
                "m": args.m,
                "t": args.t,
            },
            args.output,
        )
        return EXIT_NUMERICAL
    report = {
        "command": "covariance",
        "closed": _c2j(closed),
        "estimate": _c2j(est),
        "abs_error": abs(est - closed),
        "m": args.m,
        "n": n,
        "t": args.t,
    }
    _emit(report, args.output)
    return EXIT_OK


_ALL_CHECKS = ("product_system", "domination", "gauge", "units", "covariance")


def cmd_verify(args, tol: Tolerances) -> int:
    mat, n = load_generator(args.input, tol)
    wanted = args.checks.split(",") if args.checks else list(_ALL_CHECKS)
    for name in wanted:
        if name not in _ALL_CHECKS:
            raise ParseError(f"unknown check {name!r}")
    try:
        d = decompose(mat, tol)
    except (NotCCP, NotHermiticityPreserving) as exc:
        _emit({"command": "verify", "error": str(exc)}, args.output)
        return EXIT_NOT_GENERATOR
    rng = np.random.default_rng(args.seed)
    checks: dict = {}
    if "product_system" in wanted:
        ok1 = product_system_check(mat, 0.5, 0.5, tol)
        ok2 = product_system_check(mat, 0.3, 0.7, tol)
        checks["product_system"] = {"pass": bool(ok1 and ok2)}
    if "domination" in wanted:
        bigger = mat + random_cp_map(rng, n, m=1)
        checks["domination"] = {"pass": bool(dominates(mat, bigger, tol=tol))}
    if "gauge" in wanted:
        checks["gauge"] = _gauge_check(d, rng, tol)
    if "units" in wanted:
        units = sample_units(d, 2, seed=args.seed)
        ok = all(verify_unit(mat, u, (0.1, 0.5, 1.0), tol) for u in units)
        checks["units"] = {"pass": bool(ok)}
    if "covariance" in wanted:
        units = sample_units(d, d.space.dim + 3, seed=args.seed)
        kern = covariance_kernel(d, units)
        herm = bool(
            np.allclose(kern.matrix, kern.matrix.conj().T, atol=1e-12)
        )
        dim_ok = gram_dimension(kern, tol) == d.space.dim
        checks["covariance"] = {"pass": bool(herm and dim_ok)}
    all_pass = all(entry["pass"] for entry in checks.values())
    report = {
        "checks": checks,
        "command": "verify",
        "n": n,
        "pass": bool(all_pass),
        "seed": args.seed,
    }
    _emit(report, args.output)
    return EXIT_OK if all_pass else EXIT_NUMERICAL


def _gauge_check(d: GklsForm, rng: np.random.Generator, tol: Tolerances) -> dict:
    dim = d.space.dim
    lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if dim:
        shifted = gauge_shift(d, lam)
        sym_ok = symbols_equal(
            shifted, gauge_shift(d, np.zeros(dim)), tol
        )
        u = sum(
            np.conj(l) * v for l, v in zip(lam, d.space.basis)
        )
        k2 = d.k - u - 0.5 * float(np.vdot(lam, lam).real) * np.eye(d.n)
        mat2 = gkls_superop(k2, shifted)
        d2 = decompose(mat2, tol)
        same = same_generator(d, d2, tol)
        gauge = extract_gauge(d, d2, tol)
        gauge_ok = gauge.residual <= 1e-8 * max(1.0, float(np.linalg.norm(d.k)))
    else:
        sym_ok = True
        same = True
        gauge_ok = True
    perturbed = GklsForm(
        n=d.n, space=d.space, k=d.k + 0.1 * np.eye(d.n), residual=d.residual
    )
    different = not same_generator(d, perturbed, tol)
    return {
        "pass": bool(sym_ok and same and gauge_ok and different),
        "perturbation_detected": bool(different),
        "shift_same_generator": bool(same),
        "symbols_equal": bool(sym_ok),
    }


def cmd_decompose(args, tol: Tolerances) -> int:
    mat, n = load_generator(args.input, tol)
    try:
        d = decompose(mat, tol)
    except (NotCCP, NotHermiticityPreserving) as exc:
        report = {"command": "decompose", "error": str(exc)}
        if isinstance(exc, NotCCP) and exc.witness is not None:
            report["witness"] = [_c2j(z) for z in exc.witness]
        _emit(report, args.output)
        return EXIT_NOT_GENERATOR
    report = {
        "type": "gkls",
        "n": n,
        "kraus": [_m2j(v) for v in d.space.basis],
        "k": _m2j(d.k),
        "rank": d.space.dim,
        "residual": d.residual,
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_index(args, tol: Tolerances) -> int:
    mat, n = load_generator(args.input, tol)
    try:
        d = decompose(mat, tol)
    except (NotCCP, NotHermiticityPreserving) as exc:
        _emit({"command": "index", "error": str(exc)}, args.output)
        return EXIT_NOT_GENERATOR
    report = {
        "command": "index",
        "index": d.space.dim,
        "index_note": _INDEX_NOTE,
        "n": n,
        "rank": d.space.dim,
    }
    _emit(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="generator spec (JSON)")
    p.add_argument("--tol", type=float, default=1e-9, help="base tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsemi",
        description="analyze generators of completely positive semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("covariance", help="closed-form and estimated covariance")
    _add_common(p)
    p.add_argument("--units", required=True, help="units file (JSON)")
    p.add_argument("--t", type=float, default=1.0, help="total evolution time")
    p.add_argument("--m", type=int, default=512, help="partition size")
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("verify", help="run sampled consistency checks")
    _add_common(p)
    p.add_argument(
        "--checks",
        default=None,
        help="comma-separated subset of: " + ",".join(_ALL_CHECKS),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="canonical form (re-ingestible as gkls)")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("index", help="rank / numerical index")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = Tolerances(eig_cut=args.tol, psd_slack=args.tol, residual=args.tol / 10.0)
    try:
        return args.func(args, tol)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotCCP, NotCP, NotHermiticityPreserving, NotPSD) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERATOR
    except (LogBranch, NotMember) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
