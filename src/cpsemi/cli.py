"""Command-line interface.

Subcommands::

    cpsemi analyze    --input gen.json            full analysis report
    cpsemi covariance --input gen.json --units u.json [--t 1.0 --m 512]
    cpsemi verify     --input gen.json [--checks product_system,domination,gauge,units,covariance]
    cpsemi decompose  --input gen.json            canonical form (re-ingestible as "gkls")
    cpsemi index      --input gen.json            rank / index only

Input files are JSON generator specs.  Complex scalars are encoded as
[re, im] pairs of finite JSON numbers (not booleans), matrices as row-major
nested lists of such pairs::

    {"type": "superop", "n": 2, "matrix": [[...n^2 pairs...], ...]}
    {"type": "gkls", "n": 2, "kraus": [[[..]..]..], "k": [[..]..]}
    {"type": "hamiltonian_lindblad", "n": 2, "h": [[..]..], "lindblad": [..]}

A spec's top-level arrays of [re, im] pairs are read flat where their
skeleton, the structure bytes that one pass keeps, is rectangular: orjson
parses their numbers as one flat list each, and the json module the rest
of the text (:func:`_read_flat`).  Everything else is read by the json
module alone (:func:`_parse`), and :func:`decode` checks its lists, with
the same arrays and messages.

A report's numeric data are C-contiguous float arrays from :func:`encode`,
which orjson writes without building a list.  Output
(stdout or --output) is the text of json.dumps(report, sort_keys=True,
indent=2, default=np.ndarray.tolist) plus a newline; it is byte-identical
for identical input and flags (``verify``'s ``--seed`` among them).
Exit codes: each error class carries its own (``errors.py``, README's "Exit
codes"); a usage error exits 1, and a failed ``verify`` check 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import heapq
import json
import math
import os
import sys

import numpy as np
import orjson

from . import (
    CpsemiError,
    LogBranch,
    NotCCP,
    NotHermitian,
    NotHermiticityPreserving,
    NotMember,
    Overflow,
    ParseError,
    Tolerances,
    covariance,
    covariance_estimate,
    decompose,
    dominates,
    hamiltonian_lindblad,
    kraus_to_superop,
    make_unit,
    product_system_check,
    rank,
    sample_units,
    verify_units,
)
from .errors import EXIT_NOT_GENERATOR, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE
from .generator import GklsForm, gauge_check, gkls_superop, is_unital_generator
from .numerics import frob, is_hermitian, within
from .sampling import random_cp_map
from .semigroup import covariance_kernel, gram_dimension
from .superop import Flow, dim_of

_INDEX_NOTE = (
    "dimension of the generator's metric operator space; equals the numerical "
    "index of the minimal dilation to a semigroup of *-endomorphisms"
)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def encode(a) -> np.ndarray:
    """Report form of a complex scalar or array: a float array of shape
    ``a.shape + (2,)``, every entry an [re, im] pair.  It is C-contiguous,
    as orjson needs to write it without ``default``, and a view of ``a``
    where ``a`` is already a C-contiguous complex array (a copy otherwise)."""
    a = np.asarray(a, dtype=complex, order="C")
    return a.reshape(-1).view(float).reshape(a.shape + (2,))


def decode(obj, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array of the given shape from its JSON form (see :func:`encode`).

    An array that :func:`_read_json` read flat holds finite numbers, so only
    its shape is checked.  Lists must nest to shape ``shape + (2,)``, or stop
    at an empty level of it, and every number must be finite and exactly an
    ``int`` or a ``float`` (``bool`` is a subclass of ``int``, so JSON
    ``true`` is not a number here).
    """
    want = shape + (2,)
    if isinstance(obj, np.ndarray) and obj.shape == want:  # read flat by _read_json
        return obj.view(complex).reshape(shape)
    a = np.array(obj, dtype=object)  # as deep as the nesting is regular
    if a.shape != want and not (a.size == 0 and a.shape == want[: a.ndim]):
        raise ParseError(f"{what}: expected [re, im] pairs nested to shape {want}, got {a.shape}")
    if not set(map(type, a.flat)) <= {int, float}:
        raise ParseError(f"{what}: every entry must be a JSON number")
    try:
        f = a.astype(float).reshape(want)
        finite = np.isfinite(f).all()
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ParseError(f"{what}: every entry must be finite")
    return f.view(complex).reshape(shape)


# Deepest nesting of an array of [re, im] pairs that _rectangular builds a
# template for (a spec's nest 3 or 4 deep); deeper text is the json module's.
_MAX_DEPTH = 64
# Every byte but brackets, braces, commas, quotes and the backslash (see _skeleton).
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'[]{},"\\')))
# The flat text of an array (see _flat_array): brackets become spaces, and each
# byte that is not whitespace, a comma or part of a number "#", which no JSON
# holds outside a string.
_FLAT = bytes(32 if c in b"[]" else c if c in b"\t\n\r ,+-.0123456789Ee" else 35 for c in range(256))
# Bytes of text per step of _pairs_filled: its temporaries stay in cache and
# are reused, where whole-text ones cost a page fault per 4 kB.
_BLOCK = 1 << 16
# The keys of a generator spec whose values are arrays of [re, im] pairs.
_ARRAYS = (b"matrix", b"kraus", b"k", b"h", b"lindblad")


def _skeleton(raw: bytes) -> list[bytes] | None:
    """The structure bytes of the JSON text ``raw`` split at its quotes, or
    None if it holds a backslash: without one the quotes pair up, and the
    pieces at odd indices are strings."""
    skeleton = raw.translate(None, _NOT_STRUCTURE)
    return None if b"\\" in skeleton else skeleton.split(b'"')


def _loads(raw: bytes):
    """The json module's value of the bytes ``raw`` read as a text-mode
    open() reads them: strict UTF-8, universal newlines."""
    return json.loads(raw.decode().replace("\r\n", "\n").replace("\r", "\n"))


def _parse(path: str, raw: bytes):
    """The JSON value of the bytes of an input file that the flat route
    declined, by the json module, which defines the input format: it accepts
    NaN and Infinity (``decode`` then names the entry that is not finite),
    and its message is the parse error."""
    try:
        return _loads(raw)
    except (ValueError, RecursionError) as exc:  # ValueError: also bytes that are not UTF-8
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _rectangular(piece: bytes) -> list[int] | None:
    """The shape ``s`` such that ``piece`` is the skeleton of an array of
    [re, im] pairs nested to ``s + [2]``, then a ``,`` or ``}``; or None.
    Level j starts at byte j, and its first element ends where the first run
    of depth - j closing brackets does: the lengths of two levels' first
    elements give the size of the outer one."""
    depth = piece.find(b",")  # the first pair's comma
    if not 1 < depth <= _MAX_DEPTH or piece[-1:] not in (b",", b"}"):
        return None
    shape, template = [], b"[,]"
    for closers in range(2, depth + 1):
        level = depth - closers
        end = piece.find(b"]" * closers) + closers if level else len(piece) - 1
        size, rest = divmod(end - level - 1, len(template) + 1)
        if size < 1 or rest:
            return None
        shape.insert(0, size)
        template = b"[" + b",".join([template] * size) + b"]"
    return shape if piece.startswith(template) else None


def _pairs_filled(raw: bytes, start: int, end: int, blank: bytes = b"") -> bool:
    """Whether the byte inside each bracket of the text ``raw[start:end]``,
    the bytes ``blank`` deleted, is above the comma, as a number's first and
    last bytes are (whitespace is not)."""
    text = memoryview(raw)[start:end]
    if blank:  # deleted a block at a time: a whole-text slice costs a page fault per 4 kB
        blocks = range(start, end, _BLOCK)
        text = b"".join(raw[at : min(at + _BLOCK, end)].translate(None, blank) for at in blocks)
    u = np.frombuffer(text, dtype=np.uint8)
    for at in range(0, len(u) - 1, _BLOCK):
        v = u[at : at + _BLOCK + 1]
        low = v <= ord(",")
        if ((v[:-1] == ord("[")) & low[1:]).any() or (low[:-1] & (v[1:] == ord("]"))).any():
            return False
    return True


def _flat_array(flat: bytearray, start: int, end: int, shape: list[int]):
    """The float array of shape ``shape + [2]`` spelled by the text whose flat
    form is ``flat[start:end]``, a text whose skeleton is that of such an
    array and whose pairs are filled (:func:`_pairs_filled`); None if orjson
    refuses it or an entry is not finite.

    orjson parses the flat form, outer brackets put back, as one list, and
    judges each number and what lies between two: so one number lies between
    each two commas of the skeleton.  The byte inside each bracket, whitespace
    skipped, is part of a number: so each of a pair's two slots holds one,
    none lies between two brackets, and the nesting is the skeleton's.
    """
    flat[start], flat[end - 1] = ord("["), ord("]")
    try:
        numbers = orjson.loads(memoryview(flat)[start:end])
    except orjson.JSONDecodeError:
        return None
    f = np.fromiter(numbers, dtype=float, count=len(numbers))
    return f.reshape(*shape, 2) if np.isfinite(f).all() else None


def _read_flat(raw: bytes, arrays) -> dict | None:
    """The top-level JSON object of ``raw`` with the value of each key in
    ``arrays`` that is an array of filled [re, im] pairs read flat
    (:func:`_flat_array`); None where the json module reads ``raw``
    (:func:`_parse`).  An array whose pairs are not filled is tested again
    with its whitespace deleted, as indented text needs; orjson still parses
    the flat form of the text as it is.  Such a value is cut out for a
    string that no text without a backslash holds, ``"\\u0000<i>"``, and the
    json module parses the rest, so orjson sees flat lists only.  Every
    failure declines, and so does a cut value that is not then its key's
    value at the top level (a duplicate key, say)."""
    if (pieces := _skeleton(raw)) is None:
        return None
    cuts, quotes = [], [-1]  # quotes[i]: the quote before pieces[i]
    for i in range(2, len(pieces), 2):
        if not (shape := _rectangular(pieces[i])):
            continue
        while len(quotes) <= i:
            quotes.append(raw.find(b'"', quotes[-1] + 1))
        key = raw[quotes[i - 1] + 1 : quotes[i]]
        if key in arrays:
            stop = raw.find(b'"', quotes[i] + 1)
            start = raw.find(b"[", quotes[i])
            end = raw.rfind(b"]", start, len(raw) if stop < 0 else stop) + 1
            if _pairs_filled(raw, start, end) or _pairs_filled(raw, start, end, b" \t\n\r"):
                cuts.append((start, end, shape, key.decode()))
    if not cuts:
        return None
    parts, done = [], 0
    for k, (start, end, _, _) in enumerate(cuts):
        parts += (raw[done:start], b'"\\u0000%d"' % k)
        done = end
    parts.append(raw[done:])
    try:
        doc = _loads(b"".join(parts))
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or any(doc.get(c[3]) != f"\0{k}" for k, c in enumerate(cuts)):
        return None
    flat = bytearray(raw).translate(_FLAT)  # mutable: _flat_array puts brackets back
    for start, end, shape, key in cuts:
        doc[key] = _flat_array(flat, start, end, shape)
        if doc[key] is None:
            return None
    return doc


def _read_json(path: str, arrays=()) -> dict:
    """The top-level JSON object of an input file, with the values of the keys
    in ``arrays`` read flat where they can be (see :func:`_read_flat`)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    doc = _read_flat(raw, arrays) if arrays else None
    if doc is None:
        doc = _parse(path, raw)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc


def _decode_stack(doc: dict, key: str, n: int) -> np.ndarray:
    ops = doc.get(key)
    if not isinstance(ops, (list, np.ndarray)):
        raise ParseError(f"'{key}' must be a list of matrices")
    return decode(ops, (len(ops), n, n), key)


def load_generator(path: str, tol: Tolerances) -> tuple[np.ndarray, int]:
    """Read a generator spec file and return (superoperator matrix, n)."""
    doc = _read_json(path, _ARRAYS)
    kind = doc.get("type")
    n = doc.get("n")
    if type(n) is not int or not 2 <= n <= 16:
        raise ParseError("'n' must be an integer between 2 and 16")
    if kind == "superop":
        return decode(doc.get("matrix"), (n * n, n * n), "matrix"), n
    if kind == "gkls":
        ops = _decode_stack(doc, "kraus", n)
        k = decode(doc.get("k"), (n, n), "k")
        return gkls_superop(k, kraus_to_superop(ops)), n
    if kind == "hamiltonian_lindblad":
        h = decode(doc.get("h"), (n, n), "h")
        ops = _decode_stack(doc, "lindblad", n)
        try:
            return hamiltonian_lindblad(h, ops, tol), n
        except NotHermitian as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown generator type {kind!r}")


def load_units(path: str, d: GklsForm):
    entries = _read_json(path).get("units")
    if not isinstance(entries, list) or len(entries) != 2:
        raise ParseError("units file must contain a 'units' list with two entries")
    units = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"units[{i}] must be an object")
        c = decode(entry.get("c"), (), f"units[{i}].c")
        v = decode(entry.get("v"), (d.space.dim,), f"units[{i}].v")
        units.append(make_unit(d, c, v))
    return units


# ---------------------------------------------------------------------------
# Report writer

_DUMP = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
_DUMP |= orjson.OPT_APPEND_NEWLINE  # so that every number token ends at a newline


def _finds(raw: bytes, needle: bytes):
    at = raw.find(needle)
    while at >= 0:
        yield at
        at = raw.find(needle, at + 1)


def _write(obj, write) -> None:
    r"""Write ``obj`` through ``write`` as the text of ``json.dumps(obj,
    sort_keys=True, indent=2, default=np.ndarray.tolist)``.

    That is orjson's text, a slice at a time, with each number token holding
    ``e`` or ``0.0000`` re-spelled as ``repr(float(token))``: orjson has the
    same digits, as ``1e-7``, ``1e16`` and ``0.00001``.  A token runs from a
    space (indentation or ``": ``) to ``,\n`` or ``\n``, so never lies in a
    string, which holds no raw newline.  Text that orjson spells unlike json
    (``null`` for NaN, an infinity or None; DEL and non-ASCII) is json's own.
    """
    try:
        raw = orjson.dumps(obj, default=np.ndarray.tolist, option=_DUMP)
    except orjson.JSONEncodeError:  # an integer beyond 64 bits, a key that is not a string
        raw = b"null"
    if b"null" in raw or b"\x7f" in raw or not raw.isascii():
        write(json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist))
        return
    done = 0
    for at in heapq.merge(_finds(raw, b"e"), _finds(raw, b"0.0000")):
        start = raw.rfind(b" ", 0, at) + 1
        token = raw[start : raw.find(b"\n", at)].removesuffix(b",")
        if at >= done and not token.translate(None, b"0123456789.e-"):
            write(raw[done:start].decode())
            write(repr(float(token)))
            done = start + len(token)
    write(raw[done:-1].decode())


def _emit(report: dict, output: str | None) -> None:
    try:
        with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
            _write(report, fh.write)
            fh.write("\n")
    except OSError as exc:
        if output:
            raise ParseError(f"cannot write {output}: {exc}") from exc
        if not isinstance(exc, BrokenPipeError):
            raise
        # The reader has gone: send what stdout still buffers to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ParseError(f"cannot write stdout: {exc}") from exc


# ---------------------------------------------------------------------------
# Reports.  Each subcommand gets the decomposed generator, or ``index`` the
# rank alone, and returns (report, exit code); main() writes the report.


def _rejection(command: str, n: int, exc: NotCCP | NotHermiticityPreserving) -> dict:
    """The exit-2 report of an input that is not a generator."""
    report = {
        "ccp": False,
        "command": command,
        "error": str(exc),
        "hermiticity_preserving": isinstance(exc, NotCCP),
        "n": n,
    }
    if isinstance(exc, NotCCP) and exc.witness is not None:
        report["witness"] = encode(exc.witness)
        report["projected_eigenvalue"] = float(exc.eigenvalue)
    return report


def _canonical(d: GklsForm) -> dict:
    return {
        "k": encode(d.k),
        "kraus": encode(d.space.basis),
        "n": d.n,
        "rank": d.space.dim,
        "residual": d.residual,
    }


def _index(n: int, dim: int) -> dict:
    return {"index": dim, "index_note": _INDEX_NOTE, "n": n, "rank": dim}


def cmd_analyze(args, mat: np.ndarray, d: GklsForm, tol: Tolerances):
    report = {
        "command": "analyze",
        **_canonical(d),
        **_index(d.n, d.space.dim),
        "ccp": True,
        "hermiticity_preserving": True,
        "unital": is_unital_generator(mat, tol),
    }
    if d.space.dim == 0:
        report["note"] = "rank 0: the semigroup consists of *-automorphisms"
    return report, EXIT_OK


def cmd_decompose(args, mat: np.ndarray, d: GklsForm, tol: Tolerances):
    return {"type": "gkls", **_canonical(d)}, EXIT_OK


def cmd_index(args, mat: np.ndarray, dim: int, tol: Tolerances):
    return {"command": "index", **_index(dim_of(mat), dim)}, EXIT_OK


def cmd_covariance(args, mat: np.ndarray, d: GklsForm, tol: Tolerances):
    u1, u2 = load_units(args.units, d)
    closed = covariance(d, u1, u2)
    report = {"command": "covariance", "closed": encode(closed), "m": args.m, "t": args.t}
    try:
        est = covariance_estimate(Flow(mat, tol), u1, u2, t=args.t, m=args.m)
    except (LogBranch, NotMember, Overflow) as exc:
        return {**report, "error": str(exc)}, exc.exit_code
    report.update(estimate=encode(est), abs_error=abs(est - closed), n=d.n)
    return report, EXIT_OK


_ALL_CHECKS = ("product_system", "domination", "gauge", "units", "covariance")


def cmd_verify(args, mat: np.ndarray, d: GklsForm, tol: Tolerances):
    rng = np.random.default_rng(args.seed)
    checks: dict = {}
    flow = Flow(mat, tol)  # exp(tL) for every check that samples it
    if "product_system" in args.checks:
        ok1 = product_system_check(flow, 0.5, 0.5)
        ok2 = product_system_check(flow, 0.3, 0.7)
        checks["product_system"] = {"pass": bool(ok1 and ok2)}
    if "domination" in args.checks:
        bigger = mat + random_cp_map(rng, d.n, m=1)
        checks["domination"] = {"pass": bool(dominates(flow, Flow(bigger, tol)))}
    if "gauge" in args.checks:
        checks["gauge"] = gauge_check(d, rng)
    if "units" in args.checks:
        units = sample_units(d, 2, seed=args.seed)
        checks["units"] = {"pass": verify_units(flow, units)}
    if "covariance" in args.checks:
        units = sample_units(d, d.space.dim + 3, seed=args.seed)
        kern = covariance_kernel(d, units)
        herm = is_hermitian(kern, tol)
        # gram_dimension cancels the scalar parts; the trivial unit's column pins them.
        first = np.array([covariance(d, u, units[0]) for u in units])
        first_ok = within(frob(kern[:, 0] - first), tol.residual, frob(first))
        dim_ok = gram_dimension(kern, tol) == d.space.dim
        checks["covariance"] = {"pass": bool(herm and first_ok and dim_ok)}
    all_pass = all(entry["pass"] for entry in checks.values())
    report = {
        "checks": checks,
        "command": "verify",
        "n": d.n,
        "pass": bool(all_pass),
        "seed": args.seed,
    }
    return report, EXIT_OK if all_pass else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors (an unknown flag, a missing
    ``--input``, ``--tol abc``) exit 1 like every other parse error; the
    subparsers inherit it.  argparse's own exit code 2 would read as "the
    input is not a generator"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


_COMMANDS = {
    "analyze": ("full analysis report", cmd_analyze),
    "covariance": ("closed-form and estimated covariance", cmd_covariance),
    "verify": ("run sampled consistency checks", cmd_verify),
    "decompose": ("canonical form (re-ingestible as gkls)", cmd_decompose),
    "index": ("rank / numerical index", cmd_index),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in it.
    Each subcommand's parser is its namespace's ``parser``, which reports the
    arguments that it does not take (see :func:`main`)."""
    parser = _Parser(
        prog="cpsemi",
        description="analyze generators of completely positive semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="generator spec (JSON)")
        p.add_argument("--tol", type=float, default=1e-9, help="base tolerance")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.set_defaults(func=func, parser=p)
    p = sub.choices["covariance"]
    p.add_argument("--units", required=True, help="units file (JSON)")
    p.add_argument("--t", type=float, default=1.0, help="total evolution time")
    p.add_argument("--m", type=int, default=512, help="partition size")
    p = sub.choices["verify"]
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--checks", default=None, help="comma-separated subset of: " + ",".join(_ALL_CHECKS))
    return parser


def _check_flags(args) -> Tolerances:
    """Reject bad flag values as parse errors; return ``Tolerances(--tol)``.
    Normalises ``--checks`` to a list of check names."""
    for flag in ("tol", "t"):
        value = getattr(args, flag, 1.0)
        if not (math.isfinite(value) and value > 0):
            raise ParseError(f"--{flag} must be a finite number > 0, got {value}")
    t, m = getattr(args, "t", 1.0), getattr(args, "m", 1)
    if m < 1:
        raise ParseError(f"--m must be at least 1, got {m}")
    try:
        step = t / m  # the step of the covariance estimator
    except OverflowError:  # an int --m beyond the float range
        step = 0.0
    if not step > 0:
        raise ParseError(f"--t / --m must be a float > 0, got {t} / {m}")
    if args.command == "verify":
        if args.seed < 0:
            raise ParseError(f"--seed must be at least 0, got {args.seed}")
        args.checks = args.checks.split(",") if args.checks else list(_ALL_CHECKS)
        for name in args.checks:
            if name not in _ALL_CHECKS:
                raise ParseError(f"unknown check {name!r}")
    return Tolerances(args.tol)


def main(argv=None) -> int:
    """Run one CLI call and return its exit code, with no floating-point warning:
    an input near the float maximum ends in one error line (exit 3).  An error
    ends the call in one ``error:`` line and its class's exit code."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # with the subcommand's usage: the root parser's lists none of its flags
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            tol = _check_flags(args)
            mat, n = load_generator(args.input, tol)
            try:
                d = (rank if args.command == "index" else decompose)(mat, tol)
            except (NotCCP, NotHermiticityPreserving) as exc:
                report, code = _rejection(args.command, n, exc), EXIT_NOT_GENERATOR
            else:
                report, code = args.func(args, mat, d, tol)
            _emit(report, args.output)
        except CpsemiError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())
