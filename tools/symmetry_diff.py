"""Count the CLI answers that the paper's symmetries change, over the
benchmark corpus.

    python tools/symmetry_diff.py [TREE] [--seeds 0,1,2,3,4] [--sizes 2,3,4,8]

The index of a quantum dynamical semigroup, the CCP verdict of its generator
L and whether L is unital do not change when L is

* scaled by s > 0 (``scale 1e<j>``, j = -12..12; ``verify`` is run too,
  at j = -12, -8, .., 12);
* conjugated by a unitary, x -> U* L(U x U*) U (``Ad_U``, U Haar);
* presented by a unitarily mixed Kraus family, v_m -> sum_k W_mk v_k
  (``mix``, W Haar);
* given an extra Hamiltonian term, L + i[h, .] (``ham 1e<j>``: h Hermitian
  with ||h|| = 10^j ||L_D||, j = 0, 2, .., 10, L_D the part of L that no
  x -> a x + x b fits).

The corpus is ``perfbench/corpus.make_generator(default_rng(seed), n, m,
unital)`` for every seed, size n, rank m in {1, 2, n^2 - 1} and unital flag.
Each generator is written as every spec type that can hold it (``superop``,
``gkls``, and ``hamiltonian_lindblad`` when unital), transformed through its
Kraus family and drift, and run through ``cpsemi analyze`` (``verify`` on
the ``superop`` spec).  A generator counts as changed under a transform when
the exit code, ``ccp``, ``index`` or ``unital`` of any of its specs (for
``verify``, the exit code or the set of failed checks) differs from the
untransformed input's.  One line is printed per transform: the count and the
first change.

The package is imported from TREE's ``src/`` (default: this checkout), in
process; everything else is numpy.  The random draws are seeded per
generator, so two trees answer the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import corpus as C  # noqa: E402

SCALES = range(-12, 13)
VERIFIED = {f"scale 1e{j}" for j in range(-12, 13, 4)}  # verify is slow: every fourth scale
HAMILTONIANS = range(0, 11, 2)


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian, with the phases of R's diagonal."""
    q, r = np.linalg.qr(C.cnormal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dissipative_norm(mat: np.ndarray) -> float:
    """||L - P(L)|| for the orthogonal projection P onto the maps
    x -> a x + x b, whose superoperators are the kron(1, a) + kron(b^T, 1)."""
    n = int(round(np.sqrt(mat.shape[0])))
    t = mat.reshape(n, n, n, n)  # kron(B, A)[i n + k, j n + l] = B[i, j] A[k, l]
    a, b = np.einsum("ikil->kl", t) / n, np.einsum("ikjk->ij", t) / n
    eye = np.eye(n)
    fit = np.kron(eye, a) + np.kron(b, eye) - np.trace(mat) / n**2 * np.eye(n * n)
    return float(np.linalg.norm(mat - fit))


def transforms(gen: C.Generator, rng: np.random.Generator):
    """Yield (name, transformed generator) for every symmetry."""
    def build(ops, k, h):
        return C.Generator(n=gen.n, ops=list(ops), k=k, h=h)

    def conj(x, u):
        return None if x is None else u.conj().T @ x @ u

    for j in SCALES:
        s = 10.0**j
        yield f"scale 1e{j}", build([np.sqrt(s) * v for v in gen.ops], s * gen.k,
                                    None if gen.h is None else s * gen.h)
    u = haar(rng, gen.n)
    yield "Ad_U", build([conj(v, u) for v in gen.ops], conj(gen.k, u), conj(gen.h, u))
    w = haar(rng, len(gen.ops))
    yield "mix", build(np.tensordot(w, np.array(gen.ops), 1), gen.k, gen.h)
    h = C.hermitian(rng, gen.n)
    h *= dissipative_norm(gen.mat) / np.linalg.norm(h)
    for j in HAMILTONIANS:
        hj = 10.0**j * h
        yield f"ham 1e{j}", build(gen.ops, gen.k + 1j * hj, None if gen.h is None else gen.h + hj)


def specs(gen: C.Generator) -> dict:
    out = {"superop": C.spec_superop(gen.mat), "gkls": C.spec_gkls(gen)}
    if gen.h is not None:
        out["hamiltonian_lindblad"] = C.spec_hamiltonian_lindblad(gen)
    return out


def run(cli, argv: list) -> tuple:
    """``cpsemi <argv>`` in-process: (exit code, report or None)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def answers(cli, gen: C.Generator, command: str, workdir: str) -> dict:
    """What a symmetry must not change, per spec type."""
    result = {}
    for kind, spec in specs(gen).items():
        if command == "verify" and kind != "superop":
            continue
        path = C.write_json(os.path.join(workdir, "gen.json"), spec)
        code, report = run(cli, [command, "--input", path])
        report = report or {}
        if command == "verify":
            checks = report.get("checks", {})
            result[kind] = (code, tuple(sorted(k for k, c in checks.items() if not c["pass"])))
        else:
            result[kind] = (code, report.get("ccp"), report.get("index"), report.get("unital"))
    return result


def corpus(seeds, sizes):
    """Yield (label, generator, rng for its transforms) over the corpus."""
    for seed in seeds:
        for n in sizes:
            for m in sorted({1, 2, n * n - 1}):
                for unital in (True, False):
                    gen = C.make_generator(np.random.default_rng(seed), n, m, unital)
                    label = f"seed {seed} n {n} m {m} {'unital' if unital else 'general'}"
                    yield label, gen, np.random.default_rng([seed, n, m, int(unital)])


def sweep(cli, generators) -> dict:
    """{transform: [changed, total, first change or None]} over the
    (label, generator, rng) of :func:`corpus`, with ``verify ...`` keys for
    the verify runs."""
    rows: dict = {}
    with tempfile.TemporaryDirectory() as workdir:
        for label, gen, rng in generators:
            base = {c: answers(cli, gen, c, workdir) for c in ("analyze", "verify")}
            for name, moved in transforms(gen, rng):
                for command in ("analyze", "verify") if name in VERIFIED else ("analyze",):
                    key = name if command == "analyze" else f"verify {name}"
                    row = rows.setdefault(key, [0, 0, None])
                    row[1] += 1
                    now = answers(cli, moved, command, workdir)
                    diff = [k for k in now if now[k] != base[command][k]]
                    if diff:
                        row[0] += 1
                        k = diff[0]
                        row[2] = row[2] or f"{label} {k}: {base[command][k]} -> {now[k]}"
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", nargs="?", default=ROOT, help="source tree to import cpsemi from")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--sizes", default="2,3,4,8")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.tree), "src")
    sys.path.insert(0, src)
    from cpsemi import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cpsemi imported from {cli.__file__}, not from {src}")
    seeds = [int(x) for x in args.seeds.split(",")]
    sizes = [int(x) for x in args.sizes.split(",")]
    print("# answers: analyze (exit, ccp, index, unital), verify (exit, failed checks)")
    for name, (changed, total, first) in sweep(cli, corpus(seeds, sizes)).items():
        print(f"{name:18} {changed:4} of {total:4}" + (f"   first: {first}" if first else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
