"""The three closed-loop workloads: their inputs, operations and output checks.

Each workload is a fixed list of operations whose sizes, ranks and spec types
do not depend on the seed; the seed only draws the matrices.  So every seed
runs the same mix of work, and its expected answers are known from the
construction in :mod:`corpus`, not from the code under test.

An operation's outcome is one of

* ``ok``;
* ``failed``: the program did not answer (exit 3 or 1 where 0 was expected,
  or an exception);
* ``wrong``: the program answered, and the answer is wrong (wrong verdict,
  rank, index or value, exit 0 where 2 was expected, routes that disagree,
  or output that differs from the first call on the same input).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import corpus as C

OK, FAILED, WRONG = "ok", "failed", "wrong"

# |estimate - closed| allowed for `cpsemi covariance` at its defaults t = 1,
# m = 512.  The corpus normalises the dissipative strength (sum v v* ~ 1), for
# which the partition error of the estimator stays below about 2e-2 up to
# full rank at n <= 16; 5e-2 leaves a margin of more than two.
COV_ABS_BOUND = 5e-2

# Times at which exp(tL) must be completely positive in the crosscheck route.
T_GRID = (0.01, 0.1, 1.0)
WITNESS_TUPLES = 50

SPEC_TYPES = ("superop", "gkls", "hamiltonian_lindblad")
VERIFY_CHECKS = ("product_system", "domination", "gauge", "units", "covariance")

# Sizes and rank ladders, sized so that a run of 30 s makes several whole
# passes.  Costs at the seed with one BLAS thread: one n = 16 analyze call
# takes 0.1-1 s; verify's gauge takes ~3.3 s at n = 16 (1.6 GB), and
# product_system ~0.3 s at n = 8, ~5 s at n = 12 and ~34 s at n = 16, so it
# runs at n = 8 only.
ANALYZE_RANKS = {4: (1, 2, 4, 8, 15), 8: (1, 2, 8, 32, 63), 16: (1, 16, 255)}
# (n, rank, unital, checks).  Four generators at n = 8 put the median among
# many similar operations instead of in the gap between two of them.
VERIFY_PLAN = (
    (8, 1, True, VERIFY_CHECKS),
    (8, 2, False, VERIFY_CHECKS),
    (8, 32, True, VERIFY_CHECKS),
    (8, 63, False, VERIFY_CHECKS),
    (12, 2, False, ("domination", "gauge", "units", "covariance")),
    (16, 2, True, ("domination", "gauge", "covariance")),
)
CROSSCHECK_SIZES = (3, 4, 6)
# Per size, five generators (full witness search) and four non-CCP maps (the
# search stops at the first violating tuple, ~20x sooner).  An even split
# would put the median exactly between the two groups.
CROSSCHECK_HP_MAPS = 4

# Operations of a kind that fails at the seed commit for a known reason, the
# tolerance defects of ROADMAP item 2: `covariance` exits 3 ("unit operator
# is not in the step space") on inputs of rank <= 2 or rank = n, and
# `verify --checks units` exits 3 on generators of rank <= 2.  Over seeds
# 1-60 the first failed on n8.r8 and n16.r16 for every seed and on n4.r1 and
# n4.r2 for 1 and 3 seeds; the second on n12.r2 for every seed and on n8.r1
# and n8.r2 for 35 seeds each.  No other `covariance` call and no other
# `verify` check failed on those seeds.  They stay in the corpus but out of the timed
# loop, so that a run's failures do not depend on the seed or on how many
# passes fit in it: each run calls every one of them once, untimed, after its
# measurement and reports the outcomes as `known_defects`.  A wrong answer
# from one of them still makes the run incorrect.
DEFECT_MAX_RANK = 2


def _known_defect_covariance(item) -> bool:
    return item.ccp and (item.rank <= DEFECT_MAX_RANK or item.rank == item.n)


# Self-check mode: the same workloads at n = 2.
SELFCHECK_ANALYZE_RANKS = {2: (1, 2, 3)}
SELFCHECK_VERIFY_PLAN = ((2, 1, True, VERIFY_CHECKS), (2, 3, False, VERIFY_CHECKS))
SELFCHECK_SIZES = (2,)

WORKLOADS = ("analyze", "verify", "crosscheck")


@dataclass
class Op:
    """One closed-loop operation and the check of its result."""

    key: str  # unique per input and call
    n: int
    kind: str  # subcommand, verify check, or "crosscheck"
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    signature: Callable[[object], str]
    warmup: bool = False
    known_defect: bool = False


def cli_call(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cpsemi <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _cli_signature(result) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def _reason(result) -> str:
    code, out, err = result
    msg = err.strip()
    if not msg:
        try:
            doc = json.loads(out)
            msg = doc.get("error") or json.dumps(doc.get("checks", ""), sort_keys=True)
        except ValueError:
            msg = out[:200]
    return f"exit {code}: {msg}"


def _not_answered(result) -> tuple[str, str]:
    """Exit 1 or 3 means the program gave no answer; anything else is wrong."""
    code = result[0]
    return (FAILED if code in (1, 3) else WRONG), _reason(result)


# ---------------------------------------------------------------------------
# analyze: in-process `cpsemi analyze|decompose|index|covariance`


@dataclass
class AnalyzeInput:
    key: str
    n: int
    rank: int  # expected rank = index (0 for non-CCP inputs)
    unital: bool
    ccp: bool
    spec: str
    units: str
    pair: C.UnitPair | None


def _check_analyze(item: AnalyzeInput, cmd: str, result) -> tuple[str, str]:
    code, out, _ = result
    if not item.ccp:
        if code != 2:
            return WRONG, f"exit {code}, expected 2 for a non-CCP input"
        doc = json.loads(out)
        if cmd == "analyze" and doc.get("ccp") is not False:
            return WRONG, "non-CCP input reported as CCP"
        if cmd in ("analyze", "decompose") and not doc.get("witness"):
            return WRONG, "exit 2 without a witness"
        return OK, ""
    if code != 0:
        return _not_answered(result)
    doc = json.loads(out)
    if doc.get("ccp", True) is not True:
        return WRONG, "CCP input reported as not CCP"
    for field in ("rank", "index"):
        if field in doc and doc[field] != item.rank:
            return WRONG, f"{field} {doc[field]}, expected {item.rank}"
    if "kraus" in doc and len(doc["kraus"]) != item.rank:
        return WRONG, f"{len(doc['kraus'])} Kraus operators, expected {item.rank}"
    if "unital" in doc and doc["unital"] != item.unital:
        return WRONG, f"unital {doc['unital']}, expected {item.unital}"
    if doc.get("command") == "covariance":
        closed = complex(*doc["closed"])
        if abs(closed - item.pair.closed) > 1e-12 * (1.0 + abs(item.pair.closed)):
            return WRONG, f"closed {closed}, expected {item.pair.closed}"
        err = abs(complex(*doc["estimate"]) - item.pair.closed)
        if err > COV_ABS_BOUND:
            return WRONG, f"estimate off by {err:.3e} > {COV_ABS_BOUND}"
    return OK, ""


def analyze_inputs(rng: np.random.Generator, workdir: str, ranks_by_n) -> list[AnalyzeInput]:
    items = []
    for j, (n, ranks) in enumerate(ranks_by_n.items()):
        for i, m in enumerate(ranks):
            kind = SPEC_TYPES[(i + j) % 3]
            unital = kind == "hamiltonian_lindblad" or i % 2 == 0
            gen = C.make_generator(rng, n, m, unital)
            if kind == "superop":
                spec = C.spec_superop(gen.mat)
            elif kind == "gkls":
                spec = C.spec_gkls(gen)
            else:
                spec = C.spec_hamiltonian_lindblad(gen)
            key = f"n{n}.r{m}.{kind}.{'unital' if unital else 'nonunital'}"
            pair = C.make_unit_pair(rng, m)
            items.append(AnalyzeInput(
                key=key, n=n, rank=m, unital=unital, ccp=True,
                spec=C.write_json(os.path.join(workdir, key + ".json"), spec),
                units=C.write_json(os.path.join(workdir, key + ".units.json"), pair.to_json()),
                pair=pair,
            ))
        gen = C.make_generator(rng, n, n, unital=False)
        key = f"n{n}.nonccp.superop"
        dummy = C.UnitPair(0j, np.zeros(1), 0j, np.zeros(1))
        items.append(AnalyzeInput(
            key=key, n=n, rank=0, unital=False, ccp=False,
            spec=C.write_json(os.path.join(workdir, key + ".json"),
                              C.spec_superop(C.make_non_ccp(rng, gen.mat))),
            units=C.write_json(os.path.join(workdir, key + ".units.json"), dummy.to_json()),
            pair=None,
        ))
    return items


def analyze_ops(cli, items: list[AnalyzeInput]) -> list[Op]:
    ops = []
    first_of_n = set()
    for item in items:
        warm = item.n not in first_of_n
        first_of_n.add(item.n)
        for cmd in ("analyze", "decompose", "index", "covariance"):
            argv = [cmd, "--input", item.spec]
            if cmd == "covariance":
                argv += ["--units", item.units]
            ops.append(Op(
                key=f"{cmd}.{item.key}", n=item.n, kind=cmd,
                run=lambda argv=argv: cli_call(cli, argv),
                check=lambda r, item=item, cmd=cmd: _check_analyze(item, cmd, r),
                signature=_cli_signature, warmup=warm,
                known_defect=cmd == "covariance" and _known_defect_covariance(item),
            ))
    return ops


# ---------------------------------------------------------------------------
# verify: one in-process `cpsemi verify --checks <c>` per (generator, check)


def _check_verify(result) -> tuple[str, str]:
    code, out, _ = result
    if code != 0:
        return _not_answered(result)
    if json.loads(out).get("pass") is not True:
        return WRONG, "exit 0 without pass"
    return OK, ""


def verify_ops(cli, rng: np.random.Generator, workdir: str, plan) -> list[Op]:
    ops = []
    for idx, (n, m, unital, checks) in enumerate(plan):
        gen = C.make_generator(rng, n, m, unital)
        key = f"n{n}.r{m}.{'unital' if unital else 'nonunital'}"
        spec = C.write_json(os.path.join(workdir, key + ".json"), C.spec_superop(gen.mat))
        seed = str(int(rng.integers(2**31)))
        for check in checks:
            argv = ["verify", "--input", spec, "--checks", check, "--seed", seed]
            ops.append(Op(
                key=f"{check}.{key}", n=n, kind=check,
                run=lambda argv=argv: cli_call(cli, argv),
                check=_check_verify, signature=_cli_signature, warmup=idx == 0,
                known_defect=check == "units" and m <= DEFECT_MAX_RANK,
            ))
    return ops


# ---------------------------------------------------------------------------
# crosscheck: the three CCP routes of the library on one map


def crosscheck_ops(rng: np.random.Generator, sizes) -> list[Op]:
    import cpsemi.semigroup as semigroup
    import cpsemi.superop as superop
    import cpsemi.symbols as symbols

    ops = []
    for n in sizes:
        maps = []
        for i, (m, unital) in enumerate(((1, True), (2, False), (n, False),
                                         (n * n // 2, True), (n * n - 1, True))):
            m = min(m, n * n - 1)
            maps.append((f"n{n}.gen{i}.r{m}.{'unital' if unital else 'nonunital'}",
                         C.make_generator(rng, n, m, unital).mat, True))
        for i in range(CROSSCHECK_HP_MAPS):
            maps.append((f"n{n}.hp{i}", C.make_hp_map(rng, n), False))
        for idx, (key, mat, ccp) in enumerate(maps):
            wseed = int(rng.integers(2**31))

            def run(mat=mat, wseed=wseed):
                r1 = bool(symbols.is_conditionally_cp(mat))
                r2 = all(bool(superop.is_completely_positive(semigroup.evolve(mat, t)))
                         for t in T_GRID)
                wit = symbols.block_positivity_witness(mat, WITNESS_TUPLES, seed=wseed)
                return r1, r2, wit

            def check(result, ccp=ccp):
                r1, r2, wit = result
                verdicts = {"is_conditionally_cp": r1, "exp_cp_on_grid": r2,
                            "no_block_witness": wit is None}
                bad = [name for name, v in verdicts.items() if v != ccp]
                if bad:
                    return WRONG, f"expected ccp={ccp}; disagree: {', '.join(bad)}"
                return OK, ""

            ops.append(Op(key=f"crosscheck.{key}", n=n, kind="crosscheck", run=run,
                          check=check, signature=_crosscheck_signature, warmup=idx == 0))
    return ops


def _crosscheck_signature(result) -> str:
    r1, r2, wit = result
    h = hashlib.sha256(f"{r1}{r2}".encode())
    if wit is not None:
        for arr in (*wit[0], *wit[1]):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def build(workload: str, seed: int, workdir: str, selfcheck: bool = False) -> list[Op]:
    """Generate the seeded inputs of a workload and return its operations."""
    import cpsemi.cli as cli

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "analyze":
        ranks = SELFCHECK_ANALYZE_RANKS if selfcheck else ANALYZE_RANKS
        return analyze_ops(cli, analyze_inputs(rng, workdir, ranks))
    if workload == "verify":
        return verify_ops(cli, rng, workdir, SELFCHECK_VERIFY_PLAN if selfcheck else VERIFY_PLAN)
    return crosscheck_ops(rng, SELFCHECK_SIZES if selfcheck else CROSSCHECK_SIZES)
