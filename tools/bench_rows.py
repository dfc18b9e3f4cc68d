"""Before/after rows of one or two source trees: in-process and cold CLI
timings and the dense-kernel ledger, written to ``BENCH_<short-commit>.json``
per tree.

    python tools/bench_rows.py [TREE ...] [--out DIR]

Each TREE (default: the checkout this script sits in) is run from its own
``src/``, with one BLAS thread; the inputs are the benchmark corpus's
``make_generator(default_rng(7), n, m, True)`` as ``superop`` specs, built
from ``perfbench/corpus.py`` of this checkout, so two trees answer the same
inputs.  The file is named after TREE's ``git rev-parse --short HEAD``, with
``-dirty`` appended when TREE's ``src/`` differs from that commit.

The rows come in groups (the library rows of one n; the in-process rows of
one (n, rank); the cold rows of one (n, rank)).  Each group of each tree runs
in a child process of its own, and the trees take turns group by group, the
first tree first in even groups and last in odd ones, so that two trees given
together (``PARENT CHANGE``) are timed side by side under the same load of the
host.  A child is this script with ``--group``; it prints its rows as JSON.

* ``in_process``: the ``analyze``, ``decompose``, ``index`` and
  ``covariance`` subcommands, each ``verify`` check alone (``verify
  <check>``) and all five in one ``verify`` call, whose checks share one
  ``Flow`` of L (7 ``expm``; the five calls alone make 8), at n in
  {4, 8, 16} and ranks {2, n^2 / 4, n^2 - 1}, and
  ``analyze`` and ``index`` on ``make_non_ccp`` of the rank-2 generator
  (``ccp`` false, exit 2), each through ``cli.main`` with ``--output`` to a
  temporary file: the best of 3 calls after one warm-up, and the kernel
  counts of one more call (:func:`kernel_ledger`, side n^2).  ``covariance`` reads
  ``make_unit_pair(default_rng(7), rank)``.  ``reread`` is ``analyze`` on the
  tree's own ``decompose --output`` file, an indented ``gkls`` spec.
* ``cold``: ``analyze`` and ``verify`` at n = 16, one subprocess per call,
  best of 5 wall times, with the child's peak RSS (its ``VmHWM``; Linux).
* ``library``: the library's CCP routes, which no CLI call makes, at n in
  {3, 4, 6} on ``make_generator(default_rng(7), n, n, False)`` and
  ``make_hp_map(default_rng(7), n)``: ``block_positivity_witness(mat, 50,
  seed=7)``, ``is_conditionally_cp(mat)`` and
  ``is_completely_positive(evolve(mat, t))`` for t in (0.01, 0.1, 1.0), each
  the best of 20 calls after one warm-up, in microseconds, and the kernel
  counts of one more call.  ``passes`` is the verdict: True where the call
  returns True or the witness search finds no tuple.

:func:`kernel_ledger` is also the spy of ``tests/test_cost.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (4, 8, 16)
COLD_N = 16
LIBRARY_SIZES = (3, 4, 6)
T_GRID = (0.01, 0.1, 1.0)


@contextlib.contextmanager
def kernel_ledger(side: int):
    """Count the dense kernels of ``cpsemi.numerics.KERNELS`` called while the
    block runs, each on a matrix whose last side is at least ``side``, one per
    matrix of a stack: each kernel's module attribute is patched for the block.
    Yields the dict of counts, in the list's order."""
    import numpy as np

    from cpsemi.numerics import KERNELS

    patched = []
    for mod, names in KERNELS.items():
        owner = importlib.import_module(mod)
        patched += [(owner, name, getattr(owner, name)) for name in names]
    counts = dict.fromkeys((name for _, name, _ in patched), 0)

    def spy(name, real):
        def call(a, *args, **kw):
            shape = np.shape(a)
            if shape[-1] >= side:
                counts[name] += int(np.prod(shape[:-2], dtype=int))
            return real(a, *args, **kw)
        return call

    try:
        for owner, name, real in patched:
            setattr(owner, name, spy(name, real))
        yield counts
    finally:
        for owner, name, real in patched:
            setattr(owner, name, real)


def _corpus():
    path = os.path.join(ROOT, "perfbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("bench_rows_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_process(cli, spec: str, out: str, n: int, rank: int, calls) -> list[dict]:
    rows = []
    for name, argv in calls:
        argv = [*argv, "--input", spec, "--output", out]
        cli.main(argv)  # warm-up
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code = cli.main(argv)
            times.append(time.perf_counter() - start)
        with kernel_ledger(n * n) as counts:
            cli.main(argv)
        rows.append({"call": name, "n": n, "rank": rank, "ccp": code != 2, "exit": code,
                     "ms": round(1e3 * min(times), 2), "kernels": dict(counts)})
    return rows


def _calls(cli, units: str | None) -> list[tuple[str, list[str]]]:
    """(row name, argv) of the in-process calls; only ``analyze`` and
    ``index`` when ``units`` is None, for a map that is not CCP."""
    calls = [(c, [c]) for c in ("analyze", "index")]
    if units is None:
        return calls
    calls += [("decompose", ["decompose"]), ("covariance", ["covariance", "--units", units])]
    calls += [(f"verify {c}", ["verify", "--checks", c]) for c in cli._ALL_CHECKS]
    return calls + [("verify", ["verify"])]


# A cold call reports its own peak RSS, the VmHWM of its address space: its
# ru_maxrss would also count the pages it shared with this process before exec.
_COLD = """import sys
from cpsemi.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM")).split()[1], file=sys.stderr)
sys.exit(code)
"""


def _cold(src: str, spec: str, out: str, rank: int) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=src, **{var: "1" for var in THREAD_VARS})
    rows = []
    for name in ("analyze", "verify"):
        cmd = [sys.executable, "-c", _COLD, name, "--input", spec, "--output", out]
        best, rss = float("inf"), 0.0
        for _ in range(5):
            start = time.perf_counter()
            proc = subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True)
            best = min(best, time.perf_counter() - start)
            rss = max(rss, int(proc.stderr.split()[-1]) / 1024.0)  # kB
        rows.append({"call": name, "n": COLD_N, "rank": rank, "exit": proc.returncode,
                     "ms": round(1e3 * best, 1), "peak_rss_mb": round(rss, 1)})
    return rows


def _library(corpus, n: int) -> list[dict]:
    import numpy as np

    from cpsemi import (
        block_positivity_witness, evolve, is_completely_positive, is_conditionally_cp,
    )

    calls = {  # each returns the verdict: True where no witness is found
        "block_positivity_witness": lambda mat: block_positivity_witness(mat, 50, seed=7) is None,
        "is_conditionally_cp": is_conditionally_cp,
    }
    for t in T_GRID:
        calls[f"is_completely_positive(evolve(mat, {t}))"] = (
            lambda mat, t=t: is_completely_positive(evolve(mat, t)))
    rows = []
    maps = {"generator": corpus.make_generator(np.random.default_rng(7), n, n, False).mat,
            "hp map": corpus.make_hp_map(np.random.default_rng(7), n)}
    for kind, mat in maps.items():
        for name, call in calls.items():
            passes = call(mat)  # warm-up
            times = []
            for _ in range(20):
                start = time.perf_counter()
                call(mat)
                times.append(time.perf_counter() - start)
            with kernel_ledger(n * n) as counts:
                call(mat)
            rows.append({"call": name, "n": n, "map": kind, "passes": passes,
                         "us": round(1e6 * min(times), 1), "kernels": dict(counts)})
    return rows


def _commit(tree: str) -> str:
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD").stdout.strip() or "unknown"
    dirty = git("diff", "--quiet", "HEAD", "--", "src").returncode != 0
    return head + ("-dirty" if dirty else "")


def _groups() -> list[list]:
    """The row groups in the order they run: [table, n] or [table, n, rank]."""
    groups = [["library", n] for n in LIBRARY_SIZES]
    for n in SIZES:
        for rank in (2, n * n // 4, n * n - 1):
            groups.append(["in_process", n, rank])
            if n == COLD_N:
                groups.append(["cold", n, rank])
    return groups


def _group(tree: str, group: list) -> list[dict]:
    """The rows of one group for the tree, in this process."""
    src = os.path.join(tree, "src")
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import numpy as np

    import cpsemi.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cpsemi imported from {cli.__file__}, not from {src}")
    corpus = _corpus()
    table, n, *rank = group
    if table == "library":
        return _library(corpus, n)
    rank = rank[0]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        gen = corpus.make_generator(np.random.default_rng(7), n, rank, True)
        spec = corpus.write_json(os.path.join(tmp, "spec.json"), corpus.spec_superop(gen.mat))
        if table == "cold":
            return _cold(src, spec, out, rank)
        pair = corpus.make_unit_pair(np.random.default_rng(7), rank)
        units = corpus.write_json(os.path.join(tmp, "units.json"), pair.to_json())
        rows = _in_process(cli, spec, out, n, rank, _calls(cli, units))
        gkls = os.path.join(tmp, "gkls.json")
        cli.main(["decompose", "--input", spec, "--output", gkls])
        rows += _in_process(cli, gkls, out, n, rank, [("reread", ["analyze"])])
        if rank == 2:
            bad = corpus.make_non_ccp(np.random.default_rng(7), gen.mat)
            spec = corpus.write_json(os.path.join(tmp, "bad.json"), corpus.spec_superop(bad))
            rows += _in_process(cli, spec, out, n, rank, _calls(cli, None))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", default=[ROOT], metavar="TREE")
    ap.add_argument("--out", default=ROOT, help="directory for the BENCH files")
    ap.add_argument("--group", help="run this one group (JSON) of the one TREE, print its rows")
    args = ap.parse_args(argv)
    trees = [os.path.abspath(tree) for tree in args.trees]
    if args.group:
        print(json.dumps(_group(trees[0], json.loads(args.group))))
        return 0
    commits = [_commit(tree) for tree in trees]
    if len(set(commits)) < len(commits):
        raise RuntimeError(f"two trees would write one file: {commits}")
    docs = [{"commit": commit, "python": platform.python_version(), "numpy": version("numpy"),
             "machine": platform.machine(), "cpus": os.cpu_count(), "blas_threads": 1,
             "in_process": [], "cold": [], "library": []} for commit in commits]
    for i, group in enumerate(_groups()):
        for k in range(len(trees))[:: -1 if i % 2 else 1]:
            cmd = [sys.executable, os.path.abspath(__file__), trees[k], "--group", json.dumps(group)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            docs[k][group[0]] += json.loads(proc.stdout.splitlines()[-1])
    for doc in docs:
        path = os.path.join(args.out, f"BENCH_{doc['commit']}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
