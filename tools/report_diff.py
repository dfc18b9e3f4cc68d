"""Compare the reports of two source trees on one benchmark workload.

    python tools/report_diff.py OLD_TREE NEW_TREE --workload analyze --seed 101

OLD_TREE and NEW_TREE are checkouts of this repository; each is run from its
own ``src/``.  The workload's inputs and operations come from
``perfbench/workloads.py`` of the checkout this script sits in, imported as
it is, so both trees answer the same seeded corpus.  Every operation runs
once per tree, untimed, in a child process with one BLAS thread (as
``perfbench/run.py`` runs them).  A CLI operation's report is its exit code,
stdout and stderr; a ``crosscheck`` operation's is its three route results,
the witness written as ``[re, im]`` pairs.

One line is printed per operation whose exit code or output differs, with
the largest absolute difference between numbers at the same place of the
two JSON outputs and where it sits, then a summary line, then one line per
differing field of the outputs with its largest difference over all
operations (array indices collapsed, as in ``.kraus[][][][]``), then, where
witnesses differ, the smallest |<old, new>| of two unit witnesses, which is 1
when they differ by a phase only.  The exit status is 0 iff nothing differs.
``--selfcheck`` uses the benchmark's n = 2 workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _plain(value):
    """A crosscheck result as JSON data: arrays as nested [re, im] pairs."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    import numpy as np

    a = np.asarray(value, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def dump(tree: str, workload: str, seed: int, selfcheck: bool, out: str) -> None:
    """Run every operation of the workload against ``tree`` and write
    ``{key: [exit code, stdout, stderr]}`` to ``out``."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path[:0] = [src, PERFBENCH]
    import cpsemi

    if not os.path.abspath(cpsemi.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cpsemi imported from {cpsemi.__file__}, not from {src}")
    import workloads

    reports = {}
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.build(workload, seed, workdir, selfcheck):
            try:
                result = op.run()
                if op.kind == "crosscheck":
                    result = (0, json.dumps(_plain(result)), "")
            except Exception as exc:  # report it as the operation's outcome
                result = (None, "", f"{type(exc).__name__}: {exc}")
            reports[op.key] = list(result)
    with open(out, "w") as fh:
        json.dump(reports, fh)


def differences(a, b, where: str = ""):
    """Yield (|x - y|, place) for every place where two JSON values differ:
    the distance of two numbers, and inf where anything else differs or
    their structure does."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            yield math.inf, where or "."
            return
        pairs = [(a[k], b[k], f"{where}.{k}") for k in sorted(a)]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield math.inf, where or "."
            return
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        if _number(a) and _number(b):
            if a != b:
                yield abs(a - b), where
        elif a != b:
            yield math.inf, where
        return
    for x, y, w in pairs:
        yield from differences(x, y, w)


def largest_difference(a, b) -> tuple[float, str]:
    """Largest |x - y| over the numbers at the same place of two JSON
    values, and that place; inf where their structure differs."""
    return max(differences(a, b), key=lambda d: d[0], default=(0.0, ""))


def field_differences(old: dict, new: dict) -> dict[str, float]:
    """Largest difference of each field over all operations' JSON outputs,
    the field being its place with array indices collapsed (``.kraus[][]``)."""
    fields: dict[str, float] = {}
    for key in old:
        if old[key][1] == new[key][1]:
            continue
        try:
            a, b = json.loads(old[key][1]), json.loads(new[key][1])
        except ValueError:  # an output that is not JSON has a line of its own
            continue
        for diff, where in differences(a, b):
            field = re.sub(r"\[\d+\]", "[]", where)
            fields[field] = max(fields.get(field, 0.0), diff)
    return fields


def witness_overlap(old: dict, new: dict) -> float | None:
    """The smallest |<u, v>| over the operations whose JSON outputs carry
    different witnesses u and v; None if none do."""
    overlaps = []
    for key in old:
        if old[key][1] == new[key][1]:
            continue
        try:
            a, b = json.loads(old[key][1]), json.loads(new[key][1])
        except ValueError:
            continue
        if isinstance(a, dict) and isinstance(b, dict) and a.get("witness") != b.get("witness"):
            u, v = ([complex(*pair) for pair in doc.get("witness") or []] for doc in (a, b))
            if len(u) == len(v):
                overlaps.append(abs(sum(x.conjugate() * y for x, y in zip(u, v))))
    return min(overlaps, default=None)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def describe(key: str, old: list, new: list) -> str | None:
    """One line for an operation whose reports differ, else None."""
    if old == new:
        return None
    line = f"{key}: exit {old[0]} -> {new[0]}"
    if old[2] != new[2]:
        line += ", stderr differs"
    if old[1] != new[1]:
        try:
            diff, where = largest_difference(json.loads(old[1]), json.loads(new[1]))
        except ValueError:
            return line + ", stdout differs (not JSON)"
        line += f", max |diff| {diff:.3e} at {where}"
    return line


def _run(tree: str, args, out: str) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", tree,
           "--workload", args.workload, "--seed", str(args.seed), "--out", out]
    if args.selfcheck:
        cmd.append("--selfcheck")
    subprocess.run(cmd, env=env, check=True)
    with open(out) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", metavar="TREE", help="old tree, then new tree")
    ap.add_argument("--workload", choices=("analyze", "verify", "crosscheck"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--selfcheck", action="store_true", help="the n = 2 workloads")
    ap.add_argument("--dump", metavar="TREE", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump, args.workload, args.seed, args.selfcheck, args.out)
        return 0
    if len(args.trees) != 2:
        ap.error("need two source trees")
    with tempfile.TemporaryDirectory() as tmp:
        old, new = (_run(tree, args, os.path.join(tmp, f"{i}.json"))
                    for i, tree in enumerate(args.trees))
    if old.keys() != new.keys():
        raise SystemExit("the two trees built different operation lists")
    lines = [line for key in old if (line := describe(key, old[key], new[key]))]
    for line in lines:
        print(line)
    print(f"{args.workload} seed {args.seed}: {len(lines)} of {len(old)} operations differ")
    for field, diff in sorted(field_differences(old, new).items()):
        print(f"  {field}: max |diff| {diff:.3e}")
    overlap = witness_overlap(old, new)
    if overlap is not None:
        print(f"  witness: min |<old, new>| = 1 - {1.0 - overlap:.3e}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
