#!/usr/bin/env python3
"""Benchmark for cpsemi: three closed-loop workloads, each in its own process.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck       # n = 2, one pass, correctness only

Workloads (one client, the next operation starts when the previous returns;
one BLAS thread, see below):

* ``analyze``: in-process ``cpsemi.cli.main`` calls of ``analyze``,
  ``decompose``, ``index`` and ``covariance`` over a seeded corpus at
  n in {4, 8, 16} in all three spec types, ranks 1 .. n^2 - 1, plus one
  non-CCP input per n that must exit 2 with a witness.  The report path:
  JSON parse/emit and ``decompose``.
* ``verify``: one ``cpsemi verify --checks <c>`` call per (generator, check)
  at n in {8, 12, 16}; the brute-force checks and the ``expm`` path.
* ``crosscheck``: library-level, the three CCP routes (projected Choi,
  ``exp(tL)`` on a time grid, block-positivity witness search) on seeded
  maps at n in {3, 4, 6}: half generators, half non-CCP maps.

The inputs are generated during set-up from ``--seed``; the expected answers
are known by construction (see ``corpus.py``), and every output is checked.
A run makes whole passes over its workload's fixed operation list until the
next pass would end after ``--seconds`` (and at least the passes the tail
percentile needs), so every run measures the same mix.  Operations of the
kinds that fail at the seed commit (``Op.known_defect``, see
``workloads.py``) are called once, untimed, after the measurement, and
reported as ``known_defects``.

Last stdout line, ``--trace 0``: ``peak_rss_mb`` and four timings taken at
the reference speed of ``speedref.py``, so that the host's drift between runs
does not show in them: ``setup_s`` (median of three set-ups: imports, corpus
generation and warm-up), ``ops_per_s_ref`` (operations per second at the
workload's mix, from each operation's median time over the passes; the checks
between operations are not counted), ``latency_mid_ms_ref`` (geometric mean of
the 20th to 80th percentile, around the median) and ``latency_tail_ms_ref``
(the same over +-5 points around a fixed percentile per workload with at
least ten samples beyond it).  With ``--trace 1`` the run makes one untraced
and one traced pass and reports the per-layer metrics of ``layertrace.py`` (calls,
self time as a share of the traced pass, computed kernel work, two ratios)
plus ``trace_overhead_frac``.  The line before it carries the details: the
environment, the set-up times and ``ops_per_s``, ``latency_p50_ms`` and
``latency_tail_ms`` as the wall clock read them, the measured speed against
the reference, per-n and per-check medians, the tail percentile and its
sample count, ``fail_frac``, every failed operation with its reason, and the
outcome of each known-defect operation.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads.  At the OpenBLAS default of one
# thread per core (2 on the 2-core machine this was tuned on) a single
# `verify --checks domination` call at n = 8 varied between 92 and 419 ms
# over 15 repeats, against 42-49 ms with one thread, and every workload ran
# slower; timings that noisy cannot resolve a change of a few percent.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speedref  # noqa: E402
import workloads as W  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Tail percentile and the fewest passes that leave at least ten samples
# beyond it: analyze times 56 operations a pass, verify 24, crosscheck 27.
TAIL = {"analyze": (90, 2), "verify": (85, 3), "crosscheck": (90, 4)}
# Half widths, in percentile points, of the bands `_band` averages over for
# the middle (around the median) and the tail metric.
MID_BAND = 30
TAIL_BAND = 5
# The machine-speed reference (speedref.py) is timed after the first
# operation that ends REF_EVERY_S or more after the last reference sample;
# each operation is scaled by the median of the REF_WINDOW samples nearest it.
REF_EVERY_S = 0.1
REF_WINDOW = 8
SETUP_REF_SAMPLES = 5
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="n = 2, one pass of every workload, correctness only")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required unless --selfcheck is given")
    return args


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, else the env setting."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


class Runner:
    """Runs operations, checks each result, and keeps samples and outcomes."""

    def __init__(self, ops):
        self.ops = ops
        self.tracer = None  # a layertrace.Tracer records spans while set
        self.samples = []  # (op index, start, seconds)
        self.speed = None  # (time, speedref seconds) samples, taken while a list
        self._last_speed = -math.inf
        self.failures = {}  # op key -> {"outcome", "reason", "count"}
        self.reference = {}  # op key -> signature of the first output
        self.wrong = 0
        self.failed = 0

    def run(self, i: int, record: bool = True) -> float:
        op = self.ops[i]
        if self.tracer is not None:
            self.tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the op boundary: count it and keep going
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op_id = None
        if error is not None:
            outcome, reason = W.FAILED, error
        else:
            try:
                outcome, reason = op.check(result)
            except (ValueError, KeyError, TypeError) as exc:
                outcome, reason = W.WRONG, f"unreadable output: {type(exc).__name__}: {exc}"
            sig = op.signature(result)
            ref = self.reference.setdefault(op.key, sig)
            if outcome == W.OK and ref != sig:
                outcome, reason = W.WRONG, "output differs from the first call on this input"
        if record:
            self.samples.append((i, t0, dt))
            if outcome != W.OK:
                self.failed += 1
                self.wrong += outcome == W.WRONG
                entry = self.failures.setdefault(
                    op.key, {"outcome": outcome, "reason": reason, "count": 0})
                entry["count"] += 1
        if self.speed is not None and time.perf_counter() - self._last_speed >= REF_EVERY_S:
            t = time.perf_counter()
            self.speed.append((t, speedref.sample()))
            self._last_speed = time.perf_counter()
        return dt

    def run_pass(self) -> float:
        """One pass over every operation; returns the summed operation time."""
        return sum(self.run(i) for i in range(len(self.ops)))


def _setup(workload: str, seed: int, selfcheck: bool = False):
    """Imports, corpus generation and warm-up.

    Returns (runner, defects, setup, workdir): ``runner`` holds the timed
    operations, ``defects`` the known-defect operations, and
    ``setup`` the set-up time and the reference time taken right after it
    (outside the set-up time), as ``[seconds, reference seconds]``.
    """
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import cpsemi.cli  # noqa: F401

    if not os.path.abspath(cpsemi.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"cpsemi imported from {cpsemi.cli.__file__}, not from {SRC}")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ops = W.build(workload, seed, workdir, selfcheck=selfcheck)
    runner = Runner([op for op in ops if not op.known_defect])
    defects = Runner([op for op in ops if op.known_defect])
    for i, op in enumerate(runner.ops):
        if op.warmup:
            runner.run(i, record=False)
    setup_s = time.perf_counter() - _T_START
    ref_s = statistics.median(speedref.sample() for _ in range(SETUP_REF_SAMPLES))
    return runner, defects, [setup_s, ref_s], workdir


def _extra_setups(workload: str, seed: int) -> list[list[float]]:
    """``_setup``'s ``setup`` of fresh processes running only the set-up."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])
    return out


def _percentile(sorted_values, q: float):
    """Nearest-rank q-th percentile and the number of samples beyond it."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def _band(sorted_values, lo_q: float, hi_q: float) -> float:
    """Geometric mean of the samples from the lo_q-th to the hi_q-th
    percentile.  Where a mix of operations leaves a gap between two groups of
    latencies, a single order statistic jumps across the gap from one seed to
    the next; the mean over a band moves smoothly."""
    n = len(sorted_values)
    lo = min(n - 1, math.floor(lo_q / 100.0 * n))
    band = sorted_values[lo:max(lo + 1, math.ceil(hi_q / 100.0 * n))]
    return math.exp(statistics.fmean(math.log(v) for v in band))


def _at_reference_speed(runner) -> list[tuple[int, float]]:
    """(op index, seconds) of each sample at the reference machine's calm
    speed: divided by the median of the REF_WINDOW reference times taken
    nearest to it and multiplied by ``speedref.NOMINAL_S``."""
    times = [t for t, _ in runner.speed]
    out = []
    for i, t0, dt in runner.samples:
        j = bisect.bisect_left(times, t0)
        lo = max(0, min(j - REF_WINDOW // 2, len(times) - REF_WINDOW))
        near = statistics.median(r for _, r in runner.speed[lo:lo + REF_WINDOW])
        out.append((i, dt * speedref.NOMINAL_S / near))
    return out


def _ops_per_s(samples) -> float:
    """Operations per second at the workload's mix, from each operation's
    median time over the passes: their sum is the time of one pass without
    the rare stalls a mean keeps.  The checks between operations are not
    counted."""
    times: dict = {}
    for i, dt in samples:
        times.setdefault(i, []).append(dt)
    return len(times) / sum(statistics.median(v) for v in times.values())


def _medians(runner, field: str) -> dict:
    groups: dict = {}
    for i, _, dt in runner.samples:
        groups.setdefault(getattr(runner.ops[i], field), []).append(dt)
    prefix = "n" if field == "n" else ""
    return {f"latency_p50_ms.{prefix}{k}": 1000.0 * statistics.median(v)
            for k, v in sorted(groups.items())}


def _result_line(runner, defects, metrics: dict) -> dict:
    return {
        "correct": runner.wrong == 0 and defects.wrong == 0,
        "attempted": len(runner.samples),
        "failed": runner.failed,
        "metrics": metrics,
    }


def _detail(args, runner, defects, extra: dict) -> dict:
    """The details line.  ``fail_frac`` counts the timed operations and the
    one call of each known-defect operation together."""
    attempted = len(runner.samples) + len(defects.samples)
    failed = runner.failed + defects.failed
    return {
        "detail": {
            "workload": args.workload,
            "env": _environment(args.seed),
            "fail_frac": failed / attempted if attempted else 0.0,
            "failures": runner.failures,
            "known_defects": {op.key: defects.failures.get(op.key, {"outcome": W.OK})
                              for op in defects.ops},
            **extra,
        }
    }


def _measure(args) -> int:
    runner, defects, setup, workdir = _setup(args.workload, args.seed)
    try:
        tail_q, min_passes = TAIL[args.workload]
        runner.speed = []
        t0 = time.perf_counter()
        passes = 0
        while True:
            runner.run_pass()
            passes += 1
            elapsed = time.perf_counter() - t0
            if passes >= min_passes and elapsed * (passes + 1) / passes > args.seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        defects.run_pass()
        setups = [setup] + _extra_setups(args.workload, args.seed)
        raw = sorted(dt for _, _, dt in runner.samples)
        tail, beyond = _percentile(raw, tail_q)
        ref_samples = _at_reference_speed(runner)
        ref = sorted(dt for _, dt in ref_samples)
        metrics = {
            "setup_s": {"value": statistics.median(s * speedref.NOMINAL_S / r
                                                   for s, r in setups),
                        "unit": "s"},
            "ops_per_s_ref": {"value": _ops_per_s(ref_samples), "unit": "1/s"},
            "latency_mid_ms_ref": {"value": 1000.0 * _band(ref, 50 - MID_BAND, 50 + MID_BAND),
                                   "unit": "ms"},
            "latency_tail_ms_ref": {
                "value": 1000.0 * _band(ref, tail_q - TAIL_BAND, tail_q + TAIL_BAND),
                "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        ref_s = statistics.median(r for _, r in runner.speed)
        detail = _detail(args, runner, defects, {
            "passes": passes,
            "measured_s": elapsed,
            "setup_samples": setups,
            "ops_per_s": _ops_per_s((i, dt) for i, _, dt in runner.samples),
            "latency_p50_ms": 1000.0 * statistics.median(raw),
            "latency_tail_ms": 1000.0 * tail,
            "tail_percentile": tail_q,
            "tail_samples": len(raw),
            "tail_samples_beyond": beyond,
            "reference_s": ref_s,
            "reference_samples": len(runner.speed),
            "speed_vs_nominal": speedref.NOMINAL_S / ref_s,
            "ops_per_pass": len(runner.ops),
            "by_n": _medians(runner, "n"),
            "by_kind": _medians(runner, "kind"),
        })
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(_result_line(runner, defects, metrics)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _measure_traced(args) -> int:
    import layertrace as T

    runner, defects, _, workdir = _setup(args.workload, args.seed)
    ops = runner.ops
    try:
        plain = len(ops) / runner.run_pass()
        tracer = T.Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            busy = runner.run_pass()
        finally:
            runner.tracer = None
            tracer.uninstall()
        traced = len(ops) / busy
        defects.run_pass()
        values, layer_s = tracer.summary(busy)
        values["trace_overhead_frac"] = 1.0 - traced / plain
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in T.metric_spec()}
        print(json.dumps(_detail(args, runner, defects, {
            "ops_per_s_untraced": plain,
            "ops_per_s_traced": traced,
            "traced_busy_s": busy,
            "layer_self_s": layer_s,
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
        }), sort_keys=True))
        print(json.dumps(_result_line(runner, defects, metrics)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _selfcheck(args) -> int:
    """One pass of every workload at n = 2: correctness only, no timing gate."""
    total = {"correct": True, "attempted": 0, "failed": 0}
    for workload in W.WORKLOADS:
        runner, defects, _, workdir = _setup(workload, args.seed, selfcheck=True)
        runners = (runner, defects)
        try:
            for runner in runners:
                runner.run_pass()
                runner.run_pass()  # a repeated call must give byte-identical output
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for runner in runners:
            total["correct"] &= runner.wrong == 0
            total["attempted"] += len(runner.samples)
            total["failed"] += runner.failed
        print(json.dumps({"workload": workload, "failures": runners[0].failures,
                          "known_defects": runners[1].failures}, sort_keys=True))
    print(json.dumps({**total, "metrics": {}}))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cpsemi", "__init__.py")):
        print(f"error: cpsemi sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selfcheck:
        return _selfcheck(args)
    if args.setup_only:
        _, _, setup, workdir = _setup(args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup": setup}))
        return 0
    if args.trace:
        return _measure_traced(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())
