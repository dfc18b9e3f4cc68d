"""Per-layer tracing by wrapping the package's public functions at run time.

No file of the package is edited.  Each traced function is replaced, in every
``cpsemi`` module namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, operation id).  Patching every binding matters
because the modules use ``from .numerics import expm``: replacing only the
defining module's attribute would miss those calls.  The ``linalg`` layer
wraps the numpy/scipy entry points where the dense kernels run; they are
looked up as module attributes (``np.linalg.eigh``) at call time, so patching
the ``numpy.linalg`` and ``scipy.linalg`` attributes is enough.

Spans stay in memory while the traced pass runs and are summarised (and
written out) at the end.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested in one thread,
so children never overlap.  Self times are reported as shares of the traced
operations' time (``*.self_frac``); the seconds per layer go in the details.

``linalg.<kernel>.work`` is computed from operand shapes, not measured: for
an ``m x k`` operand it adds ``m * k * min(m, k)``, which is ``side**3`` for a
square matrix.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> (module, qualified attribute names).  A name missing from the
# module (renamed or deleted by a later change) is skipped; its metrics then
# read zero calls.
LAYERS = {
    "cli": ("cpsemi.cli", ("main", "load_generator", "load_units")),
    "generator": (
        "cpsemi.generator",
        ("decompose", "dominates", "extract_gauge", "same_generator", "gauge_shift",
         "hamiltonian_lindblad"),
    ),
    "symbols": (
        "cpsemi.symbols",
        ("is_conditionally_cp", "ccp_defect", "projected_choi", "symbols_equal",
         "check_block_positivity", "block_positivity_witness"),
    ),
    "superop": (
        "cpsemi.superop",
        ("superop_to_choi", "choi_to_kraus", "kraus_to_superop", "kraus_to_choi",
         "is_hermiticity_preserving", "is_completely_positive"),
    ),
    "opspace": (
        "cpsemi.opspace",
        ("space_from_cp_map", "space_from_kraus", "MetricOperatorSpace.membership"),
    ),
    "semigroup": (
        "cpsemi.semigroup",
        ("evolve", "space_at", "product_system_check", "verify_unit", "covariance_estimate",
         "covariance_kernel", "gram_dimension", "sample_units"),
    ),
    "numerics": ("cpsemi.numerics", ("expm", "hermitian_eig", "rank_tol", "lstsq")),
    "sampling": ("cpsemi.sampling", ("random_constrained_tuple", "random_cp_map")),
}

LINALG = {
    "numpy.linalg": ("eigh", "eigvalsh", "svd", "lstsq"),
    "scipy.linalg": ("expm", "schur", "null_space"),
}


def _work(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, k = int(shape[-2]), int(shape[-1])
    return m * k * min(m, k)


def _function_names():
    for layer, (_, names) in LAYERS.items():
        for name in names:
            yield layer, f"{layer}.{name}"


def _kernel_names():
    for names in LINALG.values():
        for name in names:
            yield f"linalg.{name}"


def metric_spec() -> list[dict]:
    """The per-layer metrics, in report order, as BENCHMARK.json lists them."""
    out = []
    for _, full in _function_names():
        out.append({"name": f"{full}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{full}.self_frac", "unit": "ratio", "better": "lower"})
    for full in _kernel_names():
        out.append({"name": f"{full}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{full}.self_frac", "unit": "ratio", "better": "lower"})
        out.append({"name": f"{full}.work", "unit": "side3_computed", "better": "lower"})
    for layer in list(LAYERS) + ["linalg"]:
        out.append({"name": f"{layer}.self_frac", "unit": "ratio", "better": "lower"})
    out.append({"name": "generator.decompose.eigh_per_call", "unit": "1/call", "better": "lower"})
    out.append({"name": "symbols.block_positivity_witness.tuples_per_call", "unit": "1/call",
                "better": "lower"})
    out.append({"name": "trace_overhead_frac", "unit": "ratio", "better": "lower"})
    return out


class Tracer:
    """Installs span-recording wrappers; records only while ``op_id`` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, work]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op_id: int | None = None

    def _wrap(self, name: str, fn, with_work: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.op_id, _work(args) if with_work else 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "cpsemi" or k.startswith("cpsemi."))]
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                if "." in name:  # a method: patch the class attribute
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        self._patch(cls, meth, self._wrap(f"{layer}.{name}", vars(cls)[meth], False))
                    continue
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", orig, False)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)
        for modname, names in LINALG.items():
            mod = importlib.import_module(modname)
            for name in names:
                self._patch(mod, name, self._wrap(f"linalg.{name}", getattr(mod, name), True))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self, busy_s: float) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics (all but ``trace_overhead_frac``) from the spans,
        and each layer's self time in seconds.

        Self time is reported as a share of ``busy_s``, the summed time of the
        traced operations: a share is steadier than seconds on a machine whose
        speed drifts, and a function that never ran reads 0 as a share, not as
        a time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        for i, (name, start, end, _, _, w) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            work[name] = work.get(name, 0) + w
        out: dict[str, float] = {}
        layer_s: dict[str, float] = {}
        for layer, full in list(_function_names()) + [("linalg", k) for k in _kernel_names()]:
            out[f"{full}.calls"] = calls.get(full, 0)
            out[f"{full}.self_frac"] = self_s.get(full, 0.0) / busy_s
            if layer == "linalg":
                out[f"{full}.work"] = work.get(full, 0)
            layer_s[layer] = layer_s.get(layer, 0.0) + self_s.get(full, 0.0)
        for layer, value in layer_s.items():
            out[f"{layer}.self_frac"] = value / busy_s
        out["generator.decompose.eigh_per_call"] = self._per_call(
            "generator.decompose", ("linalg.eigh", "linalg.eigvalsh"))
        out["symbols.block_positivity_witness.tuples_per_call"] = self._per_call(
            "symbols.block_positivity_witness", ("sampling.random_constrained_tuple",))
        return out, layer_s

    def _per_call(self, outer: str, inner: tuple[str, ...]) -> float:
        """Spans named in ``inner`` whose nearest ``outer`` ancestor exists,
        per ``outer`` span; 0 when ``outer`` never ran."""
        spans = self.spans
        n_outer = sum(1 for s in spans if s[0] == outer)
        if not n_outer:
            return 0.0
        hits = 0
        for s in spans:
            if s[0] not in inner:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != outer:
                p = spans[p][3]
            hits += p >= 0
        return hits / n_outer

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "work"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
