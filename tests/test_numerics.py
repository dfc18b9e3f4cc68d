import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import bench_corpus, expm_spy, linalg_spy, random_ccp_generator

from cpsemi import generator, numerics, opspace, semigroup, superop, symbols
from cpsemi.errors import Overflow
from cpsemi.generator import _DOMINATION_TIMES, decompose
from cpsemi.numerics import (
    DEFAULT_TOL,
    Tolerances,
    anchor,
    expm,
    frob,
    is_psd,
    spectrum,
    within,
)
from cpsemi.sampling import random_cp_map, random_matrix
from cpsemi.semigroup import evolve, sample_units, unit_matrix
from cpsemi.superop import (
    Flow,
    _complex_form,
    ad_superop,
    identity_superop,
    superop_to_choi,
)


def test_tolerances_defaults():
    assert DEFAULT_TOL == Tolerances(1e-9)
    tol = DEFAULT_TOL
    assert (tol.eig_cut, tol.psd_slack, tol.residual) == (1e-9, 1e-9, 1e-10)


@pytest.mark.parametrize("x", [1e-3, 1e-9, 2.5e-7, 0.3])
def test_tolerances_derive_three_bounds_from_one_number(x):
    tol = Tolerances(x)
    assert tol.eig_cut == tol.psd_slack == x
    assert tol.residual == x / 10


def test_within_boundary_is_inclusive():
    # value = bound passes and the next float above it fails
    for rel, norms in ((1e-10, (3.7,)), (1e-9, (0.25,)), (1e-9, (2.0, 5.5)), (0.5, ())):
        bound = rel * anchor(*norms)
        assert within(bound, rel, *norms)
        assert not within(np.nextafter(bound, np.inf), rel, *norms)


def test_anchor_floors_at_one_unless_told():
    assert anchor(0.25) == 1.0 and anchor(3.0, 7.0) == 7.0 and anchor() == 1.0
    assert anchor(0.25, floor=0.0) == 0.25
    # floor 0: zero against a zero norm passes, anything above it fails
    assert within(0.0, 1e-10, 0.0, floor=0.0)
    assert not within(5e-324, 1e-10, 0.0, floor=0.0)
    assert within(1e-12, 1e-10, 0.0)


@pytest.mark.parametrize(
    "norms",
    [(np.inf,), (2.0, np.float64(np.inf)), (np.array([1.0, np.inf]),), (np.array([2.0]), np.inf)],
    ids=["inf", "float64-inf", "array", "array-and-inf"],
)
def test_an_infinite_anchor_decides_nothing(norms):
    # value <= rel * inf holds for every value, so no bound is taken against it
    with pytest.raises(Overflow, match="not finite: no verdict"):
        anchor(*norms)
    with pytest.raises(Overflow, match="not finite: no verdict"):
        within(np.inf, 1e-10, *norms)
    assert anchor(np.finfo(float).max) == np.finfo(float).max


def test_within_decides_arrays_elementwise():
    values = np.array([1e-10, 2e-10, 3e-10, 0.0])
    norms = np.array([0.5, 1.0, 2.0, 0.0])
    np.testing.assert_array_equal(anchor(norms), [1.0, 1.0, 2.0, 1.0])
    np.testing.assert_array_equal(within(values, 1e-10, norms), [True, False, False, True])
    np.testing.assert_array_equal(
        within(values, 1e-10, norms, floor=0.0), [False, False, False, True]
    )


def test_within_on_scalars_returns_a_python_bool():
    for value, norm in ((1.0, 2.0), (np.float64(3.0), np.float64(1.0)), (0.0, 0)):
        out = within(value, 1.0, norm)
        assert type(out) is bool
    assert isinstance(anchor(np.float64(2.0)), float)


def test_norms_match_numpy(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob(m) == pytest.approx(np.linalg.norm(m))


def test_spectrum_descending_and_reconstructs(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = (a + a.conj().T) / 2
    w, u, scale = spectrum(h)
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(u @ np.diag(w) @ u.conj().T, h, atol=1e-12)
    assert scale == max(1.0, np.abs(w).max())
    # eigenvalues alone: the same values, no vectors
    wv, uv, scale_v = spectrum(h, vectors=False)
    assert uv is None
    np.testing.assert_allclose(wv, w, atol=1e-12)
    assert scale_v == pytest.approx(scale)


def test_spectrum_decomposes_the_hermitian_part(rng):
    # a pure kernel: no Hermiticity verdict (choi_spectrum makes that one),
    # and no tolerance parameter to pass one positionally
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        spectrum(m).w, np.linalg.eigvalsh((m + m.conj().T) / 2)[::-1], atol=1e-12
    )
    with pytest.raises(TypeError):
        spectrum(m, DEFAULT_TOL)


def test_spectrum_psd_and_kept():
    tol = Tolerances(1e-3)
    s = spectrum(np.diag([4.0, 1e-2, 1e-3, -1e-3]))
    assert s.scale == 4.0
    assert s.psd(tol)  # -1e-3 >= -1e-3 * 4
    assert not spectrum(np.diag([4.0, -1e-2])).psd(tol)
    np.testing.assert_array_equal(s.kept(tol), [True, True, False, False])
    # the scale has a floor of 1
    small = spectrum(np.diag([1e-3, -1e-4]))
    assert small.scale == 1.0
    assert small.psd(Tolerances(1e-4)) and not small.psd(Tolerances(1e-5))
    # the empty matrix is PSD with nothing kept
    empty = spectrum(np.zeros((0, 0)))
    assert empty.psd() and empty.kept().size == 0 and empty.scale == 1.0


def test_spectrum_of_a_stack_decides_each_matrix_like_the_single_call(rng):
    tol = Tolerances(1e-3)
    a = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    mats = np.concatenate([
        a @ a.conj().swapaxes(-1, -2),                  # PSD
        a[:2] + a[:2].conj().swapaxes(-1, -2),          # indefinite
        np.diag([4.0, 1e-2, 1e-3, -1e-3])[None],        # within the slack
        np.diag([1e-3, 1e-3, 0.0, -1e-4])[None],        # under the floor of 1
        np.zeros((1, 4, 4)),                            # all zero
        a[:1],                                          # not Hermitian
    ])
    for vectors in (True, False):
        s = spectrum(mats, vectors=vectors)
        assert s.w.shape == (12, 4) and s.scale.shape == (12,)
        assert (s.u is None) == (not vectors)
        verdicts = s.psd(tol)
        kept = s.kept(tol)
        assert verdicts.dtype == bool and verdicts.shape == (12,)
        for i, m in enumerate(mats):
            one = spectrum(m, vectors=vectors)
            np.testing.assert_allclose(s.w[i], one.w, atol=1e-12)
            assert s.scale[i] == pytest.approx(one.scale)
            assert verdicts[i] == one.psd(tol)
            np.testing.assert_array_equal(kept[i], one.kept(tol))
    assert spectrum(np.zeros((1, 4, 4))).psd().tolist() == [True]
    assert spectrum(np.zeros((3, 2, 2))).scale.tolist() == [1.0, 1.0, 1.0]
    # empty stacks, and stacks of empty matrices
    none = spectrum(np.zeros((0, 3, 3)), vectors=False)
    assert none.w.shape == (0, 3) and none.psd().shape == (0,)
    hollow = spectrum(np.zeros((2, 0, 0)))
    assert hollow.psd().tolist() == [True, True] and hollow.scale.tolist() == [1.0, 1.0]
    assert hollow.kept().shape == (2, 0)


def _psd_decisions(n, seed):
    """The Choi matrices whose PSD verdicts verify's domination and units checks
    take on one corpus generator: every sampled difference of ``dominates``, in
    both orders, and every difference of ``verify_units`` for L and L - 0.5 id."""
    rng = np.random.default_rng(seed)
    mat = bench_corpus().make_generator(rng, n, int(rng.integers(1, n * n)), seed % 2 == 0).mat
    bigger = mat + random_cp_map(rng, n, m=1)
    flows = (Flow(m).grid(_DOMINATION_TIMES) for m in (bigger, mat))
    for p2, p1 in zip(*flows):
        yield superop_to_choi(_complex_form(p2 - p1))
        yield superop_to_choi(_complex_form(p1 - p2))
    units = sample_units(decompose(mat), 2, seed=seed)
    for gen in (mat, mat - 0.5 * identity_superop(n)):
        for t in (0.1, 0.5, 1.0):
            big = evolve(gen, t)
            for u in units:
                alpha = np.vdot(u.v_coords, u.v_coords).real + 2.0 * u.c.real
                yield superop_to_choi(np.exp(alpha * t) * big - ad_superop(unit_matrix(u, t)))


def test_is_psd_decides_every_corpus_decision_as_the_spectrum(monkeypatch):
    eig_calls = linalg_spy(monkeypatch, "eigvalsh")
    verdicts, certified = [], []
    for n in (2, 3, 4, 8):
        for seed in range(6):
            for choi in _psd_decisions(n, seed):
                before = len(eig_calls)
                got = is_psd(choi)
                certified.append(len(eig_calls) == before)
                verdicts.append(spectrum(choi, vectors=False).psd())
                assert got == verdicts[-1], (n, seed, len(verdicts))
    assert len(verdicts) == 24 * (2 * len(_DOMINATION_TIMES) + 2 * 3 * 2)
    # both verdicts and both paths occur; a certified verdict is True
    assert 100 < verdicts.count(True) < len(verdicts) - 100
    assert 100 < certified.count(True) <= verdicts.count(True)
    assert all(v for v, c in zip(verdicts, certified) if c)


def _unitary(rng, k):
    return np.linalg.qr(random_matrix(rng, k))[0]


@pytest.mark.parametrize("k", [4, 16, 64])
@pytest.mark.parametrize("c", [0.5, 0.99, 1.01, 2.0])
def test_is_psd_at_the_slack_bound(monkeypatch, k, c):
    # lowest eigenvalue -c * psd_slack * scale, scale = 10, the largest
    # eigenvalue: on the diagonal (s_lo = scale), or rotated with the
    # eigenvalue 2 into the block [[6, 4], [4, 6]] (s_lo = 6)
    rng = np.random.default_rng(k)
    low = -c * DEFAULT_TOL.psd_slack * 10.0
    for top, s_lo in ((np.array([[10.0]]), 10.0), (np.array([[6.0, 4.0], [4.0, 6.0]]), 6.0)):
        rest = np.concatenate([[low], rng.uniform(0.0, 5.0, k - len(top) - 1)])
        u = _unitary(rng, len(rest))
        h = scipy.linalg.block_diag(top, (u * rest) @ u.conj().T)
        assert np.abs(np.diag(h)).max() == pytest.approx(s_lo)
        s = spectrum(h, vectors=False)
        assert s.scale == pytest.approx(10.0) and s.w[-1] == pytest.approx(low, rel=1e-4)
        eig_calls = linalg_spy(monkeypatch, "eigvalsh")
        assert is_psd(h) == s.psd() == (c < 1)
        # Cholesky certifies exactly the verdicts its shift psd_slack * s_lo covers
        assert (eig_calls == []) == (c * 10.0 < s_lo)
        monkeypatch.undo()


def test_is_psd_falls_back_on_a_matrix_that_is_not_finite(recwarn):
    # numpy's Cholesky "factorises" some matrices with a NaN or an inf: both
    # decisions refuse them before any arithmetic, so with no warning either
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 5)
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (4, 4), (3, 1)):
            m = a @ a.conj().T + np.eye(5)
            m[i, j] = m[j, i] = bad
            for decide in (is_psd, lambda m: spectrum(m, vectors=False).psd()):
                with pytest.raises(Overflow, match="not finite"):
                    decide(m)
    assert not recwarn.list


def test_spectrum_refuses_a_matrix_that_is_not_finite():
    # LAPACK gives a NaN matrix the eigenvalues [-0, 0], or raises LinAlgError
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(Overflow, match="not finite"):
        spectrum(nan, vectors=False).psd()
    with pytest.raises(Overflow, match="not finite"):
        spectrum(np.stack([np.eye(2), nan]))


def test_is_psd_leaves_its_input_alone(rng):
    m = random_matrix(rng, 6)
    before = m.copy()
    is_psd(m)
    is_psd(m.T)
    assert np.array_equal(m, before)


def test_shifted_cholesky_restores_the_diagonal_whatever_it_answers(rng):
    # a success, a failure and a NaN entry each leave h bit for bit as it was
    a = random_matrix(rng, 6)
    h = a @ a.conj().T + np.eye(6)
    low = spectrum(h, vectors=False).w[-1]
    nan = h.copy()
    nan[3, 1] = nan[1, 3] = np.nan
    for m, shift, certified in ((h, -0.5 * low, True), (h, -2.0 * low, False), (nan, 1.0, False)):
        before = m.tobytes()
        assert numerics._shifted_cholesky(m, shift) is certified
        assert m.tobytes() == before


@pytest.mark.parametrize("layout", ["C", "transposed", "strided"])
def test_shifted_cholesky_shifts_any_layout(rng, layout):
    # lowest eigenvalue 1: a shift of -0.9 factorises and -1.1 does not, so a
    # shift lost in a copy of the diagonal (reshape of a non-contiguous array)
    # would certify the second
    u = _unitary(rng, 6)
    h = (u * np.linspace(1.0, 3.0, 6)) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    m = {
        "C": h,
        "transposed": h.conj().T,
        "strided": np.kron(h, np.ones((2, 2)))[::2, ::2],
    }[layout]
    assert m.flags.c_contiguous == (layout == "C")
    before = m.copy()
    assert numerics._shifted_cholesky(m, -0.9)
    assert not numerics._shifted_cholesky(m, -1.1)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("k", [4, 16, 64])
@pytest.mark.parametrize("c", [0.5, 0.9, 1.1, 1.5])
def test_kept_by_margin_at_its_bound(k, c):
    # lowest eigenvalue c * 10 * eig_cut * U, U = anchor(||J||_F): Spectrum's
    # rule keeps every eigenvalue, and the certificate holds where its margin
    # of 10 does
    rng = np.random.default_rng(k)
    rest = rng.uniform(1.0, 5.0, k - 1)
    bound = 10.0 * DEFAULT_TOL.eig_cut * anchor(np.linalg.norm(rest))
    u = _unitary(rng, k)
    j = (u * np.concatenate([rest, [c * bound]])) @ u.conj().T
    j = (j + j.conj().T) / 2.0
    top = anchor(frob(j))
    s = spectrum(j, vectors=False)
    assert top == pytest.approx(bound / (10.0 * DEFAULT_TOL.eig_cut), rel=1e-12)
    assert s.w[-1] == pytest.approx(c * bound, rel=1e-4) and s.kept().all()
    assert numerics._kept_by_margin(j, top, DEFAULT_TOL) == (c > 1)


def test_is_psd_of_the_empty_matrix():
    assert is_psd(np.zeros((0, 0))) and spectrum(np.zeros((0, 0)), vectors=False).psd()


def test_expm_matches_scipy(rng):
    # one Hermitian, one normal (unitary generator), one generic matrix
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cases = [(a + a.conj().T) / 2, 1j * (a + a.conj().T) / 2, a]
    for m in cases:
        np.testing.assert_allclose(expm(m), scipy.linalg.expm(m), atol=1e-11)


def test_expm_zero_is_identity():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_keeps_real_input_real(rng):
    m = rng.normal(size=(9, 9))
    e = expm(m)
    assert e.dtype == np.float64
    np.testing.assert_allclose(e, scipy.linalg.expm(m.astype(complex)).real, rtol=1e-13)
    flow = Flow(random_ccp_generator(rng, 3))
    assert all(p.dtype == np.float64 for p in flow.grid((0.25, 0.5, 0.75)))


UNITS_TIMES = (0.1, 0.5, 1.0)
# The first step, 0.15, is no sample time
UNEVEN_TIMES = (0.1, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("unital", [True, False])
def test_expm_times_matches_per_time_expm(n, unital):
    # Flow.grid, products included, against one expm per time
    mat = random_ccp_generator(np.random.default_rng(100 + n), n, unital=unital)
    grids = (_DOMINATION_TIMES, UNEVEN_TIMES, UNITS_TIMES, (0.0, 0.5, 1.0), (1.0, 0.25, 0.5, 0.75))
    for times in grids:
        flow = Flow(mat)
        got = list(flow.grid(times))
        assert len(got) == len(times)
        for t, p in zip(times, got):
            want = expm(t * flow.real)
            assert frob(p - want) <= 1e-12 * frob(want), (n, unital, times, t)


@pytest.mark.parametrize(
    "times, expm_at",
    [
        # steps 0.15, then 0.25 = an earlier time three times
        (UNEVEN_TIMES, [0.1, 0.25]),
        # step 0.4, then 0.5 = an earlier time
        (UNITS_TIMES, [0.1, 0.5]),
        # steps 0.2 and 0.4: no earlier time
        ((0.1, 0.3, 0.7), [0.1, 0.3, 0.7]),
        # a grid from 0: the first step is 0.5, an earlier time only later
        ((0.0, 0.5, 1.0, 1.5), [0.0, 0.5]),
        # unsorted: steps -0.5 and -0.25, then 0.5 = an earlier time
        ((1.0, 0.5, 0.25, 0.75), [1.0, 0.5, 0.25]),
        # dyadic: steps 0.125, then 0.25 = an earlier time three times
        (_DOMINATION_TIMES, [0.125]),
    ],
)
def test_expm_times_exponentiates_only_unreached_times(monkeypatch, times, expm_at):
    # Flow.grid makes an expm (Flow.at) only where the step is no earlier time
    flow = Flow(random_ccp_generator(np.random.default_rng(3), 2))
    calls = expm_spy(monkeypatch)
    out = list(flow.grid(times))
    assert len(out) == len(times)
    assert len(calls) == len(expm_at)
    for m, t in zip(calls, expm_at):
        assert np.array_equal(m, t * flow.real)


def test_expm_times_is_lazy(monkeypatch):
    # Flow.grid makes nothing, L's real form included, before its first result
    flow = Flow(random_ccp_generator(np.random.default_rng(3), 2))
    calls = expm_spy(monkeypatch)
    gen = flow.grid(UNEVEN_TIMES)
    assert calls == [] and "real" not in vars(flow)
    first = next(gen)
    assert len(calls) == 1
    assert np.array_equal(first, expm(0.1 * flow.real))


def test_flow_results_that_are_kept_are_read_only():
    # every later read of a time returns the one array at made for it
    flow = Flow(random_ccp_generator(np.random.default_rng(3), 2))
    p = flow.at(0.5)
    assert flow.at(0.5) is p and not p.flags.writeable
    with pytest.raises(ValueError):
        p *= 2.0


def test_eigendecompositions_only_in_numerics():
    # every PSD and rank decision reads one Spectrum, or a Cholesky
    # certificate of numerics: no other module eigendecomposes, factorises or
    # takes a rank, and no module takes singular values or an SVD-based solve
    sources = sorted(Path(numerics.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        text = path.read_text()
        assert not re.search(r"svd|lstsq|pinv", text), path.name
        if path.name != "numerics.py":
            assert not re.search(r"\b(eigh|eigvalsh|cholesky|matrix_rank)\b", text), path.name


def _calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_every_cholesky_certificate_is_one_factorisation():
    # is_psd, the full-rank rung and product_system's Choi ranks all reach
    # np.linalg.cholesky through numerics._shifted_cholesky alone
    callers = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls(fn, "cholesky"):
                callers.append((path.name, fn.name))
    assert callers == [("numerics.py", "_shifted_cholesky")]


def test_the_kernel_list_is_every_kernel_the_package_calls():
    # numerics.KERNELS names each numpy.linalg and scipy.linalg attribute the
    # package reads, but norm and LinAlgError, and no module binds a name of
    # those two at import time, where it would escape every spy
    linalg, packages = {"numpy.linalg", "scipy.linalg"}, {"np": "numpy", "scipy": "scipy"}
    read = {}
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                bound = {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
                assert not bound & linalg, (path.name, node.lineno)
            elif isinstance(node, ast.Import):
                assert not [a for a in node.names if a.asname and a.name in linalg], path.name
            elif (isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "linalg"
                  and getattr(node.value.value, "id", None) in packages
                  and node.attr not in ("norm", "LinAlgError")):
                read.setdefault(f"{packages[node.value.value.id]}.linalg", set()).add(node.attr)
    assert read == {mod: set(names) for mod, names in numerics.KERNELS.items()}


def test_a_function_of_one_object_decides_at_its_tolerance():
    # a Flow, GklsForm or MetricOperatorSpace keeps the tolerance it was built
    # with: no function that reads one of them, nor any method of Flow or of
    # the space, takes a tolerance of its own
    owners = {"Flow", "GklsForm", "MetricOperatorSpace"}
    offenders = []
    for module in (superop, symbols, opspace, generator, semigroup):
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn).parameters
            kinds = [getattr(p.annotation, "__name__", p.annotation) for p in params.values()]
            if sum(kind in owners for kind in kinds) == 1 and "tol" in params:
                offenders.append(name)
    for cls in (Flow, opspace.MetricOperatorSpace):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            if name != "__init__" and "tol" in inspect.signature(fn).parameters:
                offenders.append(f"{cls.__name__}.{name}")
    assert offenders == []


def test_hermiticity_is_decided_outside_spectrum():
    # spectrum is a pure kernel: no call in the package hands it a tolerance,
    # and the only NotHermitian raised is hamiltonian_lindblad's (Choi
    # matrices are choi_spectrum's NotCP)
    raisers = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for call in _calls(tree, "spectrum"):
            assert len(call.args) == 1, (path.name, call.lineno)
            assert [k.arg for k in call.keywords] in ([], ["vectors"]), (path.name, call.lineno)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                raisers += [
                    fn.name for node in ast.walk(fn)
                    if isinstance(node, ast.Raise) and _calls(node, "NotHermitian")
                ]
    assert raisers == ["hamiltonian_lindblad"]


def test_superoperator_exponentials_are_taken_in_real_form():
    # numerics.expm is called only by Flow.at and unit_matrix (an n x n
    # operator), and _real_form only inside Flow, whose at exponentiates it
    expm_callers, real_form_callers = set(), set()
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for fn in ast.walk(top):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for call in _calls(fn, "expm"):
                    func = call.func
                    if isinstance(func, ast.Name) or getattr(func.value, "id", None) == "numerics":
                        expm_callers.add(fn.name)
                if _calls(fn, "_real_form"):
                    real_form_callers.add((owner, fn.name))
    assert expm_callers == {"at", "unit_matrix"}
    assert real_form_callers == {("Flow", "real")}


def test_threshold_rule_only_in_numerics():
    # every tolerance decision goes through numerics.within: no module
    # decides closeness with numpy's allclose or isclose, and no other module
    # writes the floor of 1 or multiplies a tolerance into a bound,
    # except the NotCP message of choi_spectrum, which prints the slack
    allowed = {"superop.py": "{tol.psd_slack * s.scale:.3e}"}
    sources = sorted(Path(numerics.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        text = path.read_text()
        assert not re.search(r"\b(allclose|isclose)\b", text), path.name
        if path.name == "numerics.py":
            continue
        if path.name in allowed:
            assert allowed[path.name] in text, path.name
            text = text.replace(allowed[path.name], "")
        assert not re.search(r"max\(1\.0|maximum\(1\.0|\btol\.\w+\s*\*", text), path.name


def test_no_module_imports_gc():
    # the package leaves the cyclic garbage collector alone: no call builds
    # enough containers to start a collection (test_cli's
    # test_a_call_starts_no_collection)
    importers = []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        importers += [
            path.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import) and "gc" in [a.name for a in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
        ]
    assert importers == []
