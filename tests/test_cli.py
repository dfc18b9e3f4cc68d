import argparse
import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from conftest import (
    SZ,
    bench_corpus,
    dephasing_generator,
    random_ccp_generator,
    transpose_superop,
)

import cpsemi.cli as cli
import cpsemi.generator as generator
from cpsemi import DEFAULT_TOL, Flow, NotCCP, Overflow, ParseError, Tolerances
from cpsemi.cli import _rejection, _write, cmd_analyze, cmd_covariance, decode, encode, main
from cpsemi.generator import decompose, gauge_check, same_generator
from cpsemi.semigroup import covariance_estimate, make_unit


def c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def m2j(m):
    return [[c2j(z) for z in row] for row in np.asarray(m, dtype=complex)]


def superop_doc(mat, n):
    return {"type": "superop", "n": n, "matrix": m2j(mat)}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


@pytest.fixture
def dephasing_file(tmp_path):
    return write(tmp_path, "deph.json", superop_doc(dephasing_generator(), 2))


def test_analyze_dephasing(dephasing_file, capsys):
    rc, out = run(capsys, ["analyze", "--input", dephasing_file])
    assert rc == 0
    rep = json.loads(out)
    assert rep["ccp"] is True
    assert rep["unital"] is True
    assert rep["rank"] == 1
    assert rep["index"] == 1
    assert rep["hermiticity_preserving"] is True
    assert rep["residual"] <= 1e-10


def test_analyze_does_not_import_scipy(dephasing_file, tmp_path):
    # no call imports scipy: the matrix exponential of verify and covariance is numpy's
    script = (
        "import json, sys, cpsemi.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(argv[0], cpsemi.cli.main(argv), 'scipy' in sys.modules)"
    )
    out, units = str(tmp_path / "report.json"), _units_file(tmp_path, 1)
    calls = [[command, "--input", dephasing_file, "--output", out]
             for command in ("analyze", "decompose", "index", "verify")]
    calls.append(["covariance", "--input", dephasing_file, "--units", units, "--output", out])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.split() == [word for call in calls for word in (call[0], "0", "False")], (
        proc.stdout, proc.stderr)


def test_analyze_output_is_byte_stable(dephasing_file, tmp_path, capsys):
    rc1, out1 = run(capsys, ["analyze", "--input", dephasing_file])
    rc2, out2 = run(capsys, ["analyze", "--input", dephasing_file])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_analyze_automorphism_note(tmp_path, capsys):
    h = np.array([[0.4, 0.1], [0.1, -0.4]])
    mat = np.kron(np.eye(2), 1j * h) + np.kron((-1j * h).T, np.eye(2))
    path = write(tmp_path, "auto.json", superop_doc(mat, 2))
    rc, out = run(capsys, ["analyze", "--input", path])
    rep = json.loads(out)
    assert rc == 0
    assert rep["rank"] == 0
    assert rep["index"] == 0
    assert "automorphism" in rep["note"]


def test_analyze_rejects_transpose_with_witness(tmp_path, capsys):
    path = write(tmp_path, "tr.json", superop_doc(transpose_superop(2), 2))
    rc, out = run(capsys, ["analyze", "--input", path])
    assert rc == 2
    rep = json.loads(out)
    assert rep["ccp"] is False
    assert rep["projected_eigenvalue"] == pytest.approx(-1.0)
    assert len(rep["witness"]) == 4


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--input", str(bad)]) == 1
    capsys.readouterr()
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    doc = superop_doc(dephasing_generator(), 2)
    del doc["matrix"]
    assert main(["analyze", "--input", write(tmp_path, "nokey.json", doc)]) == 1
    capsys.readouterr()
    doc = superop_doc(dephasing_generator(), 2)
    doc["n"] = 99
    assert main(["analyze", "--input", write(tmp_path, "bign.json", doc)]) == 1


def test_decompose_round_trip(dephasing_file, tmp_path, capsys):
    out_path = str(tmp_path / "gkls.json")
    rc = main(["decompose", "--input", dephasing_file, "--output", out_path])
    assert rc == 0
    doc = json.loads(open(out_path).read())
    assert doc["type"] == "gkls"
    assert doc["rank"] == 1
    rc2, out2 = run(capsys, ["analyze", "--input", out_path])
    assert rc2 == 0
    rep = json.loads(out2)
    assert rep["rank"] == 1 and rep["unital"] is True
    # re-ingested canonical data describes the same generator
    kraus = [
        np.array([[complex(re, im) for re, im in row] for row in op])
        for op in doc["kraus"]
    ]
    k = np.array([[complex(re, im) for re, im in row] for row in doc["k"]])
    mat2 = sum(np.kron(v.conj(), v) for v in kraus)
    mat2 = mat2 + np.kron(np.eye(2), k) + np.kron(k.conj(), np.eye(2))
    assert same_generator(decompose(dephasing_generator()), decompose(mat2))


@pytest.mark.parametrize("kind", ["superop", "gkls", "hamiltonian_lindblad"])
def test_decompose_output_is_read_flat_as_the_same_generator(kind, tmp_path, monkeypatch, capsys):
    """``decompose --output X``, then ``analyze --input X``, at n = 8: X,
    which is indented, is read flat and gives the input's rank, unitality
    and superoperator."""
    corpus = bench_corpus()
    gen = corpus.make_generator(np.random.default_rng(5), 8, 3, True)
    doc = getattr(corpus, f"spec_{kind}")(gen.mat if kind == "superop" else gen)
    spec, x = write(tmp_path, "spec.json", doc), str(tmp_path / "x.json")
    assert main(["decompose", "--input", spec, "--output", x]) == 0
    rc, out = run(capsys, ["analyze", "--input", spec])
    docs = []
    real = cli._read_flat
    monkeypatch.setattr(cli, "_read_flat", lambda *args: docs.append(real(*args)) or docs[-1])
    rc2, out2 = run(capsys, ["analyze", "--input", x])
    assert rc == rc2 == 0 and docs[-1] is not None
    rep, rep2 = json.loads(out), json.loads(out2)
    assert (rep2["rank"], rep2["unital"]) == (rep["rank"], rep["unital"]) == (3, True)
    mat, mat2 = (cli.load_generator(path, DEFAULT_TOL)[0] for path in (spec, x))
    assert np.linalg.norm(mat2 - mat) <= 1e-12 * np.linalg.norm(mat)


def test_hamiltonian_lindblad_input(tmp_path, capsys):
    doc = {
        "type": "hamiltonian_lindblad",
        "n": 2,
        "h": m2j(np.array([[0.2, 0.0], [0.0, -0.2]])),
        "lindblad": [m2j(SZ)],
    }
    rc, out = run(capsys, ["analyze", "--input", write(tmp_path, "hl.json", doc)])
    assert rc == 0
    rep = json.loads(out)
    assert rep["unital"] is True and rep["rank"] == 1


def test_hamiltonian_lindblad_rejects_non_hermitian(tmp_path, capsys):
    doc = {
        "type": "hamiltonian_lindblad",
        "n": 2,
        "h": m2j(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "lindblad": [m2j(SZ)],
    }
    assert main(["analyze", "--input", write(tmp_path, "hl.json", doc)]) == 1


def test_covariance_command(dephasing_file, tmp_path, capsys):
    units = {
        "units": [
            {"c": [0.0, 0.0], "v": [[1.0, 0.0]]},
            {"c": [0.0, 0.0], "v": [[-1.0, 0.0]]},
        ]
    }
    upath = write(tmp_path, "units.json", units)
    rc, out = run(
        capsys, ["covariance", "--input", dephasing_file, "--units", upath]
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["closed"] == pytest.approx([-1.0, 0.0])
    assert rep["abs_error"] <= 1e-3


def test_covariance_branch_failure_is_exit_3(dephasing_file, tmp_path, capsys):
    units = {
        "units": [
            {"c": [0.0, 0.0], "v": [[0.0, 0.0]]},
            {"c": [0.0, 8 * np.pi], "v": [[0.0, 0.0]]},
        ]
    }
    upath = write(tmp_path, "units.json", units)
    rc = main(
        ["covariance", "--input", dephasing_file, "--units", upath, "--m", "8"]
    )
    assert rc == 3


def test_overflowing_unit_operator_is_a_numerical_limit(dephasing_file, tmp_path, capsys, recwarn):
    # exp(tL) is finite, but T(1) = exp(800) exp(v + k) is not
    units = {
        "units": [
            {"c": [800.0, 0.0], "v": [[1.0, 0.0]]},
            {"c": [0.0, 0.0], "v": [[-1.0, 0.0]]},
        ]
    }
    upath = write(tmp_path, "units.json", units)
    rc, out = run(
        capsys,
        ["covariance", "--input", dephasing_file, "--units", upath, "--t", "1", "--m", "1"],
    )
    assert rc == 3
    assert json.loads(out)["error"] == "matrix exponential overflows: its norm is not finite"
    assert not recwarn.list


def test_covariance_at_a_step_near_the_float_maximum_is_a_numerical_limit(tmp_path, capsys, recwarn):
    # t R has a 1-norm of 6e300, beyond the float maximum times the kernel's smallest
    # theta: exp(t L) is a projection, but its squarings double the roundoff to inf
    spec = write(tmp_path, "deph.json", superop_doc(3.0 * dephasing_generator(), 2))
    upath = write(tmp_path, "units.json", _specs()["units"])
    argv = ["covariance", "--input", spec, "--units", upath, "--t", "1e300", "--m", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "matrix exponential overflows: its norm is not finite"
    assert err == ""
    assert not recwarn.list


def test_covariance_estimate_overflow_is_a_numerical_limit(
    dephasing_file, tmp_path, capsys, recwarn
):
    # t / m = 1e-310 is a positive float, but m / t overflows
    upath = write(tmp_path, "units.json", _specs()["units"])
    argv = ["covariance", "--input", dephasing_file, "--units", upath,
            "--t", "1e-10", "--m", "1" + "0" * 300]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["error"].startswith("covariance estimate overflows") and err == ""
    assert "estimate" not in report and "abs_error" not in report
    assert not recwarn.list


def test_covariance_rejects_wrong_coordinate_count(dephasing_file, tmp_path, capsys):
    units = {
        "units": [
            {"c": [0.0, 0.0], "v": [[1.0, 0.0], [0.0, 0.0]]},
            {"c": [0.0, 0.0], "v": [[1.0, 0.0], [0.0, 0.0]]},
        ]
    }
    upath = write(tmp_path, "units.json", units)
    assert main(["covariance", "--input", dephasing_file, "--units", upath]) == 1


@pytest.mark.parametrize("count", [0, 1, 3])
def test_covariance_needs_exactly_two_units(dephasing_file, tmp_path, count):
    unit = {"c": [0.0, 0.0], "v": [[1.0, 0.0]]}
    upath = write(tmp_path, "units.json", {"units": [unit] * count})
    assert main(["covariance", "--input", dephasing_file, "--units", upath]) == 1


def test_verify_all_checks(dephasing_file, capsys):
    rc, out = run(capsys, ["verify", "--input", dephasing_file])
    assert rc == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert set(rep["checks"]) == {
        "product_system",
        "domination",
        "gauge",
        "units",
        "covariance",
    }
    assert all(entry["pass"] for entry in rep["checks"].values())


def test_verify_gauge_extracts_a_nonzero_shift(tmp_path, monkeypatch, capsys):
    """The gauge check hands extract_gauge the shifted Kraus family itself, so
    the relation it recovers is not the trivial one between two canonical
    forms."""
    mat = random_ccp_generator(np.random.default_rng(3), 3, m=2)
    path = write(tmp_path, "gen.json", superop_doc(mat, 3))
    relations = []
    real = generator.extract_gauge

    def spy(d, ops, k2):
        relations.append(real(d, ops, k2))
        return relations[-1]

    monkeypatch.setattr(generator, "extract_gauge", spy)
    rc, out = run(capsys, ["verify", "--input", path, "--checks", "gauge", "--seed", "5"])
    assert rc == 0
    assert json.loads(out)["seed"] == 5
    assert json.loads(out)["checks"]["gauge"] == {
        "pass": True, "perturbation_detected": True, "shift_same_generator": True,
        "symbols_equal": True,
    }
    (rel,) = relations
    assert np.linalg.norm(rel.v2) > 0.1
    assert rel.residual <= 1e-10


def _rank_one_spec(tmp_path):
    """A corpus generator, n = 3 and rank 1, whose covariance estimate at
    --tol 1e-6 is not the one at the default tolerance, and whose gauge check
    passes at --tol 1e-2."""
    corpus = bench_corpus()
    mat = corpus.make_generator(np.random.default_rng(7), 3, 1, True).mat
    return mat, write(tmp_path, "n3.json", corpus.spec_superop(mat))


def test_covariance_estimates_in_the_flow_at_the_given_tolerance(tmp_path, capsys):
    mat, path = _rank_one_spec(tmp_path)
    units = write(tmp_path, "units.json", {"units": [
        {"c": [0.0, 0.0], "v": [[1.0, 0.0]]}, {"c": [0.0, 1.0], "v": [[1.0, 0.0]]},
    ]})
    rc, out = run(capsys, ["covariance", "--input", path, "--units", units, "--tol", "1e-6"])
    assert rc == 0
    tol = Tolerances(1e-6)
    d = decompose(mat, tol)
    u1, u2 = make_unit(d, 0.0, [1.0]), make_unit(d, 1j, [1.0])
    estimate = covariance_estimate(Flow(mat, tol), u1, u2)
    assert json.loads(out)["estimate"] == encode(estimate).tolist()
    assert estimate != covariance_estimate(Flow(mat), u1, u2)


def test_verify_gauge_checks_the_form_at_the_given_tolerance(tmp_path, monkeypatch, capsys):
    mat, path = _rank_one_spec(tmp_path)
    forms = []
    real = cli.gauge_check

    def spy(d, rng):
        forms.append(d)
        return real(d, rng)

    monkeypatch.setattr(cli, "gauge_check", spy)
    argv = ["verify", "--input", path, "--checks", "gauge", "--tol", "1e-2", "--seed", "1"]
    rc, out = run(capsys, argv)
    assert rc == 0
    tol = Tolerances(1e-2)
    (d,) = forms
    assert d.space.tol == tol
    assert json.loads(out)["checks"]["gauge"] == gauge_check(
        decompose(mat, tol), np.random.default_rng(1)
    )


def _gauge_reproducer(tmp_path):
    """An n = 3, rank 2 generator whose gauge check, at seed 3 and a tolerance
    of 0.5, shifts its family by about three times the family's norm: the
    draw that failed while ``extract_gauge`` fitted the identity as a column
    of its design."""
    corpus = bench_corpus()
    mat = corpus.make_generator(np.random.default_rng(7), 3, 2, True).mat
    return write(tmp_path, "n3.json", corpus.spec_superop(mat))


def test_verify_gauge_reports_families_that_do_not_agree(tmp_path, monkeypatch, capsys):
    """extract_gauge is handed the shifted family with its first operator
    replaced by a traceless one outside E: the families do not agree modulo
    scalars, and the check fails as a verdict."""
    real = generator.extract_gauge

    def outside(d, ops, k2):
        w = np.diag([1.0, -1.0, 0.0]) + 0j
        assert d.space.membership(w) is None
        return real(d, [w, *ops[1:]], k2)

    monkeypatch.setattr(generator, "extract_gauge", outside)
    argv = ["verify", "--input", _gauge_reproducer(tmp_path), "--checks", "gauge"]
    rc, out = run(capsys, [*argv, "--tol", "0.5", "--seed", "3"])
    assert rc == 3
    assert json.loads(out)["checks"]["gauge"] == {
        "pass": False, "perturbation_detected": True, "shift_same_generator": True,
        "symbols_equal": True,
    }
    assert json.loads(out)["pass"] is False


def _weak_jump_doc():
    """Two Choi eigenvalues about 1e-8 of the largest, 20 times the cut."""
    rng = np.random.default_rng(0)
    n, m = 6, 20
    ops = (rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))) / np.sqrt(m * n)
    ops[:2] *= 3e-4
    k = -0.5 * sum(v @ v.conj().T for v in ops)
    return {"type": "gkls", "n": n, "kraus": [m2j(v) for v in ops], "k": m2j(k)}


def test_verify_gauge_passes_with_two_weak_jump_operators(tmp_path, capsys):
    """A shift of unit size lifts the shifted family's Choi scale far above
    the two weak directions; the check must still relate the families."""
    path = write(tmp_path, "weak.json", _weak_jump_doc())
    rc, out = run(capsys, ["verify", "--input", path, "--checks", "gauge", "--seed", "1"])
    assert rc == 0


def test_verify_gauge_shifts_by_the_raw_draw(tmp_path, monkeypatch, capsys):
    """The family handed to extract_gauge is the basis shifted by the seed's
    complex standard normal draw itself, not by a shrunken copy of it."""
    path = write(tmp_path, "weak.json", _weak_jump_doc())
    calls = []
    real = generator.extract_gauge

    def spy(d, ops, k2):
        calls.append((d, ops))
        return real(d, ops, k2)

    monkeypatch.setattr(generator, "extract_gauge", spy)
    rc, _ = run(capsys, ["verify", "--input", path, "--checks", "gauge", "--seed", "1"])
    assert rc == 0
    ((d, ops),) = calls
    rng = np.random.default_rng(1)
    lam = rng.standard_normal(d.space.dim) + 1j * rng.standard_normal(d.space.dim)
    assert d.space.dim == 20
    for v, w, l in zip(d.space.basis, ops, lam):
        np.testing.assert_array_equal(w, v + l * np.eye(d.n))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8, 1e9, 1e10, 1e12])
def test_verify_gauge_passes_at_every_scale(tmp_path, capsys, scale):
    """The drift perturbation is relative to ||L||, so a large generator
    still sees it: a fixed 0.1 went undetected from about 1e9."""
    mat = scale * random_ccp_generator(np.random.default_rng(1), 3, m=2)
    path = write(tmp_path, "gen.json", superop_doc(mat, 3))
    rc, out = run(capsys, ["verify", "--input", path, "--checks", "gauge"])
    assert rc == 0
    assert json.loads(out)["checks"]["gauge"]["perturbation_detected"] is True
    assert json.loads(out)["checks"]["gauge"]["pass"] is True


@pytest.mark.parametrize("check", ["product_system", "units"])
def test_verify_passes_a_generator_of_large_norm(tmp_path, capsys, check):
    """exp(tL) is exponentiated in a Hermitian basis, so its Choi matrix is
    exactly Hermitian; taken directly it carried anti-Hermitian roundoff of
    order eps ||tL|| (2.3e-9 here), and both checks exited 2."""
    mat = 1e8 * bench_corpus().make_generator(np.random.default_rng(3), 3, 2, True).mat
    path = write(tmp_path, "gen.json", superop_doc(mat, 3))
    rc, out = run(capsys, ["verify", "--input", path, "--checks", check])
    assert rc == 0
    assert json.loads(out)["checks"][check]["pass"] is True


def test_verify_covariance_sees_an_offset_kernel(tmp_path, monkeypatch, capsys):
    """A kernel off by one real constant is Hermitian and has the same
    centred Gram matrix; its first column differs from the closed form."""
    mat = random_ccp_generator(np.random.default_rng(3), 3, m=8)
    argv = ["verify", "--input", write(tmp_path, "gen.json", superop_doc(mat, 3)),
            "--checks", "covariance"]
    assert main(argv) == 0
    real = cli.covariance_kernel
    monkeypatch.setattr(cli, "covariance_kernel", lambda d, units: 1.0 + real(d, units))
    capsys.readouterr()
    rc, out = run(capsys, argv)
    assert rc == 3
    assert json.loads(out)["checks"]["covariance"] == {"pass": False}


# Planted defects: each verify check must fail, exit 3, on a semigroup that
# breaks what it tests, at n = 4 rank 2 and at n = 8 rank 63.


@pytest.fixture(params=[(4, 2), (8, 63)], ids=["n4.r2", "n8.r63"])
def corpus_spec(request, tmp_path):
    n, rank = request.param
    mat = bench_corpus().make_generator(np.random.default_rng(7), n, rank, True).mat
    return write(tmp_path, "gen.json", superop_doc(mat, n))


def _fails_once_planted(capsys, spec, check, plant):
    """The check passes on ``spec``, and exits 3 once ``plant()`` has run."""
    argv = ["verify", "--input", spec, "--checks", check]
    assert main(argv) == 0
    capsys.readouterr()
    plant()
    rc, out = run(capsys, argv)
    assert rc == 3
    assert json.loads(out)["checks"][check]["pass"] is False


@pytest.mark.parametrize(
    "factor", [lambda t: 1 + 0.01 * t * t, lambda t: 1 - 0.5 * t * t], ids=["1+0.01t2", "1-0.5t2"]
)
def test_verify_product_system_sees_a_broken_semigroup_law(
    corpus_spec, factor, monkeypatch, capsys
):
    """exp(tL) times a factor of 1 at t = 0 keeps every Choi range, so only the
    law P_s P_t = P_{s+t} sees it; the rank comparison alone passed both."""
    from cpsemi.superop import Flow

    real = Flow.at
    _fails_once_planted(capsys, corpus_spec, "product_system", lambda: monkeypatch.setattr(
        Flow, "at", lambda flow, t: factor(t) * real(flow, t)))


def test_verify_units_sees_an_inflated_unit(corpus_spec, monkeypatch, capsys):
    import cpsemi.semigroup as semigroup

    real = semigroup.unit_matrix
    _fails_once_planted(capsys, corpus_spec, "units", lambda: monkeypatch.setattr(
        semigroup, "unit_matrix", lambda u, t: 1.1 * real(u, t)))


def test_verify_domination_sees_a_deflated_dominating_semigroup(corpus_spec, monkeypatch, capsys):
    """L + C - 0.1 id generates e^(-0.1 t) exp(t (L + C)), which does not
    dominate exp(tL)."""
    real = cli.random_cp_map

    def deflated(rng, n, m=1):
        return real(rng, n, m=m) - 0.1 * np.eye(n * n)

    _fails_once_planted(capsys, corpus_spec, "domination",
                        lambda: monkeypatch.setattr(cli, "random_cp_map", deflated))


def test_verify_gauge_sees_a_perturbed_drift(corpus_spec, monkeypatch, capsys):
    """k2 = k - u - (1/2)|lam|^2 1 with u off by 1e-3 diag(0, 1, ...): the
    shifted presentation no longer builds L."""
    from cpsemi.opspace import MetricOperatorSpace

    real = MetricOperatorSpace.from_coords

    def perturbed(self, coords):
        return real(self, coords) + 1e-3 * np.diag(np.arange(self.n))

    _fails_once_planted(capsys, corpus_spec, "gauge",
                        lambda: monkeypatch.setattr(MetricOperatorSpace, "from_coords", perturbed))


def test_verify_subset_of_checks(dephasing_file, capsys):
    rc, out = run(
        capsys,
        ["verify", "--input", dephasing_file, "--checks", "product_system,gauge"],
    )
    assert rc == 0
    rep = json.loads(out)
    assert set(rep["checks"]) == {"product_system", "gauge"}


def test_index_command_writes_output(dephasing_file, tmp_path, capsys):
    out_path = str(tmp_path / "idx.json")
    rc = main(["index", "--input", dephasing_file, "--output", out_path])
    assert rc == 0
    rep = json.loads(open(out_path).read())
    assert rep["index"] == 1
    assert "dilation" in rep["index_note"]


# ---------------------------------------------------------------------------
# The array codec, malformed input, the shared exit-2 report, goldens


def test_encode_matches_reference_and_decode_inverts(rng):
    mat = dephasing_generator()
    kraus = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    vector = np.array([0.5 - 2j, -0.0 + 0j, complex(0.0, -0.0)])
    odd = np.array([[5e-324 - 0.0j, -2.2250738585072014e-308j], [1e300 + 1e-300j, -0.0]])
    cases = [
        (mat, m2j(mat)),
        (kraus, [m2j(v) for v in kraus]),
        (vector, [c2j(z) for z in vector]),
        (np.complex128(-0.0 + 3j), c2j(-0.0 + 3j)),
        (odd, m2j(odd)),
        (np.zeros((0, 2, 2), dtype=complex), []),
    ]
    for x, ref in cases:
        text = json.dumps(encode(x), sort_keys=True, indent=2, default=np.ndarray.tolist)
        assert text == json.dumps(ref, sort_keys=True, indent=2)
        back = decode(json.loads(text), np.shape(x), "x")
        assert back.shape == np.shape(x)
        assert back.tobytes() == np.asarray(x, dtype=complex).tobytes()
    assert json.dumps(encode(()), default=np.ndarray.tolist) == "[]"


_Z = np.random.default_rng(12).standard_normal((3, 4, 5, 2)).view(complex)[..., 0]


@pytest.mark.parametrize(
    "x, view",
    [(np.complex128(-0.0 + 2j), False), (np.zeros((0, 4), dtype=complex), False), (_Z, True),
     (_Z[1], True), (_Z.swapaxes(0, 2), False), (np.asfortranarray(_Z[0]), False),
     (_Z.real, False), (np.arange(-3, 3).reshape(2, 3), False)],
    ids=["0-d", "empty", "c-order", "c-order-slice", "swapaxes", "f-order", "real", "int"],
)
def test_encode_is_the_stacked_pairs(x, view):
    """``encode`` is the [re, im] pairs stacked, bit for bit, C-contiguous so
    that orjson writes it with no ``default``, and a view of a C-contiguous
    complex input."""
    a = np.asarray(x, dtype=complex)
    got = encode(x)
    assert got.dtype == float and got.flags.c_contiguous
    assert got.shape == a.shape + (2,)
    assert got.tobytes() == np.stack([a.real, a.imag], -1).tobytes()
    assert orjson.dumps(got, option=orjson.OPT_SERIALIZE_NUMPY)
    assert np.shares_memory(got, x) == view


def _first_number(obj):
    """The innermost list that holds the first number of a nested list."""
    while isinstance(obj[0], list):
        obj = obj[0]
    return obj


def _specs():
    return {
        "superop": superop_doc(dephasing_generator(), 2),
        "gkls": {"type": "gkls", "n": 2, "kraus": [m2j(SZ)], "k": m2j(-0.5 * np.eye(2))},
        "hamiltonian_lindblad": {
            "type": "hamiltonian_lindblad", "n": 2, "h": m2j(np.zeros((2, 2))),
            "lindblad": [m2j(SZ)],
        },
        "units": {"units": [{"c": [0.0, 0.0], "v": [[1.0, 0.0]]},
                            {"c": [0.0, 0.0], "v": [[-1.0, 0.0]]}]},
    }


_BAD_NUMBERS = {"nan": float("nan"), "inf": float("inf"), "true": True, "10**400": 10**400}
_FIELDS = [
    ("superop", ("matrix",), "matrix"),
    ("gkls", ("kraus",), "kraus"),
    ("gkls", ("k",), "k"),
    ("hamiltonian_lindblad", ("h",), "h"),
    ("hamiltonian_lindblad", ("lindblad",), "lindblad"),
    ("units", ("units", 0, "c"), "units[0].c"),
    ("units", ("units", 1, "v"), "units[1].v"),
]
_BAD_FLAGS = [
    ["--tol", "-1"], ["--tol", "nan"], ["--tol", "0"], ["--t", "nan"],
    ["--t", "-1"], ["--m", "0"], ["--seed", "-1"],
]


@pytest.mark.parametrize(
    "t, m", [("1", "1" + "0" * 400), ("1e-320", "1000000")], ids=["m-overflows", "step-underflows"]
)
def test_covariance_step_must_be_a_positive_float(t, m, tmp_path, capsys):
    docs = _specs()
    argv = [
        "covariance",
        "--input", write(tmp_path, "gen.json", docs["superop"]),
        "--units", write(tmp_path, "units.json", docs["units"]),
        "--t", t, "--m", m,
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t / --m must be a float > 0")


def _malformed_cases():
    for spec, keys, field in _FIELDS:
        for name, bad in _BAD_NUMBERS.items():
            yield pytest.param(spec, keys, bad, [], field, id=f"{field}={name}")
    for flags in _BAD_FLAGS:
        yield pytest.param(None, (), None, flags, flags[0], id=" ".join(flags))


@pytest.mark.parametrize("spec, keys, bad, flags, field", _malformed_cases())
def test_malformed_numbers_and_flags_are_parse_errors(
    spec, keys, bad, flags, field, tmp_path, capsys
):
    docs = _specs()
    if spec is not None:
        target = docs[spec]
        for key in keys:
            target = target[key]
        _first_number(target)[0] = bad
    gen = docs[spec] if spec in ("gkls", "hamiltonian_lindblad") else docs["superop"]
    # --seed is verify's flag; covariance takes every other flag and both files
    command = "verify" if "--seed" in flags else "covariance"
    argv = [command, "--input", write(tmp_path, "gen.json", gen), *flags]
    if command == "covariance":
        argv += ["--units", write(tmp_path, "units.json", docs["units"])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}")


@pytest.mark.parametrize("command", ["analyze", "decompose", "index", "covariance"])
def test_seed_is_a_usage_error_where_nothing_samples(command, tmp_path, capsys):
    docs = _specs()
    argv = [command, "--input", write(tmp_path, "gen.json", docs["superop"]), "--seed", "1"]
    if command == "covariance":
        argv += ["--units", write(tmp_path, "units.json", docs["units"])]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: cpsemi {command} ")
    assert captured.err.endswith(f"cpsemi {command}: error: unrecognized arguments: --seed 1\n")


@pytest.mark.parametrize("command", ["analyze", "index", "verify"])
@pytest.mark.parametrize("spec, keys, field", _FIELDS[:5], ids=[f for _, _, f in _FIELDS[:5]])
def test_an_entry_at_the_float_maximum_is_one_error_line(
    command, spec, keys, field, tmp_path, capsys
):
    """Each generator array with an entry of the largest float: every norm
    of it overflows, so the call decides nothing and exits 3, with no report
    and, under this suite's RuntimeWarning filter, no floating-point warning
    on stderr before the error line."""
    doc = _specs()[spec]
    target = doc
    for key in keys:
        target = target[key]
    _first_number(target)[0] = 1.7976931348623157e308
    assert main([command, "--input", write(tmp_path, "gen.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]*not finite: no verdict\n", err), err


def _with(matrix, row, col, value):
    matrix = json.loads(json.dumps(matrix))
    if col is None:
        matrix[row] = value(matrix[row])
    else:
        matrix[row][col] = value
    return matrix


_SHAPE_ERROR = "matrix: expected [re, im] pairs nested to shape (4, 4, 2), got "
_DECODE_MESSAGES = {
    "ragged-row": ((1, None, lambda row: row[:3]), _SHAPE_ERROR + "(4,)"),
    "pair-is-a-string": ((2, 3, "ab"), _SHAPE_ERROR + "(4, 4)"),
    "pair-is-an-object": ((0, 1, {"re": 1.0, "im": 0.0}), _SHAPE_ERROR + "(4, 4)"),
    "nested-number": ((3, 0, [1.0, [2.0]]), "matrix: every entry must be a JSON number"),
    "true": ((1, 1, [True, 0.0]), "matrix: every entry must be a JSON number"),
    "int-beyond-floats": ((0, 0, [10**400, 0.0]), "matrix: every entry must be finite"),
}


@pytest.mark.parametrize("edit, message", _DECODE_MESSAGES.values(), ids=_DECODE_MESSAGES)
def test_decode_messages_are_frozen(edit, message, tmp_path):
    doc = superop_doc(dephasing_generator(), 2)
    doc["matrix"] = _with(doc["matrix"], *edit)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert _load_outcome(str(path)) == ("error", message)


def test_an_empty_kraus_stack_is_the_zero_map(tmp_path):
    doc = {"type": "gkls", "n": 2, "kraus": [], "k": m2j(-0.5 * np.eye(2))}
    mat, n = cli.load_generator(write(tmp_path, "gkls.json", doc), DEFAULT_TOL)
    assert n == 2 and np.array_equal(mat, -np.eye(4))
    empty = cli.decode([], (0, 2, 2), "kraus")
    assert empty.shape == (0, 2, 2) and empty.dtype == complex
    doc["k"] = []
    with pytest.raises(ParseError) as info:
        cli.load_generator(write(tmp_path, "k.json", doc), DEFAULT_TOL)
    assert str(info.value) == "k: expected [re, im] pairs nested to shape (2, 2, 2), got (0,)"


@pytest.mark.parametrize("cmd", ["decompose", "index", "covariance", "verify"])
def test_other_subcommands_reject_transpose_with_analyze_report(cmd, tmp_path, capsys):
    path = write(tmp_path, "tr.json", superop_doc(transpose_superop(2), 2))
    argv = [cmd, "--input", path]
    if cmd == "covariance":
        argv += ["--units", write(tmp_path, "units.json", _specs()["units"])]
    rc, out = run(capsys, argv)
    assert rc == 2
    rep = json.loads(out)
    assert rep["command"] == cmd
    assert rep["n"] == 2
    assert rep["ccp"] is False
    assert rep["hermiticity_preserving"] is True
    assert rep["projected_eigenvalue"] == pytest.approx(-1.0)
    assert len(rep["witness"]) == 4
    assert "negative eigenvalue" in rep["error"]


_NOTE = (
    "dimension of the generator's metric operator space; equals the numerical "
    "index of the minimal dilation to a semigroup of *-endomorphisms"
)
_K = [[[-0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
_KRAUS = [[[[1.0, -0.0], [-0.0, 0.0]], [[-0.0, 0.0], [-1.0, 0.0]]]]
# Reports on the dephasing fixture, as the commands printed them before the
# codec was rewritten; the signs of the zeros are part of the check.
_GOLDEN = {
    "analyze": {
        "ccp": True, "command": "analyze", "hermiticity_preserving": True, "index": 1,
        "index_note": _NOTE, "k": _K, "kraus": _KRAUS, "n": 2, "rank": 1,
        "residual": 0.0, "unital": True,
    },
    "decompose": {"k": _K, "kraus": _KRAUS, "n": 2, "rank": 1, "residual": 0.0, "type": "gkls"},
    "index": {"command": "index", "index": 1, "index_note": _NOTE, "n": 2, "rank": 1},
}


@pytest.mark.parametrize("cmd", sorted(_GOLDEN))
def test_dephasing_reports_are_golden(cmd, dephasing_file, capsys):
    rc, out = run(capsys, [cmd, "--input", dephasing_file])
    assert rc == 0
    assert out == json.dumps(_GOLDEN[cmd], sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# The report writer and usage errors


def _written(obj) -> str:
    pieces = []
    _write(obj, pieces.append)
    return "".join(pieces)


_NAN, _INF = float("nan"), float("inf")
# Where float.__repr__ and orjson spell the same digits differently: exponents
# (1e-07 / 1e-7, 1e+16 / 1e16) and fixed notation below 1e-4 (1e-05 / 0.00001).
_SPELLING = [
    1e-4, float(np.nextafter(1e-4, 0)), 1e-5, float(np.nextafter(1e-5, 0)),
    1e16, float(np.nextafter(1e16, 0)), 1e22, -1e-7, 5e-324, -0.0, _NAN, _INF, -_INF,
]
_WRITER_CASES = [
    *_SPELLING, _SPELLING, [_SPELLING[:-3]], {"x": _SPELLING[:4], "y": 1e16},
    {"error": "bound: 1.000e-09", "note": "  1.0e-5 and 0.00001", "k": "1e5"}, "del\x7f",
    -0.0, 5e-324, 1e300, _NAN, _INF, -_INF, 3, True, None, "x",
    [], [[]], {}, [{}], [[], []], [[[]]], {"a": {}, "b": [[], [1.0]]},
    [1.0], [[1.0]], [-0.0, 5e-324, 1e300, -1e-300], [_NAN, _INF, -_INF, 0.0],
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, -0.0]]],
    [[1.0], [2.0, 3.0]], [[1.0, [2.0]], [3.0, 4.0]], [[[1.0]], [2.0]],
    [1.0, 2, True], [[1.0, 2.0], [3, 4.0]], [[False, 1.0]], [np.float64(1.5), 2.0],
    (1.0, 2.0), {"t": ((1.0,), (2.0,))}, [{"a": 1.0}, [1.0, 2.0]],
    {"\u00e9\"q": ["a\"b\\", "\u00fc\u2603", "tab\there", None]}, {"z": 1, "a": 2, "m": [3.0]},
]


@pytest.mark.parametrize("obj", _WRITER_CASES, ids=range(len(_WRITER_CASES)))
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_writer_matches_json_dumps_on_random_arrays():
    rng = np.random.default_rng(11)
    for _ in range(50):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 6)))
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        x[rng.random(shape) < 0.1] = -0.0
        x[rng.random(shape) < 0.05] = np.nan
        x[rng.random(shape) < 0.05] = -np.inf
        obj = {"x": x, "y": [x, 1], "z": [[x]]}
        ref = {"x": x.tolist(), "y": [x.tolist(), 1], "z": [[x.tolist()]]}
        assert _written(obj) == json.dumps(ref, sort_keys=True, indent=2)


_ARRAY_CASES = {
    "empty-pairs": np.zeros((0, 2)),
    "empty-rows": np.zeros((2, 0)),
    "empty-deep": np.zeros((0, 3, 3, 2)),
    "pair": np.array([1.5, -0.0]),
    "depth-1": np.array([-0.0, 5e-324, 1e300, -1e-300]),
    "depth-2": np.array([[1.0], [2.0]]),
    "depth-3": np.arange(12.0).reshape(2, 3, 2),
    "depth-4": np.arange(-8.0, 8.0).reshape(2, 2, 2, 2) / 3.0,
    "nonfinite": np.array([[np.nan, np.inf], [-np.inf, -0.0]]),
    "subnormal": np.array([[5e-324, -5e-324]]),
    "spelling": np.array(_SPELLING),
    "spelling-finite": np.array(_SPELLING[:-3]).reshape(2, 5),
}


@pytest.mark.parametrize("x", _ARRAY_CASES.values(), ids=_ARRAY_CASES.keys())
def test_writer_matches_json_dumps_on_arrays(x):
    for obj in (x, [x], {"a": [1, x], "b": x}):
        assert _written(obj) == json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist)
    assert _written([x]) == json.dumps([x.tolist()], sort_keys=True, indent=2)


def _float_arrays(report, keys):
    for key in keys:
        value = report[key]
        assert isinstance(value, np.ndarray) and value.dtype == float, key


def test_reports_carry_float_arrays(tmp_path):
    mat = random_ccp_generator(np.random.default_rng(5), 3, m=4)
    d = decompose(mat)
    report, _ = cmd_analyze(None, mat, d, DEFAULT_TOL)
    _float_arrays(report, ("k", "kraus"))
    with pytest.raises(NotCCP) as info:
        decompose(transpose_superop(2))
    _float_arrays(_rejection("analyze", 2, info.value), ("witness",))
    units = {"units": [{"c": [0.0, 0.0], "v": [[1.0, 0.0]] * 4},
                       {"c": [0.0, 1.0], "v": [[0.0, 0.0]] * 4}]}
    args = argparse.Namespace(units=write(tmp_path, "units.json", units), t=1.0, m=512)
    report, code = cmd_covariance(args, mat, d, DEFAULT_TOL)
    assert code == 0
    _float_arrays(report, ("closed", "estimate"))


def test_writer_matches_json_dumps_on_analyze_report(tmp_path, capsys):
    mat = random_ccp_generator(np.random.default_rng(5), 4, m=15)
    report, code = cmd_analyze(None, mat, decompose(mat), DEFAULT_TOL)
    assert code == 0 and report["rank"] == 15
    text = json.dumps(report, sort_keys=True, indent=2, default=np.ndarray.tolist)
    assert _written(report) == text
    path = write(tmp_path, "r15.json", superop_doc(mat, 4))
    out_path = tmp_path / "report.json"
    rc, out = run(capsys, ["analyze", "--input", path])
    assert main(["analyze", "--input", path, "--output", str(out_path)]) == rc == 0
    assert out_path.read_bytes() == out.encode()
    assert json.loads(out)["rank"] == 15


def test_reports_never_reach_the_writers_default(tmp_path, monkeypatch):
    """Every array of a report at n = 8, the exit-2 report included, is one
    that orjson writes itself: ``_write`` never calls its ``default``, which
    would build the array's nested lists."""
    corpus = bench_corpus()
    gen = corpus.make_generator(np.random.default_rng(5), 8, 3, True)
    bad = corpus.make_non_ccp(np.random.default_rng(5), gen.mat)
    spec = write(tmp_path, "spec.json", corpus.spec_superop(gen.mat))
    pair = corpus.make_unit_pair(np.random.default_rng(5), 3)
    units = write(tmp_path, "units.json", pair.to_json())
    calls = [
        (["analyze", "--input", spec], 0),
        (["decompose", "--input", spec], 0),
        (["covariance", "--input", spec, "--units", units], 0),
        (["verify", "--input", spec], 0),
        (["analyze", "--input", write(tmp_path, "bad.json", corpus.spec_superop(bad))], 2),
    ]
    dumped, reached = [], []
    real = cli.orjson.dumps

    def dumps(obj, default, option):
        dumped.append(obj)
        return real(obj, default=lambda x: reached.append(type(x)) or default(x), option=option)

    monkeypatch.setattr(cli.orjson, "dumps", dumps)
    for argv, code in calls:
        dumped.clear()
        assert main([*argv, "--output", str(tmp_path / "out.json")]) == code
        assert len(dumped) == 1 and reached == [], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "x.json", "--tol", "abc"],
        ["analyze", "--input", "x.json", "--bogus"],
        ["analyze"],
        ["nosuchcommand"],
    ],
    ids=["tol-abc", "unknown-flag", "missing-input", "unknown-command"],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: cpsemi" in captured.err and "error:" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_unwritable_output_is_exit_1(target, dephasing_file, tmp_path, capsys):
    out = tmp_path / "nonexistent" / "out.json" if target == "missing-dir" else tmp_path
    assert main(["analyze", "--input", dephasing_file, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_a_stdout_reader_that_goes_away_is_exit_1_without_traceback(tmp_path):
    # the n = 8 report (about 290 kB) overflows a 64 KiB pipe buffer, so the
    # write fails after the reader has closed its end
    gen = random_ccp_generator(np.random.default_rng(3), 8, unital=True)
    spec = write(tmp_path, "n8.json", superop_doc(gen, 8))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpsemi.cli", "analyze", "--input", spec],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err.startswith("error: cannot write stdout: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_two_calls_build_the_parser_once(dephasing_file, capsys):
    cli.build_parser.cache_clear()
    assert main(["index", "--input", dephasing_file]) == 0
    assert main(["analyze", "--input", dephasing_file]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_the_shared_parser_keeps_no_state_between_calls(dephasing_file, capsys):
    calls = [
        ["analyze", "--input", dephasing_file, "--tol", "abc"],
        ["verify", "--input", dephasing_file, "--checks", "units", "--seed", "3"],
        ["verify", "--input", dephasing_file],
    ]
    cli.build_parser.cache_clear()
    rounds = [[(_outcome(argv), *capsys.readouterr()) for argv in calls] for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0]] == ["SystemExit(1)", 0, 0]
    assert rounds[0][0][2].startswith("usage: cpsemi analyze")
    assert sorted(json.loads(rounds[0][2][1])["checks"]) == sorted(cli._ALL_CHECKS)


_SWEEP_TOLS = ["1e-300", "1e-15", "1e-9", "1e-3", "0.1", "0.5", "0.9", "1", "10", "1e300"]


def _sweep_argv(rng, specs, units):
    """One random CLI call over ``specs``: a command, a ``--tol``, the
    command's own flags and, now and then, a dropped ``--input``, an unknown
    flag or a repeated one."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    name = pick(sorted(specs))
    command = pick(["analyze", "covariance", "decompose", "index", "verify"])
    argv = [command, "--input", specs[name], "--tol", pick(_SWEEP_TOLS)]
    if command == "verify":
        argv += ["--seed", str(rng.integers(20))]
        checks = [c for c in cli._ALL_CHECKS if rng.random() < 0.5]
        argv += ["--checks", ",".join(checks)] if checks else []
    if command == "covariance":
        argv += ["--units", units[name], "--t", pick(["1e-300", "1e-5", "1", "1e5", "1e300"])]
        argv += ["--m", pick(["1", "512", str(10**300)])]
    edit = rng.random()
    if edit < 0.05:
        del argv[1:3]
    elif edit < 0.1:
        argv.append("--bogus")
    elif edit < 0.15:
        argv += ["--tol", pick(_SWEEP_TOLS)]
    return argv


def test_a_seeded_sweep_of_calls_ends_in_an_exit_code(tmp_path, capsys):
    """150 calls over five specs (README's dephasing example, a rank-2 n = 3
    generator, ``_gauge_reproducer``, a pure
    Hamiltonian, the zero map and the transpose, which is not CCP), every
    command and extreme flag values: each call exits 0-3 with no exception,
    writes a JSON object or nothing to stdout, and at most one error line."""
    h = np.diag([1.0, 0.0, -1.0]) + np.eye(3, k=1) + np.eye(3, k=-1)
    specs = {
        "dephasing": write(tmp_path, "deph.json", superop_doc(dephasing_generator(), 2)),
        "gauge": _gauge_reproducer(tmp_path),
        "hamiltonian": write(tmp_path, "ham.json", {
            "type": "hamiltonian_lindblad", "n": 3, "h": m2j(h), "lindblad": []}),
        "zero": write(tmp_path, "zero.json", superop_doc(np.zeros((4, 4)), 2)),
        "transpose": write(tmp_path, "transpose.json", superop_doc(transpose_superop(2), 2)),
    }
    ranks = {"dephasing": 1, "gauge": 2, "hamiltonian": 0, "zero": 0, "transpose": 3}
    units = {name: _units_file(tmp_path, r, 0.5, f"{name}.units.json") for name, r in ranks.items()}
    rng = np.random.default_rng(25)
    codes = []
    for _ in range(150):
        argv = _sweep_argv(rng, specs, units)
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out, err = capsys.readouterr()
        assert codes[-1] in (0, 1, 2, 3), argv
        assert out == "" or isinstance(json.loads(out), dict), argv
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
    assert set(codes) == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# The cyclic garbage collector: a call builds no Python list per [re, im]
# pair, so it starts no collection, and it leaves the collector as it was


def _units_file(tmp_path, rank, c2=0.0, name="units.json"):
    v = np.eye(1, rank)[0]
    units = {"units": [{"c": [0.0, 0.0], "v": [c2j(z) for z in v]}, {"c": [0.0, c2], "v": [c2j(-z) for z in v]}]}
    return write(tmp_path, name, units)


def test_a_call_starts_no_collection(tmp_path, capsys):
    # a spec's arrays are read flat and a report's arrays are written
    # natively, so no call builds a Python list per [re, im] pair, even at
    # n = 16, rank 255, where the spec holds 65,536 pairs and the decompose
    # output 65,280.  A collection starts when container allocations
    # outnumber deallocations by 700; a warm call, which reuses the parser,
    # stays below that from a fresh count.
    gen = random_ccp_generator(np.random.default_rng(3), 8, m=2, unital=True)
    spec = write(tmp_path, "n8.json", superop_doc(gen, 8))
    corpus = bench_corpus()
    big = corpus.make_generator(np.random.default_rng(7), 16, 255, True)
    big_spec = corpus.write_json(str(tmp_path / "n16.json"), corpus.spec_superop(big.mat))
    gkls, out = str(tmp_path / "gkls.json"), str(tmp_path / "out.json")
    calls = [
        ["analyze", "--input", spec],
        ["covariance", "--input", spec, "--units", _units_file(tmp_path, 2)],
        ["analyze", "--input", big_spec, "--output", out],
        ["decompose", "--input", big_spec, "--output", gkls],
        ["analyze", "--input", gkls, "--output", out],
    ]
    for argv in calls:  # warm-up
        assert main(argv) == 0
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        for argv in calls:
            gc.collect()
            started.clear()
            assert main(argv) == 0
            assert started == [], argv
    finally:
        gc.callbacks.remove(count)


def _outcome(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except RuntimeError:
        return "RuntimeError"


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "case, expected",
    [
        ("analyze", 0),
        ("unreadable-input", 1),
        ("unwritable-output", 1),
        ("usage-error", "SystemExit(1)"),
        ("help", "SystemExit(0)"),
        ("transpose", 2),
        ("covariance-branch", 3),
        ("escaping-exception", "RuntimeError"),
    ],
)
def test_collector_state_is_restored(
    case, expected, enabled, dephasing_file, tmp_path, monkeypatch, capsys
):
    transpose = write(tmp_path, "tr.json", superop_doc(transpose_superop(2), 2))
    branch_units = _units_file(tmp_path, 1, c2=8 * np.pi)
    argv = {
        "unreadable-input": ["analyze", "--input", str(tmp_path / "missing.json")],
        "unwritable-output": ["analyze", "--input", dephasing_file, "--output", str(tmp_path)],
        "usage-error": ["analyze", "--bogus"],
        "help": ["analyze", "--help"],
        "transpose": ["analyze", "--input", transpose],
        "covariance-branch": ["covariance", "--input", dephasing_file, "--units", branch_units, "--m", "8"],
    }.get(case, ["analyze", "--input", dephasing_file])
    if case == "escaping-exception":
        def decompose_fails(mat, tol):
            raise RuntimeError("decompose failed")

        monkeypatch.setattr(cli, "decompose", decompose_fails)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _outcome(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The input reader: orjson for flat number lists, the json module for the
# rest and as the reference


def _reference_read_json(path, arrays=()):
    """The json module on the file opened in text mode: the reference for
    what the reader accepts and for its messages.  It reads no array flat."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc


def _load_outcome(path):
    try:
        mat, n = cli.load_generator(path, DEFAULT_TOL)
    except ParseError as exc:
        return "error", str(exc)
    except Overflow as exc:  # an entry near the float maximum: its norms overflow
        return "overflow", str(exc)
    return "ok", n, mat.shape, mat.tobytes()


def _reference_outcome(path, monkeypatch):
    """``_load_outcome`` with the json module reading the file and the flat
    route declining."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_json", _reference_read_json)
        m.setattr(cli, "_read_flat", lambda *args: None)
        return _load_outcome(path)


def _spec_text(entry="0.0", n="2"):
    """A superop spec whose first matrix entry and whose n are the given
    JSON literals."""
    doc = superop_doc(dephasing_generator(), 2)
    doc["matrix"][0][0][0] = "ENTRY"
    doc["n"] = "N"
    return json.dumps(doc).replace('"ENTRY"', entry).replace('"N"', n)


def _with_text(doc, path, text):
    """The JSON text of ``doc`` with the value at ``path`` spelled ``text``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "HERE"
    return json.dumps(doc).replace('"HERE"', text)


_ENTRY_LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400,
    str(2**64), str(2**64 - 1), str(-(2**63) - 1), str(-(2**63)), str(2**64 + 2048),
    str(2**64 + 2049), str(2**65 + 4096), "123456789012345678901234567890", str(2**53 + 1),
    "-0", "-0.0", "0", "1E5", "1e-5", "1.5E+300", "4.9e-324", "2.4703282292062327e-324",
    "2.2250738585072011e-308", "1e-400", "0.1000000000000000055511151231257827",
    "2.00000000000000011102230246251565404236316680908203125", "9007199254740993.0",
    "1.7976931348623157e308", "1.7976931348623159e308", "true", "null", '"1"', "[]", "-", "01",
]
_N_LITERALS = [
    str(2**64), str(-(2**63) - 1), "1" + "0" * 400, "2.0", "2e0", "-0", "NaN", "16", "17",
    "true",
]
_DOCUMENTS = {
    "bom": b"\xef\xbb\xbf" + _spec_text().encode(),
    "invalid-utf8": _spec_text().replace("superop", "super\x00op").encode().replace(
        b"\x00", b"\xff"),
    "empty": b"",
    "whitespace": b" \r\n\t",
    "top-level-array": b"[1, 2]",
    "top-level-null": b"null",
    "duplicate-n-last-wins": _spec_text().replace('{"type"', '{"n": 99, "type"').encode(),
    "duplicate-n-last-bad": _spec_text()[:-1].encode() + b', "n": 99}',
    "lone-surrogate": _spec_text().replace('"superop"', '"\\ud800"').encode(),
    "paired-surrogates": _spec_text().replace('"superop"', '"\\ud83d\\ude00"').encode(),
    "escaped-key": _spec_text().replace('"type"', '"t\\u0079pe"').encode(),
    "brackets-in-string": _spec_text().replace('"superop"', '"]]]superop[["').encode(),
    "crlf-truncated": b'{\r\n  "type": "superop",\r\n  "n": 2,\r\n',
    "cr-whitespace": _spec_text().replace(", ", ",\r").encode(),
    "crlf-bad-token": b'{\r\n"n":\r\n 2,\r\n "type": bogus}',
    "control-character": _spec_text().replace("superop", "super\x01op").encode(),
    "trailing-comma": _spec_text()[:-1].encode() + b", }",
    "extra-data": _spec_text().encode() + b" {}",
    "leading-zero": _spec_text("01").encode(),
    "deep-matrix": _spec_text("[" * 80 + "1" + "]" * 80).encode(),
}


def _gkls_doc():
    return {"type": "gkls", "n": 2, "kraus": [m2j(SZ), m2j(np.eye(2))], "k": m2j(-np.eye(2))}


_SUPEROP = superop_doc(dephasing_generator(), 2)
_SUPEROP_TEXT = json.dumps(_SUPEROP)
_LARGE = json.dumps(superop_doc(random_ccp_generator(np.random.default_rng(3), 8), 8))
_MATRIX = json.dumps(_SUPEROP["matrix"])
_ROUTE_CASES = {
    "newline-in-array": (_SUPEROP_TEXT.replace(", ", ",\n"), True),
    "tab-in-array": (_SUPEROP_TEXT.replace(", ", ",\t"), True),
    "crlf-in-array": (_SUPEROP_TEXT.replace(", ", ",\r\n"), True),
    "newline-after-a-bracket": (_SUPEROP_TEXT.replace("[", "[\n"), True),
    "space-before-a-bracket": (_SUPEROP_TEXT.replace("]", " ]"), True),
    "indent-2-superop": (json.dumps(_SUPEROP, indent=2), True),
    "indent-2-gkls": (json.dumps(_gkls_doc(), indent=2), True),
    "indent-2-hamiltonian-lindblad": (json.dumps(_specs()["hamiltonian_lindblad"], indent=2), True),
    "pair-[ 1, 2 ]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[ 1, 2 ]"), True),
    "pair-[ ,2]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[ ,2]"), False),
    "pair-[1, ]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1, ]"), False),
    "pair-[1 2 ]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1 2 ]"), False),
    "pair-[- 1, 2]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[- 1, 2]"), False),
    "number-after-a-pair-behind-a-space": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, ] 2, [3, 4], [5, 6], [7, 8]]"), False),
    "number-before-a-pair-behind-a-space": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, 2], 3 [ , 4], [5, 6], [7, 8]]"), False),
    "numbers-joined-across-a-bracket-and-a-space": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, 2] 3, [4, 5], [6, 7], [8, 9]]"), False),
    "pair-[1,,2]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1,,2]"), False),
    "pair-[1 2]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1 2]"), False),
    "pair-[1,]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1,]"), False),
    "pair-[1,2,3]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[1,2,3]"), False),
    "pair-[[1],2]": (_with_text(_SUPEROP, ("matrix", 0, 0), "[[1],2]"), False),
    "number-after-a-pair": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, ]2, [3, 4], [5, 6], [7, 8]]"), False),
    "number-before-a-pair": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, 2], 3[, 4], [5, 6], [7, 8]]"), False),
    "numbers-joined-across-a-bracket": (
        _with_text(_SUPEROP, ("matrix", 0), "[[1, 2]3, [4, 5], [6, 7], [8, 9]]"), False),
    "ragged-rows-of-one-skeleton-length": (
        _with_text(_SUPEROP, ("matrix", 1), "[[1, 2, 3], [4], [5, 6], [7, 8]]"), False),
    "duplicate-matrix-last-not-numeric": (_SUPEROP_TEXT[:-1] + ', "matrix": "x"}', False),
    "duplicate-matrix-both-numeric": (
        _SUPEROP_TEXT[:-1] + ', "matrix": ' + _MATRIX.replace("-2.0", "-3.0") + "}", False),
    "duplicate-matrix-first-not-numeric": ('{"matrix": "x", ' + _SUPEROP_TEXT[1:], True),
    "syntax-error-after-a-large-matrix": (_LARGE[:-1] + ', "x": bogus}', False),
    "bad-token-under-an-unknown-key": (_SUPEROP_TEXT[:-1] + ', "x": [[1, 01]]}', False),
    "numeric-array-under-an-unknown-key": (_SUPEROP_TEXT[:-1] + ', "x": [[1, 2]]}', True),
    "numeric-array-below-the-top-level": (
        _SUPEROP_TEXT[:-1] + ', "o": {"matrix": ' + _MATRIX + ', "y": 1}}', False),
    "non-ascii-key": (_SUPEROP_TEXT[:-1] + ', "clé": 1}', True),
    "nan-beside-the-arrays": (_SUPEROP_TEXT[:-1] + ', "note": NaN}', True),
    "-infinity-beside-the-arrays": (_SUPEROP_TEXT[:-1] + ', "note": -Infinity}', True),
    "bom-leaves-the-flat-route": ("\ufeff" + _SUPEROP_TEXT, False),
    "empty-kraus-stack": (json.dumps({**_gkls_doc(), "kraus": []}), True),
    "ragged-kraus-stack": (
        json.dumps({**_gkls_doc(), "kraus": [m2j(SZ), m2j(np.eye(2))[:1]]}), True),
    "kraus-of-wrong-size": (json.dumps({**_gkls_doc(), "kraus": [m2j(np.eye(3))]}), True),
    "hamiltonian-lindblad": (json.dumps(_specs()["hamiltonian_lindblad"]), True),
}
_READER_CASES = (  # (text, whether the flat route reads it, or None: either)
    [pytest.param(_spec_text(lit).encode(), None, id=f"entry={lit[:24]}")
     for lit in _ENTRY_LITERALS]
    + [pytest.param(_spec_text(n=lit).encode(), None, id=f"n={lit[:24]}") for lit in _N_LITERALS]
    + [pytest.param(raw, None, id=name) for name, raw in _DOCUMENTS.items()]
    + [pytest.param(text.encode(), flat, id=name) for name, (text, flat) in _ROUTE_CASES.items()]
)


def _flat_outcome(path, monkeypatch):
    """``_load_outcome`` and whether the flat route read the file."""
    docs = [None]
    real = cli._read_flat
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_flat", lambda *args: docs.append(real(*args)) or docs[-1])
        return _load_outcome(path), docs[-1] is not None


@pytest.mark.parametrize("raw, flat", _READER_CASES)
def test_reader_matches_the_json_module(raw, flat, tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    got, read_flat = _flat_outcome(str(path), monkeypatch)
    assert flat is None or read_flat == flat
    assert got == _reference_outcome(str(path), monkeypatch)


_SWEEP_BYTES = b'[]{},:" \t\n\r-+.eE0123456789tfnNI\\ax\xc3\xff'


def test_single_byte_edits_read_like_the_json_module(tmp_path, monkeypatch):
    """Each spec type at n = 2 and 3, and the n = 3 ``gkls`` spec indented,
    with one byte replaced, inserted or deleted at a random place: the reader
    gives the reference's matrix or its message."""
    rng = np.random.default_rng(30)
    docs = []
    for n in (2, 3):
        gen = random_ccp_generator(rng, n, 2)
        dec = decompose(gen, DEFAULT_TOL)
        ops = [m2j(v) for v in dec.space.basis]
        docs += [superop_doc(gen, n), {"type": "gkls", "n": n, "kraus": ops, "k": m2j(dec.k)},
                 {"type": "hamiltonian_lindblad", "n": n, "h": m2j(np.eye(n)), "lindblad": ops}]
    texts = [json.dumps(doc) for doc in docs] + [json.dumps(docs[-2], indent=2)]
    path = tmp_path / "spec.json"
    routes = []
    for text in texts:
        raw = text.encode()
        for _ in range(150):
            at = int(rng.integers(len(raw)))
            byte = _SWEEP_BYTES[int(rng.integers(len(_SWEEP_BYTES)))].to_bytes(1, "big")
            edit = int(rng.integers(3))  # replace, insert, delete
            path.write_bytes(raw[:at] + (byte if edit < 2 else b"") + raw[at + (edit != 1):])
            got, flat = _flat_outcome(str(path), monkeypatch)
            assert got == _reference_outcome(str(path), monkeypatch), path.read_bytes()
            routes.append(flat)
    assert 100 < sum(routes) < len(routes) - 100  # both routes are taken often


def test_reader_rounds_numbers_like_the_json_module(tmp_path):
    """The flat route reads 6,000 number literals as a vector of [re, im]
    pairs, bit for bit as the json module reads them."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    literals = [repr(x) for x in bits[np.isfinite(bits)].tolist()]
    for _ in range(1500):  # 27 significant digits, subnormal to near overflow
        digits = "".join(map(str, rng.integers(0, 10, size=27)))
        literals.append(f"{'-' if rng.random() < 0.5 else ''}{digits[0]}.{digits[1:]}"
                        f"e{int(rng.integers(-330, 308))}")
    for _ in range(500):  # integers, most beyond 64 bits
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 300)))))
        literals.append(digits.lstrip("0") or "0")
    literals += ["0"] * (len(literals) % 2)
    pairs = ", ".join(f"[{re}, {im}]" for re, im in zip(literals[::2], literals[1::2]))
    path = tmp_path / "numbers.json"
    path.write_text('{"h": [' + pairs + "]}")
    got = cli._read_json(str(path), (b"h",))["h"]
    ref = _reference_read_json(str(path))["h"]
    assert isinstance(got, np.ndarray) and got.shape == (len(literals) // 2, 2)
    assert got.tobytes() == np.array(ref, dtype=float).tobytes()


def test_well_formed_specs_never_reach_the_json_module(tmp_path, monkeypatch):
    """Well-formed specs never take the json module's route: it parses only
    their rest, which holds no array, and every array of those at n = 8 of
    each type reaches ``decode`` as a float array.  A units file, whose value
    holds objects, is read by one call of ``_parse``, as lists."""
    calls, parsed = [], []
    real, real_parse = json.loads, cli._parse

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def parse_spy(path, raw):
        parsed.append(path)
        return real_parse(path, raw)

    good = tmp_path / "good.json"
    good.write_text(_spec_text())
    nan = tmp_path / "nan.json"
    nan.write_text(_spec_text("NaN"))
    corpus = bench_corpus()
    gen = corpus.make_generator(np.random.default_rng(5), 8, 3, True)
    specs = [write(tmp_path, f"{i}.json", doc) for i, doc in enumerate(
        [corpus.spec_superop(gen.mat), corpus.spec_gkls(gen), corpus.spec_hamiltonian_lindblad(gen)])]
    pair = corpus.make_unit_pair(np.random.default_rng(5), 3)
    units = write(tmp_path, "units.json", pair.to_json())
    seen = []
    real_decode = cli.decode

    def decode_spy(obj, shape, what):
        seen.append((what, type(obj)))
        return real_decode(obj, shape, what)

    monkeypatch.setattr(cli.json, "loads", spy)
    monkeypatch.setattr(cli, "_parse", parse_spy)
    mat, n = cli.load_generator(str(good), DEFAULT_TOL)
    assert n == 2 and mat.tobytes() == dephasing_generator().tobytes()
    monkeypatch.setattr(cli, "decode", decode_spy)
    for path in specs:
        mat, n = cli.load_generator(path, DEFAULT_TOL)
        assert n == 8 and np.allclose(mat, gen.mat, rtol=0, atol=1e-12)
    assert seen == [(what, np.ndarray) for what in ("matrix", "kraus", "k", "h", "lindblad")]
    assert parsed == [] and len(calls) == 4
    assert not any("[" in text for text, in calls)
    seen.clear()
    u1, u2 = cli.load_units(units, decompose(gen.mat, DEFAULT_TOL))
    assert [kind for _, kind in seen] == [list] * 4
    assert u1.v_coords.tobytes() == pair.v1.astype(complex).tobytes()
    assert (u1.c, u2.c) == (pair.c1, pair.c2)
    assert parsed == [units]
    with pytest.raises(ParseError, match="^matrix: every entry must be finite$"):
        cli.load_generator(str(nan), DEFAULT_TOL)
    assert parsed == [units, str(nan)]


def test_orjson_parses_flat_number_lists_only(tmp_path, monkeypatch):
    """Every text orjson parses while the three spec types at n = 2, 8 and 16
    and the indented ``decompose`` output at n = 8 are read is one flat list:
    a ``[``, then no bracket or brace until the closing ``]``."""
    corpus = bench_corpus()
    specs = []
    for n in (2, 8, 16):
        gen = corpus.make_generator(np.random.default_rng(n), n, 2, True)
        docs = [corpus.spec_superop(gen.mat), corpus.spec_gkls(gen),
                corpus.spec_hamiltonian_lindblad(gen)]
        specs += [(write(tmp_path, f"{i}-{n}.json", doc), n, gen.mat) for i, doc in enumerate(docs)]
    out = str(tmp_path / "decomposed.json")
    assert main(["decompose", "--input", specs[3][0], "--output", out]) == 0
    specs.append((out, 8, specs[3][2]))
    texts = []
    real = orjson.loads
    monkeypatch.setattr(cli.orjson, "loads", lambda text: texts.append(bytes(text)) or real(text))
    for path, n, want in specs:
        mat, got_n = cli.load_generator(path, DEFAULT_TOL)
        assert got_n == n and np.allclose(mat, want, rtol=0, atol=1e-12)
    assert len(texts) == 3 * 5 + 2  # one per array: every one was read flat
    for text in texts:
        assert text[:1] == b"[" and text[-1:] == b"]"
        assert text[1:-1].translate(None, b"[]{}") == text[1:-1]


_EXTRA_KEYS = ['"note": NaN', '"big": 123456789012345678901234567890', '"n": 2', '"n": 3',
               '"s": "]][[{,}"', '"k": "]["']
_NUMBER = r"-?\d[\d.eE+-]*"


def _mutated(text, rng):
    """``text`` with one random edit of a kind that hand-written specs show."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    kind = int(rng.integers(5))
    if kind == 0:  # whitespace after some commas
        ws = pick([" ", "\t", "\r\n"])
        return re.sub(", ", lambda m: "," + ws if rng.random() < 0.3 else m[0], text)
    if kind == 1:  # a pair with one or three entries
        m = pick(list(re.finditer(rf"\[({_NUMBER}),\s*({_NUMBER})\]", text)))
        pair = f"[{m[1]}]" if rng.random() < 0.5 else f"[{m[1]}, {m[2]}, 0.5]"
        return text[: m.start()] + pair + text[m.end() :]
    if kind == 2:  # whitespace just inside a bracket
        m = pick(list(re.finditer(r"[\[\]]", text)))
        at = m.end() if m[0] == "[" else m.start()
        return text[:at] + pick([" ", "\t", "\n", "\r\n"]) + text[at:]
    if kind == 3:  # an entry, or n, spelled by another literal
        m = pick(list(re.finditer(_NUMBER, text)))
        return text[: m.start()] + pick(_ENTRY_LITERALS) + text[m.end() :]
    return text[:-1] + ", " + pick(_EXTRA_KEYS) + "}"  # an extra top-level key


@pytest.mark.parametrize("kind", ["superop", "gkls", "hamiltonian_lindblad"])
def test_mutated_specs_read_like_the_json_module(kind, tmp_path, monkeypatch):
    """170 specs of each type at n = 2, each with one to three random edits
    (whitespace, pairs of the wrong length, odd literals, extra keys): the
    reader gives the reference's matrix or its message."""
    rng = np.random.default_rng(34)
    gen = random_ccp_generator(rng, 2, 2)
    dec = decompose(gen, DEFAULT_TOL)
    ops = [m2j(v) for v in dec.space.basis]
    text = json.dumps({
        "superop": superop_doc(gen, 2),
        "gkls": {"type": "gkls", "n": 2, "kraus": ops, "k": m2j(dec.k)},
        "hamiltonian_lindblad": {"type": "hamiltonian_lindblad", "n": 2,
                                 "h": m2j(np.diag([1.0, -1.0])), "lindblad": ops},
    }[kind])
    path = tmp_path / "spec.json"
    outcomes, routes = [], []
    for _ in range(170):
        edited = text
        for _ in range(int(rng.integers(1, 4))):
            edited = _mutated(edited, rng)
        path.write_text(edited, newline="")
        # an entry near the float maximum overflows, with a warning, where the
        # superoperator is built, on either route; the outcome is compared
        with np.errstate(over="ignore", invalid="ignore"):
            got, flat = _flat_outcome(str(path), monkeypatch)
            assert got == _reference_outcome(str(path), monkeypatch), edited
        outcomes.append(got[0])
        routes.append(flat)
    assert 15 < outcomes.count("ok") < len(outcomes) - 15
    assert 15 < sum(routes) < len(routes) - 15  # both routes are taken often


def test_one_call_site_per_parser():
    # orjson parses flat number lists in _flat_array alone and the json
    # module every other text in _loads alone; _write alone calls each writer
    sites = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in (
                        "json", "orjson") and func.attr in ("load", "loads", "dump", "dumps"):
                    owner = getattr(top, "name", None)
                    sites.append((f"{func.value.id}.{func.attr}", path.name, owner))
    assert sorted(sites) == [
        ("json.dumps", "cli.py", "_write"), ("json.loads", "cli.py", "_loads"),
        ("orjson.dumps", "cli.py", "_write"), ("orjson.loads", "cli.py", "_flat_array"),
    ]


@pytest.mark.parametrize(
    "raw",
    [
        b"[" * 200_000 + b"]" * 200_000,
        b'{"k": "' + b"]" * 100 + b'", "v": ' + b"[" * 100 + b"]" * 100 + b"}",
        b'{"k\\u0041": [' + b"1, " * 40 + b"1]}",
        b'{"matrix": [[[1, 2]]], "x": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    ],
    ids=["200000-deep", "closers-in-a-string", "escape", "200000-deep-after-a-matrix"],
)
def test_deep_or_escaped_text_never_reaches_orjson(raw, tmp_path, monkeypatch, capsys):
    """orjson 3.8 recurses without a limit and overflows the C stack on text
    nested ~10^5 deep, so it parses flat lists only: the json module parses
    such text, beside a cut array or not, and raises RecursionError, and it
    reads text with an escape, whose string boundaries the skeleton cannot
    see."""
    seen = []
    monkeypatch.setattr(cli.orjson, "loads", seen.append)
    path = tmp_path / "deep.json"
    path.write_bytes(raw)
    assert main(["analyze", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert seen == []
    assert err.startswith("error: ") and err.count("\n") == 1
    if raw.startswith(b"[["):
        assert err.startswith(f"error: {path} is not valid JSON: maximum recursion depth")


@pytest.mark.parametrize("tol", ["1e-9", "3e-7", "0.01"])
def test_tol_flag_reaches_the_library_as_one_tolerance(tol, dephasing_file, monkeypatch, capsys):
    seen = []

    def spy(mat, t):
        seen.append(t)
        return decompose(mat, t)

    monkeypatch.setattr(cli, "decompose", spy)
    assert main(["analyze", "--input", dephasing_file, "--tol", tol]) == 0
    assert seen == [cli.Tolerances(float(tol))]


# exp(tL) overflows: L has an eigenvalue of real part 1.33, so exp(1e3 L) is
# not finite in double precision, while L itself is a valid generator.
_OVERFLOW_ARGV = {
    "covariance": ["covariance", "--units", "{units}", "--t", "1e3", "--m", "1"],
    "product_system": ["verify", "--checks", "product_system"],
    "units": ["verify", "--checks", "units"],
    "domination": ["verify", "--checks", "domination"],
}


@pytest.mark.parametrize("case", sorted(_OVERFLOW_ARGV))
def test_exponential_overflow_is_a_numerical_limit(case, tmp_path, capsys, recwarn):
    mat = random_ccp_generator(np.random.default_rng(1), 3, m=1)
    if case != "covariance":
        mat = 1e3 * mat
    path = write(tmp_path, "gen.json", superop_doc(mat, 3))
    assert main(["analyze", "--input", path]) == 0
    capsys.readouterr()
    unit = {"c": [0.0, 0.0], "v": [[1.0, 0.0]]}
    upath = write(tmp_path, "units.json", {"units": [unit, unit]})
    argv = [a.format(units=upath) for a in _OVERFLOW_ARGV[case]] + ["--input", path]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    message = "matrix exponential overflows: its norm is not finite"
    if case == "covariance":
        assert json.loads(out)["error"] == message and err == ""
    else:
        assert out == "" and err == f"error: {message}\n"
    assert not recwarn.list  # nothing is printed before the error


def test_a_generator_that_overflows_is_a_numerical_limit(tmp_path, capsys, recwarn):
    # the Kraus entries are finite, their Choi matrix V V* is not: no verdict,
    # where "does not preserve Hermiticity" (exit 2) was given before
    big = 1e200 * np.eye(2)
    doc = {"type": "gkls", "n": 2, "kraus": [m2j(big)], "k": m2j(np.zeros((2, 2)))}
    path = write(tmp_path, "gen.json", doc)
    for command in ("analyze", "verify"):
        assert main([command, "--input", path]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the matrix has an entry that is not finite: no verdict\n"
    assert not recwarn.list  # nothing is printed before the error
