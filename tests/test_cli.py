import argparse
import gc
import json
import os
import subprocess
import sys

import numpy as np
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
from cpsemi import DEFAULT_TOL, NotCCP, ParseError
from cpsemi.cli import _rejection, _write, cmd_analyze, cmd_covariance, decode, encode, main
from cpsemi.generator import decompose, same_generator


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
    # scipy is imported only for a matrix exponential, which analyze never needs.
    script = "import sys, cpsemi.cli\nrc = cpsemi.cli.main(sys.argv[1:])\nprint(rc, 'scipy' in sys.modules)"
    argv = ["analyze", "--input", dephasing_file, "--output", str(tmp_path / "report.json")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.split() == ["0", "False"], proc.stderr


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

    def spy(d, ops, k2, tol):
        relations.append(real(d, ops, k2, tol))
        return relations[-1]

    monkeypatch.setattr(generator, "extract_gauge", spy)
    rc, out = run(capsys, ["verify", "--input", path, "--checks", "gauge", "--seed", "5"])
    assert rc == 0
    assert json.loads(out)["checks"]["gauge"] == {
        "pass": True, "perturbation_detected": True, "shift_same_generator": True,
        "symbols_equal": True,
    }
    (rel,) = relations
    assert np.linalg.norm(rel.v2) > 0.1
    assert rel.residual <= 1e-10


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

    def spy(d, ops, k2, tol):
        calls.append((d, ops))
        return real(d, ops, k2, tol)

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
    argv = [
        "covariance",
        "--input", write(tmp_path, "gen.json", gen),
        "--units", write(tmp_path, "units.json", docs["units"]),
        *flags,
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}")


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


# ---------------------------------------------------------------------------
# The cyclic garbage collector is paused for a call and restored after it


def _units_file(tmp_path, rank, c2=0.0):
    v = np.eye(1, rank)[0]
    units = {"units": [{"c": [0.0, 0.0], "v": [c2j(z) for z in v]}, {"c": [0.0, c2], "v": [c2j(-z) for z in v]}]}
    return write(tmp_path, "units.json", units)


def test_a_call_starts_no_collection(tmp_path, capsys):
    # an n = 8 superop spec parses to 4,096 [re, im] lists, enough to start
    # several collections while the collector runs.  A warm call, which
    # reuses the parser, leaves few containers in cycles to the first
    # collection after it; from a fresh count that stays below the threshold
    # of 700.
    gen = random_ccp_generator(np.random.default_rng(3), 8, m=2, unital=True)
    spec = write(tmp_path, "n8.json", superop_doc(gen, 8))
    calls = [
        ["analyze", "--input", spec],
        ["covariance", "--input", spec, "--units", _units_file(tmp_path, 2)],
    ]
    for argv in calls:  # warm-up: the first covariance call imports scipy
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
            assert started == [], argv[0]
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
# The input reader: orjson, with the json module as the reference


def _reference_read_json(path):
    """The json module on the file opened in text mode: the reference for
    what the reader accepts and for its messages."""
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
    return "ok", n, mat.shape, mat.tobytes()


def _spec_text(entry="0.0", n="2"):
    """A superop spec whose first matrix entry and whose n are the given
    JSON literals."""
    doc = superop_doc(dephasing_generator(), 2)
    doc["matrix"][0][0][0] = "ENTRY"
    doc["n"] = "N"
    return json.dumps(doc).replace('"ENTRY"', entry).replace('"N"', n)


_ENTRY_LITERALS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400,
    str(2**64), str(2**64 - 1), str(-(2**63) - 1), str(-(2**63)), str(2**64 + 2048),
    str(2**64 + 2049), str(2**65 + 4096), "123456789012345678901234567890", str(2**53 + 1),
    "-0", "-0.0", "0", "1E5", "1e-5", "1.5E+300", "4.9e-324", "2.4703282292062327e-324",
    "2.2250738585072011e-308", "1e-400", "0.1000000000000000055511151231257827",
    "2.00000000000000011102230246251565404236316680908203125", "9007199254740993.0",
    "1.7976931348623157e308", "1.7976931348623159e308", "true", "null", '"1"', "[]",
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
_READER_CASES = (
    [pytest.param(_spec_text(lit).encode(), id=f"entry={lit[:24]}") for lit in _ENTRY_LITERALS]
    + [pytest.param(_spec_text(n=lit).encode(), id=f"n={lit[:24]}") for lit in _N_LITERALS]
    + [pytest.param(raw, id=name) for name, raw in _DOCUMENTS.items()]
)


@pytest.mark.parametrize("raw", _READER_CASES)
def test_reader_matches_the_json_module(raw, tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    got = _load_outcome(str(path))
    monkeypatch.setattr(cli, "_read_json", _reference_read_json)
    assert got == _load_outcome(str(path))


def test_reader_rounds_numbers_like_the_json_module(tmp_path):
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
    path = tmp_path / "numbers.json"
    path.write_text('{"x": [' + ", ".join(literals) + "]}")
    got = cli._read_json(str(path))["x"]
    ref = _reference_read_json(str(path))["x"]
    assert len(got) == len(ref) == len(literals)
    assert np.array(got, dtype=float).tobytes() == np.array(ref, dtype=float).tobytes()
    # orjson returns an integer beyond 64 bits as a float; decode makes every
    # entry a float either way, so that is the only difference of type
    assert all(type(g) is type(r) or abs(r) >= 2**63 for g, r in zip(got, ref))


def test_well_formed_specs_never_reach_the_json_module(tmp_path, monkeypatch):
    calls = []
    real = json.loads

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    good = tmp_path / "good.json"
    good.write_text(_spec_text())
    nan = tmp_path / "nan.json"
    nan.write_text(_spec_text("NaN"))
    monkeypatch.setattr(cli.json, "loads", spy)
    mat, n = cli.load_generator(str(good), DEFAULT_TOL)
    assert n == 2 and mat.tobytes() == dephasing_generator().tobytes()
    assert calls == []
    with pytest.raises(ParseError, match="^matrix: every entry must be finite$"):
        cli.load_generator(str(nan), DEFAULT_TOL)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "raw, depth",
    [
        (b"", 0), (b"1", 0), (b'"[[{"', 0), (b'{"a": [[1], {"b": []}]}', 4),
        (b'{"k": "]]]]]]", "v": [[[]]]}', 4), (b'["}", ["{"]]', 2),
        (b'{"k\\"": [1]}', 12),
    ],
)
def test_nesting_depth(raw, depth):
    assert cli._nesting_depth(raw) == depth


@pytest.mark.parametrize(
    "raw",
    [
        b"[" * 200_000 + b"]" * 200_000,
        b'{"k": "' + b"]" * 100 + b'", "v": ' + b"[" * 100 + b"]" * 100 + b"}",
        b'{"k\\u0041": [' + b"1, " * 40 + b"1]}",
    ],
    ids=["200000-deep", "closers-in-a-string", "escape"],
)
def test_deep_or_escaped_text_never_reaches_orjson(raw, tmp_path, monkeypatch, capsys):
    """orjson 3.8 recurses without a limit and overflows the C stack on text
    nested ~10^5 deep; such text goes to the json module, and so does text
    with an escape and more than _MAX_DEPTH bytes, whose string boundaries
    the depth scan cannot see."""
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
