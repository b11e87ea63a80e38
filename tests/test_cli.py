"""Exit-code and output-format tests for the command-line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from todajac import flow, jacobi, lax, verify
from todajac.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

MAT_CONE = {"n": 2, "a": [2.0, 2.0], "b": [1.0]}
MAT_SWAP = {"n": 2, "a": [0.0, 0.0], "b": [1.0]}
# sign-mixed, huge b: the Newton polish of the spectrum overflows
MAT_POLISH_OVERFLOW = {"n": 8, "a": [0.1 * i for i in range(8)], "b": [-1e200] * 7}
# b > 0 with eigenvalues +-1e-15: the spectrum is not simple
MAT_NOT_SIMPLE = {"n": 2, "a": [0.0, 0.0], "b": [1e-30]}
# one tiny negative entry: the rounded spectra interlace, the matrix is not TNN
MAT_TINY_NEGATIVE = {
    "n": 3,
    "a": [2.9877258766458645, 3.1461341964872647, 3.291349420217848],
    "b": [-2.053110304527219e-232, 0.4753978632097647],
}

# TNN, nearly decoupled: the leading (n-1) corner's spectrum is not simple,
# and the interlacing route does not read it
MATS_NEARLY_DECOUPLED_TNN = [
    {"n": 5, "a": [3.5, 2.5, 2.5, 3.5, 9.0], "b": [1e-8] * 4},
    {"n": 8, "a": [4.0, 3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 9.0], "b": [1e-4] * 7},
    {"n": 8, "a": [5.0, 4.0, 3.0, 2.0, 3.0, 4.0, 5.0, 20.0], "b": [1e-4] * 7},
]


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def cone_file(tmp_path):
    return write_json(tmp_path / "cone.json", MAT_CONE)


@pytest.fixture
def noncone_file(tmp_path):
    spec = lax.Spectrum(np.array([1.0, 3.0]))
    L = jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw([1.0, math.exp(-2.0)]))
    return write_json(tmp_path / "noncone.json", L.to_json_dict())


class TestSimulate:
    def test_cone_csv(self, cone_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(
            ["simulate", "--matrix", cone_file, "--t0", "0", "--t1", "1", "--dt", "0.1",
             "--method", "tau", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,a1,a2,b1"
        assert len(lines) == 12  # header + 11 rows

    def test_noncone_blowup_exit_code(self, noncone_file, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            ["simulate", "--matrix", noncone_file, "--t0", "-1", "--t1", "1", "--dt", "0.1",
             "--method", "tau", "--out", str(out)]
        )
        assert rc == 3
        text = out.read_text()
        assert text.strip().endswith("# blowup t=0.000000")

    def test_range_exceeded_exit_code(self, tmp_path):
        path = write_json(tmp_path / "wide.json", {"n": 2, "a": [1.0, 9.0], "b": [0.5]})
        out = tmp_path / "traj.csv"
        rc = main(
            ["simulate", "--matrix", path, "--t0", "0", "--t1", "100", "--dt", "10",
             "--method", "tau", "--out", str(out)]
        )
        assert rc == 4

    @pytest.mark.parametrize("method", ["tau", "symes"])
    def test_range_exceeded_names_the_sample_time(self, tmp_path, capsys, method):
        # b falls below the smallest normal double 90 time units after t0
        path = write_json(tmp_path / "wide.json", {"n": 2, "a": [1, 9], "b": [0.5]})
        rc = main(
            ["simulate", "--matrix", path, "--t0", "10", "--t1", "120", "--dt", "10",
             "--method", method, "--out", str(tmp_path / "traj.csv")]
        )
        assert rc == 4
        assert "t=100.0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["tau", "symes", "rk4"])
    def test_subnormal_subdiagonal_exit_four(self, tmp_path, capsys, method):
        # b decays like exp(-200 t); RK4 stalls at a subnormal value, and
        # trajectory names the sample time for every method
        path = write_json(tmp_path / "m.json", {"n": 2, "a": [100, -100], "b": [1]})
        rc = main(
            ["simulate", "--matrix", path, "--t0", "0", "--t1", "5", "--dt", "5",
             "--method", method]
        )
        assert rc == 4
        assert capsys.readouterr().err == "error: value leaves double range at t=5.0\n"

    @pytest.mark.parametrize("method", ["tau", "symes", "rk4"])
    @pytest.mark.parametrize(
        "matrix, failing",
        [
            # NonRealSpectrum: eigenvalues +-i
            ({"n": 2, "a": [0.0, 0.0], "b": [-1.0]}, ("tau", "symes")),
            # NonSimpleSpectrum: eigenvalues 1 +- 1e-15
            ({"n": 2, "a": [1.0, 1.0], "b": [1e-30]}, ("tau", "symes")),
            # ZeroCofactorValue: an eigenvalue sits on the cofactor root a2 = 2
            ({"n": 2, "a": [1.0, 2.0], "b": [1e-13]}, ("tau",)),
        ],
    )
    def test_spectrum_failure_exit_two(self, tmp_path, capsys, matrix, failing, method):
        # rk4 needs no spectrum and integrates every one of these matrices
        path = write_json(tmp_path / "m.json", matrix)
        rc = main(
            ["simulate", "--matrix", path, "--t0", "0", "--t1", "1", "--dt", "0.5",
             "--method", method]
        )
        if method in failing:
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert rc == 0

    def test_missing_file(self, tmp_path):
        rc = main(
            ["simulate", "--matrix", str(tmp_path / "absent.json"), "--t0", "0",
             "--t1", "1", "--dt", "0.1"]
        )
        assert rc == 1

    def test_json_output_by_extension(self, cone_file, tmp_path):
        out = tmp_path / "traj.json"
        rc = main(
            ["simulate", "--matrix", cone_file, "--t0", "0", "--t1", "0.5", "--dt", "0.25",
             "--method", "symes", "--out", str(out)]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["method"] == "symes" and data["blowup"] is None
        assert len(data["states"]) == 3

    def test_bad_window(self, cone_file):
        rc = main(["simulate", "--matrix", cone_file, "--t0", "1", "--t1", "0", "--dt", "0.1"])
        assert rc == 1

    def test_rk4_method_with_custom_step(self, cone_file, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            ["simulate", "--matrix", cone_file, "--t0", "0", "--t1", "0.2", "--dt", "0.1",
             "--method", "rk4", "--rk4-dt", "1e-4", "--out", str(out)]
        )
        assert rc == 0
        assert len(out.read_text().strip().split("\n")) == 4


class TestCheckTnn:
    @pytest.mark.parametrize("mode", ["exhaustive", "tridiagonal", "interlacing"])
    def test_tnn_matrix_exit_zero(self, cone_file, capsys, mode):
        rc = main(["check-tnn", "--matrix", cone_file, "--mode", mode])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_tnn"] is True and report["method"].startswith(mode[:6])

    def test_swap_matrix_witness(self, tmp_path, capsys):
        path = write_json(tmp_path / "swap.json", MAT_SWAP)
        rc = main(["check-tnn", "--matrix", path, "--mode", "exhaustive"])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert report["witness"] == {"rows": [0, 1], "cols": [0, 1], "value": -1.0}

    def test_parsed_options_do_not_leak_between_calls(self, tmp_path, capsys):
        # det = 1 - 1.0001 = -1e-4: TNN within --tol 1e-3, not TNN at the exact default
        path = write_json(tmp_path / "near.json", {"n": 2, "a": [1.0, 1.0], "b": [1.0001]})
        assert main(["check-tnn", "--matrix", path, "--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["is_tnn"] is True
        assert main(["check-tnn", "--matrix", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["witness"]["rows"] == [0, 1] and report["witness"]["value"] < 0.0

    @pytest.mark.parametrize("mode", ["exhaustive", "tridiagonal", "interlacing"])
    def test_negative_entry_is_never_tnn(self, tmp_path, capsys, mode):
        path = write_json(tmp_path / "m.json", MAT_TINY_NEGATIVE)
        assert main(["check-tnn", "--matrix", path, "--mode", mode]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["is_tnn"] is False and captured.err == ""
        if mode != "interlacing":
            assert report["witness"] == {"rows": [1], "cols": [0], "value": -2.053110304527219e-232}

    @pytest.mark.parametrize("mode", ["exhaustive", "tridiagonal", "interlacing"])
    def test_nearly_decoupled_tnn_exit_zero(self, tmp_path, capsys, mode):
        for i, data in enumerate(MATS_NEARLY_DECOUPLED_TNN):
            path = write_json(tmp_path / f"m{i}.json", data)
            assert main(["check-tnn", "--matrix", path, "--mode", mode]) == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)["is_tnn"] is True and captured.err == ""

    def test_size_gate(self, tmp_path):
        big = {"n": 9, "a": [1.0] * 9, "b": [1.0] * 8}
        path = write_json(tmp_path / "big.json", big)
        rc = main(["check-tnn", "--matrix", path, "--mode", "exhaustive"])
        assert rc == 1

    def test_malformed_matrix(self, tmp_path):
        path = write_json(tmp_path / "bad.json", {"n": 2, "a": [1.0, 1.0], "b": [0.0]})
        assert main(["check-tnn", "--matrix", path]) == 1


class TestLinearize:
    def test_cone_matrix(self, cone_file, capsys):
        rc = main(["linearize", "--matrix", cone_file])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["f"], [1.0, -1.0], atol=1e-12)
        assert data["sign_component"] == "-"
        assert data["in_positive_cone"] is True
        assert data["is_general"] is True
        np.testing.assert_allclose(data["tau"], [2.0, 2.0, 2.0], atol=1e-12)

    def test_three_by_three(self, tmp_path, capsys):
        path = write_json(tmp_path / "m3.json", {"n": 3, "a": [2.0, 2.0, 2.0], "b": [1.0, 1.0]})
        rc = main(["linearize", "--matrix", path])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["f"], [1.0, -1.0, 1.0], atol=1e-9)
        assert data["in_positive_cone"] is True

    def test_nonpositive_spectrum_flagged(self, tmp_path, capsys):
        # alternating signs but negative bottom eigenvalue: cone is denied
        path = write_json(tmp_path / "swap.json", MAT_SWAP)
        rc = main(["linearize", "--matrix", path])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cone_sign_pattern"] is True
        assert data["spectrum_positive"] is False
        assert data["in_positive_cone"] is False

    def test_error_messages_print_plain_floats(self, tmp_path, capsys):
        # a double eigenvalue, and a cofactor value that vanishes at scale
        for data, text in (
            ({"n": 2, "a": [1.0, 1.0], "b": [1e-30]}, "closer than"),
            ({"n": 2, "a": [0.0, 10.0], "b": [1e-26]}, "is numerically zero"),
        ):
            path = write_json(tmp_path / "m.json", data)
            assert main(["linearize", "--matrix", path]) == 2
            err = capsys.readouterr().err
            assert text in err and "np.float64" not in err, err

    def test_non_real_spectrum_exit_two(self, tmp_path):
        path = write_json(tmp_path / "rot.json", {"n": 2, "a": [0.0, 0.0], "b": [-1.0]})
        assert main(["linearize", "--matrix", path]) == 2

    def test_one_tau_kernel_per_call(self, cone_file, noncone_file, capsys, monkeypatch):
        built = []

        class CountingKernel(jacobi.TauKernel):
            def __init__(self, spec, F):
                built.append(F)
                super().__init__(spec, F)

        monkeypatch.setattr(jacobi, "TauKernel", CountingKernel)
        for path in (cone_file, noncone_file):
            built.clear()
            assert main(["linearize", "--matrix", path]) == 0
            assert json.loads(capsys.readouterr().out)["is_general"] is True
            assert len(built) == 1


@pytest.mark.parametrize("run", ["tau", "symes", "linearize", "converse"])
def test_cone_run_takes_one_eigh(tmp_path, capsys, monkeypatch, run):
    # b > 0: the spectrum's eigh also serves the Weyl residues and Symes's QR
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counting(matrix, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(matrix)))
            return _call(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    data = {"n": 5, "a": [0.5, 1.0, 2.0, 3.0, 4.5], "b": [0.3, 1.2, 0.7, 2.0]}
    if run == "converse":
        report = verify.run_verification(5, 20, seed=3, direction="converse")
        assert report.failures == 0
        assert calls == [("eigh", (20, 5, 5))]
        return
    if run == "linearize":
        assert main(["linearize", "--matrix", write_json(tmp_path / "m.json", data)]) == 0
    else:
        L = lax.LaxMatrix.from_json_dict(data)
        assert len(flow.trajectory(L, 0.0, 1.0, 0.25, run).states) == 5
    assert calls == [("eigh", (5, 5))]


@pytest.mark.parametrize(
    "command",
    [
        ["linearize"],
        ["check-tnn", "--mode", "interlacing"],
        ["simulate", "--t0", "0", "--t1", "1", "--dt", "0.5", "--method", "tau"],
        ["simulate", "--t0", "0", "--t1", "1", "--dt", "0.5", "--method", "symes"],
    ],
)
def test_spectrum_overflow_is_a_spectrum_failure(tmp_path, capsys, command):
    # the suite turns the overflow RuntimeWarning into an error
    path = write_json(tmp_path / "m.json", MAT_POLISH_OVERFLOW)
    assert main(command + ["--matrix", path]) == 2
    if command[0] == "check-tnn":
        # a negative entry is "not TNN" before any spectrum, so the
        # interlacing route's spectrum failures come from b > 0 inputs
        captured = capsys.readouterr()
        assert json.loads(captured.out)["is_tnn"] is False and captured.err == ""
        path = write_json(tmp_path / "m.json", MAT_NOT_SIMPLE)
        assert main(command + ["--matrix", path]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["is_tnn"] is False
        assert captured.err == (
            "note: spectrum test failed (eigenvalues -1e-15 and 1e-15 closer than 1.0e-10)\n"
        )
        return
    assert "polish of the eigenvalues leaves double range" in capsys.readouterr().err


class TestReconstruct:
    def test_identity_point(self, tmp_path, capsys):
        spath = write_json(tmp_path / "s.json", {"lambdas": [1.0, 3.0]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0, -1.0]})
        rc = main(["reconstruct", "--spectrum", spath, "--point", ppath])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 2
        np.testing.assert_allclose(data["a"], [2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(data["b"], [1.0], atol=1e-12)

    def test_evolved_point(self, tmp_path, capsys):
        spath = write_json(tmp_path / "s.json", {"lambdas": [1.0, 3.0]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0, -2.0]})
        rc = main(["reconstruct", "--spectrum", spath, "--point", ppath])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(data["a"], [7 / 3, 5 / 3], atol=1e-12)
        np.testing.assert_allclose(data["b"], [8 / 9], atol=1e-12)

    def test_non_general_exit_two(self, tmp_path, capsys):
        spath = write_json(tmp_path / "s.json", {"lambdas": [1.0, 3.0]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0, 1.0]})
        rc = main(["reconstruct", "--spectrum", spath, "--point", ppath])
        assert rc == 2
        assert "tau index 1" in capsys.readouterr().err

    def test_size_mismatch(self, tmp_path):
        spath = write_json(tmp_path / "s.json", {"lambdas": [1.0, 2.0, 3.0]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0, -1.0]})
        assert main(["reconstruct", "--spectrum", spath, "--point", ppath]) == 1

    def test_one_point_spectrum_exit_one(self, tmp_path, capsys):
        # a Lax matrix needs n >= 2, so nothing is written
        spath = write_json(tmp_path / "s.json", {"lambdas": [1.0]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0]})
        assert main(["reconstruct", "--spectrum", spath, "--point", ppath]) == 1
        assert capsys.readouterr() == ("", "error: LaxMatrix needs n >= 2\n")

    def test_nan_bands_exit_four(self, tmp_path, capsys):
        # eigenvalue gaps beyond double range make the bands NaN
        spath = write_json(tmp_path / "s.json", {"lambdas": [-1e308, 0.0, 1e308]})
        ppath = write_json(tmp_path / "p.json", {"f": [1.0, -1.0, 1.0]})
        assert main(["reconstruct", "--spectrum", spath, "--point", ppath]) == 4
        assert capsys.readouterr().err.startswith("error: reconstructed entries leave double")


class TestVerifyTheorem:
    def test_small_forward_run(self, capsys):
        rc = main(["verify-theorem", "--n", "2", "--samples", "10", "--seed", "1",
                   "--direction", "forward"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 10 and report["failures"] == 0

    def test_zero_samples(self, capsys):
        rc = main(["verify-theorem", "--n", "4", "--samples", "0", "--seed", "1"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 0

    def test_bad_n(self):
        assert main(["verify-theorem", "--n", "9", "--samples", "1"]) == 1

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify-theorem", "--n", "3", "--samples", "5", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert report["config"]["seed"] == 2

    def test_narrow_spectrum_range(self, capsys):
        # the default min_gap 1e-6 * (hi - lo) lies below the separation here
        rc = main(["verify-theorem", "--n", "8", "--samples", "100", "--spec-min", "1",
                   "--spec-max", "1.0000001", "--direction", "forward"])
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 100
        assert rc == (0 if report["failures"] == 0 else 2)

    @pytest.mark.parametrize(
        "options",
        [
            ["--coord-range", "1e308"],
            ["--coord-range", "inf"],
            ["--coord-range", "nan"],
            ["--spec-max", "inf"],
            # converse draws evolve to |t| <= 1.5 and leave double range
            ["--spec-min", "1", "--spec-max", "1e308"],
            # forward reconstructions leave double range
            ["--spec-min", "1", "--spec-max", "1e200", "--direction", "forward"],
            # normalized coordinates reach exp(2 * range)
            ["--coord-range", "400"],
        ],
    )
    def test_unsamplable_configuration_exit_one(self, capsys, options):
        assert main(["verify-theorem", "--n", "4", "--samples", "10"] + options) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# errors every command shares
# ---------------------------------------------------------------------------


def one_error_line(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--matrix", "m.json", "--t0", "0", "--t1", "1", "--dt", "0.5"],
        ["check-tnn", "--matrix", "m.json"],
        ["linearize", "--matrix", "m.json"],
        ["reconstruct", "--spectrum", "s.json", "--point", "p.json"],
        ["verify-theorem", "--n", "2", "--samples", "2"],
    ],
)
def test_out_in_missing_directory_exit_one(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "m.json", MAT_CONE)
    write_json(tmp_path / "s.json", {"lambdas": [1.0, 3.0]})
    write_json(tmp_path / "p.json", {"f": [1.0, -1.0]})
    assert main(command + ["--out", str(tmp_path / "absent" / "out.json")]) == 1
    assert "No such file or directory" in one_error_line(capsys)


def test_missing_required_argument_exit_one(capsys):
    assert main(["linearize"]) == 1
    assert "the following arguments are required: --matrix" in one_error_line(capsys)


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--t0", "0", "--t1", "1", "--dt", "nan"],
        ["simulate", "--t0", "0", "--t1", "1", "--dt", "0.5", "--method", "rk4",
         "--rk4-dt", "nan"],
        ["simulate", "--t0", "0", "--t1", "inf", "--dt", "0.5"],
        ["simulate", "--t0", "0", "--t1", "inf", "--dt", "0.5", "--method", "symes"],
        ["simulate", "--t0", "0", "--t1", "inf", "--dt", "0.5", "--method", "rk4"],
        ["check-tnn", "--tol", "nan"],
    ],
)
def test_non_finite_number_exit_one(cone_file, capsys, command):
    assert main(command + ["--matrix", cone_file]) == 1
    assert "invalid finite value" in one_error_line(capsys)


def test_too_many_samples_exit_one(cone_file, capsys):
    command = ["simulate", "--matrix", cone_file, "--t0", "0", "--t1", "1", "--dt", "1e-300"]
    assert main(command) == 1
    assert "MAX_SAMPLE_STEPS" in one_error_line(capsys)


def test_negative_exponent_time_with_equals_sign(cone_file, capsys):
    # the documented form for a negative time in exponent notation
    command = ["simulate", "--matrix", cone_file, "--t1", "1e-3", "--dt", "1e-3"]
    assert main(command + ["--t0=-1e-3"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("-0.001,")


def run_in_shell(*argv):
    """``python -m todajac.cli`` with the interpreter's default warning filters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "todajac.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_shell_sees_the_exit_code_without_traceback(cone_file, tmp_path):
    out = tmp_path / "absent" / "out.json"
    proc = run_in_shell("linearize", "--matrix", cone_file, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_rk4_overflow_prints_only_the_blowup_line(tmp_path):
    # numpy's overflow warnings, with their source lines, came first
    huge = {"n": 3, "a": [1e300, 0.0, -1e300], "b": [1e300, 1e300]}
    path = write_json(tmp_path / "huge.json", huge)
    proc = run_in_shell(
        "simulate", "--matrix", path, "--t0", "0", "--t1", "1", "--dt", "0.5", "--method", "rk4"
    )
    assert proc.returncode == 3
    assert proc.stderr == "blowup at t=0.001; output truncated\n"
    assert proc.stdout == (
        "t,a1,a2,a3,b1,b2\n0.0,1e+300,0.0,-1e+300,1e+300,1e+300\n# blowup t=0.001000\n"
    )


def test_number_beyond_float_range_in_file_exit_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1e400, "a": [1, 2], "b": [1]}', encoding="utf-8")
    assert main(["check-tnn", "--matrix", str(path)]) == 1
    assert "cannot load matrix: malformed matrix object" in one_error_line(capsys)
