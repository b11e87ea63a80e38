"""Exit-code and output-format tests for the command-line front end."""

import json
import math

import numpy as np
import pytest

from todajac import jacobi, lax
from todajac.cli import main

MAT_CONE = {"n": 2, "a": [2.0, 2.0], "b": [1.0]}
MAT_SWAP = {"n": 2, "a": [0.0, 0.0], "b": [1.0]}
# sign-mixed, huge b: the Newton polish of the spectrum overflows
MAT_POLISH_OVERFLOW = {"n": 8, "a": [0.1 * i for i in range(8)], "b": [-1e200] * 7}


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
