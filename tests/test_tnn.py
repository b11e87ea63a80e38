"""Tests for total-nonnegativity, total-positivity and interlacing checks."""

import numpy as np
import pytest

from todajac import lax, tnn
from todajac.errors import NotTnn, NotTridiagonal, TooLarge

RNG = np.random.default_rng(7151)


def make(a, b):
    a = np.asarray(a, dtype=float)
    return lax.LaxMatrix(n=a.size, a=a, b=np.asarray(b, dtype=float))


def random_tridiagonal(rng, n, a_lo=-0.5, a_hi=2.5, b_lo=0.01, b_hi=1.5):
    """Random phase-space matrix with positive subdiagonal (unit superdiagonal)."""
    return make(rng.uniform(a_lo, a_hi, n), rng.uniform(b_lo, b_hi, n - 1))


def plain_loop_tridiagonal_criterion(M, tol):
    """Entry signs row-major, then window determinants by (size, start)."""
    n = M.shape[0]
    for i in range(n):
        for j in range(max(0, i - 1), min(n, i + 2)):
            if not M[i, j] >= -tol:
                return False, ((i,), (j,), float(M[i, j]))
    dets = {}
    for s in range(n):
        prev2, prev1 = 1.0, float(M[s, s])
        for m in range(s + 1, n):
            cur = M[m, m] * prev1 - M[m - 1, m] * M[m, m - 1] * prev2
            dets[(s, m)] = float(cur)
            prev2, prev1 = prev1, cur
    for size in range(2, n + 1):
        for s in range(0, n - size + 1):
            value = dets[(s, s + size - 1)]
            if not value >= -tol:
                window = tuple(range(s, s + size))
                return False, (window, window, value)
    return True, None


# ---------------------------------------------------------------------------
# exhaustive check
# ---------------------------------------------------------------------------


class TestExhaustive:
    def test_positive_example(self):
        assert tnn.is_tnn_exhaustive([[2, 1], [1, 2]]).is_tnn

    def test_swap_matrix_witness(self):
        rep = tnn.is_tnn_exhaustive([[0, 1], [1, 0]])
        assert not rep.is_tnn
        assert rep.witness.rows == (0, 1)
        assert rep.witness.cols == (0, 1)
        assert rep.witness.value == pytest.approx(-1.0)

    def test_rank_one(self):
        assert tnn.is_tnn_exhaustive([[1, 1], [1, 1]]).is_tnn

    def test_size_gate(self):
        with pytest.raises(TooLarge):
            tnn.is_tnn_exhaustive(np.eye(9))

    def test_witness_only_when_negative(self):
        rep = tnn.is_tnn_exhaustive([[2, 1], [1, 2]])
        assert rep.witness is None and rep.method == "exhaustive"

    def test_tolerance_forgives_noise(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        assert not tnn.is_tnn_exhaustive(M).is_tnn
        assert tnn.is_tnn_exhaustive(M, tol=1e-12).is_tnn

    def test_witness_is_first_negative_entry(self):
        M = np.array([[1.0, -0.5], [2.0, -3.0]])
        rep = tnn.is_tnn_exhaustive(M)
        assert rep.witness.rows == (0,) and rep.witness.cols == (1,)

    def test_report_json_shape(self):
        d = tnn.is_tnn_exhaustive([[0, 1], [1, 0]]).to_json_dict()
        assert d["is_tnn"] is False
        assert d["witness"] == {"rows": [0, 1], "cols": [0, 1], "value": -1.0}
        assert d["method"] == "exhaustive"
        d_ok = tnn.is_tnn_exhaustive([[1, 1], [1, 1]]).to_json_dict()
        assert d_ok["witness"] is None


# ---------------------------------------------------------------------------
# tridiagonal criterion
# ---------------------------------------------------------------------------


class TestTridiagonalCriterion:
    def test_positive_example(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2], [1])).is_tnn

    def test_negative_determinant(self):
        rep = tnn.is_tnn_tridiagonal(make([1, 1], [2]))
        assert not rep.is_tnn
        assert rep.witness.value == pytest.approx(-1.0)
        assert rep.witness.rows == (0, 1)

    def test_three_by_three(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2, 2], [1, 1])).is_tnn

    def test_negative_entry_witness(self):
        rep = tnn.is_tnn_tridiagonal(make([2, -0.5, 2], [1, 1]))
        assert not rep.is_tnn
        assert rep.witness.rows == (1,) and rep.witness.cols == (1,)

    def test_rejects_dense_input(self):
        with pytest.raises(NotTridiagonal):
            tnn.is_tnn_tridiagonal(np.ones((4, 4)))

    def test_method_tag(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2], [1])).method == "tridiagonal-criterion"

    def test_agrees_with_exhaustive_mixed_signs(self):
        for _ in range(400):
            n = int(RNG.integers(2, 7))
            a = RNG.uniform(-1.0, 2.5, n)
            b = RNG.uniform(0.01, 1.5, n - 1) * RNG.choice([-1.0, 1.0], n - 1)
            L = make(a, b)
            assert (
                tnn.is_tnn_tridiagonal(L).is_tnn == tnn.is_tnn_exhaustive(L).is_tnn
            ), f"disagreement on a={a}, b={b}"

    def test_sylvester_consistency(self):
        # det >= 0 plus TNN trailing corner plus nonnegative entries => TNN
        hits = 0
        while hits < 60:
            n = int(RNG.integers(2, 6))
            L = random_tridiagonal(RNG, n, a_lo=0.0)
            dense = L.to_dense()
            if np.linalg.det(dense) < 0:
                continue
            if not tnn.is_tnn_exhaustive(dense[1:, 1:]).is_tnn:
                continue
            hits += 1
            assert tnn.is_tnn_tridiagonal(L).is_tnn

    def test_witness_matches_plain_loop_reference(self):
        rng = np.random.default_rng(31337)
        rejected = last_bits = 0
        for trial in range(2000):
            n = int(rng.integers(2, 9))
            M = np.diag(rng.uniform(0.5, 3.0, n))
            M[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.01, 1.5, n - 1)
            M[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.01, 1.5, n - 1)
            if trial % 3 == 0:
                # one negative entry somewhere on the three bands
                i = int(rng.integers(0, n))
                j = min(max(i + int(rng.integers(-1, 2)), 0), n - 1)
                M[i, j] = -rng.uniform(0.0, 1.0)
            elif trial % 3 == 1:
                # set the last diagonal entry of one window to within a few
                # ulps of cancelling its determinant
                s = int(rng.integers(0, n - 1))
                m = int(rng.integers(s + 1, n))
                prev2, prev1 = 1.0, M[s, s]
                for k in range(s + 1, m):
                    prev2, prev1 = prev1, M[k, k] * prev1 - M[k - 1, k] * M[k, k - 1] * prev2
                if prev1 != 0.0:
                    ratio = M[m - 1, m] * M[m, m - 1] * prev2 / prev1
                    M[m, m] = ratio + int(rng.integers(-3, 4)) * np.spacing(ratio)
            tol = (0.0, 1e-12)[trial % 2]
            report = tnn.is_tnn_tridiagonal(M, tol=tol)
            got = (report.is_tnn, report.witness and (
                report.witness.rows, report.witness.cols, report.witness.value
            ))
            want = plain_loop_tridiagonal_criterion(M, tol)
            assert got == want, f"trial {trial}: M={M!r}, tol={tol}"
            rejected += not want[0]
            last_bits += not want[0] and abs(want[1][2]) < 1e-13
        assert rejected > 1000 and last_bits > 50

    def test_structure_error_matches_plain_loop_reference(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            M = np.diag(rng.uniform(0.5, 2.0, n))
            for _ in range(2):
                i = int(rng.integers(0, n - 2))
                j = i + 2 + int(rng.integers(0, n - i - 2))
                if rng.random() < 0.5:
                    i, j = j, i
                M[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-300, 1.0)
            expected = next(
                f"entry ({r},{c})={M[r, c]!r} outside the three bands"
                for r in range(n)
                for c in range(n)
                if abs(r - c) >= 2 and abs(M[r, c]) > 0.0
            )
            with pytest.raises(NotTridiagonal) as info:
                tnn.is_tnn_tridiagonal(M)
            assert str(info.value) == expected


# ---------------------------------------------------------------------------
# total positivity
# ---------------------------------------------------------------------------


class TestTotallyPositive:
    def test_examples(self):
        assert tnn.is_totally_positive([[5, 4], [4, 5]])
        assert not tnn.is_totally_positive([[1, 1], [1, 1]])
        assert tnn.is_totally_positive([[2, 1], [1, 2]])

    def test_size_gate(self):
        with pytest.raises(TooLarge):
            tnn.is_totally_positive(np.eye(9))

    def test_tp_implies_tnn(self):
        for _ in range(200):
            n = int(RNG.integers(2, 5))
            M = RNG.uniform(0.0, 2.0, (n, n))
            if tnn.is_totally_positive(M):
                assert tnn.is_tnn_exhaustive(M).is_tnn


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


class TestIrreducible:
    def test_already_tp(self):
        ok, k = tnn.is_irreducible_tnn(make([2, 2], [1]))
        assert ok and k == 1

    def test_k_max_one_still_succeeds(self):
        ok, k = tnn.is_irreducible_tnn(make([2, 2], [1]), k_max=1)
        assert ok and k == 1

    def test_singular_rank_one(self):
        ok, k = tnn.is_irreducible_tnn(make([1, 1], [1]))
        assert not ok and k is None

    def test_three_by_three_needs_square(self):
        ok, k = tnn.is_irreducible_tnn(make([2, 2, 2], [1, 1]))
        assert ok and k == 2

    def test_requires_tnn(self):
        with pytest.raises(NotTnn):
            tnn.is_irreducible_tnn(make([0, 0], [1]))

    def test_gantmacher_krein_positive_simple_spectrum(self):
        found = 0
        while found < 150:
            n = int(RNG.integers(2, 6))
            L = random_tridiagonal(RNG, n, a_lo=0.0, a_hi=3.0)
            if not tnn.is_tnn_tridiagonal(L).is_tnn:
                continue
            ok, _ = tnn.is_irreducible_tnn(L)
            if not ok:
                continue
            found += 1
            s = lax.spectrum(L)
            assert s.positive
            assert np.min(np.diff(s.lambdas)) > lax.DEFAULT_SEPARATION


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


class TestInterlacing:
    def test_three_by_three_data(self):
        data = tnn.interlacing_spectra(make([2, 2, 2], [1, 1]))
        np.testing.assert_allclose(
            data.lambdas.lambdas, [2 - np.sqrt(2), 2, 2 + np.sqrt(2)], atol=1e-12
        )
        np.testing.assert_allclose(data.mus.lambdas, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(data.mus_prime.lambdas, [1.0, 3.0], atol=1e-12)
        assert tnn.check_interlacing(data)

    def test_two_by_two_scalars(self):
        data = tnn.interlacing_spectra(make([2, 2], [1]))
        np.testing.assert_allclose(data.lambdas.lambdas, [1.0, 3.0], atol=1e-13)
        np.testing.assert_allclose(data.mus.lambdas, [2.0])
        np.testing.assert_allclose(data.mus_prime.lambdas, [2.0])

    def test_swap_matrix_interlacing_false(self):
        # spectrum is real, so no error; positivity clause fails
        data = tnn.interlacing_spectra(make([0, 0], [1]))
        np.testing.assert_allclose(data.lambdas.lambdas, [-1.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(data.mus.lambdas, [0.0])
        assert not tnn.check_interlacing(data)

    def test_positivity_clause(self):
        data = tnn.InterlacingData(
            lambdas=lax.Spectrum(np.array([-1.0, 1.0])),
            mus=lax.Spectrum(np.array([0.0])),
            mus_prime=lax.Spectrum(np.array([0.0])),
        )
        assert not tnn.check_interlacing(data)

    def test_simple_interleave(self):
        data = tnn.InterlacingData(
            lambdas=lax.Spectrum(np.array([1.0, 3.0])),
            mus=lax.Spectrum(np.array([2.0])),
            mus_prime=lax.Spectrum(np.array([2.0])),
        )
        assert tnn.check_interlacing(data)

    def test_triple_equivalence_positive_offdiagonals(self):
        # exhaustive <=> tridiagonal criterion <=> interlacing, both corners
        for _ in range(800):
            n = int(RNG.integers(2, 7))
            L = random_tridiagonal(RNG, n)
            r1 = tnn.is_tnn_exhaustive(L).is_tnn
            r2 = tnn.is_tnn_tridiagonal(L).is_tnn
            data = tnn.interlacing_spectra(L)
            r3 = tnn.check_interlacing(data)
            assert r1 == r2 == r3, f"a={L.a}, b={L.b}: {r1} {r2} {r3}"
            swapped = tnn.InterlacingData(
                lambdas=data.lambdas, mus=data.mus_prime, mus_prime=data.mus
            )
            assert tnn.check_interlacing(swapped) == r3
