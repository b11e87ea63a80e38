"""Tests for total-nonnegativity, total-positivity and interlacing checks."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from todajac import lax, tnn, verify
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


def all_minors_totally_positive(M):
    """Reference: np.linalg.det of every square submatrix is positive."""
    n = M.shape[0]
    for k in range(1, n + 1):
        idx = np.array(list(itertools.combinations(range(n), k)))
        blocks = M[idx[:, None, :, None], idx[None, :, None, :]].reshape(-1, k, k)
        if not np.all(np.linalg.det(blocks) > 0.0):
            return False
    return True


def exact_det(A):
    """Determinant of a float matrix in exact rational arithmetic."""
    return fraction_det([[Fraction(float(x)) for x in row] for row in A])


def fraction_det(A):
    """Determinant of a matrix of Fractions by exact Gaussian elimination."""
    A = [list(row) for row in A]
    n, det = len(A), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            for j in range(c, n):
                A[r][j] -= f * A[c][j]
    return det


def initial_minor_blocks(M):
    """The n^2 contiguous blocks of M whose lower-right corner is (i, j) and
    that touch the first row or the first column."""
    n = M.shape[0]
    for i in range(n):
        for j in range(n):
            k = min(i, j) + 1
            yield M[i - k + 1:i + 1, j - k + 1:j + 1]


def exactly_totally_positive(P):
    """All n^2 initial minors of a Fraction matrix are positive (Gasca-Peña)."""
    return all(fraction_det(B) > 0 for B in initial_minor_blocks(P))


def reference_power_search(M, k_max):
    """Smallest k <= k_max with M**k totally positive by the all-minors reference."""
    power = np.eye(M.shape[0])
    for k in range(1, k_max + 1):
        power = power @ M
        if all_minors_totally_positive(power):
            return True, k
    return False, None


def tnn_tridiagonal_dense(rng, n, singular=False):
    """(unit lower bidiagonal) @ (upper bidiagonal, unit superdiagonal): TNN.

    With ``singular`` the last pivot is zero: the product and its powers are
    singular up to the rounding of the matrix products.
    """
    d = rng.uniform(0.1, 2.0, n)
    if singular:
        d[-1] = 0.0
    lower = np.eye(n) + np.diag(rng.uniform(0.05, 1.0, n - 1), -1)
    return lower @ (np.diag(d) + np.eye(n, k=1))


def total_positivity_corpus(rng):
    """Powers of TNN tridiagonals, exp(x_i y_j) kernels with one-entry
    perturbations, uniform dense matrices, and the transposes of all."""
    corpus = []
    for n in range(2, 9):
        for singular in (False, False, True):
            L = tnn_tridiagonal_dense(rng, n, singular)
            power = np.eye(n)
            for _ in range(2 * n):
                power = power @ L
                corpus.append(power)
        for _ in range(6):
            x, y = np.sort(rng.uniform(-1.5, 1.5, (2, n)), axis=1)
            K = np.exp(np.outer(x, y))
            corpus.append(K)
            for _ in range(4):
                P = K.copy()
                i, j = rng.integers(0, n, 2)
                P[i, j] *= rng.uniform(0.5, 1.5)
                corpus.append(P)
        corpus.extend(rng.uniform(0.0, 1.0, (n, n)) for _ in range(10))
    return corpus + [M.T for M in corpus]


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
        rejected = last_bits = lax_cases = lax_rejected = 0
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
            # the same windows as a LaxMatrix: unit superdiagonal, b = the coupling
            coupling = np.diag(M, 1) * np.diag(M, -1)
            if np.all(coupling != 0.0):
                L = lax.LaxMatrix(n=n, a=np.diag(M), b=coupling)
                report = tnn.is_tnn_tridiagonal(L, tol=tol)
                lax_got = (report.is_tnn, report.witness and (
                    report.witness.rows, report.witness.cols, report.witness.value
                ))
                lax_want = plain_loop_tridiagonal_criterion(L.to_dense(), tol)
                assert lax_got == lax_want, f"trial {trial}: L={L!r}, tol={tol}"
                lax_cases += 1
                lax_rejected += not lax_want[0]
            rejected += not want[0]
            last_bits += not want[0] and abs(want[1][2]) < 1e-13
        assert rejected > 1000 and last_bits > 50
        assert lax_cases > 1900 and lax_rejected > 1000

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

    def test_initial_minors_match_all_minors_reference(self):
        corpus = total_positivity_corpus(np.random.default_rng(5150))
        verdicts = [all_minors_totally_positive(M) for M in corpus]
        disputed = 0
        for M, want in zip(corpus, verdicts):
            if tnn.is_totally_positive(M) == want:
                continue
            # The float verdicts may part only where rounding decides one: the
            # matrix is exactly TP (the reference lost a sign), or LAPACK got
            # the sign of one of the initial minors wrong.
            assert not want, f"M={M!r}"
            exact = [exact_det(B) for B in initial_minor_blocks(M)]
            floats = [np.linalg.det(B) for B in initial_minor_blocks(M)]
            assert all(e > 0 for e in exact) or any(
                np.sign(f) != np.sign(e) for f, e in zip(floats, exact)
            ), f"M={M!r}"
            disputed += 1
        assert len(corpus) == 980 and 300 < sum(verdicts) < len(corpus) - 300
        assert disputed <= len(corpus) // 100


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

    def test_singular_repros_are_not_irreducible(self):
        # no power of a singular matrix is TP; the LU determinants of these
        # powers are positive rounding noise, which the power search trusted
        for a, b in (([1.0, 1.5, 0.5], [0.5, 0.5]), ([1.0, 2.0, 1.0], [1.0, 1.0])):
            assert exact_det(make(a, b).to_dense()) == 0
            assert tnn.is_irreducible_tnn(make(a, b)) == (False, None)

    def test_singular_dyadic_bidiagonal_products_are_not_irreducible(self):
        # (unit lower bidiagonal) @ (upper bidiagonal, unit superdiagonal)
        # with a zero last pivot: dyadic entries keep the product and its
        # window recurrence exact, and the product exactly singular
        rng = np.random.default_rng(9191)
        for n in range(2, 9):
            for _ in range(10):
                d = rng.integers(1, 9, n) / 4.0
                d[-1] = 0.0
                lower = np.eye(n) + np.diag(rng.integers(1, 5, n - 1) / 4.0, -1)
                M = lower @ (np.diag(d) + np.eye(n, k=1))
                assert exact_det(M) == 0
                assert tnn.is_tnn_tridiagonal(M).is_tnn
                assert tnn.is_irreducible_tnn(M) == (False, None), f"M={M!r}"

    def test_zero_coupling_is_not_irreducible(self):
        # a decoupled TNN tridiagonal: every power keeps the zero block
        M = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert tnn.is_tnn_tridiagonal(M).is_tnn and exact_det(M) > 0
        assert tnn.is_irreducible_tnn(M) == (False, None)
        assert tnn.is_irreducible_tnn(M.T) == (False, None)

    def test_closed_form_matches_all_minors_reference(self):
        # The float power search may part from the closed form only where
        # exact arithmetic overrules it: L**k is exactly totally positive for
        # the closed form's k, and L**(k-1) is not.
        rng = np.random.default_rng(8088)
        found = 0
        disputed = []
        for i in range(500):
            n = 2 + i % 5
            L = verify.sample_tnn_rejection(rng, n)
            dense = L.to_dense()
            result = tnn.is_irreducible_tnn(L)
            assert tnn.is_irreducible_tnn(dense) == result
            if result != reference_power_search(dense, 2 * n):
                ok, k = result
                assert ok, f"L={L!r}"
                exact = np.array([[Fraction(float(x)) for x in row] for row in dense], dtype=object)
                below = np.linalg.matrix_power(exact, k - 1)
                assert not exactly_totally_positive(below), f"L={L!r}"
                assert exactly_totally_positive(below @ exact), f"L={L!r}"
                disputed.append(i)
            found += result[0]
        assert found > 400
        assert disputed == [179]

    def test_closed_form_beyond_the_minor_gate(self):
        # n > 8 is past the total-positivity check's size gate; the closed
        # form needs no minors of a power
        rng = np.random.default_rng(9916)
        for n in range(9, 17):
            L = verify.sample_tnn_rejection(rng, n)
            assert tnn.is_irreducible_tnn(L) == (True, n - 1)
            assert tnn.is_irreducible_tnn(L.to_dense()) == (True, n - 1)
            assert tnn.is_irreducible_tnn(L, k_max=n - 2) == (False, None)
            with pytest.raises(TooLarge):
                tnn.is_totally_positive(L.to_dense())

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
