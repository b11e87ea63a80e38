"""Tests for tridiagonal Lax-matrix primitives.

Expected values are frozen from independent oracles: dense determinant
evaluation plus interpolation for polynomials, LAPACK eigensolves for
spectra, and hand-checkable 2x2 / 3x3 cofactor expansions.
"""

import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from todajac import jacobi, lax, verify
from todajac.errors import (
    BadIndex,
    NonGeneralDivisor,
    NonRealSpectrum,
    NonSimpleSpectrum,
    RangeExceeded,
    SpectrumOverflow,
)

RNG = np.random.default_rng(20240811)


def make(a, b):
    a = np.asarray(a, dtype=float)
    return lax.LaxMatrix(n=a.size, a=a, b=np.asarray(b, dtype=float))


def check_against_charpoly_oracle(n, eigenvalues):
    """``eigenvalues(L)`` on cone matrices with b down to exp(-8), checked with
    no LAPACK on the checking side: sign changes of det(L - x E) from the
    value recurrence, the trace, and the companion-root route."""
    rng = np.random.default_rng(9000 + n)
    for _ in range(40):
        a = rng.uniform(-2, 2, n)
        b = np.exp(rng.uniform(-8.0, 1.0, n - 1))
        L = make(a, b)
        lams = eigenvalues(L)
        assert lams.shape == (n,) and np.all(np.diff(lams) > 0)
        scale = float(np.max(np.abs(lams)))
        pad = 1e-12 * max(scale, 1.0)
        probes = np.concatenate([[lams[0] - pad], 0.5 * (lams[:-1] + lams[1:]), [lams[-1] + pad]])
        values, _ = lax._charpoly_value_and_derivative(L, probes)
        np.testing.assert_array_equal(np.sign(values), (-1.0) ** np.arange(n + 1))
        assert abs(lams.sum() - a.sum()) <= 1e-13 * max(float(np.sum(np.abs(lams))), 1.0)
        roots = lax.charpoly_root_eigenvalues(L)
        assert np.max(np.abs(lams - roots)) <= 1e-12 * scale


def charpoly_oracle(L):
    """Fit (-1)^n det(L - x E) from dense determinants at n+1 nodes."""
    n = L.n
    dense = L.to_dense()
    nodes = np.linspace(-1.7, 2.3, n + 1)
    vals = [((-1.0) ** n) * np.linalg.det(dense - x * np.eye(n)) for x in nodes]
    V = np.vander(nodes, n + 1, increasing=True)
    return np.linalg.solve(V, np.array(vals))


def companion_root_eigenvalues(L, imag_tol=lax.DEFAULT_IMAG_TOL):
    """Polished roots of char_poly from its companion matrix: the fallback
    route before it moved to LAPACK eigvals, kept as an oracle."""
    roots = npoly.polyroots(lax.char_poly(L))
    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.any(np.abs(roots.imag) > imag_tol * scale):
        raise NonRealSpectrum("companion root off the real axis")
    lams = roots.real.copy()
    for _ in range(3):
        val, der = lax._charpoly_value_and_derivative(L, lams)
        step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
        lams = lams - np.clip(step, -0.1 * scale, 0.1 * scale)
    return np.sort(lams)


def cofactor_minor_oracle(dense, i, j):
    """(i, j)-minor by deleting one row and one column (0-based)."""
    sub = np.delete(np.delete(dense, i, axis=0), j, axis=1)
    if sub.size == 0:
        return 1.0
    return float(np.linalg.det(sub))


# ---------------------------------------------------------------------------
# LaxMatrix / Spectrum types
# ---------------------------------------------------------------------------


class TestLaxMatrix:
    def test_dense_layout(self):
        L = make([1.0, 2.0, 3.0], [4.0, 5.0])
        expected = np.array([[1, 1, 0], [4, 2, 1], [0, 5, 3]], dtype=float)
        np.testing.assert_array_equal(L.to_dense(), expected)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            lax.LaxMatrix(n=1, a=np.array([1.0]), b=np.array([]))

    def test_rejects_zero_subdiagonal(self):
        with pytest.raises(ValueError):
            make([1.0, 2.0], [0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            lax.LaxMatrix(n=3, a=np.array([1.0, 2.0, 3.0]), b=np.array([1.0, 2.0, 3.0]))

    def test_json_round_trip(self):
        L = make([0.5, -1.5, 2.0], [1.0, -0.25])
        back = lax.LaxMatrix.from_json_dict(L.to_json_dict())
        np.testing.assert_array_equal(back.a, L.a)
        np.testing.assert_array_equal(back.b, L.b)

    def test_json_rejects_gamma_violation(self):
        with pytest.raises(ValueError):
            lax.LaxMatrix.from_json_dict({"n": 2, "a": [1.0, 1.0], "b": [0.0]})

    def test_arrays_read_only(self):
        L = make([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            L.a[0] = 5.0

    def test_trusted_keeps_read_only_bands_and_copies_writable_ones(self):
        stack = lax._readonly([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        kept = lax.LaxMatrix._trusted(n=3, a=stack[1], b=stack[0, :2])
        assert np.shares_memory(kept.a, stack) and np.shares_memory(kept.b, stack)
        # a flag the user cleared, the user can set again
        user = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        user.setflags(write=False)
        copied = lax.LaxMatrix._trusted(n=3, a=user[1], b=user[0, :2])
        assert not np.shares_memory(copied.a, user) and not np.shares_memory(copied.b, user)
        buf = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        copied = lax.LaxMatrix._trusted(n=3, a=buf[:3], b=buf[3:])
        assert not np.shares_memory(copied.a, buf) and not np.shares_memory(copied.b, buf)
        assert not copied.a.flags.writeable and not copied.b.flags.writeable

    def test_trusted_copies_a_writable_view_of_a_read_only_array(self):
        # views taken before the flag was cleared stay writable
        buf = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        a, b = buf[:3], buf[3:]
        buf.setflags(write=False)
        L = lax.LaxMatrix._trusted(n=3, a=a, b=b)
        assert not np.shares_memory(L.a, buf) and not np.shares_memory(L.b, buf)


class TestSpectrum:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            lax.Spectrum(lambdas=np.array([3.0, 1.0]))

    def test_separation_gate(self):
        with pytest.raises(NonSimpleSpectrum):
            lax.Spectrum(lambdas=np.array([1.0, 1.0 + 1e-12]))

    def test_positive_flag(self):
        assert lax.Spectrum(lambdas=np.array([0.5, 2.0])).positive
        assert not lax.Spectrum(lambdas=np.array([-0.5, 2.0])).positive
        assert not lax.Spectrum(lambdas=np.array([0.0, 2.0])).positive


# ---------------------------------------------------------------------------
# char_poly
# ---------------------------------------------------------------------------


class TestCharPoly:
    def test_two_by_two(self):
        np.testing.assert_allclose(
            lax.char_poly(make([2, 2], [1])), [3.0, -4.0, 1.0], atol=1e-14
        )

    def test_zero_diagonal(self):
        c = 0.37
        np.testing.assert_allclose(
            lax.char_poly(make([0, 0], [c])), [-c, 0.0, 1.0], atol=1e-14
        )

    def test_three_by_three(self):
        np.testing.assert_allclose(
            lax.char_poly(make([2, 2, 2], [1, 1])), [-4.0, 10.0, -6.0, 1.0], atol=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_determinant_oracle(self, n):
        for _ in range(20):
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1) * RNG.choice([-1, 1], n - 1))
            np.testing.assert_allclose(
                lax.char_poly(L), charpoly_oracle(L), rtol=1e-10, atol=1e-10
            )

    def test_monic(self):
        for _ in range(10):
            n = int(RNG.integers(2, 8))
            L = make(RNG.uniform(-3, 3, n), RNG.uniform(0.2, 2, n - 1))
            assert lax.char_poly(L)[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


class TestSpectrumOp:
    def test_two_by_two(self):
        np.testing.assert_allclose(
            lax.spectrum(make([2, 2], [1])).lambdas, [1.0, 3.0], atol=1e-13
        )

    def test_three_by_three(self):
        s = lax.spectrum(make([2, 2, 2], [1, 1]))
        np.testing.assert_allclose(
            s.lambdas, [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12
        )
        assert s.positive

    def test_rotation_matrix_raises_non_real(self):
        with pytest.raises(NonRealSpectrum):
            lax.spectrum(make([0, 0], [-1]))

    def test_near_degenerate_raises_non_simple(self):
        with pytest.raises(NonSimpleSpectrum):
            lax.spectrum(make([1, 1], [1e-30]))

    def test_overflowing_polish_raises_spectrum_overflow(self):
        with pytest.raises(SpectrumOverflow):
            lax.spectrum(make(np.linspace(0.0, 0.7, 8), np.full(7, -1e200)))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_sturm_matches_lapack_oracle(self, n):
        for _ in range(25):
            a = RNG.uniform(-2, 2, n)
            b = RNG.uniform(0.05, 2.0, n - 1)
            T = np.diag(a) + np.diag(np.sqrt(b), 1) + np.diag(np.sqrt(b), -1)
            np.testing.assert_allclose(
                lax.spectrum(make(a, b)).lambdas, np.linalg.eigvalsh(T), atol=1e-11
            )

    def test_sturm_and_root_fallback_agree(self):
        # dual-route consistency on positive subdiagonals
        for _ in range(60):
            n = int(RNG.integers(2, 7))
            a = RNG.uniform(0.3, 8.0, n)
            a.sort()
            b = RNG.uniform(0.05, 1.5, n - 1)
            try:
                L = make(a, b)
                s_bisect = lax.symmetric_tridiagonal_eigenvalues(L.a, np.sqrt(L.b))
                s_roots = lax.charpoly_root_eigenvalues(L)
            except NonSimpleSpectrum:
                continue
            assert np.max(np.abs(s_bisect - s_roots)) < 1e-10

    def test_mixed_sign_subdiagonal_real_case(self):
        # [[0,1],[1,0]] has a real simple spectrum despite failing positivity
        s = lax.spectrum(make([0, 0], [1]))
        np.testing.assert_allclose(s.lambdas, [-1.0, 1.0], atol=1e-13)
        assert not s.positive

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symmetric_route_matches_charpoly_oracle(self, n):
        check_against_charpoly_oracle(
            n, lambda L: lax.symmetric_tridiagonal_eigenvalues(L.a, np.sqrt(L.b))
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_spectrum_matches_charpoly_oracle(self, n):
        # the eigh route that spectrum takes for b > 0, on the same matrices
        check_against_charpoly_oracle(n, lambda L: lax.spectrum(L).lambdas)

    def test_sign_mixed_fallback_matches_companion_oracle(self):
        # non-cone points over spectra in (0.5, 2.5) with gaps >= 0.05 and
        # coordinate log range 1, reconstructed through the tau functions
        rng = np.random.default_rng(2585)
        cases = 0
        for i in range(700):
            n = 2 + i % 7
            spec = verify.sample_spectrum(rng, n, 0.5, 2.5, min_gap=0.05)
            cone = jacobi.alternating_signs(n)
            signs = cone
            while signs == cone:
                signs = tuple(float(s) for s in rng.choice([-1.0, 1.0], n - 1))
            try:
                L = jacobi.reconstruct(spec, verify.sample_point(rng, n, signs, 1.0))
            except NonGeneralDivisor:
                continue
            if np.all(L.b > 0):
                continue
            cases += 1
            lams = lax.charpoly_root_eigenvalues(L)
            want = companion_root_eigenvalues(L)
            np.testing.assert_allclose(lams, want, rtol=1e-9, atol=0, err_msg=f"L={L!r}")
        assert cases > 600

    def test_sign_mixed_fallback_non_real_verdict_matches_companion_oracle(self):
        rng = np.random.default_rng(4242)
        raised = 0
        for i in range(2000):
            n = 2 + i % 7
            b = rng.uniform(0.05, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            L = make(rng.uniform(-2.0, 2.0, n), b)
            try:
                companion_root_eigenvalues(L)
            except NonRealSpectrum:
                with pytest.raises(NonRealSpectrum):
                    lax.charpoly_root_eigenvalues(L)
                raised += 1
            else:
                lax.charpoly_root_eigenvalues(L)
        assert 500 < raised < 1900

    def test_symmetric_route_small_and_malformed_inputs(self):
        np.testing.assert_array_equal(
            lax.symmetric_tridiagonal_eigenvalues([2.5], []), [2.5]
        )
        with pytest.raises(ValueError, match="length n-1"):
            lax.symmetric_tridiagonal_eigenvalues([1.0, 2.0, 3.0], [0.5])
        with pytest.raises(ValueError, match="length n-1"):
            lax.symmetric_tridiagonal_eigenvalues([1.0, 2.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# minor
# ---------------------------------------------------------------------------


class TestMinor:
    def test_full_two_by_two(self):
        assert lax.minor([[2, 1], [1, 2]], (0, 1), (0, 1)) == pytest.approx(3.0)

    def test_single_entry(self):
        M = RNG.uniform(-1, 1, (4, 4))
        assert lax.minor(M, (2,), (3,)) == pytest.approx(M[2, 3])

    def test_equal_rows_vanish(self):
        assert lax.minor([[1, 1], [1, 1]], (0, 1), (0, 1)) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "rows,cols",
        [((1, 0), (0, 1)), ((0, 0), (0, 1)), ((0, 5), (0, 1)), ((0,), (0, 1)), ((), ())],
    )
    def test_bad_indices(self, rows, cols):
        with pytest.raises(BadIndex):
            lax.minor(np.eye(3), rows, cols)

    def test_non_square_matrix(self):
        with pytest.raises(BadIndex, match="^matrix must be square$"):
            lax.minor(np.ones((2, 3)), (0,), (0,))

    @pytest.mark.parametrize("rows", [("x",), None])
    def test_non_integer_indices(self, rows):
        with pytest.raises(BadIndex, match="^rows must be a sequence of integers$"):
            lax.minor(np.eye(3), rows, (0,))

    def test_matches_numpy_det(self):
        M = RNG.uniform(-2, 2, (7, 7))
        for k in (1, 2, 3, 4, 5):
            rows = tuple(sorted(RNG.choice(7, k, replace=False)))
            cols = tuple(sorted(RNG.choice(7, k, replace=False)))
            expected = np.linalg.det(M[np.ix_(rows, cols)]) if k > 1 else M[rows[0], cols[0]]
            assert lax.minor(M, rows, cols) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# chop integral
# ---------------------------------------------------------------------------


class TestChopIntegral:
    def test_two_by_two(self):
        np.testing.assert_allclose(lax.chop_integral(make([2, 2], [1])), [2.0, -1.0])

    def test_three_by_three(self):
        np.testing.assert_allclose(
            lax.chop_integral(make([2, 2, 2], [1, 1])), [3.0, -4.0, 1.0], atol=1e-13
        )

    def test_ignores_first_row_and_column(self):
        p, q, r = 0.3, -1.7, 0.9
        np.testing.assert_allclose(lax.chop_integral(make([p, q], [r])), [q, -1.0])

    def test_leading_coefficient_sign(self):
        for n in (2, 3, 4, 5, 6):
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1))
            coeffs = lax.chop_integral(L)
            assert coeffs.size == n
            assert coeffs[-1] == pytest.approx((-1.0) ** (n - 1))

    def test_values_match_coefficients(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1))
            xs = RNG.uniform(-3, 3, 5)
            np.testing.assert_allclose(
                lax.chop_values(L, xs),
                npoly.polyval(xs, lax.chop_integral(L)),
                rtol=1e-9,
                atol=1e-9,
            )

    def test_matches_cofactor_oracle(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1))
            x = float(RNG.uniform(-2, 2))
            dense = L.to_dense() - x * np.eye(n)
            assert lax.chop_values(L, x)[0] == pytest.approx(
                cofactor_minor_oracle(dense, 0, 0), rel=1e-10
            )


# ---------------------------------------------------------------------------
# cofactor vectors
# ---------------------------------------------------------------------------


class TestCofactorVectors:
    def test_two_by_two_values(self):
        vm, vp = lax.cofactor_vectors(make([2, 2], [1]))
        np.testing.assert_allclose(vm[0], [1.0])
        np.testing.assert_allclose(vm[1], [-2.0, 1.0])
        np.testing.assert_allclose(vp[0], [2.0, -1.0])
        np.testing.assert_allclose(vp[1], [-1.0])

    def test_three_by_three_plus_vector(self):
        _, vp = lax.cofactor_vectors(make([2, 2, 2], [1, 1]))
        np.testing.assert_allclose(vp[0], [3.0, -4.0, 1.0])
        np.testing.assert_allclose(vp[1], [-2.0, 1.0])
        np.testing.assert_allclose(vp[2], [1.0])

    def test_first_minus_entry_constant_one(self):
        for _ in range(10):
            n = int(RNG.integers(2, 8))
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1))
            vm, _ = lax.cofactor_vectors(L)
            np.testing.assert_array_equal(vm[0], [1.0])

    def test_degree_and_leading_coefficients(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1) * RNG.choice([-1, 1], n - 1))
            vm, vp = lax.cofactor_vectors(L)
            assert len(vm) == len(vp) == n
            sign = (-1.0) ** (n - 1)
            bprod = 1.0
            for i in range(n):
                assert vm[i].size == i + 1
                assert vm[i][-1] == pytest.approx(1.0)
                assert vp[i].size == n - i
                assert vp[i][-1] == pytest.approx(sign * bprod, rel=1e-11)
                if i < n - 1:
                    bprod *= L.b[i]

    def test_cofactor_oracle_rows(self):
        # signed minors along the last and first rows, up to normalization
        n = 4
        L = make(RNG.uniform(-1, 1, n), RNG.uniform(0.2, 1.5, n - 1))
        x = 0.63
        dense = L.to_dense() - x * np.eye(n)
        vm, vp = lax.cofactor_vectors(L)
        norm = (-1.0) ** (n + 1)
        for j in range(1, n + 1):
            raw_minus = ((-1.0) ** (n + j)) * cofactor_minor_oracle(dense, n - 1, j - 1)
            assert npoly.polyval(x, vm[j - 1]) == pytest.approx(norm * raw_minus, rel=1e-9)
            raw_plus = ((-1.0) ** (1 + j)) * cofactor_minor_oracle(dense, 0, j - 1)
            assert npoly.polyval(x, vp[j - 1]) == pytest.approx(raw_plus, rel=1e-9)

    def test_kernel_at_eigenvalues(self):
        for _ in range(10):
            n = int(RNG.integers(2, 6))
            L = make(RNG.uniform(0.5, 3, n), RNG.uniform(0.2, 1.5, n - 1))
            dense = L.to_dense()
            vm, vp = lax.cofactor_vectors(L)
            for lam in lax.spectrum(L).lambdas:
                for vec in (vm, vp):
                    v = np.array([npoly.polyval(lam, vec[i]) for i in range(n)])
                    resid = (dense - lam * np.eye(n)) @ v
                    assert np.max(np.abs(resid)) < 1e-8 * max(1.0, np.max(np.abs(v)))

    def test_proportionality_at_eigenvalues(self):
        # chop(lam) * v_minus(lam) agrees with v_plus(lam) at every eigenvalue
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            L = make(RNG.uniform(0.5, 4, n), RNG.uniform(0.2, 1.5, n - 1))
            vm, vp = lax.cofactor_vectors(L)
            lams = lax.spectrum(L).lambdas
            chop = lax.chop_values(L, lams)
            for i, lam in enumerate(lams):
                for k in range(n):
                    lhs = chop[i] * npoly.polyval(lam, vm[k])
                    rhs = npoly.polyval(lam, vp[k])
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_mod_charpoly_kernel_identity(self):
        # (L - x E) v(x) is divisible by the characteristic polynomial, row by row
        L = make([1.2, 0.4, 2.1], [0.7, 1.3])
        f = lax.char_poly(L)
        vm, _ = lax.cofactor_vectors(L)
        dense_rows = [
            [(np.array([L.to_dense()[i, j]]) if i != j else np.array([L.a[i], -1.0]))
             for j in range(L.n)]
            for i in range(L.n)
        ]
        for i in range(L.n):
            total = np.zeros(1)
            for j in range(L.n):
                total = npoly.polyadd(total, npoly.polymul(dense_rows[i][j], vm[j]))
            _, rem = npoly.polydiv(total, f)
            assert np.max(np.abs(rem)) < 1e-10


# ---------------------------------------------------------------------------
# minor-polynomial recurrence
# ---------------------------------------------------------------------------


def frozen_leading_minor_polys(L):
    """The separate leading-minor recurrence that preceded lax._minor_polys."""
    polys = [np.array([1.0])]
    prev = np.array([1.0])
    cur = np.array([L.a[0], -1.0])
    polys.append(cur)
    for k in range(2, L.n + 1):
        nxt = npoly.polymul(np.array([L.a[k - 1], -1.0]), cur)
        nxt = npoly.polysub(nxt, L.b[k - 2] * prev)
        polys.append(nxt)
        prev, cur = cur, nxt
    return polys


def frozen_trailing_minor_polys(L):
    """The separate trailing-minor recurrence, keyed by math index k = 1..n+1."""
    polys = {L.n + 1: np.array([1.0]), L.n: np.array([L.a[-1], -1.0])}
    for k in range(L.n - 1, 0, -1):
        nxt = npoly.polymul(np.array([L.a[k - 1], -1.0]), polys[k + 1])
        nxt = npoly.polysub(nxt, L.b[k - 1] * polys[k + 2])
        polys[k] = nxt
    return polys


class TestMinorPolynomials:
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_matches_frozen_separate_recurrences_bit_for_bit(self, signs):
        # one recurrence on the bands and on the reversed bands gives the same
        # bits as the two recurrences it replaced
        rng = np.random.default_rng(3083)
        for n in range(2, 9):
            for _ in range(40):
                b = np.exp(rng.uniform(-8.0, 1.0, n - 1))
                if signs == "mixed":
                    b *= rng.choice([-1.0, 1.0], n - 1)
                L = make(rng.uniform(-2.0, 3.0, n), b)
                lead = frozen_leading_minor_polys(L)
                trail = frozen_trailing_minor_polys(L)
                assert np.array_equal(lax.char_poly(L), lead[n] * ((-1.0) ** n))
                assert np.array_equal(lax.chop_integral(L), trail[2])
                vm, vp = lax.cofactor_vectors(L)
                bprod = 1.0
                for j in range(1, n + 1):
                    assert np.array_equal(vm[j - 1], ((-1.0) ** (j - 1)) * lead[j - 1])
                    assert np.array_equal(vp[j - 1], ((-1.0) ** (j + 1)) * bprod * trail[j + 1])
                    if j <= n - 1:
                        bprod *= L.b[j - 1]


# ---------------------------------------------------------------------------
# divisor of a component
# ---------------------------------------------------------------------------


class TestDivisorOfComponent:
    def test_first_component(self):
        d = lax.divisor_of_component(make([2, 2], [1]), 1)
        assert d.roots_minus.size == 0
        np.testing.assert_allclose(d.roots_plus, [2.0])
        assert not d.off_real_axis

    def test_second_component(self):
        d = lax.divisor_of_component(make([2, 2], [1]), 2)
        np.testing.assert_allclose(d.roots_minus, [2.0])
        assert d.roots_plus.size == 0

    def test_first_component_has_no_minus_roots(self):
        for _ in range(5):
            n = int(RNG.integers(2, 7))
            L = make(RNG.uniform(-2, 2, n), RNG.uniform(0.1, 2, n - 1))
            assert lax.divisor_of_component(L, 1).roots_minus.size == 0

    def test_root_counts(self):
        L = make(RNG.uniform(0.5, 3, 5), RNG.uniform(0.2, 1.5, 4))
        for k in range(1, 6):
            d = lax.divisor_of_component(L, k)
            assert d.roots_minus.size == k - 1
            assert d.roots_plus.size == 5 - k

    def test_index_out_of_range(self):
        L = make([2, 2], [1])
        for k in (0, 3, -1):
            with pytest.raises(BadIndex):
                lax.divisor_of_component(L, k)

    # the component's scale b_1*...*b_{k-1} leaves double range in these;
    # the suite turns any numpy warning into an error

    def test_underflowing_scale_moves_no_root(self):
        L = make([1, 2, 3, 4], [1e-200] * 3)
        for k, minus, plus in [(3, [1, 2], [4]), (4, [1, 2, 3], [])]:
            d = lax.divisor_of_component(L, k)
            np.testing.assert_allclose(d.roots_minus, minus, rtol=1e-12)
            np.testing.assert_allclose(d.roots_plus, plus, rtol=1e-12)
            assert not d.off_real_axis

    def test_overflowing_scale_moves_no_root(self):
        L = make([1, 2, 3, 4], [1e200] * 3)
        d = lax.divisor_of_component(L, 2)
        np.testing.assert_allclose(d.roots_minus, [1.0], rtol=1e-12)
        np.testing.assert_allclose(d.roots_plus, [-1e100, 1e100], rtol=1e-12)
        d = lax.divisor_of_component(L, 3)
        np.testing.assert_allclose(d.roots_minus, [-1e100, 1e100], rtol=1e-12)
        np.testing.assert_allclose(d.roots_plus, [4.0], rtol=1e-12)

    def test_minor_beyond_double_range_is_range_exceeded(self):
        # the 4x4 leading minor has the term b_1 * b_3 = 1e400
        L = make([1, 2, 3, 4, 5, 6], [1e200] * 5)
        with pytest.raises(RangeExceeded, match="^the minors of component 5 leave") as info:
            lax.divisor_of_component(L, 5)
        assert info.value.time == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lax.Spectrum(np.ones((2, 2))), "spectrum must be a nonempty 1-D array"),
        (
            lambda: lax.PolynomialVector(entries=(np.array([1.0]),), variable="z"),
            "variable tag must be 'x' or 'y'",
        ),
    ],
    ids=["spectrum-2d", "polynomial-tag"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
