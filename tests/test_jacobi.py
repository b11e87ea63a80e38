"""Tests for tau determinants, the linearization map and its inverse.

The 2x2 tau values are frozen from hand evaluation of the determinants under
the calibrated sign convention; everything larger is checked against
independent routes (theta determinants, flow solvers, brute-force cofactor
evaluation) or against invariants that admit direct verification.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from todajac import flow, jacobi, lax, tnn
from todajac.errors import NonGeneralDivisor, NonPositiveZ, RangeExceeded, ZeroCofactorValue

RNG = np.random.default_rng(424242)

SPEC13 = lax.Spectrum(np.array([1.0, 3.0]))


def make(a, b):
    a = np.asarray(a, dtype=float)
    return lax.LaxMatrix(n=a.size, a=a, b=np.asarray(b, dtype=float))


def random_spectrum(rng, n, lo=0.3, hi=8.0, min_gap=0.15):
    while True:
        lams = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(lams)) > min_gap:
            return lax.Spectrum(lams)


def random_cone_point(rng, n, log_range=2.5):
    signs = np.array([(-1.0) ** i for i in range(n)])
    return jacobi.JacobiPoint.from_raw(signs * np.exp(rng.uniform(-log_range, log_range, n)))


# ---------------------------------------------------------------------------
# JacobiPoint / SignComponent types
# ---------------------------------------------------------------------------


class TestJacobiPoint:
    def test_normalizes_first_entry(self):
        P = jacobi.JacobiPoint.from_raw([2.0, -4.0, 6.0])
        np.testing.assert_allclose(P.f, [1.0, -2.0, 3.0])

    def test_negative_leading_entry_flips(self):
        P = jacobi.JacobiPoint.from_raw([-2.0, 4.0])
        np.testing.assert_allclose(P.f, [1.0, -2.0])

    def test_scale_invariance(self):
        P = jacobi.JacobiPoint.from_raw([1.0, -0.5, 2.0])
        Q = jacobi.JacobiPoint.from_raw([-3.0, 1.5, -6.0])
        assert P.allclose(Q, rtol=1e-14)

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            jacobi.JacobiPoint.from_raw([1.0, 0.0])

    def test_json_round_trip_normalizes(self):
        P = jacobi.JacobiPoint.from_json_dict({"f": [2.0, 1.0]})
        np.testing.assert_allclose(P.f, [1.0, 0.5])
        assert P.to_json_dict() == {"f": [1.0, 0.5]}


class TestSignComponent:
    def test_cone_two(self):
        sc, cone = jacobi.sign_component(jacobi.JacobiPoint.from_raw([1.0, -1.0]))
        assert sc.signs == (-1,) and cone
        assert str(sc) == "-"

    def test_cone_three(self):
        sc, cone = jacobi.sign_component(jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0]))
        assert sc.signs == (-1, 1) and cone

    def test_non_cone(self):
        sc, cone = jacobi.sign_component(jacobi.JacobiPoint.from_raw([1.0, 1.0]))
        assert sc.signs == (1,) and not cone
        assert str(sc) == "+"

    def test_string_round_trip(self):
        sc = jacobi.SignComponent.from_string("-+-")
        assert sc.signs == (-1, 1, -1) and str(sc) == "-+-"

    def test_pattern_count(self):
        import itertools

        n = 4
        patterns = {
            jacobi.sign_component(
                jacobi.JacobiPoint.from_raw(np.concatenate(([1.0], sig)))
            )[0].signs
            for sig in itertools.product([1.0, -1.0], repeat=n - 1)
        }
        assert len(patterns) == 2 ** (n - 1)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


class TestTheta:
    def test_equal_columns_vanish(self):
        assert jacobi.theta(1, [1.0, 1.0], SPEC13) == pytest.approx(0.0, abs=1e-14)

    def test_pure_vandermonde(self):
        assert jacobi.theta(0, [1.0, 1.0], SPEC13) == pytest.approx(2.0)

    def test_mixed_example(self):
        assert jacobi.theta(1, [1.0, 4.0], SPEC13) == pytest.approx(1.5)

    def test_rejects_nonpositive(self):
        for bad in ([1.0, -1.0], [0.0, 1.0]):
            with pytest.raises(NonPositiveZ):
                jacobi.theta(1, bad, SPEC13)


# ---------------------------------------------------------------------------
# tau sequences
# ---------------------------------------------------------------------------


class TestTauSequence:
    def test_frozen_two_by_two(self):
        ts = jacobi.tau_sequence(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -1.0]))
        np.testing.assert_allclose(ts.tau, [2.0, 2.0, 2.0], atol=1e-13)
        np.testing.assert_allclose(ts.tau_prime, [0.0, 4.0, 8.0], atol=1e-13)

    def test_frozen_two_by_two_scaled(self):
        ts = jacobi.tau_sequence(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -2.0]))
        np.testing.assert_allclose(ts.tau, [2.0, 3.0, 4.0], atol=1e-13)
        np.testing.assert_allclose(ts.tau_prime, [0.0, 7.0, 16.0], atol=1e-13)

    def test_non_general_point_vanishes(self):
        ts = jacobi.tau_sequence(SPEC13, jacobi.JacobiPoint.from_raw([1.0, 1.0]))
        assert ts.tau[1] == pytest.approx(0.0, abs=1e-14)
        assert ts.sign_tau[1] == 0.0

    def test_tau0_is_vandermonde(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n)
            f = RNG.uniform(0.2, 2.0, n) * RNG.choice([-1.0, 1.0], n)
            ts = jacobi.tau_sequence(spec, f)
            lams = spec.lambdas
            vdm = np.prod([lams[j] - lams[i] for i in range(n) for j in range(i + 1, n)])
            assert ts.tau[0] == pytest.approx(vdm, rel=1e-10)
            assert ts.tau[0] > 0
            assert ts.n == n

    def test_tau_prime_zero_convention(self):
        ts = jacobi.tau_sequence(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -1.0]))
        assert ts.tau_prime[0] == 0.0

    def test_cone_points_all_positive(self):
        for _ in range(300):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, lo=0.1, hi=10.0)
            ts = jacobi.tau_sequence(spec, random_cone_point(RNG, n, log_range=3.0))
            assert np.all(ts.tau > 0.0)

    def test_theta_tau_relation(self):
        # theta * sqrt(prod Z) equals tau up to the calibrated sign
        for _ in range(100):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n)
            Z = np.exp(RNG.uniform(-3, 3, n))
            ts = jacobi.tau_sequence(spec, Z)
            eps = jacobi.epsilon_signs(n)
            rootprod = math.exp(0.5 * float(np.sum(np.log(Z))))
            for k in range(n + 1):
                lhs = eps[k] * jacobi.theta(k, Z, spec) * rootprod
                assert abs(lhs - ts.tau[k]) <= 1e-10 * max(abs(ts.tau[k]), 1e-30)

    def test_trace_identity(self):
        # sum of reconstructed diagonal equals sum of eigenvalues
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n)
            ts = jacobi.tau_sequence(spec, random_cone_point(RNG, n))
            ratio = ts.tau_prime[n] / ts.tau[n]
            assert ratio == pytest.approx(float(np.sum(spec.lambdas)), rel=1e-9)

    def test_log_companions_consistent(self):
        ts = jacobi.tau_sequence(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -2.0]))
        np.testing.assert_allclose(
            ts.sign_tau * np.exp(ts.log_abs_tau), ts.tau, rtol=1e-13
        )


# ---------------------------------------------------------------------------
# linearization map
# ---------------------------------------------------------------------------


class TestAbelJacobi:
    def test_two_by_two(self):
        np.testing.assert_allclose(jacobi.abel_jacobi(make([2, 2], [1])).f, [1.0, -1.0], atol=1e-12)

    def test_three_by_three(self):
        np.testing.assert_allclose(
            jacobi.abel_jacobi(make([2, 2, 2], [1, 1])).f, [1.0, -1.0, 1.0], atol=1e-10
        )

    def test_two_by_two_always_alternating(self):
        # the product of the two cofactor values is -r < 0, so every n=2
        # matrix with positive subdiagonal maps into the alternating cone
        for _ in range(50):
            p, q = RNG.uniform(-2, 3, 2)
            r = float(RNG.uniform(0.05, 3.0))
            _, cone = jacobi.sign_component(jacobi.abel_jacobi(make([p, q], [r])))
            assert cone

    def test_two_by_two_symmetric_diagonal(self):
        # with equal diagonal entries the two values have equal magnitude
        for _ in range(10):
            p = float(RNG.uniform(-1, 2))
            r = float(RNG.uniform(0.05, 3.0))
            np.testing.assert_allclose(
                jacobi.abel_jacobi(make([p, p], [r])).f, [1.0, -1.0], atol=1e-10
            )

    def test_zero_cofactor_raises(self):
        # nearly decoupled blocks put an eigenvalue on top of a cofactor root
        with pytest.raises(ZeroCofactorValue):
            jacobi.abel_jacobi(make([1.0, 2.0], [1e-13]))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_spectrum_without_vectors_takes_its_own_eigh(self, n):
        # a Spectrum holds its eigenvalues only; the eigenvectors are L's own
        # memo, so a validated Spectrum must land on the same bits
        rng = np.random.default_rng(5150 + n)
        for _ in range(25):
            L = make(rng.uniform(-2.0, 3.0, n), np.exp(rng.uniform(-3.0, 1.0, n - 1)))
            spec = lax.spectrum(L)
            assert vars(spec).keys() == {"lambdas"}
            assert not L._eigh[1].flags.writeable
            bare = lax.Spectrum(spec.lambdas)
            assert vars(bare).keys() == {"lambdas"}
            np.testing.assert_array_equal(
                jacobi.abel_jacobi(L, spec=bare).f, jacobi.abel_jacobi(L).f
            )

    def test_one_eigh_per_matrix(self, monkeypatch):
        # spectrum, abel_jacobi with any spectrum, and Symes's QR route all
        # read the one eigh a b > 0 matrix memoizes
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix, *args, **kwargs):
            calls.append(np.shape(matrix))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        L = make([0.5, 1.0, 2.0, 3.0], [0.3, 1.2, 0.7])
        lams = lax.spectrum(L).lambdas
        jacobi.abel_jacobi(L, spec=lax.Spectrum(lams))
        jacobi.abel_jacobi(L)
        flow.solve_symes(L, 0.3)
        assert calls == [(4, 4)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_spectrum_of_another_class_member(self, n):
        # a Spectrum stands for its whole isospectral class, but the
        # eigenvectors of L0's eigh belong to L0 alone: the flowed
        # matrix and a matrix rebuilt from another point (any signs) must map
        # to their own coordinates, not to those of L0
        rng = np.random.default_rng(6160 + n)
        for _ in range(10):
            L0 = jacobi.reconstruct(random_spectrum(rng, n), random_cone_point(rng, n, 1.5))
            spec = lax.spectrum(L0)
            F0 = jacobi.abel_jacobi(L0, spec=spec)
            for t in (-0.4, 0.5):
                Ft = jacobi.abel_jacobi(flow.solve_tau(L0, t), spec=spec)
                expected = jacobi.evolve_point(F0, spec, t)
                assert np.max(np.abs(Ft.f - expected.f) / np.abs(expected.f)) < 1e-8
            f1 = np.concatenate(([1.0], rng.choice([-1.0, 1.0], n - 1)))
            F1 = jacobi.JacobiPoint.from_raw(f1 * np.exp(rng.uniform(-1.0, 1.0, n)))
            if not jacobi.is_general_point(spec, F1, tol=1e-8):
                continue
            back = jacobi.abel_jacobi(jacobi.reconstruct(spec, F1), spec=spec)
            # sign-mixed round trips lose up to ~2e-8 at n = 8; wrong
            # eigenvectors would be off by O(1)
            assert np.max(np.abs(back.f - F1.f) / np.abs(F1.f)) < 1e-6

    def test_image_interlaces_spectrum_for_tnn(self):
        # cofactor roots strictly interlace the eigenvalues on TNN matrices
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, lo=0.3, hi=6.0, min_gap=0.3)
            L = jacobi.reconstruct(spec, random_cone_point(RNG, n, log_range=1.5))
            roots = np.sort(np.roots(lax.chop_integral(L)[::-1]).real)
            lams = lax.spectrum(L).lambdas
            for i in range(n - 1):
                assert lams[i] < roots[i] < lams[i + 1]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


class TestReconstruct:
    def test_cone_identity_point(self):
        L = jacobi.reconstruct(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -1.0]))
        np.testing.assert_allclose(L.a, [2.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(L.b, [1.0], atol=1e-12)

    def test_evolved_point(self):
        L = jacobi.reconstruct(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -2.0]))
        np.testing.assert_allclose(L.a, [7.0 / 3.0, 5.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(L.b, [8.0 / 9.0], atol=1e-12)

    def test_non_general_raises_with_index(self):
        with pytest.raises(NonGeneralDivisor) as err:
            jacobi.reconstruct(SPEC13, jacobi.JacobiPoint.from_raw([1.0, 1.0]))
        assert err.value.index == 1

    def test_one_point_spectrum_raises(self):
        # a Lax matrix needs n >= 2
        spec = lax.Spectrum(np.array([1.0]))
        with pytest.raises(ValueError, match="n >= 2"):
            jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw([1.0]))

    def test_round_trip_from_points(self):
        # linearize(reconstruct(F)) = F for general points of any sign pattern
        for _ in range(60):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, min_gap=0.25)
            f = RNG.choice([-1.0, 1.0], n) * np.exp(RNG.uniform(-2, 2, n))
            P = jacobi.JacobiPoint.from_raw(f)
            if not jacobi.is_general_point(spec, P, tol=1e-8):
                continue
            L = jacobi.reconstruct(spec, P)
            back = jacobi.abel_jacobi(L)
            assert np.max(np.abs(back.f - P.f) / np.abs(P.f)) < 1e-8

    def test_round_trip_from_matrices(self):
        for _ in range(40):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, min_gap=0.25)
            L = jacobi.reconstruct(spec, random_cone_point(RNG, n, log_range=2.0))
            back = jacobi.reconstruct(spec, jacobi.abel_jacobi(L))
            assert np.max(np.abs(back.a - L.a) / np.maximum(1.0, np.abs(L.a))) < 1e-8
            assert np.max(np.abs(back.b - L.b) / np.maximum(1.0, np.abs(L.b))) < 1e-8

    def test_reconstructed_spectrum_matches_input(self):
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, min_gap=0.25)
            L = jacobi.reconstruct(spec, random_cone_point(RNG, n))
            np.testing.assert_allclose(lax.spectrum(L).lambdas, spec.lambdas, atol=1e-8)

    def test_cone_reconstruction_is_tnn(self):
        for _ in range(60):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, lo=0.1, hi=10.0, min_gap=0.1)
            L = jacobi.reconstruct(spec, random_cone_point(RNG, n, log_range=3.0))
            assert tnn.is_tnn_tridiagonal(L, tol=1e-9).is_tnn


# ---------------------------------------------------------------------------
# flow on points
# ---------------------------------------------------------------------------


class TestEvolvePoint:
    def test_identity_at_zero(self):
        P = jacobi.JacobiPoint.from_raw([1.0, -1.0])
        np.testing.assert_allclose(jacobi.evolve_point(P, SPEC13, 0.0).f, P.f)

    def test_doubling_time(self):
        P = jacobi.evolve_point(
            jacobi.JacobiPoint.from_raw([1.0, -1.0]), SPEC13, math.log(2.0) / 2.0
        )
        np.testing.assert_allclose(P.f, [1.0, -2.0], rtol=1e-14)

    def test_group_law(self):
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n)
            P = jacobi.JacobiPoint.from_raw(RNG.choice([-1.0, 1.0], n) * np.exp(RNG.uniform(-2, 2, n)))
            s, u = RNG.uniform(-2, 2, 2)
            lhs = jacobi.evolve_point(jacobi.evolve_point(P, spec, s), spec, u)
            rhs = jacobi.evolve_point(P, spec, s + u)
            assert lhs.allclose(rhs, rtol=1e-11)

    def test_large_time_is_finite(self):
        spec = lax.Spectrum(np.array([0.5, 4.0, 9.5]))
        P = jacobi.evolve_point(jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0]), spec, 50.0)
        assert np.all(np.isfinite(P.f))

    def test_underflow_raises_range_exceeded(self):
        spec = lax.Spectrum(np.array([0.5, 4.0, 9.5]))
        with pytest.raises(RangeExceeded) as info:
            jacobi.evolve_point(jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0]), spec, -200.0)
        assert info.value.time == -200.0

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="^point and spectrum sizes differ$"):
            jacobi.evolve_point(jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0]), SPEC13, 0.5)


# ---------------------------------------------------------------------------
# batched tau kernel
# ---------------------------------------------------------------------------


class TestTauKernel:
    # own generators, so the module RNG stream of the other tests is unchanged

    def test_point_of_another_length_raises(self):
        with pytest.raises(ValueError, match=r"^point length \(3,\) does not match spectrum size"):
            jacobi.TauKernel(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0]))

    def test_times_that_do_not_match_the_stack_raise(self):
        kernel = jacobi.TauKernel(np.array([[1.0, 3.0], [1.0, 4.0]]), np.array([[1.0, -1.0]] * 2))
        with pytest.raises(ValueError, match="^3 times do not match a stack of 2 points$"):
            kernel.sums([0.0, 0.5, 1.0])

    def test_matches_dense_determinants(self):
        # oracle: eps_k * det of the mixed Vandermonde / point columns, formed
        # densely on the materialized evolved point
        rng = np.random.default_rng(5150)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            spec = random_spectrum(rng, n)
            P = jacobi.JacobiPoint.from_raw(
                rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-1.5, 1.5, n))
            )
            times = rng.uniform(-2.0, 2.0, 4)
            grid = jacobi.TauKernel(spec, P).evaluate(times)
            eps = jacobi.epsilon_signs(n)
            for row, t in enumerate(times):
                f = jacobi.evolve_point(P, spec, t).f
                for k in range(n + 1):
                    if grid.generality[row, k] <= 1e-6:
                        continue
                    det = np.linalg.det(jacobi._tau_matrix(spec.lambdas, f, k, k - 1))
                    got = grid.sign_tau[row, k] * math.exp(grid.log_abs_tau[row, k])
                    assert got == pytest.approx(eps[k] * det, rel=1e-8)
                    if k >= 1:
                        det_p = np.linalg.det(jacobi._tau_matrix(spec.lambdas, f, k, k))
                        got_p = grid.sign_tau_prime[row, k] * math.exp(grid.log_abs_tau_prime[row, k])
                        assert got_p == pytest.approx(eps[k] * det_p, rel=1e-8)
                    checked += 1
        assert checked > 300

    def test_rows_match_single_time_evaluation(self):
        rng = np.random.default_rng(5151)
        for n in (2, 5, 8):
            spec = random_spectrum(rng, n)
            P = jacobi.JacobiPoint.from_raw(rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2, 2, n)))
            kernel = jacobi.TauKernel(spec, P)
            times = np.linspace(-5.0, 5.0, 601)  # several kernel blocks at n = 5 and 8
            grid = kernel.evaluate(times)
            for row in range(0, times.size, 37):
                single = kernel.evaluate(times[row])
                for many, one in zip(grid, single):
                    np.testing.assert_array_equal(many[row], one[0])

    def test_class_range_sums_match_full_evaluation(self):
        rng = np.random.default_rng(5153)
        for n in (2, 5, 8):
            spec = random_spectrum(rng, n)
            P = jacobi.JacobiPoint.from_raw(rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2, 2, n)))
            kernel = jacobi.TauKernel(spec, P)
            # one time, and a grid of several kernel blocks at n = 8
            for times in (0.7, np.linspace(-5.0, 5.0, 301)):
                full = kernel.sums(times)
                grid = kernel.evaluate(times)
                np.testing.assert_array_equal(full[0], grid.sign_tau)
                np.testing.assert_array_equal(full[1], grid.log_abs_tau)
                np.testing.assert_array_equal(full[2], grid.generality)
                for first in range(n + 1):
                    for stop in range(first + 1, n + 2):
                        for part, whole in zip(kernel.sums(times, first, stop), full):
                            np.testing.assert_array_equal(part, whole[:, first:stop])
        # a stack of points, one time each
        lams = np.stack([random_spectrum(rng, 6).lambdas for _ in range(40)])
        f = rng.choice([-1.0, 1.0], (40, 6)) * np.exp(rng.uniform(-2, 2, (40, 6)))
        kernel, times = jacobi.TauKernel(lams, f), rng.uniform(-3.0, 3.0, 40)
        for part, whole in zip(kernel.sums(times, 2, 5), kernel.sums(times)):
            np.testing.assert_array_equal(part, whole[:, 2:5])

    def test_zero_free_classes_never_vanish(self):
        rng = np.random.default_rng(5154)
        times = np.linspace(-10.0, 10.0, 401)
        mixed = 0
        for n in range(2, 9):
            spec = random_spectrum(rng, n)
            cone = jacobi.TauKernel(spec, random_cone_point(rng, n))
            assert cone.zero_free(-10.0, 10.0).all()
            for _ in range(5):
                f = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2, 2, n))
                kernel = jacobi.TauKernel(spec, jacobi.JacobiPoint.from_raw(f))
                free = kernel.zero_free(-10.0, 10.0)[0]
                assert free[0] and free[n]  # single terms
                mixed += not free.all()
                grid = kernel.evaluate(times)
                sign = grid.sign_tau[:, free]
                assert (sign == sign[0]).all() and (sign != 0.0).all()
                assert (grid.generality[:, free] == 1.0).all()
        assert mixed > 10
        # term logs that underflow to -inf sum to an exact 0, so a window
        # reaching them certifies nothing there
        kernel = jacobi.TauKernel(random_spectrum(rng, 4, min_gap=1.0), random_cone_point(rng, 4))
        assert (kernel.evaluate(-1e308).sign_tau[0, 2:] == 0.0).all()
        assert not kernel.zero_free(-1e308, -1e307)[0, 2:].any()

    def test_tau_prime_and_a_match_50_digit_sums(self):
        # checks the summation only: the kernel's term logs, signs, rates
        # and weights sign * e1(S) are taken as exact inputs, and tau' and a
        # are compared with 50-digit sums of those same terms
        rng = np.random.default_rng(5155)
        checked = 0
        with mpmath.workdps(50):
            for n in range(2, 7):
                lams = np.sort(rng.uniform(-5.0, 5.0, (8, n)), axis=1)
                f = rng.choice([-1.0, 1.0], (8, n)) * np.exp(rng.uniform(-20.0, 20.0, (8, n)))
                times = rng.uniform(-30.0, 30.0, 8)
                kernel = jacobi.TauKernel(lams, f / f[:, :1])
                grid = kernel.evaluate(times)
                rows = jacobi._reconstruct_rows(grid)
                bounds = kernel.bounds
                for s, t in enumerate(times):
                    tau, prime = [], []
                    for k in range(n + 1):
                        terms = range(bounds[k], bounds[k + 1])
                        x = [
                            mpmath.exp(mpmath.mpf(kernel.logs[s, j]) + mpmath.mpf(t) * kernel.rates[s, j])
                            for j in terms
                        ]
                        tau.append(mpmath.fsum(float(kernel.signs[s, j]) * e for j, e in zip(terms, x)))
                        prime.append(mpmath.fsum(float(kernel.weights[s, j]) * e for j, e in zip(terms, x)))
                    general = grid.generality[s] > 1e-6
                    for k in np.flatnonzero(general[1:]) + 1:
                        assert grid.sign_tau_prime[s, k] == mpmath.sign(prime[k])
                        got = mpmath.exp(mpmath.mpf(grid.log_abs_tau_prime[s, k]))
                        assert abs(got / abs(prime[k]) - 1) <= 1e-12
                        checked += 1
                    if general.all():
                        ratios = [0] + [prime[k] / tau[k] for k in range(1, n + 1)]
                        a = [ratios[k] - ratios[k - 1] for k in range(1, n + 1)]
                        scale = max(abs(x) for x in a)
                        error = max(abs(mpmath.mpf(rows.a[s, i]) - a[i]) for i in range(n))
                        assert error <= 1e-12 * scale
        assert checked > 100

    def test_trajectory_matches_solve_tau(self):
        rng = np.random.default_rng(5152)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            L = jacobi.reconstruct(random_spectrum(rng, n), random_cone_point(rng, n, log_range=1.5))
            traj = flow.trajectory(L, -1.0, 2.0, 0.25, "tau")
            assert traj.blowup is None
            for t, state in zip(traj.times, traj.states):
                ref = flow.solve_tau(L, t + 1.0)
                np.testing.assert_allclose(state.a, ref.a, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(state.b, ref.b, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# generality
# ---------------------------------------------------------------------------


class TestIsGeneralPoint:
    def test_cone_point_general(self):
        assert jacobi.is_general_point(SPEC13, jacobi.JacobiPoint.from_raw([1.0, -1.0]))

    def test_degenerate_point(self):
        assert not jacobi.is_general_point(SPEC13, jacobi.JacobiPoint.from_raw([1.0, 1.0]))

    def test_cone_points_always_general(self):
        for _ in range(100):
            n = int(RNG.integers(2, 7))
            spec = random_spectrum(RNG, n, lo=0.1, hi=10.0, min_gap=0.1)
            assert jacobi.is_general_point(spec, random_cone_point(RNG, n, log_range=3.0))

    def test_reconstruct_agrees_with_generality(self):
        for _ in range(40):
            n = int(RNG.integers(2, 6))
            spec = random_spectrum(RNG, n)
            f = RNG.choice([-1.0, 1.0], n) * np.exp(RNG.uniform(-1, 1, n))
            P = jacobi.JacobiPoint.from_raw(f)
            general = jacobi.is_general_point(spec, P)
            try:
                jacobi.reconstruct(spec, P)
                assert general
            except NonGeneralDivisor:
                assert not general


# ---------------------------------------------------------------------------
# values the library builds without re-validation
# ---------------------------------------------------------------------------


def assert_same_as_validated(value):
    """Equal to the validating constructor's object, with read-only arrays."""
    if isinstance(value, lax.LaxMatrix):
        fields, again = ("a", "b"), lax.LaxMatrix(n=value.n, a=value.a, b=value.b)
        assert again.n == value.n
    elif isinstance(value, lax.Spectrum):
        fields = ("lambdas",)
        again = lax.Spectrum(lambdas=value.lambdas)
    else:
        fields, again = ("f",), jacobi.JacobiPoint.from_raw(value.f)
    for name in fields:
        array = getattr(value, name)
        assert not array.flags.writeable and array.dtype == float
        np.testing.assert_array_equal(array, getattr(again, name))


class TestLibraryBuiltValues:
    def test_library_built_values_equal_validated_ones(self):
        from todajac import verify

        rng = np.random.default_rng(6161)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            spec = verify.sample_spectrum(rng, n)
            point = verify.sample_cone_point(rng, n)
            L = jacobi.reconstruct(spec, point)
            evolved = jacobi.evolve_point(point, spec, float(rng.uniform(-1, 1)))
            for value in (
                spec, point, L, evolved, lax.spectrum(L), jacobi.abel_jacobi(L),
                verify.sample_tnn_rejection(rng, n),
                flow.solve_rk4(L, 0.05, 1e-2), flow.solve_tau(L, 0.3),
                *tnn.interlacing_spectra(L).__dict__.values(),
            ):
                assert_same_as_validated(value)

    def test_user_errors_keep_type_and_message(self):
        from todajac import verify

        # coordinates beyond double range: the constructor's own message
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^point entries must be"):
            verify.sample_cone_point(np.random.default_rng(1), 6, log_range=800.0)
        with pytest.raises(ValueError, match="^LaxMatrix needs n >= 2$"):
            verify.sample_tnn_rejection(np.random.default_rng(3), 1)
        # eigenvalue differences beyond double range, and the recurrence's
        # values [0.0, -inf] too: range, not a zero (the true value at
        # lambda_1 is about 0.5)
        with pytest.raises(RangeExceeded, match="^cofactor values leave double range$"):
            jacobi.abel_jacobi(make([1e308, -1e308], [1e308]))

    def test_eigenvalue_gaps_beyond_double_range_are_range_exceeded(self):
        # the gaps overflow and the bands come out NaN; no warning on the way
        spec = lax.Spectrum(np.array([-1e308, 0.0, 1e308]))
        point = jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeExceeded, match="at t=0.0$"):
                jacobi.reconstruct(spec, point)


def _overflowing_normalization():
    # the division by f[0] overflows; the constructor's own error shows, not
    # numpy's warning (an error under the suite's warning filter)
    return jacobi.JacobiPoint.from_raw([1e-300, 1e300])


TWO = lax.Spectrum(np.array([1.0, 2.0]))
NOT_1D = "point must be a nonempty 1-D array"
NORMALIZATION = "normalization by the first entry under/overflowed"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: jacobi.JacobiPoint.from_raw(np.ones((2, 2))), NOT_1D, id="point-2d"),
        pytest.param(lambda: jacobi.JacobiPoint.from_raw([]), NOT_1D, id="point-empty"),
        pytest.param(_overflowing_normalization, NORMALIZATION, id="point-overflow"),
        pytest.param(
            lambda: jacobi.JacobiPoint.from_raw([1e300, 1e-300]), NORMALIZATION, id="point-underflow"
        ),
        pytest.param(lambda: jacobi.SignComponent(signs=(1, 0)), "signs must be +1 or -1", id="sign"),
        pytest.param(
            lambda: jacobi.TauKernel(TWO, np.array([1.0, 0.0])),
            "point entries must be nonzero",
            id="tau-kernel-zero",
        ),
        pytest.param(
            lambda: jacobi.theta(1, [1.0, 2.0, 3.0], TWO),
            "tuple length (3,) does not match spectrum size 2",
            id="theta-length",
        ),
        pytest.param(
            lambda: jacobi.theta(3, [1.0, 2.0], TWO), "theta index 3 out of range 0..2", id="theta-index"
        ),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
