"""Tests for the three solvers, trajectories and blowup localization."""

import io
import math
import warnings

import numpy as np
import pytest

from todajac import flow, jacobi, lax, tnn, verify
from todajac.errors import (
    Blowup,
    GridMiss,
    NonGeneralDivisor,
    Overflow,
    RangeExceeded,
    SingularLeadingMinor,
    StructureLost,
)

RNG = np.random.default_rng(99173)

L2 = lax.LaxMatrix(n=2, a=np.array([2.0, 2.0]), b=np.array([1.0]))
T_GOLDEN = math.log(2.0) / 2.0
GOLDEN_A = np.array([7.0 / 3.0, 5.0 / 3.0])
GOLDEN_B = np.array([8.0 / 9.0])


def random_tnn(rng, n, spec_lo=0.3, spec_hi=5.0, min_gap=0.25, log_range=2.0):
    """TNN phase-space matrix from a cone point over a well-separated spectrum."""
    while True:
        lams = np.sort(rng.uniform(spec_lo, spec_hi, n))
        if n == 1 or np.min(np.diff(lams)) > min_gap:
            break
    spec = lax.Spectrum(lams)
    signs = np.array([(-1.0) ** i for i in range(n)])
    f = signs * np.exp(rng.uniform(-log_range, log_range, n))
    return jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw(f)), spec


def noncone_two_by_two():
    """State whose linearized coordinates hit a tau zero one unit later."""
    spec = lax.Spectrum(np.array([1.0, 3.0]))
    return jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw([1.0, math.exp(-2.0)])), spec


def rk4_reference(L0, t, dt):
    """Frozen copy of the two-array RK4 loop: the fused integrator must match it bit for bit."""

    def derivative(a, b):
        adot = np.empty_like(a)
        adot[0] = b[0]
        adot[-1] = -b[-1]
        if a.size > 2:
            adot[1:-1] = b[1:] - b[:-1]
        return adot, b * (a[1:] - a[:-1])

    a = L0.a.copy()
    b = L0.b.copy()
    elapsed = 0.0
    remaining = float(t)
    direction = math.copysign(1.0, t) if t != 0.0 else 1.0
    while abs(remaining) > 0.0:
        h = direction * min(dt, abs(remaining))
        k1a, k1b = derivative(a, b)
        k2a, k2b = derivative(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
        k3a, k3b = derivative(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
        k4a, k4b = derivative(a + h * k3a, b + h * k3b)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        elapsed += h
        remaining -= h
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))) or np.any(
            np.abs(b) > flow.RK4_OVERFLOW_THRESHOLD
        ):
            raise Overflow(elapsed)
    return a, b


def lagrange_exp_reference(L0, t):
    """Frozen copy of the Lagrange interpolation exp(t*L0) = sum_i exp(t*lambda_i)
    prod_{j!=i} (L0 - lambda_j E) / (lambda_i - lambda_j); accurate on
    well-separated spectra only."""
    lams = lax.spectrum(L0).lambdas
    n = L0.n
    dense = L0.to_dense()
    out = np.zeros((n, n))
    eye = np.eye(n)
    for i in range(n):
        proj = eye
        for j in range(n):
            if j != i:
                proj = proj @ (dense - lams[j] * eye) / (lams[i] - lams[j])
        out += math.exp(t * lams[i]) * proj
    return out


def detect_blowup_reference(spec, F0, t0, t1, grid=1000, refine_tol=1e-9):
    """Frozen copy of the per-class blowup scan: one bisection per tau class
    that changes sign in the earliest bracket, then the smallest root.

    Returns (root, number of classes bisected)."""
    ts = np.linspace(t0, t1, grid + 1)
    n = spec.lambdas.size
    kernel = jacobi.TauKernel(spec, F0)
    signs = kernel.evaluate(ts).sign_tau
    exact = np.nonzero(signs == 0.0)
    first_exact = int(exact[0][0]) if exact[0].size else None
    first_change = None  # (grid index, tau index)
    for k in range(n + 1):
        flips = np.nonzero(signs[:-1, k] * signs[1:, k] < 0.0)[0]
        if flips.size and (first_change is None or flips[0] < first_change[0]):
            first_change = (int(flips[0]), k)
    if first_exact is not None and (first_change is None or first_exact <= first_change[0]):
        return float(ts[first_exact]), 0
    if first_change is None:
        return None, 0
    i, _ = first_change
    candidates = [k for k in range(n + 1) if signs[i, k] * signs[i + 1, k] < 0.0]
    roots = []
    for k in candidates:
        lo, hi = float(ts[i]), float(ts[i + 1])
        s_lo = signs[i, k]
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            s_mid = kernel.evaluate(mid).sign_tau[0, k]
            if s_mid == 0.0:
                lo = hi = mid
                break
            if s_mid * s_lo < 0.0:
                hi = mid
            else:
                lo = mid
                s_lo = s_mid
        roots.append(0.5 * (lo + hi))
    return float(min(roots)), len(candidates)


def clustered_cone_matrices(rng, count, width=0.01):
    """Cone matrices, n = 8, with four eigenvalues in a window of the given
    width inside a spectrum drawn from (0.5, 2.5)."""
    out = []
    while len(out) < count:
        lams = np.sort(rng.uniform(0.5, 2.5, 8))
        lams[2:6] = rng.uniform(1.0, 2.0) + rng.uniform(0.0, width, 4)
        lams = np.sort(lams)
        if np.min(np.diff(lams)) <= lax.DEFAULT_SEPARATION:
            continue
        point = verify.sample_cone_point(rng, 8, 2.0)
        out.append(jacobi.reconstruct(lax.Spectrum(lams), point))
    return out


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------


class TestMatrixExp:
    def test_two_by_two_closed_form(self):
        for t in (-1.3, 0.4, 2.0):
            ep, em = math.exp(3.0 * t), math.exp(t)
            ref = 0.5 * np.array([[em + ep, ep - em], [ep - em, em + ep]])
            np.testing.assert_allclose(flow.matrix_exp_spectral(L2, t), ref, rtol=1e-12)

    def test_identity_at_zero(self):
        np.testing.assert_allclose(flow.matrix_exp_spectral(L2, 0.0), np.eye(2), atol=1e-14)

    def test_semigroup_law(self):
        for _ in range(10):
            L, _ = random_tnn(RNG, int(RNG.integers(2, 6)))
            s, u = RNG.uniform(-1, 1, 2)
            lhs = flow.matrix_exp_spectral(L, s + u)
            rhs = flow.matrix_exp_spectral(L, s) @ flow.matrix_exp_spectral(L, u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))

    def test_matches_eigendecomposition_oracle(self):
        for _ in range(10):
            L, _ = random_tnn(RNG, 4)
            t = float(RNG.uniform(-1.5, 1.5))
            w, V = np.linalg.eig(L.to_dense())
            ref = (V @ np.diag(np.exp(t * w)) @ np.linalg.inv(V)).real
            np.testing.assert_allclose(flow.matrix_exp_spectral(L, t), ref, rtol=1e-8, atol=1e-10)

    def test_matches_lagrange_reference_on_separated_spectra(self):
        rng = np.random.default_rng(2571)
        checked = 0
        while checked < 60:
            n = 2 + checked % 7
            lams = np.sort(rng.uniform(-3.0, 3.0, n))
            if np.min(np.diff(lams)) < 0.25:
                continue
            signs = rng.choice([-1.0, 1.0], n) if checked % 2 else (-1.0) ** np.arange(n)
            point = jacobi.JacobiPoint.from_raw(signs * np.exp(rng.uniform(-1.0, 1.0, n)))
            try:
                L = jacobi.reconstruct(lax.Spectrum(lams), point)
            except NonGeneralDivisor:
                continue
            checked += 1
            t = float(rng.uniform(-1.0, 1.0))
            ref = lagrange_exp_reference(L, t)
            got = flow.matrix_exp_spectral(L, t)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# LU factorization
# ---------------------------------------------------------------------------


class TestLuUnitLower:
    def test_worked_example(self):
        N, R = flow.lu_unit_lower([[4.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(N, [[1.0, 0.0], [0.5, 1.0]])
        np.testing.assert_allclose(R, [[4.0, 2.0], [0.0, 2.0]])

    def test_identity(self):
        N, R = flow.lu_unit_lower(np.eye(3))
        np.testing.assert_allclose(N, np.eye(3))
        np.testing.assert_allclose(R, np.eye(3))

    def test_zero_pivot(self):
        with pytest.raises(SingularLeadingMinor) as err:
            flow.lu_unit_lower([[0.0, 1.0], [1.0, 0.0]])
        assert err.value.order == 1

    def test_second_order_pivot(self):
        with pytest.raises(SingularLeadingMinor) as err:
            flow.lu_unit_lower([[1.0, 1.0], [1.0, 1.0]])
        assert err.value.order == 2

    def test_random_factorization(self):
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            M = RNG.uniform(-2, 2, (n, n)) + 3.0 * np.eye(n)
            N, R = flow.lu_unit_lower(M)
            np.testing.assert_allclose(N @ R, M, rtol=1e-10, atol=1e-10)
            assert np.allclose(np.triu(N, 1), 0.0) and np.allclose(np.diag(N), 1.0)
            assert np.allclose(np.tril(R, -1), 0.0)

    def test_scale_defaults_to_matrix_magnitudes(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            M = RNG.uniform(-2, 2, (n, n)) + 3.0 * np.eye(n)
            N, R = flow.lu_unit_lower(M)
            N2, R2 = flow.lu_unit_lower(M, scale=np.abs(M))
            assert np.array_equal(N, N2) and np.array_equal(R, R2)

    def test_scale_flags_cancelled_pivot(self):
        # the (1,1) entry is the rounding residue of terms of size 1
        M = [[1e-15, 1.0], [1.0, 1.0]]
        assert flow.lu_unit_lower(M)[1][0, 0] == 1e-15
        with pytest.raises(SingularLeadingMinor) as err:
            flow.lu_unit_lower(M, scale=[[1.0, 1.0], [1.0, 1.0]])
        assert err.value.order == 1


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


class TestSolvers:
    def test_symes_golden(self):
        S = flow.solve_symes(L2, T_GOLDEN)
        np.testing.assert_allclose(S.a, GOLDEN_A, atol=1e-12)
        np.testing.assert_allclose(S.b, GOLDEN_B, atol=1e-12)

    def test_tau_golden(self):
        S = flow.solve_tau(L2, T_GOLDEN)
        np.testing.assert_allclose(S.a, GOLDEN_A, atol=1e-12)
        np.testing.assert_allclose(S.b, GOLDEN_B, atol=1e-12)

    def test_rk4_golden(self):
        S = flow.solve_rk4(L2, T_GOLDEN, 1e-4)
        np.testing.assert_allclose(S.a, GOLDEN_A, atol=1e-9)
        np.testing.assert_allclose(S.b, GOLDEN_B, atol=1e-9)

    def test_time_zero(self):
        for solver in (flow.solve_symes, flow.solve_tau):
            S = solver(L2, 0.0)
            np.testing.assert_allclose(S.a, L2.a, atol=1e-12)
            np.testing.assert_allclose(S.b, L2.b, atol=1e-12)
        S = flow.solve_rk4(L2, 0.0, 1e-3)
        np.testing.assert_array_equal(S.a, L2.a)

    def test_long_time_sorting_two_by_two(self):
        S = flow.solve_symes(L2, 8.0)
        # closed form: b -> 0, diagonal -> eigenvalues in descending order
        assert abs(S.b[0]) < 1e-5
        np.testing.assert_allclose(S.a, [3.0, 1.0], atol=1e-5)

    def test_commutator_derivative(self):
        adot, bdot = flow.toda_derivative(L2.a, L2.b)
        np.testing.assert_allclose(adot, [1.0, -1.0])
        np.testing.assert_allclose(bdot, [0.0])

    def test_derivative_matches_dense_commutator(self):
        for _ in range(10):
            n = int(RNG.integers(2, 7))
            L, _ = random_tnn(RNG, n)
            dense = L.to_dense()
            lower = np.tril(dense, -1)
            comm = dense @ lower - lower @ dense
            adot, bdot = flow.toda_derivative(L.a, L.b)
            np.testing.assert_allclose(adot, np.diag(comm), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bdot, np.diag(comm, -1), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(np.diag(comm, 1), 0.0, atol=1e-12)

    def test_three_way_agreement_random(self):
        for _ in range(8):
            n = int(RNG.integers(2, 7))
            L, _ = random_tnn(RNG, n)
            t = float(RNG.uniform(-1.5, 1.5))
            s_tau = flow.solve_tau(L, t)
            s_sym = flow.solve_symes(L, t)
            s_rk4 = flow.solve_rk4(L, t, 1e-3)
            for x, y in ((s_tau, s_sym), (s_tau, s_rk4)):
                for f in ("a", "b"):
                    dx, dy = getattr(x, f), getattr(y, f)
                    rel = np.abs(dx - dy) / np.maximum(1.0, np.maximum(np.abs(dx), np.abs(dy)))
                    assert np.max(rel) < 1e-6

    def test_tau_blowup_one_unit_ahead(self):
        Lnc, _ = noncone_two_by_two()
        with pytest.raises(Blowup) as err:
            flow.solve_tau(Lnc, 1.0)
        assert err.value.tau_index == 1
        # still regular strictly before the root
        S = flow.solve_tau(Lnc, 0.5)
        assert np.all(np.isfinite(S.a))

    def test_rk4_overflow_reports_time(self):
        Lnc, _ = noncone_two_by_two()
        with pytest.raises(Overflow) as err:
            flow.solve_rk4(Lnc, 1.5, 1e-5)
        assert 0.9 < err.value.time < 1.1

    def test_rk4_matches_reference_loop_bit_for_bit(self):
        rng = np.random.default_rng(20264)
        partial = 0
        for case in range(200):
            n = 2 + case % 7
            dt = (1e-3, 1e-4)[case % 2]
            a = rng.uniform(-2.0, 3.0, n)
            b = rng.uniform(0.05, 2.0, n - 1)
            if case % 4 >= 2:
                b *= rng.choice([-1.0, 1.0], n - 1)
            L = lax.LaxMatrix(n=n, a=a, b=b)
            if case % 25 == 0:
                t = 0.0
            elif case % 5 == 0:
                t = float(rng.integers(1, 100)) * dt  # a multiple of dt, up to rounding
            else:
                t = float(rng.uniform(0.0, 100.0 * dt))
            t *= rng.choice([-1.0, 1.0])
            partial += t / dt != math.floor(t / dt)
            want_a, want_b = rk4_reference(L, t, dt)
            got = flow.solve_rk4(L, t, dt)
            assert np.array_equal(got.a, want_a) and np.array_equal(got.b, want_b), (
                f"case {case}: n={n}, t={t!r}, dt={dt}"
            )
        assert partial > 100

    def test_rk4_overflow_time_matches_reference_loop(self):
        Lnc, _ = noncone_two_by_two()
        for dt in (1e-3, 1e-4):
            with pytest.raises(Overflow) as want:
                rk4_reference(Lnc, 1.5, dt)
            with pytest.raises(Overflow) as got:
                flow.solve_rk4(Lnc, 1.5, dt)
            assert got.value.time == want.value.time

    def test_isospectrality_closed_form(self):
        for _ in range(6):
            n = int(RNG.integers(2, 7))
            L, spec = random_tnn(RNG, n)
            for t in (-2.0, 0.7, 2.0):
                for solver in (flow.solve_tau, flow.solve_symes):
                    drift = np.abs(lax.spectrum(solver(L, t)).lambdas - spec.lambdas)
                    assert np.max(drift / np.maximum(1.0, np.abs(spec.lambdas))) < 1e-9

    def test_char_poly_invariance(self):
        L, _ = random_tnn(RNG, 5)
        c0 = lax.char_poly(L)
        for t in (-1.0, 0.5, 1.5):
            ct = lax.char_poly(flow.solve_tau(L, t))
            assert np.max(np.abs(ct - c0) / np.maximum(1.0, np.abs(c0))) < 1e-9

    def test_linearization_commutes(self):
        for _ in range(6):
            n = int(RNG.integers(2, 6))
            L, spec = random_tnn(RNG, n)
            t = float(RNG.uniform(-1.5, 1.5))
            lhs = jacobi.abel_jacobi(flow.solve_symes(L, t)).f
            rhs = jacobi.evolve_point(jacobi.abel_jacobi(L, spec=spec), spec, t).f
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


class TestTrajectory:
    def test_three_samples(self):
        traj = flow.trajectory(L2, 0.0, 1.0, 0.5, "tau")
        assert len(traj.states) == 3
        assert traj.blowup is None
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])

    def test_wide_dt_keeps_endpoints(self):
        traj = flow.trajectory(L2, 0.0, 1.0, 7.0, "symes")
        assert len(traj.states) == 2
        np.testing.assert_allclose(traj.times, [0.0, 1.0])

    def test_noncone_truncates_at_zero(self):
        Lnc, _ = noncone_two_by_two()
        traj = flow.trajectory(Lnc, -1.0, 1.0, 0.1, "tau")
        assert traj.blowup == pytest.approx(0.0, abs=1e-12)
        assert len(traj.states) == 10
        assert traj.times[-1] < 0.0

    def test_noncone_truncates_symes_and_rk4(self):
        Lnc, _ = noncone_two_by_two()
        traj = flow.trajectory(Lnc, -1.0, 1.0, 0.1, "symes")
        assert traj.blowup == pytest.approx(0.0, abs=1e-12)
        assert len(traj.states) == 10
        traj = flow.trajectory(Lnc, -1.0, 1.0, 0.1, "rk4", rk4_dt=1e-4)
        assert traj.blowup is not None and abs(traj.blowup) < 0.01

    def test_symes_blowup_at_singular_offset(self):
        Lnc, _ = noncone_two_by_two()
        with pytest.raises(Blowup):
            flow.solve_symes(Lnc, 1.0)
        # regular just off the singular time on both sides
        assert np.all(np.isfinite(flow.solve_symes(Lnc, 0.99).a))
        assert np.all(np.isfinite(flow.solve_symes(Lnc, 1.01).a))

    def test_symes_blowup_at_and_near_singular_time(self):
        Lnc, _ = noncone_two_by_two()
        for t in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 + 1e-14):
            with pytest.raises(Blowup):
                flow.solve_tau(Lnc, float(t))
            with pytest.raises(Blowup):
                flow.solve_symes(Lnc, float(t))
        # the state is conditioned like 1/|t - 1| here: against a 60-digit
        # reference each route is off by about 1.6e-6 relative
        for t in (1.0 - 1e-10, 1.0 + 1e-10):
            sym, tau = flow.solve_symes(Lnc, t), flow.solve_tau(Lnc, t)
            np.testing.assert_allclose(sym.a, tau.a, rtol=1e-5)
            np.testing.assert_allclose(sym.b, tau.b, rtol=1e-5)

    def test_symes_matches_tau_on_clustered_spectra(self):
        rng = np.random.default_rng(31415)
        for L in clustered_cone_matrices(rng, 12):
            t0 = float(rng.uniform(-1.0, 0.0))
            tr_tau = flow.trajectory(L, t0, t0 + 1.0, 0.05, "tau")
            tr_sym = flow.trajectory(L, t0, t0 + 1.0, 0.05, "symes")
            assert tr_tau.blowup is None and tr_sym.blowup is None
            assert len(tr_sym.states) == 21
            for s1, s2 in zip(tr_tau.states, tr_sym.states):
                assert np.allclose(s1.a, s2.a, rtol=1e-8, atol=1e-10)
                assert np.allclose(s1.b, s2.b, rtol=1e-8, atol=1e-10)

    def test_eigenvectors_out_of_range_are_not_a_blowup(self):
        # sqrt(b)^7 = 1e350: the eigenvector entries span more than double range
        L = lax.LaxMatrix(n=8, a=np.linspace(0.0, 1.0, 8), b=np.full(7, 1e100))
        with pytest.raises(RangeExceeded):
            flow.solve_symes(L, 0.5)
        with pytest.raises(RangeExceeded) as info:
            flow.trajectory(L, 2.0, 3.0, 0.5, "symes")
        assert info.value.time == 2.0

    def test_singular_conjugation_is_structure_lost(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(StructureLost):
            flow.solve_symes(L2, 0.5)

    def test_methods_match_along_run(self):
        L, _ = random_tnn(RNG, 3)
        tr_tau = flow.trajectory(L, -0.5, 0.5, 0.25, "tau")
        tr_sym = flow.trajectory(L, -0.5, 0.5, 0.25, "symes")
        tr_rk4 = flow.trajectory(L, -0.5, 0.5, 0.25, "rk4", rk4_dt=1e-3)
        for s1, s2, s3 in zip(tr_tau.states, tr_sym.states, tr_rk4.states):
            np.testing.assert_allclose(s1.a, s2.a, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(s1.a, s3.a, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(s1.b, s3.b, rtol=1e-6, atol=1e-8)

    def test_tnn_preserved_along_run(self):
        for _ in range(5):
            L, _ = random_tnn(RNG, int(RNG.integers(2, 6)))
            traj = flow.trajectory(L, -1.0, 1.0, 0.25, "tau")
            assert traj.blowup is None
            for state in traj.states:
                assert tnn.is_tnn_tridiagonal(state, tol=1e-10).is_tnn

    def test_long_cone_run_never_blows_up(self):
        # b decays like exp(-gap * t) but stays inside double range up to t = 200
        L = lax.LaxMatrix(n=4, a=np.array([1.0, 3.0, 5.0, 8.0]), b=np.full(3, 0.5))
        traj = flow.trajectory(L, 0.0, 200.0, 10.0, "tau")
        assert traj.blowup is None
        assert len(traj.states) == 21
        for state in traj.states:
            assert tnn.is_tnn_tridiagonal(state).is_tnn

    def test_state_out_of_double_range_is_not_a_blowup(self):
        # b(100) is about exp(-800), below the smallest normal double
        L = lax.LaxMatrix(n=2, a=np.array([1.0, 9.0]), b=np.array([0.5]))
        with pytest.raises(RangeExceeded) as info:
            flow.solve_tau(L, 100.0)
        assert info.value.time == 100.0
        # reported at the sample time, not at the time elapsed since t0
        with pytest.raises(RangeExceeded) as info:
            flow.trajectory(L, 10.0, 120.0, 10.0, "tau")
        assert info.value.time == 100.0

    def test_csv_format(self):
        traj = flow.trajectory(L2, 0.0, 1.0, 0.1, "tau")
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,a1,a2,b1"
        assert len(lines) == 12  # header + 11 samples

    def test_csv_blowup_comment(self):
        Lnc, _ = noncone_two_by_two()
        traj = flow.trajectory(Lnc, -1.0, 1.0, 0.1, "tau")
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue().strip().endswith("# blowup t=0.000000")

    def test_json_mirror(self):
        traj = flow.trajectory(L2, 0.0, 0.5, 0.25, "rk4")
        d = traj.to_json_dict()
        assert d["method"] == "rk4" and d["blowup"] is None
        assert len(d["states"]) == len(d["times"]) == 3
        assert d["states"][0] == {"n": 2, "a": [2.0, 2.0], "b": [1.0]}


# ---------------------------------------------------------------------------
# blowup localization
# ---------------------------------------------------------------------------


class TestDetectBlowup:
    SPEC = lax.Spectrum(np.array([1.0, 3.0]))

    def test_locates_root_at_zero(self):
        root = flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), -1.0, 1.0)
        assert root == pytest.approx(0.0, abs=1e-9)

    def test_cone_point_never_blows_up(self):
        assert (
            flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, -1.0]), -3.0, 3.0)
            is None
        )

    def test_window_right_of_root(self):
        assert (
            flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), 0.5, 1.0)
            is None
        )

    def test_off_grid_root_refined(self):
        # evolved tail is kappa*e^(2t), so tau_1 vanishes at t = -ln(kappa)/2
        kappa = 1.7
        expected = -math.log(kappa) / 2.0
        root = flow.detect_blowup(
            self.SPEC, jacobi.JacobiPoint.from_raw([1.0, kappa]), -1.0, 1.0
        )
        assert root == pytest.approx(expected, abs=1e-9)

    def test_single_bisection_matches_per_class_reference(self):
        rng = np.random.default_rng(6029)
        roots = multi = 0
        for i in range(600):
            n = 2 + i % 7
            while True:
                lams = np.sort(rng.uniform(-3.0, 3.0, n))
                if np.min(np.diff(lams)) > 0.05:
                    break
            spec = lax.Spectrum(lams)
            point = jacobi.JacobiPoint.from_raw(
                rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-3.0, 3.0, n))
            )
            grid = (20, 100)[i % 2]
            expected, classes = detect_blowup_reference(spec, point, -10.0, 10.0, grid=grid)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GridMiss)
                got = flow.detect_blowup(spec, point, -10.0, 10.0, grid=grid)
            assert got == expected
            roots += got is not None
            multi += classes > 1
        assert roots > 400
        assert multi >= 5  # brackets where several classes change sign occur

    @pytest.mark.parametrize(
        "lams, f, t0, t1",
        [
            # a class with two roots and no sign change over the bracket
            ([-4.0, -1.0, 3.0, 4.0], [0.25, -0.5, -0.25, 1.0], -3.0, 3.0),
            # a class that changes sign in the right half only, and twice in
            # the left half that is kept
            ([-4.0, -3.0, 1.0, 3.0, 4.0], [-0.5, -1.0, -1.0, 0.5, 0.5], -2.0, 2.0),
            # an exact zero at the first midpoint and a sign change left of it
            ([1.0, 2.0, 3.0], [-2.0, 1.0, 4.0], -3.0, 3.0),
        ],
    )
    def test_single_bisection_on_one_bracket_matches_reference(self, lams, f, t0, t1):
        spec = lax.Spectrum(np.array(lams))
        point = jacobi.JacobiPoint.from_raw(f)
        expected, _ = detect_blowup_reference(spec, point, t0, t1, grid=1)
        assert flow.detect_blowup(spec, point, t0, t1, grid=1) == expected

    def test_grid_miss_warns(self):
        with pytest.warns(GridMiss):
            out = flow.detect_blowup(
                self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), -1.0, -1e-12
            )
        assert out is None
