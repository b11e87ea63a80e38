"""Tests for the three solvers, trajectories and blowup localization."""

import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todajac import flow, jacobi, lax, tnn, verify
from todajac.errors import (
    Blowup,
    GridMiss,
    NonGeneralDivisor,
    Overflow,
    RangeExceeded,
    SingularLeadingMinor,
)

RNG = np.random.default_rng(99173)

L2 = lax.LaxMatrix(n=2, a=np.array([2.0, 2.0]), b=np.array([1.0]))
T_GOLDEN = math.log(2.0) / 2.0
GOLDEN_A = np.array([7.0 / 3.0, 5.0 / 3.0])
GOLDEN_B = np.array([8.0 / 9.0])
# overflows in the first RK4 step
L_HUGE = lax.LaxMatrix(n=3, a=np.array([1e300, 0.0, -1e300]), b=np.array([1e300, 1e300]))


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


def lu_reference(M, scale=None):
    """Frozen copy of the row-by-row Doolittle loop: the right-looking
    factorization must match its factors and its singular order bit for bit."""
    M = np.asarray(M, dtype=float)
    base = np.abs(M) if scale is None else np.asarray(scale, dtype=float)
    n = M.shape[0]
    N = np.eye(n)
    R = np.zeros((n, n))
    for k in range(n):
        acc = M[k, k:].copy()
        mass = base[k, k:].copy()
        for j in range(k):
            acc -= N[k, j] * R[j, k:]
            mass += np.abs(N[k, j] * R[j, k:])
        pivot = acc[0]
        if not np.isfinite(pivot) or abs(pivot) <= 1e-13 * mass[0]:
            raise SingularLeadingMinor(k + 1)
        R[k, k:] = acc
        col = M[k + 1 :, k].copy()
        for j in range(k):
            col -= N[k + 1 :, j] * R[j, k]
        N[k + 1 :, k] = col / pivot
    return N, R


def lu_outcome(factor, M, scale=None):
    """The factors' bytes, or the order of the singular leading minor."""
    try:
        N, R = factor(M, scale=scale)
    except SingularLeadingMinor as exc:
        return exc.order
    return N.tobytes(), R.tobytes()


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


def sequential_bisection(kernel, lo, hi, first, s_lo, live, refine_tol=1e-9):
    """Frozen copy of detect_blowup's one-midpoint-per-call bisection over
    the live class range.  Returns (root, midpoints in the order summed)."""
    mids = []
    while hi - lo > refine_tol:
        span = np.flatnonzero(live)
        keep = slice(span[0], span[-1] + 1)
        first, live, s_lo = first + int(span[0]), live[keep], s_lo[keep]
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        s_mid = kernel.sums(mid, first, first + live.size)[0][0]
        left = live & (s_mid * s_lo < 0.0)
        if left.any():
            hi, live = mid, left
        elif (s_mid[live] == 0.0).any():
            return mid, mids
        else:
            lo = mid
    return 0.5 * (lo + hi), mids


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

    def test_matches_reference_loop_on_symes_exponentials(self):
        # the scaled exponentials the sign-mixed Symes route factors, most of
        # them past a vanishing pivot
        rng = np.random.default_rng(31415)
        mats = sign_mixed_matrices(rng, list(range(2, 9)))
        mats += [blowup_matrix(rng, n, float(rng.uniform(0.0, 3.0))) for n in range(2, 9)]
        total = singular = 0
        for L in mats:
            eig = flow._eigendecomposition(L, 0.0)
            for t in np.linspace(-3.0, 50.0, 80).tolist():
                scaled, _, mass = flow._scaled_exp(eig, t)
                for scale in (mass, None):
                    want = lu_outcome(lu_reference, scaled, scale)
                    assert lu_outcome(flow.lu_unit_lower, scaled, scale) == want, (L, t)
                    total += 1
                    singular += isinstance(want, int)
        assert total >= 2000 and 500 <= singular < total

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(st.floats(-4.0, 4.0), min_size=n * n, max_size=n * n)
        )
    )
    def test_matches_reference_loop_on_random_matrices(self, entries):
        n = math.isqrt(len(entries))
        M = np.reshape(entries, (n, n))
        assert lu_outcome(flow.lu_unit_lower, M) == lu_outcome(lu_reference, M)
        scale = np.abs(M) + 1.0
        assert lu_outcome(flow.lu_unit_lower, M, scale) == lu_outcome(lu_reference, M, scale)


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

    def test_rk4_overflow_raises_no_numpy_warning(self):
        # numpy's overflow warnings escaped the step loop before Overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow) as err:
                flow.solve_rk4(L_HUGE, 1.0, 1e-3)
            traj = flow.trajectory(L_HUGE, 0.0, 1.0, 0.5, "rk4")
        assert err.value.time == 1e-3
        assert traj.blowup == 1e-3 and traj.times.tolist() == [0.0]
        np.testing.assert_array_equal(traj.a[0], L_HUGE.a)

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

    def test_rk4_subnormal_subdiagonal_is_range_exceeded(self):
        # b decays like exp(-200 t) and RK4 stalls at a subnormal value; the
        # simulate test of this matrix checks that trajectory names t = 5.0
        L = lax.LaxMatrix(n=2, a=np.array([100.0, -100.0]), b=np.array([1.0]))
        with pytest.raises(RangeExceeded) as info:
            flow.solve_rk4(L, 5.0, 1e-3)
        assert info.value.time == 5.0


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def loop_sample_times(t0, t1, dt_out):
    """t0, t0 + k * dt_out while below t1 by 1e-12 relative, then t1; a loop."""
    times = [t0]
    k = 1
    while t0 + k * dt_out < t1 - 1e-12 * max(1.0, abs(t1)):
        times.append(t0 + k * dt_out)
        k += 1
    return np.array(times + [t1])


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

    @pytest.mark.parametrize(
        "call",
        [
            # t = inf kept solve_rk4 stepping forever
            lambda: flow.solve_rk4(L2, math.inf, 1e-3),
            lambda: flow.trajectory(L2, 0.0, math.inf, 0.5, "rk4"),
            # a NaN step passed the dt <= 0 test
            lambda: flow.solve_rk4(L2, 1.0, math.nan),
            lambda: flow.trajectory(L2, 0.0, 1.0, math.nan, "tau"),
        ],
    )
    def test_non_finite_time_or_step_raises(self, call):
        with pytest.raises(ValueError):
            call()

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="^unknown method 'euler'$"):
            flow.trajectory(L2, 0.0, 1.0, 0.5, "euler")

    @pytest.mark.parametrize("times", [[0.0, 0.0], [1.0, 0.0], [[0.0, 1.0]]])
    def test_times_not_increasing_raise(self, times):
        with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
            flow.Trajectory(np.array(times), np.ones((2, 2)), np.ones((2, 1)), "tau")

    @pytest.mark.parametrize(
        "a, b", [(np.ones((2, 3)), np.ones((2, 3))), (np.ones((3, 2)), np.ones((3, 1))),
                 (np.ones(2), np.ones((2, 1)))],
    )
    def test_bands_of_the_wrong_shape_raise(self, a, b):
        with pytest.raises(ValueError, match="^bands of shape"):
            flow.Trajectory(np.arange(2.0), a, b, "tau")

    def test_sample_count_limit(self):
        # the sample list grew until the process was killed
        with pytest.raises(ValueError, match="MAX_SAMPLE_STEPS"):
            flow.trajectory(L2, 0.0, 1.0, 1e-300, "tau")
        assert flow._sample_times(0.0, 1.0, 1.0 / flow.MAX_SAMPLE_STEPS).size == flow.MAX_SAMPLE_STEPS + 1

    def test_sample_times_match_loop_reference(self):
        rng = np.random.default_rng(2718)
        windows = [(-0.3712, 0.6288, 0.1), (-0.0, 1.0, 0.25)]
        for i in range(3000):
            kind = i % 5
            if kind == 0:  # steps within rounding of a divisor of the window
                t0 = rng.uniform(-5.0, 5.0)
                t1 = t0 + rng.uniform(1e-6, 5.0)
                dt = (t1 - t0) / rng.integers(1, 300) * rng.choice([1.0, 1 + 1e-15, 1 - 1e-15])
            elif kind == 1:  # decimal windows and steps
                t0 = round(rng.uniform(-2.0, 2.0), int(rng.integers(0, 4)))
                t1 = t0 + round(rng.uniform(0.01, 3.0), int(rng.integers(0, 4)))
                dt = float(rng.choice([0.1, 0.05, 0.2, 1e-3, 0.3, 1 / 3]))
            elif kind == 2:  # far from 1 in magnitude
                t0 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)
                t1 = t0 + abs(t0) * 10.0 ** rng.uniform(-11, 1)
                dt = (t1 - t0) / rng.integers(1, 2000)
            elif kind == 3:  # steps near the spacing of t0: the sums round
                t0 = 1e6 + rng.uniform(0.0, 1.0)
                t1 = t0 + float(rng.choice([1e-6, 1.001e-6, 1.01e-6, 2e-6]))
                dt = 10.0 ** rng.uniform(-10.5, -9)
            else:  # subnormal start and step; the last sample time is 0
                t0 = -float(rng.choice([5e-324, 1.5e-323, 1e-322, 1e-320]))
                t1 = 1e-12
                dt = float(rng.choice([5e-324, 1e-323, 1.5e-323, 1e-322]))
            windows.append((t0, t1, dt))
        compared = 0
        for t0, t1, dt in windows:
            if not t0 < t1:
                continue
            want = loop_sample_times(t0, t1, dt)
            got = flow._sample_times(t0, t1, dt)
            assert got.tobytes() == want.tobytes(), (t0, t1, dt)
            compared += 1
        assert compared > 2900

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


def wide_range_cone_matrices(rng, sizes):
    """Cone matrices with eigenvalues in (0.1, 10), gaps >= 0.05, coordinate
    log range 1."""
    out = []
    for n in sizes:
        spec = verify.sample_spectrum(rng, n, 0.1, 10.0, min_gap=0.05)
        out.append(jacobi.reconstruct(spec, verify.sample_cone_point(rng, n, 1.0)))
    return out


class TestSymesQR:
    """The b > 0 route of solve_symes and trajectory("symes")."""

    def test_trajectory_rows_equal_single_time_calls(self):
        rng = np.random.default_rng(60221)
        for L in wide_range_cone_matrices(rng, [2 + i % 7 for i in range(35)]):
            t0 = float(rng.uniform(-1.0, 0.0))
            t1 = t0 + float(rng.uniform(0.5, 10.0))
            traj = flow.trajectory(L, t0, t1, (t1 - t0) / 20, "symes")
            assert traj.blowup is None and len(traj.states) == 21
            for t, state in zip(traj.times, traj.states):
                one = flow.solve_symes(L, float(t) - t0)
                assert np.array_equal(one.a, state.a) and np.array_equal(one.b, state.b)

    def test_matches_tau_over_wide_ranges(self):
        # the regime where the LU route missed 9-11 of 12 runs
        rng = np.random.default_rng(27182)
        misses = 0
        for L in wide_range_cone_matrices(rng, [4, 8] * 12):
            t1 = float(rng.uniform(1.0, 10.0))
            tr_tau = flow.trajectory(L, 0.0, t1, t1 / 20, "tau")
            tr_sym = flow.trajectory(L, 0.0, t1, t1 / 20, "symes")
            assert tr_tau.blowup is None and tr_sym.blowup is None
            for s1, s2 in zip(tr_tau.states, tr_sym.states):
                misses += not (
                    np.allclose(s1.a, s2.a, rtol=1e-8, atol=1e-10)
                    and np.allclose(s1.b, s2.b, rtol=1e-8, atol=1e-10)
                )
        assert misses == 0

    def test_golden_long_times_match_closed_form(self):
        # a = 2 +- tanh t, b = 1 / cosh(t)**2; the LU route raised Blowup from t = 17
        for t in range(17, 41):
            S = flow.solve_symes(L2, float(t))
            np.testing.assert_allclose(S.a, [2.0 + math.tanh(t), 2.0 - math.tanh(t)], atol=1e-13)
            np.testing.assert_allclose(S.b, [1.0 / math.cosh(t) ** 2], rtol=1e-12)
        traj = flow.trajectory(L2, 0.0, 40.0, 1.0, "symes")
        assert traj.blowup is None and len(traj.states) == 41

    @pytest.mark.parametrize("n, b", [(4, 1e100), (3, 1e300), (5, 1e150)])
    def test_huge_subdiagonal_is_backward_stable(self, n, b):
        # each entry is off by rounding relative to max |lambda|, no more
        L = lax.LaxMatrix(n=n, a=np.linspace(0.0, 1.0, n), b=np.full(n - 1, b))
        S = flow.solve_symes(L, 0.0)
        scale = float(np.max(np.abs(lax.spectrum(L).lambdas)))
        assert np.max(np.abs(S.a - L.a)) <= 1e-13 * scale
        assert np.max(np.abs(np.sqrt(S.b) - np.sqrt(L.b))) <= 1e-13 * scale

    def test_state_out_of_double_range_at_the_tau_time(self):
        # b(t) falls below the smallest normal double between t = 88 and 89
        L = lax.LaxMatrix(n=2, a=np.array([1.0, 9.0]), b=np.array([0.5]))
        with pytest.raises(RangeExceeded) as info:
            flow.solve_symes(L, 90.0)
        assert info.value.time == 90.0
        with pytest.raises(RangeExceeded) as info:
            flow.trajectory(L, 10.0, 120.0, 10.0, "symes")
        assert info.value.time == 100.0

    def test_never_reaches_the_lu_route(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the LU route ran on a positive subdiagonal")

        monkeypatch.setattr(flow, "lu_unit_lower", unreachable)
        monkeypatch.setattr(np.linalg, "solve", unreachable)
        L, _ = random_tnn(RNG, 5)
        flow.solve_symes(L, 0.5)
        flow.trajectory(L, -1.0, 1.0, 0.1, "symes")


def sign_mixed_matrices(rng, sizes):
    """Matrices with a sign-mixed subdiagonal over spectra in (-3, 3), gaps
    >= 0.1, from Jacobi points with random sign patterns."""
    out = []
    for n in sizes:
        while True:
            spec = verify.sample_spectrum(rng, n, -3.0, 3.0, min_gap=0.1)
            f = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-2.0, 2.0, n))
            L = jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw(f))
            if not np.all(L.b > 0):
                out.append(L)
                break
    return out


def blowup_matrix(rng, n, T):
    """Sign-mixed matrix whose tau[1] vanishes at time T: its point at T,
    f, has sum_i (-1)**i V_i f_i = 0 with V_i the Vandermonde product of the
    spectrum without lambda_i."""
    while True:
        spec = verify.sample_spectrum(rng, n, -3.0, 3.0, min_gap=0.1)
        lams = spec.lambdas
        pairs = [(j, k) for k in range(n) for j in range(k)]
        w = np.array(
            [(-1.0) ** i * math.prod(lams[k] - lams[j] for j, k in pairs if i not in (j, k))
             for i in range(n)]
        )
        f = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-1.0, 1.0, n))
        f[0] = -(w[1:] @ f[1:]) / w[0]
        if f[0] != 0.0:
            return jacobi.reconstruct(spec, jacobi.JacobiPoint.from_raw(f * np.exp(-T * lams)))


def per_sample_symes(L, sample_ts, t0):
    """Reference loop: one solve_symes call per sample time, stopping at the
    first Blowup.  Returns (states, blowup time)."""
    states = []
    for t in sample_ts:
        try:
            states.append(flow.solve_symes(L, float(t) - t0))
        except Blowup:
            return states, float(t)
    return states, None


def conjugation_reference(L, sample_ts, t0):
    """Frozen copy of the dense sign-mixed Symes loop: per sample time, the
    conjugation N^-1 L0 N by the unit lower factor of exp((t - t0) L0),
    stopping at the first singular pivot or superdiagonal that deviates
    from 1 by more than 1e-9 relative.  Returns (a rows, b rows, blowup time)."""
    dense = L.to_dense()
    eig = flow._eigendecomposition(L, 0.0)
    a_rows, b_rows = [], []
    for t in sample_ts:
        scaled, _, mass = flow._scaled_exp(eig, float(t) - t0)
        try:
            N, _ = flow.lu_unit_lower(scaled, scale=mass)
        except SingularLeadingMinor:
            return a_rows, b_rows, float(t)
        conj = np.linalg.solve(N, dense) @ N
        deviation = np.max(np.abs(np.diagonal(conj, offset=1) - 1.0))
        if deviation > 1e-9 * max(1.0, float(np.max(np.abs(conj)))):
            return a_rows, b_rows, float(t)
        a_rows.append(np.diagonal(conj))
        b_rows.append(np.diagonal(conj, offset=-1))
    return a_rows, b_rows, None


class TestSymesLU:
    """The sign-mixed route of trajectory("symes"): one kernel per run."""

    def test_trajectory_rows_equal_single_time_calls(self):
        rng = np.random.default_rng(16180)
        runs = [(L, float(rng.uniform(-2.0, 0.0)), float(rng.uniform(0.5, 4.0)) / 20)
                for L in sign_mixed_matrices(rng, [2 + i % 7 for i in range(21)])]
        # a tau value vanishes at the sample t0 + T, exactly representable
        runs += [(blowup_matrix(rng, n, T), -0.25 * (n % 3), 0.25)
                 for n in range(2, 9) for T in (0.5, 1.5)]
        blowups = 0
        for L, t0, dt in runs:
            t1 = t0 + 20 * dt
            traj = flow.trajectory(L, t0, t1, dt, "symes")
            ref_states, ref_blowup = per_sample_symes(L, flow._sample_times(t0, t1, dt), t0)
            assert traj.blowup == ref_blowup
            assert len(traj.states) == len(ref_states)
            blowups += traj.blowup is not None
            for state, one in zip(traj.states, ref_states):
                assert np.array_equal(one.a, state.a) and np.array_equal(one.b, state.b)
        assert blowups >= 12  # the constructed runs reach the blowup path

    def test_rows_match_the_dense_conjugation(self):
        # N^-1 L0 N and R L0 R^-1 are the same matrix: read off the factors,
        # the rows keep the dense conjugation's to rounding
        rng = np.random.default_rng(27182)
        runs = [(L, 0.0, 0.1) for L in sign_mixed_matrices(rng, [2 + i % 7 for i in range(14)])]
        runs += [(blowup_matrix(rng, n, T), -0.25 * (n % 3), 0.25)
                 for n in range(2, 9) for T in (0.5, 1.5)]
        blowups = 0
        for L, t0, dt in runs:
            t1 = t0 + 20 * dt
            traj = flow.trajectory(L, t0, t1, dt, "symes")
            ref_a, ref_b, ref_blowup = conjugation_reference(
                L, flow._sample_times(t0, t1, dt), t0)
            assert traj.blowup == ref_blowup
            assert traj.a.shape[0] == len(ref_a)
            blowups += traj.blowup is not None
            for got, ref in ((traj.a, ref_a), (traj.b, ref_b)):
                ref = np.reshape(ref, got.shape)
                assert np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
        assert blowups >= 12  # the constructed runs reach the blowup path

    @pytest.mark.parametrize("corrupt", ["nan_flux", "subnormal_b"])
    def test_rows_out_of_double_range_are_range_exceeded(self, monkeypatch, corrupt):
        # factors whose bands leave double range from the third sample on
        L = sign_mixed_matrices(np.random.default_rng(3), [4])[0]
        real = flow.lu_unit_lower
        calls = []

        def corrupted(M, scale=None):
            N, R = real(M, scale=scale)
            calls.append(None)
            if len(calls) >= 3:
                if corrupt == "nan_flux":
                    N[2, 1] = np.nan
                else:
                    R[1, 1] = R[0, 0] * 1e-310 / abs(L.b[0])
            return N, R

        monkeypatch.setattr(flow, "lu_unit_lower", corrupted)
        with pytest.raises(RangeExceeded) as info:
            flow.trajectory(L, 0.0, 1.0, 0.25, "symes")
        assert info.value.time == 0.5
        calls.clear()
        flow.solve_symes(L, 0.5)
        flow.solve_symes(L, 0.5)
        with pytest.raises(RangeExceeded) as info:
            flow.solve_symes(L, 0.5)
        assert info.value.time == 0.5

    def test_one_spectrum_and_one_eig_per_run(self, monkeypatch):
        calls = {"spectrum": 0, "eig": 0, "solve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lax, "spectrum", counting("spectrum", lax.spectrum))
        monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        for L in sign_mixed_matrices(np.random.default_rng(2718), [4, 8]):
            calls.update(spectrum=0, eig=0, solve=0)
            traj = flow.trajectory(L, 0.0, 2.0, 0.1, "symes")
            assert traj.blowup is None and len(traj.states) == 21
            assert calls == {"spectrum": 1, "eig": 1, "solve": 0}


def per_sample_tau(L, sample_ts, t0):
    """Reference loop: one solve_tau call per sample time, stopping at the
    first Blowup.  Returns (states, blowup time)."""
    states = []
    for t in sample_ts:
        try:
            states.append(flow.solve_tau(L, float(t) - t0))
        except Blowup:
            return states, float(t)
    return states, None


class TestTauStacks:
    """The tau route of trajectory: one stacked reconstruction per run."""

    def test_trajectory_rows_equal_single_time_calls(self):
        # the first failing row is found by one argmax over the stack
        rng = np.random.default_rng(14142)
        runs = [(blowup_matrix(rng, n, T), -0.25 * (n % 3), 0.25)
                for n in range(2, 9) for T in (0.25, 0.5, 1.5, 3.0)]
        # the last sample, t0 + 20 * dt, is the blowup time
        runs += [(blowup_matrix(rng, n, 1.25), 0.0, 0.0625) for n in range(2, 9)]
        runs += [(L, -1.0, 0.1) for L in sign_mixed_matrices(rng, range(2, 9))]
        stops = set()
        for L, t0, dt in runs:
            t1 = t0 + 20 * dt
            traj = flow.trajectory(L, t0, t1, dt, "tau")
            ref_states, ref_blowup = per_sample_tau(L, flow._sample_times(t0, t1, dt), t0)
            assert traj.blowup == ref_blowup
            assert len(traj.states) == len(ref_states)
            if traj.blowup is not None:
                stops.add(len(traj.states))
            for state, one in zip(traj.states, ref_states):
                assert np.array_equal(one.a, state.a) and np.array_equal(one.b, state.b)
        # blowups after the first sample, in mid-run and at the last sample
        assert {1, 20} <= stops and len(stops) >= 4


def rk4_chain_reference(L0, t0, t1, dt_out, dt):
    """rk4_reference chained across the sample intervals of a trajectory.
    Returns the rows up to the first Overflow and its time (None when no
    step overflows); raises RangeExceeded(sample time) as trajectory does."""
    rows = [(L0.a, L0.b)]
    times = flow._sample_times(t0, t1, dt_out)
    for prev, t in zip(times[:-1].tolist(), times[1:].tolist()):
        try:
            a, b = rk4_reference(lax.LaxMatrix(n=L0.n, a=rows[-1][0], b=rows[-1][1]), t - prev, dt)
        except Overflow as exc:
            return rows, prev + exc.time
        if not lax._in_range(a, b):
            raise RangeExceeded(t)
        rows.append((a, b))
    return rows, None


def rk4_trajectory(L0, t0, t1, dt_out, dt):
    """trajectory("rk4") in the reference's terms: its rows and blowup time."""
    traj = flow.trajectory(L0, t0, t1, dt_out, "rk4", rk4_dt=dt)
    return list(zip(traj.a, traj.b)), traj.blowup


def rk4_outcome(run, *args):
    """The rows' bytes and the blowup time of a run, or the time of its
    RangeExceeded."""
    try:
        rows, blowup = run(*args)
    except RangeExceeded as exc:
        return exc.time
    return [a.tobytes() + b.tobytes() for a, b in rows], blowup


class TestRk4Stacks:
    """The rk4 route of trajectory: solve_rk4 across each sample interval,
    whose deferred overflow test must stop where the per-step test does."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 8),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        blowup=st.floats(0.05, 2.0),
        t0=st.floats(-1.0, 1.0),
        span=st.floats(0.05, 1.5),
        intervals=st.integers(1, 3),
        dt=st.sampled_from([2e-3, 5e-3, 1e-2]),
    )
    def test_rows_match_chained_reference(self, n, mixed, seed, blowup, t0, span, intervals, dt):
        rng = np.random.default_rng(seed)
        # sign-mixed: a tau value vanishes at t0 + blowup, inside the window or past it
        L = blowup_matrix(rng, n, blowup) if mixed else random_tnn(rng, n)[0]
        args = (L, t0, t0 + span, span / intervals, dt)
        assert rk4_outcome(rk4_trajectory, *args) == rk4_outcome(rk4_chain_reference, *args)

    @pytest.mark.parametrize(
        "t0, t1, dt_out",
        [
            (0.0, 1.5, 0.5),  # |b| passes 1e12 in the first step of the last interval
            (-0.3, 0.9, 0.6),  # in step 401 of 600: the read at step 256 marked a clean state
            (0.0, 1.8, 0.9),  # in step 101 of 900, before the first read
        ],
    )
    def test_overflow_mid_interval_matches_chained_reference(self, t0, t1, dt_out):
        # the state's tau[1] vanishes one unit after t0
        Lnc, _ = noncone_two_by_two()
        got = rk4_outcome(rk4_trajectory, Lnc, t0, t1, dt_out, 1e-3)
        assert got == rk4_outcome(rk4_chain_reference, Lnc, t0, t1, dt_out, 1e-3)
        assert t0 + 1.0 < got[1] < t0 + 1.01

    @pytest.mark.parametrize("t", [0.0, 1e-3, -1e-3, 0.5])
    def test_state_past_the_threshold_at_t0_matches_reference(self, t):
        # the reference never tests L0: at t = 0 it returns L_HUGE itself
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.concatenate(rk4_reference(L_HUGE, t, 1e-3)).tobytes()
        except Overflow as exc:
            want = exc.time
        try:
            S = flow.solve_rk4(L_HUGE, t, 1e-3)
            got = np.concatenate((S.a, S.b)).tobytes()
        except Overflow as exc:
            got = exc.time
        assert got == want
        assert (t == 0.0) == isinstance(got, bytes)


def writer_reference_csv(traj):
    """The per-state CSV row loop the stacked writer replaced."""
    states = traj.states
    n = states[0].n if states else 0
    header = ["t"] + [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n)]
    text = ",".join(header) + "\n"
    for t, state in zip(traj.times, states):
        row = [repr(float(t))] + [repr(float(x)) for x in state.a]
        row += [repr(float(x)) for x in state.b]
        text += ",".join(row) + "\n"
    if traj.blowup is not None:
        text += f"# blowup t={traj.blowup:.6f}\n"
    return text


def writer_reference_json(traj):
    """The per-state JSON form the stacked writer replaced."""
    data = {
        "times": [float(t) for t in traj.times],
        "states": [s.to_json_dict() for s in traj.states],
        "method": traj.method,
        "blowup": None if traj.blowup is None else float(traj.blowup),
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def writer_runs():
    """(matrix, t0, t1, dt, method) over every route, with truncated runs."""
    rng = np.random.default_rng(5772)
    cone = [random_tnn(rng, n)[0] for n in (2, 5, 8)]
    mixed = sign_mixed_matrices(rng, [3, 6, 8])
    blowing = [blowup_matrix(rng, n, 0.5) for n in (3, 7)]
    Lnc, _ = noncone_two_by_two()
    runs = [(L, -0.5, 0.5, 0.1, m) for L in cone for m in ("tau", "symes", "rk4")]
    runs += [(L, -0.3712, 0.6288, 0.05, m) for L in mixed for m in ("tau", "symes")]
    runs += [(L, 0.0, 1.0, 0.125, m) for L in blowing for m in ("tau", "symes")]
    runs += [(Lnc, -1.0, 1.0, 0.1, m) for m in ("tau", "symes", "rk4")]
    return runs


def empty_trajectory():
    """A run that fails at t0: no rows (no real input is known to give one)."""
    return flow.Trajectory(np.empty(0), np.empty((0, 3)), np.empty((0, 2)), "tau", 0.0)


class TestWriters:
    """The stacked writers print what the per-state loop printed, byte for byte."""

    def test_csv_and_json_match_the_per_state_loop(self):
        truncated = 0
        trajs = [flow.trajectory(L, t0, t1, dt, m) for L, t0, t1, dt, m in writer_runs()]
        for traj in trajs + [empty_trajectory()]:
            csv, js = io.StringIO(), io.StringIO()
            traj.to_csv(csv)
            traj.to_json(js)
            assert csv.getvalue() == writer_reference_csv(traj)
            assert js.getvalue() == writer_reference_json(traj)
            truncated += traj.blowup is not None
        assert truncated >= 8
        assert writer_reference_csv(empty_trajectory()) == "t\n# blowup t=0.000000\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_stdout_matches_the_per_state_loop(self, tmp_path, capsys, monkeypatch, fmt):
        from todajac import cli

        reference = writer_reference_csv if fmt == "csv" else writer_reference_json
        for i, (L, t0, t1, dt, m) in enumerate(writer_runs()):
            path = tmp_path / f"m{i}.json"
            path.write_text(json.dumps(L.to_json_dict()), encoding="utf-8")
            argv = ["simulate", "--matrix", str(path), f"--t0={t0!r}", "--t1", repr(t1),
                    "--dt", repr(dt), "--method", m, "--format", fmt]
            code = cli.main(argv)
            traj = flow.trajectory(lax.LaxMatrix.from_json_dict(L.to_json_dict()), t0, t1, dt, m)
            assert code == (cli.EXIT_OK if traj.blowup is None else cli.EXIT_BLOWUP)
            assert capsys.readouterr().out == reference(traj)
        monkeypatch.setattr(flow, "trajectory", lambda *args, **kwargs: empty_trajectory())
        assert cli.main(argv) == cli.EXIT_BLOWUP
        assert capsys.readouterr().out == reference(empty_trajectory())


class TestReadOnlyStates:
    @pytest.mark.parametrize(
        "make",
        [
            lambda L: flow.trajectory(L, 0.0, 1.0, 0.25, "tau"),
            lambda L: flow.trajectory(L, 0.0, 1.0, 0.25, "symes"),
            lambda L: flow.trajectory(L, 0.0, 1.0, 0.25, "rk4"),
            lambda L: flow.trajectory(sign_mixed_matrices(np.random.default_rng(5), [5])[0],
                                      0.0, 1.0, 0.25, "symes"),
            lambda L: flow.Trajectory(np.arange(2.0), np.ones((2, 5)), np.ones((2, 4)), "tau"),
        ],
    )
    def test_trajectory_arrays_cannot_be_made_writable(self, make):
        traj = make(random_tnn(np.random.default_rng(4), 5)[0])
        bands = [traj.times, traj.a, traj.b]
        bands += [band for state in traj.states for band in (state.a, state.b)]
        assert len(bands) == 3 + 2 * traj.times.size
        for band in bands:
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band.setflags(write=True)

    @pytest.mark.parametrize(
        "make",
        [
            lambda L: flow.trajectory(L, 0.0, 1.0, 0.25, "symes").states[2],
            lambda L: flow.trajectory(L, 0.0, 1.0, 0.25, "tau").states[2],
            lambda L: flow.solve_symes(L, 0.5),
            lambda L: flow.solve_tau(L, 0.5),
        ],
    )
    def test_bands_cannot_be_made_writable(self, make):
        state = make(random_tnn(np.random.default_rng(4), 5)[0])
        for band in (state.a, state.b):
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band.setflags(write=True)


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

    def test_matches_reference_on_cone_points_and_fine_grids(self):
        # half cone points, which are certified and never scanned; GridMiss
        # exactly where the full-kernel grid has no root and a generality
        # below the tangency threshold
        rng = np.random.default_rng(6030)
        roots = misses = 0
        for i in range(112):
            n = 2 + i % 7
            while True:
                lams = np.sort(rng.uniform(-3.0, 3.0, n))
                if np.min(np.diff(lams)) > 0.05:
                    break
            spec = lax.Spectrum(lams)
            if i % 2 == 0:
                point = verify.sample_cone_point(rng, n, 3.0)
            else:
                point = jacobi.JacobiPoint.from_raw(
                    rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-3.0, 3.0, n))
                )
            # every fourth window ends just short of the reference root
            t0, t1 = -10.0, 10.0
            expected, _ = detect_blowup_reference(spec, point, t0, t1)
            if i % 4 == 3 and expected is not None and expected > t0 + 1.0:
                t0, t1 = expected - 1.0, expected - 1e-12
                expected, _ = detect_blowup_reference(spec, point, t0, t1)
            gens = jacobi.TauKernel(spec, point).evaluate(np.linspace(t0, t1, 1001)).generality
            miss = expected is None and float(np.min(gens)) < flow.TANGENCY_TOL
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = flow.detect_blowup(spec, point, t0, t1)
            assert got == expected
            assert [type(w.message) for w in caught] == [GridMiss] * miss
            assert expected is None or i % 2 == 1
            roots += got is not None
            misses += miss
        assert roots > 30
        assert misses >= 3

    def test_certified_point_makes_no_grid_evaluation(self, monkeypatch):
        ranges, summed = [], []
        sums = jacobi.TauKernel.sums

        def counting_sums(kernel, times, first=0, stop=None):
            ranges.append((first, stop))
            summed.append(np.array(times, dtype=float, ndmin=1))
            return sums(kernel, times, first, stop)

        monkeypatch.setattr(jacobi.TauKernel, "sums", counting_sums)
        rng = np.random.default_rng(6031)
        for n in range(2, 9):
            spec = lax.Spectrum(np.arange(n) + rng.uniform(0.0, 0.5, n))
            assert flow.detect_blowup(spec, verify.sample_cone_point(rng, n, 3.0), -10.0, 10.0) is None
        assert ranges == []
        # n = 2: tau[0] and tau[2] are single terms, so the scan and every
        # bisection step sum tau[1] alone, and never a tau' class; the
        # bisection sums every midpoint of the one-midpoint-per-call path
        kappa = 1.7
        point = jacobi.JacobiPoint.from_raw([1.0, kappa])
        kernel = jacobi.TauKernel(self.SPEC, point)
        ts = np.linspace(-1.0, 1.0, 1001)
        signs = kernel.sums(ts, 1, 2)[0]
        i = int(np.flatnonzero(signs[:-1, 0] * signs[1:, 0] < 0.0)[0])
        expected, path = sequential_bisection(
            kernel, ts[i], ts[i + 1], 1, signs[i], signs[i] * signs[i + 1] < 0.0
        )
        ranges.clear()
        summed.clear()
        root = flow.detect_blowup(self.SPEC, point, -1.0, 1.0)
        assert root == expected == pytest.approx(-math.log(kappa) / 2.0, abs=1e-9)
        assert set(ranges) == {(1, 2)} and np.array_equal(summed[0], ts)
        assert len(path) > 20 and set(path) <= set(np.concatenate(summed[1:]).tolist())
        # n = 4: the scan sums tau[1..3], each bisection step only tau[3],
        # the one class that changes sign in the bracket
        spec = lax.Spectrum(np.array([1.0, 2.0, 3.0, 4.0]))
        point = jacobi.JacobiPoint.from_raw([1.0, 2.0, 0.5, 3.0])
        expected, _ = detect_blowup_reference(spec, point, -3.0, 3.0)
        ranges.clear()
        assert flow.detect_blowup(spec, point, -3.0, 3.0) == expected
        assert ranges[0] == (1, 4) and set(ranges[1:]) == {(3, 4)}

    # n = 8 with tau[1..7] uncertified: the first scan chunk is one kernel
    # block of their 254 terms, 16384 // 254 = 64 rows, and each later one
    # doubles
    SPEC8 = lax.Spectrum(np.array([-3.0, -2.0, -1.5, -0.5, 0.25, 1.0, 2.0, 3.5]))
    POINT8 = jacobi.JacobiPoint.from_raw([1.0, 2.0, 1.0, -1.0, 0.5, 1.0, 3.0, 1.0])
    # symmetric about 1: tau[1] and tau[7] are exactly 0 at t = 0
    SYM8 = lax.Spectrum(np.array([-4.0, -3.0, -2.0, 0.0, 2.0, 4.0, 5.0, 6.0]))
    SYM_POINT8 = jacobi.JacobiPoint.from_raw([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0])

    @staticmethod
    def chunked_scan(monkeypatch, spec, point, t0, t1, grid=1000):
        """detect_blowup's result and warnings, the row counts of its scan
        chunks (the leading sums calls over consecutive grid slices) and the
        time arrays of the sums calls after them."""
        summed = []
        sums = jacobi.TauKernel.sums

        def recording_sums(kernel, times, first=0, stop=None):
            summed.append(np.array(times, dtype=float, ndmin=1))
            return sums(kernel, times, first, stop)

        with monkeypatch.context() as patch:
            patch.setattr(jacobi.TauKernel, "sums", recording_sums)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = flow.detect_blowup(spec, point, t0, t1, grid=grid)
        ts = np.linspace(t0, t1, grid + 1)
        chunks = []
        for times in summed:
            if not np.array_equal(times, ts[sum(chunks) : sum(chunks) + times.size]):
                break
            chunks.append(times.size)
        return got, [type(w.message) for w in caught], chunks, summed[len(chunks) :]

    def root8(self):
        return detect_blowup_reference(self.SPEC8, self.POINT8, -10.0, 10.0)[0]

    def test_scan_stops_in_a_late_chunk(self, monkeypatch):
        # the root sits near row 500, in the fourth chunk (rows 448-959)
        t0, t1 = self.root8() - 0.5, self.root8() + 0.5
        got, caught, chunks, _ = self.chunked_scan(monkeypatch, self.SPEC8, self.POINT8, t0, t1)
        assert got == detect_blowup_reference(self.SPEC8, self.POINT8, t0, t1)[0]
        assert caught == [] and chunks == [64, 128, 256, 512]

    def test_sign_change_between_two_chunks(self, monkeypatch):
        # the root lies between row 63, the first chunk's last, and row 64
        t0 = self.root8() - 0.0635
        t1 = t0 + 1.0
        got, caught, chunks, after = self.chunked_scan(monkeypatch, self.SPEC8, self.POINT8, t0, t1)
        ts = np.linspace(t0, t1, 1001)
        assert got == detect_blowup_reference(self.SPEC8, self.POINT8, t0, t1)[0]
        assert caught == [] and chunks == [64, 128]
        assert after[0][0] == 0.5 * (ts[63] + ts[64])  # the bisection's first midpoint

    def test_exact_grid_zero_in_a_late_chunk(self, monkeypatch):
        # t = 0 is row 68, in the second chunk (rows 64-191); the same chunk
        # changes sign from row 141 on, which the exact zero precedes
        step = 2.0**-24
        t0, t1 = -68 * step, 932 * step
        signs = jacobi.TauKernel(self.SYM8, self.SYM_POINT8).evaluate(np.linspace(t0, t1, 1001)).sign_tau
        assert np.flatnonzero((signs == 0.0).any(axis=1)).tolist() == [68]
        flips = np.flatnonzero((signs[:-1] * signs[1:] < 0.0).any(axis=1))
        assert 68 < flips[0] < 191
        got, caught, chunks, after = self.chunked_scan(monkeypatch, self.SYM8, self.SYM_POINT8, t0, t1)
        assert got == detect_blowup_reference(self.SYM8, self.SYM_POINT8, t0, t1)[0] == 0.0
        assert caught == [] and chunks == [64, 128] and after == []

    def first_time_past_root8(self):
        """The bracket end of a float-precision bisection of the root."""
        kernel = jacobi.TauKernel(self.SPEC8, self.POINT8)
        lo, hi = self.root8() - 1e-9, self.root8() + 1e-9
        s_lo = kernel.sums(lo, 1, 8)[0][0]
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if (kernel.sums(mid, 1, 8)[0][0] * s_lo < 0.0).any():
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("tangent_chunk", ["last", "first"])
    def test_grid_miss_after_every_chunk(self, monkeypatch, tangent_chunk):
        # no sign change on the grid, and the least generality lies in the
        # last chunk (the window ends just short of the root) or in the first
        # (it starts just past the root; the next root is 0.83 later)
        if tangent_chunk == "last":
            t0, t1 = self.root8() - 2.0, self.root8() - 1e-12
        else:
            t0 = self.first_time_past_root8()
            t1 = t0 + 0.8
        gens = jacobi.TauKernel(self.SPEC8, self.POINT8).evaluate(np.linspace(t0, t1, 1001)).generality
        assert detect_blowup_reference(self.SPEC8, self.POINT8, t0, t1)[0] is None
        low, rest = (gens[:64], gens[64:]) if tangent_chunk == "first" else (gens[960:], gens[:960])
        assert float(np.min(low)) < flow.TANGENCY_TOL < float(np.min(rest))
        got, caught, chunks, after = self.chunked_scan(monkeypatch, self.SPEC8, self.POINT8, t0, t1)
        assert got is None and caught == [GridMiss]
        assert chunks == [64, 128, 256, 512, 41] and after == []

    def test_early_root_sums_less_than_the_grid(self, monkeypatch):
        t0, t1 = self.root8() - 0.01, self.root8() + 10.0
        got, _, chunks, after = self.chunked_scan(monkeypatch, self.SPEC8, self.POINT8, t0, t1)
        assert got == detect_blowup_reference(self.SPEC8, self.POINT8, t0, t1)[0]
        assert chunks == [64] and sum(chunks) + sum(times.size for times in after) < 1001

    def test_exact_zero_at_a_bisection_midpoint(self):
        # the one-interval grid's first midpoint is t = 0, where tau[1] is 0
        point = jacobi.JacobiPoint.from_raw([1.0, 1.0])
        assert flow.detect_blowup(self.SPEC, point, -1.0, 1.0, grid=1) == 0.0

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        n=st.integers(2, 8),
        data=st.data(),
        center=st.floats(-20.0, 20.0),
        half=st.floats(0.5, 40.0),
        grid=st.integers(1, 3000),
    )
    def test_matches_reference_on_drawn_cases(self, n, data, center, half, grid):
        gaps = data.draw(st.lists(st.floats(0.05, 1.5), min_size=n - 1, max_size=n - 1))
        lams = data.draw(st.floats(-3.0, 3.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
        logs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        spec = lax.Spectrum(lams)
        point = jacobi.JacobiPoint.from_raw(np.array(signs) * np.exp(logs))
        t0, t1 = center - half, center + half
        expected, _ = detect_blowup_reference(spec, point, t0, t1, grid=grid)
        gens = jacobi.TauKernel(spec, point).evaluate(np.linspace(t0, t1, grid + 1)).generality
        miss = expected is None and float(np.min(gens)) < flow.TANGENCY_TOL
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = flow.detect_blowup(spec, point, t0, t1, grid=grid)
        assert got == expected
        assert [type(w.message) for w in caught] == [GridMiss] * miss

    @pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (1.0, -1.0)])
    def test_empty_window_raises(self, t0, t1):
        with pytest.raises(ValueError, match="^need t0 < t1$"):
            flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), t0, t1)

    def test_grid_below_one_raises(self):
        # tau_1 of this point vanishes at 0, inside the window
        with pytest.raises(ValueError, match="grid"):
            flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), -1.0, 1.0, grid=0)

    @pytest.mark.parametrize(
        "t0, t1", [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_non_finite_window_raises(self, t0, t1):
        with pytest.raises(ValueError, match="finite"):
            flow.detect_blowup(self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), t0, t1)

    @pytest.mark.parametrize("f", [[1.0, -1.0, 1.0, -1.0], [1.0, 2.0, 0.5, 3.0]])
    @pytest.mark.parametrize("t0, t1, end", [(-1e308, -1e307, -1e308), (1e307, 1e308, 1e308)])
    def test_underflowed_terms_raise_range_exceeded(self, f, t0, t1, end):
        # a cone point and a non-cone one: at |t| = 1e308 some term of
        # tau[1] has t * rate = +-inf, so its class sum could read an exact 0
        # that is no root
        spec = lax.Spectrum(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(RangeExceeded) as info:
            flow.detect_blowup(spec, jacobi.JacobiPoint.from_raw(f), t0, t1, grid=10)
        assert info.value.time == end

    def test_grid_miss_warns(self):
        with pytest.warns(GridMiss):
            out = flow.detect_blowup(
                self.SPEC, jacobi.JacobiPoint.from_raw([1.0, 1.0]), -1.0, -1e-12
            )
        assert out is None
