"""Time evolution of the lattice by three independent methods.

* ``solve_tau``: closed form through the linearized coordinates: linearize,
  multiply by exponentials, reconstruct.
* ``solve_symes``: factorize exp(t*L0) = N*R with N unit lower triangular and
  conjugate, L(t) = N^-1 L0 N.  The exponential is built by Lagrange
  interpolation on the eigenvalues and is scaled by exp(-t*lambda_max) before
  factorizing; the scale multiplies R only, so the conjugation is unaffected.
* ``solve_rk4``: classical fixed-step Runge-Kutta on the tridiagonal
  coordinates of dL/dt = [L, L_lower].  It steps one state vector
  y = [a; b] over a fixed +-1 rate matrix M: the rates are M @ y with the
  subdiagonal part multiplied by b, computed in place into buffers made once
  per call.

The three routes agree on regular trajectories and report blowups
differently: the closed forms fail exactly where a tau value vanishes, the
integrator when a subdiagonal entry passes the overflow threshold.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jacobi, lax
from .errors import (
    Blowup,
    GridMiss,
    NonGeneralDivisor,
    Overflow,
    RangeExceeded,
    SingularLeadingMinor,
    StructureLost,
)

RK4_OVERFLOW_THRESHOLD = 1e12
STRUCTURE_TOL = 1e-9


# ---------------------------------------------------------------------------
# matrix exponential and LU factorization
# ---------------------------------------------------------------------------


def _scaled_matrix_exp(L0: lax.LaxMatrix, t: float, spec: lax.Spectrum):
    """exp(t*L0) * exp(-m) with m = max_i(t*lambda_i), plus the shift m.

    Lagrange interpolation on the eigenvalues: sum_i w_i prod_{j!=i}
    (L0 - lambda_j E) / (lambda_i - lambda_j), with w_i = exp(t*lambda_i - m).
    """
    lams = spec.lambdas
    n = L0.n
    dense = L0.to_dense()
    shift = float(np.max(t * lams))
    weights = np.exp(t * lams - shift)
    out = np.zeros((n, n))
    eye = np.eye(n)
    for i in range(n):
        proj = eye
        for j in range(n):
            if j == i:
                continue
            proj = proj @ (dense - lams[j] * eye) / (lams[i] - lams[j])
        out += weights[i] * proj
    return out, shift


def matrix_exp_spectral(L0: lax.LaxMatrix, t: float) -> np.ndarray:
    """exp(t*L0) by Lagrange interpolation on a simple real spectrum."""
    spec = lax.spectrum(L0)
    scaled, shift = _scaled_matrix_exp(L0, t, spec)
    return scaled * math.exp(shift)


def lu_unit_lower(M) -> tuple:
    """Doolittle factorization M = N*R, N unit lower and R upper triangular.

    No pivoting: row exchanges would destroy the triangular structure the
    conjugation relies on.  A pivot that vanishes relative to what was
    accumulated into it signals a singular leading principal minor.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    n = M.shape[0]
    N = np.eye(n)
    R = np.zeros((n, n))
    for k in range(n):
        acc = M[k, k:].copy()
        mass = np.abs(M[k, k:])
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


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_symes(L0: lax.LaxMatrix, t: float) -> lax.LaxMatrix:
    """State at time t from the LU factorization of the matrix exponential."""
    spec = lax.spectrum(L0)
    scaled, _ = _scaled_matrix_exp(L0, t, spec)
    try:
        N, _ = lu_unit_lower(scaled)
    except SingularLeadingMinor as exc:
        raise Blowup(t, message=f"factorization failed at t={t!r}: {exc}") from exc
    conj = np.linalg.solve(N, L0.to_dense()) @ N
    superdiag = np.diagonal(conj, offset=1)
    scale = max(1.0, float(np.max(np.abs(conj))))
    if np.max(np.abs(superdiag - 1.0)) > STRUCTURE_TOL * scale:
        raise StructureLost(
            f"superdiagonal deviates from 1 by {np.max(np.abs(superdiag - 1.0)):.3e}"
        )
    return lax.LaxMatrix(n=L0.n, a=np.diagonal(conj).copy(), b=np.diagonal(conj, offset=-1).copy())


def solve_tau(L0: lax.LaxMatrix, t: float) -> lax.LaxMatrix:
    """Closed-form state at time t through the linearized coordinates.

    Raises Blowup when a tau value vanishes at t and RangeExceeded when an
    entry of the state leaves double range.
    """
    spec = lax.spectrum(L0)
    F0 = jacobi.abel_jacobi(L0, spec=spec)
    try:
        return next(jacobi.reconstruct_along(spec, F0, t))
    except NonGeneralDivisor as exc:
        raise Blowup(t, tau_index=exc.index) from exc


@functools.lru_cache(maxsize=None)
def _rate_matrix(n: int) -> np.ndarray:
    """Read-only +-1 matrix M with M @ [a; b] = [adot; a[1:] - a[:-1]].

    Every row has at most two nonzero entries, so each product entry rounds
    exactly like the difference it stands for; the subdiagonal rates are the
    tail times b.
    """
    M = np.zeros((2 * n - 1, 2 * n - 1))
    for k in range(n - 1):
        M[k, n + k] = 1.0
        M[k + 1, n + k] = -1.0
        M[n + k, k + 1] = 1.0
        M[n + k, k] = -1.0
    return lax._readonly(M)


def toda_derivative(a: np.ndarray, b: np.ndarray) -> tuple:
    """Right-hand side of the lattice equations in tridiagonal coordinates.

    da_1 = b_1, da_k = b_k - b_{k-1}, da_n = -b_{n-1}; db_k = b_k (a_{k+1} - a_k).
    """
    n = a.size
    rates = _rate_matrix(n) @ np.concatenate((a, b))
    rates[n:] *= b
    return rates[:n], rates[n:]


def solve_rk4(L0: lax.LaxMatrix, t: float, dt: float) -> lax.LaxMatrix:
    """Classical fixed-step RK4 on the tridiagonal coordinates.

    Integrates ceil(|t|/dt) steps with a final partial step; raises Overflow
    (with the step time) when a subdiagonal magnitude passes 1e12.  Every
    entry rounds as in the two-array form of the method: each rate is one
    difference, and the update keeps the order (((k1 + 2 k2) + 2 k3) + k4).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = L0.n
    M = _rate_matrix(n)
    y = np.concatenate((L0.a, L0.b))
    # zeros, not empty: the BLAS product may scale its output buffer by 0
    k1, k2, k3, k4, s = (np.zeros_like(y) for _ in range(5))
    y_b, s_b, k1_b = y[n:], s[n:], k1[n:]
    # (stage input rates, fraction of h, output rates, their b tail)
    stages = ((k1, 0.5, k2, k2[n:]), (k2, 0.5, k3, k3[n:]), (k3, 1.0, k4, k4[n:]))
    elapsed = 0.0
    remaining = float(t)
    direction = math.copysign(1.0, t) if t != 0.0 else 1.0

    while abs(remaining) > 0.0:
        h = direction * min(dt, abs(remaining))
        np.dot(M, y, out=k1)
        k1_b *= y_b
        for k_in, frac, k_out, k_out_b in stages:
            np.multiply(k_in, frac * h, out=s)
            s += y
            np.dot(M, s, out=k_out)
            k_out_b *= s_b
        # y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        y += k2
        elapsed += h
        remaining -= h
        if not np.isfinite(y).all() or np.abs(y_b).max() > RK4_OVERFLOW_THRESHOLD:
            raise Overflow(elapsed)
    # finite after every step; a vanished subdiagonal entry gets the
    # validating constructor's error
    make = lax.LaxMatrix._trusted if y_b.all() else lax.LaxMatrix
    return make(n=n, a=y[:n], b=y_b)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one run; ``blowup`` is the first failing sample time."""

    times: np.ndarray
    states: tuple
    method: str
    blowup: Optional[float] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if len(self.states) != times.size:
            raise ValueError("one state per sample time required")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    def to_csv(self, fp) -> None:
        """Header t,a1..aN,b1..b(N-1); one row per sample; blowup as a comment."""
        if not self.states:
            n = 0
        else:
            n = self.states[0].n
        header = ["t"] + [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n)]
        fp.write(",".join(header) + "\n")
        for t, state in zip(self.times, self.states):
            row = [repr(float(t))] + [repr(float(x)) for x in state.a]
            row += [repr(float(x)) for x in state.b]
            fp.write(",".join(row) + "\n")
        if self.blowup is not None:
            fp.write(f"# blowup t={self.blowup:.6f}\n")

    def to_json_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "states": [s.to_json_dict() for s in self.states],
            "method": self.method,
            "blowup": None if self.blowup is None else float(self.blowup),
        }

    def to_json(self, fp) -> None:
        json.dump(self.to_json_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")


def _sample_times(t0: float, t1: float, dt_out: float) -> np.ndarray:
    times = [t0]
    k = 1
    while t0 + k * dt_out < t1 - 1e-12 * max(1.0, abs(t1)):
        times.append(t0 + k * dt_out)
        k += 1
    times.append(t1)
    return np.array(times)


def trajectory(
    L0: lax.LaxMatrix,
    t0: float,
    t1: float,
    dt_out: float,
    method: str,
    rk4_dt: float = 1e-3,
) -> Trajectory:
    """Sample the run that passes through L0 at time t0 on [t0, t1].

    The state at sample time t is the solution advanced by t - t0 from L0.
    Sampling stops, with ``blowup`` set to the failing sample time, when the
    selected solver reports a blowup or overflow.  The tau method raises
    RangeExceeded, with the sample time, when a state entry leaves double
    range; that is not a blowup.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    if dt_out <= 0.0:
        raise ValueError("dt_out must be positive")
    if method not in ("tau", "symes", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    sample_ts = _sample_times(t0, t1, dt_out)
    times = []
    states = []
    blowup = None

    if method == "tau":
        spec = lax.spectrum(L0)
        F0 = jacobi.abel_jacobi(L0, spec=spec)
        try:
            for state in jacobi.reconstruct_along(spec, F0, sample_ts - t0):
                states.append(state)
        except NonGeneralDivisor:
            blowup = float(sample_ts[len(states)])
        except RangeExceeded as exc:
            raise RangeExceeded(float(sample_ts[len(states)])) from exc
        times = sample_ts[: len(states)]
    elif method == "symes":
        for t in sample_ts:
            try:
                state = solve_symes(L0, t - t0)
            except (Blowup, StructureLost):
                blowup = float(t)
                break
            times.append(t)
            states.append(state)
    else:
        current = L0
        prev_t = t0
        for t in sample_ts:
            try:
                if t > prev_t:
                    current = solve_rk4(current, t - prev_t, rk4_dt)
            except Overflow as exc:
                blowup = float(prev_t + exc.time)
                break
            prev_t = t
            times.append(t)
            states.append(current)

    return Trajectory(times=np.array(times), states=tuple(states), method=method, blowup=blowup)


# ---------------------------------------------------------------------------
# blowup localization
# ---------------------------------------------------------------------------


def detect_blowup(
    spec: lax.Spectrum,
    F0: jacobi.JacobiPoint,
    t0: float,
    t1: float,
    grid: int = 1000,
    refine_tol: float = 1e-9,
    tangency_tol: float = 1e-9,
) -> Optional[float]:
    """Earliest zero of any tau value along the evolved point on [t0, t1].

    Scans a uniform grid for sign changes and refines the earliest bracket by
    bisection.  A tau that dips below the tangency threshold without changing
    sign is reported as a GridMiss warning, not resolved.  One TauKernel
    serves the whole grid and every bisection step.
    """
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    ts = np.linspace(t0, t1, grid + 1)
    n = spec.lambdas.size
    kernel = jacobi.TauKernel(spec, F0)
    values = kernel.evaluate(ts)
    signs, gens = values.sign_tau, values.generality

    exact = np.nonzero(signs == 0.0)
    first_exact = int(exact[0][0]) if exact[0].size else None

    first_change = None  # (grid index, tau index)
    for k in range(n + 1):
        flips = np.nonzero(signs[:-1, k] * signs[1:, k] < 0.0)[0]
        if flips.size and (first_change is None or flips[0] < first_change[0]):
            first_change = (int(flips[0]), k)

    if first_exact is not None and (first_change is None or first_exact <= first_change[0]):
        return float(ts[first_exact])

    if first_change is None:
        if float(np.min(gens)) < tangency_tol:
            warnings.warn(
                GridMiss(
                    "a tau value approaches zero on the grid without a sign change; "
                    "no root reported"
                )
            )
        return None

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
    return float(min(roots))
