"""Time evolution of the lattice by three independent methods.

Each method is one private kernel over an array of times (``_tau_stacks``,
``_symes_stacks``, ``_rk4_stacks``).  A kernel returns the stacked bands of
its states, a (T, n) and b (T, n-1), cut off before the first sample that
fails, with the error that stopped them (None when every sample stands);
``trajectory`` keeps the stacks, and each public solver is the one-time
case of its kernel: ``solve_tau`` and ``solve_symes`` read row 0 of a run
over [t], ``solve_rk4`` row 1 of a run over [0, t].

* ``solve_tau``: closed form through the linearized coordinates: linearize,
  multiply by exponentials, reconstruct.
* ``solve_symes``: Symes's factorization of exp(t*L0) (Symes, "The QR
  algorithm and scattering for the finite nonperiodic Toda lattice",
  Physica D 4, 1982).  The sign of b picks the route:

  - b > 0: the QR form.  One ``eigh`` of the symmetrized matrix,
    J0 = V diag(lambda) V^T, gives S(t) = Q^T diag(lambda) Q, with Q the Q
    factor of diag(exp(t(lambda - max)/2)) V^T whose rows are sorted by
    decreasing exponent, which keeps the QR accurate on graded rows (Cox &
    Higham, BIT 38, 1998); a = diag S, b = subdiag(S)**2.  It holds for
    every t and never reports Blowup.
  - sign-mixed b: factorize exp(t*L0) = N*R with N unit lower triangular;
    L(t) = N^-1 L0 N = R L0 R^-1, whose bands are read off the subdiagonal
    of N and the diagonal of R.  One LAPACK eigendecomposition of L0
    serves every time; each exponential is scaled by exp(-t*lambda_max)
    before factorizing, and the scale multiplies R only, so it cancels from
    the pivot ratios.  A vanishing pivot is a vanishing tau value: Blowup.

  Both routes raise RangeExceeded when the eigenvectors of L0 leave double
  range (for b > 0: the diagonal similarity cumprod(sqrt(b)) is not finite
  or reaches 0), and when a state entry does.
* ``solve_rk4``: classical fixed-step Runge-Kutta on the tridiagonal
  coordinates of dL/dt = [L, L_lower].  One stepping run crosses every
  sample time, each interval stepped by dt with a final partial step.  It
  steps one interleaved state [0, a_1, b_1, ..., b_{n-1}, a_n, -0.0], on
  which each rate is the difference of the two entries beside it (times b
  for the b entries).  Two interval steppers with one signature give the
  same bits, and the size picks one.  Up to n = _SCALAR_RK4_MAX_N a Python
  function generated once per size steps the entries as floats in
  straight-line code; above it a numpy loop computes the rates into the
  rows of one (4, 2n-1) stage buffer made once per run, which one
  reduction sums.  Both test every new state by one rule, so Overflow
  carries the time of the first step past the threshold.

The three routes agree on regular trajectories and report blowups
differently: the closed forms fail exactly where a tau value vanishes, the
integrator when a subdiagonal entry passes the overflow threshold.  On a
positive subdiagonal no tau value vanishes, so neither closed form reports
one.
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
)

RK4_OVERFLOW_THRESHOLD = 1e12
# _rk4_stacks: largest n stepped by generated float code; the numpy loop is
# faster above it (the measured table is in CHANGES.md)
_SCALAR_RK4_MAX_N = 18
# detect_blowup: refined bracket width; generality that reads as a GridMiss
REFINE_TOL = 1e-9
TANGENCY_TOL = 1e-9
# bisection steps per kernel call (2**depth - 1 midpoints); 5 measured fastest
_BISECT_DEPTH = 5
# trajectory: most output steps, (t1 - t0) / dt_out, one run may ask for; a
# run has one sample more than its steps (t1 closes it)
MAX_SAMPLE_STEPS = 100_000
# _rk4_stacks: most steps, span / dt, one run may ask for; a step below the
# spacing of floats near the remaining time would never shorten it
MAX_RK4_STEPS = 10**7


# ---------------------------------------------------------------------------
# matrix exponential and LU factorization
# ---------------------------------------------------------------------------


def _eigendecomposition(L0: lax.LaxMatrix, t: float) -> tuple:
    """(lambda, V, V^-1) with L0 = V diag(lambda) V^-1 from one LAPACK call,
    complex: a nearly degenerate pair may come back as a conjugate pair.  A V
    singular in double precision spans more than double range: RangeExceeded
    with time t."""
    lams, V = np.linalg.eig(L0.to_dense())
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise RangeExceeded(t, "the eigenvectors of L0 leave double range") from exc
    return lams, V, V_inv


def _scaled_exp(eig: tuple, t: float):
    """exp(t*L0) * exp(-m) with m = max_i Re(t*lambda_i), the shift m, and
    the magnitudes |V| diag(|w|) |V^-1| its entries are summed from, where
    ``eig`` is L0's eigendecomposition and w = exp(t*lambda - m)."""
    lams, V, V_inv = eig
    shift = float(np.max((t * lams).real))
    Vw = V * np.exp(t * lams - shift)
    return (Vw @ V_inv).real, shift, np.abs(Vw) @ np.abs(V_inv)


def matrix_exp_spectral(L0: lax.LaxMatrix, t: float) -> np.ndarray:
    """exp(t*L0) = V diag(exp(t*lambda)) V^-1 on a simple real spectrum."""
    lax.spectrum(L0)
    scaled, shift, _ = _scaled_exp(_eigendecomposition(L0, t), t)
    return scaled * math.exp(shift)


def lu_unit_lower(M, scale=None) -> tuple:
    """Doolittle factorization M = N*R, N unit lower and R upper triangular,
    eliminated right-looking: each pivot row goes into R, its column into N,
    and one outer-product update into the trailing block.

    No pivoting: Symes's flow reads L(t) off the factors of exp(t*L0)
    itself, so row exchanges would factor another matrix.  R[k, k] is the
    ratio of the leading principal minors of orders k+1 and k, and a pivot
    that vanishes relative to the magnitudes accumulated into it signals a
    singular leading principal minor.  Those magnitudes start from the
    diagonal of |M|, or of ``scale`` when M's entries are themselves sums of
    terms whose magnitudes ``scale`` holds, and gain the magnitudes of each
    update's diagonal: the pivot test reads no other entry.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    mass = (np.abs(A) if scale is None else np.asarray(scale, dtype=float)).diagonal().tolist()
    N, R = np.eye(n), np.zeros((n, n))
    for k in range(n):
        pivot = float(A[k, k])
        if not math.isfinite(pivot) or abs(pivot) <= 1e-13 * mass[k]:
            raise SingularLeadingMinor(k + 1)
        R[k, k:] = A[k, k:]
        if k == n - 1:
            break
        N[k + 1 :, k] = A[k + 1 :, k] / pivot
        update = N[k + 1 :, k, None] * R[k, k + 1 :]
        A[k + 1 :, k + 1 :] -= update
        for i, term in enumerate(np.abs(update.diagonal()).tolist(), k + 1):
            mass[i] += term
    return N, R


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _tau_stacks(L0: lax.LaxMatrix, times) -> tuple:
    """Closed-form states at ``times`` as (a, b, error): one spectrum, one
    linearization and one tau kernel pass (``jacobi.reconstruct_along``)."""
    spec = lax.spectrum(L0)
    return jacobi.reconstruct_along(spec, jacobi.abel_jacobi(L0, spec=spec), times)


def _symes_qr(L0: lax.LaxMatrix, times) -> tuple:
    """States at ``times`` for a positive subdiagonal, as (a, b, error).

    Symes's QR form of the flow (module docstring): S(t) = Q^T diag(lambda) Q
    with Q the Q factor of diag(exp(t(lambda - max)/2)) V^T, rows sorted by
    decreasing exponent; a = diag S and b = subdiag(S)**2, so the signs of
    R's diagonal drop out.  L0's one ``eigh`` (``LaxMatrix._eigh``) serves
    every time and one stacked QR covers them all.  S is summed elementwise,
    not by BLAS products, so a row equals its single-time call bit for bit.

    The error is RangeExceeded, with the first time and no rows, when the
    similarity cumprod(sqrt(b)) leaves double range, and with a sample's
    time when its state does (b below the smallest normal double, as in the
    tau route).
    """
    spec = lax.spectrum(L0)
    times = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        similarity = np.cumprod(np.sqrt(L0.b))
    if not (np.isfinite(similarity).all() and similarity.all()):
        error = RangeExceeded(float(times[0]), "the eigenvectors of L0 leave double range")
        return np.empty((0, L0.n)), np.empty((0, L0.n - 1)), error
    lams, V = spec.lambdas, L0._eigh[1]
    rates = times[:, None] * lams
    order = np.argsort(-rates, axis=1, kind="stable")
    rates = np.take_along_axis(rates, order, axis=1)
    graded = np.exp(0.5 * (rates - rates[:, :1]))[:, :, None] * V.T[order]
    Q = np.linalg.qr(graded)[0]
    weighted = lams[order][:, :, None] * Q
    a = (weighted * Q).sum(axis=1)
    sub = (weighted[:, :, 1:] * Q[:, :, :-1]).sum(axis=1)
    b = sub * sub
    out_of_range = ~lax._in_range(a, b)
    if not out_of_range.any():
        return a, b, None
    stop = int(np.argmax(out_of_range))
    error = RangeExceeded(float(times[stop]), "the state's entries leave double range")
    return a[:stop], b[:stop], error


def _symes_lu(L0: lax.LaxMatrix, times) -> tuple:
    """States at ``times`` for a sign-mixed subdiagonal, as (a, b, error):
    one spectrum check and one eigendecomposition of L0 serve every time.

    Each state is read off two diagonals of the factors exp(t*L0) = N*R:
    L(t) = N^-1 L0 N = R L0 R^-1 is tridiagonal with unit superdiagonal, so
    a_k(t) = a_k + N[k+1, k] - N[k, k-1] and
    b_k(t) = b_k R[k+1, k+1] / R[k, k], the tau quotient of the closed form.

    The error is Blowup at a vanishing pivot, or RangeExceeded: with the
    first time and no rows when the eigenvectors leave double range, with a
    sample's time when its state does (as in the QR and tau routes).
    """
    lax.spectrum(L0)
    times = np.asarray(times, dtype=float).tolist()
    a, b = np.empty((len(times), L0.n)), np.empty((len(times), L0.n - 1))
    stop = 0
    try:
        eig = _eigendecomposition(L0, times[0])
        for t in times:
            scaled, _, mass = _scaled_exp(eig, t)
            try:
                N, R = lu_unit_lower(scaled, scale=mass)
            except SingularLeadingMinor as exc:
                raise Blowup(t, message=f"factorization failed at t={t!r}: {exc}") from exc
            flux, pivots = np.diagonal(N, -1), np.diagonal(R)
            with np.errstate(over="ignore", invalid="ignore"):
                a[stop] = L0.a
                a[stop, :-1] += flux
                a[stop, 1:] -= flux
                b[stop] = L0.b * pivots[1:] / pivots[:-1]
            if not lax._in_range(a[stop], b[stop]):
                raise RangeExceeded(t, "the state's entries leave double range")
            stop += 1
        error = None
    except (Blowup, RangeExceeded) as exc:
        error = exc
    return a[:stop], b[:stop], error


def _symes_stacks(L0: lax.LaxMatrix, times) -> tuple:
    """Symes states at ``times`` as (a, b, error); the sign of b picks the route."""
    return (_symes_qr if np.all(L0.b > 0) else _symes_lu)(L0, times)


def solve_symes(L0: lax.LaxMatrix, t: float) -> lax.LaxMatrix:
    """State at time t from Symes's factorization of exp(t*L0): the one-time
    case of the kernel ``trajectory`` uses, routes and errors as in the
    module docstring.

    The QR route (b > 0) is backward stable, not accurate entry by entry:
    each entry is off by a rounding error relative to max |lambda|, so an
    entry much smaller than the norm of L0 (a huge b beside a small a, say)
    may keep few correct digits.
    """
    a, b, error = _symes_stacks(L0, [t])
    if error is not None:
        raise error
    return lax.LaxMatrix._trusted(n=L0.n, a=a[0], b=b[0])


def solve_tau(L0: lax.LaxMatrix, t: float) -> lax.LaxMatrix:
    """Closed-form state at time t through the linearized coordinates.

    Raises Blowup when a tau value vanishes at t and RangeExceeded when an
    entry of the state leaves double range.
    """
    a, b, error = _tau_stacks(L0, [t])
    if isinstance(error, NonGeneralDivisor):
        raise Blowup(float(t), tau_index=error.index) from error
    if error is not None:
        raise error
    return lax.LaxMatrix._trusted(n=L0.n, a=a[0], b=b[0])


def _interleaved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The state [0, a_1, b_1, a_2, ..., b_{n-1}, a_n, -0.0]: entry j's rate is
    entry j+1 minus entry j-1, times entry j for the b entries.  The end
    zeros give da_1 = b_1 - 0.0 and da_n = -0.0 - b_{n-1}, which round (signed
    zeros included) as b_1 and -b_{n-1}."""
    y = np.zeros(2 * a.size + 1)
    y[1:-1:2] = a
    y[2:-1:2] = b
    y[-1] = -0.0
    return y


def toda_derivative(a: np.ndarray, b: np.ndarray) -> tuple:
    """Right-hand side of the lattice equations in tridiagonal coordinates.

    da_1 = b_1, da_k = b_k - b_{k-1}, da_n = -b_{n-1}; db_k = b_k (a_{k+1} - a_k).
    On the interleaved state [0, a_1, b_1, ..., a_n, -0.0] each rate is one
    difference of the entries beside it, and the b rates are then scaled by b.
    """
    y = _interleaved(a, b)
    rates = y[2:] - y[:-2]
    rates[1::2] *= b
    return rates[::2], rates[1::2]


# one function per size; _rk4_stacks asks for sizes up to _SCALAR_RK4_MAX_N
@functools.lru_cache(maxsize=None)
def _rk4_interval(n: int):
    """The RK4 stepper of one sample interval for lattices of size n, as a
    Python function generated once per size: straight-line float code,
    ``run(dt, remaining, y_0, ..., y_{2n-2}) -> (elapsed, overflowed, *state)``
    on the state [a_1, b_1, ..., a_n] of ``toda_derivative``.

    Each step rounds as a step of ``_rk4_numpy``: step = direction *
    min(dt, |remaining|), half = 0.5 * step and sixth = step / 6.0; a rate is
    the difference of the entries beside it (the end zeros 0.0 and -0.0
    written in), times b for the b entries; a stage input is y + k * c; the
    update is y + (((k1 + k2 * 2.0) + k3 * 2.0) + k4) * sixth.  Every new
    state is tested, so a run stops at the first step that holds a
    non-finite a entry or a b entry outside [-RK4_OVERFLOW_THRESHOLD,
    RK4_OVERFLOW_THRESHOLD] (NaN and +-inf included), with overflowed True.
    The source depends on n and module constants only; the threshold is
    written in when the stepper of a size is first built.
    """
    m = 2 * n - 1
    y = [f"y{j}" for j in range(m)]
    s = [f"s{j}" for j in range(m)]

    def rates(k: str, x: list) -> list:
        out = []
        for j in range(m):
            rate = f"{x[j + 1] if j + 1 < m else '-0.0'} - {x[j - 1] if j else '0.0'}"
            out.append(f"{k}_{j} = ({rate}) * {x[j]}" if j % 2 else f"{k}_{j} = {rate}")
        return out

    bound = repr(float(RK4_OVERFLOW_THRESHOLD))
    # a comparison is false for NaN, and x - x is NaN for +-inf and NaN
    tests = [f"-{bound} <= y{j} <= {bound}" for j in range(1, m, 2)]
    tests += [f"y{j} - y{j} == 0.0" for j in range(0, m, 2)]
    state = ", ".join(y)
    step = [
        "step = direction * min(dt, abs(remaining))",
        "half = 0.5 * step",
        "sixth = step / 6.0",
        *rates("k1", y),
        *(f"s{j} = y{j} + k1_{j} * half" for j in range(m)),
        *rates("k2", s),
        *(f"s{j} = y{j} + k2_{j} * half" for j in range(m)),
        *rates("k3", s),
        *(f"s{j} = y{j} + k3_{j} * step" for j in range(m)),
        *rates("k4", s),
        *(f"y{j} = y{j} + (((k1_{j} + k2_{j} * 2.0) + k3_{j} * 2.0) + k4_{j}) * sixth" for j in range(m)),
        "elapsed += step",
        "remaining -= step",
        f"if not ({' and '.join(tests)}):",
        f"    return elapsed, True, {state}",
    ]
    source = "\n".join(
        [
            f"def run(dt, remaining, {state}):",
            "    direction = copysign(1.0, remaining)",
            "    elapsed = 0.0",
            "    while abs(remaining) > 0.0:",
            *(f"        {line}" for line in step),
            f"    return elapsed, False, {state}",
        ]
    )
    namespace = {"copysign": math.copysign}
    exec(compile(source, f"<rk4 stepper n={n}>", "exec"), namespace)
    return namespace["run"]


def _rk4_numpy(n: int):
    """The RK4 stepper of one sample interval for lattices of size n as a
    numpy loop whose calls do not grow with n: ``run`` with the signature,
    bits and overflow rule of ``_rk4_interval(n)``, over buffers made once
    per stepper, so once per run.

    The steps run on the interleaved state of ``toda_derivative``, so a
    stage's rates are one subtraction of the state shifted by two and one
    strided product with the b entries.  The four stages are the rows of one
    buffer, summed by one reduction, and the step sizes are 0-d arrays,
    rebuilt only when the step changes (at a final partial step).  A new
    state y with y . y < fl(threshold**2) passes the test at once: a sum of
    squares rounds to at least each square, in any order, so every entry is
    finite and within the threshold.  Any other state must hold its b
    entries within the threshold and its a entries finite (a NaN fails
    either).
    """
    # Y and S hold the state and a stage input between their end zeros; y
    # and s are the states themselves, [a_1, b_1, ..., a_n]
    Y = _interleaved(np.zeros(n), np.zeros(n - 1))
    S = Y.copy()
    y, s = Y[1:-1], S[1:-1]
    Y_next, Y_prev, S_next, S_prev = Y[2:], Y[:-2], S[2:], S[:-2]
    y_a, y_b, s_b = Y[1:-1:2], Y[2:-1:2], S[2:-1:2]
    K, acc = np.empty((4, y.size)), np.empty_like(y)
    k1, k2, k3, k4 = K
    k23 = K[1:3]
    k1_b, k2_b, k3_b, k4_b = K[:, 1::2]
    add, subtract, multiply = np.add, np.subtract, np.multiply
    add_reduce, dot = np.add.reduce, y.dot
    two = np.array(2.0)
    bound = RK4_OVERFLOW_THRESHOLD
    squared = bound * bound

    def run(dt, remaining, *state):
        y[:] = state
        direction = math.copysign(1.0, remaining)
        elapsed = 0.0
        h = full = half = sixth = None
        # the state test decides an overflow, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            while abs(remaining) > 0.0:
                step = direction * min(dt, abs(remaining))
                if step != h:
                    h = step
                    full, half, sixth = np.array(h), np.array(0.5 * h), np.array(h / 6.0)
                subtract(Y_next, Y_prev, k1)
                multiply(k1_b, y_b, k1_b)
                multiply(k1, half, s)
                add(s, y, s)
                subtract(S_next, S_prev, k2)
                multiply(k2_b, s_b, k2_b)
                multiply(k2, half, s)
                add(s, y, s)
                subtract(S_next, S_prev, k3)
                multiply(k3_b, s_b, k3_b)
                multiply(k3, full, s)
                add(s, y, s)
                subtract(S_next, S_prev, k4)
                multiply(k4_b, s_b, k4_b)
                # y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4): a reduction over the
                # slow axis adds row by row, and -0.0 is the exact identity
                multiply(k23, two, k23)
                add_reduce(K, axis=0, out=acc, initial=-0.0)
                multiply(acc, sixth, acc)
                add(y, acc, y)
                elapsed += h
                remaining -= h
                if not dot(y) < squared and not (
                    np.abs(y_b).max() <= bound and np.abs(y_a).max() < math.inf
                ):
                    return elapsed, True, *y.tolist()
        return elapsed, False, *y.tolist()

    return run


def _rk4_stacks(L0: lax.LaxMatrix, sample_ts, dt: float) -> tuple:
    """RK4 states at ``sample_ts`` from L0 at sample_ts[0], as (a, b, error):
    one run of fixed steps, each interval between consecutive sample times
    stepped by dt with a final partial step in one call of an interval
    stepper.  The error is the Overflow (with the overflowing step's time)
    or the RangeExceeded (with the sample time) that ended the run; L0
    itself is never tested.  A dt that is not positive (NaN included), or
    one that asks for more than MAX_RK4_STEPS steps over the span of the
    sample times, is a ValueError.

    The size picks the stepper, ``run(dt, remaining, *state) -> (elapsed,
    overflowed, *state)`` on the entries of the interleaved state; both give
    the same bits and stop at the same step.  Up to n = _SCALAR_RK4_MAX_N it
    is the generated Python float code of ``_rk4_interval``, whose cost
    grows with n; above it, the numpy loop of ``_rk4_numpy``, whose calls do
    not.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    dt = float(dt)  # a numpy scalar would step in numpy scalar arithmetic
    times = sample_ts.tolist()
    if abs(times[-1] - times[0]) / dt > MAX_RK4_STEPS:
        raise ValueError(f"rk4 dt {dt!r} needs more than MAX_RK4_STEPS = {MAX_RK4_STEPS} steps")
    run = _rk4_interval(L0.n) if L0.n <= _SCALAR_RK4_MAX_N else _rk4_numpy(L0.n)
    a, b = np.empty((len(times), L0.n)), np.empty((len(times), L0.n - 1))
    a[0], b[0] = L0.a, L0.b
    state = _interleaved(L0.a, L0.b)[1:-1].tolist()
    for stop, (prev, t) in enumerate(zip(times, times[1:]), 1):
        elapsed, overflowed, *state = run(dt, t - prev, *state)
        if overflowed:
            return a[:stop], b[:stop], Overflow(prev + elapsed)
        a[stop], b[stop] = state[::2], state[1::2]
        if not lax._in_range(a[stop], b[stop]):
            return a[:stop], b[:stop], RangeExceeded(t)
    return a, b, None


def solve_rk4(L0: lax.LaxMatrix, t: float, dt: float) -> lax.LaxMatrix:
    """Classical fixed-step RK4 on the tridiagonal coordinates: the one-time
    case of the kernel ``trajectory`` uses.

    Integrates ceil(|t|/dt) steps with a final partial step; raises Overflow
    (with the step time) at the first step whose state holds a subdiagonal
    magnitude past 1e12 or a non-finite entry (L0 is not tested), and, as
    the closed forms do, RangeExceeded (time t) when an entry ends below the
    smallest normal double.  A non-finite t, a step that is not positive
    (NaN included) or more than MAX_RK4_STEPS steps, |t| / dt, is a
    ValueError.  Every entry rounds as in the two-array form of the method:
    each rate is one difference, and the update keeps the order
    (((k1 + 2 k2) + 2 k3) + k4), whichever of the two interval steppers of
    ``_rk4_stacks`` the size picks.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    a, b, error = _rk4_stacks(L0, np.array([0.0, t]), dt)
    if error is not None:
        raise error
    return lax.LaxMatrix._trusted(n=L0.n, a=a[1], b=b[1])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one run, as stacked bands.

    ``times`` (T,) are the sample times, ``a`` (T, n) and ``b`` (T, n-1) the
    diagonal and subdiagonal of the state at each; all three are read-only
    and cannot be made writable.  ``blowup`` is the first failing sample
    time (None when the run reached t1), and a run that fails at t0 has no
    rows.  ``states`` is derived: one read-only LaxMatrix row view per sample.
    """

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    method: str
    blowup: Optional[float] = None

    def __post_init__(self):
        times, a, b = (lax._frozen(x) for x in (self.times, self.a, self.b))
        if times.ndim != 1 or (times.size > 1 and np.any(np.diff(times) <= 0)):
            raise ValueError("sample times must be strictly increasing")
        if a.ndim != 2 or a.shape[0] != times.size or b.shape != (times.size, a.shape[1] - 1):
            raise ValueError("bands of shape (T, n) and (T, n-1) required, one row per sample time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @functools.cached_property
    def states(self) -> tuple:
        n = self.a.shape[1]
        return tuple(lax.LaxMatrix._trusted(n=n, a=a, b=b) for a, b in zip(self.a, self.b))

    def to_csv(self, fp) -> None:
        """Header t,a1..aN,b1..b(N-1); one row per sample; blowup as a comment.
        A run without rows has the header ``t`` alone."""
        n = self.a.shape[1] if self.times.size else 0
        header = ["t"] + [f"a{i}" for i in range(1, n + 1)] + [f"b{i}" for i in range(1, n)]
        rows = np.column_stack((self.times, self.a, self.b)).tolist()
        lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
        if self.blowup is not None:
            lines.append(f"# blowup t={self.blowup:.6f}")
        fp.write("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        n = self.a.shape[1]
        return {
            "times": self.times.tolist(),
            "states": [{"n": n, "a": a, "b": b} for a, b in zip(self.a.tolist(), self.b.tolist())],
            "method": self.method,
            "blowup": None if self.blowup is None else float(self.blowup),
        }

    def to_json(self, fp) -> None:
        json.dump(self.to_json_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")


def _sample_times(t0: float, t1: float, dt_out: float) -> np.ndarray:
    """t0, then t0 + k * dt_out for k = 1, 2, ... while below t1 by more than
    1e-12 relative, then t1.  ValueError past MAX_SAMPLE_STEPS steps."""
    stop = t1 - 1e-12 * max(1.0, abs(t1))
    # Halves keep the span finite.  Rounding, and halving a subnormal, can
    # put up to two more k below stop than the estimate; the mask keeps the
    # exact ones, a prefix, since t0 + k * dt_out never decreases with k.
    steps = (stop / 2 - t0 / 2) / dt_out * 2
    if steps > MAX_SAMPLE_STEPS:
        raise ValueError(
            f"dt_out {float(dt_out)!r} asks for more than MAX_SAMPLE_STEPS = {MAX_SAMPLE_STEPS}"
            f" sample steps on [{float(t0)!r}, {float(t1)!r}]"
        )
    inner = t0 + np.arange(1, math.floor(max(steps, 0.0)) + 3) * dt_out
    return np.concatenate(([t0], inner[inner < stop], [t1]))


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
    Each method is one kernel that returns the stacked bands of all sample
    times: tau and symes decompose L0 once (symes: one ``eigh`` and one
    stacked QR for b > 0, one ``eig`` for sign-mixed b), so their rows equal
    ``solve_tau`` and ``solve_symes`` bit for bit; rk4 makes one stepping
    run across all sample times, of which ``solve_rk4`` is the one-time case.
    Sampling stops, with ``blowup`` set to the failing sample time (for rk4
    the overflowing step's time), at the first Blowup or Overflow.
    RangeExceeded is raised again with the failing sample time: a value
    that leaves double range is not a blowup.  A non-finite time, a step
    that is not positive (NaN included), more than MAX_SAMPLE_STEPS steps,
    (t1 - t0) / dt_out, or for rk4 more than MAX_RK4_STEPS steps,
    (t1 - t0) / rk4_dt, is a ValueError.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    if not dt_out > 0.0:
        raise ValueError("dt_out must be positive")
    if method not in ("tau", "symes", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    sample_ts = _sample_times(t0, t1, dt_out)
    if method == "rk4":
        a, b, error = _rk4_stacks(L0, sample_ts, rk4_dt)
    else:
        a, b, error = (_tau_stacks if method == "tau" else _symes_stacks)(L0, sample_ts - t0)
    rows = a.shape[0]
    blowup = None
    if isinstance(error, RangeExceeded):
        raise RangeExceeded(float(sample_ts[rows])) from error
    if isinstance(error, Overflow):
        blowup = error.time
    elif error is not None:  # NonGeneralDivisor or Blowup
        blowup = float(sample_ts[rows])
    return Trajectory(sample_ts[:rows], a, b, method, blowup)


# ---------------------------------------------------------------------------
# blowup localization
# ---------------------------------------------------------------------------


def detect_blowup(
    spec: lax.Spectrum,
    F0: jacobi.JacobiPoint,
    t0: float,
    t1: float,
    grid: int = 1000,
) -> Optional[float]:
    """Earliest zero of any tau value along the evolved point on [t0, t1].

    A tau class whose Laplace terms all have one sign cannot vanish
    (``TauKernel.zero_free``: Laguerre's rule of signs, Polya-Szego,
    Problems and Theorems in Analysis II, Part V), so it is never summed;
    when every class is such, as on every cone point, the answer is None
    without a scan.  Otherwise a uniform grid is scanned for sign changes,
    summing only the tau classes from the first to the last uncertified one
    (``sums`` forms no tau').  The scan runs in time order, in chunks of
    one kernel block and then twice the previous chunk, and stops at the
    first chunk that holds an exact zero or a sign change (the last row of a
    chunk is compared with the first of the next).  The earliest bracket is refined
    by one bisection over every class that changes sign in it (``_bisect``):
    each step sums only the range of classes still live, keeps the half
    where some of them changes sign and stops at an exact zero of one, and
    one kernel call sums the midpoints of the next _BISECT_DEPTH steps.
    The bracket narrows to REFINE_TOL, or to two adjacent doubles where
    those are wider apart (|t| >= 2**23), and its midpoint is returned.  A
    tau that dips below the tangency threshold without changing sign is
    reported as a GridMiss warning, not resolved.  One TauKernel serves the
    whole grid and every bisection step.

    Raises ValueError unless t0 < t1, both and the window length t1 - t0
    are finite, and grid >= 1.  Raises RangeExceeded, with the window end
    t0 or t1, when a tau class the scan would sum has a term whose log is
    not finite there: such a sum can underflow to a false zero.
    """
    t0, t1 = float(t0), float(t1)
    if not math.isfinite(t1 - t0):
        raise ValueError("t0, t1 and t1 - t0 must be finite")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    if grid < 1:
        raise ValueError("grid needs at least one interval")
    kernel = jacobi.TauKernel(spec, F0)
    uncertified = np.flatnonzero(~kernel.zero_free(t0, t1)[0])
    if not uncertified.size:
        return None
    first, stop = int(uncertified[0]), int(uncertified[-1]) + 1
    for end in (t0, t1):
        if not kernel._finite_logs(end, end)[0, first:stop].all():
            raise RangeExceeded(end, f"tau terms leave double range at t={end!r}")
    ts = np.linspace(t0, t1, grid + 1)
    # rows do not depend on how many are summed together, so the earliest
    # event in the chunks is the earliest on the grid
    height = max(1, jacobi._BLOCK_TERMS // int(kernel.bounds[stop] - kernel.bounds[first]))
    rows, lowest, lo = np.empty((0, stop - first)), math.inf, 0
    while lo < ts.size:
        signs, _, gens = kernel.sums(ts[lo : lo + height], first, stop)
        # the previous chunk's last row, so a sign change between chunks shows
        rows = np.concatenate([rows[-1:], signs])
        exact = np.flatnonzero((rows == 0.0).any(axis=1))
        flips = np.flatnonzero((rows[:-1] * rows[1:] < 0.0).any(axis=1))
        if exact.size or flips.size:
            break
        lowest = np.minimum(lowest, np.min(gens))
        lo, height = lo + height, 2 * height
    else:
        if float(lowest) < TANGENCY_TOL:
            warnings.warn(
                GridMiss(
                    "a tau value approaches zero on the grid without a sign change; "
                    "no root reported"
                )
            )
        return None

    at = ts[max(lo - 1, 0) :]  # the times of rows: a later chunk carries one
    if exact.size and (not flips.size or exact[0] <= flips[0]):
        return float(at[exact[0]])
    i = int(flips[0])
    live = rows[i] * rows[i + 1] < 0.0  # classes that change sign in the bracket
    return _bisect(kernel, float(at[i]), float(at[i + 1]), first, rows[i], live)


def _bisect(kernel, lo, hi, first, s_lo, live) -> float:
    """Root of the earliest class among ``live`` to change sign in [lo, hi].

    Classes first.. of ``kernel`` have signs ``s_lo`` at lo, and ``live``
    marks those of opposite sign at hi.  Each step sums only the range of
    classes still live, keeps the half where one of them changes sign and
    stops at an exact zero of one, until the bracket is REFINE_TOL wide.
    One ``sums`` call evaluates the midpoints of the next _BISECT_DEPTH steps
    down every path; a class summed in a wider range equals its narrower
    sum bit for bit, so the steps are those of one call per step.

    Past |t| = 2**23 adjacent doubles can be more than REFINE_TOL apart: when
    lo and hi are adjacent, no midpoint lies strictly between them, and the
    bisection stops there with a bracket wider than REFINE_TOL.
    """
    mids, node = [], 0
    while hi - lo > REFINE_TOL:
        if not (live[0] and live[-1]):
            # narrow the summed range to the first through the last live class
            span = np.flatnonzero(live)
            keep = slice(span[0], span[-1] + 1)
            first, live, s_lo = first + int(span[0]), live[keep], s_lo[keep]
        if node >= len(mids):
            mids, node, base = _midpoint_tree(lo, hi), 0, first
            tree = kernel.sums(mids, first, first + live.size)[0]
        mid, s_mid = mids[node], tree[node, first - base : first - base + live.size]
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        left = live & (s_mid * s_lo < 0.0)
        if left.any():
            hi, live, node = mid, left, 2 * node + 1
        elif (s_mid[live] == 0.0).any():
            return mid
        else:
            lo, node = mid, 2 * node + 2
    return 0.5 * (lo + hi)


def _midpoint_tree(lo: float, hi: float) -> list:
    """Midpoints of _BISECT_DEPTH bisection steps of [lo, hi] down every
    path, in heap order: node j bisects a bracket whose left half node
    2j + 1 and right half node 2j + 2 bisect next."""
    brackets, mids = [(lo, hi)], []
    for j in range((1 << _BISECT_DEPTH) - 1):
        a, b = brackets[j]
        mids.append(0.5 * (a + b))
        brackets += [(a, mids[j]), (mids[j], b)]
    return mids
