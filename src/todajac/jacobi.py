"""Jacobi-coordinate side of the flow: tau determinants and linearization.

A phase-space matrix with simple real spectrum maps to the projective tuple
of its (1,1)-cofactor values at the eigenvalues (``abel_jacobi``; for a
positive subdiagonal they come from the Weyl-function residues, which keep
their relative accuracy on strongly evolved states).  Under the
flow this tuple just gets multiplied componentwise by exp(t*lambda_i)
(``evolve_point``), and the matrix is recovered from tau determinants mixing
Vandermonde columns with point-weighted ones (``reconstruct``):

    b_k = tau[k-1] * tau[k+1] / tau[k]**2
    a_k = tau'[k] / tau[k] - tau'[k-1] / tau[k-1]        (tau'[0] = 0)

Tuples are stored with the first coordinate normalized to one.  The sign
convention for tau is fixed so that sign-alternating tuples (the positive
cone) give strictly positive tau values; with that normalization the
tridiagonal matrices produced by ``reconstruct`` from cone points are exactly
the totally nonnegative ones.

Tau values can overflow double precision for strongly evolved points, so the
sequence also carries (sign, log|tau|) pairs and all internal quotients are
formed in log space.

``TauKernel`` and the reconstruction quotients also run on stacks of points
(one row per point).  Their term sums are elementwise adds in a fixed order,
never BLAS products, whose summation order depends on matrix shape and
memory layout; so a stacked row equals the single-point call bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lax
from .errors import NonGeneralDivisor, NonPositiveZ, RangeExceeded, ZeroCofactorValue
from .lax import _readonly

DEFAULT_GENERAL_TOL = 1e-12
DEFAULT_ZERO_COFACTOR_TOL = 1e-12

# terms per kernel block: the (times, 2^(n+1)) work arrays stay at 128 KiB
# each, and each numpy call stays short
_BLOCK_TERMS = 1 << 14
# log of the largest finite double
_LOG_HUGE = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class JacobiPoint:
    """Nonvanishing real tuple up to overall scale, stored with f[0] = 1.

    Two raw tuples represent the same point exactly when their normalized
    forms agree componentwise.
    """

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 1 or f.size < 1:
            raise ValueError("point must be a nonempty 1-D array")
        if not np.all(np.isfinite(f)):
            raise ValueError("point entries must be finite")
        if np.any(f == 0.0):
            raise ValueError("point entries must be nonzero")
        if f[0] != 1.0:
            f = f / f[0]
            if np.any(f == 0.0) or not np.all(np.isfinite(f)):
                raise ValueError("normalization by the first entry under/overflowed")
        object.__setattr__(self, "f", _readonly(f))

    @classmethod
    def _trusted(cls, f) -> "JacobiPoint":
        """A 1-D tuple the caller knows to be finite, nonzero and normalized
        to f[0] = 1.  No checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "f", _readonly(f))
        return out

    @property
    def n(self) -> int:
        return int(self.f.size)

    @classmethod
    def from_raw(cls, values) -> "JacobiPoint":
        return cls(f=np.asarray(values, dtype=float))

    def allclose(self, other: "JacobiPoint", rtol: float = 1e-9, atol: float = 0.0) -> bool:
        return bool(np.allclose(self.f, other.f, rtol=rtol, atol=atol))

    def to_json_dict(self) -> dict:
        return {"f": [float(x) for x in self.f]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JacobiPoint":
        try:
            vals = [float(x) for x in data["f"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed point object: {exc}") from exc
        return cls.from_raw(np.array(vals))


@dataclass(frozen=True, eq=False)
class SignComponent:
    """Signs of f[1:] under the f[0] = 1 normalization (one of 2^(n-1) patterns)."""

    signs: tuple

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", tuple(int(s) for s in self.signs))

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    @classmethod
    def from_string(cls, text: str) -> "SignComponent":
        return cls(signs=tuple(1 if ch == "+" else -1 for ch in text))


def _normalized_point(values: np.ndarray) -> JacobiPoint:
    """JacobiPoint.from_raw(values) for a library-built 1-D array.

    The constructor accepts a tuple exactly when values[0] and its
    normalized form values / values[0] are finite and nonzero, so only that
    is checked; any other tuple gets the constructor's own error.
    """
    first = values[0]
    if first != 0.0 and np.isfinite(first):
        f = values / first
        if np.isfinite(f).all() and f.all():
            return JacobiPoint._trusted(f)
    return JacobiPoint.from_raw(values)


def alternating_signs(n: int) -> tuple:
    """The cone pattern for f[1:]: starts negative and alternates."""
    return tuple(-1 if i % 2 == 0 else 1 for i in range(n - 1))


def sign_component(F: JacobiPoint):
    """Sign pattern of the normalized tail and whether it is the cone pattern."""
    signs = tuple(1 if x > 0 else -1 for x in F.f[1:])
    return SignComponent(signs=signs), signs == alternating_signs(F.n)


# ---------------------------------------------------------------------------
# tau determinants
# ---------------------------------------------------------------------------


def epsilon_signs(n: int) -> np.ndarray:
    """Calibrated tau signs: with these, cone points give all tau[k] > 0."""
    ks = np.arange(n + 1)
    return (-1.0) ** ((ks * n - ks * (ks + 1) // 2) % 2)


def _tau_matrix(lams: np.ndarray, f: np.ndarray, k: int, last_power: int) -> np.ndarray:
    """Columns (1, lam, .., lam^(n-k-1), f, f*lam, .., f*lam^(k-2), f*lam^last)."""
    n = lams.size
    cols = [lams**j for j in range(n - k)]
    for j in range(k - 1):
        cols.append(f * lams**j)
    if k >= 1:
        cols.append(f * lams**last_power)
    return np.column_stack(cols)


class _Subsets(NamedTuple):
    """The 2^n index sets S of 1..n, ordered by size (row order within a size
    follows the bit mask)."""

    masks: np.ndarray  # (2^n,) bit mask of each set (bit i: index i+1 in S)
    complements: np.ndarray  # (2^n,) bit mask of the complement of each set
    below: np.ndarray  # (n, 1, n) True at [k, 0, i] for i < k
    sizes: np.ndarray  # (2^n,) |S|, nondecreasing
    signs: np.ndarray  # (2^n,) sign of S's Laplace term before the f signs
    # (2n+3,) first term of each size class, unprimed then primed, then the
    # term count
    term_bounds: np.ndarray
    term_classes: np.ndarray  # (2^(n+1),) class of each term


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> _Subsets:
    count = 1 << n
    bits = (np.arange(count)[:, None] >> np.arange(n)[None, :]) & 1
    masks = np.argsort(bits.sum(axis=1), kind="stable")
    bits = bits[masks]
    sizes = bits.sum(axis=1)
    # (-1)**(1-based row sum + parity of the point-weighted column positions),
    # times the calibrated epsilon sign of the size class
    parity = (bits @ np.arange(1, n + 1) + sizes * n - sizes * (sizes - 1) // 2) % 2
    starts = np.searchsorted(sizes, np.arange(n + 1))
    return _Subsets(
        masks=_readonly(masks, dtype=np.intp),
        complements=_readonly((count - 1) ^ masks, dtype=np.intp),
        below=_readonly(np.tri(n, k=-1)[:, None, :], dtype=bool),
        sizes=_readonly(sizes, dtype=int),
        signs=_readonly(np.where(parity == 0, 1.0, -1.0) * epsilon_signs(n)[sizes]),
        term_bounds=_readonly(np.concatenate([starts, starts + count, [2 * count]]), dtype=int),
        term_classes=_readonly(np.concatenate([sizes, sizes + n + 1]), dtype=int),
    )


def _subset_sums(x: np.ndarray) -> np.ndarray:
    """sum(x[s, S]) for every row s of x (rows, m) and every subset S of
    range(m), indexed by bit mask: shape (rows, 2^m).

    Each sum adds its members from the lowest index up, one elementwise add
    per member, so no value depends on memory layout or on the number of
    rows (BLAS picks its summation order by matrix shape, so a stacked BLAS
    product rounds differently from the single-row one).
    """
    out = np.zeros((x.shape[0], 1 << x.shape[1]))
    for k in range(x.shape[1]):
        out[:, 1 << k : 2 << k] = out[:, : 1 << k] + x[:, k : k + 1]
    return out


class TauGrid(NamedTuple):
    """Tau data at T times, each field a (T, n+1) array (see TauSequence)."""

    sign_tau: np.ndarray
    log_abs_tau: np.ndarray
    sign_tau_prime: np.ndarray
    log_abs_tau_prime: np.ndarray
    generality: np.ndarray


class TauKernel:
    """Tau and tau' values of points along the flow, as exponential sums.

    The determinant with n-k leading Vandermonde columns and k point-weighted
    columns expands over size-k index sets S as

        (-1)**(sum(S) + parity(k)) * prod(f[S]) * vdm(lams[S]) * vdm(lams[~S])

    (1-based row sums; vdm factors are positive for an increasing spectrum).
    The primed determinants carry an extra factor e1(S) = sum(lams[S]) from
    the shifted top power (a bialternant identity).  Along the flow only
    prod(f[S]) moves: evolve_point(F, spec, t) has coordinates
    f[i] * exp(t * (lams[i] - lams[0])), so the log of each term gains
    t * (e1(S) - k * lams[0]).  Term logs, signs and these rates are fixed by
    (spec, F), and ``evaluate`` sums them for a whole array of times without
    forming the evolved points, so no coordinate can leave double range.
    Summing each signed class with its largest magnitude factored out is
    accurate at any coordinate grading, with relative error ~ eps divided by
    the generality ratio.

    The terms form 2n+2 classes: tau[0..n] (unprimed), then tau'[0..n]
    (primed).  ``sums`` evaluates any contiguous range of them, each class
    over the same terms in the same order as ``evaluate``, so its columns
    equal the full evaluation bit for bit.  ``zero_free`` certifies the tau
    classes whose terms all have one sign: by Laguerre's rule of signs such
    an exponential sum has no real zero.

    ``spec`` and ``F`` may also be stacks: arrays of eigenvalue rows and of
    point rows, shape (S, n) each.  Every term sum is built by elementwise
    adds in a fixed order (``_subset_sums``), which depends on neither memory
    layout nor stack height, so each row equals the kernel of that row alone
    bit for bit.  Gaps or sums of eigenvalues beyond double range give inf
    or NaN logs, quietly; reconstruction reports them as out of range.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, spec, F):
        lams = spec.lambdas if isinstance(spec, lax.Spectrum) else np.asarray(spec, dtype=float)
        f = F.f if isinstance(F, JacobiPoint) else np.asarray(F, dtype=float)
        n = lams.shape[-1]
        if f.shape != lams.shape:
            raise ValueError(f"point length {f.shape} does not match spectrum size {n}")
        if not f.all():
            raise ValueError("point entries must be nonzero")
        lams, f = lams.reshape(-1, n), f.reshape(-1, n)
        rows = lams.shape[0]
        sub = _subsets(n)
        # [k, s, i] = log|lams[s, k] - lams[s, i]| for i < k, 0 elsewhere
        gaps = np.log(np.abs(np.where(sub.below, lams.T[:, :, None] - lams, 1.0)))
        sums = _subset_sums(
            np.concatenate([np.log(np.abs(f)), lams, (f < 0.0) * 1.0, gaps.reshape(n * rows, n)])
        )
        by_set = sums[: 3 * rows, sub.masks]
        log_f, e1, negatives = by_set[:rows], by_set[rows : 2 * rows], by_set[2 * rows :]
        pairs = sums[3 * rows :].reshape(n, rows, -1)
        # log vdm(lams[S]): adding index k, the largest so far, adds the log
        # gaps between k and every i in S
        vdm = np.zeros((rows, 1 << n))
        for k in range(1, n):
            vdm[:, 1 << k : 2 << k] = vdm[:, : 1 << k] + pairs[k, :, : 1 << k]
        logs = log_f + vdm[:, sub.masks] + vdm[:, sub.complements]
        # an exact count, so its parity is exact
        signs = sub.signs * np.where(negatives.astype(int) & 1, -1.0, 1.0)
        # unprimed terms, then primed ones (the empty set's primed term is 0,
        # which gives tau'[0] = 0); one column block per size class
        log_e1 = np.log(np.abs(e1), out=np.full_like(e1, -math.inf), where=e1 != 0.0)
        self.logs = np.concatenate([logs, logs + log_e1], axis=1)
        self.signs = np.concatenate([signs, signs * np.sign(e1)], axis=1)
        rates = e1 - sub.sizes * lams[:, :1]
        self.rates = np.concatenate([rates, rates], axis=1)
        self.bounds, self.classes = sub.term_bounds, sub.term_classes
        self.n = n

    def zero_free(self, t0: float, t1: float) -> np.ndarray:
        """(rows, n+1) True where tau[k] cannot vanish on [t0, t1].

        tau[k](t) = sum over S of c_S exp(r_S t) has at most as many real
        zeros as the coefficients c_S, ordered by rate, have sign changes
        (Laguerre's rule of signs; Polya-Szego, Problems and Theorems in
        Analysis II, Part V): none when every term has one sign.  The
        computed sum of one-signed terms is never 0 either, and its
        generality is exactly 1, while every term log stays finite
        (``_finite_logs``).
        """
        k = self.n + 1
        signs, starts = self.signs[:, : self.bounds[k]], self.bounds[:k]
        lowest = np.minimum.reduceat(signs, starts, axis=1)
        one_signed = lowest == np.maximum.reduceat(signs, starts, axis=1)
        return one_signed & self._finite_logs(t0, t1)

    @np.errstate(over="ignore", invalid="ignore")
    def _finite_logs(self, t0: float, t1: float) -> np.ndarray:
        """(rows, n+1) True where every term log of tau[k] is finite on [t0, t1].

        The logs are affine in t, so finite at t0 and t1 means finite
        between.  A term whose log is -inf reads as an exact 0 in ``sums``:
        a class with such a term can underflow to a false zero.
        """
        k = self.n + 1
        logs, rates = self.logs[:, : self.bounds[k]], self.rates[:, : self.bounds[k]]
        finite = np.isfinite(logs + t0 * rates) & np.isfinite(logs + t1 * rates)
        return np.logical_and.reduceat(finite, self.bounds[:k], axis=1)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def sums(self, times, first: int = 0, stop: int | None = None) -> tuple:
        """(sign, log|value|, generality) of term classes first..stop-1 at
        each of ``times``, each a (rows, stop - first) array.

        Classes 0..n are tau[0..n] and n+1..2n+1 are tau'[0..n]; the default
        is all of them.  For a stack, row s is point s evolved by times[s]
        (one time for all rows, or one point for all times, broadcasts).
        """
        times = np.array(times, dtype=float, ndmin=1, copy=None)
        stop = self.bounds.size - 1 if stop is None else stop
        cols = slice(self.bounds[first], self.bounds[stop])
        starts, classes = self.bounds[first:stop], self.classes[cols]
        if first:
            starts, classes = starts - starts[0], classes - first
        points, terms = self.logs.shape[0], classes.size
        rows = max(points, times.size)
        if {points, times.size} - {1, rows}:
            raise ValueError(f"{times.size} times do not match a stack of {points} points")
        shape = (rows, starts.size)
        sign, log_abs, generality = np.empty(shape), np.empty(shape), np.empty(shape)
        block = max(1, _BLOCK_TERMS // terms)
        for lo in range(0, rows, block):
            part = slice(lo, lo + block)
            # a single point or a single time serves every row
            at = slice(None) if points == 1 else part
            when = slice(None) if times.size == 1 else part
            logs = self.logs[at, cols] + times[when, None] * self.rates[at, cols]
            m = np.maximum.reduceat(logs, starts, axis=1)
            m[m == -math.inf] = 0.0  # every term of the class is zero
            scaled = np.exp(logs - m[:, classes])
            total = np.add.reduceat(scaled * self.signs[at, cols], starts, axis=1)
            bound = np.add.reduceat(scaled, starts, axis=1)
            log_abs[part] = m + np.log(np.abs(total))
            generality[part] = np.where(total == 0.0, 0.0, np.abs(total) / bound)
            sign[part] = np.sign(total)
        return sign, log_abs, generality

    def evaluate(self, times) -> TauGrid:
        """Tau data of the point evolved by each of ``times``: ``sums`` of
        every class, split into tau and tau' (stacks as in ``sums``)."""
        sign, log_abs, generality = self.sums(times)
        k = self.n + 1
        return TauGrid(sign[:, :k], log_abs[:, :k], sign[:, k:], log_abs[:, k:], generality[:, :k])


@dataclass(frozen=True, eq=False)
class TauSequence:
    """Tau and tau' values for indices 0..n, with log-scale companions.

    ``tau[0]`` is the (positive) Vandermonde determinant of the spectrum and
    ``tau_prime[0] = 0`` by convention.  ``generality[k]`` in [0, 1] is
    |tau[k]| relative to its cancellation-free Laplace bound (the sum of the
    magnitudes of all expansion terms): 1 on sign-alternating points, 0 at a
    genuine zero, and independent of coordinate grading.
    """

    tau: np.ndarray
    tau_prime: np.ndarray
    sign_tau: np.ndarray
    log_abs_tau: np.ndarray
    sign_tau_prime: np.ndarray
    log_abs_tau_prime: np.ndarray
    generality: np.ndarray

    @property
    def n(self) -> int:
        return int(self.tau.size - 1)

    def is_general(self, tol: float = DEFAULT_GENERAL_TOL) -> bool:
        """True when every tau value is nonzero at scale (generality above
        ``tol``), i.e. the reconstruction formulas are nonsingular here."""
        return bool(np.all(self.generality > tol))


def tau_sequence(spec: lax.Spectrum, F) -> TauSequence:
    """Tau determinants of a point against a simple spectrum.

    ``F`` may be a JacobiPoint (canonical values) or any raw nonvanishing
    tuple; raw tuples scale tau[k] by the k-th power of the normalization.
    """
    sign_t, log_t, sign_p, log_p, generality = (
        field[0] for field in TauKernel(spec, F).evaluate(0.0)
    )
    with np.errstate(over="ignore"):
        tau = sign_t * np.exp(log_t)
        tau_prime = sign_p * np.exp(log_p)
    return TauSequence(
        tau=_readonly(tau),
        tau_prime=_readonly(tau_prime),
        sign_tau=_readonly(sign_t),
        log_abs_tau=_readonly(log_t),
        sign_tau_prime=_readonly(sign_p),
        log_abs_tau_prime=_readonly(log_p),
        generality=_readonly(generality),
    )


def theta(k: int, Z, spec: lax.Spectrum) -> float:
    """Degenerate theta value on a strictly positive tuple.

    Plain determinant of the mixed Vandermonde/Z column pattern divided by
    sqrt(Z_1 * ... * Z_n); restricting to positive tuples keeps the square
    root single-valued.
    """
    lams = spec.lambdas
    n = lams.size
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (n,):
        raise ValueError(f"tuple length {Z.shape} does not match spectrum size {n}")
    if np.any(Z <= 0.0):
        raise NonPositiveZ("theta requires a strictly positive tuple")
    if not 0 <= k <= n:
        raise ValueError(f"theta index {k} out of range 0..{n}")
    det = float(np.linalg.det(_tau_matrix(lams, Z, k, last_power=k - 1)))
    return det * math.exp(-0.5 * float(np.sum(np.log(Z))))


# ---------------------------------------------------------------------------
# linearization and its inverse
# ---------------------------------------------------------------------------


def abel_jacobi(L: lax.LaxMatrix, spec: lax.Spectrum | None = None) -> JacobiPoint:
    """Linearization map: (1,1)-cofactor values at the eigenvalues, normalized.

    For b > 0 they are Weyl residues from the eigenvectors ``spectrum(L)``
    keeps; another ``spec`` costs an ``eigh`` of L.  Raises ZeroCofactorValue
    when a value is at most DEFAULT_ZERO_COFACTOR_TOL times the largest one.
    """
    if spec is None:
        spec = lax.spectrum(L)
    vecs = spec._vectors_of(L)
    if vecs is None and np.all(L.b > 0):
        vecs = np.linalg.eigh(lax._symmetric_tridiagonal(L.a, np.sqrt(L.b)))[1]
    vals = None if vecs is None else lax._weyl_cofactor_values(vecs, spec.lambdas)
    if vals is None or not np.isfinite(vals).all():
        # sign-mixed b, or eigenvalue differences beyond double range
        vals = lax.chop_values(L, spec.lambdas)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0 or np.any(np.abs(vals) <= DEFAULT_ZERO_COFACTOR_TOL * scale):
        i = int(np.argmin(np.abs(vals)))
        raise ZeroCofactorValue(
            f"cofactor value {float(vals[i])!r} at eigenvalue {float(spec.lambdas[i])!r} "
            "is numerically zero"
        )
    return _normalized_point(vals)


def is_general_point(spec: lax.Spectrum, F, tol: float = DEFAULT_GENERAL_TOL) -> bool:
    """True when every tau determinant is nonzero at scale, i.e. the
    reconstruction formulas are nonsingular at this point."""
    return tau_sequence(spec, F).is_general(tol)


def reconstruct(spec: lax.Spectrum, F) -> lax.LaxMatrix:
    """Inverse of the linearization map on general points.

    Quotients are evaluated in log space so strongly evolved points (raw tau
    far outside double range) still reconstruct cleanly.  Raises
    NonGeneralDivisor when a tau value vanishes and RangeExceeded (t = 0)
    when an entry of the matrix itself leaves double range.
    """
    a, b, error = reconstruct_along(spec, F, 0.0)
    if error is not None:
        raise error
    return lax.LaxMatrix._trusted(n=a.shape[1], a=a[0], b=b[0])


class _Rows(NamedTuple):
    """Reconstructed bands of each tau row and why a row may not stand."""

    a: np.ndarray  # (R, n)
    b: np.ndarray  # (R, n-1)
    nongeneral: np.ndarray  # (R, n+1) a tau value vanishes at scale
    out_of_range: np.ndarray  # (R,) an entry leaves double range or is NaN


def _reconstruct_rows(grid: TauGrid) -> _Rows:
    """The reconstruction quotients on every row of a tau grid at once."""
    sign, log_t = grid.sign_tau, grid.log_abs_tau
    nongeneral = (sign == 0.0) | (grid.generality <= DEFAULT_GENERAL_TOL)
    with np.errstate(invalid="ignore", over="ignore"):
        # b_k = tau[k-1] * tau[k+1] / tau[k]**2; a_k = diff of tau'[k] / tau[k]
        log_b = log_t[:, :-2] + log_t[:, 2:] - 2.0 * log_t[:, 1:-1]
        log_r = grid.log_abs_tau_prime[:, 1:] - log_t[:, 1:]
        b = sign[:, :-2] * sign[:, 2:] * np.exp(log_b)
        ratios = grid.sign_tau_prime[:, 1:] * sign[:, 1:] * np.exp(log_r)
        a = np.diff(ratios, axis=1, prepend=0.0)
    return _Rows(a, b, nongeneral, ~lax._in_range(a, b))


def reconstruct_along(spec: lax.Spectrum, F0, times) -> tuple:
    """Bands of reconstruct(spec, evolve_point(F0, spec, t)) for each of
    ``times``, stacked: (a, b, error) with a (T, n) and b (T, n-1) read-only.

    One TauKernel evaluation covers every time and no evolved point is
    formed.  The stacks stop before the first failing time, and ``error`` is
    what stops them: NonGeneralDivisor when a tau value vanishes there, or
    RangeExceeded with that time when an entry leaves double range (a
    subdiagonal entry below the smallest normal double, say) or is NaN; None
    when every time stands.  A one-point spectrum raises ValueError: a Lax
    matrix needs n >= 2.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rows = _reconstruct_rows(TauKernel(spec, F0).evaluate(times))
    rows.a.setflags(write=False)
    rows.b.setflags(write=False)
    if rows.a.shape[1] < 2:
        raise ValueError("LaxMatrix needs n >= 2")
    nongeneral = rows.nongeneral.any(axis=1)
    failing = nongeneral | rows.out_of_range
    stop = int(np.argmax(failing)) if failing.any() else times.size
    error = None
    if stop < times.size and nongeneral[stop]:
        error = NonGeneralDivisor(int(np.argmax(rows.nongeneral[stop])))
    elif stop < times.size:
        t = float(times[stop])
        error = RangeExceeded(t, f"reconstructed entries leave double range at t={t!r}")
    return rows.a[:stop], rows.b[:stop], error


def evolve_point(F0: JacobiPoint, spec: lax.Spectrum, t: float) -> JacobiPoint:
    """Multiplicative flow: multiply coordinate i by exp(t * lambda_i).

    Exponents are shifted by their maximum before exponentiating, which is
    harmless projectively and avoids overflow.  Raises RangeExceeded when a
    normalized coordinate under- or overflows.
    """
    lams = spec.lambdas
    if F0.n != lams.size:
        raise ValueError("point and spectrum sizes differ")
    z = t * lams
    w = np.exp(z - np.max(z)) * F0.f
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = w / w[0]
    if not np.all(np.isfinite(w)) or np.any(w == 0.0):
        raise RangeExceeded(t, f"evolved coordinates leave double range at t={t!r}")
    return JacobiPoint._trusted(w)
