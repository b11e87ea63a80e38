"""Total nonnegativity, total positivity and eigenvalue interlacing tests.

A matrix is totally nonnegative (TNN) when every minor is nonnegative and
totally positive (TP) when every minor is strictly positive.  The exhaustive
oracle takes every minor of a dense matrix, each size from the size below by
first-row expansion, so a minor with no nonzero transversal is exactly 0, and
reruns the expansion in exact integers when rounding could decide a sign.
For tridiagonal matrices TNN is equivalent to nonnegative off-diagonal
entries plus nonnegative contiguous principal minors, and, when the
off-diagonal entries are positive and the matrix is nonsingular, to strict
eigenvalue interlacing with a positive bottom eigenvalue.  Strict
interlacing forces a positive subdiagonal, and a positive subdiagonal
forces strict interlacing, so the interlacing route reads only the bottom
eigenvalue; the tests cross-check all three routes.  TP is decided by the
exhaustive oracle's expansion, testing every minor > 0, and the
irreducibility of a TNN tridiagonal matrix in closed form (Gantmacher &
Krein): see ``is_totally_positive`` and ``is_irreducible_tnn``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import lax
from .errors import NotTnn, NotTridiagonal, TooLarge

EXHAUSTIVE_MAX_N = 8
_MAX = np.finfo(float).max


@dataclass(frozen=True, eq=False)
class MinorWitness:
    """A negative minor: 0-based row/column index tuples and its value."""

    rows: tuple
    cols: tuple
    value: float

    def to_json_dict(self) -> dict:
        return {"rows": list(self.rows), "cols": list(self.cols), "value": float(self.value)}


@dataclass(frozen=True, eq=False)
class TnnReport:
    is_tnn: bool
    witness: Optional[MinorWitness]
    method: str

    def to_json_dict(self) -> dict:
        return {
            "is_tnn": bool(self.is_tnn),
            "witness": self.witness.to_json_dict() if self.witness else None,
            "method": self.method,
        }


def _as_dense(M) -> np.ndarray:
    if isinstance(M, lax.LaxMatrix):
        return M.to_dense()
    out = np.asarray(M, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError("expected a square matrix")
    return out


@functools.lru_cache(maxsize=None)
def _expansion_tables(n: int) -> tuple:
    """Index tables of minor(R, C) = sum_j (-1)**j M[R[0], C[j]] minor(R - R[0], C - C[j]).

    Entry k-1: the k-subsets of range(n), lexicographic, and read-only flat
    indices per (R, C, j) of the first factor in [M, -M] and of the second
    in the minor table of size k-1.
    """
    tables, position = [], {(): 0}
    for k in range(1, n + 1):
        subsets = tuple(itertools.combinations(range(n), k))
        S = np.array(subsets)
        drops = np.array([[position[s[:j] + s[j + 1:]] for j in range(k)] for s in subsets])
        signed = S[:, :1, None] * n + S + np.arange(k) % 2 * (n * n)
        below = drops[:, :1, None] * len(position) + drops
        tables.append((subsets, lax._readonly(signed, np.intp), lax._readonly(below, np.intp)))
        position = {s: i for i, s in enumerate(subsets)}
    return tuple(tables)


def is_tnn_exhaustive(M, tol: float = 0.0) -> TnnReport:
    """Check every minor of a small square matrix.

    ``is_tnn`` is true iff every minor is at least ``-tol``; on failure the
    witness is the first offending minor in (size, lexicographic) order.
    Minors are fixed-order sums over the first-row expansion of the size
    below, so one with no nonzero transversal is exactly 0.  Each of the k!
    products in a size-k minor passes at most k(k+1)/2 roundings, so, barring
    underflow, the sum is within that many units of roundoff times the
    permanent of the absolute submatrix, which the same expansion gives.  If
    a minor's sum is not that far clear of ``-tol`` (one far below its terms,
    as in high powers of a tridiagonal), the expansion is rerun in exact
    integers on the entries scaled by a power of two, and the witness value
    is the exact minor rounded.  With a non-finite entry or ``tol`` the float
    signs decide.
    """
    return _all_minors(M, tol, False, "exhaustive minor check")


def _all_minors(M, tol: float, strict: bool, check: str) -> TnnReport:
    """The report on "every minor >= -tol" (> -tol if ``strict``) of a
    matrix of size at most EXHAUSTIVE_MAX_N: float minors first, exact ones
    if a float sum is too close to the bound to decide."""
    M = _as_dense(M)
    n = M.shape[0]
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"{check} limited to n <= {EXHAUSTIVE_MAX_N}, got {n}")
    finite = bool(np.isfinite(M).all() and np.isfinite(tol))
    report = _first_failing_minor(M, tol, strict, np.finfo(float).eps if finite else 0.0)
    return report if report is not None else _first_failing_minor(M, tol, strict, None)


@np.errstate(over="ignore", invalid="ignore")
def _first_failing_minor(
    M, tol: float, strict: bool, roundoff: Optional[float]
) -> Optional[TnnReport]:
    """_all_minors's report from float minors, or None at the first minor
    within ``roundoff`` (0.0: float signs decide) of ``-tol``; from exact
    ones if ``roundoff`` is None."""
    # both tests are needed: a NaN sum neither passes nor fails
    passes, fails = (operator.gt, operator.le) if strict else (operator.ge, operator.lt)
    values = M.ravel()
    if roundoff is None:
        ratios = [x.as_integer_ratio() for x in values.tolist()]
        scale = max(d for _, d in ratios)
        values = np.array([p * (scale // d) for p, d in ratios], dtype=object)
    plus_minus = np.concatenate((values, -values))
    minors = permanents = np.ones((1, 1), dtype=values.dtype)
    for k, (subsets, signed, below) in enumerate(_expansion_tables(M.shape[0]), 1):
        first = np.take(plus_minus, signed)
        minors = (first * np.take(minors, below)).sum(axis=2)
        if roundoff is None:
            bad = np.flatnonzero(fails(minors, Fraction(-tol) * scale**k))
        else:
            # eps = 2u and a factor 2 over k(k+1)/2 cover the bound's own roundings
            permanents = (np.abs(first) * np.take(permanents, below)).sum(axis=2)
            slack = permanents * (k * (k + 1) * roundoff) if roundoff else np.zeros_like(minors)
            bad = np.flatnonzero(~passes(minors - slack, -tol))
        if bad.size:
            r, c = divmod(int(bad[0]), len(subsets))
            if roundoff is None:
                value = Fraction(minors[r, c], scale**k)
                value = float(value) if abs(value) <= _MAX else math.inf if value > 0 else -math.inf
            elif not roundoff or fails(minors[r, c] + slack[r, c], -tol):
                value = float(minors[r, c])
            else:
                return None
            witness = MinorWitness(rows=subsets[r], cols=subsets[c], value=value)
            return TnnReport(is_tnn=False, witness=witness, method="exhaustive")
    return TnnReport(is_tnn=True, witness=None, method="exhaustive")


def _bands(M) -> tuple:
    """Diagonal, superdiagonal and subdiagonal of a tridiagonal matrix, as
    lists of Python floats."""
    if isinstance(M, lax.LaxMatrix):
        return M.a.tolist(), [1.0] * (M.n - 1), M.b.tolist()
    M = _as_dense(M)
    index = np.arange(M.shape[0])
    # != 0, not |x| > 0: a NaN off the bands is no zero
    outside = (np.abs(index[:, None] - index) >= 2) & (M != 0.0)
    if outside.any():
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise NotTridiagonal(f"entry ({i},{j})={float(M[i, j])!r} outside the three bands")
    return M.diagonal().tolist(), M.diagonal(1).tolist(), M.diagonal(-1).tolist()


def is_tnn_tridiagonal(M, tol: float = 0.0) -> TnnReport:
    """Tridiagonal TNN criterion: entry signs plus contiguous principal minors.

    Equivalent to the exhaustive check on every tridiagonal matrix, at
    O(n^2) cost.  Witness order: all entries first (size-1 minors, row-major),
    then contiguous windows by increasing size and start index.  A LaxMatrix
    is read through its bands; a dense array must be tridiagonal.
    """
    return _tridiagonal_criterion(*_bands(M), tol)[0]


def _tridiagonal_criterion(d: list, up: list, low: list, tol: float):
    """is_tnn_tridiagonal's report on the bands (``_bands``) and, when they
    pass, det M: the last window of the recurrence.

    Python floats throughout: at n <= 8 a numpy call costs more than the
    whole entry scan or a whole size of windows.
    """

    def rejected(rows, cols, value):
        witness = MinorWitness(rows=rows, cols=cols, value=value)
        return TnnReport(is_tnn=False, witness=witness, method="tridiagonal-criterion"), None

    n = len(d)
    # row-major: (k, k), (k, k+1), (k+1, k), then row k+1 from its diagonal
    for k, value in enumerate(d):
        if not value >= -tol:
            return rejected((k,), (k,), value)
        if k < n - 1 and not up[k] >= -tol:
            return rejected((k,), (k + 1,), up[k])
        if k < n - 1 and not low[k] >= -tol:
            return rejected((k + 1,), (k,), low[k])
    # det M[s..s+size-1] for every start s, advanced over size by the
    # three-term recurrence
    coupling = [u * v for u, v in zip(up, low)]
    prev2, prev1 = [1.0] * n, d
    for size in range(2, n + 1):
        cur = [
            d[s + size - 1] * prev1[s] - coupling[s + size - 2] * prev2[s]
            for s in range(n - size + 1)
        ]
        for s, value in enumerate(cur):
            if not value >= -tol:
                window = tuple(range(s, s + size))
                return rejected(window, window, value)
        prev2, prev1 = prev1, cur
    report = TnnReport(is_tnn=True, witness=None, method="tridiagonal-criterion")
    return report, prev1[0] if n else 1.0


@np.errstate(over="ignore", invalid="ignore")
def _tridiagonal_verdicts(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """``is_tnn_tridiagonal(LaxMatrix(a[r], b[r]), tol).is_tnn`` for every
    row r of the band stacks a (R, n) and b (R, n-1).

    The entry tests and window recurrence of ``_tridiagonal_criterion`` on
    whole columns, with the same elementwise operations in the same order
    (the coupling 1.0 * b is b), so every verdict is the criterion's.
    Witnesses are left to the criterion.
    """
    n = a.shape[1]
    ok = (a >= -tol).all(axis=1) & (b >= -tol).all(axis=1) & (n < 2 or 1.0 >= -tol)
    prev2, prev1 = np.ones_like(a), a
    for size in range(2, n + 1):
        starts = n - size + 1
        cur = a[:, size - 1 :] * prev1[:, :starts] - b[:, size - 2 :] * prev2[:, :starts]
        ok &= (cur >= -tol).all(axis=1)
        prev2, prev1 = prev1, cur
    return ok


def is_totally_positive(M) -> bool:
    """True iff every minor is strictly positive (n <= 8).

    The expansion and exact rerun of ``is_tnn_exhaustive``, testing "> 0"
    in place of ">= -tol": every minor is decided in exact integers where
    its float sum cannot be, and with a non-finite entry the float signs
    decide (a NaN minor is not positive).
    """
    return _all_minors(M, 0.0, True, "total-positivity check").is_tnn


def is_irreducible_tnn(M):
    """Smallest power of a TNN tridiagonal matrix that is totally positive.

    A TNN tridiagonal matrix is oscillatory iff det M > 0 and every
    off-diagonal entry is positive, and an oscillatory n x n matrix has
    M**(n-1) totally positive; M**k has bandwidth k, so no smaller power is
    (Gantmacher & Krein, Oscillation Matrices and Kernels, Ch. II; Fallat &
    Johnson, Totally Nonnegative Matrices, Ch. 2).  A singular or decoupled
    TNN matrix has no totally positive power.  So this returns ``(True,
    max(n-1, 1))`` when M is oscillatory and ``(False, None)`` otherwise,
    which for a TNN input is a proof.  det M is the last window of the exact
    (zero-tolerance) tridiagonal criterion, which raises NotTnn on failure.
    """
    d, up, low = _bands(M)
    report, det = _tridiagonal_criterion(d, up, low, 0.0)
    if not report.is_tnn:
        raise NotTnn(f"input is not TNN (witness minor {report.witness.value!r})")
    if det > 0.0 and all(x > 0.0 for x in up + low):
        return True, max(len(d) - 1, 1)
    return False, None


@dataclass(frozen=True, eq=False)
class InterlacingData:
    """Spectra of a Lax matrix and of its trailing size-(n-1) corner."""

    lambdas: lax.Spectrum
    mus: lax.Spectrum

    def __post_init__(self):
        if self.mus.n != self.lambdas.n - 1:
            raise ValueError("corner spectrum must have length n-1")


def interlacing_spectra(L: lax.LaxMatrix) -> InterlacingData:
    """Spectra of L and of its trailing corner Q, the two that
    ``check_interlacing`` reads."""
    lams = lax.spectrum(L)
    # bands of a valid matrix: finite, with a nonzero subdiagonal
    if L.n == 2:
        return InterlacingData(lambdas=lams, mus=lax.Spectrum._trusted(L.a[1:]))
    corner = lax.LaxMatrix._trusted(n=L.n - 1, a=L.a[1:], b=L.b[1:])
    return InterlacingData(lambdas=lams, mus=lax.spectrum(corner))


def check_interlacing(data: InterlacingData) -> bool:
    """Strict interlacing with a positive bottom eigenvalue.

    True iff 0 < lambda_1 < mu_1 < lambda_2 < ... < mu_{n-1} < lambda_n,
    where the mu are the trailing-corner eigenvalues: the paper's predicate
    on given spectra.  ``is_tnn_interlacing`` does not call it: rounding can
    break or fake the strict inequalities of a nearly decoupled matrix.
    """
    lam = data.lambdas.lambdas
    mu = data.mus.lambdas
    if lam[0] <= 0.0:
        return False
    for i in range(mu.size):
        if not (lam[i] < mu[i] < lam[i + 1]):
            return False
    return True


def is_tnn_interlacing(L: lax.LaxMatrix) -> TnnReport:
    """The interlacing route's report on a Lax matrix, with no witness.

    Strict interlacing gives the Weyl function det(z - Q)/det(z - L) positive
    residues, and a positive measure gives a positive subdiagonal (de Boor &
    Golub, Linear Algebra Appl. 21, 1978).  So a negative entry of ``L.b``
    (a negative 1x1 minor; a LaxMatrix has none that is zero) is "not TNN"
    with no eigenvalue computed.  For b > 0, L is similar to the unreduced
    symmetric tridiagonal T with off-diagonals sqrt(b), whose eigenvalues
    strictly interlace those of its trailing corner (Parlett, The Symmetric
    Eigenvalue Problem, Ch. 7).  So the verdict is 0 < lambda_1, from one
    LAPACK call and with no spectrum error, strict as in the paper: a
    singular TNN matrix such as a = [1, 1], b = [1] is "not TNN" here.
    """
    ok = bool(np.all(L.b > 0.0)) and lax.symmetric_tridiagonal_eigenvalues(L.a, np.sqrt(L.b))[0] > 0
    return TnnReport(is_tnn=bool(ok), witness=None, method="interlacing")
