"""Total nonnegativity, total positivity and eigenvalue interlacing tests.

A matrix is totally nonnegative (TNN) when every minor is nonnegative and
totally positive (TP) when every minor is strictly positive.  For tridiagonal
matrices TNN is equivalent to nonnegative off-diagonal entries plus
nonnegative contiguous principal minors, and, when the off-diagonal entries
are positive, to strict eigenvalue interlacing with a positive bottom
eigenvalue.  All three routes are implemented and cross-checked in the test
suite.  A square matrix is TP iff its n^2 initial minors (contiguous minors
touching the first row or the first column) are positive (Gasca & Peña,
"Total positivity and Neville elimination", Linear Algebra Appl. 165, 1992),
which is how total positivity is decided here.  Irreducibility of a TNN
tridiagonal matrix (some power totally positive) is a closed form: it holds
iff det M > 0 and every off-diagonal entry is positive, and then M**(n-1) is
the smallest such power (Gantmacher & Krein, Oscillation Matrices and
Kernels, Ch. II), so no power is ever multiplied out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lax
from .errors import NotTnn, NotTridiagonal, TooLarge

EXHAUSTIVE_MAX_N = 8


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
def _subsets(n: int, k: int) -> tuple:
    """The k-subsets of range(n), lexicographic, as tuples and as a read-only array."""
    combos = tuple(itertools.combinations(range(n), k))
    return combos, lax._readonly(combos, dtype=np.intp)


@functools.lru_cache(maxsize=None)
def _initial_minor_blocks(n: int) -> tuple:
    """Flat indices of the initial-minor blocks of an n x n matrix, per size.

    Entry k-1 is a read-only (2(n-k)+1, k, k) array: the column-initial
    blocks (rows i-k+1..i, columns 0..k-1) for i = k-1..n-1, then the
    row-initial blocks (rows 0..k-1, columns j-k+1..j) for j = k..n-1, so
    the leading block is listed once and there are n^2 blocks in all.
    """
    blocks = []
    for k in range(1, n + 1):
        span = np.arange(k)
        corners = [(r, 0) for r in range(n - k + 1)] + [(0, c) for c in range(1, n - k + 1)]
        flat = [(r + span)[:, None] * n + (c + span) for r, c in corners]
        blocks.append(lax._readonly(flat, dtype=np.intp))
    return tuple(blocks)


def _all_minors_by_size(M: np.ndarray, k: int):
    """All k x k minors in lexicographic (rows, cols) order, batched."""
    combos, idx = _subsets(M.shape[0], k)
    sub = M[idx[:, None, :, None], idx[None, :, None, :]]
    dets = np.linalg.det(sub.reshape(-1, k, k))
    return combos, dets


def is_tnn_exhaustive(M, tol: float = 0.0) -> TnnReport:
    """Check every minor of a small square matrix.

    ``is_tnn`` is true iff every minor is at least ``-tol``; on failure the
    witness is the first offending minor in (size, lexicographic) order.
    """
    M = _as_dense(M)
    n = M.shape[0]
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive minor check limited to n <= {EXHAUSTIVE_MAX_N}, got {n}")
    for k in range(1, n + 1):
        combos, dets = _all_minors_by_size(M, k)
        bad = np.nonzero(~(dets >= -tol))[0]
        if bad.size:
            first = int(bad[0])
            m = len(combos)
            witness = MinorWitness(
                rows=combos[first // m], cols=combos[first % m], value=float(dets[first])
            )
            return TnnReport(is_tnn=False, witness=witness, method="exhaustive")
    return TnnReport(is_tnn=True, witness=None, method="exhaustive")


@functools.lru_cache(maxsize=None)
def _outside_bands(n: int) -> np.ndarray:
    """Boolean mask of the entries off the three bands of an n x n matrix."""
    return lax._readonly(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2, dtype=bool)


def _check_tridiagonal_structure(M: np.ndarray, structure_tol: float = 0.0) -> None:
    outside = _outside_bands(M.shape[0]) & (np.abs(M) > structure_tol)
    if outside.any():
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise NotTridiagonal(f"entry ({i},{j})={M[i, j]!r} outside the three bands")


@functools.lru_cache(maxsize=None)
def _band_entries(n: int) -> tuple:
    """Row-major order of the band entries stored as [diagonal, super, sub].

    Returns the read-only positions into that concatenation and the row and
    column of each entry, in the order the entries appear row by row.
    """
    entries = sorted(
        [(i, i, i) for i in range(n)]
        + [(i, i + 1, n + i) for i in range(n - 1)]
        + [(i + 1, i, 2 * n - 1 + i) for i in range(n - 1)]
    )
    rows, cols, positions = zip(*entries)
    return lax._readonly(positions, dtype=np.intp), rows, cols


def _bands(M) -> tuple:
    """Diagonal, superdiagonal and subdiagonal of a tridiagonal matrix."""
    if isinstance(M, lax.LaxMatrix):
        return M.a, np.ones(M.n - 1), M.b
    M = _as_dense(M)
    _check_tridiagonal_structure(M)
    return np.diag(M), np.diag(M, 1), np.diag(M, -1)


def is_tnn_tridiagonal(M, tol: float = 0.0) -> TnnReport:
    """Tridiagonal TNN criterion: entry signs plus contiguous principal minors.

    Equivalent to the exhaustive check on every tridiagonal matrix, at
    O(n^2) cost.  Witness order: all entries first (size-1 minors, row-major),
    then contiguous windows by increasing size and start index.  A LaxMatrix
    is read through its bands; a dense array must be tridiagonal.
    """
    return _tridiagonal_criterion(*_bands(M), tol)[0]


def _tridiagonal_criterion(diag, sup, sub, tol: float):
    """is_tnn_tridiagonal's report on the bands and, when they pass, det M:
    the last window of the recurrence."""
    n = diag.size
    positions, rows, cols = _band_entries(n)
    entries = np.concatenate((diag, sup, sub))[positions]
    bad = np.flatnonzero(~(entries >= -tol))
    if bad.size:
        first = int(bad[0])
        report = TnnReport(
            is_tnn=False,
            witness=MinorWitness(
                rows=(rows[first],), cols=(cols[first],), value=float(entries[first])
            ),
            method="tridiagonal-criterion",
        )
        return report, None
    # det M[s..s+size-1] for every start s, advanced over size by the
    # three-term recurrence.  Python floats: at n <= 8 a numpy call per size
    # costs more than the whole list of starts.
    d = diag.tolist()
    coupling = (sup * sub).tolist()
    prev2, prev1 = [1.0] * n, d
    for size in range(2, n + 1):
        cur = [
            d[s + size - 1] * prev1[s] - coupling[s + size - 2] * prev2[s]
            for s in range(n - size + 1)
        ]
        for s, value in enumerate(cur):
            if not value >= -tol:
                window = tuple(range(s, s + size))
                report = TnnReport(
                    is_tnn=False,
                    witness=MinorWitness(rows=window, cols=window, value=value),
                    method="tridiagonal-criterion",
                )
                return report, None
        prev2, prev1 = prev1, cur
    report = TnnReport(is_tnn=True, witness=None, method="tridiagonal-criterion")
    return report, prev1[0]


def is_totally_positive(M) -> bool:
    """True iff every minor is strictly positive (n <= 8).

    Decided from the n^2 initial minors, the contiguous minors that touch
    the first row or the first column: a square matrix is totally positive
    iff all of them are positive (Gasca & Peña, Linear Algebra Appl. 165,
    1992).  One batched determinant per size, smallest size first.
    """
    M = _as_dense(M)
    n = M.shape[0]
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"total-positivity check limited to n <= {EXHAUSTIVE_MAX_N}, got {n}")
    for blocks in _initial_minor_blocks(n):
        if not np.all(np.linalg.det(np.take(M, blocks)) > 0.0):
            return False
    return True


def is_irreducible_tnn(M, k_max: Optional[int] = None, tol: float = 0.0):
    """Smallest power of a TNN tridiagonal matrix that is totally positive.

    A TNN tridiagonal matrix is oscillatory iff det M > 0 and every
    off-diagonal entry is positive, and an oscillatory n x n matrix has
    M**(n-1) totally positive; M**k has bandwidth k, so no smaller power is
    (Gantmacher & Krein, Oscillation Matrices and Kernels, Ch. II; Fallat &
    Johnson, Totally Nonnegative Matrices, Ch. 2).  A singular or decoupled
    TNN matrix has no totally positive power.  So this returns ``(True,
    max(n-1, 1))`` when M is oscillatory and that exponent is at most
    ``k_max`` (unbounded by default), and ``(False, None)`` otherwise, which
    for a TNN input is a proof.  det M is the last window of the
    tridiagonal criterion; ``tol`` loosens only that TNN check, and the
    closed form assumes the input passes it exactly.
    """
    diag, sup, sub = _bands(M)
    report, det = _tridiagonal_criterion(diag, sup, sub, tol)
    if not report.is_tnn:
        raise NotTnn(f"input is not TNN (witness minor {report.witness.value!r})")
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be at least 1")
    k = max(diag.size - 1, 1)
    if det > 0.0 and np.all(sup > 0.0) and np.all(sub > 0.0) and (k_max is None or k <= k_max):
        return True, k
    return False, None


@dataclass(frozen=True, eq=False)
class InterlacingData:
    """Spectra of a Lax matrix and of its two size-(n-1) principal corners."""

    lambdas: lax.Spectrum
    mus: lax.Spectrum
    mus_prime: lax.Spectrum

    def __post_init__(self):
        if self.mus.n != self.lambdas.n - 1 or self.mus_prime.n != self.lambdas.n - 1:
            raise ValueError("corner spectra must have length n-1")


def _principal_corner_spectrum(a: np.ndarray, b: np.ndarray, separation: float) -> lax.Spectrum:
    if a.size == 1:
        return lax.Spectrum(lambdas=np.array([float(a[0])]), separation=separation)
    sub = lax.LaxMatrix._trusted(n=a.size, a=a, b=b)  # bands of a valid matrix
    return lax.spectrum(sub, separation=separation)


def interlacing_spectra(L: lax.LaxMatrix, separation: float = lax.DEFAULT_SEPARATION) -> InterlacingData:
    """Spectra of L, of its trailing corner Q and of its leading corner Q'."""
    lams = lax.spectrum(L, separation=separation)
    mus = _principal_corner_spectrum(L.a[1:], L.b[1:], separation)
    mus_prime = _principal_corner_spectrum(L.a[:-1], L.b[:-1], separation)
    return InterlacingData(lambdas=lams, mus=mus, mus_prime=mus_prime)


def check_interlacing(data: InterlacingData) -> bool:
    """Strict interlacing with a positive bottom eigenvalue.

    True iff 0 < lambda_1 < mu_1 < lambda_2 < ... < mu_{n-1} < lambda_n,
    where the mu are the trailing-corner eigenvalues.  The equivalence with
    the TNN tests is only promised for positive off-diagonal entries.
    """
    lam = data.lambdas.lambdas
    mu = data.mus.lambdas
    if lam[0] <= 0.0:
        return False
    for i in range(mu.size):
        if not (lam[i] < mu[i] < lam[i + 1]):
            return False
    return True
