"""Total nonnegativity, total positivity and eigenvalue interlacing tests.

A matrix is totally nonnegative (TNN) when every minor is nonnegative and
totally positive (TP) when every minor is strictly positive.  For tridiagonal
matrices TNN is equivalent to nonnegative off-diagonal entries plus
nonnegative contiguous principal minors, and, when the off-diagonal entries
are positive, to strict eigenvalue interlacing with a positive bottom
eigenvalue.  All three routes are implemented and cross-checked in the test
suite.
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


def _all_minors_by_size(M: np.ndarray, k: int):
    """All k x k minors in lexicographic (rows, cols) order, batched."""
    n = M.shape[0]
    combos = list(itertools.combinations(range(n), k))
    idx = np.array(combos)
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
def _band_masks(n: int) -> tuple:
    """Boolean masks of the entries off and on the three bands of an n x n matrix."""
    offsets = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return lax._readonly(offsets >= 2, dtype=bool), lax._readonly(offsets <= 1, dtype=bool)


def _check_tridiagonal_structure(M: np.ndarray, structure_tol: float = 0.0) -> None:
    outside = _band_masks(M.shape[0])[0] & (np.abs(M) > structure_tol)
    if outside.any():
        i, j = (int(v) for v in np.argwhere(outside)[0])
        raise NotTridiagonal(f"entry ({i},{j})={M[i, j]!r} outside the three bands")


def is_tnn_tridiagonal(M, tol: float = 0.0) -> TnnReport:
    """Tridiagonal TNN criterion: entry signs plus contiguous principal minors.

    Equivalent to the exhaustive check on every tridiagonal matrix, at
    O(n^2) cost.  Witness order: all entries first (size-1 minors, row-major),
    then contiguous windows by increasing size and start index.
    """
    M = _as_dense(M)
    _check_tridiagonal_structure(M)
    n = M.shape[0]
    bad = np.argwhere(_band_masks(n)[1] & ~(M >= -tol))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        return TnnReport(
            is_tnn=False,
            witness=MinorWitness(rows=(i,), cols=(j,), value=float(M[i, j])),
            method="tridiagonal-criterion",
        )
    # det M[s..s+size-1] for every start s, advanced over size by the
    # three-term recurrence.  Python floats: at n <= 8 a numpy call per size
    # costs more than the whole list of starts.
    d = np.diag(M).tolist()
    coupling = (np.diag(M, 1) * np.diag(M, -1)).tolist()
    prev2, prev1 = [1.0] * n, d
    for size in range(2, n + 1):
        cur = [
            d[s + size - 1] * prev1[s] - coupling[s + size - 2] * prev2[s]
            for s in range(n - size + 1)
        ]
        for s, value in enumerate(cur):
            if not value >= -tol:
                window = tuple(range(s, s + size))
                return TnnReport(
                    is_tnn=False,
                    witness=MinorWitness(rows=window, cols=window, value=value),
                    method="tridiagonal-criterion",
                )
        prev2, prev1 = prev1, cur
    return TnnReport(is_tnn=True, witness=None, method="tridiagonal-criterion")


def is_totally_positive(M) -> bool:
    """True iff every minor is strictly positive (n <= 8)."""
    M = _as_dense(M)
    n = M.shape[0]
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"total-positivity check limited to n <= {EXHAUSTIVE_MAX_N}, got {n}")
    for k in range(1, n + 1):
        _, dets = _all_minors_by_size(M, k)
        if not np.all(dets > 0.0):
            return False
    return True


def is_irreducible_tnn(M, k_max: Optional[int] = None, tol: float = 0.0):
    """Search for the smallest power of a TNN matrix that is totally positive.

    Returns ``(True, k)`` with the smallest exponent k <= k_max such that
    M**k is TP, or ``(False, None)`` when no power within the bound is.  The
    default bound 2n is an empirical desk-scale cutoff; a miss is reported as
    False, never as a proof of reducibility.
    """
    M = _as_dense(M)
    report = is_tnn_tridiagonal(M, tol=tol)
    if not report.is_tnn:
        raise NotTnn(f"input is not TNN (witness minor {report.witness.value!r})")
    n = M.shape[0]
    if k_max is None:
        k_max = 2 * n
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    power = np.eye(n)
    for k in range(1, k_max + 1):
        power = power @ M
        if is_totally_positive(power):
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
    sub = lax.LaxMatrix(n=a.size, a=a, b=b)
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
