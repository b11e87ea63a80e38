"""Tridiagonal Lax matrices: minors, spectra and cofactor-vector machinery.

Conventions used throughout the package:

* A Lax matrix stores its diagonal ``a`` (length n) and subdiagonal ``b``
  (length n-1); the superdiagonal is fixed to one.  Phase-space membership
  requires every ``b`` entry to be nonzero.
* Polynomials are real coefficient vectors in ascending order, so ``c[k]``
  multiplies ``lambda**k`` (the ``numpy.polynomial`` convention).
* Matrix row/column indices are 0-based.  Component indices (``v_k``) and tau
  indices keep their mathematical numbering: components run 1..n, tau 0..n.
* Values are read-only by one rule: every array a value or a cached per-n
  table holds is a view of an array over immutable ``bytes``, so neither it
  nor its base can be made writable.  Values seal their arrays where they
  are built (``_readonly``, ``_frozen``); kernels hand back plain arrays.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import BadIndex, NonRealSpectrum, NonSimpleSpectrum, RangeExceeded, SpectrumOverflow

DEFAULT_SEPARATION = 1e-10
DEFAULT_IMAG_TOL = 1e-8
_TINY = np.finfo(float).tiny


def _in_range(a, b):
    """Whether bands a (..., n) and b (..., n-1) are in double range: every a
    finite and every |b| a normal double, as ``LaxMatrix._trusted`` needs."""
    return np.isfinite(a).all(axis=-1) & (np.isfinite(b) & (np.abs(b) >= _TINY)).all(axis=-1)


def _readonly(values, dtype=float) -> np.ndarray:
    """A copy of ``values`` as a view of an array over an immutable ``bytes``
    buffer: neither the view nor its base can be made writable again."""
    out = np.asarray(values, dtype=dtype)
    return np.frombuffer(out.tobytes(), out.dtype).reshape(out.shape)


def _frozen(values) -> np.ndarray:
    """``values`` itself when it is a float view of a ``_readonly`` array (a
    row of a sealed stack, say), else a ``_readonly`` copy."""
    sealed = isinstance(getattr(getattr(values, "base", None), "base", None), bytes)
    return values if sealed and values.dtype == float else _readonly(values)


@dataclass(frozen=True, eq=False)
class LaxMatrix:
    """Tridiagonal phase-space matrix with unit superdiagonal.

    ``a`` is the diagonal, ``b`` the subdiagonal.  All ``b`` entries must be
    nonzero; the dense form places 1 on the superdiagonal and 0 elsewhere off
    the three bands.
    """

    n: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if self.n < 2:
            raise ValueError("LaxMatrix needs n >= 2")
        if a.shape != (self.n,):
            raise ValueError(f"diagonal must have length {self.n}, got {a.shape}")
        if b.shape != (self.n - 1,):
            raise ValueError(f"subdiagonal must have length {self.n - 1}, got {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("matrix entries must be finite")
        if np.any(b == 0.0):
            raise ValueError("all subdiagonal entries must be nonzero")
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))

    @classmethod
    def _trusted(cls, n: int, a, b) -> "LaxMatrix":
        """Bands the caller has just built and knows to be valid: finite,
        of lengths n and n-1, with a nonzero subdiagonal.  No checks.

        A sealed float array is kept as it is (a row of a trajectory's
        stack, say); anything else is copied (``_frozen``)."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "a", _frozen(a))
        object.__setattr__(out, "b", _frozen(b))
        return out

    @functools.cached_property
    def _eigh(self):
        """None unless every b > 0; else the read-only (eigenvalues,
        eigenvectors) of one ``eigh`` of the symmetrized matrix (off-diagonals
        sqrt(b)), which ``spectrum``, ``abel_jacobi`` and Symes's QR route read."""
        if not np.all(self.b > 0):
            return None
        lams, vectors = np.linalg.eigh(_symmetric_tridiagonal(self.a, np.sqrt(self.b)))
        return _readonly(lams), _readonly(vectors)

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[np.arange(self.n), np.arange(self.n)] = self.a
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = 1.0
        m[idx + 1, idx] = self.b
        return m

    def to_json_dict(self) -> dict:
        return {"n": self.n, "a": [float(x) for x in self.a], "b": [float(x) for x in self.b]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaxMatrix":
        try:
            n = operator.index(data["n"])  # an int, not a float or a string
            a = [float(x) for x in data["a"]]
            b = [float(x) for x in data["b"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed matrix object: {exc}") from exc
        return cls(n=n, a=np.array(a), b=np.array(b))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Strictly increasing list of simple real eigenvalues.

    Every gap exceeds ``DEFAULT_SEPARATION``, the package's one simple-spectrum
    rule; ``positive`` records whether the smallest eigenvalue is positive.
    It holds its eigenvalues only, and stands for every matrix that has them.
    """

    lambdas: np.ndarray

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        if lams.ndim != 1 or lams.size == 0:
            raise ValueError("spectrum must be a nonempty 1-D array")
        if not np.all(np.isfinite(lams)):
            raise ValueError("spectrum entries must be finite")
        if lams.size > 1:
            # a gap beyond double range is inf, and passes
            with np.errstate(over="ignore"):
                gap = np.min(np.diff(lams))
            if gap <= 0:
                raise ValueError("spectrum must be strictly increasing")
            if gap <= DEFAULT_SEPARATION:
                raise NonSimpleSpectrum(
                    f"eigenvalue gap {gap:.3e} at or below separation "
                    f"tolerance {DEFAULT_SEPARATION:.3e}"
                )
        object.__setattr__(self, "lambdas", _readonly(lams))

    @classmethod
    def _trusted(cls, lambdas):
        """Eigenvalues the caller knows to be finite with every gap above
        ``DEFAULT_SEPARATION``.  No checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "lambdas", _readonly(lambdas))
        return out

    @property
    def n(self) -> int:
        return int(self.lambdas.size)

    @property
    def positive(self) -> bool:
        return bool(self.lambdas[0] > 0.0)

    def to_json_dict(self) -> dict:
        return {"lambdas": [float(x) for x in self.lambdas]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Spectrum":
        try:
            lams = [float(x) for x in data["lambdas"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed spectrum object: {exc}") from exc
        return cls(lambdas=np.array(lams))


@dataclass(frozen=True, eq=False)
class PolynomialVector:
    """Vector of univariate real polynomials (ascending coefficients).

    ``variable`` tags which affine coordinate the entries live in: ``"x"``
    for the descending chart, ``"y"`` for the ascending one.
    """

    entries: tuple
    variable: str

    def __post_init__(self):
        if self.variable not in ("x", "y"):
            raise ValueError("variable tag must be 'x' or 'y'")
        object.__setattr__(self, "entries", tuple(_readonly(e) for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.entries[idx]


# ---------------------------------------------------------------------------
# minor-polynomial recurrences
# ---------------------------------------------------------------------------


def _minor_polys(a, b) -> list:
    """Coefficients of det((L - x E)[:k, :k]) for k = 0..n (ascending).

    ``a`` and ``b`` are the diagonal and subdiagonal of L.  The trailing
    minors det((L - x E)[k:, k:]) are the leading minors of the reversed
    bands ``a[::-1]``, ``b[::-1]``.
    """
    polys = [np.array([1.0])]
    for k in range(1, len(a) + 1):
        # det_k = (a_k - x) det_{k-1} - b_{k-1} det_{k-2}, and det_1 = a_1 - x
        nxt = npoly.polymul(np.array([a[k - 1], -1.0]), polys[-1])
        polys.append(npoly.polysub(nxt, b[k - 2] * polys[-2]) if k > 1 else nxt)
    return polys


def char_poly(L: LaxMatrix) -> np.ndarray:
    """Monic characteristic polynomial (-1)^n det(L - x E), ascending coefficients."""
    return _minor_polys(L.a, L.b)[L.n] * ((-1.0) ** L.n)


def chop_values(L: LaxMatrix, points) -> np.ndarray:
    """Evaluate the (1,1)-cofactor of (L - x E) at the given points.

    Uses the trailing three-term determinant recurrence directly on values,
    which is better conditioned than evaluating stored coefficients.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    nxt = np.ones_like(x)
    cur = L.a[-1] - x
    for k in range(L.n - 1, 1, -1):
        cur, nxt = (L.a[k - 1] - x) * cur - L.b[k - 1] * nxt, cur
    return cur


def chop_integral(L: LaxMatrix) -> np.ndarray:
    """Coefficients of the (1,1)-cofactor of (L - x E).

    Degree n-1 with leading coefficient (-1)**(n-1); this is the conserved
    polynomial whose values at the eigenvalues linearize the flow.
    """
    return _minor_polys(L.a[::-1], L.b[::-1])[L.n - 1]


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def symmetric_tridiagonal_eigenvalues(diag, off) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending.

    LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``) on the dense
    matrix with diagonal ``diag`` and off-diagonals ``off``.  Leading axes
    are a stack of matrices (``diag`` (..., n), ``off`` (..., n-1)), solved
    in one call; each row equals its single-matrix call bit for bit.
    ``spectrum`` takes ``eigh`` instead, whose values may differ in the last bits.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.shape[-1]
    if n == 1:
        return d.copy()
    if e.shape != d.shape[:-1] + (n - 1,):
        raise ValueError("off-diagonal must have length n-1")
    return np.linalg.eigvalsh(_symmetric_tridiagonal(d, e))


def _symmetric_tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrices from diagonals (..., n) and
    off-diagonals (..., n-1)."""
    n = d.shape[-1]
    dense = np.zeros(d.shape + (n,))
    i = np.arange(n)
    dense[..., i, i] = d
    dense[..., i[1:], i[:-1]] = e
    dense[..., i[:-1], i[1:]] = e
    return dense


def _weyl_cofactor_values(vecs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """chop_values at the eigenvalues, for a positive subdiagonal, from the
    residues of the Weyl function: (-1)**(n-1) * v_i[0]**2 * p'(lam_i).

    ``lams, vecs`` is the ``eigh`` of the symmetrized matrix (off-diagonals
    sqrt(b)), v_i = vecs[:, i], and p'(lam_i) = prod over j != i of
    (lam_i - lam_j).  Unlike the recurrence at a rounded eigenvalue, this
    keeps its relative accuracy where lam_i nearly meets an eigenvalue of the
    trailing corner.  Leading axes are a stack, as in ``numpy.linalg.eigh``.
    """
    n = lams.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = lams[..., :, None] - lams[..., None, :]
        i = np.arange(n)
        diffs[..., i, i] = 1.0
        return (-1.0) ** (n - 1) * vecs[..., 0, :] ** 2 * np.multiply.reduce(diffs, axis=-1)


def _charpoly_value_and_derivative(L: LaxMatrix, x: np.ndarray):
    """det(L - x E) and its x-derivative via the leading-minor recurrence.

    Evaluating the determinant recurrence directly at the points sidesteps
    the conditioning of the monomial coefficients.
    """
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    for k in range(L.n):
        bq = L.b[k - 1] if k >= 1 else 0.0
        p_next = (L.a[k] - x) * p - bq * p_prev
        dp_next = -p + (L.a[k] - x) * dp - bq * dp_prev
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


def charpoly_root_eigenvalues(L: LaxMatrix) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, for any real L.

    Fallback route for matrices with sign-mixed subdiagonals: LAPACK's
    general eigensolver (``numpy.linalg.eigvals``) on the dense matrix, then
    three Newton steps on the determinant value recurrence, which lower the
    median relative error from about 1e-15 to about 2e-16.  Raises
    NonRealSpectrum when a root strays off the real axis and SpectrumOverflow
    when a polish step is not finite (the determinant recurrence leaves
    double range).
    """
    roots = np.linalg.eigvals(L.to_dense())
    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.any(np.abs(roots.imag) > DEFAULT_IMAG_TOL * scale):
        worst = roots[np.argmax(np.abs(roots.imag))]
        raise NonRealSpectrum(f"root {worst} has nonnegligible imaginary part")
    lams = roots.real.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            val, der = _charpoly_value_and_derivative(L, lams)
            step = np.where(der != 0.0, val / np.where(der != 0.0, der, 1.0), 0.0)
            if not np.isfinite(step).all():
                raise SpectrumOverflow("the Newton polish of the eigenvalues leaves double range")
            step = np.clip(step, -0.1 * scale, 0.1 * scale)
            lams = lams - step
    return np.sort(lams)


def spectrum(L: LaxMatrix) -> Spectrum:
    """All eigenvalues of L, sorted ascending.

    With a positive subdiagonal, the (real) eigenvalues of L's one ``eigh``
    (``LaxMatrix._eigh``, whose eigenvectors ``abel_jacobi`` and Symes's QR
    route read).  Otherwise falls back to ``charpoly_root_eigenvalues``
    (polished ``eigvals``), which never returns a non-finite value.
    """
    eigh = L._eigh
    lams = charpoly_root_eigenvalues(L) if eigh is None else eigh[0]
    # a gap beyond double range is inf, and passes; abel_jacobi reports the range
    with np.errstate(over="ignore"):
        gaps = np.diff(lams)
    if lams.size > 1 and np.min(gaps) <= DEFAULT_SEPARATION:
        i = int(np.argmin(gaps))
        raise NonSimpleSpectrum(
            f"eigenvalues {float(lams[i])!r} and {float(lams[i + 1])!r} closer than "
            f"{DEFAULT_SEPARATION:.1e}"
        )
    return Spectrum._trusted(lams)


# ---------------------------------------------------------------------------
# minors of dense matrices
# ---------------------------------------------------------------------------


def _validate_index_list(idx, n: int, name: str) -> tuple:
    try:
        out = tuple(int(i) for i in idx)
    except (TypeError, ValueError) as exc:
        raise BadIndex(f"{name} must be a sequence of integers") from exc
    if len(out) == 0:
        raise BadIndex(f"{name} must be nonempty")
    if any(i < 0 or i >= n for i in out):
        raise BadIndex(f"{name} {out} out of bounds for size {n}")
    if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
        raise BadIndex(f"{name} {out} must be strictly increasing")
    return out


def minor(M, rows: Sequence[int], cols: Sequence[int]) -> float:
    """Determinant of the submatrix selected by 0-based row/column indices.

    Cofactor expansion for orders up to 3, pivoted LU (``numpy.linalg.det``)
    above, both in floats: a minor far below its terms can get the wrong
    sign, as LU does on two matrices of the total-positivity test corpus
    (ROADMAP item 8 owns an exact fix).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BadIndex("matrix must be square")
    n = M.shape[0]
    r = _validate_index_list(rows, n, "rows")
    c = _validate_index_list(cols, n, "cols")
    if len(r) != len(c):
        raise BadIndex("row and column index lists must have equal length")
    sub = M[np.ix_(r, c)]
    k = len(r)
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    if k == 3:
        return float(
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))


# ---------------------------------------------------------------------------
# cofactor vectors and component divisors
# ---------------------------------------------------------------------------


def cofactor_vectors(L: LaxMatrix) -> tuple:
    """Polynomial kernel vectors of (L - x E) built from row cofactors.

    Returns ``(v_minus, v_plus)``:

    * ``v_minus[k]`` is monic of degree k (signed cofactor along the last
      row); its first entry is the constant 1.
    * ``v_plus[k]`` is the signed cofactor along the first row, of degree
      n-1-k with leading coefficient (-1)**(n-1) * b_1*...*b_k.

    At every eigenvalue the two vectors are proportional with ratio equal to
    the (1,1)-cofactor: chop(lam) * v_minus(lam) = v_plus(lam).
    """
    lead = _minor_polys(L.a, L.b)
    trail = _minor_polys(L.a[::-1], L.b[::-1])
    minus = []
    plus = []
    bprod = 1.0
    for j in range(1, L.n + 1):
        minus.append(((-1.0) ** (j - 1)) * lead[j - 1])
        plus.append(((-1.0) ** (j + 1)) * bprod * trail[L.n - j])
        if j <= L.n - 1:
            bprod *= L.b[j - 1]
    return (
        PolynomialVector(entries=tuple(minus), variable="x"),
        PolynomialVector(entries=tuple(plus), variable="y"),
    )


@dataclass(frozen=True, eq=False)
class ComponentDivisor:
    """Zeros of one glued cofactor-vector component on the two charts."""

    roots_minus: np.ndarray
    roots_plus: np.ndarray
    off_real_axis: bool


def _component_roots(coeffs: np.ndarray):
    if coeffs.size == 1:
        return np.array([]), False
    roots = npoly.polyroots(coeffs)
    roots = roots[np.argsort(roots.real, kind="stable")]
    flagged = bool(np.any(np.abs(roots.imag) > DEFAULT_IMAG_TOL * (1.0 + np.abs(roots.real))))
    if not flagged:
        roots = roots.real
    return roots, flagged


def divisor_of_component(L: LaxMatrix, k: int) -> ComponentDivisor:
    """Roots of the k-th cofactor-vector component (math index 1 <= k <= n).

    The component is made of two minors of L - x E, each formed from its own
    bands: the leading one of order k-1 (the descending-chart entry, k-1
    roots) and the trailing one of order n-k (the ascending-chart entry, whose
    scale b_1*...*b_{k-1} moves no root; n-k roots).  Complex roots are
    returned with ``off_real_axis`` set.  Raises RangeExceeded (t = 0) when a
    minor's coefficients leave double range.
    """
    if not 1 <= k <= L.n:
        raise BadIndex(f"component index {k} out of range 1..{L.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        lead = _minor_polys(L.a[: k - 1], L.b)[-1]
        trail = _minor_polys(L.a[k:][::-1], L.b[k:][::-1])[-1]
    if not (np.isfinite(lead).all() and np.isfinite(trail).all()):
        raise RangeExceeded(0.0, f"the minors of component {k} leave double range")
    rm, flag_m = _component_roots(lead)
    rp, flag_p = _component_roots(trail)
    return ComponentDivisor(
        roots_minus=rm, roots_plus=rp, off_real_axis=flag_m or flag_p
    )
