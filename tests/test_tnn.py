"""Tests for total-nonnegativity, total-positivity and interlacing checks."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todajac import lax, tnn, verify
from todajac.errors import NonRealSpectrum, NonSimpleSpectrum, NotTnn, NotTridiagonal, TooLarge

RNG = np.random.default_rng(7151)


def make(a, b):
    a = np.asarray(a, dtype=float)
    return lax.LaxMatrix(n=a.size, a=a, b=np.asarray(b, dtype=float))


def random_tridiagonal(rng, n, a_lo=-0.5, a_hi=2.5, b_lo=0.01, b_hi=1.5):
    """Random phase-space matrix with positive subdiagonal (unit superdiagonal)."""
    return make(rng.uniform(a_lo, a_hi, n), rng.uniform(b_lo, b_hi, n - 1))


# a tiny negative b_1 nearly decouples the matrix, and its rounded spectra
# interlace: the spectra alone would call it TNN
TINY_NEGATIVE_B = make(
    [2.9877258766458645, 3.1461341964872647, 3.291349420217848],
    [-2.053110304527219e-232, 0.4753978632097647],
)

# TNN and nearly decoupled: the leading (n-1) corner has two eigenvalues
# within DEFAULT_SEPARATION, L and its trailing corner do not
NEARLY_DECOUPLED_TNN = [
    make([3.5, 2.5, 2.5, 3.5, 9.0], [1e-8] * 4),
    make([4.0, 3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 9.0], [1e-4] * 7),
    make([5.0, 4.0, 3.0, 2.0, 3.0, 4.0, 5.0, 20.0], [1e-4] * 7),
]


def nearly_decoupled_family():
    """150 TNN matrices, n = 4..8: a V-shaped leading diagonal, one far or
    near last diagonal entry, and every subdiagonal entry the same tiny b."""
    for n, mid, last, b in itertools.product(
        range(4, 9), (1.0, 2.0), (0.5, 9.0, 20.0), (1e-3, 1e-4, 1e-5, 1e-6, 1e-8)
    ):
        yield make([mid + abs((n - 2) / 2 - i) for i in range(n - 1)] + [last], [b] * (n - 1))


def sign_mixed_tridiagonal(rng, n, tiny):
    """Random phase-space matrix with at least one negative subdiagonal entry.

    With ``tiny`` that entry is the only negative one, of magnitude 1e-300
    to 1e-20; otherwise every sign is random and the magnitudes are those of
    ``random_tridiagonal``, which often gives a non-real spectrum.
    """
    b = rng.uniform(0.01, 1.5, n - 1)
    k = rng.integers(n - 1)
    if tiny:
        b[k] = -(10.0 ** rng.uniform(-300.0, -20.0))
    else:
        b *= rng.choice([-1.0, 1.0], n - 1)
        b[k] = -abs(b[k])
    return make(rng.uniform(-0.5, 3.5, n), b)


def plain_loop_tridiagonal_criterion(M, tol):
    """Entry signs row-major, then window determinants by (size, start)."""
    n = M.shape[0]
    for i in range(n):
        for j in range(max(0, i - 1), min(n, i + 2)):
            if not M[i, j] >= -tol:
                return False, ((i,), (j,), float(M[i, j]))
    dets = {}
    for s in range(n):
        prev2, prev1 = 1.0, float(M[s, s])
        for m in range(s + 1, n):
            cur = M[m, m] * prev1 - M[m - 1, m] * M[m, m - 1] * prev2
            dets[(s, m)] = float(cur)
            prev2, prev1 = prev1, cur
    for size in range(2, n + 1):
        for s in range(0, n - size + 1):
            value = dets[(s, s + size - 1)]
            if not value >= -tol:
                window = tuple(range(s, s + size))
                return False, (window, window, value)
    return True, None


def all_minors_totally_positive(M):
    """Reference: np.linalg.det of every square submatrix is positive."""
    n = M.shape[0]
    for k in range(1, n + 1):
        idx = np.array(list(itertools.combinations(range(n), k)))
        blocks = M[idx[:, None, :, None], idx[None, :, None, :]].reshape(-1, k, k)
        if not np.all(np.linalg.det(blocks) > 0.0):
            return False
    return True


def exact_det(A):
    """Determinant of a float matrix in exact rational arithmetic."""
    return fraction_det([[Fraction(float(x)) for x in row] for row in A])


def fraction_det(A):
    """Determinant of a matrix of Fractions by exact Gaussian elimination."""
    A = [list(row) for row in A]
    n, det = len(A), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            for j in range(c, n):
                A[r][j] -= f * A[c][j]
    return det


def first_negative_minor(M):
    """(rows, cols, exact value) of the first negative minor in (size,
    lexicographic) order, or None; a plain loop over exact determinants."""
    n = M.shape[0]
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                value = exact_det(M[np.ix_(rows, cols)])
                if value < 0:
                    return rows, cols, value
    return None


def integer_first_negative_minor(M):
    """(rows, cols) of the first negative minor in (size, lexicographic)
    order, or None: Laplace expansion along the first row in Python
    integers, the entries times one power of two."""
    n = M.shape[0]
    ratios = [[float(x).as_integer_ratio() for x in row] for row in M]
    scale = max(d for row in ratios for _, d in row)
    A = [[p * (scale // d) for p, d in row] for row in ratios]
    below = {((), ()): 1}
    for k in range(1, n + 1):
        minors = {}
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                value = sum(
                    (-1) ** j * A[rows[0]][c] * below[rows[1:], cols[:j] + cols[j + 1:]]
                    for j, c in enumerate(cols)
                )
                if value < 0:
                    return rows, cols
                minors[rows, cols] = value
        below = minors
    return None


def initial_minor_blocks(M):
    """The n^2 contiguous blocks of M whose lower-right corner is (i, j) and
    that touch the first row or the first column."""
    n = M.shape[0]
    for i in range(n):
        for j in range(n):
            k = min(i, j) + 1
            yield M[i - k + 1:i + 1, j - k + 1:j + 1]


def exactly_totally_positive(P):
    """All n^2 initial minors of a Fraction matrix are positive (Gasca-Peña)."""
    return all(fraction_det(B) > 0 for B in initial_minor_blocks(P))


def reference_power_search(M, k_max):
    """Smallest k <= k_max with M**k totally positive by the all-minors reference."""
    power = np.eye(M.shape[0])
    for k in range(1, k_max + 1):
        power = power @ M
        if all_minors_totally_positive(power):
            return True, k
    return False, None


def tnn_tridiagonal_dense(rng, n, singular=False):
    """(unit lower bidiagonal) @ (upper bidiagonal, unit superdiagonal): TNN.

    With ``singular`` the last pivot is zero: the product and its powers are
    singular up to the rounding of the matrix products.
    """
    d = rng.uniform(0.1, 2.0, n)
    if singular:
        d[-1] = 0.0
    lower = np.eye(n) + np.diag(rng.uniform(0.05, 1.0, n - 1), -1)
    return lower @ (np.diag(d) + np.eye(n, k=1))


def total_positivity_corpus(rng):
    """Powers of TNN tridiagonals, exp(x_i y_j) kernels with one-entry
    perturbations, uniform dense matrices, and the transposes of all."""
    corpus = []
    for n in range(2, 9):
        for singular in (False, False, True):
            L = tnn_tridiagonal_dense(rng, n, singular)
            power = np.eye(n)
            for _ in range(2 * n):
                power = power @ L
                corpus.append(power)
        for _ in range(6):
            x, y = np.sort(rng.uniform(-1.5, 1.5, (2, n)), axis=1)
            K = np.exp(np.outer(x, y))
            corpus.append(K)
            for _ in range(4):
                P = K.copy()
                i, j = rng.integers(0, n, 2)
                P[i, j] *= rng.uniform(0.5, 1.5)
                corpus.append(P)
        corpus.extend(rng.uniform(0.0, 1.0, (n, n)) for _ in range(10))
    return corpus + [M.T for M in corpus]


# ---------------------------------------------------------------------------
# exhaustive check
# ---------------------------------------------------------------------------


class TestExhaustive:
    def test_positive_example(self):
        assert tnn.is_tnn_exhaustive([[2, 1], [1, 2]]).is_tnn

    def test_swap_matrix_witness(self):
        rep = tnn.is_tnn_exhaustive([[0, 1], [1, 0]])
        assert not rep.is_tnn
        assert rep.witness.rows == (0, 1)
        assert rep.witness.cols == (0, 1)
        assert rep.witness.value == pytest.approx(-1.0)

    def test_rank_one(self):
        assert tnn.is_tnn_exhaustive([[1, 1], [1, 1]]).is_tnn

    def test_size_gate(self):
        with pytest.raises(TooLarge):
            tnn.is_tnn_exhaustive(np.eye(9))

    def test_witness_only_when_negative(self):
        rep = tnn.is_tnn_exhaustive([[2, 1], [1, 2]])
        assert rep.witness is None and rep.method == "exhaustive"

    def test_tolerance_forgives_noise(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        assert not tnn.is_tnn_exhaustive(M).is_tnn
        assert tnn.is_tnn_exhaustive(M, tol=1e-12).is_tnn

    def test_witness_is_first_negative_entry(self):
        M = np.array([[1.0, -0.5], [2.0, -3.0]])
        rep = tnn.is_tnn_exhaustive(M)
        assert rep.witness.rows == (0,) and rep.witness.cols == (1,)

    def test_tnn_draws_at_n8_are_accepted(self):
        # LU of each submatrix read minors with no nonzero transversal as
        # rounding noise of either sign and rejected 15 of these draws
        rng = np.random.default_rng(11)
        draws = [verify.sample_tnn_rejection(rng, 8) for _ in range(1000)]
        for L in draws:
            assert tnn.is_tnn_exhaustive(L).is_tnn and tnn.is_tnn_tridiagonal(L).is_tnn
        # the first of them: rows 0-3 would need four columns out of {1, 2, 3}
        rows, cols = (0, 1, 2, 3, 4, 6), (1, 2, 3, 5, 6, 7)
        assert exact_det(draws[38].to_dense()[np.ix_(rows, cols)]) == 0

    def test_witness_matches_plain_loop_reference(self):
        rng = np.random.default_rng(8128)
        rejected = 0
        for trial in range(240):
            n = 3 + trial % 6
            kind = trial // 6 % 3
            M = rng.uniform(-0.1 if kind == 0 else 0.0, 1.0, (n, n))
            if kind == 2:
                # sparse: many minors have no nonzero transversal
                M[rng.random((n, n)) < 0.6] = 0.0
            want = first_negative_minor(M)
            report = tnn.is_tnn_exhaustive(M)
            assert report.is_tnn == (want is None), f"M={M!r}"
            if want is not None:
                witness = report.witness
                assert (witness.rows, witness.cols) == want[:2], f"M={M!r}"
                assert witness.value == pytest.approx(float(want[2]), rel=1e-9)
                rejected += 1
        assert 120 < rejected < 240

    def test_corpus_verdicts_match_exact_reference(self):
        # The float expansion loses the sign of minors far below their terms
        # (powers of tridiagonals, exp kernels); LU of each submatrix erred
        # both ways on the same corpus.
        corpus = total_positivity_corpus(np.random.default_rng(5150))
        rejected = 0
        for M in corpus:
            report = tnn.is_tnn_exhaustive(M)
            if M.shape[0] <= 7:
                want = integer_first_negative_minor(M)
                assert report.is_tnn == (want is None), f"M={M!r}"
                if want is not None:
                    assert (report.witness.rows, report.witness.cols) == want, f"M={M!r}"
            if not report.is_tnn:
                rows, cols = report.witness.rows, report.witness.cols
                assert exact_det(M[np.ix_(rows, cols)]) < 0 and report.witness.value < 0, f"M={M!r}"
                rejected += 1
        assert 300 < rejected < len(corpus) - 300

    def test_undecided_minor_is_settled_exactly(self):
        # the float sum -2**-52 is within its rounding bound of 0
        M = np.array([[1.0, 1.0], [1.0, 1.0 - 2.0**-52]])
        report = tnn.is_tnn_exhaustive(M)
        assert report.witness.rows == (0, 1) and report.witness.value == -(2.0**-52)
        assert tnn.is_tnn_exhaustive(M, tol=2.0**-52).is_tnn
        assert not tnn.is_tnn_exhaustive(M, tol=2.0**-53).is_tnn
        assert tnn.is_tnn_exhaustive(np.ones((8, 8))).is_tnn
        # the float products overflow; the exact minor -2**1348 rounds to -inf
        assert tnn.is_tnn_exhaustive(M * 2.0**700).witness.value == -math.inf
        # a non-finite entry leaves the verdict to the float signs
        assert tnn.is_tnn_exhaustive([[1.0, np.inf], [1.0, 1.0]]).witness.rows == (0, 1)

    def test_report_json_shape(self):
        d = tnn.is_tnn_exhaustive([[0, 1], [1, 0]]).to_json_dict()
        assert d["is_tnn"] is False
        assert d["witness"] == {"rows": [0, 1], "cols": [0, 1], "value": -1.0}
        assert d["method"] == "exhaustive"
        d_ok = tnn.is_tnn_exhaustive([[1, 1], [1, 1]]).to_json_dict()
        assert d_ok["witness"] is None


# ---------------------------------------------------------------------------
# tridiagonal criterion
# ---------------------------------------------------------------------------


class TestTridiagonalCriterion:
    def test_positive_example(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2], [1])).is_tnn

    def test_negative_determinant(self):
        rep = tnn.is_tnn_tridiagonal(make([1, 1], [2]))
        assert not rep.is_tnn
        assert rep.witness.value == pytest.approx(-1.0)
        assert rep.witness.rows == (0, 1)

    def test_three_by_three(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2, 2], [1, 1])).is_tnn

    def test_negative_entry_witness(self):
        rep = tnn.is_tnn_tridiagonal(make([2, -0.5, 2], [1, 1]))
        assert not rep.is_tnn
        assert rep.witness.rows == (1,) and rep.witness.cols == (1,)

    def test_rejects_dense_input(self):
        with pytest.raises(NotTridiagonal):
            tnn.is_tnn_tridiagonal(np.ones((4, 4)))

    @pytest.mark.parametrize("check", [tnn.is_tnn_tridiagonal, tnn.is_irreducible_tnn])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_outside_the_bands_is_not_tridiagonal(self, check, value):
        # a NaN there once read as zero: TNN with no witness, or (False, None)
        M = np.eye(3)
        M[0, 2] = value
        with pytest.raises(NotTridiagonal, match=r"^entry \(0,2\)=.* outside the three bands$"):
            check(M)

    def test_off_band_entry_prints_as_plain_float(self):
        M = np.array([[1, 0, 2.5], [0, 1, 0], [0, 0, 1.0]])
        with pytest.raises(NotTridiagonal) as info:
            tnn.is_tnn_tridiagonal(M)
        assert str(info.value) == "entry (0,2)=2.5 outside the three bands"

    def test_method_tag(self):
        assert tnn.is_tnn_tridiagonal(make([2, 2], [1])).method == "tridiagonal-criterion"

    def test_agrees_with_exhaustive_mixed_signs(self):
        for _ in range(400):
            n = int(RNG.integers(2, 7))
            a = RNG.uniform(-1.0, 2.5, n)
            b = RNG.uniform(0.01, 1.5, n - 1) * RNG.choice([-1.0, 1.0], n - 1)
            L = make(a, b)
            assert (
                tnn.is_tnn_tridiagonal(L).is_tnn == tnn.is_tnn_exhaustive(L).is_tnn
            ), f"disagreement on a={a}, b={b}"

    def test_sylvester_consistency(self):
        # det >= 0 plus TNN trailing corner plus nonnegative entries => TNN
        hits = 0
        while hits < 60:
            n = int(RNG.integers(2, 6))
            L = random_tridiagonal(RNG, n, a_lo=0.0)
            dense = L.to_dense()
            if np.linalg.det(dense) < 0:
                continue
            if not tnn.is_tnn_exhaustive(dense[1:, 1:]).is_tnn:
                continue
            hits += 1
            assert tnn.is_tnn_tridiagonal(L).is_tnn

    @staticmethod
    def criterion_output(report):
        # repr tells NaN values apart from nothing and -0.0 from 0.0
        witness = report.witness
        return report.is_tnn, witness and (witness.rows, witness.cols, repr(witness.value))

    @staticmethod
    def reference_output(M, tol):
        with np.errstate(all="ignore"):  # inf and NaN entries
            ok, witness = plain_loop_tridiagonal_criterion(M, tol)
        return ok, witness and (witness[0], witness[1], repr(witness[2]))

    def test_witness_matches_plain_loop_reference(self):
        rng = np.random.default_rng(31337)
        rejected = last_bits = lax_cases = lax_rejected = 0
        for trial in range(2000):
            n = int(rng.integers(2, 9))
            M = np.diag(rng.uniform(0.5, 3.0, n))
            M[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.01, 1.5, n - 1)
            M[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.01, 1.5, n - 1)
            if trial % 3 == 0:
                # one negative entry somewhere on the three bands
                i = int(rng.integers(0, n))
                j = min(max(i + int(rng.integers(-1, 2)), 0), n - 1)
                M[i, j] = -rng.uniform(0.0, 1.0)
            elif trial % 3 == 1:
                # set the last diagonal entry of one window to within a few
                # ulps of cancelling its determinant
                s = int(rng.integers(0, n - 1))
                m = int(rng.integers(s + 1, n))
                prev2, prev1 = 1.0, M[s, s]
                for k in range(s + 1, m):
                    prev2, prev1 = prev1, M[k, k] * prev1 - M[k - 1, k] * M[k, k - 1] * prev2
                if prev1 != 0.0:
                    ratio = M[m - 1, m] * M[m, m - 1] * prev2 / prev1
                    M[m, m] = ratio + int(rng.integers(-3, 4)) * np.spacing(ratio)
            tol = (0.0, 1e-12)[trial % 2]
            got = self.criterion_output(tnn.is_tnn_tridiagonal(M, tol=tol))
            want = self.reference_output(M, tol)
            assert got == want, f"trial {trial}: M={M!r}, tol={tol}"
            # the same windows as a LaxMatrix: unit superdiagonal, b = the coupling
            coupling = np.diag(M, 1) * np.diag(M, -1)
            if np.all(coupling != 0.0):
                L = lax.LaxMatrix(n=n, a=np.diag(M), b=coupling)
                lax_got = self.criterion_output(tnn.is_tnn_tridiagonal(L, tol=tol))
                lax_want = self.reference_output(L.to_dense(), tol)
                assert lax_got == lax_want, f"trial {trial}: L={L!r}, tol={tol}"
                lax_cases += 1
                lax_rejected += not lax_want[0]
            rejected += not want[0]
            last_bits += not want[0] and abs(float(want[1][2])) < 1e-13
        assert rejected > 1000 and last_bits > 50
        assert lax_cases > 1900 and lax_rejected > 1000

        # negative tolerances (an entry must then reach -tol > 0, so a
        # missing neighbour read as 0.0 would be a witness) and NaN, +-inf
        # and -0.0 band entries, on dense input and, where the bands are
        # finite, on the LaxMatrix
        special = np.array([np.nan, np.inf, -np.inf, -0.0])
        values, first_entry, lax_cases = [], 0, 0
        for trial in range(1500):
            n = int(rng.integers(1, 9))
            M = np.diag(rng.uniform(0.0, 3.0, n))
            M[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.0, 1.5, n - 1)
            M[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.0, 1.5, n - 1)
            if trial % 2:
                i = int(rng.integers(0, n))
                j = min(max(i + int(rng.integers(-1, 2)), 0), n - 1)
                M[i, j] = special[int(rng.integers(0, 4))]
            tol = (-0.2, -0.05, 0.0, 1e-12)[trial % 4]
            want = self.reference_output(M, tol)
            assert self.criterion_output(tnn.is_tnn_tridiagonal(M, tol=tol)) == want, (
                f"trial {trial}: M={M!r}, tol={tol}"
            )
            coupling = np.diag(M, 1) * np.diag(M, -1)
            if n > 1 and np.isfinite(M).all() and np.all(coupling != 0.0):
                L = lax.LaxMatrix(n=n, a=np.diag(M), b=coupling)
                lax_want = self.reference_output(L.to_dense(), tol)
                lax_got = self.criterion_output(tnn.is_tnn_tridiagonal(L, tol=tol))
                assert lax_got == lax_want, f"trial {trial}: L={L!r}, tol={tol}"
                lax_cases += 1
            if not want[0]:
                values.append(want[1][2])
                first_entry += want[1][:2] == ((0,), (0,))
        assert values.count("nan") > 100 and values.count("-0.0") > 40 and first_entry > 100
        assert lax_cases > 500

    def test_structure_error_matches_plain_loop_reference(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            M = np.diag(rng.uniform(0.5, 2.0, n))
            for _ in range(2):
                i = int(rng.integers(0, n - 2))
                j = i + 2 + int(rng.integers(0, n - i - 2))
                if rng.random() < 0.5:
                    i, j = j, i
                M[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(1e-300, 1.0)
            expected = next(
                f"entry ({r},{c})={float(M[r, c])!r} outside the three bands"
                for r in range(n)
                for c in range(n)
                if abs(r - c) >= 2 and abs(M[r, c]) > 0.0
            )
            with pytest.raises(NotTridiagonal) as info:
                tnn.is_tnn_tridiagonal(M)
            assert str(info.value) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.integers(2, 9), tol=st.sampled_from([0.0, 1e-9, -0.05, 0.3]), data=st.data())
    def test_stacked_verdicts_match_criterion(self, n, tol, data):
        # exact zeros, magnitudes 1e-300..1e300 and moderate ones; a row
        # with every sign positive can be TNN
        magnitude = st.one_of(
            st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.floats(0.01, 3.0)
        )
        entry = st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda p: p[0] * p[1])
        row = st.tuples(st.booleans(), st.lists(entry, min_size=2 * n - 1, max_size=2 * n - 1))
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        bands = np.array([np.abs(r) if positive else r for positive, r in rows])
        a, b = bands[:, :n], bands[:, n:]
        got = tnn._tridiagonal_verdicts(a, b, tol)
        for r in range(len(rows)):
            L = lax.LaxMatrix._trusted(n=n, a=a[r], b=b[r])
            assert got[r] == tnn.is_tnn_tridiagonal(L, tol=tol).is_tnn


# ---------------------------------------------------------------------------
# total positivity
# ---------------------------------------------------------------------------


class TestTotallyPositive:
    def test_examples(self):
        assert tnn.is_totally_positive([[5, 4], [4, 5]])
        assert not tnn.is_totally_positive([[1, 1], [1, 1]])
        assert tnn.is_totally_positive([[2, 1], [1, 2]])

    def test_size_gate(self):
        with pytest.raises(TooLarge):
            tnn.is_totally_positive(np.eye(9))

    def test_tp_implies_tnn(self):
        for _ in range(200):
            n = int(RNG.integers(2, 5))
            M = RNG.uniform(0.0, 2.0, (n, n))
            if tnn.is_totally_positive(M):
                assert tnn.is_tnn_exhaustive(M).is_tnn

    def test_corpus_verdicts_match_exact_initial_minors(self):
        # LU determinants, of the initial minors or of all minors, get the
        # verdict wrong both ways on 39 of these matrices
        corpus = total_positivity_corpus(np.random.default_rng(5150))
        verdicts = []
        for M in corpus:
            exact = np.array([[Fraction(float(x)) for x in row] for row in M], dtype=object)
            want = exactly_totally_positive(exact)
            assert tnn.is_totally_positive(M) == want, f"M={M!r}"
            verdicts.append(want)
        assert len(corpus) == 980 and 300 < sum(verdicts) < len(corpus) - 300

    def test_minors_lu_got_wrong(self):
        corpus = total_positivity_corpus(np.random.default_rng(5150))
        # det = -3.68e-13 exactly, +6.5e-13 by LU
        M = corpus[192]
        assert M.shape == (5, 5) and exact_det(M) < 0
        assert not tnn.is_totally_positive(M)
        assert tnn.is_tnn_exhaustive(M).witness.rows == (0, 1, 2, 3, 4)
        # det = 9.1e-18 exactly, 0 by LU
        M = corpus[8]
        assert M.shape == (2, 2) and exact_det(M) > 0
        assert tnn.is_totally_positive(M)

    def test_nan_entry_is_not_positive(self):
        # warnings fail the suite: no "invalid value encountered in det"
        assert not tnn.is_totally_positive([[np.nan]])
        assert not tnn.is_totally_positive([[1.0, 1.0], [1.0, np.nan]])

    def test_size_gate_names_the_check(self):
        with pytest.raises(TooLarge, match="total-positivity check limited to n <= 8, got 9"):
            tnn.is_totally_positive(np.ones((9, 9)))

    def test_one_minor_kernel(self, monkeypatch):
        def det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", det)
        corpus = total_positivity_corpus(np.random.default_rng(5150))
        for M in (corpus[8], corpus[192], corpus[444], np.ones((8, 8))):
            tnn.is_totally_positive(M)
            tnn.is_tnn_exhaustive(M)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


class TestIrreducible:
    def test_already_tp(self):
        ok, k = tnn.is_irreducible_tnn(make([2, 2], [1]))
        assert ok and k == 1

    def test_singular_rank_one(self):
        ok, k = tnn.is_irreducible_tnn(make([1, 1], [1]))
        assert not ok and k is None

    def test_three_by_three_needs_square(self):
        ok, k = tnn.is_irreducible_tnn(make([2, 2, 2], [1, 1]))
        assert ok and k == 2

    def test_requires_tnn(self):
        with pytest.raises(NotTnn):
            tnn.is_irreducible_tnn(make([0, 0], [1]))

    def test_singular_repros_are_not_irreducible(self):
        # no power of a singular matrix is TP; the LU determinants of these
        # powers are positive rounding noise, which the power search trusted
        for a, b in (([1.0, 1.5, 0.5], [0.5, 0.5]), ([1.0, 2.0, 1.0], [1.0, 1.0])):
            assert exact_det(make(a, b).to_dense()) == 0
            assert tnn.is_irreducible_tnn(make(a, b)) == (False, None)

    def test_singular_dyadic_bidiagonal_products_are_not_irreducible(self):
        # (unit lower bidiagonal) @ (upper bidiagonal, unit superdiagonal)
        # with a zero last pivot: dyadic entries keep the product and its
        # window recurrence exact, and the product exactly singular
        rng = np.random.default_rng(9191)
        for n in range(2, 9):
            for _ in range(10):
                d = rng.integers(1, 9, n) / 4.0
                d[-1] = 0.0
                lower = np.eye(n) + np.diag(rng.integers(1, 5, n - 1) / 4.0, -1)
                M = lower @ (np.diag(d) + np.eye(n, k=1))
                assert exact_det(M) == 0
                assert tnn.is_tnn_tridiagonal(M).is_tnn
                assert tnn.is_irreducible_tnn(M) == (False, None), f"M={M!r}"

    def test_zero_coupling_is_not_irreducible(self):
        # a decoupled TNN tridiagonal: every power keeps the zero block
        M = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert tnn.is_tnn_tridiagonal(M).is_tnn and exact_det(M) > 0
        assert tnn.is_irreducible_tnn(M) == (False, None)
        assert tnn.is_irreducible_tnn(M.T) == (False, None)

    def test_closed_form_matches_all_minors_reference(self):
        # The float power search may part from the closed form only where
        # exact arithmetic overrules it: L**k is exactly totally positive for
        # the closed form's k, and L**(k-1) is not.
        rng = np.random.default_rng(8088)
        found = 0
        disputed = []
        for i in range(500):
            n = 2 + i % 5
            L = verify.sample_tnn_rejection(rng, n)
            dense = L.to_dense()
            result = tnn.is_irreducible_tnn(L)
            assert tnn.is_irreducible_tnn(dense) == result
            if result != reference_power_search(dense, 2 * n):
                ok, k = result
                assert ok, f"L={L!r}"
                exact = np.array([[Fraction(float(x)) for x in row] for row in dense], dtype=object)
                below = np.linalg.matrix_power(exact, k - 1)
                assert not exactly_totally_positive(below), f"L={L!r}"
                assert exactly_totally_positive(below @ exact), f"L={L!r}"
                disputed.append(i)
            found += result[0]
        assert found > 400
        assert disputed == [179]

    def test_closed_form_beyond_the_minor_gate(self):
        # n > 8 is past the total-positivity check's size gate; the closed
        # form needs no minors of a power
        rng = np.random.default_rng(9916)
        for n in range(9, 17):
            L = verify.sample_tnn_rejection(rng, n)
            assert tnn.is_irreducible_tnn(L) == (True, n - 1)
            assert tnn.is_irreducible_tnn(L.to_dense()) == (True, n - 1)
            with pytest.raises(TooLarge):
                tnn.is_totally_positive(L.to_dense())

    def test_gantmacher_krein_positive_simple_spectrum(self):
        found = 0
        while found < 150:
            n = int(RNG.integers(2, 6))
            L = random_tridiagonal(RNG, n, a_lo=0.0, a_hi=3.0)
            if not tnn.is_tnn_tridiagonal(L).is_tnn:
                continue
            ok, _ = tnn.is_irreducible_tnn(L)
            if not ok:
                continue
            found += 1
            s = lax.spectrum(L)
            assert s.positive
            assert np.min(np.diff(s.lambdas)) > lax.DEFAULT_SEPARATION


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


class TestInterlacing:
    def test_three_by_three_data(self):
        data = tnn.interlacing_spectra(make([2, 2, 2], [1, 1]))
        np.testing.assert_allclose(
            data.lambdas.lambdas, [2 - np.sqrt(2), 2, 2 + np.sqrt(2)], atol=1e-12
        )
        np.testing.assert_allclose(data.mus.lambdas, [1.0, 3.0], atol=1e-12)
        assert tnn.check_interlacing(data)

    def test_two_by_two_scalars(self):
        data = tnn.interlacing_spectra(make([2, 2], [1]))
        np.testing.assert_allclose(data.lambdas.lambdas, [1.0, 3.0], atol=1e-13)
        np.testing.assert_allclose(data.mus.lambdas, [2.0])

    def test_swap_matrix_interlacing_false(self):
        # spectrum is real, so no error; positivity clause fails
        data = tnn.interlacing_spectra(make([0, 0], [1]))
        np.testing.assert_allclose(data.lambdas.lambdas, [-1.0, 1.0], atol=1e-13)
        np.testing.assert_allclose(data.mus.lambdas, [0.0])
        assert not tnn.check_interlacing(data)

    def test_positivity_clause(self):
        data = tnn.InterlacingData(
            lambdas=lax.Spectrum(np.array([-1.0, 1.0])),
            mus=lax.Spectrum(np.array([0.0])),
        )
        assert not tnn.check_interlacing(data)

    def test_simple_interleave(self):
        # mu strictly inside (lambda_1, lambda_2) interlaces; on or outside it does not
        for mu, want in ((2.0, True), (0.5, False), (1.0, False), (3.0, False), (4.0, False)):
            data = tnn.InterlacingData(
                lambdas=lax.Spectrum(np.array([1.0, 3.0])),
                mus=lax.Spectrum(np.array([mu])),
            )
            assert tnn.check_interlacing(data) is want, mu

    def test_triple_equivalence_positive_offdiagonals(self):
        # exhaustive <=> tridiagonal criterion <=> interlacing, both corners;
        # the route reads the trailing one, the leading one is checked here
        for _ in range(800):
            n = int(RNG.integers(2, 7))
            L = random_tridiagonal(RNG, n)
            r1 = tnn.is_tnn_exhaustive(L).is_tnn
            r2 = tnn.is_tnn_tridiagonal(L).is_tnn
            data = tnn.interlacing_spectra(L)
            r3 = tnn.check_interlacing(data)
            assert r1 == r2 == r3, f"a={L.a}, b={L.b}: {r1} {r2} {r3}"
            leading = lax.spectrum(make(L.a[:-1], L.b[:-1])) if n > 2 else lax.Spectrum(L.a[:1])
            swapped = tnn.InterlacingData(lambdas=data.lambdas, mus=leading)
            assert tnn.check_interlacing(swapped) == r3


class TestInterlacingRoute:
    def test_negative_entry_is_never_tnn(self):
        report = tnn.is_tnn_interlacing(TINY_NEGATIVE_B)
        assert report.to_json_dict() == {"is_tnn": False, "witness": None, "method": "interlacing"}
        for route in (tnn.is_tnn_exhaustive, tnn.is_tnn_tridiagonal):
            witness = route(TINY_NEGATIVE_B).witness
            assert (witness.rows, witness.cols, witness.value) == ((1,), (0,), -2.053110304527219e-232)

    def test_sign_mixed_routes_agree_without_spectra(self, monkeypatch):
        rng = np.random.default_rng(2121)
        draws = [sign_mixed_tridiagonal(rng, 2 + i % 7, tiny=i % 3 == 0) for i in range(700)]
        nonreal = 0
        for L in draws:
            try:
                lax.spectrum(L)
            except NonRealSpectrum:
                nonreal += 1
        assert nonreal >= 50
        calls = []
        real_spectrum = lax.spectrum
        monkeypatch.setattr(lax, "spectrum", lambda L: calls.append(L.n) or real_spectrum(L))
        for L in draws:
            verdicts = [
                tnn.is_tnn_exhaustive(L).is_tnn,
                tnn.is_tnn_tridiagonal(L).is_tnn,
                tnn.is_tnn_interlacing(L).is_tnn,
            ]
            assert verdicts == [False] * 3, f"a={L.a}, b={L.b}: {verdicts}"
        assert calls == []

    def test_unread_leading_corner_cannot_fail_the_route(self):
        for L in NEARLY_DECOUPLED_TNN:
            assert tnn.is_tnn_exhaustive(L).is_tnn and tnn.is_tnn_tridiagonal(L).is_tnn
            with pytest.raises(NonSimpleSpectrum):
                lax.spectrum(make(L.a[:-1], L.b[:-1]))
            assert tnn.is_tnn_interlacing(L).is_tnn

    def test_positive_b_takes_one_eigenvalue_call(self, monkeypatch):
        # no spectrum at all; one eigenvalue call for b > 0, none otherwise
        rng = np.random.default_rng(2122)
        spectra, calls = [], []
        real = lax.symmetric_tridiagonal_eigenvalues
        monkeypatch.setattr(lax, "spectrum", lambda L: spectra.append(L.n))
        monkeypatch.setattr(
            lax, "symmetric_tridiagonal_eigenvalues", lambda d, e: calls.append(len(d)) or real(d, e)
        )
        for i in range(140):
            n = 2 + i % 7
            L = random_tridiagonal(rng, n) if i % 4 else sign_mixed_tridiagonal(rng, n, i % 8 == 0)
            calls.clear()
            verdict = tnn.is_tnn_interlacing(L).is_tnn
            assert calls == ([n] if np.all(L.b > 0.0) else [])
            assert verdict == tnn.is_tnn_tridiagonal(L).is_tnn
        assert spectra == []

    def test_nearly_decoupled_family_matches_exhaustive(self):
        family = list(nearly_decoupled_family())
        assert len(family) == 150
        for L in family:
            verdicts = [tnn.is_tnn_exhaustive(L).is_tnn, tnn.is_tnn_interlacing(L).is_tnn]
            assert verdicts == [True, True], f"a={L.a}, b={L.b}: {verdicts}"

    def test_wide_range_positive_b_matches_exhaustive(self):
        rng = np.random.default_rng(7)
        tnn_count = 0
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            L = make(rng.uniform(-0.5, 3.0, n), 10.0 ** rng.uniform(-8.0, 1.0, n - 1))
            want = tnn.is_tnn_exhaustive(L).is_tnn
            assert tnn.is_tnn_interlacing(L).is_tnn == want, f"a={L.a}, b={L.b}"
            tnn_count += want
        assert 500 <= tnn_count <= 2500

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.0, 0.0], [1e-30]),  # eigenvalues +-1e-15: not simple
            ([1e-300, 1e-300], [5e-324]),  # eigenvalues 1e-300 +- 2.2e-162
            ([1.7e308, -1.7e308], [1.7e308]),  # entries near the top of double range
        ],
    )
    def test_verdict_without_spectrum_errors(self, a, b):
        # the suite turns a floating-point warning into an error
        L = make(a, b)
        assert tnn.is_tnn_interlacing(L).is_tnn is tnn.is_tnn_exhaustive(L).is_tnn is False

    def test_singular_tnn_is_not_tnn_here(self):
        # the paper's predicate asks 0 < lambda_1; here lambda_1 = 0
        L = make([1.0, 1.0], [1.0])
        assert tnn.is_tnn_exhaustive(L).is_tnn and tnn.is_tnn_tridiagonal(L).is_tnn
        assert not tnn.is_tnn_interlacing(L).is_tnn


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tnn.is_tnn_exhaustive(np.ones((2, 3))), "expected a square matrix"),
        (lambda: tnn.is_totally_positive(np.ones(3)), "expected a square matrix"),
        (
            lambda: tnn.InterlacingData(
                lambdas=lax.Spectrum(np.array([1.0, 2.0])), mus=lax.Spectrum(np.array([1.0, 2.0]))
            ),
            "corner spectrum must have length n-1",
        ),
    ],
    ids=["exhaustive-2x3", "totally-positive-1d", "interlacing-length"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
