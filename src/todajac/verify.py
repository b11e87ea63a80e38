"""Randomized verification of the positive-cone characterization.

Forward direction: sample sign-alternating points over positive spectra,
reconstruct, and require the result to pass the tridiagonal TNN test.
Converse direction: sample TNN phase-space matrices (half by evolving cone
constructions to a random time, half by rejection sampling) and require the
linearization to land in the alternating cone.

Every sample draws from its own RNG stream keyed by (seed, direction,
index), so reports are byte-identical however the indices are chunked.
Everything runs in order in the calling process.

Each direction runs on stacks of samples.  Every index takes one draw
from its stream (2n numbers, 2n + 1 for an evolved converse sample), and
stacked arithmetic forms the spectra, the cone points and the evolved
points from them.  The forward cone points are reconstructed by one stacked
tau-kernel pass and decided by one stacked tridiagonal-criterion pass.  Each
rejection-sampled converse index draws its tries a block at a time, and one
stacked criterion pass per block decides the tries of the whole chunk.  The
converse matrices are linearized by one stacked ``eigh`` call and one
stacked Weyl-residue evaluation.  A stack holds at most the tau kernel's
block of 2^14 terms (32 samples at n = 8).

Every stacked row equals its per-sample call bit for bit.  The rejection
blocks read a stream past its accepted try, which changes nothing: nothing
reads that stream afterwards.  A row the stack does not pass (a spectrum
retry, non-general, out of range, nonsimple, not TNN, a zero cofactor, ...)
is simply run again through the per-sample ``_forward_case`` or
``_converse_case``, which stays the definition: it decides the row and
writes its report entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import jacobi, lax, tnn
from .errors import NonGeneralDivisor, RangeExceeded, TodaError

DEFAULT_SPEC_RANGE = (0.1, 10.0)
DEFAULT_COORD_LOG_RANGE = 3.0
DEFAULT_TOL = 1e-9

# sample_tnn_rejection: diagonal and subdiagonal draw ranges, and the tries
# before the fallback construction
_A_RANGE = (0.05, 3.0)
_B_RANGE = (0.01, 1.0)
_MAX_TRIES = 2000
# run_verification: failure cases keep their sampled objects up to this count
_KEEP_CASES_UP_TO = 10

_FORWARD = 0
_CONVERSE = 1
_PATTERN = 2
# rejection tries a stream draws per stacked round: at n = 8 a try is
# accepted with probability 0.18, so all 32 fail with probability 0.002
_TRY_BLOCK = 32


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_spectrum(rng, n, lo=DEFAULT_SPEC_RANGE[0], hi=DEFAULT_SPEC_RANGE[1], min_gap=None):
    """Sorted eigenvalues in [lo, hi), resampled until every gap clears
    min_gap (default 1e-6 * (hi - lo)) and ``lax.DEFAULT_SEPARATION``.
    Raises ValueError when n - 1 such gaps cannot fit inside [lo, hi)."""
    min_gap = max(1e-6 * (hi - lo) if min_gap is None else min_gap, lax.DEFAULT_SEPARATION)
    if n >= 2 and not (n - 1) * min_gap < hi - lo:
        raise ValueError(
            f"{n} eigenvalues in [{float(lo)!r}, {float(hi)!r}) cannot be more than "
            f"{float(min_gap)!r} apart"
        )
    while True:
        lams = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.min(np.diff(lams)) > min_gap:
            # rng.uniform draws are finite
            return lax.Spectrum._trusted(lams)


def sample_point(rng, n, signs, log_range=DEFAULT_COORD_LOG_RANGE):
    """Point with |coordinates| log-uniform and the given tail sign pattern."""
    mags = np.exp(rng.uniform(-log_range, log_range, n))
    f = np.concatenate(([mags[0]], np.asarray(signs, dtype=float) * mags[1:]))
    return jacobi._normalized_point(f)


def sample_cone_point(rng, n, log_range=DEFAULT_COORD_LOG_RANGE):
    return sample_point(rng, n, jacobi.alternating_signs(n), log_range)


def sample_tnn_rejection(rng, n):
    """Rejection-sample a TNN phase-space matrix, a from _A_RANGE and b from
    _B_RANGE.

    Falls back to a bidiagonal-product construction (always TNN) after
    _MAX_TRIES tries, keeping the stream deterministic either way.
    """
    # rng.uniform draws are finite, and _B_RANGE is positive; n < 2 goes
    # through the constructor for its error
    make = lax.LaxMatrix._trusted if n >= 2 else lax.LaxMatrix
    for _ in range(_MAX_TRIES):
        L = make(n=n, a=rng.uniform(*_A_RANGE, n), b=rng.uniform(*_B_RANGE, n - 1))
        if tnn.is_tnn_tridiagonal(L, tol=0.0).is_tnn:
            return L
    a, b = _bidiagonal_product(rng, n)
    return make(n=n, a=a, b=b)


def _bidiagonal_product(rng, n):
    """Bands of a product of two positive bidiagonal factors: always TNN."""
    c = rng.uniform(0.05, 1.0, n - 1)
    d = rng.uniform(0.1, 2.0, n)
    return d + np.concatenate(([0.0], c)), c * d[:-1]


# ---------------------------------------------------------------------------
# per-sample checks
# ---------------------------------------------------------------------------


def _forward_draw(n, seed, index, spec_lo, spec_hi, coord_range):
    rng = np.random.default_rng([seed, _FORWARD, index])
    spec = sample_spectrum(rng, n, spec_lo, spec_hi)
    return spec, sample_cone_point(rng, n, coord_range)


def _converse_draw(n, seed, index, spec_lo, spec_hi, coord_range):
    """(spectrum, cone point evolved to a random time) for even indices, a
    rejection-sampled TNN matrix for odd ones."""
    rng = np.random.default_rng([seed, _CONVERSE, index])
    if index % 2 == 0:
        spec = sample_spectrum(rng, n, spec_lo, spec_hi)
        point = sample_cone_point(rng, n, coord_range)
        t = float(rng.uniform(-1.5, 1.5))
        return spec, jacobi.evolve_point(point, spec, t)
    return sample_tnn_rejection(rng, n)


def _forward_case(args):
    n, seed, index, tol, spec_lo, spec_hi, coord_range = args
    spec, point = _forward_draw(n, seed, index, spec_lo, spec_hi, coord_range)
    case = {"spectrum": spec.to_json_dict(), "point": point.to_json_dict()}
    try:
        L = jacobi.reconstruct(spec, point)
    except NonGeneralDivisor as exc:
        return index, False, f"reconstruction failed: {exc}", case
    report = tnn.is_tnn_tridiagonal(L, tol=tol)
    if not report.is_tnn:
        case["matrix"] = L.to_json_dict()
        return index, False, f"reconstruction not TNN: {report.to_json_dict()}", case
    return index, True, None, case


def _converse_case(args):
    n, seed, index, tol, spec_lo, spec_hi, coord_range = args
    drawn = _converse_draw(n, seed, index, spec_lo, spec_hi, coord_range)
    L = drawn if isinstance(drawn, lax.LaxMatrix) else jacobi.reconstruct(*drawn)
    case = {"matrix": L.to_json_dict()}
    try:
        image = jacobi.abel_jacobi(L)
    except TodaError as exc:
        return index, False, f"linearization failed: {exc}", case
    _, in_cone = jacobi.sign_component(image)
    if not in_cone:
        case["point"] = image.to_json_dict()
        return index, False, "image not in the alternating cone", case
    return index, True, None, case


# ---------------------------------------------------------------------------
# stacked checks: one chunk of indices per call
# ---------------------------------------------------------------------------


def _uniform(lo, hi, u):
    """``rng.uniform(lo, hi, k)`` from ``u = rng.random(k)``, as numpy forms it."""
    return lo + (hi - lo) * u


def _draw_rows(rngs, width: int) -> np.ndarray:
    """One ``rng.random(width)`` per stream, stacked."""
    out = np.empty((len(rngs), width))
    for rng, row in zip(rngs, out):
        rng.random(out=row)
    return out


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cone_draws(u, n, spec_lo, spec_hi, coord_range):
    """``sample_spectrum`` and ``sample_cone_point`` of every row of draws
    (the first n for the spectrum, the next n for the point): eigenvalue
    and normalized-coordinate stacks, and which rows equal the samplers'
    results.  A row whose spectrum the sampler would draw again, or whose
    point the constructor would reject, does not."""
    lams = np.sort(_uniform(spec_lo, spec_hi, u[:, :n]), axis=1)
    min_gap = max(1e-6 * (spec_hi - spec_lo), lax.DEFAULT_SEPARATION)
    signs = np.array((1,) + jacobi.alternating_signs(n), dtype=float)
    f = np.exp(_uniform(-coord_range, coord_range, u[:, n : 2 * n])) * signs
    f = f / f[:, :1]
    ok = (np.diff(lams, axis=1).min(axis=1) > min_gap) & np.isfinite(f).all(axis=1) & f.all(axis=1)
    return lams, f, ok


def _reconstructed(lams, f, ok):
    """Bands of ``reconstruct`` on the rows where ``ok``, in one tau-kernel
    pass, and which rows stand (drawn, general and in range)."""
    rows, n = lams.shape
    a, b, stands = np.zeros((rows, n)), np.zeros((rows, n - 1)), ok.copy()
    if ok.any():
        grid = jacobi._reconstruct_rows(jacobi.TauKernel(lams[ok], f[ok]).evaluate(0.0))
        a[ok], b[ok] = grid.a, grid.b
        stands[ok] = ~grid.out_of_range & ~grid.nongeneral.any(axis=1)
    return a, b, stands


def _rejection_picks(rngs, n):
    """Bands of ``sample_tnn_rejection(rng, n)`` for each of ``rngs``.

    Each stream draws its tries _TRY_BLOCK at a time, from _A_RANGE and
    _B_RANGE, and one stacked verdict pass decides the tries of every
    stream still drawing; a stream is read past its accepted try.  After
    _MAX_TRIES tries, exactly as many as the sampler reads, the fallback
    construction follows.
    """
    a, b = np.empty((len(rngs), n)), np.empty((len(rngs), n - 1))
    pending = np.arange(len(rngs))
    for tried in range(0, _MAX_TRIES, _TRY_BLOCK):
        if not pending.size:
            break
        k = min(_TRY_BLOCK, _MAX_TRIES - tried)
        u = _draw_rows([rngs[r] for r in pending], k * (2 * n - 1))
        u = u.reshape(pending.size, k, 2 * n - 1)
        try_a, try_b = _uniform(*_A_RANGE, u[:, :, :n]), _uniform(*_B_RANGE, u[:, :, n:])
        good = tnn._tridiagonal_verdicts(try_a.reshape(-1, n), try_b.reshape(-1, n - 1), 0.0)
        good = good.reshape(pending.size, k)
        hit = good.any(axis=1)
        first = good.argmax(axis=1)[hit]
        a[pending[hit]], b[pending[hit]] = try_a[hit, first], try_b[hit, first]
        pending = pending[~hit]
    for r in pending.tolist():
        a[r], b[r] = _bidiagonal_product(rngs[r], n)
    return a, b


def _cone_images(a, b):
    """Whether abel_jacobi of each matrix (bands a, b > 0) lands in the cone.

    One stacked ``eigh`` (spectra and eigenvectors, as in lax.spectrum) and
    one stacked Weyl-residue evaluation, as in abel_jacobi; a row reads True
    only where abel_jacobi returns a point without error: a simple spectrum
    and no numerically zero cofactor value.  For b > 0 that point is in the
    cone: the values are Weyl residues (-1)^(n-1) v_i[0]^2 p'(lambda_i),
    which alternate in sign at ascending eigenvalues (de Boor and Golub,
    Linear Algebra Appl. 21, 1978).
    """
    lams, vecs = np.linalg.eigh(lax._symmetric_tridiagonal(a, np.sqrt(b)))
    vals = lax._weyl_cofactor_values(vecs, lams)
    simple = np.min(np.diff(lams, axis=1), axis=1) > lax.DEFAULT_SEPARATION
    scale = np.max(np.abs(vals), axis=1, keepdims=True)
    return simple & (np.abs(vals) > jacobi.DEFAULT_ZERO_COFACTOR_TOL * scale).all(axis=1)


def _settle(case_fn, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range) -> list:
    """Results of indices lo, lo+1, ...: rows that passed the stack are done;
    the others are decided, with their report entry, by ``case_fn``.  A
    sample out of double range is a configuration error, not a failure."""
    try:
        return [
            (index, True, None, None)
            if ok
            else case_fn((n, seed, index, tol, spec_lo, spec_hi, coord_range))
            for index, ok in enumerate(passed.tolist(), lo)
        ]
    except RangeExceeded as exc:
        raise ValueError(f"sampling ranges too wide: {exc}") from exc


def _forward_chunk(n, seed, lo, hi, tol, spec_lo, spec_hi, coord_range):
    rngs = [np.random.default_rng([seed, _FORWARD, index]) for index in range(lo, hi)]
    u = _draw_rows(rngs, 2 * n)
    a, b, passed = _reconstructed(*_cone_draws(u, n, spec_lo, spec_hi, coord_range))
    passed[passed] = tnn._tridiagonal_verdicts(a[passed], b[passed], tol)
    return _settle(_forward_case, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range)


def _converse_chunk(n, seed, lo, hi, tol, spec_lo, spec_hi, coord_range):
    rngs = [np.random.default_rng([seed, _CONVERSE, index]) for index in range(lo, hi)]
    # rows of even indices evolve cone points; odd ones rejection-sample
    even, odd = slice(lo % 2, None, 2), slice(1 - lo % 2, None, 2)
    u = _draw_rows(rngs[even], 2 * n + 1)
    lams, f, drawn = _cone_draws(u, n, spec_lo, spec_hi, coord_range)
    f, evolved = jacobi._evolved(lams, f, _uniform(-1.5, 1.5, u[:, 2 * n]))
    a, b = np.empty((hi - lo, n)), np.empty((hi - lo, n - 1))
    stands = np.ones(hi - lo, dtype=bool)
    a[even], b[even], stands[even] = _reconstructed(lams, f, drawn & evolved)
    a[odd], b[odd] = _rejection_picks(rngs[odd], n)
    stands &= (b > 0.0).all(axis=1)
    passed = np.zeros(hi - lo, dtype=bool)
    if stands.any():
        passed[stands] = _cone_images(a[stands], b[stands])
    return _settle(_converse_case, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range)


def _pattern_case(n, seed, index, signs):
    """None when the draw reconstructs to a non-TNN matrix, else why not."""
    rng = np.random.default_rng([seed, _PATTERN, index])
    # resample within the stream until the draw is general
    for _ in range(256):
        spec = sample_spectrum(rng, n)
        point = sample_point(rng, n, signs)
        try:
            L = jacobi.reconstruct(spec, point)
        except NonGeneralDivisor:
            continue
        if tnn.is_tnn_tridiagonal(L, tol=DEFAULT_TOL).is_tnn:
            return "non-cone reconstruction is TNN"
        return None
    return "no general draw found for the pattern"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VerificationReport:
    samples: int
    failures: int
    failure_cases: list
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.failures != len(self.failure_cases):
            raise ValueError("failures must equal the number of failure cases")

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "failures": self.failures,
            "failure_cases": self.failure_cases,
            "config": self.config,
        }


def run_verification(
    n: int,
    samples: int,
    seed: int,
    direction: str = "both",
    tol: float = DEFAULT_TOL,
    spec_range=DEFAULT_SPEC_RANGE,
    coord_log_range: float = DEFAULT_COORD_LOG_RANGE,
) -> VerificationReport:
    """Run the sampled checks and aggregate a replayable report.

    Failures always carry the (seed, direction, index) replay key; full
    sampled objects are embedded only while the failure count stays at or
    below _KEEP_CASES_UP_TO (10).  A sample that leaves double range is no
    theorem failure: ValueError("sampling ranges too wide: ...") is raised.
    """
    if not 2 <= n <= 8:
        raise ValueError("n must be between 2 and 8")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if direction not in ("forward", "converse", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    spec_lo, spec_hi = float(spec_range[0]), float(spec_range[1])
    # n uniform draws clear the separation with probability at least 1/4
    if not (0.0 < spec_lo and n * n * lax.DEFAULT_SEPARATION <= spec_hi - spec_lo < math.inf):
        raise ValueError("spectrum range must be positive, finite and n^2 separations wide")
    # coordinates are exp(uniform(-range, range)), and their ratios to the
    # first one, up to exp(2 * range), must be finite
    if not abs(coord_log_range) <= jacobi._LOG_HUGE / 2:
        raise ValueError(f"|coordinate log range| must be at most {jacobi._LOG_HUGE / 2:.2f}")

    runs = []
    if direction in ("forward", "both"):
        runs.append(("forward", _forward_chunk))
    if direction in ("converse", "both"):
        runs.append(("converse", _converse_chunk))

    # a stack holds at most _BLOCK_TERMS tau terms
    height = max(1, jacobi._BLOCK_TERMS >> n)
    total = 0
    failure_cases = []
    for tag, chunk in runs:
        results = itertools.chain.from_iterable(
            chunk(n, seed, lo, min(lo + height, samples), tol, spec_lo, spec_hi, coord_log_range)
            for lo in range(0, samples, height)
        )
        for index, ok, diagnostic, case in results:
            total += 1
            if not ok:
                failure_cases.append(
                    {
                        "direction": tag,
                        "index": index,
                        "replay_key": [seed, _FORWARD if tag == "forward" else _CONVERSE, index],
                        "diagnostic": diagnostic,
                        "case": case,
                    }
                )
    if len(failure_cases) > _KEEP_CASES_UP_TO:
        for entry in failure_cases:
            entry.pop("case", None)

    return VerificationReport(
        samples=total,
        failures=len(failure_cases),
        failure_cases=failure_cases,
        config={
            "n": n,
            "seed": seed,
            "samples_per_direction": samples,
            "direction": direction,
            "tolerance": tol,
            "spectrum_range": [spec_lo, spec_hi],
            "coord_log_range": coord_log_range,
        },
    )


def verify_sign_patterns(n: int, samples_per_pattern: int, seed: int) -> dict:
    """For every non-alternating sign pattern, count non-TNN reconstructions
    of draws at DEFAULT_SPEC_RANGE and DEFAULT_COORD_LOG_RANGE, judged at
    DEFAULT_TOL.

    Returns a mapping pattern-string -> {"samples", "non_tnn", "failures"},
    where failures lists the replayable indices of any TNN hit (there should
    be none).
    """
    cone = jacobi.alternating_signs(n)
    results = {}
    offset = 0
    for bits in itertools.product((1, -1), repeat=n - 1):
        if bits == cone:
            continue
        key = str(jacobi.SignComponent(signs=bits))
        bad = []
        for index in range(offset, offset + samples_per_pattern):
            diagnostic = _pattern_case(n, seed, index, bits)
            if diagnostic is not None:
                bad.append({"index": index, "diagnostic": diagnostic})
        offset += samples_per_pattern
        results[key] = {
            "samples": samples_per_pattern,
            "non_tnn": samples_per_pattern - len(bad),
            "failures": bad,
        }
    return results
