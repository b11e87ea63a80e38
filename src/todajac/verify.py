"""Randomized verification of the positive-cone characterization.

Forward direction: sample sign-alternating points over positive spectra,
reconstruct, and require the result to pass the tridiagonal TNN test.
Converse direction: sample TNN phase-space matrices (half by evolving cone
constructions to a random time, half by rejection sampling) and require the
linearization to land in the alternating cone.

Every sample draws from its own RNG stream keyed by (seed, direction,
index), so reports are byte-identical however the indices are chunked.
Everything runs in order in the calling process.

Each direction runs on stacks of samples: the forward cone points are
reconstructed by one stacked tau-kernel pass, and the converse matrices are
linearized by one stacked eigvalsh call and one stacked Weyl-residue
evaluation.  A stack holds at most the tau kernel's block of 2^14 terms
(32 samples at n = 8).  Every stacked row equals its single-object call bit
for bit, so a row that does not pass the stack (non-general, out of range,
nonsimple, not TNN, not in the cone, ...) is simply run again through the
per-sample ``_forward_case``/``_converse_case``, which decides it and writes
its report entry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import jacobi, lax, tnn
from .errors import NonGeneralDivisor, TodaError

DEFAULT_SPEC_RANGE = (0.1, 10.0)
DEFAULT_COORD_LOG_RANGE = 3.0
DEFAULT_TOL = 1e-9

_FORWARD = 0
_CONVERSE = 1
_PATTERN = 2


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_spectrum(rng, n, lo=DEFAULT_SPEC_RANGE[0], hi=DEFAULT_SPEC_RANGE[1], min_gap=None):
    """Sorted positive eigenvalues, resampled until gaps clear min_gap."""
    if min_gap is None:
        min_gap = 1e-6 * (hi - lo)
    while True:
        lams = np.sort(rng.uniform(lo, hi, n))
        gap = np.min(np.diff(lams)) if n > 1 else np.inf
        if n == 1 or gap > min_gap:
            # rng.uniform draws are finite, so gaps above the default
            # separation leave nothing to check
            trusted = gap > lax.DEFAULT_SEPARATION
            return (lax.Spectrum._trusted if trusted else lax.Spectrum)(lams)


def sample_point(rng, n, signs, log_range=DEFAULT_COORD_LOG_RANGE):
    """Point with |coordinates| log-uniform and the given tail sign pattern."""
    mags = np.exp(rng.uniform(-log_range, log_range, n))
    f = np.concatenate(([mags[0]], np.asarray(signs, dtype=float) * mags[1:]))
    return jacobi._normalized_point(f)


def sample_cone_point(rng, n, log_range=DEFAULT_COORD_LOG_RANGE):
    return sample_point(rng, n, jacobi.alternating_signs(n), log_range)


def sample_tnn_rejection(
    rng, n, a_range=(0.05, 3.0), b_range=(0.01, 1.0), max_tries=2000
):
    """Rejection-sample a TNN phase-space matrix.

    Falls back to a bidiagonal-product construction (always TNN) if the try
    budget is exhausted, keeping the stream deterministic either way.
    """
    # rng.uniform draws are finite, and a positive b range keeps b nonzero
    make = lax.LaxMatrix._trusted if n >= 2 and b_range[0] > 0.0 else lax.LaxMatrix
    for _ in range(max_tries):
        L = make(n=n, a=rng.uniform(*a_range, n), b=rng.uniform(*b_range, n - 1))
        if tnn.is_tnn_tridiagonal(L, tol=0.0).is_tnn:
            return L
    c = rng.uniform(0.05, 1.0, n - 1)
    d = rng.uniform(0.1, 2.0, n)
    a = d + np.concatenate(([0.0], c))
    return make(n=n, a=a, b=c * d[:-1])


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
    except TodaError as exc:
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


def _draws(draw, n, seed, indices, spec_lo, spec_hi, coord_range) -> list:
    """Draws of ``indices`` in order, up to the first one that raises.

    That index and the ones after it are left to the per-sample route,
    which raises the same error again in sample order.
    """
    out = []
    for index in indices:
        try:
            out.append(draw(n, seed, index, spec_lo, spec_hi, coord_range))
        except (TodaError, ValueError, OverflowError):
            break
    return out


def _stacked_reconstruct(pairs):
    """Bands of reconstruct(spec, point) for (spec, point) pairs, one tau
    kernel pass, and which rows stand (general, in range, finite)."""
    lams = np.array([spec.lambdas for spec, _ in pairs])
    f = np.array([point.f for _, point in pairs])
    grid = jacobi.TauKernel(lams, f).evaluate(0.0)
    rows = jacobi._reconstruct_rows(grid, jacobi.DEFAULT_GENERAL_TOL)
    return rows.a, rows.b, rows.finite & ~rows.out_of_range & ~rows.nongeneral.any(axis=1)


def _cone_images(a, b):
    """Whether abel_jacobi of each matrix (bands a, b > 0) lands in the cone.

    One stacked eigvalsh call for the spectra and one stacked Weyl-residue
    evaluation for the cofactor values, as in abel_jacobi; a row reads True
    only where abel_jacobi returns a cone point without error.
    """
    n = a.shape[1]
    lams = lax.symmetric_tridiagonal_eigenvalues(a, np.sqrt(b))
    vals = lax._weyl_cofactor_values(a, b, lams)
    simple = np.min(np.diff(lams, axis=1), axis=1) > lax.DEFAULT_SEPARATION
    scale = np.max(np.abs(vals), axis=1, keepdims=True)
    general = (np.abs(vals) > jacobi.DEFAULT_ZERO_COFACTOR_TOL * scale).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = vals[:, 1:] / vals[:, :1]
    cone = np.array(jacobi.alternating_signs(n)) > 0
    return simple & general & ((tail > 0.0) == cone).all(axis=1)


def _settle(case_fn, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range) -> list:
    """Results of indices lo, lo+1, ...: rows that passed the stack are done;
    the others are decided, with their report entry, by ``case_fn``."""
    return [
        (index, True, None, None)
        if ok
        else case_fn((n, seed, index, tol, spec_lo, spec_hi, coord_range))
        for index, ok in enumerate(passed.tolist(), lo)
    ]


def _forward_chunk(n, seed, lo, hi, tol, spec_lo, spec_hi, coord_range):
    pairs = _draws(_forward_draw, n, seed, range(lo, hi), spec_lo, spec_hi, coord_range)
    passed = np.zeros(hi - lo, dtype=bool)
    if pairs:
        a, b, stands = _stacked_reconstruct(pairs)
        for r in np.flatnonzero(stands).tolist():
            L = lax.LaxMatrix._trusted(n=n, a=a[r], b=b[r])
            passed[r] = tnn.is_tnn_tridiagonal(L, tol=tol).is_tnn
    return _settle(_forward_case, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range)


def _converse_chunk(n, seed, lo, hi, tol, spec_lo, spec_hi, coord_range):
    draws = _draws(_converse_draw, n, seed, range(lo, hi), spec_lo, spec_hi, coord_range)
    a, b = np.empty((len(draws), n)), np.empty((len(draws), n - 1))
    stands = np.ones(len(draws), dtype=bool)
    evolved = [r for r, d in enumerate(draws) if not isinstance(d, lax.LaxMatrix)]
    if evolved:
        a[evolved], b[evolved], stands[evolved] = _stacked_reconstruct([draws[r] for r in evolved])
    for r, d in enumerate(draws):
        if isinstance(d, lax.LaxMatrix):
            a[r], b[r] = d.a, d.b
    stands &= (b > 0.0).all(axis=1)
    passed = np.zeros(hi - lo, dtype=bool)
    rows = np.flatnonzero(stands)
    if rows.size:
        passed[rows] = _cone_images(a[rows], b[rows])
    return _settle(_converse_case, passed, n, seed, lo, tol, spec_lo, spec_hi, coord_range)


def _pattern_case(n, seed, index, tol, spec_lo, spec_hi, coord_range, signs):
    """None when the draw reconstructs to a non-TNN matrix, else why not."""
    rng = np.random.default_rng([seed, _PATTERN, index])
    # resample within the stream until the draw is general
    for _ in range(256):
        spec = sample_spectrum(rng, n, spec_lo, spec_hi)
        point = sample_point(rng, n, signs, coord_range)
        try:
            L = jacobi.reconstruct(spec, point)
        except NonGeneralDivisor:
            continue
        if tnn.is_tnn_tridiagonal(L, tol=tol).is_tnn:
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
    keep_cases_up_to: int = 10,
) -> VerificationReport:
    """Run the sampled checks and aggregate a replayable report.

    Failures always carry the (seed, direction, index) replay key; full
    sampled objects are embedded only while the failure count stays at or
    below ``keep_cases_up_to``.
    """
    if not 2 <= n <= 8:
        raise ValueError("n must be between 2 and 8")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if direction not in ("forward", "converse", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    spec_lo, spec_hi = float(spec_range[0]), float(spec_range[1])
    if not 0.0 < spec_lo < spec_hi:
        raise ValueError("spectrum range must be positive and increasing")

    runs = []
    if direction in ("forward", "both"):
        runs.append(("forward", _forward_chunk))
    if direction in ("converse", "both"):
        runs.append(("converse", _converse_chunk))

    # a stack holds at most _BLOCK_TERMS tau terms
    height = max(1, jacobi._BLOCK_TERMS >> (n + 1))
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
    if len(failure_cases) > keep_cases_up_to:
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


def verify_sign_patterns(
    n: int,
    samples_per_pattern: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    spec_range=DEFAULT_SPEC_RANGE,
    coord_log_range: float = DEFAULT_COORD_LOG_RANGE,
) -> dict:
    """For every non-alternating sign pattern, count non-TNN reconstructions.

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
            diagnostic = _pattern_case(
                n, seed, index, tol, spec_range[0], spec_range[1], coord_log_range, bits
            )
            if diagnostic is not None:
                bad.append({"index": index, "diagnostic": diagnostic})
        offset += samples_per_pattern
        results[key] = {
            "samples": samples_per_pattern,
            "non_tnn": samples_per_pattern - len(bad),
            "failures": bad,
        }
    return results
