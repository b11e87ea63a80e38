"""Tests for the randomized verification engine."""

import json

import numpy as np
import pytest

from todajac import jacobi, lax, tnn, verify
from todajac.errors import TodaError


class TestSamplers:
    def test_spectrum_sampler(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = verify.sample_spectrum(rng, 5, lo=0.1, hi=10.0)
            assert s.positive
            assert np.all(np.diff(s.lambdas) > 0)
            assert np.all((s.lambdas > 0.1) & (s.lambdas < 10.0))

    def test_narrow_spectrum_sampler_clears_separation(self):
        # 1e-6 * (hi - lo) is below the separation: the separation is the floor
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = verify.sample_spectrum(rng, 8, lo=1.0, hi=1.0000001)
            assert np.min(np.diff(s.lambdas)) > lax.DEFAULT_SEPARATION

    def test_cone_point_sampler(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            P = verify.sample_cone_point(rng, 4)
            _, cone = jacobi.sign_component(P)
            assert cone
            assert np.all(np.abs(np.log(np.abs(P.f[1:]))) < 2 * verify.DEFAULT_COORD_LOG_RANGE + 1e-9)

    def test_rejection_sampler_yields_tnn(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 6):
            L = verify.sample_tnn_rejection(rng, n)
            assert tnn.is_tnn_tridiagonal(L, tol=0.0).is_tnn

    def test_rejection_fallback_is_tnn(self):
        rng = np.random.default_rng(4)
        L = verify.sample_tnn_rejection(rng, 5, a_range=(0.0, 1e-6), max_tries=3)
        assert tnn.is_tnn_tridiagonal(L, tol=1e-15).is_tnn


class TestRunVerification:
    def test_small_forward_run(self):
        rep = verify.run_verification(n=2, samples=10, seed=1, direction="forward")
        assert rep.samples == 10 and rep.failures == 0
        assert rep.failure_cases == []
        assert rep.config["direction"] == "forward"

    def test_both_directions_counts(self):
        rep = verify.run_verification(n=3, samples=25, seed=11, direction="both")
        assert rep.samples == 50 and rep.failures == 0

    def test_zero_samples(self):
        rep = verify.run_verification(n=4, samples=0, seed=5, direction="both")
        assert rep.samples == 0 and rep.failures == 0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            verify.run_verification(n=9, samples=1, seed=0)
        with pytest.raises(ValueError):
            verify.run_verification(n=4, samples=-1, seed=0)
        with pytest.raises(ValueError):
            verify.run_verification(n=4, samples=1, seed=0, direction="sideways")

    def test_seeded_determinism(self):
        a = verify.run_verification(n=3, samples=30, seed=42).to_json_dict()
        b = verify.run_verification(n=3, samples=30, seed=42).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_invariant(self):
        with pytest.raises(ValueError):
            verify.VerificationReport(samples=1, failures=1, failure_cases=[])


class TestSignPatterns:
    def test_all_noncone_patterns_fail_tnn(self):
        out = verify.verify_sign_patterns(3, samples_per_pattern=15, seed=21)
        assert set(out) == {"++", "+-", "--"}
        for stats in out.values():
            assert stats["non_tnn"] == stats["samples"] == 15
            assert stats["failures"] == []

    def test_pattern_count(self):
        out = verify.verify_sign_patterns(4, samples_per_pattern=5, seed=2)
        assert len(out) == 2 ** 3 - 1


# ---------------------------------------------------------------------------
# stacked route
# ---------------------------------------------------------------------------


def stacked_corpus(rng, n, rows, log_range):
    """Sorted spectra and f[0] = 1 points, half cone and half sign-mixed,
    as views at a random offset into a larger array (so every stack starts
    at a different memory alignment), every other one strided."""
    offset = int(rng.integers(0, 7))
    step = 1 + int(rng.integers(0, 2))
    total = offset + step * rows
    lams = np.empty((total, n))
    for r in range(total):
        lams[r] = verify.sample_spectrum(rng, n, 0.1, 10.0).lambdas
    f = np.exp(rng.uniform(-log_range, log_range, (total, n)))
    f[:, 0] = 1.0
    f[: total // 2, 1:] *= jacobi.alternating_signs(n)
    f[total // 2 :, 1:] *= rng.choice([-1.0, 1.0], (total - total // 2, n - 1))
    if n == 2:
        f[-1] = 1.0  # tau[1] vanishes for every spectrum
    return lams[offset::step], f[offset::step]


def single_reconstruction(spec, point, t):
    """reconstruct_along's matrix at t, or None where it stops or raises."""
    try:
        a, b, error = jacobi.reconstruct_along(spec, point, t)
    except (TodaError, ValueError):
        return None
    return None if error is not None else lax.LaxMatrix(n=a.shape[1], a=a[0], b=b[0])


class TestStackedRoute:
    """Every stacked row equals the single-object call bit for bit."""

    def test_rows_match_single_object_calls(self):
        rng = np.random.default_rng(7070)
        heights = iter(range(1, 65, 3))
        checked = {"tau": 0, "matrix": 0, "nonstanding": 0, "eigen": 0}
        for n in range(2, 9):
            # row s at time times[s]: far times put entries out of double range
            for log_range, horizon in ((1.0, 0.0), (8.0, 0.0), (20.0, 0.0), (3.0, 300.0)):
                rows = next(heights, int(rng.integers(1, 65)))
                lams, f = stacked_corpus(rng, n, rows, log_range)
                times = rng.uniform(-horizon, horizon, rows)
                grid = jacobi.TauKernel(lams, f).evaluate(times)
                stack = jacobi._reconstruct_rows(grid)
                standing = ~stack.out_of_range & ~stack.nongeneral.any(axis=1)
                for r in range(rows):
                    spec = lax.Spectrum(lams[r])
                    point = jacobi.JacobiPoint.from_raw(f[r])
                    single = jacobi.TauKernel(spec, point).evaluate(times[r])
                    for many, one in zip(grid, single):
                        np.testing.assert_array_equal(many[r], one[0])
                    checked["tau"] += 1
                    L = single_reconstruction(spec, point, times[r])
                    assert (L is not None) == standing[r]
                    if L is None:
                        checked["nonstanding"] += 1
                        continue
                    np.testing.assert_array_equal(L.a, stack.a[r])
                    np.testing.assert_array_equal(L.b, stack.b[r])
                    checked["matrix"] += 1
                # spectra and cofactor values of the positive-b matrices,
                # stacked as views at an offset
                keep = np.flatnonzero(standing & (stack.b > 0.0).all(axis=1))
                if keep.size == 0:
                    continue
                shift = int(rng.integers(1, 5))
                a = np.concatenate([np.ones((shift, n)), stack.a[keep]])[shift:]
                b = np.concatenate([np.ones((shift, n - 1)), stack.b[keep]])[shift:]
                eig, vecs = np.linalg.eigh(lax._symmetric_tridiagonal(a, np.sqrt(b)))
                vals = lax._weyl_cofactor_values(vecs, eig)
                for row, r in enumerate(keep):
                    L = lax.LaxMatrix(n=n, a=stack.a[r], b=stack.b[r])
                    one, one_vecs = np.linalg.eigh(lax._symmetric_tridiagonal(L.a, np.sqrt(L.b)))
                    np.testing.assert_array_equal(one, eig[row])
                    np.testing.assert_array_equal(
                        lax._weyl_cofactor_values(one_vecs, one), vals[row]
                    )
                    try:
                        image = jacobi.abel_jacobi(L)
                    except TodaError:
                        continue
                    np.testing.assert_array_equal(image.f, vals[row] / vals[row, 0])
                    checked["eigen"] += 1
        assert checked["tau"] > 700 and checked["matrix"] > 300
        assert checked["nonstanding"] > 30 and checked["eigen"] > 250

    def test_reports_match_per_sample_loop(self):
        configs = [
            {},
            {"coord_log_range": 12.0},
            {"coord_log_range": 20.0},
            {"tol": -0.05},
            {"spec_range": (0.5, 2.5), "coord_log_range": 2.0},
        ]
        failures = 0
        for n in range(2, 9):
            for seed in range(3):
                for extra in configs:
                    kwargs = dict(n=n, samples=20, seed=seed, **extra)
                    got = verify.run_verification(**kwargs).to_json_dict()
                    want = per_sample_report(**kwargs)
                    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), kwargs
                    failures += got["failures"]
        assert failures > 150

    def test_run_with_kept_failure_cases_matches_per_sample_loop(self):
        kwargs = dict(n=4, samples=40, seed=3, tol=-0.2, keep_cases_up_to=1000)
        seq = verify.run_verification(**kwargs).to_json_dict()
        assert seq["failures"] > 10
        assert seq == per_sample_report(**kwargs)


def per_sample_report(
    n, samples, seed, direction="both", tol=verify.DEFAULT_TOL,
    spec_range=verify.DEFAULT_SPEC_RANGE, coord_log_range=verify.DEFAULT_COORD_LOG_RANGE,
    keep_cases_up_to=10,
):
    """The per-sample sequential loop: every index through _forward_case or
    _converse_case, in order."""
    spec_lo, spec_hi = float(spec_range[0]), float(spec_range[1])
    runs = []
    if direction in ("forward", "both"):
        runs.append(("forward", 0, verify._forward_case))
    if direction in ("converse", "both"):
        runs.append(("converse", 1, verify._converse_case))
    total = 0
    failure_cases = []
    for tag, key, fn in runs:
        for i in range(samples):
            index, ok, diagnostic, case = fn((n, seed, i, tol, spec_lo, spec_hi, coord_log_range))
            total += 1
            if not ok:
                failure_cases.append({
                    "direction": tag,
                    "index": index,
                    "replay_key": [seed, key, index],
                    "diagnostic": diagnostic,
                    "case": case,
                })
    if len(failure_cases) > keep_cases_up_to:
        for entry in failure_cases:
            entry.pop("case", None)
    return {
        "samples": total,
        "failures": len(failure_cases),
        "failure_cases": failure_cases,
        "config": {
            "n": n,
            "seed": seed,
            "samples_per_direction": samples,
            "direction": direction,
            "tolerance": tol,
            "spectrum_range": [spec_lo, spec_hi],
            "coord_log_range": coord_log_range,
        },
    }
