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

    def test_rejection_fallback_is_tnn(self, monkeypatch):
        monkeypatch.setattr(verify, "_A_RANGE", (0.0, 1e-6))
        monkeypatch.setattr(verify, "_MAX_TRIES", 3)
        rng = np.random.default_rng(4)
        L = verify.sample_tnn_rejection(rng, 5)
        assert tnn.is_tnn_tridiagonal(L, tol=1e-15).is_tnn

    @pytest.mark.parametrize(
        "n, lo, hi, min_gap",
        [(3, 1.0, 1.0, None), (2, 0.0, 1.0, 1.0), (5, 0.0, 1.0, 0.25), (3, np.nan, 1.0, None)],
    )
    def test_spectrum_sampler_rejects_gaps_that_cannot_fit(self, n, lo, hi, min_gap):
        # no n draws in [lo, hi) can clear the gap: the sampler would draw forever
        with pytest.raises(ValueError, match=f"^{n} eigenvalues in .* cannot be more than"):
            verify.sample_spectrum(np.random.default_rng(0), n, lo, hi, min_gap)

    def test_spectrum_sampler_gaps_that_fit_return(self):
        s = verify.sample_spectrum(np.random.default_rng(0), 3, 0.0, 1.0, 0.4)
        assert np.all(np.diff(s.lambdas) > 0.4)
        one = verify.sample_spectrum(np.random.default_rng(0), 1, 1.0, 1.0)
        assert one.lambdas.tolist() == [1.0]


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


class TestConverseCone:
    """For b > 0 the cofactor values are Weyl residues whose signs alternate,
    so every image abel_jacobi returns is in the cone, and the stacked
    converse test, which checks only a simple spectrum and nonzero cofactor
    values, passes no row that the per-sample check fails."""

    @staticmethod
    def matrices(n):
        """Bands with a spread over +-50 and b = e^U(-40, 40), and over +-5
        and e^U(-3, 3), then the converse draws of two seeds at coordinate
        range 20."""
        rng = np.random.default_rng([3838, n])
        wide = [
            lax.LaxMatrix(n, rng.uniform(-a, a, n), np.exp(rng.uniform(-b, b, n - 1)))
            for a, b in [(50.0, 40.0)] * 40 + [(5.0, 3.0)] * 40
        ]
        lo, hi = verify.DEFAULT_SPEC_RANGE
        args = [
            (n, seed, i, verify.DEFAULT_TOL, lo, hi, 20.0) for seed in (0, 1) for i in range(16)
        ]
        drawn = [verify._converse_draw(n, seed, i, lo, hi, 20.0) for n, seed, i, *_ in args]
        converse = [d if isinstance(d, lax.LaxMatrix) else jacobi.reconstruct(*d) for d in drawn]
        return wide, converse, args

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_image_is_in_the_cone(self, n):
        wide, converse, _ = self.matrices(n)
        images = 0
        for L in wide + converse:
            try:
                image = jacobi.abel_jacobi(L)
            except TodaError:
                continue
            assert jacobi.sign_component(image)[1], (n, L.a, L.b)
            images += 1
        assert images > 50

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_passes_imply_per_sample_passes(self, n):
        wide, converse, args = self.matrices(n)
        a = np.array([L.a for L in wide + converse])
        b = np.array([L.b for L in wide + converse])
        passed = verify._cone_images(a, b)
        for L, ok in zip(wide, passed[: len(wide)]):
            if ok:
                assert jacobi.sign_component(jacobi.abel_jacobi(L))[1]
        for key, ok in zip(args, passed[len(wide) :]):
            if ok:
                assert verify._converse_case(key)[1], key
        assert 50 < passed.sum() < passed.size


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

    def test_failures_past_the_cap_keep_no_cases(self, monkeypatch):
        kwargs = dict(n=4, samples=40, seed=3, tol=-0.2)
        got = verify.run_verification(**kwargs).to_json_dict()
        monkeypatch.setattr(verify, "_KEEP_CASES_UP_TO", 1000)
        full = verify.run_verification(**kwargs).to_json_dict()
        assert got["failures"] == full["failures"] > 10
        for entry, kept in zip(got["failure_cases"], full["failure_cases"], strict=True):
            assert set(entry) == {"direction", "index", "replay_key", "diagnostic"}
            assert entry == {key: value for key, value in kept.items() if key != "case"}
        assert got == per_sample_report(**kwargs)

    def test_run_with_kept_failure_cases_matches_per_sample_loop(self, monkeypatch):
        monkeypatch.setattr(verify, "_KEEP_CASES_UP_TO", 1000)
        kwargs = dict(n=4, samples=40, seed=3, tol=-0.2)
        seq = verify.run_verification(**kwargs).to_json_dict()
        assert seq["failures"] > 10
        assert seq == per_sample_report(**kwargs, keep_cases_up_to=1000)

    def test_stacked_draws_match_per_sample_draws(self):
        samples = 20
        matched = handed_back = 0
        for n in range(2, 9):
            for seed in range(3):
                for extra in REPORT_CONFIGS + hand_back_configs(n):
                    spec_lo, spec_hi = extra.get("spec_range", verify.DEFAULT_SPEC_RANGE)
                    coord = extra.get("coord_log_range", verify.DEFAULT_COORD_LOG_RANGE)
                    args = (spec_lo, spec_hi, coord)
                    forward = [np.random.default_rng([seed, 0, i]) for i in range(samples)]
                    lams, f, ok = verify._cone_draws(verify._draw_rows(forward, 2 * n), n, *args)
                    for i in range(samples):
                        spec, point = verify._forward_draw(n, seed, i, *args)
                        same = same_draw(spec, point, lams[i], f[i])
                        assert same == ok[i], (n, seed, extra, i)
                        matched += same
                        handed_back += not same
                    converse = [np.random.default_rng([seed, 1, i]) for i in range(0, samples, 2)]
                    u = verify._draw_rows(converse, 2 * n + 1)
                    lams, f, drawn = verify._cone_draws(u, n, *args)
                    w, evolved = jacobi._evolved(lams, f, verify._uniform(-1.5, 1.5, u[:, 2 * n]))
                    for row, i in enumerate(range(0, samples, 2)):
                        spec, point = verify._converse_draw(n, seed, i, *args)
                        same = same_draw(spec, point, lams[row], w[row])
                        assert same == (drawn[row] and evolved[row]), (n, seed, extra, i)
                        matched += same
                        handed_back += not same
                    odd = range(1, samples, 2)
                    streams = [np.random.default_rng([seed, 1, i]) for i in odd]
                    a, b = verify._rejection_picks(streams, n)
                    for row, i in enumerate(odd):
                        L = verify.sample_tnn_rejection(np.random.default_rng([seed, 1, i]), n)
                        assert np.array_equal(L.a, a[row]) and np.array_equal(L.b, b[row])
                        matched += 1
        assert matched > 5000 and handed_back > 300

    def test_rejection_picks_match_sampler_across_blocks_and_fallback(self, monkeypatch):
        """Picks accepted in the first block of tries, in the second, and
        after max_tries (the fallback construction) equal the sampler's."""
        where = {"first block": 0, "second block": 0, "fallback": 0}
        # a diagonal range that accepts 2-8% of the tries
        diagonal_top = {2: 0.5, 3: 0.8, 4: 1.2, 5: 1.6, 6: 1.6, 7: 2.0, 8: 2.0}
        for n in range(2, 9):
            rare = ((0.05, diagonal_top[n]), verify._TRY_BLOCK + 8)
            for a_range, max_tries in (((0.0, 1e-6), 3), rare):
                monkeypatch.setattr(verify, "_A_RANGE", a_range)
                monkeypatch.setattr(verify, "_MAX_TRIES", max_tries)
                keys = [[7, 1, i] for i in range(60)]
                streams = [np.random.default_rng(key) for key in keys]
                a, b = verify._rejection_picks(streams, n)
                for row, key in enumerate(keys):
                    L = verify.sample_tnn_rejection(np.random.default_rng(key), n)
                    assert np.array_equal(L.a, a[row]) and np.array_equal(L.b, b[row])
                    tries = accepted_try(np.random.default_rng(key), n, a_range, max_tries)
                    block = "fallback" if tries is None else (
                        "first block" if tries < verify._TRY_BLOCK else "second block"
                    )
                    where[block] += 1
        assert min(where.values()) > 10, where

    def test_rows_handed_back_inside_a_chunk_match_per_sample_loop(self, monkeypatch):
        """Rows the stack cannot decide (spectrum retries, failures) sit
        between stacked rows; the report still equals the per-sample loop's."""
        handed_back = []

        def recording(fn, tag):
            def wrapper(args):
                handed_back.append((tag, args[2]))
                return fn(args)
            return wrapper

        monkeypatch.setattr(verify, "_forward_case", recording(verify._forward_case, "forward"))
        monkeypatch.setattr(verify, "_converse_case", recording(verify._converse_case, "converse"))
        samples = 20
        inside = with_failures = 0
        for n in range(2, 9):
            for seed in range(16):
                for extra in hand_back_configs(n):
                    kwargs = dict(n=n, samples=samples, seed=seed, **extra)
                    handed_back.clear()
                    got = verify.run_verification(**kwargs).to_json_dict()
                    rows = set(handed_back)
                    inside += any(
                        (tag, i + 1) not in rows and i + 1 < samples for tag, i in rows
                    )
                    want = per_sample_report(**kwargs)
                    same = json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
                    assert same, kwargs
                    with_failures += got["failures"] > 0
        assert inside > 100 and with_failures > 50

    def test_default_run_makes_no_per_sample_calls(self, monkeypatch):
        calls = {"is_tnn_tridiagonal": 0, "sample_tnn_rejection": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(tnn, "is_tnn_tridiagonal")
        counting(verify, "sample_tnn_rejection")
        report = verify.run_verification(n=8, samples=25, seed=1)
        assert report.samples == 50 and report.failures == 0
        assert calls == {"is_tnn_tridiagonal": 0, "sample_tnn_rejection": 0}
        # the per-sample route goes through both spies
        lo, hi = verify.DEFAULT_SPEC_RANGE
        args = (8, 1, 1, verify.DEFAULT_TOL, lo, hi, verify.DEFAULT_COORD_LOG_RANGE)
        verify._forward_case(args)
        verify._converse_case(args)
        assert calls["is_tnn_tridiagonal"] >= 2 and calls["sample_tnn_rejection"] == 1


# the configurations of test_reports_match_per_sample_loop
REPORT_CONFIGS = [
    {},
    {"coord_log_range": 12.0},
    {"coord_log_range": 20.0},
    {"tol": -0.05},
    {"spec_range": (0.5, 2.5), "coord_log_range": 2.0},
]


def hand_back_configs(n):
    """A spectrum range barely n^2 separations wide, which forces spectrum
    retries, and coordinates spread over exp(+-300)."""
    return [
        {"spec_range": (1.0, 1.0 + 1.01 * n * n * lax.DEFAULT_SEPARATION)},
        {"coord_log_range": 300.0},
    ]


def same_draw(spec, point, lams, f):
    return np.array_equal(spec.lambdas, lams) and np.array_equal(point.f, f)


def accepted_try(rng, n, a_range, max_tries):
    """The try sample_tnn_rejection accepts (default b range), or None."""
    for tries in range(max_tries):
        a, b = rng.uniform(*a_range, n), rng.uniform(0.01, 1.0, n - 1)
        if tnn.is_tnn_tridiagonal(lax.LaxMatrix._trusted(n=n, a=a, b=b), tol=0.0).is_tnn:
            return tries
    return None


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
