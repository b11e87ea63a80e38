"""Workloads: inputs made from the seed, the timed requests and their oracles.

Each workload is a fixed cycle of request slots.  The run repeats whole
cycles, so every run of a seed sees the same mix and the same inputs, and a
repeated slot must give byte-identical output (reports and CSV files are
compared with the first cycle's).  The first output of each slot is checked
against an independent oracle after the timed loop.

Requests enter where users enter: ``cli.main(argv)`` for commands, and
``flow.detect_blowup`` / ``tnn.is_irreducible_tnn`` directly because they
have no command.  Every call goes through the module attribute at call time,
so the tracer's wrappers see it.

Cycles hold two n = 4 slots for every five n = 8 slots.  With an odd number
of slots the median falls inside one slot's cluster of latencies instead of
on the gap between the n = 4 and n = 8 clusters.  Requests are kept short
where the workload allows it (verify-theorem with few samples per command),
because the harness calibrates each request against the host's speed just
before and after it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from todajac import cli, errors, flow, jacobi, lax, tnn, verify

SIZES = (4, 8, 8, 8, 4, 8, 8)
SPEC_RANGE = (0.5, 2.5)
COORD_LOG_RANGE = 2.0
THEOREM_SAMPLES = 25  # per direction and command
THEOREM_SIZES = SIZES * 3
# Unit windows inside |t| <= 1 and eigenvalue gaps of at least SIM_MIN_GAP:
# there the closed forms (tau and Symes) keep the 1e-8 agreement the oracle
# asks for.  Past |t| ~ 2, or with clustered eigenvalues, they miss it; both
# cases are counted by the sim_symes defect streams.
SIM_WINDOW = 1.0
SIM_MIN_GAP = 0.05
CLUSTER_WIDTH = 0.01
CLUSTER_REQUESTS = 12
# Sample intervals per unit window.  Symes requests use fewer samples than
# tau requests so that a run holds enough of them for a steady median.
SIM_INTERVALS = {"tau": 100, "symes": 20, "rk4": 10}
RK4_DT = 1e-3
SCAN_T = 10.0
SCAN_GRID = 1000
SCAN_KINDS = (
    ("cone", 4), ("cone", 8), ("noncone", 8), ("cone", 8),
    ("noncone", 4), ("noncone", 8), ("cone", 8),
)
AUDIT_BATCHES = 5
AUDIT_SIZES = (4, 5, 6, 7, 8)
AUDIT_MODES = ("exhaustive", "tridiagonal", "interlacing")
LONG_HORIZON_REQUESTS = 20
# Default-range spectra on windows [0, T], T <= WIDE_WINDOW: the
# range the timed inputs avoid, counted by the sim_symes defect stream.
WIDE_WINDOW = 10.0
WIDE_REQUESTS = 12
DEFECT_METRICS = (
    "flow.trajectory.false_blowups",
    "flow.trajectory.clustered_disagreements",
    "flow.trajectory.symes_wide_range_misses",
)

# Input families: the three simulate workloads share theirs, so their
# requests run on the same matrices.
FAMILY = {"theorem": 1, "sim_tau": 2, "sim_symes": 2, "sim_rk4": 2, "scan": 3, "tnn_audit": 4}
NAMES = tuple(FAMILY)


@dataclass
class Slot:
    """One request of the cycle.

    ``call`` is the timed request; ``observe`` turns its return value into
    something comparable (it runs outside the timed region); ``work`` is the
    number of units of work one request does (sampled cases for theorem);
    ``outputs`` are the files the request writes and ``observe`` reads.
    """

    label: str
    call: Callable[[], object]
    observe: Callable[[object], object]
    work: int = 1
    outputs: tuple = ()


@dataclass
class Plan:
    slots: list
    warm: Callable[[], None]
    validate: Callable[[int, object], Optional[str]]
    work_unit: str = "requests"
    # metric name -> untimed stream returning (wrong answers, requests)
    defects: dict = field(default_factory=dict)


class _Discard(io.TextIOBase):
    """Sink for the notes commands write to stderr during the timed loop."""

    def write(self, text):
        return len(text)


def quiet():
    return contextlib.redirect_stderr(_Discard())


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _cone_matrix(rng, n, min_gap=None):
    spec = verify.sample_spectrum(rng, n, *SPEC_RANGE, min_gap=min_gap)
    point = verify.sample_cone_point(rng, n, COORD_LOG_RANGE)
    return jacobi.reconstruct(spec, point)


def _noncone_signs(rng, n):
    cone = jacobi.alternating_signs(n)
    while True:
        signs = tuple(float(s) for s in rng.choice([-1.0, 1.0], n - 1))
        if signs != cone:
            return signs


def _noncone_matrix(rng, n):
    while True:
        spec = verify.sample_spectrum(rng, n, *SPEC_RANGE)
        point = verify.sample_point(rng, n, _noncone_signs(rng, n), COORD_LOG_RANGE)
        try:
            return jacobi.reconstruct(spec, point)
        except errors.NonGeneralDivisor:
            continue


def rng_for(name: str, seed: int, stream: int = 0):
    return np.random.default_rng([seed, FAMILY[name], stream])


# ---------------------------------------------------------------------------
# theorem: verify-theorem --direction both
# ---------------------------------------------------------------------------


def theorem(seed: int, work: Path) -> Plan:
    rng = rng_for("theorem", seed)
    slots = []
    for i, n in enumerate(THEOREM_SIZES):
        out = work / f"theorem-{i}.json"
        argv = [
            "verify-theorem", "--n", str(n), "--samples", str(THEOREM_SAMPLES),
            "--seed", str(int(rng.integers(2**31))), "--direction", "both", "--out", str(out),
        ]
        slots.append(
            Slot(f"n{n}", lambda argv=argv: cli.main(argv),
                 lambda code, out=out: (code, out.read_bytes()), work=2 * THEOREM_SAMPLES, outputs=(out,))
        )

    def validate(_i, observation):
        code, raw = observation
        report = json.loads(raw)
        if code != 0 or report["failures"] != 0:
            return f"exit {code}, {report['failures']} failures"
        if report["samples"] != 2 * THEOREM_SAMPLES:
            return f"{report['samples']} samples, expected {2 * THEOREM_SAMPLES}"
        return None

    def warm():
        cli.main(["verify-theorem", "--n", "4", "--samples", "2", "--out", str(work / "warm.json")])

    return Plan(slots, warm, validate, work_unit="cases")


# ---------------------------------------------------------------------------
# simulate: one workload per method, on shared cone matrices
# ---------------------------------------------------------------------------


def _parse_csv(raw: bytes):
    lines = raw.decode().strip().split("\n")
    if any(line.startswith("#") for line in lines):
        return None
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return rows


def _states_to_rows(traj):
    return np.array([[t, *s.a, *s.b] for t, s in zip(traj.times, traj.states)])


# Oracle per method: the independent solver to compare with, rtol, atol
# (the tolerances of the three-way agreement test in tests/test_flow.py).
REFERENCE = {"tau": ("symes", 1e-8, 1e-10), "symes": ("tau", 1e-8, 1e-10), "rk4": ("tau", 1e-6, 1e-8)}


def _simulate(method: str, seed: int, work: Path) -> Plan:
    rng = rng_for("sim_tau", seed)
    inputs = []
    for i, n in enumerate(SIZES):
        L = _cone_matrix(rng, n, min_gap=SIM_MIN_GAP)
        t0 = float(rng.uniform(-SIM_WINDOW, 0.0))
        inputs.append((L, t0, t0 + 1.0, _write_json(work / f"matrix-{i}.json", L.to_json_dict())))
    dt = 1.0 / SIM_INTERVALS[method]

    def argv_for(path, t0, t1, step, out):
        return [
            "simulate", "--matrix", path, "--t0", repr(t0), "--t1", repr(t1), "--dt", repr(step),
            "--method", method, "--rk4-dt", repr(RK4_DT), "--out", str(out),
        ]

    slots = []
    for i, (L, t0, t1, path) in enumerate(inputs):
        out = work / f"sim-{i}.csv"
        argv = argv_for(path, t0, t1, dt, out)
        slots.append(
            Slot(f"n{L.n}", lambda argv=argv: cli.main(argv), lambda code, out=out: (code, out.read_bytes()),
                 outputs=(out,))
        )

    def validate(i, observation):
        code, raw = observation
        L, t0, t1, _ = inputs[i]
        rows = _parse_csv(raw)
        if code != 0 or rows is None:
            return f"exit {code}: blowup reported on a cone matrix"
        ref_method, rtol, atol = REFERENCE[method]
        ref = flow.trajectory(L, t0, t1, dt, ref_method)
        if ref.blowup is not None:
            return f"reference {ref_method} run reports blowup at {ref.blowup!r}"
        ref_rows = _states_to_rows(ref)
        if rows.shape != ref_rows.shape or not np.array_equal(rows[:, 0], ref_rows[:, 0]):
            return f"sample times differ: {rows.shape} vs {ref_rows.shape}"
        tau_rows, other = (rows, ref_rows) if method == "tau" else (ref_rows, rows)
        if not np.allclose(tau_rows[:, 1:], other[:, 1:], rtol=rtol, atol=atol):
            worst = np.max(np.abs(tau_rows[:, 1:] - other[:, 1:]) / (atol + rtol * np.abs(other[:, 1:])))
            return f"{method} and {ref_method} differ ({worst:.2f} x tolerance)"
        for row in rows:
            state = lax.LaxMatrix(n=L.n, a=row[1 : L.n + 1], b=row[L.n + 1 :])
            if not tnn.is_tnn_tridiagonal(state, tol=1e-10).is_tnn:
                return f"state at t={row[0]!r} is not TNN"
        return None

    def warm():
        L, t0, _, path = inputs[0]
        cli.main(argv_for(path, t0, t0 + 2 * dt, dt, work / "warm.csv"))

    defects = {}
    if method == "tau":
        defects["flow.trajectory.false_blowups"] = _long_horizon(seed, work)
    if method == "symes":
        defects["flow.trajectory.clustered_disagreements"] = _clustered(seed)
        defects["flow.trajectory.symes_wide_range_misses"] = _wide_range(seed)
    return Plan(slots, warm, validate, defects=defects)


def _agree(tau_traj, other, rtol, atol) -> bool:
    return (
        tau_traj.blowup is None
        and other.blowup is None
        and np.allclose(_states_to_rows(tau_traj), _states_to_rows(other), rtol=rtol, atol=atol)
    )


def _clustered(seed: int):
    """Cone matrices, n = 8, with four eigenvalues inside CLUSTER_WIDTH.

    Tau and Symes runs of these should agree like any other; they miss the
    oracle's tolerance instead.  Counted outside the timed loop.
    """
    rng = rng_for("sim_tau", seed, stream=2)
    cases = []
    for _ in range(CLUSTER_REQUESTS):
        while True:
            lams = np.sort(rng.uniform(*SPEC_RANGE, 8))
            lams[2:6] = np.sort(rng.uniform(1.0, 2.0) + rng.uniform(0.0, CLUSTER_WIDTH, 4))
            lams = np.sort(lams)
            if np.min(np.diff(lams)) > lax.DEFAULT_SEPARATION:
                break
        spec = lax.Spectrum(lams)
        L = jacobi.reconstruct(spec, verify.sample_cone_point(rng, 8, COORD_LOG_RANGE))
        t0 = float(rng.uniform(-SIM_WINDOW, 0.0))
        cases.append((L, t0, t0 + 1.0))
    return _tau_symes_misses(cases)


def _wide_range(seed: int):
    """Cone matrices, n = 4 and 8, with eigenvalues in the library's default
    range verify.DEFAULT_SPEC_RANGE, on windows [0, T] with T up to WIDE_WINDOW.

    Tau and Symes runs of these should agree like the timed ones; Symes
    misses the oracle's tolerance or stops with a false blowup instead.
    Counted outside the timed loop.
    """
    rng = rng_for("sim_tau", seed, stream=3)
    cases = []
    for i in range(WIDE_REQUESTS):
        n = 4 if i % 2 == 0 else 8
        spec = verify.sample_spectrum(rng, n, *verify.DEFAULT_SPEC_RANGE, min_gap=SIM_MIN_GAP)
        L = jacobi.reconstruct(spec, verify.sample_cone_point(rng, n, COORD_LOG_RANGE))
        cases.append((L, 0.0, float(rng.uniform(1.0, WIDE_WINDOW))))
    return _tau_symes_misses(cases)


def _tau_symes_misses(cases):
    """Untimed stream: (tau/Symes disagreements, runs) over (L, t0, t1) cases."""
    _, rtol, atol = REFERENCE["symes"]

    def run():
        wrong = 0
        for L, t0, t1 in cases:
            step = (t1 - t0) / SIM_INTERVALS["symes"]
            tau_traj = flow.trajectory(L, t0, t1, step, "tau")
            wrong += not _agree(tau_traj, flow.trajectory(L, t0, t1, step, "symes"), rtol, atol)
        return wrong, len(cases)

    return run


def _long_horizon(seed: int, work: Path):
    """Long-horizon cone requests of the LaxMatrix(4, a=[1,3,5,8], b=.5) family.

    Every matrix is TNN, so a reported blowup (exit 3) is false.  These
    requests run outside the timed loop and count only as false blowups.
    """
    rng = rng_for("sim_tau", seed, stream=1)
    requests = []
    for i in range(LONG_HORIZON_REQUESTS):
        n = 4 if i % 2 == 0 else 8
        while True:
            L = lax.LaxMatrix(n=n, a=np.sort(rng.uniform(1.0, 8.0, n)), b=np.full(n - 1, 0.5))
            if tnn.is_tnn_tridiagonal(L).is_tnn:
                break
        t1 = float(rng.uniform(100.0, 200.0))
        path = _write_json(work / f"long-{i}.json", L.to_json_dict())
        requests.append([
            "simulate", "--matrix", path, "--t0", "0", "--t1", repr(t1), "--dt", repr(t1 / 20),
            "--method", "tau", "--out", str(work / "long.csv"),
        ])

    def run():
        with quiet():
            return sum(cli.main(argv) == cli.EXIT_BLOWUP for argv in requests), len(requests)

    return run


# ---------------------------------------------------------------------------
# scan: detect_blowup on a 1000-point grid
# ---------------------------------------------------------------------------


def _signs_at(spec, point, t):
    return jacobi.tau_sequence(spec, jacobi.evolve_point(point, spec, t)).sign_tau


def scan(seed: int, work: Path) -> Plan:
    rng = rng_for("scan", seed)
    inputs = []
    for kind, n in SCAN_KINDS:
        while True:
            spec = verify.sample_spectrum(rng, n, *SPEC_RANGE)
            if kind == "cone":
                point = verify.sample_cone_point(rng, n, COORD_LOG_RANGE)
                break
            point = verify.sample_point(rng, n, _noncone_signs(rng, n), COORD_LOG_RANGE)
            # keep points where some tau changes sign inside the window
            if np.any(_signs_at(spec, point, -SCAN_T) != _signs_at(spec, point, SCAN_T)):
                break
        inputs.append((kind, spec, point))

    slots = [
        Slot(f"{kind}-n{spec.n}",
             lambda spec=spec, point=point: flow.detect_blowup(spec, point, -SCAN_T, SCAN_T, grid=SCAN_GRID),
             lambda root: root)
        for kind, spec, point in inputs
    ]

    def validate(i, root):
        kind, spec, point = inputs[i]
        if kind == "cone":
            return None if root is None else f"blowup at {root!r} reported on a cone point"
        if root is None or not -SCAN_T < root < SCAN_T:
            return f"no root in the window, got {root!r}"
        delta = 1e-7
        if not np.any(_signs_at(spec, point, root - delta) * _signs_at(spec, point, root + delta) < 0):
            return f"no tau value changes sign at {root!r}"
        return None

    def warm():
        _, spec, point = inputs[0]
        flow.detect_blowup(spec, point, -SCAN_T, SCAN_T, grid=10)

    return Plan(slots, warm, validate)


# ---------------------------------------------------------------------------
# tnn_audit: check-tnn in all three modes plus is_irreducible_tnn
# ---------------------------------------------------------------------------


def _audit(matrices, work: Path, tag: str):
    """Timed part of one audit request: every route on every matrix."""
    results = []
    for j, (L, path) in enumerate(matrices):
        codes = tuple(
            cli.main(["check-tnn", "--matrix", path, "--mode", mode, "--out", str(work / f"{tag}-{j}-{mode}.json")])
            for mode in AUDIT_MODES
        )
        try:
            irreducible = tnn.is_irreducible_tnn(L)
        except errors.NotTnn:
            irreducible = "NotTnn"
        results.append((codes, irreducible))
    return results


def tnn_audit(seed: int, work: Path) -> Plan:
    rng = rng_for("tnn_audit", seed)
    batches = []
    for b in range(AUDIT_BATCHES):
        batch = []
        for n in AUDIT_SIZES:
            for is_tnn in (True, False):
                L = _cone_matrix(rng, n) if is_tnn else _noncone_matrix(rng, n)
                batch.append((L, _write_json(work / f"audit-{b}-{len(batch)}.json", L.to_json_dict())))
        batches.append(batch)

    def reports_of(b):
        return tuple(
            tuple(work / f"audit{b}-{j}-{mode}.json" for mode in AUDIT_MODES) for j in range(len(batches[b]))
        )

    def observe_for(b):
        def observe(results):
            return results, tuple(tuple(p.read_bytes() for p in paths) for paths in reports_of(b))
        return observe

    slots = [
        Slot("batch", lambda b=b: _audit(batches[b], work, f"audit{b}"), observe_for(b), work=len(batches[b]),
             outputs=tuple(p for paths in reports_of(b) for p in paths))
        for b in range(AUDIT_BATCHES)
    ]

    def validate(b, observation):
        results, reports = observation
        for j, ((codes, irreducible), raw) in enumerate(zip(results, reports)):
            expect_tnn = j % 2 == 0
            verdicts = [json.loads(r)["is_tnn"] for r in raw]
            if verdicts != [expect_tnn] * 3 or codes != ((0,) * 3 if expect_tnn else (2,) * 3):
                return f"matrix {j}: verdicts {verdicts}, exit codes {codes}, built TNN={expect_tnn}"
            if expect_tnn and irreducible[0] is not True:
                return f"matrix {j}: no totally positive power found ({irreducible})"
            if not expect_tnn and irreducible != "NotTnn":
                return f"matrix {j}: irreducibility check accepted a non-TNN matrix"
        return None

    def warm():
        _audit(batches[0][:1], work, "warm")

    return Plan(slots, warm, validate, work_unit="matrices")


BUILDERS = {
    "theorem": theorem,
    "sim_tau": partial(_simulate, "tau"),
    "sim_symes": partial(_simulate, "symes"),
    "sim_rk4": partial(_simulate, "rk4"),
    "scan": scan,
    "tnn_audit": tnn_audit,
}


def build(name: str, seed: int, work: Path) -> Plan:
    return BUILDERS[name](seed, work)

