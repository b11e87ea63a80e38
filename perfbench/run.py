"""Benchmark for todajac.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from
``src/``.  One client sends requests in a closed loop (the next request
starts when the previous one returns), sequentially and without a process
pool.  The run repeats whole cycles of the workload's requests until
``--seconds`` have passed and at least MIN_REQUESTS requests were made, then
checks every distinct output against an independent oracle.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Calibrated time.  The speed of a shared host drifts: on a 2-vCPU VM the same
request took anywhere from 50 to 90 ms, in phases from under a second to
tens of seconds long.  So a fixed calibration kernel (small numpy and
interpreter work, no todajac code) runs every CAL_PERIOD_S on a timer
signal, also in the middle of requests.  Each request's time, less the
kernel runs inside it, is scaled by CAL_NOMINAL_S over the mean kernel time
around it.  A calibrated millisecond is a millisecond on a host where the
kernel takes exactly CAL_NOMINAL_S.  On that VM, scaling cut the spread of
one request's time from about 15% to 5%.  Raw times are printed next to the
calibrated ones.

``--trace 0`` reports the end-to-end metrics, all calibrated:

* ``setup_s``: median over SETUP_PROBES fresh interpreters of the time from
  start to ready (import, input generation, warm-up);
* ``cal_ops_per_s``: requests per second of request time;
* ``cal_p50_ms``: median request latency.

``--trace 1`` wraps the library's public functions (see ``tracing.py``),
alternates traced and untraced cycles of the same loop, and reports
per-layer calls, self time (raw seconds) and errors per traced request,
derived counts, and the tracing overhead: median traced minus median
untraced cycle time.  Spans are written to
``perfbench/_work/spans-<workload>-<seed>.csv``.

The lines before the last one describe the run: machine stamp, per-class
sample counts and percentiles, and the known defects counted by untimed
streams outside the loop: false blowups on long-horizon cone runs
(``sim_tau``) and tau/Symes disagreement on clustered spectra
(``sim_symes``).  These do not count as failed requests.
"""

from __future__ import annotations

import os

# Matrices are at most 8x8: extra BLAS threads only add noise.  A process
# pool would also escape the tracer, so TODA_WORKERS stays unset.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("TODA_WORKERS", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_REQUESTS = 20  # a median needs at least ten samples beyond it
MIN_CYCLES = 2  # a traced run needs a traced and an untraced cycle
CAL_NOMINAL_S = 2.5e-4
CAL_PERIOD_S = 0.025
CAL_REPEATS = 5  # kernel runs around each setup probe


_CAL_X = np.linspace(0.5, 2.5, 8)
_CAL_MASKS = ((np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1).astype(float)
_CAL_BLOCKS = np.random.default_rng(0).uniform(size=(16, 5, 5))


def calibration_kernel() -> float:
    """Fixed work of the kinds the library does, with no todajac code.

    An interpreter loop over 8-element ufuncs, 256 x 8 subset sums with
    einsum and exp, and batched 5 x 5 determinants: each part tracked the
    host's speed drift in a different workload, their sum tracked it best.
    """
    acc = 0.0
    for k in range(40):
        y = np.sqrt(_CAL_X * _CAL_X + k)
        acc += float(y[k % 8])
    gaps = np.log(np.abs(_CAL_X[None, :] - _CAL_X[:, None]) + np.eye(8))
    pairs = 0.5 * np.einsum("mi,ij,mj->m", _CAL_MASKS, gaps, _CAL_MASKS)
    for k in range(2):
        logs = _CAL_MASKS @ np.log(_CAL_X + k) + pairs
        acc += float(np.sum(np.exp(logs - np.max(logs))))
    for k in range(4):
        acc += float(np.sum(np.linalg.det(_CAL_BLOCKS + k)))
    return acc


def kernel_time() -> float:
    """Median time of CAL_REPEATS calibration kernel runs."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_library():
    """Import todajac from this checkout's src/ or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import todajac

    if not Path(todajac.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"todajac imported from {todajac.__file__}, not from {src}")


def stamp() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def setup(workloads, name: str, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    plan = workloads.build(name, seed, work)
    with workloads.quiet():
        plan.warm()
    return plan


def measure_setup(name: str, seed: int) -> list:
    """(raw, calibrated) start-to-ready seconds of fresh --setup-only interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = kernel_time()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        kernel = 0.5 * (before + kernel_time())
        samples.append((elapsed, elapsed * CAL_NOMINAL_S / kernel))
    return samples


class SpeedSampler:
    """Runs the calibration kernel every CAL_PERIOD_S of wall time.

    A SIGALRM handler runs between bytecodes of the main thread, so samples
    fall inside requests too; the harness subtracts their time from the
    request they interrupted.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        calibration_kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, start: float, end: float) -> tuple:
        """(request time without sampling, calibrated time) of a request."""
        inside = slice(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))
        near = slice(
            bisect.bisect_left(self.starts, start - CAL_PERIOD_S),
            bisect.bisect_left(self.starts, end + CAL_PERIOD_S),
        )
        own = end - start - sum(self.durations[inside])
        kernels = self.durations[near]
        if not kernels:
            raise RuntimeError("no calibration sample near a request")
        return own, own * CAL_NOMINAL_S / statistics.fmean(kernels)


class Loop:
    """Closed-loop request runner over whole cycles of a plan's slots."""

    def __init__(self, plan):
        self.plan = plan
        self.requests = []  # (slot index, start, end, problem or None)
        self.first = {}  # slot index -> first observation

    def cycle(self, tracer=None) -> float:
        spent = 0.0
        for i, slot in enumerate(self.plan.slots):
            if tracer is not None:
                tracer.request = len(self.requests)
            for path in slot.outputs:  # so a failed request cannot leave a stale file behind
                path.unlink(missing_ok=True)
            problem = None
            start = time.perf_counter()
            try:
                result = slot.call()
            except Exception as exc:  # a failed request is counted; the run goes on
                problem = f"raised {exc!r}"
            end = time.perf_counter()
            spent += end - start
            if problem is None:
                try:
                    observation = slot.observe(result)
                except Exception as exc:
                    problem = f"output unreadable: {exc!r}"
                else:
                    if i not in self.first:
                        self.first[i] = observation
                    elif observation != self.first[i]:
                        problem = "output differs from the slot's first output"
            self.requests.append((i, start, end, problem))
        return spent

    def run(self, seconds: float, tracer=None):
        """Whole cycles until `seconds` have passed and MIN_REQUESTS were made.

        With a tracer, even cycles run traced and odd ones untraced, so both
        see the same machine state; returns the per-cycle request times of
        each kind (traced, untraced).
        """
        traced, untraced = [], []
        start = time.perf_counter()
        while (
            len(traced) + len(untraced) < MIN_CYCLES
            or len(self.requests) < MIN_REQUESTS
            or time.perf_counter() - start < seconds
        ):
            if tracer is not None and len(traced) == len(untraced):
                with tracer:
                    traced.append(self.cycle(tracer))
            else:
                untraced.append(self.cycle())
        return traced, untraced

    def failures(self):
        """Failed request count and one message per distinct problem."""
        invalid = {}
        for i, observation in sorted(self.first.items()):
            problem = self.plan.validate(i, observation)
            if problem:
                invalid[i] = problem
        messages = {}
        for i, _, _, problem in self.requests:
            problem = problem or invalid.get(i)
            if problem:
                key = f"slot {i}: {problem}"
                messages[key] = messages.get(key, 0) + 1
        return sum(messages.values()), [f"{text} (x{count})" for text, count in messages.items()]


def percentile_summary(values, prefix: str) -> dict:
    """Median and the highest of p99/p95/p90/p75 with >= 10 samples beyond it, in ms."""
    out = {f"{prefix}p50_ms": statistics.median(values) * 1e3}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[f"{prefix}p{q}_ms"] = cuts[q - 1] * 1e3
            break
    return out


def describe(plan, requests) -> dict:
    """Per request class: count, raw and calibrated percentiles, work rate."""
    by_label = {}
    for i, raw, cal in requests:
        by_label.setdefault(plan.slots[i].label, []).append((raw, cal, plan.slots[i].work))
    out = {}
    for label, rows in sorted(by_label.items()):
        raws = [r for r, _, _ in rows]
        cals = [c for _, c, _ in rows]
        work = sum(w for _, _, w in rows)
        out[label] = {
            "count": len(rows),
            **percentile_summary(cals, "cal_"),
            **percentile_summary(raws, "raw_"),
            f"{plan.work_unit}_per_cal_s": work / sum(cals),
            f"{plan.work_unit}_per_raw_s": work / sum(raws),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="todajac benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(workloads, args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        return run(args, workloads, tracing, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workloads, tracing, work: Path) -> int:
    print(json.dumps({"stamp": stamp(), "workload": args.workload, "seed": args.seed}))
    setup_samples = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    plan = setup(workloads, args.workload, args.seed, work)
    loop = Loop(plan)
    metrics = {}
    sampler = SpeedSampler()
    with workloads.quiet():
        if args.trace == 0:
            with sampler:
                loop.run(args.seconds)
        else:
            tracer = tracing.Tracer()
            traced, untraced = loop.run(args.seconds, tracer)
            ops = len(traced) * len(plan.slots)
            for name, (value, unit) in tracing.layer_metrics(tracer.spans, ops).items():
                metrics[name] = {"value": value, "unit": unit}
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics["trace.overhead_s"] = {"value": overhead / len(plan.slots), "unit": "s/op"}
            metrics["trace.overhead_ratio"] = {
                "value": overhead / statistics.median(untraced), "unit": "ratio"
            }
            WORK_ROOT.mkdir(exist_ok=True)
            spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.csv"
            tracer.write_csv(spans_path)
            print(json.dumps({"spans": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}))

        for name in workloads.DEFECT_METRICS:
            wrong = 0
            if name in plan.defects:
                wrong, tried = plan.defects[name]()
                print(json.dumps({"defect": name, "wrong": wrong, "requests": tried}))
            if args.trace == 1:
                metrics[name] = {"value": wrong, "unit": "count"}

    failed, messages = loop.failures()
    if args.trace == 0:
        requests = [(i, *sampler.calibrate(start, end)) for i, start, end, _ in loop.requests]
        cals = [c for _, _, c in requests]
        metrics = {
            "setup_s": {"value": statistics.median(c for _, c in setup_samples), "unit": "s"},
            "cal_ops_per_s": {"value": len(cals) / sum(cals), "unit": "1/s"},
            "cal_p50_ms": {"value": statistics.median(cals) * 1e3, "unit": "ms"},
        }
        print(json.dumps({
            "raw_setup_s": statistics.median(r for r, _ in setup_samples),
            "raw_ops_per_s": len(requests) / sum(r for _, r, _ in requests),
            "raw_p50_ms": statistics.median(r for _, r, _ in requests) * 1e3,
            "kernel_median_ms": statistics.median(sampler.durations) * 1e3,
            "kernel_samples": len(sampler.durations),
            "classes": describe(plan, requests),
        }))
    for message in messages[:20]:
        print(f"failure: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(loop.requests),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
