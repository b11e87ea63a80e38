"""Per-layer tracing from outside the library.

The tracer replaces public functions of the todajac modules with wrappers
that record one span per call: name, start, end, parent span, request id
and the typed error the call raised, if any.  The library modules look
these names up at call time (``tnn`` calls ``lax.spectrum``, ``flow`` calls
``jacobi.tau_sequence``, ``lax.spectrum`` calls its own
``symmetric_tridiagonal_eigenvalues``), so replacing the module attribute
also catches the calls made inside the package.  Nothing under ``src/``
changes; ``restore`` puts the original functions back.

Spans stay in memory until the run ends.  Self time of a span is its
duration minus the durations of its direct children; calls are sequential
in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import time
from typing import NamedTuple, Optional

from todajac import cli, errors, flow, jacobi, lax, tnn, verify

TARGETS = {
    lax: (
        "spectrum",
        "symmetric_tridiagonal_eigenvalues",
        "charpoly_root_eigenvalues",
        "chop_values",
    ),
    jacobi: ("abel_jacobi", "evolve_point", "tau_sequence", "reconstruct"),
    tnn: (
        "is_tnn_tridiagonal",
        "is_tnn_exhaustive",
        "is_totally_positive",
        "is_irreducible_tnn",
        "interlacing_spectra",
    ),
    flow: ("trajectory", "solve_symes", "lu_unit_lower", "solve_rk4", "detect_blowup"),
    verify: ("run_verification", "sample_tnn_rejection"),
    cli: ("main",),
}


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


TARGET_NAMES = tuple(span_name(m, a) for m, attrs in TARGETS.items() for a in attrs)

class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    request: int
    error: Optional[str]  # class name of the TodaError raised, if any
    count: int  # work count computed from arguments and result (0 if none)


def _exhaustive_minors(args, kwargs, report) -> int:
    M = args[0] if args else kwargs["M"]
    n = M.n if isinstance(M, lax.LaxMatrix) else len(M)
    top = len(report.witness.rows) if report.witness is not None else n
    return sum(math.comb(n, k) ** 2 for k in range(1, top + 1))


def _rk4_steps(args, kwargs, _result) -> int:
    t = args[1] if len(args) > 1 else kwargs["t"]
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    return math.ceil(abs(t) / dt)


_COUNTERS = {
    "jacobi.tau_sequence": lambda args, kwargs, ts: 2 ** ts.n,
    "flow.solve_rk4": _rk4_steps,
    "tnn.is_tnn_exhaustive": _exhaustive_minors,
    # 1 when the check exits early with a witness
    "tnn.is_tnn_tridiagonal": lambda args, kwargs, report: int(not report.is_tnn),
}


class Tracer:
    """Wraps the TARGETS functions while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attrs in TARGETS.items():
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span_name(module, attr), original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                error = type(exc).__name__ if isinstance(exc, errors.TodaError) else None
                spans[index] = Span(name, start, end, parent, self.request, error, 0)
                raise
            end = clock()
            stack.pop()
            count = counter(args, kwargs, result) if counter is not None else 0
            spans[index] = Span(name, start, end, parent, self.request, None, count)
            return result

        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index,name,start,end,parent,request,error,count\n")
            for i, s in enumerate(self.spans):
                fp.write(
                    f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.request},"
                    f"{s.error or ''},{s.count}\n"
                )


def self_times(spans) -> list:
    """Per-span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, ops: int) -> dict:
    """calls, self_s and errors per workload operation for every target, plus
    the derived counts.

    Values per operation do not depend on how many operations fit into the
    run, so counts repeat exactly when the same inputs are cycled.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(TARGET_NAMES, 0)
    busy = dict.fromkeys(TARGET_NAMES, 0.0)
    errs = dict.fromkeys(TARGET_NAMES, 0)
    counts = dict.fromkeys(TARGET_NAMES, 0)
    nongeneral = 0
    scan_tau = 0
    rejection_checks = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        busy[s.name] += selfs[i]
        counts[s.name] += s.count
        if s.error is not None:
            errs[s.name] += 1
            if s.name == "jacobi.reconstruct" and s.error == "NonGeneralDivisor":
                nongeneral += 1
        if s.name == "jacobi.tau_sequence" and _has_ancestor(spans, i, "flow.detect_blowup"):
            scan_tau += 1
        if s.name == "tnn.is_tnn_tridiagonal" and _has_ancestor(spans, i, "verify.sample_tnn_rejection"):
            rejection_checks += 1

    out = {}
    for name in TARGET_NAMES:
        out[f"{name}.calls"] = (calls[name] / ops, "count/op")
        out[f"{name}.self_s"] = (busy[name] / ops, "s/op")
        out[f"{name}.errors"] = (errs[name] / ops, "count/op")

    def ratio(num, den):
        return num / den if den else 0.0

    out["jacobi.tau_sequence.laplace_terms"] = (counts["jacobi.tau_sequence"] / ops, "count/op")
    out["flow.detect_blowup.tau_evals"] = (ratio(scan_tau, calls["flow.detect_blowup"]), "count/scan")
    out["flow.solve_rk4.steps"] = (counts["flow.solve_rk4"] / ops, "count/op")
    out["tnn.is_tnn_exhaustive.minors"] = (counts["tnn.is_tnn_exhaustive"] / ops, "count/op")
    out["tnn.is_tnn_tridiagonal.early_exit_ratio"] = (
        ratio(counts["tnn.is_tnn_tridiagonal"], calls["tnn.is_tnn_tridiagonal"]),
        "ratio",
    )
    out["verify.sample_tnn_rejection.accept_ratio"] = (
        ratio(calls["verify.sample_tnn_rejection"], rejection_checks),
        "ratio",
    )
    out["jacobi.reconstruct.nongeneral_ratio"] = (ratio(nongeneral, calls["jacobi.reconstruct"]), "ratio")
    return out
