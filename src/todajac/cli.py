"""Command-line front end.

Commands:

* ``simulate``: run one trajectory and write it as CSV or JSON.
* ``check-tnn``: total-nonnegativity report for a matrix file, from the
  exhaustive, tridiagonal or interlacing route (``--mode``).  The
  interlacing route reads the signs of b and of the bottom eigenvalue.
* ``linearize``: Jacobi coordinates, sign component and tau data of a matrix.
* ``reconstruct``: matrix from a spectrum file and a point file.
* ``verify-theorem``: randomized check that cone points reconstruct to TNN
  matrices and that TNN matrices linearize into the cone.

Exit codes: 0 success; 1 input/config error (usage, non-finite numbers,
files that cannot be read or written, sampling ranges too wide); 2 negative
finding (not TNN, non-general point, theorem failures, spectrum failure:
eigenvalues that are non-real, non-simple or whose polish leaves double
range); 3 blowup (simulate only, partial output is still written); 4 range
exceeded: a state entry or cofactor value leaves double range (simulate,
linearize, reconstruct; nothing is written).  Commands return their verdict
(0, 2 or 3) and raise every other failure; ``main`` alone maps errors to
exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

from . import flow, jacobi, lax, tnn, verify
from .errors import (
    NonGeneralDivisor,
    NonRealSpectrum,
    NonSimpleSpectrum,
    RangeExceeded,
    SpectrumOverflow,
    TodaError,
    ZeroCofactorValue,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_BLOWUP = 3
EXIT_RANGE = 4


def _load(path: str, build, what: str = "matrix"):
    """build(the JSON object in path); any failure is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return build(json.load(fp))
    except (OSError, ValueError, NonSimpleSpectrum) as exc:
        raise ValueError(f"cannot load {what}: {exc}") from exc


def _dump(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    L0 = _load(args.matrix, lax.LaxMatrix.from_json_dict)
    traj = flow.trajectory(L0, args.t0, args.t1, args.dt, args.method, rk4_dt=args.rk4_dt)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out and args.out.endswith(".json") else "csv"
    write = traj.to_json if fmt == "json" else traj.to_csv
    sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as fp:
        write(fp)
    if traj.blowup is not None:
        print(f"blowup at t={traj.blowup!r}; output truncated", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_check_tnn(args) -> int:
    L = _load(args.matrix, lax.LaxMatrix.from_json_dict)
    if args.mode == "exhaustive":
        report = tnn.is_tnn_exhaustive(L, tol=args.tol)
    elif args.mode == "tridiagonal":
        report = tnn.is_tnn_tridiagonal(L, tol=args.tol)
    else:
        report = tnn.is_tnn_interlacing(L)
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.is_tnn else EXIT_NEGATIVE


def cmd_linearize(args) -> int:
    L = _load(args.matrix, lax.LaxMatrix.from_json_dict)
    spec = lax.spectrum(L)
    point = jacobi.abel_jacobi(L, spec=spec)
    ts = jacobi.tau_sequence(spec, point)
    component, alternating = jacobi.sign_component(point)
    payload = {
        "f": [float(x) for x in point.f],
        "sign_component": str(component),
        "cone_sign_pattern": alternating,
        "spectrum_positive": spec.positive,
        "in_positive_cone": bool(alternating and spec.positive),
        "spectrum": [float(x) for x in spec.lambdas],
        "tau": [float(x) for x in ts.tau],
        "tau_prime": [float(x) for x in ts.tau_prime],
        "is_general": ts.is_general(),
    }
    _dump(payload, args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    spec = _load(args.spectrum, lax.Spectrum.from_json_dict, "inputs")
    point = _load(args.point, jacobi.JacobiPoint.from_json_dict, "inputs")
    if point.n != spec.lambdas.size:
        raise ValueError("spectrum and point sizes differ")
    _dump(jacobi.reconstruct(spec, point).to_json_dict(), args.out)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    report = verify.run_verification(
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        direction=args.direction,
        tol=args.tol,
        spec_range=(args.spec_min, args.spec_max),
        coord_log_range=args.coord_range,
    )
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.failures == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error, raised into ``main``'s exit-code table."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def finite(text: str) -> float:
    """A float option's value; nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``toda`` parser, built once; each parse_args fills a fresh Namespace."""
    parser = _Parser(
        prog="toda",
        description="Finite Toda lattice: simulation, linearization and TNN checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample one trajectory")
    sim.add_argument("--matrix", required=True, help="matrix JSON file {n, a, b}")
    sim.add_argument(
        "--t0", type=finite, required=True,
        help="start time; give a negative exponent-form value with '=': --t0=-1e-3",
    )
    sim.add_argument(
        "--t1", type=finite, required=True,
        help="end time; give a negative exponent-form value with '=': --t1=-1e-3",
    )
    sim.add_argument("--dt", type=finite, required=True, help="output sampling step")
    sim.add_argument("--method", choices=("tau", "symes", "rk4"), default="tau")
    sim.add_argument("--rk4-dt", type=finite, default=1e-3, dest="rk4_dt")
    sim.add_argument("--out", default=None, help="output file (stdout if omitted)")
    sim.add_argument("--format", choices=("csv", "json"), default=None)
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check-tnn", help="total-nonnegativity report")
    chk.add_argument("--matrix", required=True)
    chk.add_argument(
        "--mode", choices=("exhaustive", "tridiagonal", "interlacing"), default="tridiagonal"
    )
    chk.add_argument("--tol", type=finite, default=0.0, help="minor tolerance (default exact)")
    chk.add_argument("--out", default=None)
    chk.set_defaults(func=cmd_check_tnn)

    lin = sub.add_parser("linearize", help="Jacobi coordinates of a matrix")
    lin.add_argument("--matrix", required=True)
    lin.add_argument("--out", default=None)
    lin.set_defaults(func=cmd_linearize)

    rec = sub.add_parser("reconstruct", help="matrix from spectrum and point files")
    rec.add_argument("--spectrum", required=True, help="spectrum JSON file {lambdas}")
    rec.add_argument("--point", required=True, help="point JSON file {f}")
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=cmd_reconstruct)

    ver = sub.add_parser("verify-theorem", help="randomized cone/TNN verification")
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--samples", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--direction", choices=("forward", "converse", "both"), default="both")
    ver.add_argument("--tol", type=finite, default=verify.DEFAULT_TOL)
    ver.add_argument("--spec-min", type=finite, default=verify.DEFAULT_SPEC_RANGE[0])
    ver.add_argument("--spec-max", type=finite, default=verify.DEFAULT_SPEC_RANGE[1])
    ver.add_argument(
        "--coord-range", type=finite, default=verify.DEFAULT_COORD_LOG_RANGE,
        help="half-width of the log-uniform coordinate distribution",
    )
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RangeExceeded as exc:
        message, code = str(exc), EXIT_RANGE
    except NonGeneralDivisor as exc:
        message, code = f"non-general point: tau index {exc.index} vanishes", EXIT_NEGATIVE
    except (NonRealSpectrum, NonSimpleSpectrum, SpectrumOverflow, ZeroCofactorValue) as exc:
        # a spectrum that cannot be computed or a vanishing cofactor value: negative finding
        message, code = str(exc), EXIT_NEGATIVE
    except (OSError, ValueError, TodaError) as exc:
        message, code = str(exc), EXIT_INPUT
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
