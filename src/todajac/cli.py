"""Command-line front end.

Commands:

* ``simulate``: run one trajectory and write it as CSV or JSON.
* ``check-tnn``: total-nonnegativity report for a matrix file.
* ``linearize``: Jacobi coordinates, sign component and tau data of a matrix.
* ``reconstruct``: matrix from a spectrum file and a point file.
* ``verify-theorem``: randomized check that cone points reconstruct to TNN
  matrices and that TNN matrices linearize into the cone.

Exit codes: 0 success; 1 input/config error; 2 negative finding (not TNN,
non-general point, spectrum failure: eigenvalues that are non-real,
non-simple or whose polish leaves double range); 3 blowup (simulate only,
partial output is still written); 4 range exceeded: a state entry leaves
double range (simulate and reconstruct, nothing is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import flow, jacobi, lax, tnn, verify
from .errors import (
    NonGeneralDivisor,
    NonRealSpectrum,
    NonSimpleSpectrum,
    NotTridiagonal,
    RangeExceeded,
    SpectrumOverflow,
    TodaError,
    TooLarge,
    ZeroCofactorValue,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_BLOWUP = 3
EXIT_RANGE = 4

# a spectrum that cannot be computed is a negative finding (exit 2)
SPECTRUM_FAILURES = (NonRealSpectrum, NonSimpleSpectrum, SpectrumOverflow)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _load_matrix(path: str) -> lax.LaxMatrix:
    return lax.LaxMatrix.from_json_dict(_load_json(path))


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
    try:
        L0 = _load_matrix(args.matrix)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load matrix: {exc}", EXIT_INPUT)
    try:
        traj = flow.trajectory(
            L0, args.t0, args.t1, args.dt, args.method, rk4_dt=args.rk4_dt
        )
    except RangeExceeded as exc:
        return _fail(str(exc), EXIT_RANGE)
    except (*SPECTRUM_FAILURES, ZeroCofactorValue) as exc:
        return _fail(str(exc), EXIT_NEGATIVE)
    except (ValueError, TodaError) as exc:
        return _fail(str(exc), EXIT_INPUT)

    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out and args.out.endswith(".json") else "csv"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            traj.to_json(fp) if fmt == "json" else traj.to_csv(fp)
    else:
        traj.to_json(sys.stdout) if fmt == "json" else traj.to_csv(sys.stdout)
    if traj.blowup is not None:
        print(f"blowup at t={traj.blowup!r}; output truncated", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_check_tnn(args) -> int:
    try:
        L = _load_matrix(args.matrix)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load matrix: {exc}", EXIT_INPUT)
    try:
        if args.mode == "exhaustive":
            report = tnn.is_tnn_exhaustive(L, tol=args.tol)
        elif args.mode == "tridiagonal":
            report = tnn.is_tnn_tridiagonal(L, tol=args.tol)
        else:
            try:
                ok = tnn.check_interlacing(tnn.interlacing_spectra(L))
            except SPECTRUM_FAILURES as exc:
                print(f"note: spectrum test failed ({exc})", file=sys.stderr)
                ok = False
            report = tnn.TnnReport(is_tnn=ok, witness=None, method="interlacing")
    except (TooLarge, NotTridiagonal) as exc:
        return _fail(str(exc), EXIT_INPUT)
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.is_tnn else EXIT_NEGATIVE


def cmd_linearize(args) -> int:
    try:
        L = _load_matrix(args.matrix)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail(f"cannot load matrix: {exc}", EXIT_INPUT)
    try:
        spec = lax.spectrum(L)
        point = jacobi.abel_jacobi(L, spec=spec)
    except (*SPECTRUM_FAILURES, ZeroCofactorValue) as exc:
        return _fail(str(exc), EXIT_NEGATIVE)
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
    try:
        spec = lax.Spectrum.from_json_dict(_load_json(args.spectrum))
        point = jacobi.JacobiPoint.from_json_dict(_load_json(args.point))
    except (OSError, ValueError, json.JSONDecodeError, NonSimpleSpectrum) as exc:
        return _fail(f"cannot load inputs: {exc}", EXIT_INPUT)
    if point.n != spec.lambdas.size:
        return _fail("spectrum and point sizes differ", EXIT_INPUT)
    try:
        L = jacobi.reconstruct(spec, point)
    except NonGeneralDivisor as exc:
        return _fail(f"non-general point: tau index {exc.index} vanishes", EXIT_NEGATIVE)
    except RangeExceeded as exc:
        return _fail(str(exc), EXIT_RANGE)
    _dump(L.to_json_dict(), args.out)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    try:
        report = verify.run_verification(
            n=args.n,
            samples=args.samples,
            seed=args.seed,
            direction=args.direction,
            tol=args.tol,
            spec_range=(args.spec_min, args.spec_max),
            coord_log_range=args.coord_range,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    _dump(report.to_json_dict(), args.out)
    return EXIT_OK if report.failures == 0 else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``toda`` parser, built once; each parse_args fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="toda",
        description="Finite Toda lattice: simulation, linearization and TNN checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample one trajectory")
    sim.add_argument("--matrix", required=True, help="matrix JSON file {n, a, b}")
    sim.add_argument("--t0", type=float, required=True)
    sim.add_argument("--t1", type=float, required=True)
    sim.add_argument("--dt", type=float, required=True, help="output sampling step")
    sim.add_argument("--method", choices=("tau", "symes", "rk4"), default="tau")
    sim.add_argument("--rk4-dt", type=float, default=1e-3, dest="rk4_dt")
    sim.add_argument("--out", default=None, help="output file (stdout if omitted)")
    sim.add_argument("--format", choices=("csv", "json"), default=None)
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check-tnn", help="total-nonnegativity report")
    chk.add_argument("--matrix", required=True)
    chk.add_argument(
        "--mode", choices=("exhaustive", "tridiagonal", "interlacing"), default="tridiagonal"
    )
    chk.add_argument("--tol", type=float, default=0.0, help="minor tolerance (default exact)")
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
    ver.add_argument("--tol", type=float, default=verify.DEFAULT_TOL)
    ver.add_argument("--spec-min", type=float, default=verify.DEFAULT_SPEC_RANGE[0])
    ver.add_argument("--spec-max", type=float, default=verify.DEFAULT_SPEC_RANGE[1])
    ver.add_argument(
        "--coord-range", type=float, default=verify.DEFAULT_COORD_LOG_RANGE,
        help="half-width of the log-uniform coordinate distribution",
    )
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
