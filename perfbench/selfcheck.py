"""Self-checks for the benchmark harness.

    python3 perfbench/selfcheck.py

Checks that the tracer restores every wrapped function, that self time
excludes child spans, that a seed always makes the same inputs, that every
metric a run prints is declared in BENCHMARK.json, and that the repository's
pytest run collects nothing from the benchmark.  The file name keeps pytest
from collecting these checks as tests.
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from todajac import flow, lax  # noqa: E402


def check_wrappers_restored():
    originals = {(m, a): getattr(m, a) for m, attrs in tracing.TARGETS.items() for a in attrs}
    L = lax.LaxMatrix(n=3, a=np.array([1.0, 2.0, 3.0]), b=np.array([0.5, 0.5]))
    tracer = tracing.Tracer()
    try:
        with tracer:
            flow.trajectory(L, 0.0, 0.5, 0.25, "tau")
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    names = {s.name for s in tracer.spans}
    # calls made inside the package are seen through the module attributes
    assert {"flow.trajectory", "lax.spectrum", "jacobi.tau_sequence"} <= names, names
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def check_self_time_excludes_children():
    S = tracing.Span
    spans = [
        S("a", 0.0, 10.0, -1, 0, None, 0),
        S("b", 1.0, 4.0, 0, 0, None, 0),
        S("d", 2.0, 3.0, 1, 0, None, 0),
        S("c", 5.0, 6.0, 0, 0, None, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0], tracing.self_times(spans)


def _describe(value, work: Path) -> str:
    if hasattr(value, "to_json_dict"):
        return json.dumps(value.to_json_dict())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_describe(v, work) for v in value) + "]"
    return repr(value).replace(str(work), "<work>")


def _inputs(name: str, seed: int, work: Path) -> str:
    plan = workloads.build(name, seed, work)
    files = sorted((p.name, p.read_bytes()) for p in work.iterdir())
    slots = [_describe(s.call.__defaults__, work) for s in plan.slots]
    return repr((files, slots))


def check_same_seed_same_inputs():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in workloads.NAMES:
            dirs = [Path(tmp) / f"{name}-{k}" for k in range(3)]
            for d in dirs:
                d.mkdir()
            first = _inputs(name, 7, dirs[0])
            assert first == _inputs(name, 7, dirs[1]), f"{name}: seed 7 made different inputs"
            assert first != _inputs(name, 8, dirs[2]), f"{name}: seeds 7 and 8 made the same inputs"


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        result = _run("sim_rk4", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
        assert result["correct"] and result["attempted"] >= 1, result
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, (
            f"trace {trace}: undeclared {sorted(set(printed) - set(declared))}, "
            f"missing {sorted(set(declared) - set(printed))}, "
            f"units differ {sorted(k for k in printed if k in declared and printed[k] != declared[k])}"
        )


def check_tier1_collects_nothing():
    for path in HERE.rglob("*.py"):
        assert not (fnmatch.fnmatch(path.name, "test_*.py") or fnmatch.fnmatch(path.name, "*_test.py")), (
            f"pytest would collect {path}"
        )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert collected, "pytest collected nothing at all"
    assert not any(line.startswith(HERE.name) for line in collected), "pytest collected benchmark files"


CHECKS = (
    check_wrappers_restored,
    check_self_time_excludes_children,
    check_same_seed_same_inputs,
    check_metrics_declared,
    check_tier1_collects_nothing,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception:  # report every check, then fail
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
