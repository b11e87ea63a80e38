"""Package-level checks: what an import loads, the README example, the
README's list of exports no package code calls, and the read-only arrays of
every value."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import todajac
from todajac import flow, jacobi, lax, tnn

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_process_machinery():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import todajac, todajac.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_readme_python_examples_run():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def names_called_in_package() -> set:
    """Every name a call in ``src/todajac`` is made through: the names and
    attributes of each called expression (``f(x)``, ``lax.f(x)``, ``(f if c
    else g)(x)``)."""
    called = set()
    for path in (ROOT / "src" / "todajac").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                for part in ast.walk(node.func):
                    if isinstance(part, ast.Name):
                        called.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        called.add(part.attr)
    return called


def readme_uncalled_names() -> list:
    """The names listed under the README's "Public names that no command calls"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Public names that no command calls\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `(\w+)`", section, re.M)


def test_readme_lists_every_exported_function_no_code_calls():
    exported = [name for name in dir(todajac) if not name.startswith("_")]
    functions = {name for name in exported if inspect.isfunction(getattr(todajac, name))}
    uncalled = functions - names_called_in_package()
    listed = readme_uncalled_names()
    assert uncalled <= set(listed), sorted(uncalled - set(listed))
    assert set(listed) <= set(exported), sorted(set(listed) - set(exported))


# ---------------------------------------------------------------------------
# every array a value holds is sealed where the value is built
# ---------------------------------------------------------------------------


def make_l4():
    return lax.LaxMatrix(4, a=[1.0, 2.0, 3.0, 4.0], b=[0.5] * 3)


def trusted_from_writable_buffer(L):
    buf = np.concatenate((L.a, L.b))
    return lax.LaxMatrix._trusted(n=4, a=buf[:4], b=buf[4:])


def tau_sequence_fields(L):
    ts = jacobi.tau_sequence(lax.spectrum(L), jacobi.abel_jacobi(L))
    return [getattr(ts, name) for name in ts.__dataclass_fields__]


def bands(L):
    return [L.a, L.b]


def trajectory_arrays(L, method):
    traj = flow.trajectory(L, 0.0, 1.0, 0.25, method)
    return [traj.times, traj.a, traj.b] + [x for state in traj.states for x in bands(state)]


# the arrays of every kind of value and cached table the package builds
SEALED = {
    "LaxMatrix": bands,
    "LaxMatrix._trusted": lambda L: bands(trusted_from_writable_buffer(L)),
    "Spectrum": lambda L: [lax.spectrum(L).lambdas, lax.Spectrum([1.0, 2.0]).lambdas],
    "LaxMatrix._eigh": lambda L: list(L._eigh),
    "JacobiPoint": lambda L: [jacobi.abel_jacobi(L).f, jacobi.JacobiPoint.from_raw([2.0, -1.0]).f],
    "TauSequence": tau_sequence_fields,
    "PolynomialVector": lambda L: [e for v in lax.cofactor_vectors(L) for e in v.entries],
    "Trajectory(tau)": lambda L: trajectory_arrays(L, "tau"),
    "Trajectory(symes)": lambda L: trajectory_arrays(L, "symes"),
    "Trajectory(rk4)": lambda L: trajectory_arrays(L, "rk4"),
    "solve_tau": lambda L: bands(flow.solve_tau(L, 0.3)),
    "solve_symes": lambda L: bands(flow.solve_symes(L, 0.3)),
    "solve_rk4": lambda L: bands(flow.solve_rk4(L, 0.3, 0.01)),
    "TauKernel": lambda L: [
        getattr(jacobi.TauKernel(lax.spectrum(L), jacobi.abel_jacobi(L)), name)
        for name in ("bounds", "classes")
    ],
    "jacobi._subsets": lambda L: list(jacobi._subsets(L.n)),
    "tnn._expansion_tables": lambda L: [
        x for _, *index in tnn._expansion_tables(L.n) for x in index
    ],
}


@pytest.mark.parametrize("name", SEALED)
def test_value_arrays_cannot_be_made_writable(name):
    arrays = SEALED[name](make_l4())
    assert arrays
    for x in arrays:
        assert isinstance(x, np.ndarray) and not x.flags.writeable
        with pytest.raises(ValueError):
            x.setflags(write=True)


@pytest.mark.parametrize("name", SEALED)
def test_value_array_bases_cannot_be_made_writable(name):
    for x in SEALED[name](make_l4()):
        assert isinstance(x.base, np.ndarray) and isinstance(x.base.base, bytes)
        with pytest.raises(ValueError):
            x.base.setflags(write=True)


def test_a_kernel_base_cannot_poison_later_kernels():
    # a writable base of the cached n = 4 tables would corrupt every later
    # tau kernel of that size
    L = make_l4()
    kernel = jacobi.TauKernel(lax.spectrum(L), jacobi.abel_jacobi(L))
    with pytest.raises(ValueError):
        kernel.bounds.base.setflags(write=True)
    np.testing.assert_allclose(
        flow.solve_tau(make_l4(), 0.3).a, [1.17342327, 2.00149821, 2.99850179, 3.82657673]
    )
