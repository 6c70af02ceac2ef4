"""Outputs that do not depend on the CPU's kernels.

numpy hands matrix products and `np.linalg` to its BLAS, and OpenBLAS built
with DYNAMIC_ARCH picks a kernel by CPU, which may fuse multiply-adds; numpy
also runs float64 `power`, `exp`, `log`, `arctan2` and the other
transcendental ufuncs but `cos` and `sin` through loops it dispatches by CPU
feature. A result that passes through either carries the machine in its last
bits. Nothing in `src/` that reaches an output passes through either: its
geometry is float arithmetic summed left to right with the math library's
functions, or numpy's elementwise arithmetic, sqrt, cos and sin. The one
exception is `implicit_batch` on a superellipsoid, whose numpy `power`
decides only a sign.

- `test_cli_pins_do_not_depend_on_the_cpu_kernels` builds the outputs of
  `test_golden.CLI_PINS` in two fresh interpreters, one with the default
  kernels and one with OpenBLAS's Prescott kernel and every numpy dispatch
  target of this CPU disabled, and asserts the same bytes, and the pins.
  Both also hash the Livshits chain's closest points (`CLOSEST`) and a
  Livshits `boundary_distance`, which must agree between the two.
- `test_row_geometry_has_no_matrix_product_or_numpy_power` reads every
  function of `src/`, so that a host whose kernels happen to round alike
  still catches a matrix product or a dispatched ufunc coming back.
"""

import ast
import json
from pathlib import Path

from conftest import popen_python
from test_golden import CLI_PINS, write_scenes

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src" / "billiard_lens"

# runs the invocations given as a JSON object in argv[1] in its directory and
# prints the sha256 of each output file, and of each array of `CLOSEST`, as JSON
CHILD = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
from billiard_lens import cli, geometry, lens
from billiard_lens.rng import Xoshiro256StarStar
digests = {}
for out, invocation in json.loads(sys.argv[1]).items():
    if cli.main(invocation.split()) != 0:
        raise SystemExit(f"failed: {invocation}")
    digests[out] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
# the Livshits chain's feet of validate's boundary samples, and of 20,000
# seeded points of their bounding box
base, deformed = geometry.livshits_scene()[0], geometry.livshits_scene(deformation=0.5)[0]
samples = base.obstacles[0].boundary_points(512)
lo, hi = samples.min(axis=0), samples.max(axis=0)
gen = Xoshiro256StarStar(31)
points = lo + (hi - lo) * np.array([gen.uniform() for _ in range(40000)]).reshape(-1, 2)
for name, X in (("samples", samples), ("points", points)):
    feet = base.obstacles[0].chain.closest_batch(X)
    for field in ("s", "signed", "normal", "shape"):
        data = np.ascontiguousarray(getattr(feet, field), dtype="<f8").tobytes()
        digests[f"{name}.{field}"] = hashlib.sha256(data).hexdigest()
digests["boundary_distance"] = repr(lens.boundary_distance(base, deformed, 100))
print(json.dumps(digests))
"""
CLOSEST = [f"{name}.{field}" for name in ("samples", "points")
           for field in ("s", "signed", "normal", "shape")]

FORCED = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)),
}


def test_cli_pins_do_not_depend_on_the_cpu_kernels(tmp_path):
    invocations = json.dumps({out: invocation for out, (invocation, _) in CLI_PINS.items()})
    procs = []
    for name, env in (("default", {}), ("forced", FORCED)):
        (tmp_path / name).mkdir()
        write_scenes(tmp_path / name)
        procs.append(popen_python("-c", CHILD, invocations, cwd=tmp_path / name, env=env))
    digests = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        digests.append(json.loads(out))
    default, forced = digests
    assert set(default) == {*CLI_PINS, *CLOSEST, "boundary_distance"}
    assert {k for k in default if forced[k] != default[k]} == set()
    assert {out: default[out] for out in CLI_PINS} == {out: pin for out, (_, pin) in CLI_PINS.items()}


# numpy functions that reach a BLAS, and the float64 ufuncs whose default and
# forced kernels gave different bits on 10^6 draws (cos, sin, sqrt, hypot and
# remainder gave the same)
NUMPY_KERNELS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum",
                 "power", "float_power", "cbrt", "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
                 "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh",
                 "arcsinh", "arccosh", "arctanh"}


def _uses_numpy(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "np" for sub in ast.walk(node))


def _is_two(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def _functions(node, prefix=""):
    """(qualified name, node) of every function defined under `node`: at
    module level, as a method or nested in another function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _own_nodes(fn):
    """The nodes of a function, less those of the functions defined in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _kernel_calls(fn):
    """What in the function's own source may reach a BLAS or a dispatched
    ufunc: `@`, a `.dot` method, `np.linalg`, numpy's products and the ufuncs
    of NUMPY_KERNELS, a `**` with a numpy expression on either side, and, in
    a function that names numpy, a `**` other than a square whose base is not
    a constant: there it may be numpy's power. `_value` names no numpy, so
    its `**` on `implicit_batch`'s coordinate rows, numpy's power deciding a
    sign, is not seen."""
    nodes = list(_own_nodes(fn))
    names_numpy = any(isinstance(node, ast.Name) and node.id == "np" for node in nodes)
    for node in nodes:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield f"line {node.lineno}: @"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and (
                _uses_numpy(node) or (names_numpy and not isinstance(node.left, ast.Constant)
                                      and not _is_two(node.right))):
            yield f"line {node.lineno}: {ast.unparse(node)}"
        elif isinstance(node, ast.Attribute) and (
                node.attr == "dot" or node.attr == "linalg"
                or (node.attr in NUMPY_KERNELS and _uses_numpy(node.value))):
            yield f"line {node.lineno}: {ast.unparse(node)}"


def test_row_geometry_has_no_matrix_product_or_numpy_power():
    offending = {}
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            if calls := sorted(_kernel_calls(fn)):
                offending[f"{path.stem}.{name}"] = calls
    assert offending == {}


def test_the_guard_sees_a_matrix_product_and_a_numpy_power():
    source = '''
def f(M, d, y, p, speed):
    a = M @ d
    b = np.abs(y) ** p
    c = np.linalg.norm(d)
    e = d.dot(d)
    g = np.power(y, p)
    h = abs(y) ** p
    k = np.arctan2(y, d)
    m = speed**3 + speed**2 + 2.0 ** p

    def inner(x):
        return x ** 3

    return np.exp(y)

def floats(y, p):
    return abs(y) ** p
'''
    found = {name: {int(call.split(":")[0].split()[1]) for call in _kernel_calls(fn)}
             for name, fn in _functions(ast.parse(source))}
    assert found == {"f": {3, 4, 5, 6, 7, 8, 9, 10, 15}, "f.inner": set(), "floats": set()}
