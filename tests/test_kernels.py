"""Outputs that do not depend on the CPU's kernels.

numpy hands matrix products and `np.linalg` to its BLAS, and OpenBLAS built
with DYNAMIC_ARCH picks a kernel by CPU, which may fuse multiply-adds; numpy
also runs float64 `power`, `exp` and `arctan2` through loops it dispatches
by CPU feature. A result that passes through either carries the machine in
its last bits. Lens rows, and the Jacobi layer's incidences and
`validate`'s figures on implicit obstacles, pass through neither: their
geometry is float arithmetic summed left to right, with the math library's
pow, or numpy's elementwise arithmetic and sqrt.

- `test_cli_pins_do_not_depend_on_the_cpu_kernels` builds the outputs of
  `test_golden.CLI_PINS` in two fresh interpreters, one with the default
  kernels and one with OpenBLAS's Prescott kernel and every numpy dispatch
  target of this CPU disabled, and asserts the same bytes, and the pins.
  Both also run `regularity` and `conjugate` on a Livshits orbit and
  `validate` on the Livshits scene, which must agree between the two but
  are not pinned: the curve pieces' normals and curvatures call numpy's cos
  and sin on one parameter.
- `test_row_geometry_has_no_matrix_product_or_numpy_power` reads the source
  of that path, so that a host whose kernels happen to round alike still
  catches a matrix product or a numpy power coming back.
"""

import ast
import json
from pathlib import Path

from conftest import popen_python
from test_golden import CLI_PINS, LIVSHITS_ENTRY, write_scenes

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src" / "billiard_lens"

# runs the invocations given as a JSON object in argv[1] in its directory and
# prints the sha256 of each output file, as JSON
CHILD = """
import hashlib, json, sys
from pathlib import Path
from billiard_lens import cli
digests = {}
for out, invocation in json.loads(sys.argv[1]).items():
    if cli.main(invocation.split()) != 0:
        raise SystemExit(f"failed: {invocation}")
    digests[out] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
print(json.dumps(digests))
"""

FORCED = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)),
}


# output file: invocation, unpinned
LIVSHITS = {**{f"livshits-{command}.json":
               f"{command} --scene livshits.json --entry={LIVSHITS_ENTRY} --out livshits-{command}.json"
               for command in ("regularity", "conjugate")},
            "livshits-validate.json": "validate --scene livshits.json --out livshits-validate.json"}


def test_cli_pins_do_not_depend_on_the_cpu_kernels(tmp_path):
    invocations = json.dumps({**{out: invocation for out, (invocation, _) in CLI_PINS.items()},
                              **LIVSHITS})
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
    assert {k for k in default if forced[k] != default[k]} == set()
    assert {out: default[out] for out in CLI_PINS} == {out: pin for out, (_, pin) in CLI_PINS.items()}


# the methods of the obstacle classes that a lens row, an incidence or a
# `validate` figure runs
METHODS = {"implicit", "_value", "gradient", "_gradient", "_hessian", "root_gradient", "root_hessian",
           "local_geometry", "_local", "_unit_normal", "boundary_points"}
# the other functions on that path, by module: module-level, or Class.method
FUNCTIONS = {
    "geometry": {"_apply", "_gram", "_boundary_points", "_shape_operator", "_principal_curvatures",
                 "surface_frame", "SurfaceFrame.shape_ambient", "validate_scene"},
    "flow": {"_first_crossing", "reflect"},
    "variation": {"_incidence", "transport_basis"},
    "curves": {"_dot", "_speed", "CurveChain.piece_normal", "CurveChain.piece_shape"},
}
# numpy functions that reach a BLAS, or a dispatched power
NUMPY_KERNELS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "power", "float_power"}


def _uses_numpy(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "np" for sub in ast.walk(node))


def _kernel_calls(fn):
    """What in the function's source may reach a BLAS or numpy's dispatched
    power: `@`, a `.dot` method, numpy's products, `np.linalg`, and `**` with
    a numpy expression on either side."""
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            yield f"line {node.lineno}: @"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _uses_numpy(node):
            yield f"line {node.lineno}: ** on numpy values"
        elif isinstance(node, ast.Attribute) and (
                node.attr == "dot" or node.attr == "linalg"
                or (node.attr in NUMPY_KERNELS and _uses_numpy(node.value))):
            yield f"line {node.lineno}: {ast.unparse(node)}"


def _guarded(module: str):
    """{qualified name: function node} of the row-geometry path in a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in FUNCTIONS.get(module, ()):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                name = f"{node.name}.{getattr(fn, 'name', '')}"
                if isinstance(fn, ast.FunctionDef) and (
                        name in FUNCTIONS.get(module, ()) or (module == "geometry" and fn.name in METHODS)):
                    found[name] = fn
    return found


def test_row_geometry_has_no_matrix_product_or_numpy_power():
    checked, offending = set(), {}
    for module in FUNCTIONS:
        for name, fn in _guarded(module).items():
            checked.add(f"{module}.{name}")
            if calls := list(_kernel_calls(fn)):
                offending[f"{module}.{name}"] = calls
    # the path is all there: a rename must not leave it unguarded
    kinds = ["SphereObstacle", "EllipsoidObstacle", "SuperellipsoidObstacle"]
    per_kind = {"_value", "_gradient", "_hessian", "boundary_points"}
    expected = {f"{module}.{name}" for module, names in FUNCTIONS.items() for name in names}
    expected |= {f"geometry.{kind}.{m}" for kind in kinds for m in per_kind}
    expected |= {f"geometry.Obstacle.{m}" for m in METHODS - per_kind}
    assert offending == {}
    assert expected - checked == set()


def test_the_guard_sees_a_matrix_product_and_a_numpy_power():
    source = '''
def f(M, d, y, p):
    a = M @ d
    b = np.abs(y) ** p
    c = np.linalg.norm(d)
    e = d.dot(d)
    g = np.power(y, p)
    return abs(y) ** p
'''
    lines = {int(found.split(":")[0].split()[1]) for found in _kernel_calls(ast.parse(source))}
    assert lines == {3, 4, 5, 6, 7}
