"""No dead code: every module-level function, class and constant of the
package, and every method and property of its classes, is named by the
package itself or by the benchmark, except a short list of names that only
the tests and the library's users call."""

import ast
from collections import Counter
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: why it stays although no code in src/ or perfbench/ names it
ALLOWED = {
    "flow.first_hit": ("criterion 7's focal-chord check traces from a point inside the ball, and "
                       "test_flow's convex-obstacle skip takes it as its oracle"),
    "geometry.concave_mirror_obstacle": "criterion 4's crescent and a pinned scene of the file format",
}


def _mentions(node):
    """Every identifier, attribute and string constant in the tree of node:
    what the code names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


# module.Class.method: why it stays although no code in src/ or perfbench/ names it
ALLOWED_METHODS = {
    "variation.JacobiFrame.basis": "a frame's basis read as an array: the frame holds its columns as floats",
    "rng.Xoshiro256StarStar.next_u64": "the raw 64-bit stream, which the frozen regression vector pins",
    "rng.Xoshiro256StarStar.unit_angle": "the tests' one-draw angle; the package takes its draws in blocks",
}


def _trees():
    """(the benchmark's modules, as trees; the package's modules by name, as
    trees). __init__ is left out: its re-exports do not count as a use."""
    bench = [ast.parse(path.read_text()) for path in sorted(ROOT.glob("perfbench/*.py"))]
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(ROOT.glob("src/billiard_lens/*.py")) if path.name != "__init__.py"}
    return bench, modules


def _named():
    """(the package's modules by name, as trees; the count of each name the
    package and the benchmark mention). The benchmark names some callables
    by string (the tracer wraps them by name)."""
    bench, modules = _trees()
    return modules, Counter(chain.from_iterable(map(_mentions, [*bench, *modules.values()])))


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    # a name inside its own definition is no use of it
    modules, named = _named()
    unused = {f"{module}.{node.name}" for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and named[node.name] == Counter(_mentions(node))[node.name]}
    assert unused == set(ALLOWED)


def test_every_method_is_named_by_the_package_or_the_benchmark():
    # methods and properties of the package's classes, dunders aside: a name
    # inside any definition of that name (an override calling its base, a
    # recursion) is no use of it
    modules, named = _named()
    definitions = {}
    for module, tree in modules.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    definitions.setdefault(node.name, []).append((f"{module}.{cls.name}", node))
    unused = {f"{owner}.{name}" for name, defs in definitions.items()
              if named[name] == sum(Counter(_mentions(node))[name] for _, node in defs)
              for owner, _ in defs}
    assert unused == set(ALLOWED_METHODS)


def _names_of(module: str, tree):
    """The names of the package module `module` that another module's tree
    uses: attributes of the name `module`, and names imported from it."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id == module:
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[-1] == module:
            yield from (alias.name for alias in sub.names)


def test_every_module_constant_is_named_by_the_package_or_the_benchmark():
    # a module-level assignment to a name is used by its own module outside
    # the assignment, or by another module through the module's name: a
    # constant of the same name elsewhere is no use of it
    bench, modules = _trees()
    outside = {module: set(chain.from_iterable(_names_of(module, other)
                                               for other in [*bench, *modules.values()]
                                               if other is not tree))
               for module, tree in modules.items()}
    unused = {f"{module}.{target.id}" for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and target.id not in outside[module]
              and Counter(_mentions(tree))[target.id] == Counter(_mentions(node))[target.id]}
    assert unused == set()
