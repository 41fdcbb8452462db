"""Every public name of kvhsim has a caller outside the tests, and every
defaulted parameter has a caller that passes it.

The name guard walks, with `ast`, every public top-level function and class
of `src/kvhsim/*.py` and every public method of those classes. Each must be
referenced by name somewhere in `src/kvhsim/*.py` or `perfbench/*.py`,
outside its own definition: as a name, an attribute, or a string such as
the bindings `perfbench/tracer.py` wraps. A re-export in `__init__.py` is
not a use. ALLOWED maps a name exempt from the guard to its reason; it is
empty, as the references the tests compare against live in
`tests/reference.py`.

The knob guard walks every defaulted parameter of a public function, of a
public method and of an explicit `__init__` of a public class. Some call in
the same files must pass it, by keyword or by position, to a callee of that
name (the class name for `__init__`). A parameter no such call passes has
one value in use, and is a constant. Calls are matched by name alone; a
splatted `*args` counts as one positional argument and a splatted
`**kwargs` passes nothing. Dataclass fields are out of scope: a dataclass
has no explicit `__init__`.
"""

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kvhsim"

ALLOWED = {}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(package=PACKAGE):
    """(key, path, first line, last line) of every public definition."""
    out = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{module}.{node.name}", path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        key = f"{module}.{node.name}.{item.name}"
                        out.append((key, path, item.lineno, item.end_lineno))
    return out


def references(package=PACKAGE, callers=ROOT / "perfbench"):
    """(path, line, name) of every name, attribute and identifier-like string."""
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(callers.glob("*.py"))
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                name = node.value
            else:
                continue
            out.append((path, node.lineno, name))
    return out


def uncalled(package=PACKAGE, callers=ROOT / "perfbench"):
    """Keys of the public definitions referenced nowhere outside themselves."""
    refs = references(package, callers)
    out = []
    for key, path, first, last in definitions(package):
        name = key.rsplit(".", 1)[1]
        if not any(n == name and not (p == path and first <= line <= last) for p, line, n in refs):
            out.append(key)
    return out


def _defaulted(key, callee, fn, skip):
    """(key, callee, parameter, position) of each defaulted parameter of fn;
    position is where a call passes it, after `skip` implicit leading
    parameters, and None for a keyword-only parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(key, callee, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(key, callee, a.arg, None)
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def knobs(package=PACKAGE):
    """(key, callee, parameter, position) of every defaulted parameter the
    knob guard covers."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                out += _defaulted(f"{path.stem}.{node.name}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (_public(item.name) or item.name == "__init__"):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                        callee = node.name if item.name == "__init__" else item.name
                        key = f"{path.stem}.{node.name}.{item.name}"
                        out += _defaulted(key, callee, item, 0 if static else 1)
    return out


def unset_knobs(package=PACKAGE, callers=ROOT / "perfbench"):
    """`key(parameter)` of every covered parameter that no call passes."""
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(callers.glob("*.py"))
    calls = [node for path in paths for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]

    def passes(call, callee, param, position):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        return name == callee and (
            any(k.arg == param for k in call.keywords)
            or (position is not None and position < len(call.args))
        )

    return [f"{key}({param})" for key, callee, param, position in knobs(package)
            if not any(passes(c, callee, param, position) for c in calls)]


def test_every_public_name_has_a_caller():
    unused = [key for key in uncalled() if key not in ALLOWED]
    assert unused == [], f"public names with no caller outside tests: {unused}"


def test_every_defaulted_parameter_is_passed_by_a_caller():
    unset = unset_knobs()
    assert unset == [], f"parameters no caller outside tests passes; make them constants: {unset}"


def test_allowlist_names_existing_definitions():
    keys = {key for key, *_ in definitions()}
    assert sorted(set(ALLOWED) - keys) == []
    assert all(reason.strip() for reason in ALLOWED.values())


@pytest.fixture
def toy(tmp_path):
    """A package `pkg` and a caller directory `bench`, both empty."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "bench").mkdir()
    return tmp_path


def write(path, source):
    path.write_text(textwrap.dedent(source))


def test_guard_flags_a_function_only_its_own_body_names(toy):
    write(toy / "pkg" / "m.py", """
        def used():
            return 1

        def recursive(n):
            return recursive(n - 1) if n else used()
    """)
    assert uncalled(toy / "pkg", toy / "bench") == ["m.recursive"]


def test_guard_skips_private_names_and_counts_methods(toy):
    write(toy / "pkg" / "m.py", """
        class Box:
            def size(self):
                return self._size()

            def _size(self):
                return 0

            def unused(self):
                return 1

        def _helper():
            return Box().size()
    """)
    assert uncalled(toy / "pkg", toy / "bench") == ["m.Box.unused"]


def test_guard_counts_callers_and_binding_strings_but_not_reexports(toy):
    write(toy / "pkg" / "m.py", """
        def timed():
            return 1

        def benched():
            return 2

        def exported():
            return 3
    """)
    write(toy / "pkg" / "__init__.py", "from .m import exported\n")
    write(toy / "bench" / "run.py", """
        import pkg.m
        FUNCTIONS = ["timed"]
        pkg.m.benched()
    """)
    assert uncalled(toy / "pkg", toy / "bench") == ["m.exported"]


def test_knob_guard_flags_a_parameter_no_call_passes(toy):
    write(toy / "pkg" / "m.py", """
        def solve(x, tol=1e-6, *, steps=10, out=None):
            return x

        class Box:
            def __init__(self, size, fill=0.0):
                self.size = size

            def grow(self, by=1):
                return Box(self.size + by, self.size)

            @staticmethod
            def unit(scale=1.0):
                return Box(scale)

        def _private(flag=False):
            return solve(1, 1e-8, out=flag)
    """)
    write(toy / "bench" / "run.py", """
        import pkg.m
        pkg.m.Box.unit()
        pkg.m.Box(1).grow()
    """)
    assert unset_knobs(toy / "pkg", toy / "bench") == [
        "m.solve(steps)", "m.Box.grow(by)", "m.Box.unit(scale)",
    ]
