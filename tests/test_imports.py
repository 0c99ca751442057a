"""Every module-level import in `src/fedchain` is used in its module, every
private function or class defined in `src/fedchain` is used there, every
public function, class and method is referred to by the package or the
benchmark, every public class is constructed or subclassed there, every
optional parameter is passed by one of their calls, no
parameter is passed the same literal by all of them, and every field with
a default of the round's dataclasses is set by one. `import fedchain`
leaves PyYAML unloaded.

No linter ships with the project, so this walks each module's syntax tree
instead. `__init__.py` is skipped for imports: its imports are the
package's exports. A helper that only the tests call belongs in `tests/`,
not in the package.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fedchain"
BENCH = SRC.parent.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def package_sources() -> dict[str, str]:
    """Module name -> source of every module of the package."""
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def bench_sources() -> list[str]:
    """The sources of the benchmark, its tests left out."""
    return [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))
            if not p.name.startswith("test_")]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no `Name` node in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_catches_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(source) == ["line 1: field", "line 2: np"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private (`_name`, not dunder) functions and classes, at any depth,
    that no `Name` or `Attribute` node in any of `sources` refers to."""
    defined, used = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{name} line {line}: {fn}" for name, line, fn in defined if fn not in used]


def test_every_private_definition_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_check_catches_an_unused_private_definition():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "\n"
            "def _only_tests_call_me():\n"
            "    return _used()\n"
            "\n"
            "class _Helper:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "\n"
            "    def _method(self):\n"
            "        return self.x\n"
        ),
        "b.py": "from .a import _Helper\n\nvalue = _Helper()\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py line 4: _only_tests_call_me", "a.py line 11: _method"]


def unreferenced_public_definitions(sources: dict[str, str], others: list[str]) -> list[str]:
    """Public functions and classes at module level, and public methods of
    public classes, in `sources` (module name -> source), whose name no
    `Name` node, `Attribute` node or string constant in `sources` or
    `others` equals. Strings count because the benchmark's tracer names
    what it wraps by string. The check matches names, not bindings: a
    method is referred to by any attribute of its name, on any object."""
    defined, used = [], set()
    for source in [*sources.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    public = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, public) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [(f"{module}.{node.name}.{item.name}", item.name)
                                for item in node.body
                                if isinstance(item, public) and not item.name.startswith("_")]
    return [qualname for qualname, name in defined if name not in used]


# Public names that only the tests call, with the tests that call them.
TEST_ONLY_PUBLIC = {
    "data.save_csv",  # test_data.py TestCsvRoundtrip; test_experiments.py dataset fixtures
    "netsim.Simulator.register",  # test_netsim.py TestSend and TestRunUntilIdle
    "sharedring.transcript_leakage_check",  # test_acceptance.py criterion 2; test_sharedring.py
}


def test_every_public_definition_is_referred_to_outside_the_tests():
    assert set(unreferenced_public_definitions(package_sources(), bench_sources())) == \
        TEST_ONLY_PUBLIC


def test_check_catches_an_unreferenced_public_definition():
    sources = {
        "a": (
            "def used():\n"
            "    return 1\n"
            "\n"
            "def only_tests_call_me():\n"
            "    return used()\n"
            "\n"
            "class Helper:\n"
            "    def traced(self):\n"
            "        return 0\n"
            "\n"
            "    def method(self):\n"
            "        return self.traced()\n"
        ),
        "b": "from .a import Helper\n\nvalue = Helper()\n",
    }
    assert unreferenced_public_definitions(sources, []) == [
        "a.only_tests_call_me", "a.Helper.method"]
    # a string naming it, as the tracer's span table does, is a reference
    assert unreferenced_public_definitions(sources, ["SPANNED = [('a', 'method')]"]) == [
        "a.only_tests_call_me"]


def unconstructed_public_classes(sources: dict[str, str], others: list[str]) -> list[str]:
    """Public classes at module level in `sources` (module name -> source)
    that no call in `sources` or `others` constructs and no class there
    subclasses, as `module.Class`. A call `C(...)` or `x.C(...)`
    constructs `C`, and so does a call `cls(...)` inside a classmethod of
    `C`; a class lists `C` or `x.C` among its bases to subclass it."""
    calls = call_sites([*sources.values(), *others])
    used = set()
    for source in [*sources.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            used.update(b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                        for b in node.bases)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "classmethod"
                        for d in item.decorator_list):
                    cls = item.args.args[0].arg if item.args.args else None
                    if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                           and n.func.id == cls for n in ast.walk(item)):
                        used.add(node.name)
    return [f"{module}.{node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            and node.name not in calls and node.name not in used]


# Public classes that only the tests construct.
UNCONSTRUCTED_PUBLIC = {
    # The event loop runs only the tests' replay oracles until it is retired.
    "netsim.Simulator",
}


def test_every_public_class_is_constructed_outside_the_tests():
    assert set(unconstructed_public_classes(package_sources(), bench_sources())) == \
        UNCONSTRUCTED_PUBLIC


def test_check_catches_an_unconstructed_public_class():
    sources = {
        "a": (
            "class Base(Exception):\n"
            "    pass\n"
            "\n"
            "class Leaf(Base):\n"
            "    pass\n"
            "\n"
            "class Built:\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls()\n"
            "\n"
            "class Named:\n"
            "    pass\n"
            "\n"
            "class OnlyTests:\n"
            "    def clone(self):\n"
            "        return self\n"
            "\n"
            "class _Private:\n"
            "    pass\n"
            "\n"
            "def run():\n"
            "    raise Leaf('x')\n"
        ),
    }
    # a name that is only referred to, not called, constructs nothing
    assert unconstructed_public_classes(sources, ["kinds = [Named, OnlyTests]\n"]) == [
        "a.Named", "a.OnlyTests"]
    # a caller outside the package counts, and a subclass there uses its base
    assert unconstructed_public_classes(
        sources, ["x = m.Named()\nclass Sub(a.OnlyTests):\n    pass\n"]) == []


def call_sites(sources: list[str]) -> dict[str, list[tuple[list[ast.expr], list[ast.keyword]]]]:
    """The `(positional arguments, keywords)` of every call in `sources`, by
    the name called: `f` for `f(...)` and `x.f(...)`. `partial(f, ...)`
    counts as a call of `f`."""
    calls: dict[str, list[tuple[list[ast.expr], list[ast.keyword]]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((args, node.keywords))
    return calls


def passes(call, param: str, position: int | None) -> bool:
    """Whether a `call_sites` call passes `param`: by keyword or `**kwargs`,
    or, unless `position` is None, at that position or by a `*args`."""
    args, keywords = call
    if position is not None and (
            len(args) > position or any(isinstance(a, ast.Starred) for a in args)):
        return True
    return any(k.arg in (param, None) for k in keywords)


def defined_functions(sources: dict[str, str]) -> list[tuple[str, str, ast.arguments, list[str]]]:
    """`(qualname, name calls use, arguments, positional parameters calls
    fill)` of every module-level function and every method of a
    module-level class in `sources` (module name -> source). A call `C(...)`
    uses the name of `C` for `C.__init__`, and fills the positional
    parameters after `self` or `cls` of a method that is not a
    staticmethod."""
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}.{node.name}", node.name, node.args, 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        defined.append((f"{module}.{node.name}.{item.name}", name, item.args,
                                        0 if static else 1))
    return [(qualname, name, arguments,
             [a.arg for a in arguments.posonlyargs + arguments.args][skip:])
            for qualname, name, arguments, skip in defined]


def unpassed_optional_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, of module-level functions and of methods
    of module-level classes in `sources` (module name -> source), that no
    call in `sources` or `callers` passes, as `module.function(parameter)`.

    The check matches names, not bindings, as the one above does: a call
    `f(...)` or `x.f(...)` passes the parameters of every function or
    method named `f`, and a call `C(...)` those of `C.__init__`. It passes
    a parameter by keyword, or by position, counted after `self` or `cls`
    for a method that is not a staticmethod; a `*args` passes every
    positional parameter and a `**kwargs` every parameter. `partial(f,
    ...)` counts as a call of `f`."""
    calls = call_sites([*sources.values(), *callers])
    unpassed = []
    for qualname, name, arguments, positional in defined_functions(sources):
        first = len(positional) - len(arguments.defaults)
        optional = [(p, i) for i, p in enumerate(positional) if i >= first]
        optional += [(a.arg, None) for a, default in
                     zip(arguments.kwonlyargs, arguments.kw_defaults) if default is not None]
        unpassed += [f"{qualname}({param})" for param, position in optional
                     if not any(passes(call, param, position) for call in calls.get(name, []))]
    return unpassed


# Optional parameters that no package or benchmark call passes.
UNPASSED_OPTIONAL = {
    "cli.main(argv)",  # the console entry point calls main() and parses sys.argv
    # The event loop runs only the tests' replay oracles until it is retired.
    "netsim.Simulator.__init__(record_trace)",
    "netsim.Simulator.schedule(payload)",
    "netsim.Simulator.schedule(kind)",
}


def test_every_optional_parameter_is_passed_outside_the_tests():
    assert set(unpassed_optional_parameters(package_sources(), bench_sources())) == \
        UNPASSED_OPTIONAL


def test_check_catches_an_unpassed_optional_parameter():
    sources = {
        "a": (
            "from functools import partial\n"
            "\n"
            "def f(x, scale=1.0, *, eps=1e-6, tag=None):\n"
            "    return x\n"
            "\n"
            "class C:\n"
            "    def __init__(self, n=0, m=0):\n"
            "        self.n = n\n"
            "\n"
            "    def g(self, k=1, j=2):\n"
            "        return k\n"
            "\n"
            "    @staticmethod\n"
            "    def h(k=1):\n"
            "        return k\n"
            "\n"
            "def run(c, opts):\n"
            "    f(1, eps=2.0)\n"
            "    C(3).g(*opts)\n"
            "    C.h(5)\n"
            "    return partial(f, tag='t')\n"
        ),
    }
    assert unpassed_optional_parameters(sources, []) == ["a.f(scale)", "a.C.__init__(m)"]
    # a caller outside the package counts, and `**kwargs` passes every parameter
    assert unpassed_optional_parameters(sources, ["f(0, **kw)\nC(m=1)\n"]) == []


def value_references(sources: list[str]) -> set[str]:
    """The names read as a value rather than called: `f` in `g(f)`, `x = f`
    or `x.f` that is not the function of a call. The function `partial(f,
    ...)` wraps is a call (see `call_sites`)."""
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    called = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            called.add(id(node.func))
            if isinstance(node.func, ast.Name) and node.func.id == "partial" and node.args:
                called.add(id(node.args[0]))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in called}


def argument(call, param: str, position: int | None):
    """The expression a `call_sites` call passes as `param`, by keyword or,
    unless `position` is None, at that position; `...` if a `*args` or
    `**kwargs` may pass it, None if the call leaves it out."""
    args, keywords = call
    if position is not None:
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                return ...
            if i == position:
                return arg
    for keyword in keywords:
        if keyword.arg == param:
            return keyword.value
        if keyword.arg is None:
            return ...
    return None


def constant_arguments(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters of the functions and methods in `sources` (module name ->
    source; see `defined_functions`) that every call in `sources` or
    `callers` passes as the same literal (`ast.Constant`), as
    `module.function(parameter)`. Such a parameter is a constant.

    The check matches names, not bindings, as the ones above do. A function
    named as a value (`value_references`), such as a callback handed to a
    constructor, counts as a call that passes nothing, since whoever calls
    it is not seen. A `*args` or `**kwargs` that may pass a parameter
    passes something other than a literal."""
    calls = call_sites([*sources.values(), *callers])
    values = value_references([*sources.values(), *callers])
    constant = []
    for qualname, name, arguments, positional in defined_functions(sources):
        if name in values or not calls.get(name):
            continue
        params = [(p, i) for i, p in enumerate(positional)]
        params += [(a.arg, None) for a in arguments.kwonlyargs]
        for param, position in params:
            passed = [argument(call, param, position) for call in calls[name]]
            literals = {(type(v.value), v.value) for v in passed if isinstance(v, ast.Constant)}
            if len(literals) == 1 and all(isinstance(v, ast.Constant) for v in passed):
                constant.append(f"{qualname}({param})")
    return constant


def test_no_parameter_is_always_passed_one_literal():
    assert constant_arguments(package_sources(), bench_sources()) == []


def test_check_catches_a_constant_argument():
    sources = {
        "a": (
            "from functools import partial\n"
            "\n"
            "def f(x, scale, *, eps=1e-6, tag=None):\n"
            "    return x\n"
            "\n"
            "def g(x, masked=True):\n"
            "    return x\n"
            "\n"
            "class C:\n"
            "    def __init__(self, n, m=0):\n"
            "        self.n = n\n"
            "\n"
            "    def h(self, k, j=2):\n"
            "        return k\n"
            "\n"
            "def run(c, opts, n):\n"
            "    f(1, 2.0, eps=1, tag='t')\n"
            "    f(2, 2.0, eps=True, tag=n)\n"
            "    C(n, 0).h(3, *opts)\n"
            "    C(n + 1, m=0).h(3, **opts)\n"
            "    return partial(g, masked=False)\n"
        ),
    }
    # `1` and `True` are different literals, a starred call passes what it
    # may pass, and `partial(g, ...)` is a call of `g`
    assert constant_arguments(sources, []) == [
        "a.f(scale)", "a.g(masked)", "a.C.__init__(m)", "a.C.h(k)"]
    # a caller outside the package counts
    assert constant_arguments(sources, ["C(0, m=1)\nx.h(4)\n"]) == [
        "a.f(scale)", "a.g(masked)"]
    # a function named as a value is a call that passes nothing
    assert constant_arguments(sources, ["plan = [f, g]\n"]) == ["a.C.__init__(m)", "a.C.h(k)"]


def unset_dataclass_fields(sources: dict[str, str], callers: list[str],
                           classes: set[str]) -> list[str]:
    """Fields with a default of the dataclasses named in `classes`
    (`module.Class`, defined at module level in `sources`) that no call in
    `sources` or `callers` sets, as `module.Class.field`.

    The check matches names, not bindings, as the one above does: a call
    `C(...)` or `x.C(...)` sets a field of `C` by keyword or by its position
    among the fields, and `replace(obj, ...)` sets a field of every
    dataclass with a field of that name, by keyword. A `*args` in a call of
    `C` sets every field of `C`, and a `**kwargs` in either call every
    field it could."""
    calls = call_sites([*sources.values(), *callers])
    unset = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not (isinstance(node, ast.ClassDef) and f"{module}.{node.name}" in classes):
                continue
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            unset += [
                f"{module}.{node.name}.{item.target.id}"
                for position, item in enumerate(fields)
                if item.value is not None
                and not any(passes(call, item.target.id, position)
                            for call in calls.get(node.name, []))
                and not any(passes(call, item.target.id, None)
                            for call in calls.get("replace", []))
            ]
    return unset


# The dataclasses whose fields are a round's settable values.
ROUND_DATACLASSES = {"chain.RoundSetup", "chain.Task", "fed.Architecture",
                     "fed.TrainConfig"}


def test_every_dataclass_default_is_set_outside_the_tests():
    assert unset_dataclass_fields(package_sources(), bench_sources(), ROUND_DATACLASSES) == []


def test_check_catches_an_unset_dataclass_field():
    sources = {
        "a": (
            "from dataclasses import dataclass, field, replace\n"
            "\n"
            "@dataclass\n"
            "class S:\n"
            "    task: int\n"
            "    n: int = 5\n"
            "    seed: int = 0\n"
            "    knob: float = 1.0\n"
            "    tags: list = field(default_factory=list)\n"
            "\n"
            "@dataclass\n"
            "class Other:\n"
            "    unset: int = 0\n"
            "\n"
            "def run():\n"
            "    s = S(1, 4)\n"
            "    return replace(s, seed=2)\n"
        ),
    }
    assert unset_dataclass_fields(sources, [], {"a.S"}) == ["a.S.knob", "a.S.tags"]
    # a caller outside the package counts, `replace` sets only by keyword,
    # and `**kwargs` sets every field
    assert unset_dataclass_fields(sources, ["S(0, knob=2.0)\nreplace(s, 1, 2, 3, 4)\n"],
                                  {"a.S"}) == ["a.S.tags"]
    assert unset_dataclass_fields(sources, ["replace(s, **kw)\n"], {"a.S", "a.Other"}) == []


def test_import_leaves_yaml_unloaded():
    # PyYAML is loaded only when a config file is read
    # (`ExperimentConfig.from_file`; `tests/test_cli.py` runs `--config`)
    code = "import sys, fedchain; print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
