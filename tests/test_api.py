"""Every name the package exports, and every public function and class of
every module, has a caller inside the package.

A public name that only tests use is a proof device or dead code: it should
either serve the package or go.  The check scans the package's modules other
than ``__init__.py`` and resolves each use to the module that defines the
name: a bare name is a use of ``from .x import y``'s ``y`` in ``x``, or of the
module's own top-level ``y`` outside ``y``'s definition; ``module.y`` is a use
of ``y`` in the module that ``from . import module`` binds.  A parameter or
local variable of the same name hides the name in its function, so it is no
use.

The public members of every public class (methods, properties, cached
properties and classmethods, not dataclass fields) are held to the same rule
by name: each needs an ``.member`` attribute use somewhere in the package.
Members are matched by name only, not by the type of the receiver, so a
member that only tests call still passes while the package uses a
same-named member of any other class; such a member has to be found by
reading its receivers.

So are the optional parameters of every public function, method and
constructor: each needs two values in use, so some package call to a
callable of that name must leave it out, and another must pass it, by
position, by keyword or by unpacking, as an expression unlike its default.
"""

import ast
import dataclasses
import importlib
import inspect
import textwrap
from functools import cached_property
from pathlib import Path

import twoscale

PACKAGE = Path(twoscale.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def exported_names() -> set:
    """(module, name) of every ``from .module import name`` in ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def public_definitions(sources: dict) -> set:
    """(module, name) of every top-level function and class of ``sources`` not ``_``-prefixed."""
    return {(module, stmt.name) for module, source in sources.items() for stmt in ast.parse(source).body
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_")}


def bound_names(scope) -> set:
    """The parameters of a function and every name assigned inside it."""
    args = scope.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
    stored = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return {a.arg for a in params} | stored


def module_uses(module: str, source: str) -> set:
    """(defining module, name) of every package name that ``source`` uses."""
    tree = ast.parse(source)
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    imported[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    top = {stmt.name for stmt in tree.body if isinstance(stmt, DEFINITIONS)}
    uses = set()

    def visit(node, hidden):
        if isinstance(node, SCOPES):
            hidden = hidden | bound_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in hidden:
            if node.id in imported:
                uses.add(imported[node.id])
            elif node.id in top:
                uses.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, hidden)

    for stmt in tree.body:
        visit(stmt, {stmt.name} if isinstance(stmt, DEFINITIONS) else set())
    return uses


def used_names(sources: dict) -> set:
    return set().union(*(module_uses(module, source) for module, source in sources.items()))


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def public_members(cls) -> set:
    """Names of the methods, properties, cached properties and classmethods that ``cls``
    defines itself, not ``_``-prefixed."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_") and name not in fields
        and (inspect.isfunction(value) or isinstance(value, (property, cached_property, classmethod, staticmethod)))
    }


def attribute_names(sources: dict) -> set:
    """Every ``.name`` attribute that ``sources`` use."""
    return {node.attr for source in sources.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def unused_members(sources: dict) -> list:
    used = attribute_names(sources)
    return sorted(
        f"{name}.{member}"
        for module, name in public_definitions(sources)
        if inspect.isclass(cls := getattr(importlib.import_module(f"twoscale.{module}"), name))
        for member in public_members(cls) - used
    )


def test_every_exported_name_is_used_inside_the_package():
    assert sorted(exported_names() - used_names(package_sources())) == []


def test_every_public_function_and_class_of_every_module_is_used_inside_the_package():
    sources = package_sources()
    assert sorted(public_definitions(sources) - used_names(sources)) == []


def test_every_public_member_of_a_public_class_is_used_inside_the_package():
    assert unused_members(package_sources()) == []


def test_public_members_are_methods_properties_and_classmethods_not_fields():
    @dataclasses.dataclass(frozen=True)
    class Sample:
        size: int
        step: float = 0.5

        def __post_init__(self):
            pass

        def method(self):
            return self._helper()

        def _helper(self):
            return self.size

        @property
        def prop(self):
            return self.step

        @classmethod
        def build(cls):
            return cls(1)

    assert public_members(Sample) == {"method", "prop", "build"}
    assert attribute_names({"m": "def f(x):\n    return x.prop(x.method)\n"}) == {"prop", "method"}
    # a same-named function or variable is no attribute use
    assert attribute_names({"m": "def build(prop):\n    return build(prop)\n"}) == set()


def test_a_same_named_local_is_no_use():
    # a parameter named like an export that nothing calls used to hide it
    sources = {
        "grids": "def rescale(grid):\n    return rescale(grid[1:]) if grid else grid\n",
        "synthesis": "def _sorted_points(nums, rescale):\n    return nums, rescale\n",
        "io": "def f(x):\n    rescale = x\n    return [rescale for rescale in x], lambda rescale: rescale\n",
    }
    assert used_names(sources) == set()
    # an import, a module attribute and a module-level call are uses
    for caller in ("from .grids import rescale\n\ndef f(x):\n    return rescale(x)\n",
                   "from .grids import rescale as r\n\nr(1)\n",
                   "from . import grids as g\n\ndef f(x):\n    return g.rescale(x)\n"):
        assert used_names({**sources, "cli": caller}) == {("grids", "rescale")}
    # so is a call from another function of the defining module
    assert used_names({"grids": sources["grids"] + "\ndef g(x):\n    return rescale(x)\n"}) == {("grids", "rescale")}


# cli.main's argv is for callers outside the package: the console script
# calls it with none, and the benchmark harness and the tests pass a list
ONE_VALUED_EXEMPT = {"main(argv)"}
# what a call with a * or ** argument passes for each parameter: some value other than the default
UNPACKED = object()


def written_defaults(obj) -> dict:
    """{parameter: its default as written, unparsed} of the function ``obj``, or of the class
    ``obj``'s own ``__init__`` or else its dataclass fields, where ``field(default=x)`` is
    written ``x``."""
    node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
    if isinstance(node, ast.ClassDef):
        init = [stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"]
        if init:
            node = init[0]
        else:
            written = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value = stmt.value
                    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
                        value = next((k.value for k in value.keywords if k.arg == "default"), value)
                    written[stmt.target.id] = ast.unparse(value)
            return written
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
             *zip(args.kwonlyargs, args.kw_defaults)]
    return {a.arg: ast.unparse(default) for a, default in pairs if default is not None}


def optional_parameters_of(name: str, obj) -> list:
    """(callable name, parameter, position, default as written) of every parameter with a default
    of the function ``obj``, or of the class ``obj``'s constructor and of its public methods,
    classmethods and staticmethods.  The position counts the arguments that a call by that name
    writes before the parameter, so a method's leaves out self; it is None for a keyword-only
    parameter."""
    found = []

    def add(name, params, source):
        for position, p in enumerate(params):
            if p.default is not inspect.Parameter.empty:
                positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                found.append((name, p.name, position if positional else None, written_defaults(source)[p.name]))

    if not inspect.isclass(obj) or "__init__" in vars(obj):  # an inherited constructor is not the class's own
        add(name, inspect.signature(obj).parameters.values(), obj)
    for member in public_members(obj) if inspect.isclass(obj) else ():
        value = vars(obj)[member]
        if isinstance(value, (classmethod, staticmethod)):
            add(member, inspect.signature(getattr(obj, member)).parameters.values(), value.__func__)
        elif inspect.isfunction(value):
            add(member, list(inspect.signature(value).parameters.values())[1:], value)
    return found


def optional_parameters(sources: dict) -> list:
    """``optional_parameters_of`` every public function and class of ``sources``."""
    return [found for module, name in public_definitions(sources)
            for found in optional_parameters_of(name, getattr(importlib.import_module(f"twoscale.{module}"), name))]


def call_arguments(sources: dict) -> dict:
    """{called name: [(positional arguments, {keyword: argument})]} of every call in ``sources``,
    keyed by the bare or attribute name it calls, each argument unparsed.  A call with a ``*`` or
    ``**`` argument is ``UNPACKED`` instead."""
    calls = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            call = UNPACKED if unpacks else ([ast.unparse(a) for a in node.args],
                                             {k.arg: ast.unparse(k.value) for k in node.keywords})
            calls.setdefault(name, []).append(call)
    return calls


def passed_value(call, param: str, position):
    """What ``call`` passes for the parameter: its argument unparsed, ``UNPACKED``, or None
    when the call leaves it out."""
    if call is UNPACKED:
        return UNPACKED
    args, keywords = call
    if param in keywords:
        return keywords[param]
    return args[position] if position is not None and position < len(args) else None


def one_valued(optional: list, calls: dict) -> list:
    """"name(parameter)" of every optional parameter that the calls by its callable's name do not
    both leave at its default, by omission, and set to an expression other than the default's."""
    flagged = []
    for name, param, position, default in optional:
        values = [passed_value(call, param, position) for call in calls.get(name, [])]
        if None not in values or all(value in (None, default) for value in values):
            flagged.append(f"{name}({param})")
    return sorted(flagged)


def test_every_optional_parameter_has_two_values_in_use_inside_the_package():
    """A default that every package call leaves alone, or that every call overrides, or that
    calls only restate, is one value in use: it becomes a constant or a required parameter.  So
    each optional parameter needs a package call that omits it and another that passes an
    expression unlike the default's.  Calls are matched to callables by name only, like the
    members above.  ``cli.main``'s ``argv`` is exempt because its callers are outside the
    package: the console script, the benchmark harness and the tests."""
    sources = package_sources()
    found = one_valued(optional_parameters(sources), call_arguments(sources))
    assert [name for name in found if name not in ONE_VALUED_EXEMPT] == []


def test_a_parameter_is_passed_by_position_by_keyword_or_by_unpacking():
    optional = [("f", "b", 1, "0"), ("f", "c", None, "0"), ("g", "y", 1, "0")]
    # each caller module also calls f(1) and C().g(1), leaving every parameter at its default
    callers = {
        "": ["f(b)", "f(c)", "g(y)"],
        "f(1, 2)\nC().g(1, 2)\n": ["f(c)"],
        "f(1, c=3)\nC().g(1, y=2)\n": ["f(b)"],
        # a keyword-only parameter is never passed by position
        "f(1, 2, 3)\n": ["f(c)", "g(y)"],
        "f(*xs)\nC().g(1, **kw)\n": [],
    }
    for caller, expected in callers.items():
        calls = call_arguments({"cli": "f(1)\nC().g(1)\n" + caller})
        assert one_valued(optional, calls) == expected, caller


def test_a_parameter_needs_a_call_that_omits_it_and_one_that_passes_another_value():
    optional = [("f", "b", 1, "EXACT_TOL"), ("f", "c", None, "None")]
    callers = {
        # passing the default's own expression is no override, by position or by keyword
        "f(1)\nf(1, EXACT_TOL, c=None)\nf(1, b=EXACT_TOL)\n": ["f(b)", "f(c)"],
        # omission counts as the default, so every call overriding is one value too
        "f(1, 1e-07, c=x)\nf(1, b=2.0, c=y)\n": ["f(b)", "f(c)"],
        "f(1)\nf(1, 1e-07)\n": ["f(c)"],
        # a keyword-only parameter is passed by keyword alone
        "f(1)\nf(1, 2, 3)\nf(1, c=z)\n": [],
        # an unpacking passes a value unlike the default, but never leaves it
        "f(1)\nf(*xs)\n": [],
        "f(**kw)\nf(1, b=2.0, c=y)\n": ["f(b)", "f(c)"],
    }
    for caller, expected in callers.items():
        assert one_valued(optional, call_arguments({"cli": caller})) == expected, caller


def test_a_method_position_leaves_out_self_and_a_classmethod_position_cls():
    @dataclasses.dataclass
    class Spec:
        size: int
        step: float = 0.5

        def scaled(self, by=2):
            return self

        @classmethod
        def make(cls, size, step=0.5):
            return cls(size, step)

    found = set(optional_parameters_of("Spec", Spec))
    assert found == {("Spec", "step", 1, "0.5"), ("scaled", "by", 0, "2"), ("make", "step", 1, "0.5")}
    # an exception class inherits its constructor, which is no parameter of its own
    assert optional_parameters_of("Failure", type("Failure", (ValueError,), {})) == []

    # a class's own constructor gives its defaults as written there
    half = 0.25

    class Sampler:
        def __init__(self, size, step=half * 2):
            self.size, self.step = size, step

    assert optional_parameters_of("Sampler", Sampler) == [("Sampler", "step", 1, "half * 2")]
