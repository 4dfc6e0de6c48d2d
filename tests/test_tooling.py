"""Guards on what the program binds: the benchmark's tracer targets must
exist; every module-level function and class of ``src/g2forge`` must be
used by the program, and every defaulted parameter set by some call of
the program or the benchmark, or be named on an allowlist with its
reason; and forms and polynomials are stored only by their trusted
constructors."""
import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import g2forge

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "g2forge"
BENCHMARK = ROOT / "benchmark"
TRACER = BENCHMARK / "tracer.py"

# Definitions no command reaches, kept with their reason.
KEPT = {
    "product_g2": "the README's product construction phi = omega ^ e7 + sigma",
    "standard_g2_form": "the flat model, the G2 structure every test "
                        "compares against",
    "specialize": "evaluates a symbolic family such as abelian_ext at a "
                  "rational parameter",
}


def tracer_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("span, module_name, path", TARGETS,
                         ids=["%s:%s" % (m, p) for _, m, p in TARGETS])
def test_tracer_target_resolves(span, module_name, path):
    # the lookup of Tracer.install: a method is an entry of its class
    # __dict__, a function an attribute of its module
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        assert attr in vars(getattr(module, owner_name)), (span, path)
    else:
        assert callable(getattr(module, attr, None)), (span, path)


def unreferenced(sources):
    """The module-level functions and classes of ``sources`` (module name
    -> source text) that no AST name or attribute refers to, outside their
    own body."""
    defs, refs, own = {}, Counter(), Counter()
    for module, text in sources.items():
        tree = ast.parse(text)
        refs.update(names_in(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = module
                own[node.name] += names_in(node)[node.name]
    return {"%s.%s" % (defs[name], name) for name in defs
            if refs[name] == own[name]}


def names_in(tree):
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def benchmark_names():
    """What ``benchmark/*.py`` reads of the program: the names it imports
    from g2forge modules and the attributes it reads off those modules."""
    names = set()
    for path in BENCHMARK.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("g2forge"):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    (modules if node.module == "g2forge" else names).add(bound)
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return names


def allowlist():
    """Each definition the program need not use, with the reason it stays."""
    allowed = {name: "exported in g2forge.__all__" for name in g2forge.__all__}
    allowed.update((name, "read by benchmark/*.py")
                   for name in benchmark_names())
    allowed.update((path.partition(".")[0], "traced by benchmark/tracer.py")
                   for _, module, path in TARGETS
                   if module.startswith("g2forge"))
    allowed.update(KEPT)
    return allowed


def test_every_definition_is_used_or_allowed():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    unused = {name.rpartition(".")[2] for name in unreferenced(sources)}
    allowed = allowlist()
    assert not unused - set(allowed), sorted(unused - set(allowed))
    # a kept definition that gained a caller leaves the list
    assert set(KEPT) <= unused, sorted(set(KEPT) - unused)


def test_an_unused_definition_is_flagged():
    source = ("def used():\n    return 1\n\n\n"
              "def unused():\n    return used()\n\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n\n"
              "class Kept:\n    pass\n\n\nKept()\n")
    assert unreferenced({"m": source}) == {"m.unused", "m.recursive"}


# Defaulted parameters that no call of the program sets, kept with their
# reason.
KEPT_DEFAULTS = {
    "survey._isotropy_terms(target)": "the planted target of the n9 "
                                      "search's positive control in "
                                      "tests/test_sampling.py",
}


def defaulted(source):
    """(qualified name, def name, enclosing class or None, self offset,
    parameter, position) for each defaulted parameter in ``source``; the
    offset is 1 for a method
    that takes self or cls, and the position counts it and is None for a
    keyword-only parameter."""
    found = []

    def visit(node, scope, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                where = (".".join(scope + (child.name,)), child.name, cls,
                         int(cls is not None and not static))
                found.extend(where + (p.arg, i)
                             for i, p in enumerate(positional) if i >= first)
                found.extend(where + (k.arg, None) for k, d in
                             zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None)
                visit(child, scope + (child.name,), None)

    visit(ast.parse(source), (), None)
    return found


def unset_defaults(sources, callers):
    """The defaulted parameters of ``sources`` (module name -> source text),
    as module.qualname(param), that no call in ``callers`` (source texts)
    passes by keyword or by position.  Calls are matched by name, as
    ``unreferenced`` matches.  ``C(...)`` calls ``C.__init__`` and
    ``C.__new__`` with self or cls filled in, as does a method called as an
    attribute.  ``*args`` passes every later position, ``**kwargs`` every
    parameter."""
    calls = [node for text in callers for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)]
    unset = set()
    for module, text in sources.items():
        for qualname, name, cls, offset, param, position in defaulted(text):
            ctor = name in ("__init__", "__new__")
            if not any(passes(call, cls if ctor else name, ctor, offset,
                              param, position) for call in calls):
                unset.add("%s.%s(%s)" % (module, qualname, param))
    return unset


def passes(call, target, ctor, offset, param, position):
    """Whether ``call`` calls ``target`` and passes ``param``."""
    func = call.func
    attr = isinstance(func, ast.Attribute)
    if (func.attr if attr else getattr(func, "id", None)) != target:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    first = offset if ctor or attr else 0   # where the call's args begin
    starred = [i for i, a in enumerate(call.args)
               if isinstance(a, ast.Starred)]
    return position < first + len(call.args) or \
        bool(starred) and position >= first + starred[0]


def test_every_default_is_set_or_allowed():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    callers = list(sources.values()) + [path.read_text()
                                        for path in BENCHMARK.glob("*.py")]
    unset = unset_defaults(sources, callers)
    assert unset <= set(KEPT_DEFAULTS), sorted(unset - set(KEPT_DEFAULTS))
    # a kept default that gained a caller leaves the list
    assert set(KEPT_DEFAULTS) <= unset, sorted(set(KEPT_DEFAULTS) - unset)


def test_an_unset_default_is_flagged():
    source = ("def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
              "class C:\n"
              "    def __init__(self, x, y=0):\n        self.x = x\n\n"
              "    def m(self, p, q=0, r=0):\n        return p\n\n\n"
              "def g(*args, z=0):\n    return f(*args)\n\n\n"
              "f(1, 2, d=4)\nC(1).m(0, 1)\ng(**{})\n")
    assert unset_defaults({"m": source}, [source]) == {
        "m.f(c)", "m.C.__init__(y)", "m.C.m(r)"}


# The one place each value type is stored without its public checks.
TRUSTED = {"KForm": "_of", "Polynomial": "_of"}


def untrusted_builds(sources):
    """The ``__new__`` and ``object.__setattr__`` calls of ``sources``
    (module name -> source text) that build a KForm or Polynomial outside
    its trusted constructor, as module.scope.  A call builds one when it
    sits in a method of the type or names the type."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call) and raw_build(child.func):
                types = {scope[0]} if scope else set()
                types |= set(names_in(child))
                for name in set(TRUSTED) & types:
                    if scope != (name, TRUSTED[name]):
                        found.add(".".join((module,) + scope))
            visit(child, module, inner)

    for module, text in sources.items():
        visit(ast.parse(text), module, ())
    return found


def raw_build(func):
    return isinstance(func, ast.Attribute) and (
        func.attr == "__new__" or func.attr == "__setattr__"
        and isinstance(func.value, ast.Name) and func.value.id == "object")


def test_forms_and_polynomials_are_stored_by_their_trusted_constructor():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert untrusted_builds(sources) == set()


def test_an_untrusted_build_is_flagged():
    source = ("class KForm:\n"
              "    @classmethod\n"
              "    def _of(cls, dim, degree, coeffs):\n"
              "        out = object.__new__(cls)\n"
              "        object.__setattr__(out, 'coeffs', coeffs)\n"
              "        return out\n\n"
              "    def zero(cls, dim, degree):\n"
              "        f = cls.__new__(cls)\n"
              "        return f\n\n\n"
              "class Vector:\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'components', ())\n\n\n"
              "def add(a, b):\n"
              "    out = Polynomial.__new__(Polynomial)\n"
              "    object.__setattr__(out, 'terms', {})\n"
              "    return out\n")
    assert untrusted_builds({"m": source}) == {"m.KForm.zero", "m.add"}
