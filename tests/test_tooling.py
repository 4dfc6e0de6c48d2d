"""Guards on what the program binds: the benchmark's tracer targets must
exist, every module-level function and class of ``src/g2forge`` must be
used by the program or named on one allowlist with its reason, and forms
and polynomials are stored only by their trusted constructors."""
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
