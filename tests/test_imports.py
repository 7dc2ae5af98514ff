"""Every name a ``defquant`` module imports is used in that module, every
definition in ``src/`` is reached by the program or kept on purpose, and
the package import loads no process or thread pool module.

The package's ``__init__.py`` is checked as well: it re-exports nothing,
so each module is imported by its own name and no function of the same
name (``weight_mc``) shadows it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defquant

MODULES = sorted(Path(defquant.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench")
                   .glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_import_kept_only_for_re_export_is_caught():
    source = "from .exactpoly import Poly, neumann\n\nx = Poly\n"
    assert unused_imports(source) == [(1, "neumann")]


# -- reachability -------------------------------------------------------

# Definitions the program never reaches, each kept as the reference a test
# checks other code against: qualified name -> the claim it backs.
TEST_REFERENCES = {
    "propagators._phi": "the shared body of the phi_* references below",
    "propagators.phi_h": "finite-difference reference for dphi_h",
    "propagators.phi_disk": "finite-difference reference for dphi_disk",
    "propagators.phi_angle": "phi_h at lambda = 1/2 is the harmonic angle",
    "propagators.phi_shoikhet": "finite-difference reference for "
                                "dphi_shoikhet",
    "propagators.mobius_to_disk": "dphi_disk is the pullback of dphi_h",
    "propagators.mobius_to_h": "the map weight_mc._map_samples writes out "
                               "to share 1 - w with the density",
    "star.hkr_operator": "graph_operator of the wedge fan is the HKR map",
    "star.PolyVectorField.component": "graph_operator equals the sweep "
                                      "over antisymmetric components",
    "exactpoly.cos_jet": "MetricJet gives the sphere's closed-form "
                         "Christoffels",
    "weyl.WeylElement.form_degrees": "the sign rule of the plain product, "
                                     "form part by form part",
    "weyl.WeylElement.form_part": "the sign rule of the plain product, "
                                  "form part by form part",
    "fedosov.deformed_poincare_defect": "the deformed homotopy identity "
                                        "behind fedosov_homotopy and "
                                        "fedosov_taylor",
    "fedosov.fedosov_differential": "the deformed homotopy identity",
    "weyl.WeylElement.mul_hbar": "the deformed homotopy identity",
    "weyl.commutator": "the bracket whose (i/hbar) quotient "
                       "ihbar_commutator takes in one pass",
    "weyl.WeylElement.divide_hbar": "the same (i/hbar) quotient",
    "weyl.WeylElement.with_cap": "the same quotient's cap, and the lifted "
                                 "cap of deformed_poincare_defect",
}

# the console script ``defquant = defquant.cli:main``
ENTRY = "main"


def _names(nodes) -> set:
    """Names, attributes and import aliases under ``nodes``."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _wrapped(tree, modules) -> set:
    """The parts of every attribute path that ``tree`` names as a
    (module, path) pair of string constants, a module of ``modules``
    first: the tuples and calls by which perfbench/tracing.py wraps or
    fetches a function ("weight_mc", "WeightSource.weight").  A span name
    such as "exactpoly.mul" is no such pair and reaches nothing."""
    out = set()
    for node in ast.walk(tree):
        items = (node.elts if isinstance(node, ast.Tuple)
                 else node.args if isinstance(node, ast.Call) else [])[:2]
        if (len(items) == 2
                and all(isinstance(x, ast.Constant)
                        and isinstance(x.value, str) for x in items)
                and items[0].value in modules):
            out.update(items[1].value.split("."))
    return out


def unreached(sources: dict, perfbench: list) -> list:
    """Qualified names of the top-level functions and classes, and public
    methods, in ``sources`` ({module: source}) that nothing reaches.

    The roots are each module's top-level code other than imports and
    definitions, the entry point ``main``, every name in the
    ``perfbench`` sources and every path they wrap (``_wrapped``).  A
    definition is reached when a reached body names it; a class body
    (bases, attributes, private and dunder methods) comes with the class,
    and a public method is reached by its name, whichever class calls
    it."""
    defs = {}
    roots = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                public = [item for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")]
                body = node.decorator_list + node.bases + [
                    item for item in node.body if item not in public]
                defs.setdefault(node.name, []).append(
                    (f"{module}.{node.name}", body))
                for item in public:
                    defs.setdefault(item.name, []).append(
                        (f"{module}.{node.name}.{item.name}", [item]))
            elif isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(
                    (f"{module}.{node.name}", [node]))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    pending = _names(roots) | {ENTRY}
    for source in perfbench:
        tree = ast.parse(source)
        pending |= _names([tree]) | _wrapped(tree, sources)
    seen, reached = set(), set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for qualname, body in defs.get(name, []):
            reached.add(qualname)
            pending |= _names(body) - seen
    return sorted(qualname for entries in defs.values()
                  for qualname, _ in entries if qualname not in reached)


def test_every_definition_is_reached_or_a_test_reference():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreached(sources, [p.read_text() for p in PERFBENCH]) == sorted(
        TEST_REFERENCES)


def test_a_definition_only_dead_code_calls_is_caught():
    source = ("TABLE = [used()]\n\n"
              "def used():\n    return 1\n\n"
              "def main():\n    return 0\n\n"
              "def dead():\n    return helper()\n\n"
              "def helper():\n    return dead()\n\n"
              "def size():\n    return 2\n\n"
              "class Box:\n    def __len__(self):\n        return size()\n\n"
              "    def open(self):\n        return 1\n\n"
              "    def shut(self):\n        return self.open()\n\n"
              "def run():\n    return Box().shut()\n")
    assert unreached({"m": source}, []) == [
        "m.Box", "m.Box.open", "m.Box.shut", "m.dead", "m.helper", "m.run",
        "m.size"]
    # a method perfbench wraps by its (module, path) pair is reached, with
    # its class; a span name reaches nothing, nor a path in another module
    wrapped = 'SPANS = [("m", "Box.shut", "m.dead", None)]\n'
    assert unreached({"m": source}, [wrapped]) == ["m.dead", "m.helper",
                                                   "m.run"]
    fetched = 'obj = _owner("m", "run")\nname = ("other", "dead")\n'
    assert unreached({"m": source}, [fetched]) == ["m.dead", "m.helper"]


def test_the_package_import_starts_no_pool_module():
    """Importing the package, or running an estimate in one process,
    loads neither concurrent.futures nor multiprocessing (which only an
    estimate with workers >= 2 needs)."""
    src = str(Path(defquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    show = ("print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))\n")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, defquant\n" + show
         + "from defquant import graphs, weight_mc as wmc\n"
         "wmc.weight_mc(graphs.graph2(), 0.5, 3 * wmc.CHUNK, 1)\n" + show],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out == "[]\n[]\n"


def test_a_module_import_gives_the_module_not_its_namesake_function():
    import defquant.weight_mc as wm
    from defquant import weight_mc

    assert wm is weight_mc is sys.modules["defquant.weight_mc"]
