"""Route boundary: the routes stay independent, and the Fock route has one
splitter.

The closed-form route and the Fock route share no code: analytic imports
no package module, and no Fock module (fock, optics, detection, bell)
imports analytic. Within the Fock route there is one splitter,
mix_station: the verification oracles' network (optics.run_network) must
reach it rather than build station columns of its own, and reads its pass
out through the one readout in detection, as the station engine does.
Only the cli, which runs the verification oracles, reaches that network.
detection, the home of the readout and of the term order, imports no
package module: the modules that mix read out through it, not the other
way round. An AST scan of the package sources enforces all four.

The same scan keeps one parameter layer: the paper's printed forms are
named only where they are defined (analytic), tested and written (cli)
and exported (__init__), so no search runs on them, and only bell reads
HALF_PI, the offset of the standard quadruple (bell.SettingsQuadruple).

The same scan keeps scipy out of the package: no package module imports
it, at module level or inside a function body, so no command loads it.
scipy is a test dependency only, the oracle the search's Nelder-Mead port
is held to.
"""

import ast
from pathlib import Path

import pytest

import homodyne_bell

SRC = Path(homodyne_bell.__file__).resolve().parent
FOCK_ROUTE = ("fock", "optics", "detection", "bell")
PRINTED_FORMS = {"ClosedFormPoint", "ch_closed", "chsh_closed",
                 "local_prob_printed_variant"}
PRINTED_FORM_READERS = {"analytic", "cli", "__init__"}


def parse_package():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def referenced_names(node):
    """Every name a piece of code reads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def imported_modules(tree):
    """Package modules a module imports (`from .x import`, `from . import x`,
    `import homodyne_bell.x`)."""
    modules = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.ImportFrom):
            if sub.module:
                modules.add(sub.module.rsplit(".", 1)[-1])
            else:
                modules.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Import):
            modules.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return modules


def absolute_imports(tree):
    """Top-level names of the modules a module imports by absolute name,
    anywhere in it, function bodies included."""
    modules = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
            modules.add(sub.module.split(".")[0])
    return modules


def reachable_names(tree, entry):
    """Names referenced by module-level function `entry` and, transitively,
    by the module-level functions it references."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), [entry], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in functions:
            continue
        seen.add(name)
        found = referenced_names(functions[name])
        names |= found
        todo.extend(found)
    return names


def boundary_violations(trees):
    problems = []
    for name, tree in trees.items():
        if name == "cli":
            continue
        if name != "optics" and "run_network" in referenced_names(tree):
            problems.append(f"{name} references run_network")
    if "mix_station" not in reachable_names(trees["optics"], "run_network"):
        problems.append("run_network does not reach mix_station")
    package = (set(trees) - {"__init__"}) | {"homodyne_bell"}
    for name in ("analytic", "detection"):
        for module in sorted(imported_modules(trees[name]) & package):
            problems.append(f"{name} imports {module}")
    for name in FOCK_ROUTE:
        if "analytic" in imported_modules(trees[name]):
            problems.append(f"{name} imports analytic")
    for name, tree in trees.items():
        if "scipy" in absolute_imports(tree):
            problems.append(f"{name} imports scipy")
        names = referenced_names(tree)
        if name not in PRINTED_FORM_READERS:
            for form in sorted(PRINTED_FORMS & names):
                problems.append(f"{name} names {form}")
        if name != "bell" and "HALF_PI" in names:
            problems.append(f"{name} reads HALF_PI")
    return problems


def test_route_boundary_holds():
    assert boundary_violations(parse_package()) == []


@pytest.mark.parametrize("module,source,problem", [
    ("scan", "from .optics import run_network\n", "scan references run_network"),
    ("bell", "from . import optics\nx = optics.run_network\n",
     "bell references run_network"),
    ("fock", "import homodyne_bell.analytic\n", "fock imports analytic"),
    ("bell", "from . import analytic\n", "bell imports analytic"),
    ("optics", "def run_network(config, xi, eta):\n"
               "    return helper(xi) @ config, helper(eta) @ config\n"
               "def helper(theta):\n    return closed_columns(theta)\n"
               "def mix_station(columns, theta):\n    return _pair_block(1)\n",
     "run_network does not reach mix_station"),
    ("analytic", "from .optics import PAIR_WEIGHTS\n", "analytic imports optics"),
    ("analytic", "from . import fock\n", "analytic imports fock"),
    ("detection", "from .analytic import probs_point\n",
     "detection imports analytic"),
    ("detection", "from .optics import mix_station\n", "detection imports optics"),
    ("optics", "from .analytic import probs_point\n", "optics imports analytic"),
    ("scan", "from scipy import optimize\n", "scan imports scipy"),
    ("cli", "if True:\n    import scipy.stats.qmc\n", "cli imports scipy"),
    ("scan", "from .analytic import ch_closed\n", "scan names ch_closed"),
    ("bell", "def f(analytic):\n    return analytic.ClosedFormPoint\n",
     "bell names ClosedFormPoint"),
    ("cli", "from .bell import HALF_PI\n", "cli reads HALF_PI"),
    ("scan", "from . import bell\nx = bell.HALF_PI\n", "scan reads HALF_PI"),
], ids=["import", "attribute", "package_import", "module_import", "helper",
        "analytic_import", "analytic_module_import", "detection_import",
        "detection_package_import",
        "optics_import", "scipy_import", "scipy_nested_import",
        "printed_form_import", "printed_form_attribute", "half_pi_import",
        "half_pi_attribute"])
def test_scan_catches_a_crossing(module, source, problem):
    trees = parse_package()
    if module == "optics":
        trees["optics"] = ast.parse(source)
    else:
        trees[module] = ast.parse(ast.unparse(trees[module]) + "\n" + source)
    assert problem in boundary_violations(trees)


def test_scipy_refused_inside_a_function():
    # an import deferred into a function body still loads scipy when the
    # function runs, so the scan refuses it as well
    trees = parse_package()
    assert not any("scipy" in absolute_imports(tree) for tree in trees.values())
    trees["analytic"] = ast.parse(ast.unparse(trees["analytic"])
                                  + "\ndef f():\n    import scipy\n")
    trees["scan"] = ast.parse(
        ast.unparse(trees["scan"])
        + "\nclass Search:\n    def run(self):\n"
          "        def inner():\n            from scipy.optimize import minimize\n")
    problems = boundary_violations(trees)
    assert "analytic imports scipy" in problems
    assert "scan imports scipy" in problems
