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
way round. detection also defines a pass's output row order
(support_rows), and no other module does: optics builds its mixing table
(_pair_block) and lays out its passes (mix_station) on the rows it reads
from there. Only the cached _pair_block calls support_rows, so every pass
takes its whole layout from that one table, and only optics.oscillators
calls fock.coherent_amplitudes, the one site that builds the stations'
amplitudes (ONLY_CALLERS). Within detection, read_pass is the one pass
reader: no other function of it reads a pass's row layout (support_rows,
FAVORABLE_ROW), so no second readout of the Fock route comes back beside
it. An AST scan of the package sources enforces each of these.

The split report answers from the closed forms and is checked by one
record, bell.evaluate_settings: cli.cmd_split reaches neither
evaluate_quadruple nor run_network. perfbench's verify workload runs
cmd_split after the verification and requires the traced calls of both to
equal exactly the counts the verify report implies (one evaluate_quadruple
per record_ch_chsh_identity point, one run_network per oracle point and
three per no-signalling draw), so one more call from the split fails it.
Nor does the split build an oscillator beside that record: cmd_split
reaches optics.oscillators only through evaluate_settings, since
lambda_cross_terms reads its weights off the Poisson terms.

The same scan keeps one parameter layer: the paper's printed forms are
named only where they are defined (analytic) and where they are tested
and written (cli), so no search runs on them, and only bell reads
HALF_PI, the offset of the standard quadruple (bell.SettingsQuadruple).

The same scan keeps scipy and sympy out of the package: no package module
imports either, at module level or inside a function body, so no command
loads them. Both are test dependencies only: scipy is the oracle the
search's Nelder-Mead port is held to, and sympy proves the closed forms
(tests/test_derivation.py).

And it keeps complex BLAS off every path: a complex product (zgemm) slows
the plain-float libm work after it (detection's module docstring). The @
operator appears only in detection.read_pass and optics.mix_station, both
products of float64 views, and no module calls numpy's other products
(BLAS_CALLS), whose dtype the scan cannot see. numpy.linalg appears only
in optics._mixing_eig, the mixing generator's eigendecomposition built
once per photon total, so no LAPACK call (a complex LU, say) comes back
onto the record or split paths.

And it keeps no dead code: every module-level function, class and constant
of the package is reachable by name from cli.main, following each reached
definition's body across modules, as reachable_names follows one module's
functions. Only __init__'s __version__ and BLAS_THREAD_VARS are exempt:
the package's metadata and its import-time thread setting. And the package
root stays those two: __init__ imports no package module, so it re-exports
nothing and every caller imports a name from the module that defines it.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import homodyne_bell

SRC = Path(homodyne_bell.__file__).resolve().parent
FOCK_ROUTE = ("fock", "optics", "detection", "bell")
PRINTED_FORMS = {"ClosedFormPoint", "ch_closed", "chsh_closed",
                 "local_prob_printed_variant"}
PRINTED_FORM_READERS = {"analytic", "cli"}
# (module, function) of the only @ products, both on float64 views
REAL_PRODUCTS = {("detection", "read_pass"), ("optics", "mix_station")}
BLAS_CALLS = {"vdot", "dot", "matmul", "einsum", "inner", "tensordot"}
# (module, function) of the only numpy.linalg use
LINALG_USERS = {("optics", "_mixing_eig")}
# names of a pass's row layout, which only detection.read_pass reads
PASS_LAYOUT = {"support_rows", "FAVORABLE_ROW"}
# (module, function) of the one call site of each name
ONLY_CALLERS = {"support_rows": ("optics", "_pair_block"),
                "coherent_amplitudes": ("optics", "oscillators")}
# what cli.cmd_split must not reach: perfbench counts their calls exactly
SPLIT_UNCOUNTED = ("evaluate_quadruple", "run_network")
# test dependencies that no package module may import
TEST_ONLY = ("scipy", "sympy")
# module-level names that cli.main need not reach
UNREACHED_EXEMPT = {("__init__", "__version__"), ("__init__", "BLAS_THREAD_VARS")}


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


def module_definitions(tree):
    """A module's module-level functions, classes and constants, by name."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        found[sub.id] = node
    return found


def package_reach(trees, entry, blocked=()):
    """(module, name) of every module-level definition reached from entry,
    a (module, name): the names a reached definition references, matched by
    name against every module's definitions, transitively. Definitions
    named in `blocked` are reached but not followed."""
    definitions, by_name = {}, defaultdict(list)
    for module, tree in trees.items():
        for name, node in module_definitions(tree).items():
            definitions[module, name] = node
            by_name[name].append((module, name))
    seen, todo = set(), [entry]
    while todo:
        key = todo.pop()
        if key in seen or key not in definitions:
            continue
        seen.add(key)
        if key[1] not in blocked:
            for name in referenced_names(definitions[key]):
                todo.extend(by_name[name])
    return seen


def defined_functions(tree):
    """Names of the functions a module defines, nested ones included."""
    return {sub.name for sub in ast.walk(tree) if isinstance(sub, ast.FunctionDef)}


def owners(tree, hit):
    """The innermost function around each node of a module for which
    hit(node) holds ("" at module level), once per node."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append(owner)
            visit(child, owner)

    visit(tree, "")
    return found


def is_matmul(node):
    """An @ or @= product."""
    return (isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult))


def names_linalg(node):
    """A reference to numpy.linalg: as an attribute (np.linalg), an
    imported name (from numpy import linalg, import numpy.linalg) or an
    import from it (from numpy.linalg import det)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "linalg"
    if isinstance(node, ast.alias):
        return "linalg" in node.name.split(".")
    return (isinstance(node, ast.ImportFrom) and node.module is not None
            and "linalg" in node.module.split("."))


def reads_pass_layout(node):
    """A read of a pass's row layout (PASS_LAYOUT) by bare name."""
    return isinstance(node, ast.Name) and node.id in PASS_LAYOUT


def calls(name):
    """A hit for owners: a call of `name`, as a bare name or an attribute."""
    def hit(node):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return hit


def called_names(tree):
    """Names of everything a module calls, as a bare name or an attribute."""
    return {sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
            for sub in ast.walk(tree) if isinstance(sub, ast.Call)
            and isinstance(sub.func, (ast.Name, ast.Attribute))}


def boundary_violations(trees):
    problems = []
    for name, tree in trees.items():
        if name != "detection" and "support_rows" in defined_functions(tree):
            problems.append(f"{name} defines support_rows")
    for entry in ("_pair_block", "mix_station"):
        if "support_rows" not in reachable_names(trees["optics"], entry):
            problems.append(f"{entry} does not read support_rows")
    for name, tree in trees.items():
        if name == "cli":
            continue
        if name != "optics" and "run_network" in referenced_names(tree):
            problems.append(f"{name} references run_network")
    if "mix_station" not in reachable_names(trees["optics"], "run_network"):
        problems.append("run_network does not reach mix_station")
    for owner in sorted(set(owners(trees["detection"], reads_pass_layout))
                        - {"", "read_pass"}):
        problems.append(f"detection.{owner} reads a pass")
    split_reaches = reachable_names(trees["cli"], "cmd_split")
    for name in SPLIT_UNCOUNTED:
        if name in split_reaches:
            problems.append(f"cli.cmd_split reaches {name}")
    if ("optics", "oscillators") in package_reach(
            trees, ("cli", "cmd_split"), blocked={"evaluate_settings"}):
        problems.append("cli.cmd_split reaches oscillators outside evaluate_settings")
    reached = package_reach(trees, ("cli", "main"))
    for module, tree in trees.items():
        for name in sorted(module_definitions(tree)):
            if (module, name) not in reached | UNREACHED_EXEMPT:
                problems.append(f"{module}.{name} is unreachable from cli.main")
    package = (set(trees) - {"__init__"}) | {"homodyne_bell"}
    for name in ("analytic", "detection", "__init__"):
        for module in sorted(imported_modules(trees[name]) & package):
            problems.append(f"{name} imports {module}")
    for name in FOCK_ROUTE:
        if "analytic" in imported_modules(trees[name]):
            problems.append(f"{name} imports analytic")
    for name, tree in trees.items():
        for dependency in TEST_ONLY:
            if dependency in absolute_imports(tree):
                problems.append(f"{name} imports {dependency}")
        names = referenced_names(tree)
        if name not in PRINTED_FORM_READERS:
            for form in sorted(PRINTED_FORMS & names):
                problems.append(f"{name} names {form}")
        if name != "bell" and "HALF_PI" in names:
            problems.append(f"{name} reads HALF_PI")
        for owner in owners(tree, is_matmul):
            if (name, owner) not in REAL_PRODUCTS:
                problems.append(f"{name}.{owner} uses @")
        for owner in owners(tree, names_linalg):
            if (name, owner) not in LINALG_USERS:
                problems.append(f"{name}.{owner} uses numpy.linalg")
        for call in sorted(BLAS_CALLS & called_names(tree)):
            problems.append(f"{name} calls {call}")
        for callee, site in ONLY_CALLERS.items():
            for owner in sorted(set(owners(tree, calls(callee)))):
                if (name, owner) != site:
                    problems.append(f"{name}.{owner} calls {callee}")
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
    ("optics", "from .detection import read_pass\n"
               "def support_rows(cutoff):\n"
               "    return [(t, c) for t in range(cutoff + 2) for c in range(t + 1)]\n"
               "def _pair_block(cutoff):\n    return support_rows(cutoff)\n"
               "def mix_station(lo, angles):\n    return support_rows(1)\n"
               "def run_network(config, xi, eta):\n"
               "    return read_pass(mix_station(config, xi), 1)\n",
     "optics defines support_rows"),
    ("optics", "from .detection import read_pass, support_rows\n"
               "def _pair_block(cutoff):\n    return [(t, t) for t in range(cutoff)]\n"
               "def mix_station(lo, angles):\n"
               "    return _pair_block(1), support_rows(1)\n"
               "def run_network(config, xi, eta):\n"
               "    return read_pass(mix_station(config, xi), 1)\n",
     "_pair_block does not read support_rows"),
    ("optics", "from .detection import read_pass, support_rows\n"
               "def _pair_block(cutoff):\n    return support_rows(cutoff)\n"
               "def mix_station(lo, angles):\n"
               "    prod = _pair_block(lo.shape[1] - 1)\n"
               "    return prod, support_rows(lo.shape[1] - 1)[0]\n"
               "def run_network(config, xi, eta):\n"
               "    return read_pass(mix_station(config, xi), 1)\n",
     "optics.mix_station calls support_rows"),
    ("cli", "def _input_norm(config):\n"
            "    lo = fock.coherent_amplitudes((1.0, 1.0), 4)\n"
            "    return (abs(lo) ** 2).sum()\n",
     "cli._input_norm calls coherent_amplitudes"),
    ("detection", "def station_blocks(images, cutoff, alice):\n"
                  "    return images[FAVORABLE_ROW], support_rows(cutoff)\n",
     "detection.station_blocks reads a pass"),
    ("cli", "def cmd_split(cfg, args):\n"
            "    return evaluate_quadruple(cfg.experiment(), reference_quadruple())\n",
     "cli.cmd_split reaches evaluate_quadruple"),
    ("cli", "def cmd_split(cfg, args):\n    return _oracle(cfg.experiment())\n"
            "def _oracle(config):\n    return run_network(config, 0.1, 0.2)\n",
     "cli.cmd_split reaches run_network"),
    ("analytic", "from .optics import PAIR_WEIGHTS\n", "analytic imports optics"),
    ("analytic", "from . import fock\n", "analytic imports fock"),
    ("detection", "from .analytic import probs_point\n",
     "detection imports analytic"),
    ("detection", "from .optics import mix_station\n", "detection imports optics"),
    ("optics", "from .analytic import probs_point\n", "optics imports analytic"),
    ("scan", "from scipy import optimize\n", "scan imports scipy"),
    ("cli", "if True:\n    import scipy.stats.qmc\n", "cli imports scipy"),
    ("analytic", "import sympy\n", "analytic imports sympy"),
    ("analytic", "def proof(x):\n    from sympy import simplify\n"
                 "    return simplify(x)\n", "analytic imports sympy"),
    ("scan", "from .analytic import ch_closed\n", "scan names ch_closed"),
    ("bell", "def f(analytic):\n    return analytic.ClosedFormPoint\n",
     "bell names ClosedFormPoint"),
    ("cli", "from .bell import HALF_PI\n", "cli reads HALF_PI"),
    ("scan", "from . import bell\nx = bell.HALF_PI\n", "scan reads HALF_PI"),
    ("bell", "def norm(u, v):\n    return u @ v\n", "bell.norm uses @"),
    ("detection", "def read_pass(images, alice):\n    r = images.T @ images\n"
                  "    def square(x):\n        x @= x\n", "detection.square uses @"),
    ("cli", "import numpy as np\nloss = 1.0 - np.vdot(state, state).real\n",
     "cli calls vdot"),
    ("bell", "from numpy import einsum\nx = einsum('ij,ij', a, b)\n",
     "bell calls einsum"),
    ("bell", "import numpy as np\ndef concurrence(psi):\n"
             "    return 2.0 * abs(np.linalg.det(psi))\n",
     "bell.concurrence uses numpy.linalg"),
    ("optics", "import numpy as np\ndef _mixing_eig(total):\n"
               "    return np.linalg.eigh(total)\n"
               "def mix_station(lo, angles):\n"
               "    from numpy.linalg import norm\n    return norm(lo)\n",
     "optics.mix_station uses numpy.linalg"),
    ("bell", "def lambda_cross_terms(config):\n    return oscillators(config)\n",
     "cli.cmd_split reaches oscillators outside evaluate_settings"),
    ("fock", "def orphan(alpha):\n    return alpha\n",
     "fock.orphan is unreachable from cli.main"),
    ("fock", "def orphan():\n    return helper()\ndef helper():\n    return 1\n",
     "fock.helper is unreachable from cli.main"),
    ("analytic", "class Orphan:\n    pass\n",
     "analytic.Orphan is unreachable from cli.main"),
    ("bell", "UNUSED_LIMIT = 3\n", "bell.UNUSED_LIMIT is unreachable from cli.main"),
    ("scan", "SPARE: int = 4\n", "scan.SPARE is unreachable from cli.main"),
    ("__init__", "from .scan import maximize_chsh\n", "__init__ imports scan"),
    ("__init__", "from .analytic import ch_closed\n", "__init__ names ch_closed"),
], ids=["import", "attribute", "package_import", "module_import", "helper",
        "row_order_copy", "row_order_inline", "row_layout_second_lookup",
        "second_amplitude_build", "second_pass_reader",
        "split_record_counted", "split_network_counted",
        "analytic_import", "analytic_module_import", "detection_import",
        "detection_package_import",
        "optics_import", "scipy_import", "scipy_nested_import",
        "sympy_import", "sympy_nested_import",
        "printed_form_import", "printed_form_attribute", "half_pi_import",
        "half_pi_attribute", "matmul_outside_real_products",
        "matmul_nested_in_read_pass", "vdot_call", "einsum_call",
        "linalg_det", "linalg_import_outside_mixing_eig",
        "split_second_oscillator_build", "unreachable_function",
        "unreachable_helper", "unreachable_class", "unreachable_constant",
        "unreachable_annotated_constant", "root_reexport",
        "root_printed_form_reexport"])
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
