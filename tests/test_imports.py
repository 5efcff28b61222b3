"""Census of the package's imports: a flexctl module uses only the public
names of another, so an underscore name is private to its module; and scipy
is loaded by `validate`'s oracles alone, never at start-up."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm as scipy_expm

import flexctl
from flexctl import checks

PACKAGE_DIR = Path(flexctl.__file__).parent


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(tree):
    """(line, name) of each private name taken from another flexctl module:
    imported by name, or read as an attribute of an imported flexctl module."""
    uses, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or
                                                 (node.module or "").startswith("flexctl")):
            for alias in node.names:
                if is_private(alias.name):
                    uses.append((node.lineno, alias.name))
                if node.module in (None, "flexctl"):  # `from . import simulator`
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("flexctl"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return uses


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 10
    found = {path.name: private_uses(ast.parse(path.read_text(), str(path))) for path in paths}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_census_sees_private_imports():
    tree = ast.parse("from .controller import GainSet, _law_terms\n"
                     "from flexctl.stability import _v1_margin\n"
                     "from . import simulator, __version__\n"
                     "simulator._helper(simulator.run, simulator.__doc__)\n")
    assert private_uses(tree) == [(1, "_law_terms"), (2, "_v1_margin"), (4, "simulator._helper")]


# Runs in a fresh interpreter, so the test process's own scipy does not count.
# Prints whether scipy is loaded after the import and after each command.
STARTUP_CENSUS = """
import json, sys
from flexctl import cli
seen = {"import": "scipy" in sys.modules}
for name, argv in [
        ("run", ["run", "--duration", "1", "--out", "run.csv"]),
        ("compare", ["compare", "--seeds", "1..2", "--duration", "1", "--out", "cmp"]),
        ("stability-map", ["stability-map", "--n-h", "3", "--n-omega", "4", "--out", "map.csv"]),
        ("validate", ["validate", "--trials", "0"])]:
    seen[name] = [cli.main(argv), "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_is_loaded_only_by_validate(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FLEXCTL_SEED"}
    res = subprocess.run([sys.executable, "-c", STARTUP_CENSUS], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen == {"import": False, "run": [0, False], "compare": [0, False],
                    "stability-map": [0, False], "validate": [0, True]}


def test_checks_expm_is_a_module_level_function_with_scipys_bits():
    # a profiler binds `checks.expm` by name, so it must be a plain function
    assert inspect.isfunction(checks.expm)
    assert (checks.expm.__module__, checks.expm.__qualname__) == ("flexctl.checks", "expm")
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((4, 3, 3))
    assert np.array_equal(checks.expm(stack), scipy_expm(stack))
    assert np.array_equal(checks.expm(stack[1]), scipy_expm(stack[1]))
