"""Census of the package's internal imports: a flexctl module uses only the
public names of another, so an underscore name is private to its module."""

import ast
from pathlib import Path

import flexctl

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
