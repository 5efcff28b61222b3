"""Make the package importable from the subprocesses the CLI tests start,
and hold them to the test process's warning rule.

Those tests run ``python -m flexctl.cli`` with ``cwd`` set to a temporary
directory, where a relative ``PYTHONPATH=src`` no longer resolves. Putting
the absolute source directory first lets the children import the same
package as the test process. ``pyproject.toml``'s ``filterwarnings`` turns a
numpy ``RuntimeWarning`` into an error in the test process only; the same
rule in ``PYTHONWARNINGS`` (last, so it takes precedence) makes it one in
the children too, so a command that overflows fails its test.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
os.environ["PYTHONWARNINGS"] = ",".join(
    [w for w in os.environ.get("PYTHONWARNINGS", "").split(",") if w] + ["error::RuntimeWarning"])
