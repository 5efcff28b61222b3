"""Make the package importable from the subprocesses the CLI tests start.

Those tests run ``python -m flexctl.cli`` with ``cwd`` set to a temporary
directory, where a relative ``PYTHONPATH=src`` no longer resolves. Putting
the absolute source directory first lets the children import the same
package as the test process.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
