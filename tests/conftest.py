"""The one way the tests call the CLI, and the environment of the few tests
that start a fresh interpreter.

``run_cli`` runs ``cli.main`` in process: in a given working directory, with
FLEXCTL_SEED unset unless the caller sets it, stdout and stderr captured,
and argparse's ``SystemExit`` turned into the exit code. The CLI tests and
the byte-identity gate both call it.

Three tests start ``python`` itself, because a fresh interpreter is their
point: ``test_acceptance.py``'s criterion 8 (two consecutive CLI runs),
``test_imports.py``'s scipy start-up census, and ``test_cli.py``'s
``python -m flexctl.cli`` test (``sys.exit``, the environment, stderr).
They run with ``cwd`` set to a temporary directory, where a relative
``PYTHONPATH=src`` no longer resolves, so the absolute source directory is
put first. ``pyproject.toml``'s ``filterwarnings`` turns a numpy
``RuntimeWarning`` into an error in the test process only; the same rule in
``PYTHONWARNINGS`` (last, so it takes precedence) makes it one in the
children too.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from flexctl import cli

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
os.environ["PYTHONWARNINGS"] = ",".join(
    [w for w in os.environ.get("PYTHONWARNINGS", "").split(",") if w] + ["error::RuntimeWarning"])


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv, cwd, env_extra=None) -> CliResult:
    """`flexctl argv` in process, run in cwd with FLEXCTL_SEED unset and
    env_extra set; the working directory and environment are restored."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    with mock.patch.dict(os.environ):
        os.environ.pop("FLEXCTL_SEED", None)
        os.environ.update(env_extra or {})
        os.chdir(cwd)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
            code = 0 if exc.code is None else exc.code
        finally:
            os.chdir(previous)
    return CliResult(code, out.getvalue(), err.getvalue())
