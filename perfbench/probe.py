"""Set-up probe: a fresh interpreter imports ``flexctl.cli`` and performs the
workload's first operation, then exits with that operation's exit code.

``run.py`` times this process from spawn to exit; that is what a command-line
user pays on every invocation, including the first (cold) LAPACK call.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import flexctl.cli  # noqa: F401  (the import is part of what is timed)
    from workloads import Workload

    workload = Workload(args.workload, args.seed, args.work)
    workload.prepare(pool=1)
    code, _ = workload.execute(workload.op(0))
    return code


if __name__ == "__main__":
    sys.exit(main())
