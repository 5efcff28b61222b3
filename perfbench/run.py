"""flexctl benchmark: one closed-loop caller issuing in-process operations.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_hold --seed 1 --seconds 15 --trace 0

One process and one caller: each operation starts only after the previous one
has completed and been checked. Operations call ``flexctl.cli.main`` (or
``simulator.rk4_crosscheck``, which has no command) in this process; their
checks run outside the timed region. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced pass. Times are reported at a reference
machine speed (``calibrate.py``); the wall-clock figures are printed on the
line before. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
SETUP_KERNEL_REPEATS = 3
SETUP_TIMEOUT_S = 20
# stop measuring once wall time, checks and calibration included, passes this
# multiple of --seconds, so a run ends in time however short its operations
WALL_CAP = 3
# operations per second the traced run budgets for; fixes its operation count
# from --seconds alone so every count it reports repeats for a given seed
TRACE_OPS_PER_S = {"sweep_hold": 9, "sweep_perstep": 9, "analysis_map": 15,
                   "analysis_validate": 5, "analysis_rk4": 8}


class Runner:
    """Executes and checks operations, counting attempts and failures."""

    def __init__(self, workload, checker):
        self.workload = workload
        self.checker = checker
        self.calibration = Calibration()
        self.tracer = None  # set for the traced pass; records spans during execute only
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None

    def run(self, op) -> tuple[float, int, int]:
        """Time one operation, then check it.

        Returns (wall seconds, calibration mark, work units).
        """
        self.attempted += 1
        self.calibration.refresh()
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            code, stdout = self.workload.execute(op)
        except Exception:
            elapsed = perf_counter() - start
            self._fail(op, traceback.format_exc())
            return elapsed, self.calibration.mark(elapsed), 0
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        elapsed = perf_counter() - start
        mark = self.calibration.mark(elapsed)
        case = self.workload.rk4_cases[op.case] if op.case >= 0 else None
        try:
            error, work = self.checker.check(self.workload.name, op, code, stdout, case)
        except Exception:
            error, work = traceback.format_exc(), 0
        if error is None and op.index == 0:
            error = self._same_as_reference(op, stdout)
        if error is not None:
            self._fail(op, error)
        return elapsed, mark, work

    def _same_as_reference(self, op, stdout: str) -> str | None:
        """Operation 0 runs more than once per run; its outputs must match byte for byte."""
        digest = hashlib.sha256()
        if op.out is not None:
            digest.update(op.out.read_bytes())
            digest.update(op.out.with_suffix(".manifest.json").read_bytes())
        else:
            digest.update(stdout.encode())
        if self.reference is None:
            self.reference = digest.hexdigest()
            return None
        return None if digest.hexdigest() == self.reference else "re-run output differs"

    def _fail(self, op, message: str) -> None:
        self.failed += 1
        print(f"operation {op.index} failed: {message}", file=sys.stderr)


def measure_setup(args, work: Path) -> tuple[list[float], list[float], int]:
    """Spawn-to-exit time of fresh interpreters doing the first operation.

    Returns (seconds at reference speed, wall seconds, failures).
    """
    calibration = Calibration()
    times, marks, failures = [], [], 0
    command = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work / "probe")]
    for _ in range(SETUP_REPEATS):
        calibration.refresh(force=True, repeats=SETUP_KERNEL_REPEATS)
        start = perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
            error = f"exited {proc.returncode}: {proc.stderr}" if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = f"did not finish within {SETUP_TIMEOUT_S} s"
        times.append(perf_counter() - start)
        marks.append(calibration.mark(times[-1]))
        if error is not None:
            failures += 1
            print(f"set-up probe {error}", file=sys.stderr)
    calibration.refresh(force=True, repeats=SETUP_KERNEL_REPEATS)
    return calibration.scale(times, marks), times, failures


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_run(args, runner, work: Path) -> tuple[dict, dict]:
    setup, setup_wall, setup_failures = measure_setup(args, work)
    runner.attempted += len(setup)
    runner.failed += setup_failures

    runner.workload.prepare()
    runner.run(runner.workload.op(0))  # warm-up, untimed; also the re-run reference
    walls, marks, work_units = [], [], []
    deadline = perf_counter() + WALL_CAP * args.seconds
    while sum(walls) < args.seconds and perf_counter() < deadline:
        wall, mark, work = runner.run(runner.workload.op(len(walls)))
        walls.append(wall)
        marks.append(mark)
        work_units.append(work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = runner.calibration.scale(walls, marks)
    rates = [work / t for work, t in zip(work_units, times)]

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup": len(setup), "ops": len(times),
               "wall_setup_s_p50": statistics.median(setup_wall),
               "wall_op_ms_p50": statistics.median(walls) * 1e3,
               "wall_op_ms_p90": p90(walls) * 1e3,
               "kernel_ms_p50": statistics.median(runner.calibration.samples) * 1e3}
    return metrics, samples


def traced_run(args, runner, work: Path) -> tuple[dict, dict]:
    from tracer import Tracer, metric_units

    workload = runner.workload
    workload.prepare()
    ops = [workload.op(i) for i in range(max(1, round(args.seconds * TRACE_OPS_PER_S[workload.name] / 2)))]
    runner.run(ops[0])  # warm-up, untimed; also the re-run reference
    untraced = [runner.run(op)[:2] for op in ops]

    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = [runner.run(op)[:2] for op in ops]
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.write_spans(work / "spans.csv")

    untraced_s, traced_s = (sum(runner.calibration.scale(*zip(*timings))) for timings in (untraced, traced))
    units = metric_units()
    values = tracer.metrics(overhead_frac=traced_s / untraced_s - 1.0)
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, {"ops": len(ops), "spans": len(tracer.labels)}


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library file name."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            git_rev = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_rev": git_rev, "src_sha256": src_hash.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "flexctl"
    if not (package / "__init__.py").is_file():
        print(f"error: flexctl sources not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flexctl.cli  # loads every module before any tracer is installed

    if Path(flexctl.__file__).resolve().parent != package.resolve():
        print(f"error: imported flexctl from {flexctl.__file__}, not {package}", file=sys.stderr)
        return 2
    from verify import Checker
    from workloads import Workload

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(Workload(args.workload, args.seed, work), Checker())

    if args.trace:
        metrics, samples = traced_run(args, runner, work)
    else:
        metrics, samples = timed_run(args, runner, work)

    env = environment(args)
    fail_frac = runner.failed / runner.attempted
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"samples": samples, "fail_frac": fail_frac}, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"environment": env, "samples": samples,
                                                  "result": result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
