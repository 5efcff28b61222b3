"""The operations each benchmark workload issues.

Every operation is derived from the workload seed and its index alone, so a
given (workload, seed) pair always issues the same sequence. The program
only ever sees generated argv lists, generated config files and seeded
traces.

Workloads:

* ``sweep_hold``        ``flexctl run`` over derived seeds, each seed in both
                        gain modes, default 10 s horizon, ``random_hold``
                        schedule (periods repeat across steps)
* ``sweep_perstep``     the same operations with ``schedule.mode = per_step``
                        set through ``--config`` (a fresh period every step)
* ``analysis_map``      ``flexctl stability-map`` on the default 50x50 grid
                        with a derived ``--kp``
* ``analysis_validate`` ``flexctl validate --seed <derived>``
* ``analysis_rk4``      ``rk4_crosscheck`` over a 0.5 s window of a seeded
                        trace; the traces are generated in ``prepare``
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep_hold", "sweep_perstep", "analysis_map", "analysis_validate", "analysis_rk4")

# stability-map grid: the CLI defaults, spelled out so the check knows them
MAP_H = (0.01, 0.3, 50)
MAP_OMEGA = (0.0, 10.0, 50)
MAP_KP_RANGE = (50.0, 1500.0)

# RK4 windows: 0.5 s of simulated time at dt = 1e-4 keeps one operation near
# 0.1 s, so a run holds well over 100 of them; the deviation stays ~1e-13
RK4_WINDOW_S = 0.5
RK4_DT = 1e-4
RK4_POOL = 128


def derived_seed(seed: int, index: int) -> int:
    """A 32-bit seed that depends only on (workload seed, index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Op:
    """One benchmark operation and what its check needs to know."""

    index: int
    argv: tuple[str, ...] = ()
    out: Path | None = None
    seed: int = 0
    gain_mode: str = ""
    schedule_mode: str = ""
    kp: float = 0.0
    case: int = -1  # analysis_rk4: index into the trace pool


@dataclass(frozen=True)
class RK4Case:
    cfg: object
    trace: list
    substeps: int


class Workload:
    """Builds and executes the operations of one workload."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.out = work_dir / "out.csv"
        self.config = work_dir / "per_step.cfg"
        self.rk4_cases: list[RK4Case] = []

    def prepare(self, pool: int = RK4_POOL) -> None:
        """Untimed set-up: the per_step config file and the RK4 trace pool."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "sweep_perstep":
            self.config.write_text("schedule.mode = per_step\n")
        if self.name == "analysis_rk4":
            from flexctl.scheduler import ScheduleSpec
            from flexctl.simulator import SimConfig, run

            for j in range(pool):
                base = SimConfig(schedule=ScheduleSpec(seed=derived_seed(self.seed, j)),
                                 duration=RK4_WINDOW_S)
                cfg = replace(base, gains=replace(base.gains, gain_mode=("dynamic", "constant")[j % 2]))
                trace = run(cfg)
                substeps = sum(math.ceil(r.h_k / RK4_DT) for r in trace[:-1])
                self.rk4_cases.append(RK4Case(cfg, trace, substeps))

    def op(self, i: int) -> Op:
        if self.name in ("sweep_hold", "sweep_perstep"):
            seed = derived_seed(self.seed, i // 2)
            gain_mode = ("dynamic", "constant")[i % 2]
            argv = ["run", "--seed", str(seed), "--gain-mode", gain_mode, "--out", str(self.out)]
            mode = "random_hold"
            if self.name == "sweep_perstep":
                argv += ["--config", str(self.config)]
                mode = "per_step"
            return Op(i, tuple(argv), self.out, seed=seed, gain_mode=gain_mode, schedule_mode=mode)
        if self.name == "analysis_map":
            rng = np.random.Generator(np.random.PCG64(derived_seed(self.seed, i)))
            kp = round(float(rng.uniform(*MAP_KP_RANGE)), 3)
            argv = ["stability-map", "--kp", repr(kp), "--out", str(self.out)]
            return Op(i, tuple(argv), self.out, seed=self.seed, kp=kp)
        if self.name == "analysis_validate":
            seed = derived_seed(self.seed, i)
            return Op(i, ("validate", "--seed", str(seed)), seed=seed)
        return Op(i, case=i % len(self.rk4_cases))

    def execute(self, op: Op) -> tuple[int, str]:
        """Run one operation in-process; returns (exit code, captured stdout).

        Module attributes are looked up at call time so a tracer that rebinds
        them sees the call.
        """
        if op.argv:
            import flexctl.cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = flexctl.cli.main(list(op.argv))
            return code, buf.getvalue()
        import flexctl.simulator

        case = self.rk4_cases[op.case]
        drift = flexctl.simulator.rk4_crosscheck(case.cfg, case.trace, dt=RK4_DT)
        return 0, repr(drift)
