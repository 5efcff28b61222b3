"""Output checks, run outside the timed region.

The checks use oracles that do not go through ``flexctl.matseries``: every
trace step is replayed with scipy's ``expm`` of the augmented generator
``[A B; 0 0]*h``, and sampled stability-map cells are recomputed with
``F = expm(A h)``. Each check returns ``(error message or None, work units)``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.linalg import expm

from workloads import MAP_H, MAP_OMEGA, RK4Case, Op, derived_seed

TRACE_HEADER = ["k", "t", "h_k", "I", "omega", "theta", "u", "E", "k_E",
                "V", "V_prime", "saturated", "guard_event", "V1_ok", "V2_ok", "cond_main"]
REPLAY_RTOL = 1e-9
MAP_RTOL = 1e-9
MAP_SAMPLES = 16
EPS = float(np.finfo(float).eps)
RK4_DRIFT_MAX = 1e-6  # acceptance criterion 10

# reference tuning the CLI uses unless told otherwise
K_D = 0.07
THETA_D = 2.0
OMEGA_D = 0.0
MAP_CURRENT = 0.4
MAP_THETA = 0.1


class Checker:
    def __init__(self):
        # built once, before any tracer is installed, so checks add no calls
        from flexctl.plant import MotorParams, continuous_matrices

        A, B = continuous_matrices(MotorParams())
        self.A = A
        self.aug = np.zeros((4, 4))
        self.aug[:3, :3] = A
        self.aug[:3, 3] = B
        self.h_axis = np.linspace(*MAP_H)
        self.omega_axis = np.linspace(*MAP_OMEGA)

    def check(self, workload: str, op: Op, code: int, stdout: str,
              rk4_case: RK4Case | None = None) -> tuple[str | None, int]:
        if code != 0:
            return f"exit code {code}", 0
        if workload.startswith("sweep"):
            return self._check_run(op)
        if workload == "analysis_map":
            return self._check_map(op)
        if workload == "analysis_validate":
            return self._check_validate(stdout)
        return self._check_rk4(stdout, rk4_case)

    def _check_run(self, op: Op) -> tuple[str | None, int]:
        manifest = json.loads(op.out.with_suffix(".manifest.json").read_text())
        config = manifest["config"]
        if (manifest["seeds"] != [op.seed] or config["gains.gain_mode"] != op.gain_mode
                or config["schedule.mode"] != op.schedule_mode):
            return "manifest does not match the request", 0
        with op.out.open(newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != TRACE_HEADER:
            return f"unexpected trace header {rows[0]}", 0
        body = np.array([[float(r[i]) for i in range(7)] for r in rows[1:]])
        if len(body) == 0:
            return "empty trace", 0
        if not np.array_equal(body[:, 0], np.arange(len(body))):
            return "step index is not 0..n-1", len(body)
        if not np.array_equal(body[1:, 1], body[:-1, 1] + body[:-1, 2]):
            return "t[k+1] != t[k] + h[k]", len(body)
        if not body[-1, 1] < config["duration"] <= body[-1, 1] + body[-1, 2]:
            return "trace does not end at the horizon", len(body)
        worst = 0.0
        for row, nxt in zip(body[:-1], body[1:]):
            E = expm(self.aug * row[2])
            want = E[:3, :3] @ row[3:6] + E[:3, 3] * row[6]
            worst = max(worst, float(np.max(np.abs(nxt[3:6] - want)) / max(np.max(np.abs(want)), 1e-300)))
        if not worst <= REPLAY_RTOL:
            return f"ZOH replay relative error {worst:.3e} > {REPLAY_RTOL:.0e}", len(body)
        return None, len(body)

    def _check_map(self, op: Op) -> tuple[str | None, int]:
        with op.out.open(newline="") as f:
            rows = list(csv.reader(f))
        if rows[0] != ["axis1", "axis2", "V1_margin"]:
            return f"unexpected map header {rows[0]}", 0
        cells = np.array([[float(v) for v in r] for r in rows[1:]])
        n_h, n_w = len(self.h_axis), len(self.omega_axis)
        if cells.shape != (n_h * n_w, 3):
            return f"map has shape {cells.shape}", len(cells)
        if not (np.array_equal(cells[:, 0], np.repeat(self.h_axis, n_w))
                and np.array_equal(cells[:, 1], np.tile(self.omega_axis, n_h))):
            return "map axes differ from the requested grid", len(cells)
        manifest = json.loads(op.out.with_suffix(".manifest.json").read_text())
        if manifest["grid"]["stable_cells"] != int(np.sum(cells[:, 2] <= 0.0)):
            return "manifest stable_cells disagrees with the map", len(cells)
        rng = np.random.Generator(np.random.PCG64(derived_seed(op.seed, op.index)))
        for idx in rng.choice(len(cells), size=MAP_SAMPLES, replace=False):
            h, omega, got = cells[idx]
            x = np.array([MAP_CURRENT, omega, MAP_THETA])
            f_m = expm(self.A * h)[1]
            t1 = op.kp * (MAP_THETA - THETA_D) * omega
            t2 = K_D / h * (omega - OMEGA_D) * (float(-f_m @ x) - omega)
            # F enters only t2; the rest is rounding in forming t1 - t2
            if not abs(got - (t1 - t2)) <= MAP_RTOL * abs(t2) + 8 * EPS * (abs(t1) + abs(t2)):
                return f"cell (h={h!r}, omega={omega!r}) margin {got!r} != oracle {t1 - t2!r}", len(cells)
        return None, len(cells)

    @staticmethod
    def _check_validate(stdout: str) -> tuple[str | None, int]:
        lines = stdout.strip().splitlines()
        passed = sum(line.startswith("PASS") for line in lines)
        if not lines or lines[-1] != "all checks passed" or passed != len(lines) - 1:
            return "validate did not report all checks passed", passed
        return None, passed

    @staticmethod
    def _check_rk4(stdout: str, case: RK4Case) -> tuple[str | None, int]:
        drift = float(stdout)
        if not (math.isfinite(drift) and drift <= RK4_DRIFT_MAX):
            return f"RK4 drift {drift!r} > {RK4_DRIFT_MAX:.0e}", case.substeps
        return None, case.substeps
