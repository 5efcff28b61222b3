import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import run_cli as flexctl
from flexctl import cli
from flexctl.plant import PlantState
from flexctl.scheduler import ScheduleSpec
from flexctl.simulator import TRACE_COLUMNS, DivergenceError, SimConfig, read_trace_csv, run
from flexctl.stability import stability_map


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # the one fresh interpreter: sys.exit, the environment and stderr as a shell sees them
    env = {**os.environ, "FLEXCTL_SEED": "seven"}
    res = subprocess.run([sys.executable, "-m", "flexctl.cli", "run", "--out", "t.csv"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr == "error: FLEXCTL_SEED must be an integer, got 'seven'\n"
    assert res.stdout == ""
    assert not (tmp_path / "t.csv").exists()


def test_run_defaults(tmp_path):
    res = flexctl(["run", "--seed", "1", "--out", "trace.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    trace_path = tmp_path / "trace.csv"
    assert trace_path.exists()
    assert trace_path.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)

    manifest = json.loads((tmp_path / "trace.manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["seeds"] == [1]
    assert manifest["config"]["params.R"] == 1.3
    assert manifest["config"]["schedule.seed"] == 1
    assert manifest["outputs"] == ["trace.csv"]


def test_run_bad_range_is_usage_error(tmp_path):
    res = flexctl(["run", "--h-min", "0.3", "--h-max", "0.2"], tmp_path)
    assert res.returncode == 2
    assert "error" in res.stderr


def test_run_infinite_h_max_is_usage_error(tmp_path):
    res = flexctl(["run", "--h-max", "inf"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    # e^(Ah) beyond the float range: phi's OverflowError
    ["run", "--fidelity", "paper_literal", "--h-min", "800", "--h-max", "900",
     "--duration", "1000"],
    ["stability-map", "--fidelity", "paper_literal", "--h-max", "1000"],
    # A h itself beyond the float range: phi's finiteness check, with no warning
    ["run", "--h-max", "1e308"],
    # e^(Ah) representable but F = I + A h Psi not: ModelStack's check
    ["run", "--fidelity", "paper_literal", "--h-min", "705", "--h-max", "705",
     "--duration", "2000"],
], ids=["run_e_Ah_overflow", "map_e_Ah_overflow", "run_Ah_overflow", "run_F_overflow"])
def test_unrepresentable_e_Ah_is_usage_error(tmp_path, args):
    res = flexctl([*args, "--out", "out.csv"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")


@pytest.mark.parametrize("key", ["params.L", "params.J", "gains.k_P"])
def test_infinite_motor_constant_or_gain_is_usage_error(tmp_path, key):
    (tmp_path / "inf.cfg").write_text(f"{key} = inf\n")
    res = flexctl(["run", "--config", "inf.cfg", "--out", "out.csv"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert "must be finite" in res.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("mode", ["random_hold", "per_step", "fixed"])
@pytest.mark.parametrize("hold_max", [2**63, 10**20])
def test_hold_max_beyond_int64_is_usage_error(tmp_path, mode, hold_max):
    # the hold length is an int64 draw; per_step and fixed never draw one
    (tmp_path / "hold.cfg").write_text(f"schedule.mode = {mode}\nschedule.hold_max = {hold_max}\n")
    res = flexctl(["run", "--config", "hold.cfg", "--out", "out.csv"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: hold_max must be in [1, 2**63 - 1]")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("line", ["initial.omega = 1e160", "desired.theta_d = 1e200",
                                  "initial.current_I = -1e10"])
def test_state_beyond_the_divergence_limit_is_usage_error(tmp_path, line):
    # V of such a state overflows a float; the config is refused before any step
    (tmp_path / "big.cfg").write_text(line + "\n")
    res = flexctl(["run", "--config", "big.cfg", "--out", "out.csv"], tmp_path)
    assert res.returncode == 2
    key = line.split(" = ")[0]
    assert res.stderr.startswith(f"error: {key} must be within +-1e+09 (the divergence limit)")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert not (tmp_path / "out.csv").exists()


def test_run_paper_literal_divergence_exit(tmp_path):
    res = flexctl(["run", "--gain-mode", "constant", "--fidelity", "paper_literal",
                   "--duration", "30", "--out", "div.csv"], tmp_path)
    assert res.returncode == 3
    assert "divergence" in res.stderr
    partial = read_trace_csv(tmp_path / "div.csv")
    assert len(partial) > 10  # partial trace persisted


def test_compare_paper_literal_divergence_exit(tmp_path):
    res = flexctl(["compare", "--fidelity", "paper_literal", "--duration", "30", "--seed", "1",
                   "--out", "cmp"], tmp_path)
    assert res.returncode == 3
    assert res.stderr.startswith("divergence: ")
    partial = read_trace_csv(tmp_path / "cmp" / "dynamic.csv")
    assert len(partial) > 10  # partial trace persisted
    assert partial[-1].t + partial[-1].h_k < 30.0
    manifest = json.loads((tmp_path / "cmp" / "compare.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["outputs"] == [os.path.join("cmp", "dynamic.csv")]
    assert not (tmp_path / "cmp" / "summary.csv").exists()


def test_compare_divergence_in_the_second_mode_keeps_the_first(tmp_path, monkeypatch):
    def constant_diverges(cfg):
        trace = run(cfg)
        if cfg.gains.gain_mode == "constant":
            raise DivergenceError("state magnitude exceeded 1e+09", trace[:5])
        return trace

    monkeypatch.setattr(cli, "run", constant_diverges)
    res = flexctl(["compare", "--seeds", "1,2", "--duration", "2", "--out", "cmp"], tmp_path)
    assert res.returncode == 3
    manifest = json.loads((tmp_path / "cmp" / "compare.manifest.json").read_text())
    assert manifest["seeds"] == [1, 2]
    assert manifest["outputs"] == [os.path.join("cmp", "dynamic_s1.csv"),
                                   os.path.join("cmp", "constant_s1.csv")]
    assert len(read_trace_csv(tmp_path / "cmp" / "constant_s1.csv")) == 5
    full = run(SimConfig(schedule=ScheduleSpec(seed=1), duration=2.0))
    assert read_trace_csv(tmp_path / "cmp" / "dynamic_s1.csv") == full
    assert sorted(f.name for f in (tmp_path / "cmp").iterdir()) == [
        "compare.manifest.json", "constant_s1.csv", "dynamic_s1.csv"]


def test_env_seed_default(tmp_path):
    res = flexctl(["run", "--out", "t.csv"], tmp_path, env_extra={"FLEXCTL_SEED": "7"})
    assert res.returncode == 0
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["config"]["schedule.seed"] == 7


def test_config_file_precedence(tmp_path):
    (tmp_path / "exp.cfg").write_text(
        "# experiment configuration\n"
        "params.R = 2.0\n"
        "schedule.seed = 5\n"
        "duration = 4.0\n")
    res = flexctl(["run", "--config", "exp.cfg", "--seed", "9", "--out", "t.csv"],
                  tmp_path, env_extra={"FLEXCTL_SEED": "1"})
    assert res.returncode == 0, res.stderr
    cfg = json.loads((tmp_path / "t.manifest.json").read_text())["config"]
    assert cfg["params.R"] == 2.0       # file beats defaults
    assert cfg["schedule.seed"] == 9    # flag beats file and env
    assert cfg["duration"] == 4.0


@pytest.mark.parametrize("command, out", [("run", "t.csv"), ("compare", "cmp"),
                                          ("stability-map", "map.csv")])
def test_empty_config_path_is_usage_error(tmp_path, command, out):
    # an empty path is refused, not read as "no config file"
    res = flexctl([command, "--config", "", "--out", out], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: --config takes a file path, got ''\n"
    assert res.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_config_file_unknown_key(tmp_path):
    (tmp_path / "bad.cfg").write_text("params.bogus = 1\n")
    res = flexctl(["run", "--config", "bad.cfg"], tmp_path)
    assert res.returncode == 2
    assert "unknown config key" in res.stderr


def test_config_file_repeated_key_is_usage_error(tmp_path):
    (tmp_path / "twice.cfg").write_text("gains.k_P = 100\n# retuned\ngains.k_P = 5\n")
    res = flexctl(["run", "--config", "twice.cfg", "--out", "out.csv"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: twice.cfg:3: 'gains.k_P' is already set on line 1\n"
    assert not (tmp_path / "out.csv").exists()


def test_config_key_census(tmp_path):
    # a new config knob, or a removed one coming back, must edit this set
    census = {
        "duration",
        "params.R", "params.L", "params.K_b", "params.K_m", "params.J", "params.B_f",
        "params.K_L", "params.fidelity",
        "gains.k_E_s", "gains.k_P", "gains.k_D", "gains.K_c", "gains.h_s", "gains.u_sat",
        "gains.gain_mode",
        "desired.theta_d", "desired.omega_d",
        "initial.current_I", "initial.omega", "initial.theta",
        "schedule.h_min", "schedule.h_max", "schedule.seed", "schedule.hold_max",
        "schedule.mode",
    }
    assert set(cli.KEY_DEFAULTS) == census
    # a manifest spells the config with the same keys a config file reads
    cli.write_manifest(tmp_path / "m.json", "run", SimConfig(), seeds=[0], outputs=[])
    assert set(json.loads((tmp_path / "m.json").read_text())["config"]) == census


def test_flag_census():
    # a new flag, or a removed one coming back, must edit this table
    subparsers = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
             for name, sub in subparsers.choices.items()}
    assert flags == {
        "run": {"--config", "--fidelity", "--seed", "--duration", "--h-min", "--h-max",
                "--gain-mode", "--out"},
        "compare": {"--config", "--fidelity", "--seed", "--duration", "--h-min", "--h-max",
                    "--out", "--seeds"},
        "stability-map": {"--config", "--fidelity", "--out", "--h-min", "--h-max",
                          "--omega-min", "--omega-max", "--n-h", "--n-omega", "--kp", "--kd"},
        "validate": {"--seed", "--trials", "--tol"},
    }


def test_compare_default_outputs(tmp_path):
    res = flexctl(["compare", "--seed", "2", "--out", "cmp"], tmp_path)
    assert res.returncode == 0, res.stderr
    for name in ("dynamic.csv", "constant.csv", "summary.csv", "compare.manifest.json"):
        assert (tmp_path / "cmp" / name).exists()
    lines = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert all(float(v) >= 0.0 for v in fields[1:5])
    dyn = read_trace_csv(tmp_path / "cmp" / "dynamic.csv")
    con = read_trace_csv(tmp_path / "cmp" / "constant.csv")
    assert [r.h_k for r in dyn] == [r.h_k for r in con]


@pytest.mark.parametrize("seeds, message", [
    ("1,1", "error: --seeds lists a seed more than once: '1,1'\n"),
    ("1..3,5", "error: --seeds takes `3`, `1,2,5` or `1..10`, got '1..3,5'\n"),
    ("3..1", "error: --seeds range '3..1' is empty\n"),
    ("", "error: --seeds takes `3`, `1,2,5` or `1..10`, got ''\n"),
], ids=["duplicate", "malformed", "empty_range", "empty"])
def test_compare_bad_seed_list_is_usage_error(tmp_path, seeds, message):
    res = flexctl(["compare", "--seeds", seeds, "--duration", "1", "--out", "cmp"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == message
    assert not (tmp_path / "cmp").exists()


def test_compare_seed_sweep(tmp_path):
    res = flexctl(["compare", "--seeds", "1..10", "--out", "sweep"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
    assert len(lines) == 11  # header + ten paired rows
    seeds = [int(line.split(",")[0]) for line in lines[1:]]
    assert seeds == list(range(1, 11))


def test_stability_map_default_grid(tmp_path):
    res = flexctl(["stability-map", "--out", "map.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert lines[0] == "axis1,axis2,V1_margin"
    assert len(lines) == 1 + 2500


def test_stability_map_kp_ordering(tmp_path):
    def stable_cells(name, kp):
        flexctl(["stability-map", "--out", name, "--kp", kp,
                 "--n-h", "20", "--n-omega", "20"], tmp_path)
        rows = (tmp_path / name).read_text().splitlines()[1:]
        return sum(float(r.split(",")[2]) <= 0.0 for r in rows)

    assert stable_cells("hi.csv", "565") >= stable_cells("lo.csv", "50")


def test_stability_map_single_point(tmp_path):
    res = flexctl(["stability-map", "--out", "one.csv", "--h-min", "0.11", "--h-max", "0.11",
                   "--omega-min", "0", "--omega-max", "0", "--n-h", "1", "--n-omega", "1"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "one.csv").read_text().splitlines()
    assert len(rows) == 2
    assert float(rows[1].split(",")[2]) == 0.0


def test_stability_map_non_finite_bound_is_usage_error(tmp_path):
    res = flexctl(["stability-map", "--out", "map.csv", "--omega-max", "inf"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: axis bounds must be finite\n"
    assert not (tmp_path / "map.csv").exists()


def test_stability_map_h_below_floor_is_the_maps_error(tmp_path):
    res = flexctl(["stability-map", "--out", "map.csv", "--h-min", "1e-5"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: h = 1e-05 is below the sampling floor eps_h = 0.0001\n"
    assert not (tmp_path / "map.csv").exists()


def test_stability_map_reversed_h_axis_is_usage_error(tmp_path):
    res = flexctl(["stability-map", "--out", "map.csv", "--h-min", "0.3", "--h-max", "0.2"],
                  tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: axis bounds must satisfy min <= max\n"
    assert not (tmp_path / "map.csv").exists()


def test_stability_map_takes_its_state_from_the_initial_config(tmp_path):
    (tmp_path / "state.cfg").write_text("initial.theta = 1.9\ninitial.current_I = 3.0\n")
    res = flexctl(["stability-map", "--config", "state.cfg", "--out", "map.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    cfg = SimConfig(initial=PlantState(current_I=3.0, omega=SimConfig().initial.omega, theta=1.9))
    grid = stability_map(cfg, np.linspace(0.01, 0.3, 50), np.linspace(0.0, 10.0, 50))
    grid.write_csv(tmp_path / "want.csv")
    assert (tmp_path / "map.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("bound", ["--omega-max=1e300", "--omega-min=-1e10"])
def test_stability_map_omega_beyond_the_divergence_limit_is_usage_error(tmp_path, bound):
    res = flexctl(["stability-map", bound, "--out", "map.csv"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "finite" in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert not (tmp_path / "map.csv").exists()


def test_stability_map_takes_negative_exponent_bounds_in_the_equals_form(tmp_path):
    # argparse before Python 3.13 reads `--omega-min -1e3` as a missing value
    res = flexctl(["stability-map", "--omega-min=-1e3", "--omega-max=-1e2",
                   "--n-h", "3", "--n-omega", "4", "--out", "map.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "map.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows[:4]] == [-1000.0, -700.0, -400.0, -100.0]


# SHA-256 of the one data file of two gate commands (map_default, compare_1..3),
# as written before the map took its SimConfig (numpy 2.x with its bundled
# OpenBLAS on x86-64). The gate digest covers the whole directory; this one
# says whether the map or summary bytes moved, or only the manifest or stdout.
GOLDEN_OUTPUT_SHA256 = {
    "map_default": "0c7dbf6f12ea3b0bad95706a88a3e9c09d94413f3b35fde0b477cacffd7c578d",
    "compare_summary": "67dc4690c7bfcf2e7609f1411fcfd8e5004e8a8a457a85eabf268e7202caf4f4",
}
GOLDEN_OUTPUT_COMMANDS = {
    "map_default": (["stability-map", "--out", "out.csv"], "out.csv"),
    "compare_summary": (["compare", "--seeds", "1..3", "--out", "cmp"], "cmp/summary.csv"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUT_SHA256))
def test_output_bytes_match_the_golden_digest(tmp_path, name):
    argv, output = GOLDEN_OUTPUT_COMMANDS[name]
    res = flexctl(argv, tmp_path)
    assert res.returncode == 0, res.stderr
    digest = hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUT_SHA256[name]


def test_stability_map_manifest_keeps_the_schedule(tmp_path):
    res = flexctl(["stability-map", "--out", "map.csv", "--h-min", "0.02", "--h-max", "0.25",
                   "--n-h", "3", "--n-omega", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "map.manifest.json").read_text())
    assert (manifest["grid"]["h_min"], manifest["grid"]["h_max"]) == (0.02, 0.25)
    assert (manifest["config"]["schedule.h_min"], manifest["config"]["schedule.h_max"]) == (0.05, 0.2)


def test_main_called_twice_in_process_keeps_no_flag_values(tmp_path):
    res = flexctl(["run", "--gain-mode", "constant", "--duration", "1", "--out", "a.csv"], tmp_path)
    assert res.returncode == 0
    assert flexctl(["run", "--duration", "1", "--out", "b.csv"], tmp_path).returncode == 0
    first = json.loads((tmp_path / "a.manifest.json").read_text())["config"]
    second = json.loads((tmp_path / "b.manifest.json").read_text())["config"]
    assert first["gains.gain_mode"] == "constant"
    assert second["gains.gain_mode"] == "dynamic"


def test_validate_passes(tmp_path):
    res = flexctl(["validate", "--trials", "10"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "all checks passed" in res.stdout
    assert "max_error=" in res.stdout


def test_validate_degraded_tolerance_fails(tmp_path):
    res = flexctl(["validate", "--trials", "10", "--tol", "1e-1"], tmp_path)
    assert res.returncode != 0
    assert "FAIL" in res.stdout
    assert "e^M = I + M*phi(M)" in res.stdout


def test_validate_negative_trials_is_usage_error(tmp_path):
    res = flexctl(["validate", "--trials", "-1"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: trials must be >= 0, got -1\n"
    assert res.stdout == ""
    # no random matrices: the reference cases alone
    res = flexctl(["validate", "--trials", "0"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "all checks passed" in res.stdout


def test_validate_negative_seed_is_usage_error(tmp_path):
    res = flexctl(["validate", "--seed", "-1"], tmp_path)
    assert res.returncode == 2
    assert res.stderr == "error: seed must be >= 0, got -1\n"
    assert res.stdout == ""


def test_validate_unreachable_tolerance_is_usage_error(tmp_path):
    # the series cannot reach 1e-300 within its term budget
    res = flexctl(["validate", "--trials", "10", "--tol", "1e-300"], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: series did not converge")
    assert "Traceback" not in res.stderr


def test_unknown_command_usage_error(tmp_path):
    res = flexctl(["frobnicate"], tmp_path)
    assert res.returncode == 2


# one key moved in every section, and the duration
EVERY_SECTION_CFG = """params.K_b = 0.45
gains.k_D = 0.09
desired.theta_d = 1.7
initial.theta = -0.2
schedule.mode = per_step
duration = 2.5
"""


@pytest.mark.parametrize("args, cfg_text", [
    (["--seed", "4", "--duration", "3"], None),
    (["--config", "orig.cfg"], EVERY_SECTION_CFG),
], ids=["flags", "every_section"])
def test_output_reproducible_from_manifest(tmp_path, args, cfg_text):
    if cfg_text is not None:
        (tmp_path / "orig.cfg").write_text(cfg_text)
    res = flexctl(["run", *args, "--out", "orig.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "orig.manifest.json").read_text())
    if cfg_text is not None:
        moved = {k for k, v in manifest["config"].items() if v != cli.KEY_DEFAULTS[k]}
        assert {k.split(".")[0] for k in moved} == {
            "params", "gains", "desired", "initial", "schedule", "duration"}
    cfg_lines = "\n".join(f"{k} = {v}" for k, v in manifest["config"].items())
    (tmp_path / "replay.cfg").write_text(cfg_lines + "\n")
    res = flexctl(["run", "--config", "replay.cfg", "--out", "replay.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "orig.csv").read_bytes()


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def test_manifest_with_unsaturated_gain_is_strict_json(tmp_path):
    (tmp_path / "nosat.cfg").write_text("gains.u_sat = inf\n")
    res = flexctl(["run", "--config", "nosat.cfg", "--duration", "2", "--out", "orig.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((tmp_path / "orig.manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["config"]["gains.u_sat"] == "inf"
    # the manifest's spelling reads back as the same config
    cfg_lines = "\n".join(f"{k} = {v}" for k, v in manifest["config"].items())
    (tmp_path / "replay.cfg").write_text(cfg_lines + "\n")
    res = flexctl(["run", "--config", "replay.cfg", "--out", "replay.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "orig.csv").read_bytes()


def test_manifest_rejects_a_non_finite_extra(tmp_path):
    with pytest.raises(ValueError):
        cli.write_manifest(tmp_path / "m.json", "run", SimConfig(), seeds=[1], outputs=[],
                           extra={"grid": {"h_min": float("nan")}})
