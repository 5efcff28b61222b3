"""Byte-identity gate: one SHA-256 per CLI command over everything it emits.

Each command runs through ``run_cli`` in its own temporary working
directory, with FLEXCTL_SEED unset and relative paths only, so manifests
hold no machine-specific text. The digest covers argv, the exit code,
stdout, stderr and every file in the directory afterwards (relative path
and bytes, sorted by path). This is the one place the tests pin output
bytes: a change that means to move an output re-pins the named entries and
says which ones moved.

``validate`` prints oracle errors whose last digits are scipy ``expm``'s,
so its stdout is pinned only through each line's PASS/FAIL word and check
name (the text before ``max_error=``).

Digests computed with the numpy and scipy of ``RECORDED_WITH`` (numpy's
bundled OpenBLAS, x86-64); a different BLAS build may round differently.
"""

import hashlib
from importlib import metadata
from pathlib import Path

import pytest

from conftest import run_cli

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

# one key moved in every section, and no saturation
EVERY_SECTION_CFG = """params.K_b = 0.45
gains.k_D = 0.09
gains.u_sat = inf
desired.theta_d = 1.7
initial.theta = -0.2
schedule.mode = per_step
duration = 2.5
"""

# config file name -> text, written into every command's directory
CONFIG_FILES = {
    "every.cfg": EVERY_SECTION_CFG,
    # both sections invalid: the first in SimConfig's order is reported
    "bad_sections.cfg": "gains.k_P = 0\nparams.R = -1\n",
    "bad_schedule.cfg": "schedule.h_min = 0.3\n",
    "unknown_key.cfg": "gains.k_Q = 1\n",
    "bad_value.cfg": "gains.k_P = fast\n",
    "no_equals.cfg": "duration 5\n",
}

# command name -> its own config files, written into that command's directory
# only, so that adding one moves no other command's digest
OWN_FILES = {
    "compare_1..10_per_step": {"per_step.cfg": "schedule.mode = per_step\n"},
    "run_repeated_key": {"repeated_key.cfg": "gains.k_P = 100\ngains.k_P = 5\n"},
    "map_17x23": {"state.cfg": "initial.theta = -0.35\ninitial.current_I = 0.9\n"
                               "desired.theta_d = 1.5\n"},
}

COMMANDS = {
    **{f"run_s{seed}_{mode}": ["run", "--seed", str(seed), "--gain-mode", mode,
                               "--out", "trace.csv"]
       for seed in (1, 2, 3) for mode in ("dynamic", "constant")},
    "compare_1..3": ["compare", "--seeds", "1..3", "--out", "cmp"],
    "compare_2..2": ["compare", "--seeds", "2..2", "--out", "cmp"],
    "compare_repeated_seed": ["compare", "--seeds", "1,1", "--out", "cmp"],
    "compare_empty_range": ["compare", "--seeds", "3..1", "--out", "cmp"],
    "compare_malformed_seeds": ["compare", "--seeds", "1..3,5", "--out", "cmp"],
    "compare_empty_seeds": ["compare", "--seeds", "", "--out", "cmp"],
    "run_every_section": ["run", "--config", "every.cfg", "--out", "trace.csv"],
    "compare_every_section": ["compare", "--config", "every.cfg", "--out", "cmp"],
    "map_every_section": ["stability-map", "--config", "every.cfg", "--n-h", "5",
                          "--n-omega", "4", "--out", "map.csv"],
    "run_bad_sections": ["run", "--config", "bad_sections.cfg"],
    "run_bad_schedule": ["run", "--config", "bad_schedule.cfg"],
    "run_unknown_key": ["run", "--config", "unknown_key.cfg"],
    "run_bad_value": ["run", "--config", "bad_value.cfg"],
    "run_no_equals": ["run", "--config", "no_equals.cfg"],
    "run_missing_config": ["run", "--config", "missing.cfg"],
    "run_repeated_key": ["run", "--config", "repeated_key.cfg"],
    "run_paper_literal_divergence": ["run", "--gain-mode", "constant", "--fidelity",
                                     "paper_literal", "--duration", "30", "--out", "div.csv"],
    "compare_paper_literal_divergence": ["compare", "--fidelity", "paper_literal", "--duration",
                                         "30", "--seed", "1", "--out", "cmp"],
    "map_default": ["stability-map", "--out", "map.csv"],
    "map_7x13_kp100": ["stability-map", "--kp", "100", "--n-h", "7", "--n-omega", "13",
                       "--out", "map.csv"],
    "map_infinite_omega": ["stability-map", "--omega-max", "inf", "--out", "map.csv"],
    "map_omega_1e300": ["stability-map", "--omega-max=1e300", "--out", "map.csv"],
    "map_h_below_floor": ["stability-map", "--h-min", "1e-5", "--out", "map.csv"],
    **{f"validate_s{seed}": ["validate", "--seed", str(seed)] for seed in (0, 1, 2)},
    "validate_tol_1e-1": ["validate", "--tol", "1e-1"],
    "validate_tol_1e-300": ["validate", "--tol", "1e-300"],
    "validate_trials_0": ["validate", "--trials", "0"],
    "validate_trials_-1": ["validate", "--trials", "-1"],
    "run_h_max_inf": ["run", "--h-max", "inf"],
    "run_h_max_1e308": ["run", "--h-max", "1e308"],
    "run_duration_inf": ["run", "--duration", "inf"],
    "run_h_min_1e-5": ["run", "--h-min", "1e-5"],
    # the default traces of seeds 1-10, both gain modes and both schedule modes
    "compare_1..10": ["compare", "--seeds", "1..10", "--out", "cmp"],
    "compare_1..10_per_step": ["compare", "--config", "per_step.cfg", "--seeds", "1..10",
                               "--out", "cmp"],
    "map_kp50_kd05": ["stability-map", "--kp", "50", "--kd", "0.5", "--out", "map.csv"],
    # negative omega, and a current, angle and target of the config's own
    "map_17x23": ["stability-map", "--config", "state.cfg", "--n-h", "17", "--n-omega", "23",
                  "--h-min", "0.02", "--h-max", "0.25", "--omega-min=-7.5", "--omega-max", "4.0",
                  "--out", "map.csv"],
}

GATE_SHA256 = {
    "run_s1_dynamic": "6c0dc26f5bdfa58407a14bf06e8e7ed6f08268da7f79264bd815b1646ff5df6f",
    "run_s1_constant": "4c8ca5d09f383dcb025526c51a4fac1128ea6f309c583fd703019f95e4d830f7",
    "run_s2_dynamic": "9b5146f31941d669c3dc5e47595a4c8bf30b43ea2f88c2396d653d9285082ef7",
    "run_s2_constant": "c5caf5c9cd8ccdd74bd4e04e09b08a6f988be33eebfe54d0f6c2d9f2bd0b2377",
    "run_s3_dynamic": "b2360628818ebaf1126293ab1fbbaee0b15a24631f80247bc738a261908dd21b",
    "run_s3_constant": "534f059d1942723174dcdab03b6b17f994d68444511b2f1a7ba1320d2ee5e693",
    "compare_1..3": "36a4ed3badf401c0143b4f45703d4725593726b8c23ae7f3d50e118af22da6a1",
    "compare_2..2": "d26de00ac8e39d1b14acd2b0b44086be544557c7eaaaa3c24399396e1493d04a",
    "compare_repeated_seed": "6035e3390489129678bd37a61667f6936dd5c003ba5a400da293942cb91a95b2",
    "compare_empty_range": "03106b20d189bf95299b676a2cc5c1873f98d3e2261cb43d723a389de74f08ed",
    "compare_malformed_seeds": "c3e0e66cd8853da8a5104bbe98a77a3f2dc56d551e96293ad7052dbe6c00946f",
    "compare_empty_seeds": "1cdcde0d3dc6f354872908d92de16ed992688bbf78beee80980e41bad8e97fba",
    "run_every_section": "73e05546c3fd8ee02f864235c6b825d0dd82fcbd61c18a82a522c8c8609b19f8",
    "compare_every_section": "6430928205ba2bfc532e9afedd1f5a1eaa409c9fd50a5c4bba54cbc8878c2d41",
    "map_every_section": "13ba2a72a9fe404f2c72c9d4f708743e7fe93f63f59ce1a6e4afc01d141ff5d5",
    "run_bad_sections": "a66915dbde22f56b28510b639260e25ec18959fb4fa7216befebd7027a1aac49",
    "run_bad_schedule": "623618a713a312da0152f0220f2f60d9196d7e957f098e517d3cb6ac494e15b9",
    "run_unknown_key": "51602f5c8375b0531cd68dfa77df50e5c91656d0cd5d211e4b561f93b1cce6a7",
    "run_bad_value": "222101b35e640564521578b8d9d00b34bca0ec6bb2ef7faed5952528945fb85b",
    "run_no_equals": "57d0a85a299c75faeaca08be725ea7456aa424980d2a0c1099b9a81e973e88cc",
    "run_missing_config": "bab7334d6eb36a8d625788e5a3539582d89771ad3c66438cce6a01bbe051a82f",
    "run_repeated_key": "10a974887548821eb0754915a42cce2c363ef5d53737eaaa654cac24502060c5",
    "run_paper_literal_divergence": "53317f8d1a4d3787651f50188dcc8ea60a5babf825e77c5e7e3791f12fe2deaa",
    "compare_paper_literal_divergence": "a88aee111ff204199f902f901a202248a974eb77d06b692a72cec10f8f744a7f",
    "map_default": "64e841a120bceb586582bb4feb0afc5078978b70d2968858b41a84fa8c863dc7",
    "map_7x13_kp100": "936cfff02d0e112dad8533da446c6927358306b33c3d39a4eaa996ef1cb24bed",
    "map_infinite_omega": "65226b66144c8e462b7c1883808383861a41894d81579c1ceb595dc6faa75f3a",
    "map_omega_1e300": "41a91ebac9eccdec1b53f63f41c7718b9626fbc54406ea1ad6cf84395288ed73",
    "map_h_below_floor": "ff2085b9bc20ee303ce50f631190f9b60564d9344131fb54eaa54f70f6a4777d",
    "validate_s0": "fd94cead27eb846bea6f7c0e892f226d8db15dab933f6116556dafb89c6fa64c",
    "validate_s1": "2342eacb0c0236a458917d2ef031799823ebe5a3c562059cc50f345eb91ba4f6",
    "validate_s2": "e2ea87efb4d0eaa5147f38630ecf55543a25884dad1ea41b0de00cc12b1c96ed",
    "validate_tol_1e-1": "224bd3c83204af635c8414a718f7d0a97470066c4a39370b949760f308253a42",
    "validate_tol_1e-300": "475109cd0502c379bf6105d8ec4203cf9a3844bd74950c074b6f6a6278f3fa27",
    "validate_trials_0": "5b6fda245e52401c8fe5f6e7d757bda01ccd9813389a9ec6725a43108025c2d8",
    "validate_trials_-1": "85074ba30fd3c254198366158d4001cf0cad1fdde8055607edb287dbebcaaaa8",
    "run_h_max_inf": "dc031bcdabf5481766d138e6d6551c4bcfed27523a5b47555ca5f2c2bcdf9126",
    "run_h_max_1e308": "a8cd99cc41cc496ee72047cd73fa65a8100a84f7fb9dbd155cf60bd343c0e6d7",
    "run_duration_inf": "dbc08efa315287f3b7c2252dad79cfb6d97e0b16316d595bdcb31b60bd7cf6fe",
    "run_h_min_1e-5": "ea122aaea9a43c77852e2d7b60672d32a7153e9615c75fd9757c9688fa75c473",
    "compare_1..10": "0c320eeaf0d692dcf3df1d9c4fe954e58ef2ec9d8f4252dc64b99a3f9190927e",
    "compare_1..10_per_step": "68c9273c988bc37f03f8fa5ed26a4ca6289d918d3f00388910679733b1193610",
    "map_kp50_kd05": "0b66ab65d4422b547c37bf4136e7e0111c1da42f5201e6a62cdb037f7c74683e",
    "map_17x23": "41b0173cfb8a44b1468b3bc8195573c4e92547dd36ba48b37bf1d61e03ec3102",
}


def _validate_words(stdout: str) -> str:
    """Each validate line up to its scipy-dependent `max_error=` figure."""
    return "\n".join(line.split("max_error=")[0].rstrip() for line in stdout.splitlines())


def command_digest(argv, cwd: Path) -> str:
    code, out, err = run_cli(argv, cwd)
    if argv[0] == "validate":
        out = _validate_words(out)
    digest = hashlib.sha256(repr((argv, code, out, err)).encode())
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        digest.update(repr((path.relative_to(cwd).as_posix(), path.read_bytes())).encode())
    return digest.hexdigest()


def test_gate_pins_every_command():
    assert sorted(GATE_SHA256) == sorted(COMMANDS)


def versions_note() -> str:
    """The versions the digests were recorded with and the running ones,
    read from package metadata so that scipy is not imported."""
    recorded = ", ".join(f"{name} {version}" for name, version in RECORDED_WITH.items())
    running = ", ".join(f"{name} {metadata.version(name)}" for name in RECORDED_WITH)
    return f"digests recorded with {recorded}; running {running}"


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_bytes_match_the_gate(tmp_path, name):
    for file_name, text in {**CONFIG_FILES, **OWN_FILES.get(name, {})}.items():
        (tmp_path / file_name).write_text(text)
    assert command_digest(COMMANDS[name], tmp_path) == GATE_SHA256.get(name), versions_note()
