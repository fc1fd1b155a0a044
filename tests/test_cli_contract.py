"""The CLI contract as a property test.

Any value of a fixed hostile set, given to a numeric or coordinate input
of any subcommand, a ``--set`` leaf, a configuration file, a scenario file
or a calibration file, ends with a documented exit code (0, 2, 3 or 4).
A failure prints exactly one stderr line, and nothing prints a traceback
or a ``RuntimeWarning``. ``Vec3`` does not check itself, so this is what
shows that every boundary where coordinates enter checks them.

Every run is bounded: at most 2 frames, batches of 1, small lattices and
slices, and ``bench`` only with options that fail before it times
anything. Hypothesis derandomizes and draws a fixed number of examples, so
every run of the suite tries the same cases.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acoustrap.calibration import calibration_to_dict, default_calibration, load_calibration
from acoustrap.cli import main
from acoustrap.config import SimulatorConfig, config_from_dict, config_to_dict
from acoustrap.control import SimScenario, TrapWorld, run_trap_loop
from acoustrap.core import ParticleState, Vec3
from acoustrap.errors import AcoustrapError

HOSTILE = ["0", "-1", "1e300", "-1e300", "1e308", "-1e308", "nan", "inf", "-inf", str(2**63), "", "text"]
# the same values as YAML tokens: YAML spells the float NaN and infinities with a dot
YAML_TOKEN = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}
# values that no input accepts, so that they always fail
REJECTED = {"nan", "inf", "-inf", "text"}

CONTRACT = settings(max_examples=300, derandomize=True, database=None, deadline=None)

# Bounded runs of each subcommand: the hostile option is appended, so it
# replaces the value given here. Every run reads a configuration file that
# holds control.frame_budget=2 and control.hold_ticks=1 (``_write_config``).
COMMANDS = {
    "focus": ["hologram", "focus", "--at", "25,25,40"],
    "octa": ["hologram", "octa", "--center", "25,25,40"],
    "ib": ["hologram", "ib", "--targets", "25,25,40", "--iterations", "2"],
    "field": [
        "field", "--hologram", "{hologram}", "--plane", "xoz",
        "--bounds", "24,26,39,41", "--resolution", "0.15",
    ],
    "calibrate": ["calibrate", "--lattice", "2,2,2"],
    "render": ["vision", "render", "--position", "25,25,40", "--camera", "h"],
    "extract": ["vision", "extract", "--frame", "{frame}", "--background", "{background}", "--diameter-px", "12"],
    "simulate": ["simulate", "--batch", "1"],
    "scenario": ["simulate", "--scenario", "{scenario}"],
    "bench": ["bench", "--repeats", "1", "--ib-iterations", "1"],
}
# (command, option, valid value); a hostile value replaces one of its
# comma-separated components
OPTIONS = [
    ("focus", "--at", "25,25,40"),
    ("octa", "--center", "25,25,40"),
    ("octa", "--diameter", "2.5"),
    ("ib", "--targets", "25,25,40"),
    ("ib", "--iterations", "2"),
    ("field", "--offset", "25"),
    ("field", "--resolution", "0.15"),
    ("field", "--bounds", "24,26,39,41"),
    ("calibrate", "--lattice", "2,2,2"),
    ("calibrate", "--spacing", "2"),
    ("calibrate", "--noise-px", "1"),
    ("render", "--position", "25,25,40"),
    ("render", "--velocity", "0,0,-10"),
    ("render", "--diameter-um", "400"),
    ("render", "--frames", "2"),
    ("extract", "--diameter-px", "12"),
    ("simulate", "--batch", "1"),
    ("simulate", "--noise-px", "1"),
    ("simulate", "--dropout", "0.1"),
    ("simulate", "--diameter-um", "400"),
    ("simulate", "--jobs", "2"),
    ("bench", "--repeats", "1"),
    ("bench", "--ib-iterations", "1"),
    *((command, "--seed", "0") for command in COMMANDS if command != "bench"),
]


def _leaves(node, prefix=""):
    """(dotted path, default) of every leaf of a configuration snapshot."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAVES = list(_leaves(config_to_dict(SimulatorConfig())))
# scenario keys and their valid values; the particle falls from the default start
SCENARIO_KEYS = [
    ("particle.position", [25, 25, 45]),
    ("particle.velocity", [0, 0, -10]),
    ("particle.diameter_um", 400),
    ("pixel_noise_sigma", 1),
    ("dropout_prob", 0.1),
    ("seed", 7),
    ("target_override", [25, 25, 40]),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A zero hologram, a rendered frame with its background, and paths for
    the scenario and configuration files each example writes."""
    root = tmp_path_factory.mktemp("contract")
    np.savetxt(root / "hologram.csv", np.zeros((50, 50)), delimiter=",")
    assert main(["vision", "render", "--position", "25,25,40", "--camera", "h", "--out-dir", str(root)]) == 0
    (root / "scenario.yaml").write_text("particle: {}\n")
    _write_config(root / "config.yaml")
    return {
        "root": root,
        "hologram": root / "hologram.csv",
        "frame": root / "frame_h_000.pgm",
        "background": root / "background_h.pgm",
        "scenario": root / "scenario.yaml",
        "config": root / "config.yaml",
        "out": root / "out",
    }


def _replace(valid: str, index: int, value: str) -> str:
    parts = valid.split(",")
    parts[index % len(parts)] = value
    return ",".join(parts)


def _yaml(value, index: int, hostile: str) -> str:
    """A YAML token for a leaf of ``value``'s shape holding ``hostile``."""
    token = YAML_TOKEN.get(hostile, hostile)
    if isinstance(value, list):
        parts = [str(v) for v in value]
        parts[index % 3] = token
        return "[" + ", ".join(parts) + "]"
    return token


def _write_config(path, leaf: str | None = None, token: str | None = None) -> None:
    """A configuration file of control.frame_budget=2, control.hold_ticks=1
    and, if given, ``leaf`` set to the YAML ``token``."""
    tree = {"control": {"frame_budget": "2", "hold_ticks": "1"}}
    if leaf is not None:
        *sections, key = leaf.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = token
    flow = lambda node: "{" + ", ".join(f"{k}: {flow(v) if isinstance(v, dict) else v}" for k, v in node.items()) + "}"
    path.write_text(flow(tree) + "\n")


def _run(files, hostile: str, command: str, *extra: str) -> None:
    """Run one command line in-process and check the contract."""
    argv = [a.format(**files) for a in COMMANDS[command]]
    argv += ["--config", str(files["config"]), *extra, "--out-dir", str(files["out"])]
    err = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(io.StringIO()),
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (argv, code, lines)
    assert code or hostile not in REJECTED, (argv, code)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    if code:
        if lines and lines[0].startswith("usage:"):
            # argparse prints its usage block, then its one error line
            assert ": error: " in lines[-1], (argv, lines)
            lines = lines[-1:]
        assert len(lines) == 1, (argv, lines)
        assert "Vec3." not in lines[0], (argv, lines)


@CONTRACT
@given(st.sampled_from(OPTIONS), st.integers(0, 3), st.sampled_from(HOSTILE))
def test_options(files, option, index, hostile):
    command, name, valid = option
    _run(files, hostile, command, name, _replace(valid, index, hostile))


@CONTRACT
@given(
    st.sampled_from(LEAVES),
    st.integers(0, 2),
    st.sampled_from(HOSTILE),
    st.sampled_from(["focus", "field", "calibrate", "render", "simulate", "scenario"]),
    st.booleans(),
)
def test_configuration_leaves(files, leaf, index, hostile, command, from_file):
    path, default = leaf
    token = _yaml(default, index, hostile)
    if from_file:
        _write_config(files["config"], path, token)
        try:
            _run(files, hostile, command)
        finally:
            _write_config(files["config"])
    else:
        _run(files, hostile, command, "--set", f"{path}={token}")


@CONTRACT
@given(st.sampled_from(SCENARIO_KEYS), st.integers(0, 2), st.sampled_from(HOSTILE))
def test_scenario_files(files, key, index, hostile):
    path, valid = key
    token = _yaml(valid, index, hostile)
    if path.startswith("particle."):
        body = f"particle:\n  {path.partition('.')[2]}: {token}\n"
    else:
        body = f"particle: {{}}\n{path}: {token}\n"
    files["scenario"].write_text(body)
    _run(files, hostile, "scenario")


def _hostile_number(hostile: str):
    """The JSON value of a hostile entry: a number where it parses as one."""
    try:
        return int(hostile)
    except ValueError:
        pass
    try:
        return float(hostile)
    except ValueError:
        return hostile


@settings(CONTRACT, max_examples=60)
@given(
    st.sampled_from(["world", "pixel_h", "pixel_v"]),
    st.integers(0, 11),
    st.sampled_from(HOSTILE),
)
def test_calibration_files(files, field, index, hostile):
    """A calibration file loads and runs a short scenario, or fails with one
    line; no command reads one, so the Python API stands in for the CLI."""
    doc = calibration_to_dict(*default_calibration())
    value = _hostile_number(hostile)
    point = doc["reference_points"][index % len(doc["reference_points"])]
    point[field][index % len(point[field])] = value
    path = files["root"] / "calibration.json"
    path.write_text(json.dumps(doc))
    config = config_from_dict({"control": {"frame_budget": 2, "hold_ticks": 1}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            world = TrapWorld.from_config(config, load_calibration(path))
            run_trap_loop(SimScenario(ParticleState(Vec3(25.0, 25.0, 45.0))), world)
            assert hostile not in REJECTED
        except AcoustrapError as exc:
            message = str(exc)
            assert "\n" not in message and "Vec3." not in message, message
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
