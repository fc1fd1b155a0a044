from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from acoustrap.config import (
    ENV_CONFIG_VAR,
    FULL_IMAGE_SIZE,
    Background,
    ControlConfig,
    FieldConfig,
    SimulatorConfig,
    TrapConfig,
    VisionConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
    resolve_config,
)
from acoustrap.core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    MAX_ELEMENTS,
    MediumConfig,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
)
from acoustrap.errors import ConfigurationError


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _float_paths(cls, prefix=""):
    """Dotted paths of every float (or float | None) field below ``cls``;
    Vec3 fields are coerced from lists, not as floats."""
    for name, hint in get_type_hints(cls).items():
        if hint is float or float in get_args(hint):
            yield f"{prefix}{name}"
        elif is_dataclass(hint) and hint is not Vec3:
            yield from _float_paths(hint, f"{prefix}{name}.")


FLOAT_PATHS = list(_float_paths(SimulatorConfig))


# Valid configurations: every section varies within its accepted ranges;
# the workspace centre moves a few mm so the workspace stays in the tank.
CONFIGS = st.builds(
    SimulatorConfig,
    medium=st.builds(MediumConfig, sound_speed=_num(100, 5000), density=_num(100, 5000)),
    array=st.builds(
        TransducerArray,
        rows=st.integers(1, 64),
        cols=st.integers(1, 64),
        pitch=_num(0.1, 5.0),
        frequency=_num(1e4, 1e7),
        origin=st.builds(Vec3, _num(-10, 10), _num(-10, 10), _num(-10, 10)),
        emission_amplitude=_num(0.01, 10.0),
    ),
    timing=st.builds(
        TimingConfig,
        t_dip=_num(0, 1),
        t_trans=_num(0, 1),
        camera_fps=_num(1, 200),
        poh_update_fps=_num(1, 200),
    ),
    workspace=st.builds(
        WorkspaceConfig, center=st.builds(Vec3, _num(20, 30), _num(20, 30), _num(35, 45))
    ),
    vision=st.builds(
        VisionConfig,
        scale=_num(0.05, 1.0),
        image_width=st.integers(8, 4096),
        image_height=st.integers(8, 4096),
        noise_sigma=_num(0, 20),
        background=st.builds(
            Background,
            kind=st.sampled_from(["flat", "gradient"]),
            level=_num(0, 255),
            du=_num(-50, 50),
            dv=_num(-50, 50),
        ),
        particle_level=_num(0, 255),
        binarize_offset=_num(0, 50),
        min_foreground_fraction=st.floats(0, 1, exclude_min=True),
    ),
    field=st.builds(FieldConfig, piston_directivity=st.booleans()),
    trap=st.builds(
        TrapConfig,
        octahedron_diameter=_num(0, 10),
        containment_tol=st.none() | _num(0.01, 5),
    ),
    control=st.builds(
        ControlConfig,
        fall_speed=_num(0, 100),
        frame_budget=st.integers(1, 1000),
        confirm_tol=_num(0.01, 5),
        hold_ticks=st.integers(1, 20),
    ),
)


class TestDefaults:
    def test_reference_hardware_constants(self, config):
        assert (config.array.rows, config.array.cols) == (50, 50)
        assert config.array.frequency == 2.3e6
        assert config.medium.sound_speed == 1500.0
        assert config.timing.camera_fps == 15.0
        assert config.timing.poh_update_fps == 11.0
        assert FULL_IMAGE_SIZE == (2448, 2050)
        assert config.workspace.extent == Vec3(37.0, 30.0, 30.0)

    def test_quarter_scale_vision_default(self, config):
        v = config.vision
        assert v.scale == 0.25
        assert (v.image_width, v.image_height) == (612, 512)

    def test_full_scale_profile(self):
        v = VisionConfig.full_scale()
        assert v.scale == 1.0
        assert (v.image_width, v.image_height) == FULL_IMAGE_SIZE

    def test_trap_defaults(self, config):
        assert config.trap.octahedron_diameter == DEFAULT_OCTAHEDRON_DIAMETER
        assert config.trap.containment_tol is None
        assert config.field.piston_directivity is False

    def test_control_defaults(self, config):
        assert config.control.frame_budget == 150
        assert config.control.fall_speed == 10.0
        assert config.control.hold_ticks == 3


class TestValidation:
    def test_trap_config_bounds(self):
        with pytest.raises(ConfigurationError):
            TrapConfig(octahedron_diameter=-1.0)
        with pytest.raises(ConfigurationError):
            TrapConfig(containment_tol=0.0)

    def test_vision_config_bounds(self):
        with pytest.raises(ConfigurationError):
            VisionConfig(scale=0.0)
        with pytest.raises(ConfigurationError):
            VisionConfig(noise_sigma=-1.0)
        for fraction in (-1.0, 0.0, 1.5, float("nan")):
            with pytest.raises(ConfigurationError, match="vision.min_foreground_fraction"):
                VisionConfig(min_foreground_fraction=fraction)
        assert VisionConfig(min_foreground_fraction=1.0).min_foreground_fraction == 1.0

    def test_background_kind(self):
        with pytest.raises(ConfigurationError):
            Background(kind="checkerboard")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigurationError, match="unknown configuration section"):
            config_from_dict({"fields": {}})

    def test_unknown_key_named_with_path(self):
        with pytest.raises(ConfigurationError, match="trap.diameter"):
            config_from_dict({"trap": {"diameter": 2.0}})

    def test_type_errors_carry_path(self):
        with pytest.raises(ConfigurationError, match="array.rows"):
            config_from_dict({"array": {"rows": "many"}})
        with pytest.raises(ConfigurationError, match="field.piston_directivity"):
            config_from_dict({"field": {"piston_directivity": 1}})

    def test_exponent_strings_parse_as_numbers(self, tmp_path):
        # YAML 1.1 reads 2.3e6 (no dot, no exponent sign) as a string
        p = tmp_path / "cfg.yaml"
        p.write_text("array:\n  frequency: 2.3e6\n")
        assert load_config(p).array.frequency == 2.3e6
        cfg = resolve_config(None, ["array.frequency=2.3e6", "medium.sound_speed=1.5e3"])
        assert cfg.array.frequency == 2.3e6
        assert cfg.medium.sound_speed == 1500.0
        for bad in ("fast", "inf", "nan"):
            with pytest.raises(ConfigurationError, match="array.frequency must be a number"):
                config_from_dict({"array": {"frequency": bad}})

    def test_optional_float_accepts_none_and_numeric_string(self):
        assert config_from_dict({"trap": {"containment_tol": None}}).trap.containment_tol is None
        assert config_from_dict({"trap": {"containment_tol": "2.5e-1"}}).trap.containment_tol == 0.25
        with pytest.raises(ConfigurationError, match="trap.containment_tol must be a number"):
            config_from_dict({"trap": {"containment_tol": "tight"}})

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "1e400"]
    )
    @pytest.mark.parametrize("path", FLOAT_PATHS)
    def test_non_finite_float_names_its_field(self, path, value):
        raw = value
        for key in reversed(path.split(".")):
            raw = {key: raw}
        with pytest.raises(ConfigurationError, match=f"^{path} must be finite"):
            config_from_dict(raw)

    def test_element_count_bounded(self):
        cfg = config_from_dict({"array": {"rows": 100, "cols": 100}})
        assert cfg.array.element_count == MAX_ELEMENTS
        for rows, cols in ((101, 100), (100_000, 50)):
            with pytest.raises(ConfigurationError, match=r"array\.rows x array\.cols must be at most"):
                config_from_dict({"array": {"rows": rows, "cols": cols}})

    def test_vec3_fields_parse_lists_only(self):
        cfg = config_from_dict({"workspace": {"center": [25, 25, 41]}})
        assert cfg.workspace.center == Vec3(25.0, 25.0, 41.0)
        with pytest.raises(ConfigurationError, match="workspace.center"):
            config_from_dict({"workspace": {"center": [25, 25]}})
        with pytest.raises(ConfigurationError, match="workspace.center"):
            config_from_dict({"workspace": {"center": [25, 25, "a"]}})
        with pytest.raises(ConfigurationError, match="array.origin must be a 3-element list of finite"):
            config_from_dict({"array": {"origin": [0, 0, float("nan")]}})


class TestLoadAndOverrides:
    def test_empty_file_yields_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_config(p) == SimulatorConfig()

    def test_yaml_roundtrip(self, tmp_path, config):
        import yaml

        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(config_to_dict(config)))
        assert load_config(p) == config

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_yaml_is_configuration_error(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("trap: [unclosed")
        with pytest.raises(ConfigurationError):
            load_config(p)

    def test_overrides_parse_yaml_scalars(self):
        raw = apply_overrides({}, [
            "trap.octahedron_diameter=2.4",
            "field.piston_directivity=true",
            "workspace.center=[25, 25, 42]",
        ])
        cfg = config_from_dict(raw)
        assert cfg.trap.octahedron_diameter == 2.4
        assert cfg.field.piston_directivity is True
        assert cfg.workspace.center == Vec3(25.0, 25.0, 42.0)

    def test_override_requires_section_and_key(self):
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["octahedron_diameter=2.4"])
        with pytest.raises(ConfigurationError):
            apply_overrides({}, ["trap.octahedron_diameter:2.4"])

    def test_overrides_layer_on_file_values(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("trap:\n  octahedron_diameter: 3.0\n")
        cfg = resolve_config(str(p), ["trap.octahedron_diameter=1.5"])
        assert cfg.trap.octahedron_diameter == 1.5

    def test_env_var_supplies_path(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.yaml"
        p.write_text("control:\n  fall_speed: 7.5\n")
        monkeypatch.setenv(ENV_CONFIG_VAR, str(p))
        assert resolve_config(None).control.fall_speed == 7.5

    def test_explicit_path_beats_env_var(self, tmp_path, monkeypatch):
        a = tmp_path / "a.yaml"
        a.write_text("control:\n  fall_speed: 1.0\n")
        b = tmp_path / "b.yaml"
        b.write_text("control:\n  fall_speed: 2.0\n")
        monkeypatch.setenv(ENV_CONFIG_VAR, str(a))
        assert resolve_config(str(b)).control.fall_speed == 2.0

    def test_resolve_matches_load(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("trap:\n  octahedron_diameter: 3.0\ncontrol:\n  fall_speed: 7.5\n")
        assert resolve_config(str(p)) == load_config(p)
        assert load_config(p).trap.octahedron_diameter == 3.0

    def test_non_mapping_root_is_configuration_error(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            load_config(p)
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            resolve_config(str(p))

    def test_removed_extraction_keys_are_unknown(self):
        for key in ("ransac_iterations", "ransac_inlier_band_px",
                    "ransac_early_exit_fraction", "min_contour_px"):
            with pytest.raises(ConfigurationError, match=f"unknown configuration key vision.{key}"):
                config_from_dict({"vision": {key: 1}})

    def test_defaults_when_nothing_given(self, monkeypatch):
        monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)
        assert resolve_config(None) == SimulatorConfig()


class TestSnapshot:
    def test_config_to_dict_is_plain_data(self, config):
        import json

        snap = config_to_dict(config)
        json.dumps(snap)  # serializable without custom encoders
        assert snap["workspace"]["center"] == [25.0, 25.0, 40.0]
        assert snap["trap"]["octahedron_diameter"] == DEFAULT_OCTAHEDRON_DIAMETER

    def test_snapshot_roundtrips_through_builder(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    @given(CONFIGS)
    def test_any_valid_config_roundtrips(self, cfg):
        snap = config_to_dict(cfg)
        assert config_from_dict(snap) == cfg
        assert config_from_dict(yaml.safe_load(yaml.safe_dump(snap))) == cfg
