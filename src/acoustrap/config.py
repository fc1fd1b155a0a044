"""Simulator configuration: dataclasses, YAML loading, and overrides.

A configuration file is a YAML mapping with one section per subsystem
(``medium``, ``array``, ``timing``, ``workspace``, ``vision``, ``field``,
``trap``, ``control``). Every key is optional; omitted keys keep the
defaults below, which reproduce the reference desk setup. Unknown keys are
rejected with the offending field named.
"""

from __future__ import annotations

import dataclasses
import math
import os
import types
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    MediumConfig,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
)
from .errors import ConfigurationError

ENV_CONFIG_VAR = "ACOUSTRAP_CONFIG"

# Native sensor resolution of the reference cameras; the default desk
# profile renders at scale 0.25 of this to keep simulations fast.
FULL_IMAGE_SIZE = (2448, 2050)


@dataclass(frozen=True)
class Background:
    """Scene background model for rendered frames.

    kind "flat" uses ``level`` everywhere; "gradient" adds ``du`` across
    the image width and ``dv`` down the height (gray levels).
    """

    kind: str = "flat"
    level: float = 180.0
    du: float = 0.0
    dv: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "gradient"):
            raise ConfigurationError(
                f"vision.background.kind must be 'flat' or 'gradient', got {self.kind!r}"
            )
        if not (0.0 <= self.level <= 255.0):
            raise ConfigurationError(
                f"vision.background.level must be within [0, 255], got {self.level}"
            )


@dataclass(frozen=True)
class VisionConfig:
    """Virtual camera pair and feature extraction settings.

    ``scale`` relates rendered pixels to the native sensor: Jacobian rows,
    reference pixels, and image size all shrink by the same factor so
    projections stay consistent.
    """

    scale: float = 0.25
    image_width: int = 612
    image_height: int = 512
    noise_sigma: float = 0.0
    background: Background = Background()
    particle_level: float = 40.0
    binarize_offset: float = 10.0
    min_foreground_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"vision.scale must be > 0, got {self.scale}")
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigurationError(
                f"vision.image size must be at least 8x8, got {self.image_width}x{self.image_height}"
            )
        if self.noise_sigma < 0:
            raise ConfigurationError(f"vision.noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.particle_level <= 255.0):
            raise ConfigurationError(
                f"vision.particle_level must be within [0, 255], got {self.particle_level}"
            )
        if not (0.0 < self.min_foreground_fraction <= 1.0):  # also rejects NaN
            raise ConfigurationError(
                "vision.min_foreground_fraction must be within (0, 1], got "
                f"{self.min_foreground_fraction}"
            )

    @classmethod
    def full_scale(cls, **kwargs) -> "VisionConfig":
        """Native-resolution profile (slow; used for pixel-accuracy checks)."""
        return cls(
            scale=1.0, image_width=FULL_IMAGE_SIZE[0], image_height=FULL_IMAGE_SIZE[1], **kwargs
        )


@dataclass(frozen=True)
class FieldConfig:
    """Field evaluation options."""

    # Square-piston far-field directivity per element; off keeps the plain
    # monopole superposition.
    piston_directivity: bool = False


@dataclass(frozen=True)
class TrapConfig:
    """Trap geometry defaults."""

    # Node cage span for positive-contrast particles, mm; fixed regardless
    # of particle size.  The default sits at the array's contrast optimum so
    # the cage keeps its central pressure null.
    octahedron_diameter: float = DEFAULT_OCTAHEDRON_DIAMETER
    # Containment tolerance in mm; None derives half a wavelength.
    containment_tol: float | None = None

    def __post_init__(self) -> None:
        if self.octahedron_diameter < 0:
            raise ConfigurationError(
                f"trap.octahedron_diameter must be >= 0, got {self.octahedron_diameter}"
            )
        if self.containment_tol is not None and self.containment_tol <= 0:
            raise ConfigurationError(
                f"trap.containment_tol must be > 0, got {self.containment_tol}"
            )


@dataclass(frozen=True)
class ControlConfig:
    """Closed-loop controller settings."""

    fall_speed: float = 10.0        # default particle sink rate, mm/s
    frame_budget: int = 150         # frames before the loop gives up
    confirm_tol: float = 0.3        # track linearity tolerance, mm
    hold_ticks: int = 3             # consecutive contained ticks => trapped

    def __post_init__(self) -> None:
        if self.frame_budget < 1:
            raise ConfigurationError(
                f"control.frame_budget must be >= 1, got {self.frame_budget}"
            )
        if self.confirm_tol <= 0:
            raise ConfigurationError(f"control.confirm_tol must be > 0, got {self.confirm_tol}")
        if self.hold_ticks < 1:
            raise ConfigurationError(f"control.hold_ticks must be >= 1, got {self.hold_ticks}")


@dataclass(frozen=True)
class SimulatorConfig:
    """Top-level configuration bundle."""

    medium: MediumConfig = MediumConfig()
    array: TransducerArray = TransducerArray()
    timing: TimingConfig = TimingConfig()
    workspace: WorkspaceConfig = WorkspaceConfig()
    vision: VisionConfig = VisionConfig()
    field: FieldConfig = FieldConfig()
    trap: TrapConfig = TrapConfig()
    control: ControlConfig = ControlConfig()


_SECTION_TYPES = {
    "medium": MediumConfig,
    "array": TransducerArray,
    "timing": TimingConfig,
    "workspace": WorkspaceConfig,
    "vision": VisionConfig,
    "field": FieldConfig,
    "trap": TrapConfig,
    "control": ControlConfig,
}


def _coerce(cls: type, value: Any, path: str) -> Any:
    """Convert a raw YAML value to the target field type, or raise."""
    if cls is Vec3:
        if isinstance(value, Vec3):
            return value
        if isinstance(value, (list, tuple)) and len(value) == 3:
            try:
                return Vec3.from_array(value)
            except (TypeError, ValueError, ConfigurationError):
                pass
        raise ConfigurationError(f"{path} must be a 3-element list of finite numbers, got {value!r}")
    if cls is Background:
        if isinstance(value, Background):
            return value
        if isinstance(value, dict):
            return _build_dataclass(Background, value, path)
        raise ConfigurationError(f"{path} must be a mapping, got {value!r}")
    if cls is bool:
        if isinstance(value, bool):
            return value
        raise ConfigurationError(f"{path} must be a boolean, got {value!r}")
    if cls is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{path} must be an integer, got {value!r}")
        return value
    if cls is float:
        # YAML 1.1 reads exponents without a dot or sign, such as 2.3e6, as strings
        if isinstance(value, str):
            try:
                if math.isfinite(number := float(value)):
                    return number
            except ValueError:
                pass
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if not math.isfinite(number):  # YAML reads .nan and .inf as floats
            raise ConfigurationError(f"{path} must be finite, got {value!r}")
        return number
    if cls is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path} must be a string, got {value!r}")
        return value
    return value


def _build_dataclass(cls: type, data: dict, prefix: str):
    known = {f.name for f in fields(cls)}
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigurationError(f"unknown configuration key {prefix}.{key}")
        target = hints[key]
        if get_origin(target) in (Union, types.UnionType):  # the only unions are "X | None"
            if value is None:
                kwargs[key] = None
                continue
            target = next(m for m in get_args(target) if m is not type(None))
        kwargs[key] = _coerce(target, value, f"{prefix}.{key}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> SimulatorConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"configuration root must be a mapping, got {type(raw).__name__}")
    sections = {}
    for key, value in raw.items():
        if key not in _SECTION_TYPES:
            raise ConfigurationError(f"unknown configuration section {key!r}")
        if value is None:
            continue
        if not isinstance(value, dict):
            raise ConfigurationError(f"configuration section {key!r} must be a mapping")
        sections[key] = _build_dataclass(_SECTION_TYPES[key], value, key)
    return SimulatorConfig(**sections)


def _read_raw(path: str | os.PathLike) -> dict:
    """Parse a YAML configuration file into a raw dict; empty yields {}."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read configuration file {p}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed configuration file {p}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"configuration root must be a mapping in {p}")
    return raw


def load_config(path: str | os.PathLike) -> SimulatorConfig:
    """Load a YAML configuration file; an empty file yields the defaults."""
    return config_from_dict(_read_raw(path))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` strings onto a raw configuration dict.

    Values go through the YAML scalar parser, so ``true``, ``2.3e6`` and
    ``[25, 25, 40]`` all coerce naturally.
    """
    result = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must look like section.key=value")
        dotted, _, text = item.partition("=")
        keys = [k for k in dotted.strip().split(".") if k]
        if len(keys) < 2:
            raise ConfigurationError(f"override {item!r} must name a section and a key")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError:
            value = text
        node = result
        for k in keys[:-1]:
            nxt = node.get(k)
            if nxt is None:
                nxt = {}
                node[k] = nxt
            elif not isinstance(nxt, dict):
                raise ConfigurationError(f"override {item!r} descends into non-mapping {k!r}")
            node = nxt
        node[keys[-1]] = value
    return result


def _plain(value: Any) -> Any:
    if isinstance(value, Vec3):
        return [value.x, value.y, value.z]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Path):
        return str(value)
    return value


def config_to_dict(config: SimulatorConfig) -> dict:
    """Plain nested dict snapshot, suitable for JSON/YAML serialization."""
    return {f.name: _plain(getattr(config, f.name)) for f in fields(config)}


def resolve_config(path: str | None, overrides: list[str] | None = None) -> SimulatorConfig:
    """Load configuration for a CLI invocation.

    Resolution order: explicit ``path`` argument, then the environment
    variable named by ``ENV_CONFIG_VAR``, then built-in defaults.
    ``overrides`` are applied last.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    raw = _read_raw(path) if path is not None else {}
    if overrides:
        raw = apply_overrides(raw, overrides)
    return config_from_dict(raw)
