"""Simulator configuration: dataclasses, YAML loading, and overrides.

A configuration file is a YAML mapping with one section per subsystem
(``medium``, ``array``, ``timing``, ``workspace``, ``vision``, ``field``,
``trap``, ``control``). Every key is optional; omitted keys keep the
defaults below, which reproduce the reference desk setup. Unknown keys are
rejected with the offending field named.

``_build_dataclass`` is the one schema check: it turns a raw mapping into
any of these dataclasses, and the CLI builds scenario files with it too.
"""

from __future__ import annotations

import dataclasses
import math
import os
import types
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .core import (
    DEFAULT_OCTAHEDRON_DIAMETER,
    Contrast,
    MediumConfig,
    TimingConfig,
    TransducerArray,
    Vec3,
    WorkspaceConfig,
    check_ranges,
    within,
)
from .errors import ConfigurationError

ENV_CONFIG_VAR = "ACOUSTRAP_CONFIG"

# Native sensor resolution of the reference cameras; the default desk
# profile renders at scale 0.25 of this to keep simulations fast.
FULL_IMAGE_SIZE = (2448, 2050)
# Smallest vision.scale: the rendered sensor keeps at least 8 px a side.
MIN_SCALE = 8 / min(FULL_IMAGE_SIZE)


def gray_level(default: float, lo: float = 0.0):
    """A field of gray levels within [lo, 255]: past 255 a noise sigma saturates
    every pixel, and an offset either way makes the binarization threshold constant."""
    return within(default, lo, 255.0)


@dataclass(frozen=True)
class Background:
    """Scene background model for rendered frames.

    kind "flat" uses ``level`` everywhere; "gradient" adds ``du`` across
    the image width and ``dv`` down the height (gray levels).
    """

    kind: str = "flat"
    level: float = gray_level(180.0)
    du: float = 0.0
    dv: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "gradient"):
            raise ConfigurationError(
                f"vision.background.kind must be 'flat' or 'gradient', got {self.kind!r}"
            )
        check_ranges(self, "vision.background")


@dataclass(frozen=True)
class VisionConfig:
    """Virtual camera pair and feature extraction settings.

    ``scale`` relates rendered pixels to the native sensor: Jacobian rows,
    reference pixels, and the rendered image size (``image_size``) all
    shrink by the same factor so projections stay consistent. It lies in
    [``MIN_SCALE``, 1]: at least 8x8 px, never above the native sensor.
    """

    scale: float = within(0.25, MIN_SCALE, 1.0)
    noise_sigma: float = gray_level(0.0)
    background: Background = Background()
    particle_level: float = gray_level(40.0)
    binarize_offset: float = gray_level(10.0, -255.0)
    min_foreground_fraction: float = within(0.3, gt=0.0, hi=1.0)

    def __post_init__(self) -> None:
        check_ranges(self, "vision")

    @property
    def image_size(self) -> tuple[int, int]:
        """(width, height) of rendered frames: the native sensor at ``scale``."""
        return (int(FULL_IMAGE_SIZE[0] * self.scale), int(FULL_IMAGE_SIZE[1] * self.scale))


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
    octahedron_diameter: float = within(DEFAULT_OCTAHEDRON_DIAMETER, 0.0)

    def __post_init__(self) -> None:
        check_ranges(self, "trap")


# Most frames one loop may take; the loop keeps a record of every frame.
MAX_FRAME_BUDGET = 10_000


@dataclass(frozen=True)
class ControlConfig:
    """Closed-loop controller settings."""

    fall_speed: float = 10.0                                # default particle sink rate, mm/s
    frame_budget: int = within(150, 2, MAX_FRAME_BUDGET)    # frames before the loop gives up
    confirm_tol: float = within(0.3, gt=0.0)                # track linearity tolerance, mm
    hold_ticks: int = within(3, 1)                          # consecutive contained ticks => trapped

    def __post_init__(self) -> None:
        check_ranges(self, "control")
        if self.hold_ticks >= self.frame_budget:
            raise ConfigurationError(
                f"control.hold_ticks={self.hold_ticks} must be below control.frame_budget={self.frame_budget}:"
                " tick 0 always acquires, so the hold could never complete"
            )


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


_SECTION_TYPES = {f.name: type(f.default) for f in fields(SimulatorConfig)}


def _coerce(cls: type, value: Any, path: str) -> Any:
    """Convert a raw YAML value to the target field type, or raise."""
    if cls is Vec3:
        if isinstance(value, (list, tuple)) and len(value) == 3:
            try:
                return Vec3.from_array(value)
            except ConfigurationError:
                pass
        raise ConfigurationError(f"{path} must be a 3-element list of finite numbers, got {value!r}")
    if dataclasses.is_dataclass(cls):
        if isinstance(value, dict):
            return _build_dataclass(cls, value, path)
        raise ConfigurationError(f"{path} must be a mapping, got {value!r}")
    if cls is Contrast:
        if isinstance(value, str):
            try:
                return Contrast.parse(value)
            except ConfigurationError:
                pass
        raise ConfigurationError(f"{path} must be 'positive' or 'negative', got {value!r}")
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
    """Build ``cls`` from a raw mapping, naming ``prefix.key`` in every error."""
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
    """Parse a YAML configuration or scenario file into a raw dict; empty
    yields {}."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {p}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {p}: {' '.join(str(exc).split())}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"the root of {p} must be a mapping")
    return raw


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


def resolve_config(
    path: str | os.PathLike | None, overrides: list[str] | None = None
) -> SimulatorConfig:
    """Load the configuration: the one loader of configuration files.

    Resolution order: explicit ``path`` argument, then the environment
    variable named by ``ENV_CONFIG_VAR``, then built-in defaults; an empty
    file yields the defaults. ``overrides`` are applied last.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    raw = _read_raw(path) if path is not None else {}
    if overrides:
        raw = apply_overrides(raw, overrides)
    return config_from_dict(raw)
