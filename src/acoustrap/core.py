"""Shared domain types and coordinate conventions.

Lengths are millimeters and times are seconds everywhere inside the
simulator; micrometers appear only at interface boundaries (particle
diameters, Jacobian entries in pixel per micrometer).

The array frame has its origin at a corner of the transducer aperture.
Elements sit in the ``z = 0`` plane, row index ``i`` runs along ``+x``,
column index ``j`` along ``+y``, and the water volume occupies ``z > 0``.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, GeometryError

TWO_PI = 2.0 * math.pi


def usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cos_sin(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of ``2 * half``; the sine overwrites ``half``.

    With t = tan(half), cos = 2 / (1 + t^2) - 1 and sin = 2t / (1 + t^2).
    One tangent replaces a cosine and a sine. Where numpy vectorises the
    float64 tangent but not the cosine or sine (x86-64 with AVX-512), the
    whole form costs about a fifth of np.cos plus np.sin. It agrees with
    them to about 1e-15.
    """
    t = np.tan(half, out=half)
    h = t * t
    h += 1.0
    np.divide(2.0, h, out=h)
    sin = np.multiply(t, h, out=t)
    cos = np.subtract(h, 1.0, out=h)
    return cos, sin


def _dot(x, y) -> float:
    """Products summed left to right in Python floats. Not ``sum``: from
    Python 3.12 on it compensates float sums, so its bits differ by version."""
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


@dataclass(frozen=True)
class Vec3:
    """Point or displacement in the array frame, in millimeters. Arithmetic
    does not check it: coordinates from outside (configuration, scenario and
    calibration files, CLI points) are checked once, by ``from_array``."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, values) -> "Vec3":
        try:
            x, y, z = coords = [float(v) for v in values]
            if all(map(math.isfinite, coords)):
                return cls(x, y, z)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigurationError(f"expected three finite numbers, got {values!r}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scale: float) -> "Vec3":
        return Vec3(self.x * scale, self.y * scale, self.z * scale)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()


@dataclass(frozen=True)
class Range:
    """The values a setting accepts: ``lo`` to ``hi``, each end closed
    unless marked open. An infinite end is always open, and NaN lies in
    no range."""

    lo: float
    hi: float
    lo_open: bool
    hi_open: bool

    def __str__(self) -> str:
        """The message's wording: ``> lo``, ``>= lo`` or ``within [lo, hi]``
        with a parenthesis at an open end."""
        lo = _bound_text(self.lo)
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {lo}"
        left, right = "(" if self.lo_open else "[", ")" if self.hi_open else "]"
        return f"within {left}{lo}, {_bound_text(self.hi)}{right}"


def _bound_text(x: float) -> str:
    if isinstance(x, int):
        return f"{x:,}"
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def within(default, lo=-math.inf, hi=math.inf, *, gt=None, lt=None):
    """A dataclass field whose value must lie in [lo, hi]; ``gt`` or ``lt``
    gives an open end instead. A ``Vec3`` value is checked per component."""
    lo_open, hi_open = gt is not None or lo == -math.inf, lt is not None or hi == math.inf
    bounds = Range(lo if gt is None else gt, hi if lt is None else lt, lo_open, hi_open)
    return field(default=default, metadata={"range": bounds})


def declared_ranges(cls: type) -> tuple[tuple[str, Range], ...]:
    """(field name, range) of every field of ``cls`` declared by ``within``."""
    return tuple((f.name, f.metadata["range"]) for f in fields(cls) if "range" in f.metadata)


@cache
def _range_checks(cls: type) -> tuple:
    """One (label, getter, lo, lo test, hi, hi test, range) per checked
    number of ``cls``, three for a Vec3 field; built once per class, since
    every tick of the loop builds a ParticleState."""
    checks = []
    for name, r in declared_ranges(cls):
        lo_ok, hi_ok = operator.lt if r.lo_open else operator.le, operator.lt if r.hi_open else operator.le
        for label in [f"{name}.{c}" for c in "xyz"] if isinstance(getattr(cls, name), Vec3) else [name]:
            checks.append((label, operator.attrgetter(label), r.lo, lo_ok, r.hi, hi_ok, r))
    return tuple(checks)


def check_ranges(obj, section: str) -> None:
    """Raise ``ConfigurationError`` for the first field of ``obj`` outside
    its declared range, naming it ``section.field``."""
    for label, get, lo, lo_ok, hi, hi_ok, bounds in _range_checks(type(obj)):
        v = get(obj)
        if not (lo_ok(lo, v) and hi_ok(v, hi)):
            raise ConfigurationError(f"{section}.{label} must be {bounds}, got {v}")


class Contrast(Enum):
    """Acoustic contrast class of a particle relative to water.

    POSITIVE (rigid beads, e.g. polystyrene) are pushed toward pressure
    nodes; NEGATIVE (compressible beads, e.g. silicone elastomer) are
    pulled toward pressure antinodes.
    """

    POSITIVE = "positive"
    NEGATIVE = "negative"

    @classmethod
    def parse(cls, text: str) -> "Contrast":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigurationError(
                f"contrast must be 'positive' or 'negative', got {text!r}"
            ) from None


@dataclass(frozen=True)
class MediumConfig:
    """Homogeneous propagation medium (water by default).

    Parameters
    ----------
    sound_speed : float
        Speed of sound in m/s.
    density : float
        Mass density in kg/m^3.
    """

    sound_speed: float = within(1500.0, gt=0.0)
    density: float = within(1000.0, gt=0.0)

    def __post_init__(self) -> None:
        check_ranges(self, "medium")


# Element-count bound (100x100): the field kernel's per-chunk temporaries
# grow by about 10 KB per element.
MAX_ELEMENTS = 10_000

# Longest aperture side and largest origin coordinate (1 km): keeps phases finite.
MAX_ARRAY_LENGTH_MM = 1e6


@dataclass(frozen=True)
class TransducerArray:
    """Planar rectangular grid of identically driven emitters.

    Parameters
    ----------
    rows, cols : int
        Grid dimensions; element (i, j) has its center at
        ``origin + ((i + 0.5) * pitch, (j + 0.5) * pitch, 0)``.
    pitch : float
        Center-to-center spacing in mm.
    frequency : float
        Drive frequency in Hz.
    origin : Vec3
        Corner of the aperture in the array frame.
    emission_amplitude : float
        Per-element source strength in arbitrary pressure units.
    """

    rows: int = within(50, 1)
    cols: int = within(50, 1)
    pitch: float = within(1.0, gt=0.0)
    frequency: float = within(2.3e6, gt=0.0)
    origin: Vec3 = within(Vec3(0.0, 0.0, 0.0), -MAX_ARRAY_LENGTH_MM, MAX_ARRAY_LENGTH_MM)
    emission_amplitude: float = within(1.0, gt=0.0)

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            if not isinstance(getattr(self, name), int):
                raise ConfigurationError(f"array.{name} must be an integer, got {getattr(self, name)!r}")
        check_ranges(self, "array")
        if self.rows * self.cols > MAX_ELEMENTS:
            raise ConfigurationError(
                f"array.rows x array.cols must be at most {MAX_ELEMENTS:,} elements,"
                f" got {self.rows}x{self.cols}"
            )
        if not max(self.rows, self.cols) * self.pitch <= MAX_ARRAY_LENGTH_MM:
            raise ConfigurationError(
                f"array.pitch {self.pitch} makes the aperture longer than {MAX_ARRAY_LENGTH_MM:g} mm"
            )

    @property
    def element_count(self) -> int:
        return self.rows * self.cols

    def element_centers(self) -> np.ndarray:
        """All element centers as a read-only ``(rows * cols, 3)`` array,
        row-major, built once per array and shared.

        Flat index ``i * cols + j`` corresponds to element ``(i, j)``.
        """
        return _element_centers(self)


@lru_cache(maxsize=8)
def _element_centers(array: TransducerArray) -> np.ndarray:
    i = np.arange(array.rows, dtype=float)
    j = np.arange(array.cols, dtype=float)
    x = array.origin.x + (i + 0.5) * array.pitch
    y = array.origin.y + (j + 0.5) * array.pitch
    xx, yy = np.meshgrid(x, y, indexing="ij")
    zz = np.full_like(xx, array.origin.z)
    centers = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    centers.flags.writeable = False
    return centers


def wavelength(medium: MediumConfig, array: TransducerArray) -> float:
    """Acoustic wavelength in mm for the array's drive frequency."""
    lam = medium.sound_speed / array.frequency * 1e3
    if not math.isfinite(lam) or lam <= 0:
        raise GeometryError(f"non-positive wavelength from c={medium.sound_speed}, f={array.frequency}")
    return lam


# Longest accepted t_dip or t_trans, s; the prediction overflows far past it.
MAX_LATENCY_S = 60.0


@dataclass(frozen=True)
class TimingConfig:
    """Latency and cadence constants of the pipeline.

    Parameters
    ----------
    t_dip : float
        Image processing latency in seconds (capture to localized position).
    t_trans : float
        Phase transfer latency in seconds (hologram dispatch to field on).
    camera_fps : float
        Binocular capture rate in frames per second.
    poh_update_fps : float
        Maximum hologram refresh rate supported by the drive link.
    """

    t_dip: float = within(0.060, 0.0, MAX_LATENCY_S)
    t_trans: float = within(0.090, 0.0, MAX_LATENCY_S)
    camera_fps: float = within(15.0, gt=0.0)
    poh_update_fps: float = within(11.0, gt=0.0)

    def __post_init__(self) -> None:
        check_ranges(self, "timing")

    @property
    def horizon(self) -> float:
        """Total actuation delay compensated by motion prediction, seconds."""
        return self.t_dip + self.t_trans


MAX_PARTICLE_DIAMETER_UM = 1000.0

# Cage span tuned for the deepest center-to-vertex pressure contrast of the
# default 50x50 array at 2.3 MHz; contrast oscillates with span (period ~ one
# wavelength), so off-optimum spans fill the central null back in.  Sweep data
# lives in tests/baselines/trap_quality.json.
DEFAULT_OCTAHEDRON_DIAMETER = 2.533


@dataclass(frozen=True)
class ParticleState:
    """Ground-truth particle state used by the simulator.

    position in mm, velocity in mm/s, diameter in micrometers.
    """

    position: Vec3
    velocity: Vec3 = Vec3(0.0, 0.0, 0.0)
    diameter_um: float = within(400.0, gt=0.0, hi=MAX_PARTICLE_DIAMETER_UM)
    contrast: Contrast = Contrast.POSITIVE

    def __post_init__(self) -> None:
        check_ranges(self, "particle")
        if not isinstance(self.contrast, Contrast):
            raise ConfigurationError(f"particle.contrast must be a Contrast, got {self.contrast!r}")


@dataclass(frozen=True)
class WorkspaceConfig:
    """Observable working volume and the surrounding water tank.

    The workspace is the axis-aligned box both cameras cover; the tank
    bounds every field evaluation. Both are in the array frame, mm.
    """

    center: Vec3 = Vec3(25.0, 25.0, 40.0)
    extent: Vec3 = within(Vec3(37.0, 30.0, 30.0), gt=0.0)
    tank_center: Vec3 = Vec3(25.0, 25.0, 30.0)
    tank_extent: Vec3 = within(Vec3(110.0, 110.0, 60.0), gt=0.0)

    def __post_init__(self) -> None:
        check_ranges(self, "workspace")
        lo = self.min_corner
        if lo.z <= 0:
            raise ConfigurationError(
                f"workspace must sit strictly above the array plane, got z_min={lo.z}"
            )
        if not self.tank_contains_points(np.array([lo.as_array(), self.max_corner.as_array()])):
            raise ConfigurationError("workspace must lie inside the tank bounds")

    @cached_property
    def min_corner(self) -> Vec3:
        return self.center - 0.5 * self.extent

    @cached_property
    def max_corner(self) -> Vec3:
        return self.center + 0.5 * self.extent

    @cached_property
    def tank_min(self) -> Vec3:
        return self.tank_center - 0.5 * self.tank_extent

    @cached_property
    def tank_max(self) -> Vec3:
        return self.tank_center + 0.5 * self.tank_extent

    def __getstate__(self) -> dict:
        # a pickle carries the fields, not the corners cached beside them
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def contains(self, point: Vec3) -> bool:
        """True when ``point`` lies inside the workspace."""
        lo, hi = self.min_corner, self.max_corner
        return lo.x <= point.x <= hi.x and lo.y <= point.y <= hi.y and lo.z <= point.z <= hi.z

    def tank_contains_points(self, points: np.ndarray, margin: float = 0.0) -> bool:
        """True when every row of ``points`` (N, 3) lies inside the tank
        shrunk by ``margin``."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        lo, hi = self.tank_min.as_array() + margin, self.tank_max.as_array() - margin
        return bool(np.all(pts >= lo) and np.all(pts <= hi))
