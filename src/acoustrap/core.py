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
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, GeometryError

TWO_PI = 2.0 * math.pi


def usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Vec3:
    """Point or displacement in the array frame, in millimeters."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(f"Vec3.{name} must be a finite number, got {value!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, values) -> "Vec3":
        x, y, z = (float(v) for v in values)
        return cls(x, y, z)

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

    sound_speed: float = 1500.0
    density: float = 1000.0

    def __post_init__(self) -> None:
        if self.sound_speed <= 0:
            raise ConfigurationError(f"medium.sound_speed must be > 0, got {self.sound_speed}")
        if self.density <= 0:
            raise ConfigurationError(f"medium.density must be > 0, got {self.density}")


# Element-count bound (100x100): the field kernel's per-chunk temporaries
# grow by about 10 KB per element.
MAX_ELEMENTS = 10_000


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

    rows: int = 50
    cols: int = 50
    pitch: float = 1.0
    frequency: float = 2.3e6
    origin: Vec3 = Vec3(0.0, 0.0, 0.0)
    emission_amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.rows, int) or self.rows < 1:
            raise ConfigurationError(f"array.rows must be a positive integer, got {self.rows!r}")
        if not isinstance(self.cols, int) or self.cols < 1:
            raise ConfigurationError(f"array.cols must be a positive integer, got {self.cols!r}")
        if self.rows * self.cols > MAX_ELEMENTS:
            raise ConfigurationError(
                f"array.rows x array.cols must be at most {MAX_ELEMENTS:,} elements,"
                f" got {self.rows}x{self.cols}"
            )
        if self.pitch <= 0:
            raise ConfigurationError(f"array.pitch must be > 0, got {self.pitch}")
        if self.frequency <= 0:
            raise ConfigurationError(f"array.frequency must be > 0, got {self.frequency}")
        if self.emission_amplitude <= 0:
            raise ConfigurationError(
                f"array.emission_amplitude must be > 0, got {self.emission_amplitude}"
            )

    @property
    def element_count(self) -> int:
        return self.rows * self.cols

    @property
    def aperture(self) -> tuple[float, float]:
        """Aperture span (x, y) in mm."""
        return (self.rows * self.pitch, self.cols * self.pitch)

    def element_center(self, i: int, j: int) -> Vec3:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"element index ({i}, {j}) outside {self.rows}x{self.cols} grid")
        return Vec3(
            self.origin.x + (i + 0.5) * self.pitch,
            self.origin.y + (j + 0.5) * self.pitch,
            self.origin.z,
        )

    def element_centers(self) -> np.ndarray:
        """All element centers as an ``(rows * cols, 3)`` array, row-major.

        Flat index ``i * cols + j`` corresponds to element ``(i, j)``.
        """
        i = np.arange(self.rows, dtype=float)
        j = np.arange(self.cols, dtype=float)
        x = self.origin.x + (i + 0.5) * self.pitch
        y = self.origin.y + (j + 0.5) * self.pitch
        xx, yy = np.meshgrid(x, y, indexing="ij")
        zz = np.full_like(xx, self.origin.z)
        return np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)


def wavelength(medium: MediumConfig, array: TransducerArray) -> float:
    """Acoustic wavelength in mm for the array's drive frequency."""
    lam = medium.sound_speed / array.frequency * 1e3
    if not math.isfinite(lam) or lam <= 0:
        raise GeometryError(f"non-positive wavelength from c={medium.sound_speed}, f={array.frequency}")
    return lam


def wavenumber(medium: MediumConfig, array: TransducerArray) -> float:
    """Angular wavenumber 2*pi/lambda in rad/mm."""
    return TWO_PI / wavelength(medium, array)


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

    t_dip: float = 0.060
    t_trans: float = 0.090
    camera_fps: float = 15.0
    poh_update_fps: float = 11.0

    def __post_init__(self) -> None:
        if self.t_dip < 0:
            raise ConfigurationError(f"timing.t_dip must be >= 0, got {self.t_dip}")
        if self.t_trans < 0:
            raise ConfigurationError(f"timing.t_trans must be >= 0, got {self.t_trans}")
        if self.camera_fps <= 0:
            raise ConfigurationError(f"timing.camera_fps must be > 0, got {self.camera_fps}")
        if self.poh_update_fps <= 0:
            raise ConfigurationError(
                f"timing.poh_update_fps must be > 0, got {self.poh_update_fps}"
            )

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.camera_fps

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
    diameter_um: float = 400.0
    contrast: Contrast = Contrast.POSITIVE

    def __post_init__(self) -> None:
        if not (0.0 < self.diameter_um <= MAX_PARTICLE_DIAMETER_UM):
            raise ConfigurationError(
                f"particle.diameter_um must be in (0, {MAX_PARTICLE_DIAMETER_UM:.0f}],"
                f" got {self.diameter_um}"
            )
        if not isinstance(self.contrast, Contrast):
            raise ConfigurationError(f"particle.contrast must be a Contrast, got {self.contrast!r}")


@dataclass(frozen=True)
class WorkspaceConfig:
    """Observable working volume and the surrounding water tank.

    The workspace is the axis-aligned box both cameras cover; the tank
    bounds every field evaluation. Both are in the array frame, mm.
    """

    center: Vec3 = Vec3(25.0, 25.0, 40.0)
    extent: Vec3 = Vec3(37.0, 30.0, 30.0)
    tank_center: Vec3 = Vec3(25.0, 25.0, 30.0)
    tank_extent: Vec3 = Vec3(110.0, 110.0, 60.0)

    def __post_init__(self) -> None:
        for label, ext in (("workspace.extent", self.extent), ("workspace.tank_extent", self.tank_extent)):
            if ext.x <= 0 or ext.y <= 0 or ext.z <= 0:
                raise ConfigurationError(f"{label} components must be > 0, got {ext}")
        lo = self.min_corner
        if lo.z <= 0:
            raise ConfigurationError(
                f"workspace must sit strictly above the array plane, got z_min={lo.z}"
            )
        tlo, thi = self.tank_min, self.tank_max
        hi = self.max_corner
        inside = all(
            tlo_c <= lo_c and hi_c <= thi_c
            for lo_c, hi_c, tlo_c, thi_c in zip(
                (lo.x, lo.y, lo.z), (hi.x, hi.y, hi.z), (tlo.x, tlo.y, tlo.z), (thi.x, thi.y, thi.z)
            )
        )
        if not inside:
            raise ConfigurationError("workspace must lie inside the tank bounds")

    @property
    def min_corner(self) -> Vec3:
        return self.center - 0.5 * self.extent

    @property
    def max_corner(self) -> Vec3:
        return self.center + 0.5 * self.extent

    @property
    def tank_min(self) -> Vec3:
        return self.tank_center - 0.5 * self.tank_extent

    @property
    def tank_max(self) -> Vec3:
        return self.tank_center + 0.5 * self.tank_extent

    def contains(self, point: Vec3, margin: float = 0.0) -> bool:
        return _within_box(point, self.min_corner, self.max_corner, margin)

    def tank_contains(self, point: Vec3, margin: float = 0.0) -> bool:
        return _within_box(point, self.tank_min, self.tank_max, margin)

    def tank_contains_points(self, points: np.ndarray, margin: float = 0.0) -> bool:
        """True when every row of ``points`` (N, 3) lies inside the tank
        shrunk by ``margin``."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        lo, hi = self.tank_min.as_array() + margin, self.tank_max.as_array() - margin
        return bool(np.all(pts >= lo) and np.all(pts <= hi))


def _within_box(point: Vec3, lo: Vec3, hi: Vec3, margin: float) -> bool:
    """True when ``point`` lies inside the box [lo, hi] shrunk by ``margin``."""
    return (
        lo.x + margin <= point.x <= hi.x - margin
        and lo.y + margin <= point.y <= hi.y - margin
        and lo.z + margin <= point.z <= hi.z - margin
    )
