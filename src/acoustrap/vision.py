"""Virtual binocular microscope: affine cameras, frame rendering, and
feature extraction.

Each camera is an affine orthographic projection around a reference pose:
pixel = rows_of_j @ (world - ref_world) + ref_pixel, with the Jacobian
rows in pixel per micrometer. Rendering draws the particle as an
anti-aliased dark disc over the configured background and adds seeded
Gaussian sensor noise.

Extraction follows the bench pipeline: background subtraction, adaptive
binarization against a local mean, a sliding-window search for the
densest foreground patch and morphological closing. The centre and axes
then come from the intensity-weighted first and second moments of the
largest blob; extraction draws no random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import Background, VisionConfig
from .core import ParticleState, Vec3
from .errors import ConfigurationError

_CLOSE_STRUCTURE = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class CameraModel:
    """One affine camera of the binocular pair.

    Parameters
    ----------
    rows_of_j : np.ndarray
        (2, 3) pixel-per-micrometer sensitivity of (u, v) to world motion.
    ref_pixel : np.ndarray
        Pixel (u, v) where ``ref_world`` projects.
    ref_world : Vec3
        World anchor of the projection, mm.
    image_size : tuple
        (width, height) of rendered frames.
    """

    rows_of_j: np.ndarray
    ref_pixel: np.ndarray
    ref_world: Vec3
    image_size: tuple[int, int]
    noise_sigma: float = 0.0
    background: Background = Background()
    particle_level: float = 40.0
    name: str = "camera"

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows_of_j, dtype=float)
        refp = np.asarray(self.ref_pixel, dtype=float)
        if rows.shape != (2, 3):
            raise ConfigurationError(f"camera rows_of_j must be (2, 3), got {rows.shape}")
        if refp.shape != (2,):
            raise ConfigurationError(f"camera ref_pixel must be (2,), got {refp.shape}")
        if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(refp))):
            raise ConfigurationError("camera parameters must be finite")
        w, h = self.image_size
        if w < 8 or h < 8:
            raise ConfigurationError(f"camera image_size must be at least 8x8, got {w}x{h}")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"camera noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.particle_level <= 255.0):
            raise ConfigurationError(
                f"camera particle_level must be within [0, 255], got {self.particle_level}"
            )
        rows = rows.copy()
        rows.flags.writeable = False
        refp = refp.copy()
        refp.flags.writeable = False
        object.__setattr__(self, "rows_of_j", rows)
        object.__setattr__(self, "ref_pixel", refp)

    @property
    def pixel_scale(self) -> float:
        """Pixels per micrometer of in-plane motion (mean over both rows)."""
        return float(np.mean(np.max(np.abs(self.rows_of_j), axis=1)))


def project(camera: CameraModel, world: Vec3) -> tuple[float, float]:
    """Project a world point (mm) to pixel coordinates (u, v)."""
    delta_um = (world - camera.ref_world).as_array() * 1e3
    uv = camera.rows_of_j @ delta_um + camera.ref_pixel
    return float(uv[0]), float(uv[1])


@dataclass(frozen=True)
class ImageFrame:
    """A rendered 8-bit grayscale frame with its capture timestamp."""

    pixels: np.ndarray
    timestamp: float
    clipped: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.dtype != np.uint8:
            raise ConfigurationError(
                f"frame pixels must be a 2-D uint8 array, got {arr.dtype} {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)


@dataclass(frozen=True)
class FeatureObservation:
    """Sub-pixel particle observation from one camera.

    ``major_px``/``minor_px`` are the full ellipse axis lengths. When
    ``valid`` is False the coordinates are NaN and ``reason`` names the
    stage that gave up.
    """

    u: float
    v: float
    major_px: float
    minor_px: float
    valid: bool
    reason: str | None = None


def _invalid(reason: str) -> FeatureObservation:
    nan = float("nan")
    return FeatureObservation(nan, nan, nan, nan, False, reason)


def background_image(camera: CameraModel) -> np.ndarray:
    """Noise-free background for the camera, float gray levels (h, w)."""
    w, h = camera.image_size
    bg = camera.background
    if bg.kind == "flat":
        return np.full((h, w), bg.level, dtype=float)
    u = np.arange(w, dtype=float) / max(w - 1, 1)
    v = np.arange(h, dtype=float) / max(h - 1, 1)
    return bg.level + bg.du * u[None, :] + bg.dv * v[:, None] + np.zeros((h, w))


def render_frame(
    camera: CameraModel, particle: ParticleState, t: float, seed: int
) -> ImageFrame:
    """Render the particle as an anti-aliased dark disc at time ``t``.

    The disc radius is the particle diameter scaled by the camera's
    pixel scale; a disc crossing the image border is rendered partially
    and the frame is flagged ``clipped``.
    """
    u0, v0 = project(camera, particle.position)
    radius = particle.diameter_um * camera.pixel_scale / 2.0
    img = background_image(camera)
    h, w = img.shape

    clipped = not (radius <= u0 <= w - 1 - radius and radius <= v0 <= h - 1 - radius)
    c0 = max(int(math.floor(u0 - radius)) - 2, 0)
    c1 = min(int(math.ceil(u0 + radius)) + 3, w)
    r0 = max(int(math.floor(v0 - radius)) - 2, 0)
    r1 = min(int(math.ceil(v0 + radius)) + 3, h)
    if c1 > c0 and r1 > r0:
        uu = np.arange(c0, c1, dtype=float)[None, :]
        vv = np.arange(r0, r1, dtype=float)[:, None]
        dist = np.hypot(uu - u0, vv - v0)
        coverage = np.clip(radius - dist + 0.5, 0.0, 1.0)
        patch = img[r0:r1, c0:c1]
        img[r0:r1, c0:c1] = patch * (1.0 - coverage) + camera.particle_level * coverage

    if camera.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        img = img + rng.normal(0.0, camera.noise_sigma, img.shape)
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return ImageFrame(pixels, t, clipped)


def _odd(n: int) -> int:
    n = max(int(n), 3)
    return n if n % 2 == 1 else n + 1


def _binarize(diff: np.ndarray, expected_diameter_px: float, offset: float) -> np.ndarray:
    window = _odd(round(2.0 * expected_diameter_px))
    local_mean = ndimage.uniform_filter(diff, size=window, mode="nearest")
    return diff > local_mean + offset


def _area_floor(expected_diameter_px: float, min_fraction: float) -> float:
    """Fewest foreground pixels a particle may cover: min_fraction of the
    expected disc area, and at least one pixel."""
    return max(min_fraction * math.pi * (expected_diameter_px / 2.0) ** 2, 1.0)


def _best_window(
    fg: np.ndarray, expected_diameter_px: float, min_fraction: float
) -> tuple[int, int, int] | None:
    """Densest sliding window; None when no window clears the area floor."""
    h, w = fg.shape
    size = min(max(int(round(1.5 * expected_diameter_px)), 3), h, w)
    stride = max(int(round(expected_diameter_px / 2.0)), 1)
    # summed-area table with a zero border
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(fg, axis=0), axis=1, out=sat[1:, 1:])
    rows = list(range(0, h - size + 1, stride))
    cols = list(range(0, w - size + 1, stride))
    if rows[-1] != h - size:
        rows.append(h - size)
    if cols[-1] != w - size:
        cols.append(w - size)
    ri = np.array(rows)[:, None]
    ci = np.array(cols)[None, :]
    counts = (
        sat[ri + size, ci + size] - sat[ri, ci + size] - sat[ri + size, ci] + sat[ri, ci]
    )
    best = np.unravel_index(int(np.argmax(counts)), counts.shape)
    if counts[best] < _area_floor(expected_diameter_px, min_fraction):
        return None
    return rows[best[0]], cols[best[1]], size


def extract_feature(
    frame: ImageFrame,
    background,
    expected_diameter_px: float,
    config: VisionConfig = VisionConfig(),
) -> FeatureObservation:
    """Locate the particle in a frame against a known background.

    ``background`` may be an ImageFrame or a raw gray-level array of the
    same shape. The centre is the background-difference-weighted mean of
    the largest closed blob, and the axes are four standard deviations
    along the principal directions of its weighted covariance (the
    diameter, for a uniform disc). Returns an invalid observation (never
    raises) when any stage fails to find a usable candidate.
    """
    if not 3 < expected_diameter_px <= min(frame.pixels.shape):  # also rejects NaN
        raise ConfigurationError(
            f"expected_diameter_px must exceed 3 and fit the frame, got {expected_diameter_px}"
        )
    img = frame.pixels.astype(np.int16)
    bg = background.pixels if isinstance(background, ImageFrame) else np.asarray(background)
    bg = np.rint(bg).astype(np.int16)
    if bg.shape != img.shape:
        raise ConfigurationError(
            f"background shape {bg.shape} does not match frame {img.shape}"
        )
    diff = np.abs(img - bg).astype(float)
    fg = _binarize(diff, expected_diameter_px, config.binarize_offset)

    window = _best_window(fg, expected_diameter_px, config.min_foreground_fraction)
    if window is None:
        return _invalid("no_candidate_window")
    r0, c0, size = window
    h, w = fg.shape
    half = int(round(1.5 * expected_diameter_px))
    rc, cc = r0 + size // 2, c0 + size // 2
    cr0, cr1 = max(rc - half, 0), min(rc + half + 1, h)
    cc0, cc1 = max(cc - half, 0), min(cc + half + 1, w)
    sub = ndimage.binary_closing(fg[cr0:cr1, cc0:cc1], structure=_CLOSE_STRUCTURE)

    labels, count = ndimage.label(sub, structure=_CLOSE_STRUCTURE)
    if count == 0:
        return _invalid("empty_after_morphology")
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=np.arange(1, count + 1))
    rows, cols = np.nonzero(labels == (int(np.argmax(sizes)) + 1))
    weights = diff[rows + cr0, cols + cc0]
    mass = float(weights.sum())
    # a blob with no contrast against the background carries no position
    if rows.size < _area_floor(expected_diameter_px, config.min_foreground_fraction) or mass <= 0:
        return _invalid("blob_too_small")

    u = float(weights @ cols) / mass
    v = float(weights @ rows) / mass
    offsets = np.stack([cols - u, rows - v])
    cov = (offsets * weights) @ offsets.T / mass
    minor_var, major_var = np.linalg.eigvalsh(cov)
    major, minor = 4.0 * math.sqrt(major_var), 4.0 * math.sqrt(max(minor_var, 0.0))
    return FeatureObservation(u + cc0, v + cr0, major, minor, True, None)
