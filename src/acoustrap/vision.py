"""Virtual binocular microscope: affine cameras, frame rendering, and
feature extraction.

Each camera is an affine orthographic projection around a reference pose:
pixel = rows_of_j @ (world - ref_world) + ref_pixel, with the Jacobian
rows in pixel per micrometer. Rendering draws the particle as an
anti-aliased dark disc over the configured background and adds seeded
Gaussian sensor noise, each fixed square tile of the sensor drawing iid
pixels from a stream of its own.

Extraction follows the bench pipeline: background subtraction, adaptive
binarization against a local mean, a sliding-window search for the
densest foreground patch and morphological closing; the first two count
with exact integer box sums. The centre and axes then come from the
intensity-weighted first and second moments of the largest blob;
extraction draws no random numbers.

A frame may be a crop of the sensor (a tracking ``Window``): it carries
its origin, and extraction reports sensor pixels. A crop's pixels, noise
included, equal the same slice of the full frame, and so does its
binarization half a binarization window inside its edges; on a noise-free
frame, extraction on a crop that ``window_holds`` accepts gives bit for
bit the observation of the full frame. The closed loop centres each crop
on the particle's projection (``project``), where the frame draws the
disc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .config import Background, VisionConfig
from .core import ParticleState, Vec3
from .errors import ConfigurationError


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
        (width, height) of rendered frames; ``build_camera_pair`` takes
        ``VisionConfig.image_size``, the native sensor at the vision scale.
    """

    rows_of_j: np.ndarray
    ref_pixel: np.ndarray
    ref_world: Vec3
    image_size: tuple[int, int]
    noise_sigma: float = 0.0
    background: Background = Background()
    particle_level: float = 40.0

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

    @cached_property
    def pixel_scale(self) -> float:
        """Pixels per micrometer of in-plane motion (mean over both rows)."""
        return float(np.mean(np.max(np.abs(self.rows_of_j), axis=1)))


def project(camera: CameraModel, world: Vec3) -> tuple[float, float]:
    """Project a world point (mm) to pixel coordinates (u, v)."""
    delta_um = (world - camera.ref_world).as_array() * 1e3
    uv = camera.rows_of_j @ delta_um + camera.ref_pixel
    return float(uv[0]), float(uv[1])


class Window(NamedTuple):
    """Crop of the sensor: columns [c0, c1) and rows [r0, r1)."""

    c0: int
    r0: int
    c1: int
    r1: int

    @property
    def slices(self) -> tuple[slice, slice]:
        """Index of the crop in a full (h, w) sensor array."""
        return slice(self.r0, self.r1), slice(self.c0, self.c1)


@dataclass(frozen=True)
class ImageFrame:
    """A rendered 8-bit grayscale frame.

    ``origin`` is the sensor pixel (u, v) of ``pixels[0, 0]``: (0, 0) for
    a full frame, the window corner for a crop.
    """

    pixels: np.ndarray
    origin: tuple[int, int] = (0, 0)

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


@lru_cache(maxsize=8)
def _background(image_size: tuple[int, int], background: Background) -> np.ndarray:
    w, h = image_size
    if background.kind == "flat":
        img = np.broadcast_to(float(background.level), (h, w))
    else:
        u = np.arange(w, dtype=float) / max(w - 1, 1)
        v = np.arange(h, dtype=float) / max(h - 1, 1)
        img = background.level + background.du * u[None, :] + background.dv * v[:, None] + np.zeros((h, w))
    img.flags.writeable = False
    return img


def _to_pixels(img: np.ndarray) -> np.ndarray:
    """8-bit gray levels of a float image; rounds and clips ``img`` in place."""
    np.rint(img, out=img)
    return np.clip(img, 0, 255, out=img).astype(np.uint8)


def background_image(camera: CameraModel) -> np.ndarray:
    """Noise-free background for the camera, float gray levels (h, w).

    Built once per process for each image size and background model; the
    array is shared and read-only. A flat background is its level broadcast
    over the sensor, which holds no pixel memory.
    """
    return _background(tuple(camera.image_size), camera.background)


# Side of the square sensor tiles, counted from pixel (0, 0), that draw
# their noise from streams of their own. Of 16, 32 and 64 px, 64 draws a
# full frame's noise fastest and a tracking crop's within 5% of 32 px,
# from at most 4 streams at the default scale.
_TILE = 64


def _sensor_noise(sigma: float, seed: int, window: Window) -> np.ndarray:
    """Sensor noise over ``window``: iid N(0, sigma^2) pixels.

    Tile (i, j) draws its pixels from ``SeedSequence(seed, spawn_key=(i,
    j))`` in full, past the sensor edge too, so a window draws only the
    tiles it covers and equals the same slice of the full sensor's noise.
    """
    i0, j0 = window.r0 // _TILE, window.c0 // _TILE
    i1, j1 = -(-window.r1 // _TILE), -(-window.c1 // _TILE)
    z = np.empty(((i1 - i0) * _TILE, (j1 - j0) * _TILE))
    for i in range(i0, i1):
        for j in range(j0, j1):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, j)))
            r, c = (i - i0) * _TILE, (j - j0) * _TILE
            z[r : r + _TILE, c : c + _TILE] = rng.standard_normal((_TILE, _TILE))
    z *= sigma
    r, c = window.r0 - i0 * _TILE, window.c0 - j0 * _TILE
    return z[r : r + window.r1 - window.r0, c : c + window.c1 - window.c0]


def render_frame(
    camera: CameraModel,
    particle: ParticleState,
    seed: int,
    window: Window | None = None,
) -> ImageFrame:
    """Render the particle as an anti-aliased dark disc.

    The disc is centred on the particle's projection, with a radius of
    the particle diameter times the camera's pixel scale, over two; one
    crossing the image border is rendered partially. With a
    ``window`` only that crop of the sensor is drawn, noise included
    (``_sensor_noise``), and its pixels equal the same slice of the full
    frame: the float image is rounded once, pixel by pixel.
    """
    w, h = camera.image_size
    if window is None:
        window = Window(0, 0, w, h)
    elif not (0 <= window.c0 < window.c1 <= w and 0 <= window.r0 < window.r1 <= h):
        raise ConfigurationError(f"render window {window} does not fit the {w}x{h} sensor")
    img = background_image(camera)[window.slices].copy()
    u0, v0 = project(camera, particle.position)
    radius = particle.diameter_um * camera.pixel_scale / 2.0
    c0 = max(int(math.floor(u0 - radius)) - 2, window.c0)
    r0 = max(int(math.floor(v0 - radius)) - 2, window.r0)
    c1 = min(int(math.ceil(u0 + radius)) + 3, window.c1)
    r1 = min(int(math.ceil(v0 + radius)) + 3, window.r1)
    if c1 > c0 and r1 > r0:
        uu = np.arange(c0, c1, dtype=float)[None, :]
        vv = np.arange(r0, r1, dtype=float)[:, None]
        coverage = np.clip(radius - np.hypot(uu - u0, vv - v0) + 0.5, 0.0, 1.0)
        disc = img[r0 - window.r0 : r1 - window.r0, c0 - window.c0 : c1 - window.c0]
        disc *= 1.0 - coverage
        disc += camera.particle_level * coverage
    if camera.noise_sigma > 0:
        img += _sensor_noise(camera.noise_sigma, seed, window)
    return ImageFrame(_to_pixels(img), (window.c0, window.r0))


def _odd(n: int) -> int:
    n = max(int(n), 3)
    return n if n % 2 == 1 else n + 1


def _binarize_window(expected_diameter_px: float) -> int:
    return _odd(round(2.0 * expected_diameter_px))


def _patch_half(expected_diameter_px: float) -> int:
    """Half-size of the candidate window and of the closing patch around it."""
    return int(round(1.5 * expected_diameter_px))


def _stride(expected_diameter_px: float) -> int:
    return max(int(round(expected_diameter_px / 2.0)), 1)


def _box_sums(a: np.ndarray, n: int) -> np.ndarray:
    """Exact sum of every n x n window of an integer or boolean array,
    (h - n + 1, w - n + 1), from one int64 summed-area table."""
    h, w = a.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    sat[1:, 1:] = a
    np.cumsum(np.cumsum(sat, axis=0, out=sat), axis=1, out=sat)
    return sat[n:, n:] - sat[:-n, n:] - sat[n:, :-n] + sat[:-n, :-n]


def _binarize(diff: np.ndarray, expected_diameter_px: float, offset: float) -> np.ndarray:
    """Pixels of an integer ``diff`` above the mean of the n x n box around
    them (edges replicated) plus ``offset``: (diff - offset) n^2 > box sum."""
    n = _binarize_window(expected_diameter_px)
    r = n // 2
    h, w = diff.shape
    rows = np.clip(np.arange(-r, h + r), 0, h - 1)
    cols = np.clip(np.arange(-r, w + r), 0, w - 1)
    sums = _box_sums(diff.take(rows, axis=0).take(cols, axis=1), n)
    return (diff - offset) * (n * n) > sums


def _close3(mask: np.ndarray) -> np.ndarray:
    """3x3 binary closing, zero outside the patch: a dilation, then an
    erosion, each a shifted OR (AND) along rows and then columns."""
    p = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    p[1:-1, 1:-1] = mask
    for op in (np.logical_or, np.logical_and):
        rows = op(op(p[:, :-2], p[:, 1:-1]), p[:, 2:])
        p[1:-1, 1:-1] = op(op(rows[:-2], rows[1:-1]), rows[2:])
    return p[1:-1, 1:-1]


def _largest_blob(mask: np.ndarray) -> np.ndarray | None:
    """Mask of the largest 8-connected component, the raster-first one on a
    tie; None when ``mask`` is empty. Labels the runs [start, end) of the
    zero-padded rows read as one line, where row r + 1 lies w + 2 further
    on: runs of adjacent rows touch when they overlap with one column of
    slack, and a component is labelled by its first run."""
    h, w = mask.shape
    line = np.zeros((h, w + 2), dtype=np.int8)
    line[:, 1:-1] = mask
    line = line.ravel()
    edges = np.flatnonzero(line[1:] != line[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    if starts.size == 0:
        return None
    touch = (starts <= ends[:, None] + (w + 2)) & (starts[:, None] + (w + 2) <= ends)
    parent = list(range(starts.size))
    for a, b in zip(*(i.tolist() for i in np.nonzero(touch))):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[max(a, b)] = min(a, b)
    for k, p in enumerate(parent):  # a parent precedes its child
        parent[k] = parent[p]
    roots = np.array(parent)
    best = int(np.argmax(np.bincount(roots, weights=ends - starts)))
    blob = np.zeros(line.size, dtype=bool)
    for s, e in zip(starts[roots == best].tolist(), ends[roots == best].tolist()):
        blob[s:e] = True
    return blob.reshape(h, w + 2)[:, 1:-1]


def _area_floor(expected_diameter_px: float, min_fraction: float) -> float:
    """Fewest foreground pixels a particle may cover: min_fraction of the
    expected disc area, and at least one pixel."""
    return max(min_fraction * math.pi * (expected_diameter_px / 2.0) ** 2, 1.0)


def _best_window(
    fg: np.ndarray, expected_diameter_px: float, min_fraction: float
) -> tuple[int, int, int] | None:
    """Densest sliding window; None when no window clears the area floor."""
    h, w = fg.shape
    size = min(max(_patch_half(expected_diameter_px), 3), h, w)
    stride = _stride(expected_diameter_px)
    rows = list(range(0, h - size + 1, stride))
    cols = list(range(0, w - size + 1, stride))
    if rows[-1] != h - size:
        rows.append(h - size)
    if cols[-1] != w - size:
        cols.append(w - size)
    counts = _box_sums(fg, size)[np.array(rows)[:, None], cols]
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

    ``background`` is a gray-level array of the frame's shape. The centre
    is the background-difference-weighted mean of the largest closed
    blob, and the axes are four standard deviations along the principal
    directions of its weighted covariance (the diameter, for a uniform
    disc). Returns an invalid observation (never raises) when any stage
    fails to find a usable candidate.
    """
    if not 3 < expected_diameter_px <= min(frame.pixels.shape):  # also rejects NaN
        raise ConfigurationError(
            f"expected_diameter_px must exceed 3 and fit the frame, got {expected_diameter_px}"
        )
    img = frame.pixels.astype(np.int16)
    # the background as the sensor records it, so that int16 cannot wrap
    bg = np.rint(np.clip(background, 0, 255)).astype(np.int16)
    if bg.shape != img.shape:
        raise ConfigurationError(
            f"background shape {bg.shape} does not match frame {img.shape}"
        )
    diff = np.abs(img - bg)
    # below 2 sigma of the sensor noise, the offset lets clusters of noise
    # pixels through, and a noise patch can fill a particle's area floor;
    # a noise-free sensor keeps any offset, a negative one too
    offset = config.binarize_offset
    if config.noise_sigma > 0:
        offset = max(offset, 2.0 * config.noise_sigma)
    fg = _binarize(diff, expected_diameter_px, offset)

    window = _best_window(fg, expected_diameter_px, config.min_foreground_fraction)
    if window is None:
        return _invalid("no_candidate_window")
    r0, c0, size = window
    h, w = fg.shape
    half = _patch_half(expected_diameter_px)
    rc, cc = r0 + size // 2, c0 + size // 2
    cr0, cr1 = max(rc - half, 0), min(rc + half + 1, h)
    cc0, cc1 = max(cc - half, 0), min(cc + half + 1, w)
    blob = _largest_blob(_close3(fg[cr0:cr1, cc0:cc1]))
    if blob is None:
        return _invalid("empty_after_morphology")
    rows, cols = np.nonzero(blob)
    weights = diff[rows + cr0, cols + cc0].astype(float)
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
    # integer offsets first, so a crop reports the full frame's floats
    ou, ov = frame.origin
    return FeatureObservation(u + (cc0 + ou), v + (cr0 + ov), major, minor, True, None)


def _tracking_margin(expected_diameter_px: float) -> int:
    """Pixels a crop keeps on each side of the particle centre: the
    binarization half-window plus the closing patch around the centre."""
    return _binarize_window(expected_diameter_px) // 2 + _patch_half(expected_diameter_px) + 1


def tracking_window(
    image_size: tuple[int, int], centre: tuple[float, float], expected_diameter_px: float
) -> Window | None:
    """Crop around a pixel ``centre``, or None when the crop would not fit
    a particle on the sensor.

    The crop reaches ``_tracking_margin`` plus two diameters of slack past
    the centre, and its origin snaps down to the candidate window stride
    so its candidate windows are those of the full frame. The slack once
    covered the error of a predicted centre; the loop now centres crops on
    the projection, but a smaller crop searches fewer candidate windows of
    a noisy frame and could move its reports, so the slack is kept as it
    is.
    """
    w, h = image_size
    u, v = centre
    reach = _tracking_margin(expected_diameter_px) + 2 * math.ceil(expected_diameter_px)
    stride = _stride(expected_diameter_px)
    if not (math.isfinite(u) and math.isfinite(v)):
        return None
    c0 = max(math.floor(u - reach) // stride * stride, 0)
    r0 = max(math.floor(v - reach) // stride * stride, 0)
    c1 = min(math.ceil(u + reach) + 1, w)
    r1 = min(math.ceil(v + reach) + 1, h)
    if min(c1 - c0, r1 - r0) < expected_diameter_px:
        return None
    return Window(c0, r0, c1, r1)


def window_holds(
    obs: FeatureObservation,
    window: Window,
    image_size: tuple[int, int],
    expected_diameter_px: float,
) -> bool:
    """True when a crop observation is valid and lies ``_tracking_margin``
    inside every crop edge that is not a sensor edge; the loop keeps only
    observations that hold. Such a crop of a noise-free frame binarizes,
    picks and closes the particle exactly as the full frame does."""
    if not obs.valid:
        return False
    w, h = image_size
    m = _tracking_margin(expected_diameter_px)
    return (
        (window.c0 == 0 or obs.u - m >= window.c0)
        and (window.c1 == w or obs.u + m < window.c1)
        and (window.r0 == 0 or obs.v - m >= window.r0)
        and (window.r1 == h or obs.v + m < window.r1)
    )
