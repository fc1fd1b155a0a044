"""Virtual binocular microscope: affine cameras, frame rendering, and
feature extraction.

Each camera is an affine orthographic projection around a reference pose:
pixel = rows_of_j @ (world - ref_world) + ref_pixel, with the Jacobian
rows in pixel per micrometer, in Python floats as ``localize`` inverts
it. A camera is plain numbers, and its sensor (image size, noise,
background, particle gray level) is its ``vision``. Rendering draws the
particle as an anti-aliased dark disc over the configured background and
adds seeded Gaussian sensor noise: each pixel's is the normal draw of
the frame's key at its sensor (row, column), a ``KeyedDraws`` draw, as is
every random number of the package.

Extraction follows the bench pipeline: subtraction of the 8-bit
background (``background_pixels``), adaptive binarization against a
local mean, a sliding-window search for the densest foreground patch and
morphological closing. The middle two count with exact integer box
sums: products with cached band matrices over rows and then columns,
which also replicate the edges. The centre and axes then come from
the intensity-weighted first and second moments of the largest blob, the
axes in closed form and only when read; extraction draws no random
numbers.

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

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .config import Background, VisionConfig
from .core import ParticleState, Vec3, _dot
from .errors import ConfigurationError


@dataclass(frozen=True)
class CameraModel:
    """One affine camera of the binocular pair, built by ``build_camera_pair``
    from checked inputs; it compares and hashes by value.

    Parameters
    ----------
    rows_of_j : tuple
        (2, 3) pixel-per-micrometer sensitivity of (u, v) to world motion.
    ref_pixel : tuple
        Pixel (u, v) where ``ref_world`` projects.
    ref_world : Vec3
        World anchor of the projection, mm.
    vision : VisionConfig
        The sensor: image size, noise, background and particle gray level.
    """

    rows_of_j: tuple[tuple[float, float, float], tuple[float, float, float]]
    ref_pixel: tuple[float, float]
    ref_world: Vec3
    vision: VisionConfig

    @property
    def image_size(self) -> tuple[int, int]:
        """(width, height) of rendered frames."""
        return self.vision.image_size

    @property
    def pixel_scale(self) -> float:
        """Pixels per micrometer of in-plane motion (mean over both rows)."""
        return (max(map(abs, self.rows_of_j[0])) + max(map(abs, self.rows_of_j[1]))) / 2


def project(camera: CameraModel, world: Vec3) -> tuple[float, float]:
    """Project a world point (mm) to pixel coordinates (u, v), in Python
    floats like ``localize``, so the bits do not depend on the BLAS kernel."""
    delta = world - camera.ref_world
    d = (delta.x * 1e3, delta.y * 1e3, delta.z * 1e3)
    (row_u, row_v), (u0, v0) = camera.rows_of_j, camera.ref_pixel
    return _dot(row_u, d) + u0, _dot(row_v, d) + v0


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

    ``major_px``/``minor_px`` are the full ellipse axis lengths, computed
    on first read: the closed loop reads only u and v. When ``valid`` is
    False the coordinates and axes are NaN and ``reason`` names the stage
    that gave up. Observations compare by centre, validity and reason.
    """

    u: float
    v: float
    valid: bool
    reason: str | None = None
    # what the axes are computed from: the blob's columns and rows, its
    # centre in the same frame, its weights and their sum
    _blob: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _axis_lengths(self) -> tuple[float, float]:
        if self._blob is None:
            return math.nan, math.nan
        cols, rows, u, v, weights, mass = self._blob
        return _axes(cols - u, rows - v, weights, mass)

    @property
    def major_px(self) -> float:
        return self._axis_lengths[0]

    @property
    def minor_px(self) -> float:
        return self._axis_lengths[1]


def _invalid(reason: str) -> FeatureObservation:
    nan = float("nan")
    return FeatureObservation(nan, nan, False, reason)


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
    np.maximum(img, 0.0, out=img)
    np.minimum(img, 255.0, out=img)
    return img.astype(np.uint8)


def background_image(camera: CameraModel) -> np.ndarray:
    """Noise-free background for the camera, float gray levels (h, w).

    Built once per process for each image size and background model; the
    array is shared and read-only. A flat background is its level broadcast
    over the sensor, which holds no pixel memory.
    """
    return _background(camera.image_size, camera.vision.background)


@lru_cache(maxsize=8)
def _background_pixels(image_size: tuple[int, int], background: Background) -> np.ndarray:
    img = _background(image_size, background)
    pixels = np.empty(img.shape, dtype=np.uint8)
    for r in range(0, img.shape[0], 16):  # 16 rows at a time: no float copy of the frame
        pixels[r : r + 16] = _to_pixels(img[r : r + 16].copy())
    pixels.flags.writeable = False
    return pixels


def background_pixels(camera: CameraModel) -> np.ndarray:
    """``background_image`` as the sensor records it, rounded and clipped
    to 8-bit gray levels; built once per image size and background model,
    shared and read-only. The closed loop extracts against its slices."""
    return _background_pixels(camera.image_size, camera.vision.background)


# splitmix64's finalizer multipliers and Weyl increment, which also steps
# the pixel hash per sensor row; _COL_STEP, another odd Weyl constant,
# steps it per column, so that no two pixels of the native 2448x2050
# sensor share a hash input (``_sensor_noise``).
_M64 = (1 << 64) - 1
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_GAMMA, _COL_STEP = 0x9E3779B97F4A7C15, 0xD1B54A32D192ED03
_QUANTILE_BITS = 16


def _mix64(x: int) -> int:
    """splitmix64's finalizer: a bijection of 64-bit words in which every
    output bit depends on every input bit."""
    x = (x ^ x >> 30) * _MIX[0] & _M64
    x = (x ^ x >> 27) * _MIX[1] & _M64
    return x ^ x >> 31


def _fold_key(seed: int | tuple[int, ...]) -> int:
    """A random key as one 64-bit word; an int S is the key (S,). Each
    word folds in its 64-bit limbs, lowest first, each plus _GAMMA so that
    (0,) and (0, 0) fold apart, and a word of two or more limbs then its
    limb count, so that it does not fold as the tuple of its limbs."""
    folded = 0
    for word in seed if isinstance(seed, tuple) else (seed,):
        word = operator.index(word)
        if word < 0:
            raise ConfigurationError(f"random key words must be non-negative integers, got {seed}")
        limbs = max(1, -(-word.bit_length() // 64))
        for shift in range(0, 64 * limbs, 64):
            folded = _mix64((folded + (word >> shift & _M64) + _GAMMA) & _M64)
        if limbs > 1:
            folded = _mix64(folded ^ limbs)
    return folded


@lru_cache(maxsize=1)
def _normal_quantiles() -> np.ndarray:
    """N(0, 1) at the midpoints of 2^_QUANTILE_BITS equal-probability bins,
    read-only, so it ends at +-4.33: the stdlib's ``NormalDist.inv_cdf``
    over the lower half, a value at a time into the one array, mirrored
    into the upper half. Its bits come from libm, not from numpy's SIMD
    dispatch."""
    n = 1 << _QUANTILE_BITS
    half = n // 2
    midpoints = map(operator.truediv, range(1, n, 2), itertools.repeat(2 * n, half))  # (2k + 1) / 2n
    lower = map(NormalDist().inv_cdf, midpoints)
    table = np.fromiter(itertools.chain(lower, itertools.repeat(0.0, half)), float, n)
    np.negative(table[half - 1 :: -1], out=table[half:])
    table.flags.writeable = False
    return table


class KeyedDraws:
    """Every random number of the package: draw (row, col) of ``key`` has
    the word _mix64(folded key + row * _GAMMA + col * _COL_STEP). A normal
    draw is the ``_normal_quantiles`` entry its top 16 bits pick, and a
    uniform one its top 53 bits over 2^53, in [0, 1)."""

    def __init__(self, key: int | tuple[int, ...]) -> None:
        self.key = _fold_key(key)

    def word(self, row: int, col: int) -> int:
        return _mix64((self.key + row * _GAMMA + col * _COL_STEP) & _M64)

    def normal(self, row: int, col: int) -> float:
        return _normal_quantiles().item(self.word(row, col) >> (64 - _QUANTILE_BITS))

    def uniform(self, row: int, col: int) -> float:
        return (self.word(row, col) >> 11) * 2.0**-53


def _sensor_noise(sigma: float, seed: int | tuple[int, ...], window: Window) -> np.ndarray:
    """Sensor noise over ``window``: sigma times ``KeyedDraws(seed).normal``
    at each pixel's sensor (row, column), in numpy uint64, exact on every
    SIMD target; a window is that slice of the full noise. The finalizer's
    last step leaves the top 16 bits as they are, so it is skipped."""
    rows = np.arange(window.r0, window.r1, dtype=np.uint64)
    rows *= _GAMMA
    rows += _fold_key(seed)
    cols = np.arange(window.c0, window.c1, dtype=np.uint64)
    cols *= _COL_STEP
    x = np.add.outer(rows, cols)  # modulo 2^64, as every step below
    t = x >> 30
    x ^= t
    x *= _MIX[0]
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _MIX[1]
    x >>= 64 - _QUANTILE_BITS
    noise = _normal_quantiles().take(x.view(np.int64))
    noise *= sigma
    return noise


def render_frame(
    camera: CameraModel,
    particle: ParticleState,
    seed: int | tuple[int, ...],
    window: Window | None = None,
) -> ImageFrame:
    """Render the particle as an anti-aliased dark disc.

    The disc is centred on the particle's projection, with a radius of
    the particle diameter times the camera's pixel scale, over two; one
    crossing the image border is rendered partially. ``seed`` keys the
    noise (``_sensor_noise``). With a ``window`` only that crop of the
    sensor is drawn, noise included. Its pixels equal the same slice of the
    full frame: each pixel's noise depends on its own sensor position, and
    the float image is rounded once, pixel by pixel.
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
        coverage = radius - np.hypot(uu - u0, vv - v0)
        coverage += 0.5
        np.maximum(coverage, 0.0, out=coverage)
        np.minimum(coverage, 1.0, out=coverage)
        disc = img[r0 - window.r0 : r1 - window.r0, c0 - window.c0 : c1 - window.c0]
        disc *= 1.0 - coverage
        disc += camera.vision.particle_level * coverage
    if camera.vision.noise_sigma > 0:
        img += _sensor_noise(camera.vision.noise_sigma, seed, window)
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


# Rows of window starts that one band product covers: a longer axis is
# summed tile by tile, so that each sum costs about _TILE + n multiply-adds
# whatever the frame size. On a full native frame, box sums took 121 ms
# with tiles of 64 and 133 ms with 128 (2-core x86-64, one thread).
_TILE = 64


@lru_cache(maxsize=64)
def _tiles(size: int, n: int, step: int, pad: int, axis: int) -> tuple:
    """The band products ``_window_sums`` takes over ``size`` rows, one
    per tile of at most ``_TILE`` windows: (the tile's windows, the rows it
    reads, its read-only band matrix, transposed for ``axis`` 1). A band
    counts, for each window, how often it covers each row read; a padded
    row counts for the edge row it repeats, so the edge tiles' bands hold
    the replication and no padded copy is built."""
    length = size + 2 * pad  # of the padded rows
    starts = np.arange(0, length - n + 1, step)
    if starts[-1] != length - n:  # past the stride grid, the last window
        starts = np.append(starts, length - n)
    tiles, per_tile = [], max(_TILE // step, 1)
    for k0 in range(0, len(starts), per_tile):
        s = starts[k0 : k0 + per_tile, None]
        k = np.arange(s[0, 0], s[-1, 0] + n)  # the tile's padded rows
        src = np.clip(k - pad, 0, size - 1)  # the row of ``a`` each repeats
        band = ((k >= s) & (k < s + n)).astype(float) @ (src[:, None] == np.arange(src[0], src[-1] + 1))
        band = np.ascontiguousarray(band if axis == 0 else band.T)
        band.flags.writeable = False
        tiles.append((slice(k0, k0 + len(s)), slice(src[0], src[-1] + 1), band))
    return tuple(tiles)


def _window_sums(a: np.ndarray, n: int, step: int = 1, axis: int = 0, pad: int = 0) -> np.ndarray:
    """Sums of the windows of ``n`` rows (``axis`` 0) or columns (1) of a
    2-D ``a`` with its edge rows repeated ``pad`` times past each edge,
    that start at 0, ``step``, 2 ``step`` ... and at the last ``n``, as
    products with the band matrices of ``_tiles``. For an integer-valued
    ``a`` every partial sum is an integer below 2^53, so the float64 sums
    are exact whatever order the BLAS kernel adds in."""
    tiles = _tiles(a.shape[axis], n, step, pad, axis)
    count = tiles[-1][0].stop
    out = np.empty((count, a.shape[1]) if axis == 0 else (a.shape[0], count))
    for windows, rows, band in tiles:
        if axis == 0:
            np.matmul(band, a[rows], out=out[windows])
        else:
            np.matmul(a[:, rows], band, out=out[:, windows])
    return out


def _binarize(diff: np.ndarray, expected_diameter_px: float, offset: float) -> np.ndarray:
    """Pixels of an integer-valued ``diff`` above the mean of the n x n box
    around them (edges replicated) plus ``offset``: (diff - offset) n^2 >
    box sum. The box sums are window sums of the rows, then columns, with
    the edges repeated in the bands."""
    n = _binarize_window(expected_diameter_px)
    sums = _window_sums(_window_sums(diff, n, pad=n // 2), n, axis=1, pad=n // 2)
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
    slack, and a component is labelled by its first run. When every run
    but the first touches an earlier one, ``mask`` is one component and is
    returned itself."""
    h, w = mask.shape
    line = np.zeros((h, w + 2), dtype=np.int8)
    line[:, 1:-1] = mask
    line = line.ravel()
    edges = np.flatnonzero(line[1:] != line[:-1]) + 1
    starts, ends = edges[::2], edges[1::2]
    if starts.size == 0:
        return None
    touch = (starts <= ends[:, None] + (w + 2)) & (starts[:, None] + (w + 2) <= ends)
    if touch[:, 1:].any(axis=0).all():  # each run touches an earlier one
        return mask
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
    # foreground counts of the candidate windows: from every stride-th row
    # and column, and from the last ones
    counts = _window_sums(_window_sums(fg.astype(float), size, stride), size, stride, axis=1)
    i, j = divmod(int(np.argmax(counts)), counts.shape[1])
    if counts[i, j] < _area_floor(expected_diameter_px, min_fraction):
        return None
    return min(i * stride, h - size), min(j * stride, w - size), size


def _axes(du: np.ndarray, dv: np.ndarray, weights: np.ndarray, mass: float) -> tuple[float, float]:
    """Major and minor axes, four standard deviations along the principal
    directions of the weighted covariance of offsets (du, dv) from the
    centre: its eigenvalues, in closed form from the three weighted sums."""
    wu, wv = weights * du, weights * dv
    uu, uv, vv = float(wu @ du) / mass, float(wu @ dv) / mass, float(wv @ dv) / mass
    mean, spread = (uu + vv) / 2.0, math.hypot((uu - vv) / 2.0, uv)
    return 4.0 * math.sqrt(mean + spread), 4.0 * math.sqrt(max(mean - spread, 0.0))


def extract_feature(
    frame: ImageFrame,
    background,
    expected_diameter_px: float,
    config: VisionConfig = VisionConfig(),
) -> FeatureObservation:
    """Locate the particle in a frame against a known background.

    ``background`` is the frame's 8-bit gray levels without the particle,
    as ``background_pixels`` records it or ``load_frame_pgm`` reads it; an
    array of another dtype or shape raises ConfigurationError. The centre
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
    bg = np.asarray(background)
    if bg.dtype != np.uint8 or bg.shape != frame.pixels.shape:
        raise ConfigurationError(
            f"background must be uint8 of the frame's shape {frame.pixels.shape}, got {bg.dtype} {bg.shape}"
        )
    diff = np.abs(np.subtract(frame.pixels, bg, dtype=float))
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
    weights = diff[rows + cr0, cols + cc0]
    mass = float(weights.sum())
    # a blob with no contrast against the background carries no position
    if rows.size < _area_floor(expected_diameter_px, config.min_foreground_fraction) or mass <= 0:
        return _invalid("blob_too_small")

    u = float(weights @ cols) / mass
    v = float(weights @ rows) / mass
    # integer offsets first, so a crop reports the full frame's floats
    ou, ov = frame.origin
    return FeatureObservation(u + (cc0 + ou), v + (cr0 + ov), True, None, (cols, rows, u, v, weights, mass))


def _tracking_margin(expected_diameter_px: float) -> int:
    """Pixels a crop keeps on each side of the particle centre: the
    binarization half-window plus the closing patch around the centre."""
    return _binarize_window(expected_diameter_px) // 2 + _patch_half(expected_diameter_px) + 1


def tracking_window(
    image_size: tuple[int, int], centre: tuple[float, float], expected_diameter_px: float
) -> Window | None:
    """Crop around a pixel ``centre``, or None when the crop would not fit
    a particle on the sensor.

    The crop reaches ``_tracking_margin`` plus one diameter of slack past
    the centre, and its origin snaps down to the candidate window stride
    so its candidate windows are those of the full frame. The slack no
    longer covers the error of a predicted centre, since the loop centres
    crops on the projection. It stays because a crop without it can pick
    another candidate window of a noisy frame than the whole sensor does,
    and so move a report; with one diameter, the loop's crops report as
    the whole sensor does (``test_crops_report_as_the_whole_sensor``).
    """
    w, h = image_size
    u, v = centre
    reach = _tracking_margin(expected_diameter_px) + math.ceil(expected_diameter_px)
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
