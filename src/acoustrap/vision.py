"""Virtual binocular microscope: affine cameras, frame rendering, and
feature extraction.

Each camera is an affine orthographic projection around a reference pose:
pixel = rows_of_j @ (world - ref_world) + ref_pixel, with the Jacobian
rows in pixel per micrometer. Rendering draws the particle as an
anti-aliased dark disc over the configured background and adds seeded
Gaussian sensor noise: each frame has one counter-based stream, and each
fixed band of sensor rows draws its iid pixels from a counter range of
its own, column by column.

Extraction follows the bench pipeline: background subtraction, adaptive
binarization against a local mean, a sliding-window search for the
densest foreground patch and morphological closing. The first two count
with exact integer box sums, taken as products with cached 0/1 band
matrices over rows and then columns. The centre and axes then come from
the intensity-weighted first and second moments of the largest blob, the
axes in closed form; extraction draws no random numbers.

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

from .config import Background, VisionConfig, gray_level
from .core import ParticleState, Vec3, _cos_sin, check_ranges
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
    noise_sigma: float = gray_level(0.0)
    background: Background = Background()
    particle_level: float = gray_level(40.0)

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
        check_ranges(self, "camera")
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


# Rows per sensor band, counted from row 0. A band reads its pixels
# column by column, so a crop's columns are one run of the band's
# uniforms; a multiple of 4, so that a run starts on a Philox block and
# on a Box-Muller pair. Of 8 and 16 rows, 16 draws the closed loop's
# crops' noise faster.
_BAND = 16


def _sensor_noise(sigma: float, seed: int | tuple[int, ...], window: Window) -> np.ndarray:
    """Sensor noise over ``window``: iid N(0, sigma^2) pixels.

    ``seed`` is the frame's noise key: the entropy, then the frame's name
    (an int S is the key (S,)). ``SeedSequence(key[0], spawn_key=key[1:])``
    keys one Philox stream per frame. Band i, sensor rows [i * _BAND,
    (i + 1) * _BAND), reads its uniforms from counter (0, i, 0, 0) on,
    column by column, so columns [c0, c1) are the run from counter
    (c0 * _BAND / 4, i, 0, 0): a window draws only its own columns of the
    bands it covers, and equals that slice of the full noise. Rows 2m and
    2m + 1 of a column take the uniform pair (u1, u2) through Box-Muller:
    sigma sqrt(-2 log(1 - u1)) (cos 2 pi u2, sin 2 pi u2).
    """
    entropy, *name = seed if isinstance(seed, tuple) else (seed,)
    # keyed on the sequence's generate_state(2, np.uint64), at counter 0
    bits = np.random.Philox(np.random.SeedSequence(entropy, spawn_key=name))
    rng = np.random.Generator(bits)
    state = bits.state  # with an empty buffer, so setting it starts a block
    counter = state["state"]["counter"]
    counter[0] = window.c0 * _BAND // 4
    i0, i1 = window.r0 // _BAND, -(-window.r1 // _BAND)
    cols = window.c1 - window.c0
    u = np.empty((i1 - i0, cols, _BAND // 2, 2))  # u[b, c, m]: (u1, u2) of rows 2m, 2m + 1
    for i in range(i0, i1):
        counter[1] = i
        bits.state = state
        rng.random(out=u[i - i0])
    radius = np.log1p(-u[..., 0])
    radius *= -2.0 * sigma * sigma
    np.sqrt(radius, out=radius)
    cos, sin = _cos_sin(np.pi * u[..., 1])
    z = np.empty((i1 - i0, _BAND // 2, 2, cols))  # z[b, m, k, c]: row 2m + k of band b
    np.multiply(radius, cos, out=z[:, :, 0].transpose(0, 2, 1))
    np.multiply(radius, sin, out=z[:, :, 1].transpose(0, 2, 1))
    r = window.r0 - i0 * _BAND
    return z.reshape(-1, cols)[r : r + window.r1 - window.r0]


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
    sensor is drawn, noise included: the crop's columns of the sensor
    bands it covers, nothing more. Its pixels equal the same slice of the
    full frame: the float image is rounded once, pixel by pixel.
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


# Rows of window starts that one band product covers: a longer axis is
# summed tile by tile, so that each sum costs about _TILE + n multiply-adds
# whatever the frame size. On a full native frame, box sums took 121 ms
# with tiles of 64 and 133 ms with 128 (2-core x86-64, one thread).
_TILE = 64


@lru_cache(maxsize=64)
def _band(length: int, n: int, step: int) -> np.ndarray:
    """Read-only 0/1 float matrix: its product with ``length`` rows sums
    each window of ``n`` rows that ``_window_sums`` lists."""
    starts = np.arange(0, length - n + 1, step)
    if starts[-1] != length - n:
        starts = np.append(starts, length - n)
    k = np.arange(length)
    band = ((k >= starts[:, None]) & (k < starts[:, None] + n)).astype(float)
    band.flags.writeable = False
    return band


def _window_sums(a: np.ndarray, n: int, step: int = 1, axis: int = 0) -> np.ndarray:
    """Sums of the windows of ``n`` rows (``axis`` 0) or columns (1) of a
    2-D ``a`` that start at 0, ``step``, 2 ``step`` ... and at the last
    ``n``, as products with a 0/1 band matrix of at most ``_TILE`` windows
    each. For an integer-valued ``a`` every partial sum is an integer below
    2^53, so the float64 sums are exact whatever order the BLAS kernel adds
    in."""
    length = a.shape[axis]
    span = (max(_TILE // step, 1) - 1) * step + n  # the rows of a full tile's windows
    count = -(-(length - n) // step) + 1
    out = np.empty((count, a.shape[1]) if axis == 0 else (a.shape[0], count))
    k0 = 0
    while k0 < count:
        i0 = min(k0 * step, length - n)  # past the stride grid, the last window
        band = _band(min(span, length - i0), n, step)
        k1, i1 = k0 + band.shape[0], i0 + band.shape[1]
        if axis == 0:
            np.matmul(band, a[i0:i1], out=out[k0:k1])
        else:
            np.matmul(a[:, i0:i1], band.T, out=out[:, k0:k1])
        k0 = k1
    return out


def _binarize(diff: np.ndarray, expected_diameter_px: float, offset: float) -> np.ndarray:
    """Pixels of an integer ``diff`` above the mean of the n x n box around
    them (edges replicated) plus ``offset``: (diff - offset) n^2 > box sum.
    The box sums are window sums of the padded rows, then columns."""
    n = _binarize_window(expected_diameter_px)
    r = n // 2
    h, w = diff.shape
    pad = np.empty((h + 2 * r, w + 2 * r))
    pad[r : r + h, r : r + w] = diff
    pad[:r, r : r + w] = diff[0]
    pad[r + h :, r : r + w] = diff[-1]
    pad[:, :r] = pad[:, r : r + 1]
    pad[:, r + w :] = pad[:, r + w - 1 : r + w]
    sums = _window_sums(_window_sums(pad, n), n, axis=1)
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
    major, minor = _axes(cols - u, rows - v, weights, mass)
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
