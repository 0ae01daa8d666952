"""Pixel-level primitives.

An image is a 2-D ``numpy`` array of ``uint8``, shape ``(height, width)``,
row-major. All math that lands back in uint8 rounds half away from zero
(every quantity in the pixel pipeline is non-negative, so that is simply
``floor(x + 0.5)``) — pinned so goldens are stable.

The only mandatory raster format is binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    MalformedHeaderError,
    NonPositiveFactorError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    ZeroDimensionError,
)

BLUR_KINDS = ("gaussian", "average", "median")


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero for non-negative values."""
    return np.floor(x + 0.5)


def _to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(round_half_up(x), 0, 255).astype(np.uint8)


# --- PGM codec ---------------------------------------------------------------

# A P5 header is four fields, each after any run of whitespace and '#'
# comments, then exactly one whitespace byte. A field ends at whitespace or
# '#'; a comment ends only at '\n' or the end of the data, so backtracking
# cannot shorten it into a field.
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)(?![^\s#])" * 4 + rb"\s")


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (P5, maxval 255) byte sequence."""
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedHeaderError("expected four header fields and a separator")
    magic, *fields = header.groups()
    if magic != b"P5":
        raise MalformedHeaderError(f"bad magic {magic!r}")
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError:
        raise MalformedHeaderError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval {maxval}, only 255 supported")
    need = width * height
    payload = data[header.end() : header.end() + need]
    if len(payload) < need:
        raise TruncatedPayloadError(f"payload {len(payload)} bytes, need {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(img: np.ndarray) -> bytes:
    """Encode to canonical binary PGM: ``P5\\n<w> <h>\\n255\\n`` + payload."""
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.tobytes()


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_pgm(f.read())


def save_pgm(path, img: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(write_pgm(img))


# --- point ops ----------------------------------------------------------------

def rgb_to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an (h, w, 3) uint8 array."""
    y = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return _to_u8(y)


def adjust_brightness(img: np.ndarray, factor: float) -> np.ndarray:
    """Multiply every pixel by ``factor``, round, clamp to [0, 255]."""
    if not factor > 0:
        raise NonPositiveFactorError(f"factor {factor} must be > 0")
    return _to_u8(img.astype(np.float64) * factor)


# --- geometric ops ------------------------------------------------------------

def _taps(s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear taps along an axis of length ``n`` for source coordinates ``s``:
    the floor of the clipped coordinate, the next tap clamped to the edge, and
    the fraction between them."""
    s = np.clip(s, 0, n - 1)
    i0 = np.floor(s).astype(np.intp)
    return i0, np.minimum(i0 + 1, n - 1), s - i0


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize with pixel-center alignment.

    Source coordinate for destination index d is ``(d + 0.5) * src/dst - 0.5``,
    clamped to the valid range.
    """
    if out_w <= 0 or out_h <= 0:
        raise ZeroDimensionError(f"target {out_w}x{out_h}")
    h, w = img.shape
    x0, x1, fx = _taps((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, w)
    y0, y1, fy = _taps((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, h)
    gx, fy = 1 - fx, fy[:, None]
    row0, row1 = img[y0], img[y1]  # uint8 tap rows; the products promote exactly
    top = row0[:, x0] * gx + row0[:, x1] * fx
    bot = row1[:, x0] * gx + row1[:, x1] * fx
    return _to_u8(top * (1 - fy) + bot * fy)


def warp_rotate(img: np.ndarray, angle: float, center: tuple[float, float],
                window: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Rotate by ``angle`` (radians, image coordinates, y down) about ``center``.

    Output keeps the input dimensions. Each destination pixel samples the
    source at the inverse-rotated coordinate with bilinear interpolation;
    samples falling outside the source rectangle are 0.

    ``window=(x0, y0, x1, y1)`` computes only the destination pixels of that
    inclusive rectangle, so the result is the full output's
    ``[y0 : y1 + 1, x0 : x1 + 1]`` bit for bit: the taps and the outside-is-0
    rule still refer to the whole source frame.
    """
    h, w = img.shape
    left, top, right, bottom = (0, 0, w - 1, h - 1) if window is None else window
    cx, cy = center
    # a row of column offsets and a column of row offsets; broadcasting gives
    # each pixel the same float expression a full meshgrid would
    dx = np.arange(left, right + 1, dtype=np.float64) - cx
    dy = (np.arange(top, bottom + 1, dtype=np.float64) - cy)[:, None]
    ca, sa = math.cos(-angle), math.sin(-angle)
    sx = cx + ca * dx - sa * dy
    sy = cy + sa * dx + ca * dy
    # tolerance keeps boundary membership from flipping on 1e-16 trig noise
    tol = 1e-9
    inside = (sx >= -tol) & (sx <= w - 1 + tol) & (sy >= -tol) & (sy <= h - 1 + tol)
    x0, x1, fx = _taps(sx, w)
    y0, y1, fy = _taps(sy, h)
    gx, gy = 1 - fx, 1 - fy
    # uint8 taps from the flat frame: each converts to float64 exactly
    flat = img.ravel()
    r0, r1 = y0 * w, y1 * w
    val = (flat.take(r0 + x0) * gx * gy + flat.take(r0 + x1) * fx * gy
           + flat.take(r1 + x0) * gx * fy + flat.take(r1 + x1) * fx * fy)
    return np.where(inside, _to_u8(val), np.uint8(0))


# --- blur kernels -------------------------------------------------------------

def _gaussian_kernel_5x5(sigma: float = 1.5) -> np.ndarray:
    d = np.arange(-2, 3, dtype=np.float64)
    g1 = np.exp(-(d ** 2) / (2 * sigma ** 2))
    k = np.outer(g1, g1)
    return k / k.sum()

_GAUSSIAN_5X5 = _gaussian_kernel_5x5()


def _windows_5x5(img: np.ndarray) -> np.ndarray:
    """(h, w, 25) view of the 5x5 neighbourhoods, edges replicated."""
    padded = np.pad(img, 2, mode="edge").astype(np.float64)
    h, w = img.shape
    stack = [padded[i : i + h, j : j + w] for i in range(5) for j in range(5)]
    return np.stack(stack, axis=-1)


def blur(img: np.ndarray, kind: str) -> np.ndarray:
    """5x5 blur with clamp-to-border edge handling.

    gaussian: sigma 1.5, kernel normalized to sum 1; average: uniform 1/25;
    median: 13th order statistic of the 25 window values.
    """
    win = _windows_5x5(img)
    if kind == "gaussian":
        out = win @ _GAUSSIAN_5X5.ravel()
    elif kind == "average":
        out = win.mean(axis=-1)
    elif kind == "median":
        out = np.partition(win, 12, axis=-1)[..., 12]
    else:
        raise ValueError(f"unknown blur kind {kind!r}")
    return _to_u8(out)
