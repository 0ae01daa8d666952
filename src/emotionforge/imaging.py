"""Pixel-level primitives.

An image is a 2-D ``numpy`` array of ``uint8``, shape ``(height, width)``,
row-major. All math that lands back in uint8 rounds half away from zero
(every quantity in the pixel pipeline is non-negative, so that is simply
``floor(x + 0.5)``) — pinned so goldens are stable.

The only mandatory raster format is binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import contextlib
import math
import os
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    MalformedHeaderError,
    NonPositiveFactorError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    ZeroDimensionError,
)

BLUR_KINDS = ("gaussian", "average", "median")


def _to_u8(x: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(x + 0.5), 0, 255).astype(np.uint8)


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


@contextlib.contextmanager
def atomic_write(path):
    """A binary file whose bytes replace ``path`` only when the block ends
    cleanly, so a reader never sees a partial file.

    They go to ``.<name>.<pid>.tmp`` in the same directory (which no
    ``*.pgm`` glob matches) and then ``os.replace`` it onto ``path``. If the
    block raises, the temporary file is removed and ``path`` is untouched.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_pgm(path, img: np.ndarray) -> None:
    with atomic_write(path) as f:
        f.write(write_pgm(img))


# --- point ops ----------------------------------------------------------------

def rgb_to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an (h, w, 3) uint8 array."""
    y = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return _to_u8(y)


def adjust_brightness(img: np.ndarray, factor: float) -> np.ndarray:
    """Multiply every pixel by ``factor``, round, clamp to [0, 255]."""
    if not 0 < factor < math.inf:
        raise NonPositiveFactorError(f"factor {factor} must be finite and > 0")
    # past 256 every nonzero pixel saturates at any factor; the cap keeps the
    # product finite
    return _to_u8(img.astype(np.float64) * min(factor, 256.0))


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
    return _to_u8(val) * inside


# --- blur kernels -------------------------------------------------------------

def _gaussian_kernel_5x5(sigma: float = 1.5) -> np.ndarray:
    d = np.arange(-2, 3, dtype=np.float64)
    g1 = np.exp(-(d ** 2) / (2 * sigma ** 2))
    k = np.outer(g1, g1)
    return k / k.sum()

_GAUSSIAN_5X5 = _gaussian_kernel_5x5()


# The 99 compare-exchanges of the opt_med25 network (N. Devillard, "Fast
# median search", 1998): exchange (a, b) leaves the minimum on wire a and the
# maximum on wire b, and afterwards wire 12 holds the 13th smallest of the 25
# inputs. By the 0-1 principle that holds for all inputs if it holds for all
# 2**25 inputs of 0s and 1s, which the tests check.
_MEDIAN_25 = (
    (0, 1), (3, 4), (2, 4), (2, 3), (6, 7), (5, 7), (5, 6), (9, 10), (8, 10), (8, 9),
    (12, 13), (11, 13), (11, 12), (15, 16), (14, 16), (14, 15), (18, 19), (17, 19),
    (17, 18), (21, 22), (20, 22), (20, 21), (23, 24), (2, 5), (3, 6), (0, 6), (0, 3),
    (4, 7), (1, 7), (1, 4), (11, 14), (8, 14), (8, 11), (12, 15), (9, 15), (9, 12),
    (13, 16), (10, 16), (10, 13), (20, 23), (17, 23), (17, 20), (21, 24), (18, 24),
    (18, 21), (19, 22), (8, 17), (9, 18), (0, 18), (0, 9), (10, 19), (1, 19), (1, 10),
    (11, 20), (2, 20), (2, 11), (12, 21), (3, 21), (3, 12), (13, 22), (4, 22), (4, 13),
    (14, 23), (5, 23), (5, 14), (15, 24), (6, 24), (6, 15), (7, 16), (7, 19), (13, 21),
    (15, 23), (7, 13), (7, 15), (1, 9), (3, 11), (5, 17), (11, 17), (9, 17), (4, 10),
    (6, 12), (7, 14), (4, 6), (4, 7), (12, 14), (10, 14), (6, 7), (10, 12), (6, 10),
    (6, 17), (12, 17), (7, 17), (7, 10), (12, 18), (7, 12), (10, 18), (12, 20), (10, 20),
    (10, 12),
)


def _median_25(wires: list[np.ndarray]) -> np.ndarray:
    """Elementwise median of 25 same-shape arrays by the ``_MEDIAN_25`` network.
    Each exchange makes new arrays, so the inputs may be views of one image."""
    w = list(wires)
    for a, b in _MEDIAN_25:
        w[a], w[b] = np.minimum(w[a], w[b]), np.maximum(w[a], w[b])
    return w[12]


def _blur_padded(padded: np.ndarray, kind: str, win: np.ndarray | None = None) -> np.ndarray:
    """``blur`` of the image whose 2-pixel edge-replicated copy is ``padded``.

    The gaussian fills ``win``, a float64 (h, w, 5, 5) buffer made here when
    None, with the 5x5 neighbourhoods and takes one matrix-vector product.
    """
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    if kind == "gaussian":
        win = np.empty((h, w, 5, 5)) if win is None else win
        np.copyto(win, sliding_window_view(padded.astype(np.float64), (5, 5)))
        return _to_u8(win.reshape(h, w, 25) @ _GAUSSIAN_5X5.ravel())
    if kind == "average":
        wide = padded.astype(np.uint16)
        rows = sum(wide[:, j : j + w] for j in range(5))
        return _to_u8(sum(rows[i : i + h] for i in range(5)) / 25)
    if kind == "median":
        return _median_25([padded[i : i + h, j : j + w] for i in range(5) for j in range(5)])
    raise ValueError(f"unknown blur kind {kind!r}")


def blur(img: np.ndarray, kind: str) -> np.ndarray:
    """5x5 blur with clamp-to-border edge handling.

    gaussian: sigma 1.5, kernel normalized to sum 1; average: uniform 1/25;
    median: 13th order statistic of the 25 window values.

    The median is a fixed compare-exchange network on uint8. The average is
    an exact 5x5 box sum in uint16, divided by 25 and rounded once; no sum is
    within 1/50 of a rounding boundary, so that is the exact quotient rounded.
    The gaussian alone multiplies float64 windows by its kernel in one BLAS
    matrix-vector product; its last bits follow that product's summation
    order, so it keeps that call.
    """
    return _blur_padded(np.pad(img, 2, mode="edge"), kind)
