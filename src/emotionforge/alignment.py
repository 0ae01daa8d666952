"""Landmark-based face alignment.

A landmark set is a ``(68, 2)`` float array of (x, y) points in image
coordinates (y grows downward), ordered per the standard 68-point facial
markup: points 1-17 trace the jaw line, 37-42 the image-left eye contour,
43-48 the image-right eye contour, point 9 is the chin tip. Indices in this
module's docs are 1-based like the markup; row ``i`` of the array holds
point ``i + 1``.

The alignment procedure: rotate the image so the eye line is horizontal
(pivot at the eye midpoint), move the landmarks through the same rotation,
crop to the jaw/chin-derived rectangle whose top edge puts the eye line at
one third of the crop height, and rescale to 128x128. The crop is found from
the rotated landmarks first, so only its pixels are resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CoincidentEyesError, DegenerateFaceError, EmptyCropError,
                     MalformedLandmarksError)
from .imaging import resize_bilinear, warp_rotate

ALIGNED_SIZE = 128

# 0-based rows for the 1-based markup points used here
_LEFT_EYE = slice(36, 42)    # points 37-42
_RIGHT_EYE = slice(42, 48)   # points 43-48
_JAW_LEFT = 0                # point 1
_CHIN = 8                    # point 9
_JAW_RIGHT = 16              # point 17


@dataclass(frozen=True)
class CropRect:
    left: float
    top: float
    right: float
    bottom: float


@dataclass(frozen=True)
class AlignedFace:
    image: np.ndarray          # uint8, exactly 128x128
    rotation_applied: float    # radians
    crop: CropRect             # in rotated-frame coordinates


def eye_centers(lm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each eye's 6 contour points: (image-left eye, image-right eye)."""
    return lm[_LEFT_EYE].mean(axis=0), lm[_RIGHT_EYE].mean(axis=0)


def rotation_from_eyes(left_eye, right_eye) -> float:
    """Angle of the eye line; rotating by its negation levels the eyes."""
    dx = float(right_eye[0] - left_eye[0])
    dy = float(right_eye[1] - left_eye[1])
    if dx == 0.0 and dy == 0.0:
        raise CoincidentEyesError("eye centers coincide")
    return math.atan2(dy, dx)


def rotate_points(points: np.ndarray, angle: float, center) -> np.ndarray:
    """Rotate points by ``angle`` about ``center`` (image convention, y down)."""
    ca, sa = math.cos(angle), math.sin(angle)
    rel = np.asarray(points, dtype=np.float64) - center
    return np.stack([center[0] + ca * rel[:, 0] - sa * rel[:, 1],
                     center[1] + sa * rel[:, 0] + ca * rel[:, 1]], axis=1)


def crop_bounds(rotated_lm: np.ndarray, eye_center) -> CropRect:
    """Crop rectangle from jaw points 1/17, chin point 9, and the eye center.

    The top edge is placed so the eye line sits one third of the way down the
    crop: top = (3*eye_y - bottom) / 2.
    """
    left = float(rotated_lm[_JAW_LEFT, 0])
    right = float(rotated_lm[_JAW_RIGHT, 0])
    bottom = float(rotated_lm[_CHIN, 1])
    eye_y = float(eye_center[1])
    if left > right:  # mirrored landmark order
        left, right = right, left
    if bottom <= eye_y:
        raise DegenerateFaceError(f"chin y {bottom} not below eye line y {eye_y}")
    if right <= left:
        raise DegenerateFaceError("zero face width between jaw points")
    top = (3.0 * eye_y - bottom) / 2.0
    return CropRect(left, top, right, bottom)


def align_face(img: np.ndarray, lm: np.ndarray) -> AlignedFace:
    """Full alignment: rotate, crop, rescale to 128x128."""
    le, re = eye_centers(lm)
    angle = rotation_from_eyes(le, re)
    mid = (le + re) / 2.0
    rect = crop_bounds(rotate_points(lm, -angle, mid), mid)

    # Round outward to whole pixels (inclusive bounds), clamp to the image.
    h, w = img.shape
    x0 = max(math.floor(rect.left), 0)
    y0 = max(math.floor(rect.top), 0)
    x1 = min(math.ceil(rect.right), w - 1)
    y1 = min(math.ceil(rect.bottom), h - 1)
    if x1 < x0 or y1 < y0:
        raise EmptyCropError(f"crop {rect} lies outside the {w}x{h} image")
    # rotate only the crop: the same bytes as slicing a full-frame warp
    patch = warp_rotate(img, -angle, (mid[0], mid[1]), window=(x0, y0, x1, y1))
    return AlignedFace(image=resize_bilinear(patch, ALIGNED_SIZE, ALIGNED_SIZE),
                       rotation_applied=-angle, crop=rect)


# --- landmark sidecar files ----------------------------------------------------

def read_landmarks(path) -> np.ndarray:
    """Read a .lm68 sidecar: 68 lines of ``x y`` decimal floats."""
    pts = []
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                x, y = line.split()
                pts.append((float(x), float(y)))
    except ValueError as exc:  # also UnicodeDecodeError
        raise MalformedLandmarksError(f"{path}: {exc}") from None
    if len(pts) != 68:
        raise MalformedLandmarksError(f"{path}: expected 68 landmark lines, got {len(pts)}")
    out = np.array(pts, dtype=np.float64)
    if not np.isfinite(out).all():
        raise MalformedLandmarksError(f"{path}: non-finite landmark coordinate")
    return out


def write_landmarks(path, lm: np.ndarray) -> None:
    with open(path, "w") as f:
        for x, y in np.asarray(lm, dtype=np.float64):
            f.write(f"{x} {y}\n")


def sidecar_path(image_path) -> str:
    """Landmark file path: image path with its extension replaced by .lm68."""
    s = str(image_path)
    dot = s.rfind(".")
    stem = s if dot <= s.replace("\\", "/").rfind("/") else s[:dot]
    return stem + ".lm68"
