"""Corpus ingestion, label construction, and batch decoding.

Manifest line grammar (comma-separated, ``#`` starts a comment line):

    <image_path>,<class_name>[,<intensity>]

Class names are the lower-case emotion names. Intensity is a decimal in
(0, 1] and is required in regression mode. Relative image paths are resolved
against the manifest's directory.

Intensity targets follow the two-component scheme: a sample showing emotion
``e`` at intensity ``k`` gets target ``e = k``, ``neutral = 1 - k``, all other
components 0; a neutral sample is ``neutral = 1``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ManifestParseError,
    MissingIntensityColumnError,
    OutOfRangeIntensityError,
    UnalignedImageError,
    UnknownClassNameError,
)
from .imaging import load_pgm
from .alignment import ALIGNED_SIZE

class EmotionClass(enum.IntEnum):
    ANGRY = 0
    DISGUST = 1
    FEAR = 2
    HAPPY = 3
    NEUTRAL = 4
    SAD = 5
    SURPRISE = 6

    @classmethod
    def from_name(cls, name: str) -> "EmotionClass":
        try:
            return cls[name.upper()]
        except KeyError:
            raise UnknownClassNameError(f"unknown emotion class {name!r}") from None

    @property
    def label(self) -> str:
        return self.name.lower()


NUM_CLASSES = len(EmotionClass)
CLASS_NAMES = tuple(c.label for c in EmotionClass)
# the two heads; a model file stores the index as its mode byte
MODES = ("classification", "regression")


@dataclass(frozen=True)
class Sample:
    image_path: str
    label: EmotionClass
    intensity: np.ndarray | None = None   # (7,) float32, regression manifests only


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray                    # (N, 1, 128, 128) float32 in [0, 1]
    class_targets: np.ndarray             # (N,) int64
    intensity_targets: np.ndarray | None  # (N, 7) float32, regression only


def intensity_label(cls: EmotionClass, k: float) -> np.ndarray:
    """Two-component intensity target: cls = k, neutral = 1 - k, rest 0."""
    if not 0.0 < k <= 1.0:
        raise OutOfRangeIntensityError(f"intensity {k} outside (0, 1]")
    v = np.zeros(NUM_CLASSES, dtype=np.float32)
    if cls == EmotionClass.NEUTRAL:
        v[EmotionClass.NEUTRAL] = 1.0
    else:
        v[cls] = k
        v[EmotionClass.NEUTRAL] = 1.0 - k
    return v


def sequence_intensities() -> np.ndarray:
    """The 9 sequence targets: 20% up to 100% and back down in 20% steps."""
    return np.array([0.2, 0.4, 0.6, 0.8, 1.0, 0.8, 0.6, 0.4, 0.2])


def manifest_rows(path):
    """(line number, stripped fields) for each line that is not blank or a comment."""
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, [p.strip() for p in line.split(",")]
        except UnicodeDecodeError as exc:
            raise ManifestParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_manifest(path, mode: str) -> list[Sample]:
    """Parse a manifest into Samples; ``mode`` is one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    for lineno, fields in manifest_rows(path):
        if len(fields) < 2 or not fields[0]:
            raise ManifestParseError(f"{path}:{lineno}: need <image_path>,<class_name>")
        if len(fields) > 3:
            raise ManifestParseError(f"{path}:{lineno}: too many columns ({len(fields)})")
        img_path = os.path.join(base, fields[0])
        label = EmotionClass.from_name(fields[1])

        intensity = None
        if mode == "regression":
            if len(fields) < 3 or not fields[2]:
                raise MissingIntensityColumnError(
                    f"{path}:{lineno}: regression manifest needs an intensity column")
            try:
                intensity = intensity_label(label, float(fields[2]))
            except ValueError:
                raise ManifestParseError(f"{path}:{lineno}: bad intensity {fields[2]!r}") from None
            except OutOfRangeIntensityError as exc:
                raise ManifestParseError(f"{path}:{lineno}: {exc}") from None
        samples.append(Sample(image_path=img_path, label=label, intensity=intensity))
    return samples


def _scale_pixels(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as the network's float32 inputs in [0, 1]."""
    return (pixels / np.float32(255.0)).astype(np.float32, copy=False)


def load_batch_inputs(batch_samples: list[Sample]) -> Batch:
    """Load one batch worth of aligned 128x128 images, scaled to [0, 1]."""
    imgs = []
    for s in batch_samples:
        img = load_pgm(s.image_path)
        if img.shape != (ALIGNED_SIZE, ALIGNED_SIZE):
            raise UnalignedImageError(
                f"{s.image_path}: expected a {ALIGNED_SIZE}x{ALIGNED_SIZE} aligned "
                f"face, got {img.shape[1]}x{img.shape[0]} (run alignment first)")
        imgs.append(img)
    inputs = _scale_pixels(np.stack(imgs)[:, None, :, :])
    targets = np.array([s.label for s in batch_samples], dtype=np.int64)
    intensities = (np.stack([s.intensity for s in batch_samples]).astype(np.float32)
                   if batch_samples[0].intensity is not None else None)
    return Batch(inputs=inputs, class_targets=targets, intensity_targets=intensities)
