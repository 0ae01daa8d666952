"""Deterministic 28-way augmentation: 7 brightness levels x 4 blur states.

Variant order is brightness-major, blur-minor, and every variant equals
brightness first, then blur, byte for byte. Each brightness level is a
256-entry table, ``adjust_brightness`` of the values 0..255, looked up in the
source and in its edge-padded copy: edge replication commutes with a
pointwise map. The median is taken once per source and then looked up in each
level's table, which gives the same bytes because brightness is monotone.
The (1.0, none) variant is the input bit-exact.
Tags have the form ``b<factor>__<kind>`` with the factor printed to two
decimals; the CLI writes variants as ``<stem>__<tag>.pgm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .imaging import BLUR_KINDS, _blur_padded, adjust_brightness, blur

DEFAULT_BRIGHTNESS_FACTORS = (0.55, 0.70, 0.85, 1.00, 1.15, 1.30, 1.45)
DEFAULT_BLUR_KINDS = ("none",) + BLUR_KINDS
_LEVELS = np.arange(256, dtype=np.uint8)  # every pixel value


@dataclass(frozen=True)
class AugmentSpec:
    brightness_factors: tuple[float, ...] = DEFAULT_BRIGHTNESS_FACTORS
    blur_kinds: tuple[str, ...] = DEFAULT_BLUR_KINDS

    def validate(self) -> None:
        if len(self.brightness_factors) != 7:
            raise InvalidSpecError(f"need 7 brightness factors, got {len(self.brightness_factors)}")
        if len(self.blur_kinds) != 4:
            raise InvalidSpecError(f"need 4 blur kinds, got {len(self.blur_kinds)}")
        if not any(f == 1.0 for f in self.brightness_factors):
            raise InvalidSpecError("brightness factors must include 1.0")
        if "none" not in self.blur_kinds:
            raise InvalidSpecError("blur kinds must include 'none'")
        if not all(0 < f < math.inf for f in self.brightness_factors):
            raise InvalidSpecError("brightness factors must be positive and finite")
        bad = set(self.blur_kinds) - ({"none"} | set(BLUR_KINDS))
        if bad:
            raise InvalidSpecError(f"unknown blur kinds {sorted(bad)}")


def default_spec() -> AugmentSpec:
    return AugmentSpec()


def variant_tag(factor: float, kind: str) -> str:
    return f"b{factor:.2f}__{kind}"


def variants(img: np.ndarray, spec: AugmentSpec) -> list[tuple[str, np.ndarray]]:
    """All 28 (tag, image) variants in deterministic order.

    One level's gaussian and average read one brightened padded copy, and
    every gaussian refills one float64 window buffer; the median is taken
    once, of ``img``, and looked up in each level's table.
    """
    spec.validate()
    padded = np.pad(img, 2, mode="edge")
    median = blur(img, "median") if "median" in spec.blur_kinds else None
    win = np.empty(img.shape + (5, 5))  # the gaussians' window buffer
    out = []
    for factor in spec.brightness_factors:
        lut = adjust_brightness(_LEVELS, factor)
        bright_padded = lut.take(padded)
        for kind in spec.blur_kinds:
            if kind == "none":
                var = lut.take(img)
            elif kind == "median":
                var = lut.take(median)
            else:
                var = _blur_padded(bright_padded, kind, win)
            out.append((variant_tag(factor, kind), var))
    return out
