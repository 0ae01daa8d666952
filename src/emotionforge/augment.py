"""Deterministic 28-way augmentation: 7 brightness levels x 4 blur states.

Variant order is brightness-major, blur-minor, and every variant equals
brightness first, then blur, byte for byte. The median is taken once per
source and then brightened, which gives the same bytes because brightness
is monotone. The (1.0, none) variant is the input bit-exact.
Tags have the form ``b<factor>__<kind>`` with the factor printed to two
decimals; the CLI writes variants as ``<stem>__<tag>.pgm``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .imaging import BLUR_KINDS, _blur_windows, _windows_5x5, adjust_brightness, blur

DEFAULT_BRIGHTNESS_FACTORS = (0.55, 0.70, 0.85, 1.00, 1.15, 1.30, 1.45)
DEFAULT_BLUR_KINDS = ("none",) + BLUR_KINDS


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
        if any(f <= 0 for f in self.brightness_factors):
            raise InvalidSpecError("brightness factors must be positive")
        bad = set(self.blur_kinds) - ({"none"} | set(BLUR_KINDS))
        if bad:
            raise InvalidSpecError(f"unknown blur kinds {sorted(bad)}")


def default_spec() -> AugmentSpec:
    return AugmentSpec()


def variant_tag(factor: float, kind: str) -> str:
    return f"b{factor:.2f}__{kind}"


def variants(img: np.ndarray, spec: AugmentSpec) -> list[tuple[str, np.ndarray]]:
    """All 28 (tag, image) variants in deterministic order.

    The gaussian and the average of one level share one window stack; the
    median is taken once, of ``img``, and brightened for each level.
    """
    spec.validate()
    median = blur(img, "median") if "median" in spec.blur_kinds else None
    out = []
    for factor in spec.brightness_factors:
        bright = img if factor == 1.0 else adjust_brightness(img, factor)
        win = _windows_5x5(bright) if {"gaussian", "average"} & set(spec.blur_kinds) else None
        for kind in spec.blur_kinds:
            if kind == "none":
                var = bright.copy()
            elif kind == "median":
                var = adjust_brightness(median, factor)
            else:
                var = _blur_windows(win, kind)
            out.append((variant_tag(factor, kind), var))
    return out
