import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emotionforge import augment, imaging
from emotionforge.errors import InvalidSpecError
from emotionforge.rng import Prng


def sample_image(seed=0, h=20, w=20):
    return (Prng(seed).uniform(h * w).reshape(h, w) * 256).astype(np.uint8)


def test_default_spec_contents():
    spec = augment.default_spec()
    assert len(spec.brightness_factors) == 7
    assert 1.0 in spec.brightness_factors
    assert len(spec.blur_kinds) == 4
    assert "none" in spec.blur_kinds


def test_28_variants():
    out = augment.variants(sample_image(), augment.default_spec())
    assert len(out) == 28


def test_identity_variant_bit_exact():
    img = sample_image(1)
    out = dict(augment.variants(img, augment.default_spec()))
    assert (out["b1.00__none"] == img).all()


def test_order_brightness_major():
    out = augment.variants(sample_image(2), augment.default_spec())
    tags = [t for t, _ in out]
    expected = [f"b{f:.2f}__{k}"
                for f in (0.55, 0.70, 0.85, 1.00, 1.15, 1.30, 1.45)
                for k in ("none", "gaussian", "average", "median")]
    assert tags == expected


def test_deterministic():
    img = sample_image(3)
    a = augment.variants(img, augment.default_spec())
    b = augment.variants(img, augment.default_spec())
    assert all(ta == tb and (ia == ib).all() for (ta, ia), (tb, ib) in zip(a, b))


def test_monotone_mean_brightness_per_kind():
    img = sample_image(4)
    out = augment.variants(img, augment.default_spec())
    for kind in ("none", "gaussian", "average", "median"):
        means = [im.mean() for tag, im in out if tag.endswith(f"__{kind}")]
        assert all(m1 <= m2 + 1e-12 for m1, m2 in zip(means, means[1:]))


def test_scaling_law():
    spec = augment.default_spec()
    per_image = len(spec.brightness_factors) * len(spec.blur_kinds)
    assert per_image == 28
    assert 41029 * per_image == 1148812


@pytest.mark.parametrize("spec", [
    augment.AugmentSpec(brightness_factors=(0.5, 1.0, 1.5)),
    augment.AugmentSpec(blur_kinds=("none", "gaussian")),
    augment.AugmentSpec(brightness_factors=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)),
    augment.AugmentSpec(blur_kinds=("gaussian", "average", "median", "gaussian")),
    augment.AugmentSpec(brightness_factors=(-1.0, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0)),
    augment.AugmentSpec(blur_kinds=("none", "gaussian", "average", "box")),
    augment.AugmentSpec(brightness_factors=(float("nan"), 0.2, 0.3, 0.4, 0.5, 0.6, 1.0)),
    augment.AugmentSpec(brightness_factors=(0.1, 0.2, 0.3, 0.4, 0.5, float("inf"), 1.0)),
    augment.AugmentSpec(brightness_factors=(float("-inf"), 0.2, 0.3, 0.4, 0.5, 0.6, 1.0)),
])
def test_invalid_specs(spec):
    with pytest.raises(InvalidSpecError):
        augment.variants(sample_image(), spec)


# --- the brightness-then-blur loop, as the reference for variants ------------

def blur_oracle(img, kind):
    """``imaging.blur`` on windows built as a stack of 25 shifted slices."""
    padded = np.pad(img, 2, mode="edge").astype(np.float64)
    h, w = img.shape
    win = np.stack([padded[i : i + h, j : j + w] for i in range(5) for j in range(5)], axis=-1)
    if kind == "gaussian":
        out = win @ imaging._GAUSSIAN_5X5.ravel()
    elif kind == "average":
        out = win.mean(axis=-1)
    else:
        out = np.partition(win, 12, axis=-1)[..., 12]
    return imaging._to_u8(out)


def variants_oracle(img, spec):
    """Brightness, then one blur per kind, for every variant."""
    out = []
    for factor in spec.brightness_factors:
        bright = img if factor == 1.0 else imaging.adjust_brightness(img, factor)
        for kind in spec.blur_kinds:
            var = bright.copy() if kind == "none" else blur_oracle(bright, kind)
            out.append((augment.variant_tag(factor, kind), var))
    return out


ORACLE_SPECS = [
    augment.default_spec(),
    augment.AugmentSpec(blur_kinds=("none", "median", "gaussian", "median")),
    augment.AugmentSpec(blur_kinds=("median", "average", "none", "gaussian")),
    augment.AugmentSpec(brightness_factors=(0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0)),
]


ORACLE_IMAGES = {}
for h, w in ((1, 1), (3, 5), (128, 128)):
    ORACLE_IMAGES[f"random{h}x{w}"] = sample_image(h * w, h, w)
    for value in (0, 93, 255):
        ORACLE_IMAGES[f"flat{value}_{h}x{w}"] = np.full((h, w), value, dtype=np.uint8)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["default", "dup", "reordered", "saturating"])
@pytest.mark.parametrize("name", ORACLE_IMAGES)
def test_variants_equal_brightness_then_blur(spec, name):
    img = ORACLE_IMAGES[name]
    got = augment.variants(img, spec)
    want = variants_oracle(img, spec)
    assert [tag for tag, _ in got] == [tag for tag, _ in want]
    for (tag, a), (_, b) in zip(got, want):
        assert a.dtype == np.uint8 and a.tobytes() == b.tobytes(), tag


@pytest.mark.parametrize("name", ORACLE_IMAGES)
@pytest.mark.parametrize("kind", imaging.BLUR_KINDS)
def test_blur_equals_stacked_windows(kind, name):
    img = ORACLE_IMAGES[name]
    assert imaging.blur(img, kind).tobytes() == blur_oracle(img, kind).tobytes()


@settings(max_examples=200)
@given(st.sampled_from(imaging.BLUR_KINDS), st.integers(1, 40), st.integers(1, 40),
       st.binary(min_size=1600, max_size=1600))
def test_blur_equals_stacked_windows_on_any_shape(kind, h, w, pixels):
    img = np.frombuffer(pixels[: h * w], dtype=np.uint8).reshape(h, w)
    assert imaging.blur(img, kind).tobytes() == blur_oracle(img, kind).tobytes()


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(1, 8), st.binary(min_size=64, max_size=64),
       st.floats(min_value=0, max_value=1e3, exclude_min=True, allow_nan=False))
def test_median_commutes_with_brightness(h, w, pixels, factor):
    img = np.frombuffer(pixels[: h * w], dtype=np.uint8).reshape(h, w)
    bright_first = imaging.blur(imaging.adjust_brightness(img, factor), "median")
    median_first = imaging.adjust_brightness(imaging.blur(img, "median"), factor)
    assert bright_first.tobytes() == median_first.tobytes()


# SHA-256 of each variant's pixel bytes for sample_image(17, 128, 128), computed
# with the brightness-then-blur loop that variants replaced
GOLDEN_SHA256 = {
    "b0.55__none": "f40d636116a9af7ccaa3808dc53ce7dec7f3d69f4717ef04ce85d476b175f499",
    "b0.55__gaussian": "3c3bf02f0cffeae0c6618503776b55d3662169048857fff27b2bf09947640cc1",
    "b0.55__average": "bf2f14aeac0368d07b1e0d0509c3de310028fce8ee41f327ae72419a75c7cf5e",
    "b0.55__median": "b5aa0fb15b83d30256889be3da46244056de35b210a688143d586ec38e7c012a",
    "b0.70__none": "01b22e30024887e70b9c1de53d1e854a8c47f815e5244f3fdfdd1d2f857f9b64",
    "b0.70__gaussian": "7beb7ffd1057a94e00fa2ccbc6b6f7e11765f220dcc9b9f4f9982d7983fad83a",
    "b0.70__average": "2690d25cfb0a72f7994e8eb73a9bb6210d987b5fbacf3208dfc1f52ca8063dc9",
    "b0.70__median": "124d9eee61a1eb20a9afd36433b1414aa2a9bbaf274463b9cb6487e4c8355ca9",
    "b0.85__none": "130c7a24cff83322a47cffe8b9c5d3250d6aae4f84333b51f86a2491284bf8f7",
    "b0.85__gaussian": "a87f3d753e4bb1e481b1241900da91482e7c880202e220eb9ba05aaaa6de7ac3",
    "b0.85__average": "d87ddd8b9527bc5b911b7fceeefcb54e4ade0eb18d070421ea1ac6edfbfebae8",
    "b0.85__median": "b04a12f05a3b5716507923ee7b87d537fc3d62afde977759808057e8058fc68d",
    "b1.00__none": "ca0dc41161681c9ff960a39eab798299d23997767c4a352048b8188ba4173749",
    "b1.00__gaussian": "cf117e8da1a9b544b7e19a7a711fd906f2e7075fda28dd5b7cacb58a686de96e",
    "b1.00__average": "01bafe81233ef2b585be4bc8772d09bef80b970f5fdb97f54eb252a44b83cd4b",
    "b1.00__median": "ddc8c89523ee132100fe8545fd28a642f46a806d992876de76768ab99d636ba8",
    "b1.15__none": "0ec295da1612613e5dce8e5c423b4ec40331dc97c5ad4919cc1f8bfe4d6ec3b8",
    "b1.15__gaussian": "1173bc85d77e1954ee379910e02ef9090830371f47a0fffdd4b4b6f99dd514f2",
    "b1.15__average": "3631d2d397db935a0f7ea45ec86b5af8d2e18f7d614eb3f9c6304ab96e2a4a17",
    "b1.15__median": "7b9204c34ed710a3fcab45a45998ff902034cc170bb59245ec8934e7f0e04da9",
    "b1.30__none": "cc08b390d1593bdde35c28a26ac232ea162ff016f47c9a78bd2edc6bb792d5a8",
    "b1.30__gaussian": "df74baaa85613f3719bb99e5d4279cd30a2f9d7862f0744ca5e4793ba0898f07",
    "b1.30__average": "b0713fa36c6d6201ec03dd7448ec815f56df79ef568a0dad13fafcbfe8a27aad",
    "b1.30__median": "3c1176b9e5452b314ddef845ce3061b97b2341b5251aa9c78bdf6a55f781ef4a",
    "b1.45__none": "43bac9c143b54c41411949925eeec23d06e2af6a16f50e9d1a2a2b788d4d9781",
    "b1.45__gaussian": "58714598351918760b4d1e02a82b0a4ce81f281905a62a5649cdb66d387555a0",
    "b1.45__average": "04587277f45ca37f042c1aab74444456493eef553fedf228254f8ed9611bb4d2",
    "b1.45__median": "a89f6a196cbe3cb31810787d3725474bb52c3c30f810fa07eb0bee3ab4efdf5c",
}


def test_golden_digests():
    out = augment.variants(sample_image(17, 128, 128), augment.default_spec())
    assert {tag: hashlib.sha256(img.tobytes()).hexdigest() for tag, img in out} == GOLDEN_SHA256
