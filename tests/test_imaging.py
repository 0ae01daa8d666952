import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emotionforge import imaging
from emotionforge.errors import (
    MalformedHeaderError,
    NonPositiveFactorError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    ZeroDimensionError,
)
from emotionforge.rng import Prng
from helpers import decode_outcome


def to_grayscale(r: int, g: int, b: int) -> int:
    """Scalar BT.601 luma of one RGB triple: the oracle for rgb_to_grayscale."""
    y = 0.299 * r + 0.587 * g + 0.114 * b
    return int(min(max(math.floor(y + 0.5), 0), 255))


def random_image(rng, h, w):
    return (rng.uniform(h * w).reshape(h, w) * 256).astype(np.uint8)


def header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens, skipping '#' comment
    lines, and the offset just past the final separator: a byte-at-a-time
    tokenizer, the oracle for read_pgm's header grammar."""
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        if i == start:
            raise MalformedHeaderError("unexpected end of header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise MalformedHeaderError("missing separator after maxval")
    return tokens, i + 1  # exactly one whitespace byte ends the header


def read_pgm_by_tokens(data: bytes) -> np.ndarray:
    """read_pgm on top of ``header_tokens``, with the same field checks."""
    tokens, payload_at = header_tokens(data, 4)
    if tokens[0] != b"P5":
        raise MalformedHeaderError(f"bad magic {tokens[0]!r}")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise MalformedHeaderError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"maxval {maxval}, only 255 supported")
    need = width * height
    payload = data[payload_at : payload_at + need]
    if len(payload) < need:
        raise TruncatedPayloadError(f"payload {len(payload)} bytes, need {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


# header pieces that exercise each rule of the grammar: every whitespace byte,
# comments, fields glued to '#', signs, underscores, bad magic and maxval
PGM_PIECES = [b"P5", b"P5", b"P2", b"P55", b"2", b"3", b"1", b"0", b"-2", b"+2", b"1_0",
              b"255", b"255", b"+255", b"256", b"x", b" ", b" ", b"\t", b"\n", b"\n",
              b"\r", b"\x0b", b"\x0c", b"#", b"# note", b"\x00", b"\xff", b"\x85"]
# one drawn byte picks one piece: a byte string is much cheaper to draw than a list
pgm_headers = st.one_of(
    st.binary(max_size=20).map(lambda picks: b"".join(PGM_PIECES[i % len(PGM_PIECES)]
                                                      for i in picks)),
    st.binary(max_size=32))


class TestPgm:
    def test_decode_basic(self):
        img = imaging.read_pgm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert img.tolist() == [[0, 64], [128, 255]]

    def test_decode_newline_separators_and_comments(self):
        data = b"P5\n# a comment line\n2 1\n# another\n255\n" + bytes([7, 9])
        assert imaging.read_pgm(data).tolist() == [[7, 9]]

    def test_wrong_magic(self):
        with pytest.raises(MalformedHeaderError):
            imaging.read_pgm(b"P6 2 2 255 " + bytes(12))

    def test_non_numeric_field(self):
        with pytest.raises(MalformedHeaderError):
            imaging.read_pgm(b"P5 two 2 255 " + bytes(4))

    def test_bad_maxval(self):
        with pytest.raises(UnsupportedMaxvalError):
            imaging.read_pgm(b"P5 2 2 65535 " + bytes(8))

    def test_truncated(self):
        with pytest.raises(TruncatedPayloadError):
            imaging.read_pgm(b"P5 4 4 255 " + bytes(10))

    def test_write_canonical(self):
        assert imaging.write_pgm(np.array([[42]], dtype=np.uint8)) == b"P5\n1 1\n255\n*"

    def test_roundtrip_random(self):
        rng = Prng(100)
        for h, w in [(1, 1), (3, 7), (16, 5), (40, 33)]:
            img = random_image(rng, h, w)
            back = imaging.read_pgm(imaging.write_pgm(img))
            assert (back == img).all() and back.shape == img.shape

    def test_comment_glued_to_a_field_does_not_end_the_header(self):
        # the comment runs to the end of the data, so there is no maxval field;
        # a comment that backtracked would leave "5" as a maxval
        with pytest.raises(MalformedHeaderError):
            imaging.read_pgm(b"P5 2 2#255 " + bytes(4))
        data = b"P5 2 2#255 \n255 " + bytes(4)
        assert imaging.read_pgm(data).shape == (2, 2)

    def test_long_adversarial_headers_are_rejected(self):
        for data in (b" " * 200_000, b"#" * 200_000, b"P5 " + b"1" * 200_000,
                     b"# \n" * 70_000, b"P5 2 2 255#" * 20_000):
            with pytest.raises(MalformedHeaderError):
                imaging.read_pgm(data)

    def test_aligned_face_payload_size(self):
        img = np.zeros((128, 128), dtype=np.uint8)
        data = imaging.write_pgm(img)
        header = b"P5\n128 128\n255\n"
        assert data.startswith(header)
        assert len(data) - len(header) == 16384


class TestPgmHeaderGrammar:
    """read_pgm gives the bytes or the error class of the tokenizer oracle,
    and never raises an untyped error."""

    @settings(max_examples=450)
    @given(pgm_headers, st.binary(max_size=12))
    @example(b"P5 2 2#255 ", bytes(4))
    @example(b"P5\n# c\n2 2\n255\n", bytes(4))
    def test_agrees_with_tokenizer_on_every_cut_and_edit(self, header, payload):
        data = header + payload
        variants = [data[:end] for end in range(len(data) + 1)]  # every truncation
        for i in range(len(data)):  # delete each byte, or make it a separator or '#'
            variants += [data[:i] + edit + data[i + 1:] for edit in (b"", b" ", b"#")]
        for variant in variants:
            assert (decode_outcome(imaging.read_pgm, variant)
                    == decode_outcome(read_pgm_by_tokens, variant)), variant


class TestGrayscale:
    def test_white_and_black(self):
        assert to_grayscale(255, 255, 255) == 255
        assert to_grayscale(0, 0, 0) == 0

    def test_pure_red(self):
        # hand oracle: floor(0.299*255 + 0.5) = floor(76.745) = 76
        assert to_grayscale(255, 0, 0) == 76

    def test_array_matches_scalar(self):
        rgb = np.array([[[10, 200, 30], [255, 0, 0]]], dtype=np.uint8)
        out = imaging.rgb_to_grayscale(rgb)
        assert out[0, 0] == to_grayscale(10, 200, 30)
        assert out[0, 1] == 76


class TestResize:
    def test_identity(self):
        img = random_image(Prng(1), 9, 13)
        assert (imaging.resize_bilinear(img, 13, 9) == img).all()

    def test_constant(self):
        img = np.full((5, 4), 77, dtype=np.uint8)
        assert (imaging.resize_bilinear(img, 11, 3) == 77).all()

    def test_row_upsample_oracle(self):
        # s = (d + 0.5) * 0.5 - 0.5 for d = 0..3 gives -0.25, 0.25, 0.75, 1.25
        out = imaging.resize_bilinear(np.array([[0, 200]], dtype=np.uint8), 4, 1)
        assert out.tolist() == [[0, 50, 150, 200]]

    def test_matches_bruteforce_reference(self):
        rng = Prng(3)
        for (h, w), (out_w, out_h) in [((41, 37), (23, 29)), ((20, 30), (64, 48)),
                                       ((1, 7), (5, 3)), ((9, 1), (1, 9)), ((177, 142), (128, 128))]:
            img = random_image(rng, h, w)
            assert (imaging.resize_bilinear(img, out_w, out_h).tobytes()
                    == reference_resize(img, out_w, out_h).tobytes())

    def test_output_dims(self):
        img = random_image(Prng(2), 30, 20)
        assert imaging.resize_bilinear(img, 128, 128).shape == (128, 128)
        assert imaging.resize_bilinear(img, 7, 3).shape == (3, 7)

    def test_zero_dimension(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ZeroDimensionError):
            imaging.resize_bilinear(img, 0, 4)


class TestBrightness:
    def test_identity(self):
        img = random_image(Prng(3), 6, 6)
        assert (imaging.adjust_brightness(img, 1.0) == img).all()

    def test_scale_and_clamp(self):
        img = np.array([[100, 200]], dtype=np.uint8)
        assert imaging.adjust_brightness(img, 1.45).tolist() == [[145, 255]]

    def test_monotone_per_pixel(self):
        img = random_image(Prng(4), 8, 8)
        for factor in (0.55, 0.85, 1.3):
            out = imaging.adjust_brightness(img, factor)
            order = np.argsort(img.ravel())
            assert (np.diff(out.ravel()[order].astype(int)) >= 0).all()

    def test_nonpositive_factor(self):
        with pytest.raises(NonPositiveFactorError):
            imaging.adjust_brightness(np.zeros((2, 2), dtype=np.uint8), 0.0)


def reference_resize(img, out_w, out_h):
    """Brute-force per-pixel resize used as the oracle for resize_bilinear."""
    h, w = img.shape
    out = np.zeros((out_h, out_w), dtype=np.uint8)

    def taps(d, n, scale):
        s = min(max((d + 0.5) * scale - 0.5, 0.0), n - 1.0)
        i0 = int(math.floor(s))
        return i0, min(i0 + 1, n - 1), s - i0

    for y in range(out_h):
        y0, y1, fy = taps(y, h, h / out_h)
        for x in range(out_w):
            x0, x1, fx = taps(x, w, w / out_w)
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[y, x] = min(max(int(math.floor(top * (1 - fy) + bot * fy + 0.5)), 0), 255)
    return out


def reference_warp(img, angle, center):
    """Brute-force per-pixel warp used as the oracle for warp_rotate."""
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.uint8)
    ca, sa = math.cos(-angle), math.sin(-angle)
    for y in range(h):
        for x in range(w):
            dx, dy = x - center[0], y - center[1]
            sx = center[0] + ca * dx - sa * dy
            sy = center[1] + sa * dx + ca * dy
            if not (-1e-9 <= sx <= w - 1 + 1e-9 and -1e-9 <= sy <= h - 1 + 1e-9):
                continue
            sx = min(max(sx, 0.0), w - 1.0)
            sy = min(max(sy, 0.0), h - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = sx - x0, sy - y0
            v = (img[y0, x0] * (1 - fx) * (1 - fy) + img[y0, x1] * fx * (1 - fy)
                 + img[y1, x0] * (1 - fx) * fy + img[y1, x1] * fx * fy)
            out[y, x] = min(max(int(math.floor(v + 0.5)), 0), 255)
    return out


class TestWarpRotate:
    def test_zero_angle_identity(self):
        img = random_image(Prng(5), 12, 10)
        assert (imaging.warp_rotate(img, 0.0, (4.2, 6.1)) == img).all()

    def test_matches_bruteforce_reference(self):
        img = random_image(Prng(6), 14, 14)
        for angle in (0.3, -1.1, 2.5):
            fast = imaging.warp_rotate(img, angle, (6.5, 6.5))
            slow = reference_warp(img, angle, (6.5, 6.5))
            assert (fast == slow).all()

    def test_half_turn_on_symmetric_pattern(self):
        # pattern symmetric under 180-degree rotation about the image center
        yy, xx = np.mgrid[0:21, 0:21].astype(np.float64)
        img = np.clip(100 + 60 * np.cos((xx - 10) / 3) * np.cos((yy - 10) / 3), 0, 255)
        img = img.astype(np.uint8)
        out = imaging.warp_rotate(img, math.pi, (10.0, 10.0))
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 1

    def test_quarter_turn_composition_interior(self):
        yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
        img = np.clip(90 + 80 * np.sin(xx / 5) * np.cos(yy / 4), 0, 255).astype(np.uint8)
        c = (15.5, 15.5)
        back = imaging.warp_rotate(imaging.warp_rotate(img, math.pi / 2, c), -math.pi / 2, c)
        interior = np.abs(back[2:-2, 2:-2].astype(int) - img[2:-2, 2:-2].astype(int))
        assert interior.max() <= 2

    def test_outside_fill_is_black(self):
        img = np.full((8, 8), 200, dtype=np.uint8)
        out = imaging.warp_rotate(img, math.pi / 4, (3.5, 3.5))
        assert out[0, 0] == 0 and out[-1, -1] == 0


class TestBlur:
    @pytest.mark.parametrize("kind", ["gaussian", "average", "median"])
    def test_constant_unchanged(self, kind):
        img = np.full((7, 9), 123, dtype=np.uint8)
        assert (imaging.blur(img, kind) == 123).all()

    def test_average_impulse(self):
        img = np.zeros((9, 9), dtype=np.uint8)
        img[4, 4] = 255
        out = imaging.blur(img, "average")
        assert (out[2:7, 2:7] == 10).all()  # round(255/25)
        outside = out.copy()
        outside[2:7, 2:7] = 0
        assert outside.max() == 0

    def test_median_impulse_vanishes(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        img[3, 3] = 255
        assert imaging.blur(img, "median").max() == 0

    @pytest.mark.parametrize("kind", ["gaussian", "average", "median"])
    def test_bounded_by_input_range(self, kind):
        img = random_image(Prng(7), 11, 13)
        out = imaging.blur(img, kind)
        assert out.min() >= img.min() and out.max() <= img.max()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            imaging.blur(np.zeros((3, 3), dtype=np.uint8), "box")


class TestWarpWindow:
    """A window is the full-frame warp's slice, bit for bit."""

    def check(self, img, angle, center, window):
        x0, y0, x1, y1 = window
        full = imaging.warp_rotate(img, angle, center)
        part = imaging.warp_rotate(img, angle, center, window=window)
        assert part.dtype == np.uint8
        assert part.shape == (y1 - y0 + 1, x1 - x0 + 1)
        assert part.tobytes() == full[y0 : y1 + 1, x0 : x1 + 1].tobytes()

    def test_random_angles_centres_and_windows(self):
        rng = np.random.default_rng(31)
        img = rng.integers(0, 256, (47, 39)).astype(np.uint8)
        h, w = img.shape
        for _ in range(40):
            angle = rng.uniform(-math.pi, math.pi)
            center = (rng.uniform(-5, w + 5), rng.uniform(-5, h + 5))
            x0, x1 = sorted(rng.integers(0, w, 2))
            y0, y1 = sorted(rng.integers(0, h, 2))
            self.check(img, angle, center, (x0, y0, x1, y1))

    def test_windows_touching_each_border(self):
        img = random_image(Prng(32), 30, 26)
        h, w = img.shape
        for window in [(0, 5, 10, 20), (5, 0, 20, 10), (12, 5, w - 1, 20), (5, 12, 20, h - 1),
                       (0, 0, 3, 3), (w - 4, h - 4, w - 1, h - 1), (0, 0, w - 1, 0)]:
            for angle in (0.4, -0.9, 2.2):
                self.check(img, angle, (12.3, 15.8), window)

    def test_single_pixel_windows(self):
        img = random_image(Prng(33), 20, 18)
        h, w = img.shape
        for x, y in [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1), (9, 7), (4, 15)]:
            for angle in (0.0, 0.5, -2.7):
                self.check(img, angle, (8.5, 9.25), (x, y, x, y))

    def test_full_frame_window_equals_no_window(self):
        img = random_image(Prng(34), 25, 31)
        h, w = img.shape
        for angle in (0.0, 0.7, -1.3, math.pi):
            self.check(img, angle, (14.2, 11.9), (0, 0, w - 1, h - 1))
