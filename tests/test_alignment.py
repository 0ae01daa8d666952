import math

import numpy as np
import pytest

from emotionforge import alignment, imaging
from emotionforge.errors import (
    CoincidentEyesError,
    DegenerateFaceError,
    EmptyCropError,
    MalformedLandmarksError,
)
from helpers import synthetic_face


def rotate_both(img, lm, degrees, center=None):
    if center is None:
        center = (img.shape[1] / 2, img.shape[0] / 2)
    a = math.radians(degrees)
    return imaging.warp_rotate(img, a, center), alignment.rotate_points(lm, a, center)


def align_face_full_frame(img, lm):
    """The align_face of before the crop window, kept as a bit-exact oracle:
    rotate the whole frame, then slice the crop out of it."""
    le, re = alignment.eye_centers(lm)
    angle = alignment.rotation_from_eyes(le, re)
    mid = (le + re) / 2.0
    rotated = imaging.warp_rotate(img, -angle, (mid[0], mid[1]))
    rect = alignment.crop_bounds(alignment.rotate_points(lm, -angle, mid), mid)
    x0, y0, x1, y1 = clamped_window(img, rect)
    if x1 < x0 or y1 < y0:
        raise EmptyCropError(f"crop {rect} lies outside the image")
    patch = rotated[y0 : y1 + 1, x0 : x1 + 1]
    return alignment.AlignedFace(image=imaging.resize_bilinear(patch, 128, 128),
                                 rotation_applied=-angle, crop=rect)


def clamped_window(img, rect):
    """The crop rounded outward to whole pixels, clamped to the frame (inclusive)."""
    h, w = img.shape
    return (max(math.floor(rect.left), 0), max(math.floor(rect.top), 0),
            min(math.ceil(rect.right), w - 1), min(math.ceil(rect.bottom), h - 1))


def oracle_frames():
    """Off-centre faces rotated -30 to +30 degrees, half of them with uint8
    noise, plus faces whose crop is clamped at each frame edge."""
    rng = np.random.default_rng(17)
    frames = []
    for deg in range(-30, 31, 5):
        img, lm = synthetic_face(cx=130 + rng.uniform(-25, 25), cy=140 + rng.uniform(-25, 25))
        center = (rng.uniform(100, 160), rng.uniform(110, 170))
        img, lm = rotate_both(img, lm, deg, center)
        if deg % 10:
            noise = rng.integers(-30, 31, img.shape)
            img = np.clip(img.astype(int) + noise, 0, 255).astype(np.uint8)
        frames.append((img, lm))
    for cx, cy, deg in [(40, 140, 12), (220, 140, -9), (130, 60, 20), (130, 230, -25)]:
        frames.append(rotate_both(*synthetic_face(cx=cx, cy=cy), deg, (cx, cy)))
    return frames


def interior_mad(a, b, margin=4):
    sl = slice(margin, -margin)
    return np.abs(a[sl, sl].astype(int) - b[sl, sl].astype(int)).mean()


class TestEyeCenters:
    def test_mean_of_identical_points(self):
        lm = np.zeros((68, 2))
        lm[36:42] = (10, 20)
        left, _ = alignment.eye_centers(lm)
        assert left.tolist() == [10, 20]

    def test_mean_arithmetic(self):
        lm = np.zeros((68, 2))
        lm[42:48] = [(30, 0), (32, 0), (34, 0), (30, 2), (32, 2), (34, 2)]
        _, right = alignment.eye_centers(lm)
        assert right.tolist() == [32, 1]

    def test_mirrored_set_swaps_and_mirrors(self):
        _, lm = synthetic_face()
        w = 260
        mirrored = lm.copy()
        mirrored[:, 0] = (w - 1) - mirrored[:, 0]
        le, re = alignment.eye_centers(lm)
        mle, mre = alignment.eye_centers(mirrored)
        # each slot's center mirrors in place, so the left/right roles swap
        assert np.allclose(mle, [(w - 1) - le[0], le[1]])
        assert np.allclose(mre, [(w - 1) - re[0], re[1]])
        assert le[0] < re[0] and mle[0] > mre[0]


class TestRotationFromEyes:
    def test_horizontal(self):
        assert alignment.rotation_from_eyes((0, 0), (10, 0)) == 0.0

    def test_diagonal(self):
        assert alignment.rotation_from_eyes((0, 0), (10, 10)) == pytest.approx(math.pi / 4)

    def test_defining_property_levels_eyes(self):
        le, re = np.array([3.0, 7.0]), np.array([11.0, 2.5])
        angle = alignment.rotation_from_eyes(le, re)
        mid = (le + re) / 2
        out = alignment.rotate_points(np.stack([le, re]), -angle, mid)
        assert abs(out[0, 1] - out[1, 1]) < 1e-9

    def test_coincident(self):
        with pytest.raises(CoincidentEyesError):
            alignment.rotation_from_eyes((5, 5), (5, 5))


class TestCropBounds:
    def test_one_third_rule(self):
        lm = np.zeros((68, 2))
        lm[0], lm[16], lm[8] = (0, 0), (50, 0), (25, 120)
        rect = alignment.crop_bounds(lm, (25, 60))
        assert rect.top == 30
        assert (60 - rect.top) * 3 == rect.bottom - rect.top

    def test_worked_example(self):
        lm = np.zeros((68, 2))
        lm[0], lm[16], lm[8] = (100, 250), (300, 260), (200, 320)
        rect = alignment.crop_bounds(lm, (200, 200))
        assert (rect.left, rect.top, rect.right, rect.bottom) == (100, 140, 300, 320)

    def test_one_third_identity_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            eye_y = rng.uniform(10, 200)
            bottom = eye_y + rng.uniform(1, 300)
            lm = np.zeros((68, 2))
            lm[0], lm[16], lm[8] = (0, 0), (100, 0), (50, bottom)
            rect = alignment.crop_bounds(lm, (50, eye_y))
            assert (eye_y - rect.top) * 3 == pytest.approx(rect.bottom - rect.top, abs=1e-9)

    def test_degenerate_zero_height(self):
        lm = np.zeros((68, 2))
        lm[0], lm[16], lm[8] = (0, 0), (50, 0), (25, 50)
        with pytest.raises(DegenerateFaceError):
            alignment.crop_bounds(lm, (25, 50))

    def test_mirrored_jaw_swaps(self):
        lm = np.zeros((68, 2))
        lm[0], lm[16], lm[8] = (300, 0), (100, 0), (200, 320)
        rect = alignment.crop_bounds(lm, (200, 200))
        assert rect.left == 100 and rect.right == 300


class TestAlignFace:
    def test_output_always_128(self):
        img, lm = synthetic_face()
        for deg in (0, -20, 25):
            rimg, rlm = rotate_both(img, lm, deg)
            out = alignment.align_face(rimg, rlm)
            assert out.image.shape == (128, 128)

    def test_full_image_crop_equals_resize(self):
        # horizontal eyes; landmarks chosen so the crop covers the whole image
        h, w = 90, 60
        img = (np.outer(np.arange(h), np.ones(w)) * 2 + 30).astype(np.uint8)
        eye_y = (h - 1) / 3
        lm = np.zeros((68, 2))
        lm[36:42] = (18, eye_y)
        lm[42:48] = (42, eye_y)
        lm[0], lm[16], lm[8] = (0, eye_y + 10), (w - 1, eye_y + 10), (30, h - 1)
        out = alignment.align_face(img, lm)
        assert (out.image == imaging.resize_bilinear(img, 128, 128)).all()

    def test_eye_horizontality_in_output_frame(self):
        img, lm = synthetic_face()
        rimg, rlm = rotate_both(img, lm, -23)
        out = alignment.align_face(rimg, rlm)
        le, re = alignment.eye_centers(rlm)
        angle = alignment.rotation_from_eyes(le, re)
        mid = (le + re) / 2
        eyes = alignment.rotate_points(np.stack([le, re]), -angle, mid)
        crop_h = math.ceil(out.crop.bottom) - math.floor(out.crop.top) + 1
        dy_out = abs(eyes[0, 1] - eyes[1, 1]) * 128 / crop_h
        assert dy_out <= 0.5

    def test_rotation_invariance(self):
        img, lm = synthetic_face()
        base = alignment.align_face(img, lm)
        for deg in (-30, 17, 30):
            rimg, rlm = rotate_both(img, lm, deg)
            out = alignment.align_face(rimg, rlm)
            assert interior_mad(out.image, base.image) <= 3.0

    def test_realign_rotated_about_eye_midpoint(self):
        img, lm = synthetic_face()
        base = alignment.align_face(img, lm)
        le, re = alignment.eye_centers(lm)
        mid = (le + re) / 2
        rimg, rlm = rotate_both(img, lm, 17, (mid[0], mid[1]))
        out = alignment.align_face(rimg, rlm)
        assert interior_mad(out.image, base.image) <= 3.0

    def test_scale_invariance(self):
        img, lm = synthetic_face()
        base = alignment.align_face(img, lm)
        big = imaging.resize_bilinear(img, img.shape[1] * 2, img.shape[0] * 2)
        out = alignment.align_face(big, lm * 2)
        assert interior_mad(out.image, base.image) <= 3.0

    def test_empty_crop(self):
        img, lm = synthetic_face()
        with pytest.raises(EmptyCropError):
            alignment.align_face(img, lm - [1000.0, 0.0])  # face far left of frame


class TestAlignFaceCropWindow:
    def test_bytes_equal_full_frame_oracle(self):
        clamped = 0
        for img, lm in oracle_frames():
            out = alignment.align_face(img, lm)
            ref = align_face_full_frame(img, lm)
            assert out.image.tobytes() == ref.image.tobytes()
            assert out.crop == ref.crop and out.rotation_applied == ref.rotation_applied
            r, (h, w) = out.crop, img.shape
            clamped += r.left < 0 or r.top < 0 or r.right > w - 1 or r.bottom > h - 1
        assert clamped >= 4  # the edge faces really are clamped

    def test_warps_no_more_than_the_crop(self, monkeypatch):
        shapes = []
        warp = alignment.warp_rotate

        def record(*args, **kwargs):
            out = warp(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(alignment, "warp_rotate", record)
        for img, lm in oracle_frames():
            shapes.clear()
            out = alignment.align_face(img, lm)
            x0, y0, x1, y1 = clamped_window(img, out.crop)
            assert shapes == [(y1 - y0 + 1, x1 - x0 + 1)]
            assert shapes[0][0] * shapes[0][1] < img.size

    @pytest.mark.parametrize("error", [DegenerateFaceError, EmptyCropError])
    def test_bad_crop_fails_before_warping(self, monkeypatch, error):
        img, lm = synthetic_face()
        if error is DegenerateFaceError:
            lm = lm.copy()
            lm[8, 1] = lm[36:48, 1].mean() - 5  # chin above the eye line
        else:
            lm = lm - [1000.0, 0.0]  # face far left of the frame
        with pytest.raises(error):
            align_face_full_frame(img, lm)

        def refuse(*args, **kwargs):
            raise AssertionError("warp_rotate called for a frame with no crop")

        monkeypatch.setattr(alignment, "warp_rotate", refuse)
        with pytest.raises(error):
            alignment.align_face(img, lm)


class TestSidecars:
    def test_roundtrip(self, tmp_path):
        _, lm = synthetic_face()
        path = tmp_path / "face.lm68"
        alignment.write_landmarks(path, lm)
        assert np.allclose(alignment.read_landmarks(path), lm)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.lm68"
        path.write_text("1.0 2.0\n" * 10)
        with pytest.raises(ValueError):
            alignment.read_landmarks(path)

    def test_sidecar_path(self):
        assert alignment.sidecar_path("/data/img01.pgm") == "/data/img01.lm68"
        assert alignment.sidecar_path("clip.tar.pgm") == "clip.tar.lm68"
        assert alignment.sidecar_path("/a.b/noext") == "/a.b/noext.lm68"


class TestMalformedSidecars:
    GOOD = b"1.0 2.0\n"

    @pytest.mark.parametrize("content", [
        b"1.0 2.0 3.0\n" + GOOD * 67,
        b"1.0 abc\n" + GOOD * 67,
        b"1.0 \xff\xfe\n" + GOOD * 67,
        GOOD * 67,
        b"1.0 inf\n" + GOOD * 67,
    ], ids=["three_tokens", "non_float", "non_utf8", "67_lines", "non_finite"])
    def test_typed_error(self, tmp_path, content):
        path = tmp_path / "bad.lm68"
        path.write_bytes(content)
        with pytest.raises(MalformedLandmarksError):
            alignment.read_landmarks(path)
