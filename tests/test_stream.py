import numpy as np
import pytest

from emotionforge import nn, stream
from emotionforge.alignment import align_face
from emotionforge.errors import BadAlphaError, ModelModeMismatchError
from emotionforge.loss import sigmoid, softmax
from helpers import synthetic_face


@pytest.fixture(scope="module")
def model():
    return nn.init_params(seed=21)


@pytest.fixture(scope="module")
def archetypes():
    a = synthetic_face()
    b = synthetic_face(face_gain=110, mouth_y=38, eye_dx=24)
    return a, b


class TestSmooth:
    def test_alpha_one_passthrough(self):
        prev, cur = np.zeros(7), np.arange(7.0)
        assert np.array_equal(stream.smooth(prev, cur, 1.0), cur)

    def test_fixed_point(self):
        v = np.full(7, 0.3)
        assert np.allclose(stream.smooth(v, v, 0.4), v)

    def test_convex_combination(self):
        prev = np.array([1.0, 0, 0, 0, 0, 0, 0])
        cur = np.array([0.0, 1, 0, 0, 0, 0, 0])
        out = stream.smooth(prev, cur, 0.25)
        assert out[0] == pytest.approx(0.75) and out[1] == pytest.approx(0.25)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.01])
    def test_bad_alpha(self, alpha):
        with pytest.raises(BadAlphaError):
            stream.smooth(np.zeros(7), np.zeros(7), alpha)


class TestRunStream:
    def test_constant_frames_reach_fixed_point(self, model, archetypes):
        frame = archetypes[0]
        records = list(stream.run_stream(model, [frame] * 4, alpha=0.3))
        assert len(records) == 4
        for rec in records[1:]:
            assert np.allclose(rec.intensity, records[0].intensity)
            assert rec.emotion == records[0].emotion

    def test_alpha_one_equals_per_frame_inference(self, model, archetypes):
        (img_a, lm_a), (img_b, lm_b) = archetypes
        frames = [(img_a, lm_a), (img_b, lm_b), (img_a, lm_a)]
        records = list(stream.run_stream(model, frames, alpha=1.0))
        for rec, (img, lm) in zip(records, frames):
            x = (align_face(img, lm).image[None, None] / np.float32(255.0)).astype(np.float32)
            expected = softmax(nn.forward(model, x, mode="infer"))[0]
            assert np.array_equal(rec.intensity, expected)
            assert np.array_equal(rec.raw_intensity, expected)

    def test_smoothing_is_contraction(self, model, archetypes):
        frames = [archetypes[i % 2] for i in range(12)]
        recs = list(stream.run_stream(model, frames, alpha=0.2))
        raw = np.stack([r.raw_intensity for r in recs])
        smoothed = np.stack([r.intensity for r in recs])
        raw_ptp = raw.max(axis=0) - raw.min(axis=0)
        smooth_ptp = smoothed.max(axis=0) - smoothed.min(axis=0)
        assert (raw_ptp > 1e-9).all()  # the two archetypes differ in every dim
        assert (smooth_ptp < raw_ptp).all()

    def test_intensities_stay_in_unit_interval(self, model, archetypes):
        frames = [archetypes[i % 2] for i in range(6)]
        for rec in stream.run_stream(model, frames, alpha=0.5):
            assert rec.intensity.min() >= 0.0 and rec.intensity.max() <= 1.0

    def test_skip_record_preserves_count_and_state(self, model, archetypes):
        img, lm = archetypes[0]
        bad_lm = lm.copy()
        bad_lm[36:48] = lm[36]  # coincident eye centers
        frames = [(img, lm), (img, bad_lm), (img, lm)]
        records = list(stream.run_stream(model, frames, alpha=0.3))
        assert len(records) == 3
        assert records[1].emotion is None
        assert records[1].skip_reason == "CoincidentEyesError"
        assert [r.frame_index for r in records] == [0, 1, 2]
        # the skipped frame must not touch the EMA state
        assert np.allclose(records[2].intensity, records[0].intensity)

    def test_exception_in_place_of_frame_is_a_skip(self, model, archetypes):
        a, b = archetypes
        records = list(stream.run_stream(model, [a, FileNotFoundError("x.pgm"), b],
                                         alpha=0.3))
        assert [r.frame_index for r in records] == [0, 1, 2]
        assert records[1].to_line() == "1,skip,FileNotFoundError"
        # smoothed as if the unreadable frame were absent
        without = list(stream.run_stream(model, [a, b], alpha=0.3))
        assert np.array_equal(records[2].intensity, without[1].intensity)

    def test_regression_head_uses_sigmoid(self, archetypes):
        params = nn.init_params(seed=22, mode="regression")
        img, lm = archetypes[0]
        rec = next(iter(stream.run_stream(params, [(img, lm)], alpha=1.0)))
        x = (align_face(img, lm).image[None, None] / np.float32(255.0)).astype(np.float32)
        assert np.array_equal(rec.raw_intensity, sigmoid(nn.forward(params, x)[0]))

    def test_mode_mismatch_raises_eagerly(self, model):
        with pytest.raises(ModelModeMismatchError):
            stream.run_stream(model, [], mode="regression")

    def test_bad_alpha_raises_eagerly(self, model):
        with pytest.raises(BadAlphaError):
            stream.run_stream(model, [], alpha=0.0)


class TestRecordSchema:
    def test_normal_line(self, model, archetypes):
        rec = next(iter(stream.run_stream(model, [archetypes[0]], alpha=1.0)))
        fields = rec.to_line().split(",")
        assert len(fields) == 10
        assert fields[0] == "0"
        assert fields[1] == rec.emotion.label
        assert all(len(f.split(".")[1]) == 4 for f in fields[2:9])
        assert float(fields[9]) == pytest.approx(rec.latency_ms, abs=0.001)

    def test_skip_line(self):
        rec = stream.FrameRecord(frame_index=3, emotion=None, intensity=None,
                                 raw_intensity=None, latency_ms=1.0,
                                 skip_reason="DegenerateFaceError")
        assert rec.to_line() == "3,skip,DegenerateFaceError"
