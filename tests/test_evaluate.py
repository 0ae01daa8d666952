import numpy as np
import pytest

from emotionforge import evaluate, nn
from emotionforge.dataset import EmotionClass, intensity_label
from emotionforge.errors import IndexOutOfRangeError, LengthMismatchError, ShapeMismatchError
from emotionforge.rng import Prng


class TestConfusion:
    def test_perfect_predictor(self):
        labels = np.array([0, 1, 2, 3, 4, 5, 6, 3, 3])
        cm = evaluate.confusion(labels, labels)
        assert cm.accuracy == 1.0
        assert np.array_equal(np.diag(cm.counts), np.bincount(labels, minlength=7))

    def test_hand_count(self):
        cm = evaluate.confusion(np.array([0, 1, 1]), np.array([0, 0, 1]))
        assert cm.counts[0, 0] == 1 and cm.counts[0, 1] == 1 and cm.counts[1, 1] == 1
        assert cm.accuracy == pytest.approx(2 / 3)

    def test_row_sums_are_class_counts(self):
        rng = Prng(6)
        labels = (rng.uniform(500) * 7).astype(int)
        preds = (rng.uniform(500) * 7).astype(int)
        cm = evaluate.confusion(preds, labels)
        assert np.array_equal(cm.counts.sum(axis=1), np.bincount(labels, minlength=7))
        assert cm.counts.sum() == 500

    def test_uniform_random_accuracy_near_one_seventh(self):
        rng = Prng(7)
        n = 70_000
        labels = (rng.uniform(n) * 7).astype(int)
        preds = (rng.uniform(n) * 7).astype(int)
        cm = evaluate.confusion(preds, labels)
        assert abs(cm.accuracy - 1 / 7) < 0.01

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluate.confusion(np.array([0, 1]), np.array([0]))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            evaluate.confusion(np.array([7]), np.array([0]))


class TestRmse:
    def test_zero_when_equal(self):
        x = Prng(8).uniform(14).reshape(2, 7)
        assert evaluate.rmse(x, x) == 0.0

    def test_uniform_offset(self):
        x = np.zeros((3, 7))
        assert evaluate.rmse(x + 0.1, x) == pytest.approx(0.1, abs=1e-12)

    def test_hand_case(self):
        preds = np.zeros((1, 7))
        targets = -np.array([[0.1, -0.2, 0, 0, 0, 0, 0.2]])
        assert evaluate.rmse(preds, targets) == pytest.approx(np.sqrt(0.09 / 7), abs=1e-9)

    def test_symmetric(self):
        a = Prng(9).uniform(14).reshape(2, 7)
        b = Prng(10).uniform(14).reshape(2, 7)
        assert evaluate.rmse(a, b) == evaluate.rmse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evaluate.rmse(np.zeros((2, 7)), np.zeros((3, 7)))


class TestRegressionToClass:
    def test_argmax(self):
        v = np.array([0.1, 0.05, 0.02, 0.9, 0.3, 0.1, 0.2])
        assert evaluate.regression_to_class(v) == EmotionClass.HAPPY

    def test_tie_breaks_to_lowest_index(self):
        assert evaluate.regression_to_class(np.full(7, 0.5)) == EmotionClass.ANGRY

    def test_intensity_label_recovers_class(self):
        v = intensity_label(EmotionClass.SAD, 0.8)
        assert evaluate.regression_to_class(v) == EmotionClass.SAD

    def test_invariant_under_monotone_transform(self):
        rng = Prng(11)
        batch = rng.uniform(35).reshape(5, 7)
        base = evaluate.regression_to_class(batch)
        assert np.array_equal(base, evaluate.regression_to_class(3 * batch + 2))
        assert np.array_equal(base, evaluate.regression_to_class(np.exp(batch)))


class TestLatency:
    def test_total_and_per_image(self):
        p = nn.init_params(seed=0, input_hw=16)
        x = Prng(12).uniform(12 * 16 * 16).reshape(12, 1, 16, 16).astype(np.float32)
        total, per = evaluate.latency_report(p, x)
        assert total > 0
        assert per == pytest.approx(total / 12)

    def test_repeat_runs_in_sanity_band(self):
        p = nn.init_params(seed=0, input_hw=16)
        x = Prng(13).uniform(16 * 16 * 16).reshape(16, 1, 16, 16).astype(np.float32)
        evaluate.latency_report(p, x)  # warm caches
        _, a = evaluate.latency_report(p, x)
        _, b = evaluate.latency_report(p, x)
        assert max(a, b) / min(a, b) < 3.0


class TestFormat:
    def test_confusion_table_text(self):
        cm = evaluate.confusion(np.array([0, 3, 3]), np.array([0, 3, 4]))
        text = evaluate.format_confusion(cm)
        lines = text.splitlines()
        assert len(lines) == 8
        assert "angry" in lines[0] and lines[1].lstrip().startswith("angry")
