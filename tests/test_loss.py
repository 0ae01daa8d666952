import math

import numpy as np
import pytest

from emotionforge import loss
from emotionforge.errors import IndexOutOfRangeError, TargetOutOfRangeError
from emotionforge.rng import Prng


def naive_softmax_ce(logits, target):
    """Direct-summation oracle for a single row, float64."""
    e = [math.exp(v) for v in logits]
    return -math.log(e[target] / sum(e))


def naive_sigmoid_ce(z, t):
    """Literal formula oracle for one element, float64."""
    s = 1.0 / (1.0 + math.exp(-z))
    return -(t * math.log(s) + (1 - t) * math.log(1 - s))


def golden_section_min(f, lo, hi, tol=1e-10):
    """Independent 1-D minimizer for the convexity/minimizer checks."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return (a + b) / 2


class TestSoftmaxCe:
    def test_uniform_logits(self):
        lv = loss.softmax_ce(np.zeros((5, 7)), np.array([0, 2, 4, 6, 3]))
        assert lv.value == pytest.approx(math.log(7), abs=1e-9)

    def test_saturated_correct(self):
        logits = np.zeros((1, 7))
        logits[0, 2] = 1000.0
        assert loss.softmax_ce(logits, np.array([2])).value < 1e-6

    def test_single_row_oracle(self):
        logits = np.array([[1.0, 0, 0, 0, 0, 0, 0]])
        lv = loss.softmax_ce(logits, np.array([0]))
        assert lv.value == pytest.approx(naive_softmax_ce(logits[0], 0), abs=1e-12)
        assert lv.value == pytest.approx(math.log(1 + 6 * math.exp(-1)), abs=1e-12)

    def test_shift_invariance(self):
        logits = (Prng(1).normal(21).reshape(3, 7) * 3).astype(np.float32)
        t = np.array([1, 5, 0])
        a = loss.softmax_ce(logits, t).value
        b = loss.softmax_ce(logits + np.float32(100.0), t).value
        assert abs(a - b) < 1e-5

    def test_gradient_matches_fd(self):
        logits = Prng(2).normal(14).reshape(2, 7)
        t = np.array([3, 6])
        lv = loss.softmax_ce(logits, t)
        eps = 1e-5
        for i in range(2):
            for j in range(7):
                keep = logits[i, j]
                logits[i, j] = keep + eps
                up = loss.softmax_ce(logits, t).value
                logits[i, j] = keep - eps
                down = loss.softmax_ce(logits, t).value
                logits[i, j] = keep
                num = (up - down) / (2 * eps)
                ana = lv.dlogits[i, j]
                rel = abs(ana - num) / max(abs(ana) + abs(num), 1e-8)
                assert rel < 1e-4

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRangeError):
            loss.softmax_ce(np.zeros((1, 7)), np.array([7]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_softmax_formula(self, dtype):
        # the formula from before the exponentials were shared: log-sum-exp
        # from one exp(z), the gradient from softmax(logits)
        logits = (Prng(3).normal(64 * 7).reshape(64, 7) * 4).astype(dtype)
        t = np.array([i % 7 for i in range(64)])
        n = logits.shape[0]
        z = logits - logits.max(axis=1, keepdims=True)
        value = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(n), t]))
        dlogits = loss.softmax(logits)
        dlogits[np.arange(n), t] -= 1
        dlogits = dlogits / n
        lv = loss.softmax_ce(logits, t)
        assert lv.value == value
        assert lv.dlogits.dtype == dlogits.dtype
        assert lv.dlogits.tobytes() == dlogits.tobytes()


class TestSigmoidCe:
    def test_symmetric_point(self):
        lv = loss.sigmoid_ce(np.zeros((1, 7)), np.full((1, 7), 0.5))
        assert lv.value == pytest.approx(math.log(2), abs=1e-12)

    def test_saturation(self):
        lv = loss.sigmoid_ce(np.full((1, 7), 1000.0), np.ones((1, 7)))
        assert lv.value < 1e-6

    def test_scalar_oracle(self):
        lv = loss.sigmoid_ce(np.full((1, 7), 1.0), np.full((1, 7), 0.2))
        assert lv.value == pytest.approx(naive_sigmoid_ce(1.0, 0.2), abs=1e-12)
        assert lv.value == pytest.approx(1 - 0.2 + math.log1p(math.exp(-1)), abs=1e-12)

    def test_stable_at_extreme_logits(self):
        lv = loss.sigmoid_ce(np.array([[-800.0, 800.0, 0, 0, 0, 0, 0]]),
                             np.array([[0.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5]]))
        assert np.isfinite(lv.value) and np.isfinite(lv.dlogits).all()

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    def test_minimizer_is_logit(self, t):
        def f(z):
            return loss.sigmoid_ce(np.full((1, 7), z), np.full((1, 7), t)).value

        zstar = golden_section_min(f, -6.0, 6.0)
        assert zstar == pytest.approx(math.log(t / (1 - t)), abs=1e-6)
        # equivalently: sigmoid at the minimizer recovers the target
        assert 1 / (1 + math.exp(-zstar)) == pytest.approx(t, abs=1e-6)

    def test_gradient_matches_fd(self):
        logits = Prng(3).normal(14).reshape(2, 7)
        targets = Prng(4).uniform(14).reshape(2, 7)
        lv = loss.sigmoid_ce(logits, targets)
        eps = 1e-5
        for i in range(2):
            for j in range(7):
                keep = logits[i, j]
                logits[i, j] = keep + eps
                up = loss.sigmoid_ce(logits, targets).value
                logits[i, j] = keep - eps
                down = loss.sigmoid_ce(logits, targets).value
                logits[i, j] = keep
                num = (up - down) / (2 * eps)
                ana = lv.dlogits[i, j]
                rel = abs(ana - num) / max(abs(ana) + abs(num), 1e-8)
                assert rel < 1e-4

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRangeError):
            loss.sigmoid_ce(np.zeros((1, 7)), np.full((1, 7), 1.5))
        with pytest.raises(TargetOutOfRangeError):
            loss.sigmoid_ce(np.zeros((1, 7)), np.zeros((2, 7)))
