"""Training objectives with analytic gradients.

Both losses reduce by mean — over the batch for softmax cross-entropy, over
all N*7 elements for sigmoid cross-entropy — so reported magnitudes are
comparable across batch sizes. Computation follows the input dtype, which
lets the float64 finite-difference oracle reuse the same code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import NUM_CLASSES
from .errors import IndexOutOfRangeError, TargetOutOfRangeError


class LossValue(NamedTuple):
    value: float
    dlogits: np.ndarray  # (N, 7), gradient of the mean loss w.r.t. the logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_ce(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean softmax cross-entropy against integer class targets."""
    targets = np.asarray(targets)
    if targets.min() < 0 or targets.max() >= NUM_CLASSES:
        raise IndexOutOfRangeError(f"class index outside 0..{NUM_CLASSES - 1}")
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(total[:, 0]) - z[np.arange(n), targets]))
    dlogits = e / total  # softmax(logits), from the same exponentials
    dlogits[np.arange(n), targets] -= 1
    return LossValue(value, dlogits / n)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Evaluated via the stable branchless form exp(-|z|)/(1+exp(-|z|)) pieces.
    out = np.empty_like(z, dtype=np.result_type(z, np.float32))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_ce(logits: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean per-element sigmoid cross-entropy against targets in [0, 1].

    Per element: max(z, 0) - z*t + log(1 + exp(-|z|)), the stable form of
    -[t*log(sigmoid(z)) + (1-t)*log(1-sigmoid(z))].
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape:
        raise TargetOutOfRangeError(f"targets shape {targets.shape} != logits {logits.shape}")
    if targets.min() < 0 or targets.max() > 1:
        raise TargetOutOfRangeError("targets outside [0, 1]")
    z = logits
    elem = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    value = float(elem.mean())
    dlogits = (sigmoid(z) - targets) / z.size
    return LossValue(value, dlogits)
