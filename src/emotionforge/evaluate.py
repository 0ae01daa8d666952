"""Evaluation: confusion matrices, accuracy, regression RMSE, latency.

Confusion matrix axes are pinned: rows are the true class, columns the
predicted class, both in the fixed class-index order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .dataset import CLASS_NAMES, NUM_CLASSES
from .errors import IndexOutOfRangeError, LengthMismatchError, ShapeMismatchError
from .nn import ModelParams, forward


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (7, 7) int64, [true][predicted]

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


def confusion(preds, labels) -> ConfusionMatrix:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise LengthMismatchError(f"{preds.shape} predictions vs {labels.shape} labels")
    both = np.concatenate([preds, labels])
    if both.min() < 0 or both.max() >= NUM_CLASSES:
        raise IndexOutOfRangeError("class index outside 0..6")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return ConfusionMatrix(counts)


def rmse(preds: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error over all samples and all 7 dimensions."""
    if preds.shape != targets.shape:
        raise ShapeMismatchError(f"{preds.shape} vs {targets.shape}")
    diff = preds.astype(np.float64) - targets.astype(np.float64)
    return float(np.sqrt(np.mean(diff ** 2)))


def regression_to_class(intensities: np.ndarray) -> np.ndarray:
    """Argmax over the 7 dimensions; ties go to the lowest class index."""
    return np.asarray(intensities).argmax(axis=-1)


def latency_report(params: ModelParams, inputs: np.ndarray) -> tuple[float, float]:
    """(total seconds, seconds per image) for single-image inference.

    ``inputs`` is a stack of aligned faces shaped (N, 1, 128, 128); alignment
    cost is deliberately excluded. Informational only.
    """
    start = time.perf_counter()
    for i in range(inputs.shape[0]):
        forward(params, inputs[i : i + 1], mode="infer")
    total = time.perf_counter() - start
    return total, total / inputs.shape[0]


def format_confusion(cm: ConfusionMatrix) -> str:
    """Text table: rows true class, columns predicted class."""
    width = max(max(len(n) for n in CLASS_NAMES), len(str(cm.counts.max()))) + 2
    header = " " * width + "".join(n.rjust(width) for n in CLASS_NAMES)
    lines = [header]
    for i, name in enumerate(CLASS_NAMES):
        row = name.rjust(width) + "".join(str(int(v)).rjust(width) for v in cm.counts[i])
        lines.append(row)
    return "\n".join(lines)
