"""Sequential per-frame inference with temporal smoothing.

Low-intensity expressions make raw per-frame predictions flicker; an
exponential moving average over the per-class intensities suppresses that
while staying inside [0, 1] by convexity. alpha = 1 disables smoothing, which
makes the stream output identical to independent per-frame inference — the
parity tests rely on that.

Record text schema (one line per frame, comma-separated):

    <frame_index>,<class_name>,<v0>,...,<v6>,<latency_ms>    intensities %.4f
    <frame_index>,skip,<reason>                              unreadable or unalignable

latency_ms covers the whole per-frame step (alignment + inference +
smoothing), unlike evaluate.latency_report which times inference alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .alignment import align_face
from .dataset import EmotionClass, _scale_pixels
from .errors import BadAlphaError, EmotionForgeError
from .evaluate import regression_to_class
from .loss import sigmoid, softmax
from .nn import ModelParams, forward


@dataclass
class FrameRecord:
    frame_index: int
    emotion: EmotionClass | None          # None on skipped frames
    intensity: np.ndarray | None          # (7,) smoothed
    raw_intensity: np.ndarray | None      # (7,) pre-smoothing
    latency_ms: float
    skip_reason: str | None = None

    def to_line(self) -> str:
        if self.emotion is None:
            return f"{self.frame_index},skip,{self.skip_reason}"
        vals = ",".join(f"{v:.4f}" for v in self.intensity)
        return f"{self.frame_index},{self.emotion.label},{vals},{self.latency_ms:.3f}"


def smooth(prev: np.ndarray, current: np.ndarray, alpha: float) -> np.ndarray:
    """Componentwise EMA: alpha*current + (1-alpha)*prev."""
    if not 0.0 < alpha <= 1.0:
        raise BadAlphaError(f"alpha {alpha} outside (0, 1]")
    return alpha * np.asarray(current) + (1.0 - alpha) * np.asarray(prev)


def run_stream(params: ModelParams, frame_source, alpha: float = 0.3,
               mode: str | None = None):
    """Yield one FrameRecord per (image, landmarks) pair, in order.

    Per frame: align, infer, map logits to per-class intensities (softmax for
    a classification head, per-dimension sigmoid for a regression head),
    smooth, then classify the smoothed vector. Frames whose alignment fails
    yield a skip record and leave the smoothing state untouched, and so does
    an exception given in place of a pair (a frame that could not be read).
    """
    if not 0.0 < alpha <= 1.0:
        raise BadAlphaError(f"alpha {alpha} outside (0, 1]")
    return _stream_records(params, frame_source, alpha, params.resolve_mode(mode))


def _stream_records(params, frame_source, alpha, mode):
    state: np.ndarray | None = None
    for frame_index, frame in enumerate(frame_source):
        begin = time.perf_counter()
        skip = frame if isinstance(frame, Exception) else None
        try:
            aligned = None if skip else align_face(*frame)
        except EmotionForgeError as exc:
            skip = exc
        if skip:
            yield FrameRecord(frame_index=frame_index, emotion=None, intensity=None,
                              raw_intensity=None,
                              latency_ms=(time.perf_counter() - begin) * 1000.0,
                              skip_reason=type(skip).__name__)
            continue
        x = _scale_pixels(aligned.image[None, None, :, :])
        logits = forward(params, x, mode="infer")[0]
        raw = softmax(logits[None, :])[0] if mode == "classification" else sigmoid(logits)
        state = raw if state is None else smooth(state, raw, alpha)
        yield FrameRecord(frame_index=frame_index,
                          emotion=EmotionClass(int(regression_to_class(state))),
                          intensity=state.copy(), raw_intensity=raw.copy(),
                          latency_ms=(time.perf_counter() - begin) * 1000.0)
