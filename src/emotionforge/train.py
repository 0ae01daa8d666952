"""SGD training loop, model serialization, and the gradient-check utility.

Training is deterministic: given (seed, config, data) every parameter bit at
every iteration is reproducible, and resuming from a checkpoint at iteration
k and running to n produces the same bits as an uninterrupted run to n. This
works because all randomness is derived statelessly — the epoch-e shuffle
from lane (1, e) and the iteration-i dropout mask from lane (2, i) of the
pinned generator — so nothing hidden carries across iterations.

Model file format (little-endian), magic ``EMO1``:

    "EMO1" | u32 version | u8 mode (0 classification, 1 regression)
    | u32 layer count
    | per layer: u8 kind (0 conv, 1 relu, 2 maxpool, 3 flatten, 4 fc, 5 dropout),
      conv: u32 in_ch, out_ch, kh, kw, stride, pad; fc: u32 in_dim, out_dim
    | all weight tensors, then all bias tensors, raw float32 in declaration order
    | u32 CRC-32 of everything between the magic and this trailer
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import loss as losses
from .dataset import MODES, Batch, Sample, _epoch_chunks, load_batch_inputs
from .errors import (
    BadMagicError,
    ChecksumMismatchError,
    EmptyDatasetError,
    ModelIoError,
    NonFiniteActivationError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
)
from .nn import (
    CONV, DROPOUT, FC, FLATTEN, MAXPOOL, RELU,
    LayerSpec, ModelParams, backward, forward, forward_frozen, init_params,
)
from .rng import Prng

_LR_DECAY = 0.1          # multiplicative, applied every _LR_DECAY_EVERY iterations
_LR_DECAY_EVERY = 20_000


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    max_iterations: int = 50_000
    seed: int = 0
    checkpoint_every: int = 1000
    mode: str = "classification"   # one of dataset.MODES

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.max_iterations < 1 or self.checkpoint_every < 1:
            raise ValueError("batch_size, max_iterations, checkpoint_every must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"bad mode {self.mode!r}")


@dataclass
class ValRecord:
    iteration: int
    loss: float
    accuracy: float


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)   # one entry per iteration
    val_records: list[ValRecord] = field(default_factory=list)


@dataclass
class Checkpoint:
    iteration: int
    params: ModelParams
    velocities: list[np.ndarray]
    config: TrainConfig
    history: TrainHistory


def sgd_step(tensors: list[np.ndarray], velocities: list[np.ndarray],
             grads: list[np.ndarray], lr: float, momentum: float):
    """Classic momentum, in place: v <- momentum*v - lr*g; p <- p + v."""
    if not (len(tensors) == len(velocities) == len(grads)):
        raise ShapeMismatchError("tensor/velocity/grad list lengths differ")
    for p, v, g in zip(tensors, velocities, grads):
        if p.shape != v.shape or p.shape != g.shape:
            raise ShapeMismatchError(f"shape mismatch {p.shape} / {v.shape} / {g.shape}")
        v *= momentum
        v -= (lr * g).astype(p.dtype, copy=False)
        p += v
    return tensors, velocities


def _batch_loss(batch: Batch, mode: str, logits: np.ndarray):
    if mode == "classification":
        return losses.softmax_ce(logits, batch.class_targets)
    return losses.sigmoid_ce(logits, batch.intensity_targets)


def _predict_batches(params: ModelParams, samples: list[Sample], mode: str,
                     batch_size: int = 64):
    """(batch, logits, class labels) per batch of ``samples``, in manifest order.

    A label is the class target, or in regression mode the argmax of the
    intensity target. Each sample is decoded once.
    """
    if not samples:
        raise EmptyDatasetError("empty evaluation set")
    for start in range(0, len(samples), batch_size):
        batch = load_batch_inputs(samples[start : start + batch_size])
        logits = forward(params, batch.inputs, mode="infer")
        yield batch, logits, (batch.class_targets if mode == "classification"
                              else batch.intensity_targets.argmax(axis=1))


def evaluate_dataset(params: ModelParams, samples: list[Sample], mode: str,
                     batch_size: int = 64) -> ValRecord:
    """Mean loss and accuracy over a sample list, in manifest order.

    Regression accuracy compares the argmax of the predicted intensities with
    the argmax of the target vector.
    """
    total_loss = 0.0
    correct = 0
    for batch, logits, labels in _predict_batches(params, samples, mode, batch_size):
        total_loss += _batch_loss(batch, mode, logits).value * logits.shape[0]
        correct += int((logits.argmax(axis=1) == labels).sum())
    return ValRecord(iteration=0, loss=total_loss / len(samples),
                     accuracy=correct / len(samples))


def train_loop(config: TrainConfig, train_set: list[Sample], val_set: list[Sample],
               resume_from: Checkpoint | None = None,
               params: ModelParams | None = None) -> tuple[Checkpoint, TrainHistory]:
    """Run SGD for config.max_iterations, validating every checkpoint_every.

    Batch order matches dataset.batches: epoch e uses the permutation from
    generator lane (seed, 1, e), consumed batch_size indices at a time.
    """
    if not train_set:
        raise EmptyDatasetError("empty training set")
    if not val_set:
        raise EmptyDatasetError("empty validation set")

    if resume_from is not None:
        params = resume_from.params.copy()
        velocities = [v.copy() for v in resume_from.velocities]
        history = TrainHistory(list(resume_from.history.train_loss),
                               list(resume_from.history.val_records))
        start = resume_from.iteration
    else:
        if params is None:
            params = init_params(config.seed, mode=config.mode)
        velocities = [np.zeros_like(t) for t in params.weights + params.biases]
        history = TrainHistory()
        start = 0

    bpe = math.ceil(len(train_set) / config.batch_size)
    for it in range(start, config.max_iterations):
        epoch, slot = divmod(it, bpe)
        # one permutation per epoch; a resume may start mid-epoch
        if slot == 0 or it == start:
            chunks = _epoch_chunks(train_set, config.batch_size, config.seed, epoch)
        batch = load_batch_inputs(chunks[slot])

        try:
            logits, caches = forward(params, batch.inputs, mode="train",
                                     rng=Prng.derive(config.seed, 2, it))
        except NonFiniteActivationError as exc:
            raise NonFiniteLossError(f"diverged at iteration {it + 1}: {exc}") from exc
        lv = _batch_loss(batch, config.mode, logits)
        if not np.isfinite(lv.value):
            raise NonFiniteLossError(f"loss {lv.value} at iteration {it + 1}")
        dweights, dbiases = backward(params, caches, lv.dlogits)

        lr = config.learning_rate * _LR_DECAY ** (it // _LR_DECAY_EVERY)
        sgd_step(params.weights + params.biases, velocities, dweights + dbiases,
                 lr, config.momentum)
        history.train_loss.append(lv.value)

        done = it + 1
        if done % config.checkpoint_every == 0 or done == config.max_iterations:
            rec = evaluate_dataset(params, val_set, config.mode, config.batch_size)
            rec.iteration = done
            history.val_records.append(rec)

    ckpt = Checkpoint(iteration=config.max_iterations, params=params,
                      velocities=velocities, config=config, history=history)
    return ckpt, history


# --- model files -----------------------------------------------------------------

_MAGIC = b"EMO1"
_VERSION = 1
_HEADER = struct.Struct("<IBI")  # version, mode byte, layer count
_KIND_TO_BYTE = {CONV: 0, RELU: 1, MAXPOOL: 2, FLATTEN: 3, FC: 4, DROPOUT: 5}
_BYTE_TO_KIND = {v: k for k, v in _KIND_TO_BYTE.items()}
# the u32 descriptor fields that follow a layer's kind byte, in file order
_DESCRIPTOR_FIELDS = {CONV: ("in_ch", "out_ch", "kh", "kw", "stride", "pad"),
                      FC: ("in_dim", "out_dim")}


def save_model(params: ModelParams, path) -> None:
    payload = bytearray(_HEADER.pack(_VERSION, MODES.index(params.mode), len(params.layers)))
    for spec in params.layers:
        fields = _DESCRIPTOR_FIELDS.get(spec.kind, ())
        payload += struct.pack(f"<B{len(fields)}I", _KIND_TO_BYTE[spec.kind],
                               *(getattr(spec, name) for name in fields))
    for w in params.weights:
        payload += np.ascontiguousarray(w, dtype="<f4").tobytes()
    for b in params.biases:
        payload += np.ascontiguousarray(b, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def load_model(path) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != _MAGIC:
        raise BadMagicError(f"{path}: not an EMO1 model file")
    if len(blob) < 4 + _HEADER.size + 4:
        raise ModelIoError(f"{path}: truncated header")
    payload, trailer = blob[4:-4], blob[-4:]
    if zlib.crc32(payload) != struct.unpack("<I", trailer)[0]:
        raise ChecksumMismatchError(f"{path}: CRC-32 mismatch")
    version, mode_byte, layer_count = _HEADER.unpack_from(payload)
    if version != _VERSION:
        raise VersionMismatchError(f"{path}: format version {version}, expected {_VERSION}")
    if mode_byte >= len(MODES):
        raise ModelIoError(f"{path}: bad mode byte {mode_byte}")

    off = _HEADER.size
    layers: list[LayerSpec] = []
    try:
        for _ in range(layer_count):
            kind = _BYTE_TO_KIND.get(payload[off])
            if kind is None:
                raise ModelIoError(f"{path}: unknown layer kind byte {payload[off]}")
            fields = _DESCRIPTOR_FIELDS.get(kind, ())
            values = struct.unpack_from(f"<{len(fields)}I", payload, off + 1)
            off += 1 + 4 * len(fields)
            layers.append(LayerSpec(kind, **dict(zip(fields, values))))
    except (struct.error, IndexError):
        raise ModelIoError(f"{path}: truncated layer table") from None

    # element counts as Python ints, so a huge descriptor cannot wrap around
    shapes = [spec.weight_shape for spec in layers if spec.parametric]
    shapes += [shape[:1] for shape in shapes]
    ends = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    if 4 * ends[-1] != len(payload) - off:
        raise ModelIoError(f"{path}: {len(payload) - off} bytes of tensor data, "
                           f"layer table needs {4 * ends[-1]}")
    flat = np.frombuffer(payload, dtype="<f4", offset=off).astype(np.float32)
    tensors = [t.reshape(shape) for t, shape in zip(np.split(flat, ends[1:-1]), shapes)]
    return ModelParams(layers=layers, weights=tensors[:len(shapes) // 2],
                       biases=tensors[len(shapes) // 2:], mode=MODES[mode_byte])


# --- gradient checking --------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_error: float
    worst_tensor: str
    worst_coord: tuple
    analytic: float
    numeric: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _relative_error(a: float, n: float) -> float:
    denom = abs(a) + abs(n)
    if denom < 1e-8:   # both effectively zero: absolute error
        return abs(a - n)
    return abs(a - n) / denom


def gradient_check(params: ModelParams, batch: Batch, mode: str,
                   eps: float = 1e-3, coords_per_tensor: int = 200,
                   seed: int = 0, tolerance: float = 1e-3,
                   freeze_routing: bool = True) -> GradCheckReport:
    """Analytic gradients vs central finite differences, in float64.

    Dropout is disabled (no rng supplied to forward), so the loss surface the
    oracle probes is exactly the one backward differentiates. Coordinates are
    subsampled per tensor with generator lane (seed, 3).

    With ``freeze_routing`` (the default) the finite differences probe the
    fixed activation-pattern loss — ReLU masks and pool argmax held at the
    base point via nn.forward_frozen. That is the piecewise-linear branch
    whose exact gradient backward computes; probing the raw kinked loss with
    a step as large as 1e-3 routinely crosses ReLU boundaries and reports
    spurious errors orders of magnitude above any real bug. Set it False
    (with a much smaller eps) to probe the raw loss instead.
    """
    p64 = params.astype(np.float64)
    x = batch.inputs.astype(np.float64)

    logits, caches = forward(p64, x, mode="train", rng=None)
    lv = _batch_loss(batch, mode, logits)
    dweights, dbiases = backward(p64, caches, lv.dlogits)

    def loss_value() -> float:
        if freeze_routing:
            lg = forward_frozen(p64, x, caches)
        else:
            lg = forward(p64, x, mode="infer")
        return _batch_loss(batch, mode, lg).value

    rng = Prng.derive(seed, 3)
    report = GradCheckReport(0.0, "", (), 0.0, 0.0, tolerance)
    names = [f"w{i}" for i in range(len(p64.weights))] + \
            [f"b{i}" for i in range(len(p64.biases))]
    tensors = p64.weights + p64.biases
    grads = dweights + dbiases
    for name, tensor, grad in zip(names, tensors, grads):
        flat = tensor.reshape(-1)
        for ci in rng.choice(flat.size, coords_per_tensor):
            ci = int(ci)
            keep = flat[ci]
            flat[ci] = keep + eps
            up = loss_value()
            flat[ci] = keep - eps
            down = loss_value()
            flat[ci] = keep
            numeric = (up - down) / (2 * eps)
            analytic = float(grad.reshape(-1)[ci])
            err = _relative_error(analytic, numeric)
            if err > report.max_error:
                coord = tuple(int(v) for v in np.unravel_index(ci, tensor.shape))
                report.max_error = err
                report.worst_tensor = name
                report.worst_coord = coord
                report.analytic = analytic
                report.numeric = numeric
    return report
