"""Shared test fixtures: synthetic faces with landmarks, toy training corpora."""

import errno
import io
import math
import os
import tracemalloc

import numpy as np

from emotionforge import imaging, nn
from emotionforge.errors import EmotionForgeError
from emotionforge.rng import Prng


def decode_outcome(decode, *args):
    """What a decoder makes of its input, in a form ``==`` compares: an array's
    dtype, shape and bytes, another result as it is, or the class of the typed
    error raised. Any other exception propagates and fails the test."""
    try:
        out = decode(*args)
    except EmotionForgeError as exc:
        return type(exc)
    return (out.dtype.str, out.shape, out.tobytes()) if isinstance(out, np.ndarray) else out


def overwrite(path, data: bytes) -> None:
    """Replace an existing file's bytes in place. Reopening with truncation
    costs ~10x more on some filesystems, which adds up over the thousands of
    files a generated-input test writes."""
    with open(path, "r+b") as f:
        f.write(data)
        f.truncate()


def fill_disk_after(monkeypatch, limit: int) -> list:
    """Make every file ``imaging.atomic_write`` opens take ``limit`` bytes and
    then fail as a full disk does. Returns a list that gets, at each failure,
    the sorted names in the file's directory."""
    listings = []

    class FullDisk(io.FileIO):
        def write(self, data):
            room = limit - self.tell()
            if len(data) <= room:
                return super().write(data)
            super().write(data[:room])
            listings.append(sorted(os.listdir(os.path.dirname(self.name))))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.name)

    monkeypatch.setattr(imaging, "open", lambda path, mode: FullDisk(path, "w"), raising=False)
    return listings


def traced_peak(fn) -> int:
    """The most bytes ``fn()`` had allocated at once, by tracemalloc: its
    peak on top of what was live when it was called."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def synthetic_face(w=260, h=280, cx=None, cy=None, face_w=70, face_h=90,
                   eye_dx=28, eye_dy=25, eye_r=9, mouth_y=45, face_gain=150):
    """A smooth synthetic face image plus a consistent 68-point landmark set.

    Smoothness matters: the alignment invariance tests compare warped copies,
    and high-frequency content would inflate interpolation error.
    """
    cx = w / 2 if cx is None else cx
    cy = h / 2 if cy is None else cy
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = 40 + 30 * (xx / w) + 20 * (yy / h)
    img += face_gain * np.exp(-(((xx - cx) / face_w) ** 2 + ((yy - cy) / face_h) ** 2) * 1.8)
    for ex in (cx - eye_dx, cx + eye_dx):
        img -= 90 * np.exp(-(((xx - ex) ** 2 + (yy - (cy - eye_dy)) ** 2) / (2 * eye_r ** 2)))
    img -= 70 * np.exp(-(((xx - cx) / 18) ** 2 + ((yy - (cy + mouth_y)) / 7) ** 2))
    img = np.clip(img, 0, 255).astype(np.uint8)

    lm = np.zeros((68, 2))
    for k in range(17):  # jaw arc: left ear, chin (point 9), right ear
        th = math.pi - k * math.pi / 16
        lm[k] = (cx + face_w * math.cos(th), cy + face_h * math.sin(th))
    for k in range(10):  # brows
        lm[17 + k] = (cx - 45 + 10 * k, cy - 42)
    for k in range(9):   # nose line
        lm[27 + k] = (cx - 4 + k, cy - 10 + 2 * k)
    for i, ex in enumerate((cx - eye_dx, cx + eye_dx)):  # eye contours
        for k in range(6):
            a = k * math.pi / 3
            lm[36 + 6 * i + k] = (ex + 7 * math.cos(a), cy - eye_dy + 4 * math.sin(a))
    for k in range(20):  # mouth ring
        a = k * math.pi / 10
        lm[48 + k] = (cx + 16 * math.cos(a), cy + mouth_y + 6 * math.sin(a))
    return img, lm


def toy_pattern(cls: int, rng: Prng) -> np.ndarray:
    """A linearly separable 128x128 pattern: bright left half vs bright right."""
    img = np.zeros((128, 128))
    if cls == 0:
        img[:, :64] = 160
    else:
        img[:, 64:] = 160
    img += rng.uniform(128 * 128).reshape(128, 128) * 60
    return np.clip(img, 0, 255).astype(np.uint8)


def make_toy_corpus(dirpath, n=200, n_train=160, seed=11,
                    classes=("angry", "happy"), mode="classification"):
    """Write n toy images + train/val manifests; returns their paths."""
    rng = Prng.derive(seed, 40)
    lines = []
    for i in range(n):
        cls = i % 2
        path = os.path.join(str(dirpath), f"toy{i:03d}.pgm")
        imaging.save_pgm(path, toy_pattern(cls, rng))
        if mode == "regression":
            k = (0.2, 0.4, 0.6, 0.8, 1.0)[i % 5]
            lines.append(f"{path},{classes[cls]},{k}")
        else:
            lines.append(f"{path},{classes[cls]}")
    train_manifest = os.path.join(str(dirpath), "train.csv")
    val_manifest = os.path.join(str(dirpath), "val.csv")
    with open(train_manifest, "w") as f:
        f.write("\n".join(lines[:n_train]) + "\n")
    with open(val_manifest, "w") as f:
        f.write("\n".join(lines[n_train:]) + "\n")
    return train_manifest, val_manifest


def separator_model(mode="classification") -> nn.ModelParams:
    """Hand-built weights that classify toy_pattern images perfectly.

    Channel 0 of every conv stage carries a local brightness average (all
    other channels zeroed), fc1 units 0/1 sum the left/right halves of that
    map, and the head votes angry for bright-left, happy for bright-right.
    """
    p = nn.init_params(seed=0, mode=mode)
    for w in p.weights:
        w[:] = 0
    c1, c2, c3, f1, f2 = p.weights
    c1[0, 0] = 1.0 / 25
    c2[0, 0] = 1.0 / 9
    c3[0, 0] = 1.0 / 9
    flat = np.arange(64)           # channel 0 of the 8x8 map in the flattened input
    f1[0, flat[(flat % 8) < 4]] = 1.0   # left half
    f1[1, flat[(flat % 8) >= 4]] = 1.0  # right half
    f2[0, 0], f2[0, 1] = 1.0, -1.0      # angry: left brighter
    f2[3, 0], f2[3, 1] = -1.0, 1.0      # happy: right brighter
    p.biases[4][:] = -5.0
    p.biases[4][0] = 0.0
    p.biases[4][3] = 0.0
    return p


# layer tables that break EMO-NET's conv -> relu -> maxpool rows, with the
# layer each one's error names
UNWALKABLE = {"lone_conv": "layer 0 (conv)", "lone_maxpool": "layer 3 (maxpool)"}


def unwalkable_model(table: str, hw: int) -> nn.ModelParams:
    """A float32 model of 1-channel ``hw`` x ``hw`` inputs whose layer table
    cannot be walked: ``lone_conv`` is conv 1x1 -> flatten -> fc, and
    ``lone_maxpool`` is conv -> relu -> maxpool -> maxpool -> flatten -> fc."""
    spec = nn.LayerSpec
    if table == "lone_conv":
        layers = [spec(nn.CONV, in_ch=1, out_ch=2, kh=1, kw=1, stride=1, pad=0),
                  spec(nn.FLATTEN), spec(nn.FC, in_dim=2 * hw * hw, out_dim=7)]
    else:
        layers = [spec(nn.CONV, in_ch=1, out_ch=2, kh=3, kw=3, stride=1, pad=1),
                  spec(nn.RELU), spec(nn.MAXPOOL), spec(nn.MAXPOOL), spec(nn.FLATTEN),
                  spec(nn.FC, in_dim=2 * (hw // 4) ** 2, out_dim=7)]
    shapes = [s.weight_shape for s in layers if s.parametric]
    rng = Prng(len(layers))
    return nn.ModelParams(
        layers=layers,
        weights=[rng.normal(math.prod(s)).astype(np.float32).reshape(s) for s in shapes],
        biases=[np.zeros(s[0], dtype=np.float32) for s in shapes])
