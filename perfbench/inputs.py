"""Seeded input generator for the benchmark workloads.

Everything here is derived from the workload seed with numpy's PCG64
generator, so the same seed writes the same bytes. Files are written with
the package's own encoders. The program under test never sees the seed: it
only reads the files written here.

    train corpus   7-class aligned 128x128 PGMs plus train/held-out manifests
    stream frames  260x280 rotated synthetic faces with .lm68 sidecars; a
                   fixed share of them has coincident eyes and cannot align
    prep raw dir   alignable 260x280 faces with sidecars and a label manifest
"""

from __future__ import annotations

import math
import os

import numpy as np

from emotionforge import alignment, imaging, nn, train

CLASS_NAMES = ("angry", "disgust", "fear", "happy", "neutral", "sad", "surprise")

# Grid cell (row, col) of the bright block that identifies each class.
_CLASS_CELLS = ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (0, 1), (2, 1))

FRAME_W, FRAME_H = 260, 280


def _write_manifest(path: str, rows: list[tuple[str, str]]) -> None:
    with open(path, "w") as f:
        f.write("# image,class\n")
        for image, label in rows:
            f.write(f"{image},{label}\n")


def class_pattern(cls: int, rng: np.random.Generator) -> np.ndarray:
    """A 128x128 face stand-in whose class is a bright block in one grid cell.

    Block position, size and brightness jitter per sample, over a noisy
    background, so the classes are separable but no two samples are equal.
    """
    img = 40.0 + rng.uniform(0.0, 60.0, size=(128, 128))
    row, col = _CLASS_CELLS[cls]
    size = int(rng.integers(30, 40))
    y0 = row * 43 + int(rng.integers(0, 43 - size // 2))
    x0 = col * 43 + int(rng.integers(0, 43 - size // 2))
    img[y0 : y0 + size, x0 : x0 + size] += rng.uniform(120.0, 150.0)
    return np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)


def make_train_corpus(out_dir: str, seed: int, per_class_train: int,
                      per_class_heldout: int) -> dict:
    """Aligned 7-class corpus; returns manifest paths and sample counts."""
    rng = np.random.default_rng([seed, 1])
    os.makedirs(out_dir, exist_ok=True)
    train_rows, heldout_rows = [], []
    for cls, name in enumerate(CLASS_NAMES):
        for i in range(per_class_train + per_class_heldout):
            fname = f"{name}_{i:04d}.pgm"
            imaging.save_pgm(os.path.join(out_dir, fname), class_pattern(cls, rng))
            (train_rows if i < per_class_train else heldout_rows).append((fname, name))
    # Interleave classes in manifest order so every held-out batch is mixed.
    train_rows.sort(key=lambda r: (int(r[0][-8:-4]), r[1]))
    heldout_rows.sort(key=lambda r: (int(r[0][-8:-4]), r[1]))
    paths = {}
    for key, rows in (("train", train_rows), ("heldout", heldout_rows),
                      ("val1", heldout_rows[:1])):
        paths[key] = os.path.join(out_dir, f"{key}.csv")
        _write_manifest(paths[key], rows)
    return {"manifests": paths, "n_train": len(train_rows), "n_heldout": len(heldout_rows)}


def face_frame(rng: np.random.Generator, coincident_eyes: bool = False):
    """One 260x280 smooth synthetic face rotated in-plane by up to +/-30 deg.

    Returns (uint8 image, (68, 2) landmarks in image coordinates). With
    ``coincident_eyes`` both eye contours sit on the same points, so the eye
    line has no direction and alignment must refuse the frame.
    """
    cx = FRAME_W / 2 + rng.uniform(-12, 12)
    cy = FRAME_H / 2 + rng.uniform(-12, 12)
    face_w, face_h = rng.uniform(62, 76), rng.uniform(82, 96)
    eye_dx, eye_dy = rng.uniform(24, 31), rng.uniform(22, 28)
    mouth_y, mouth_h = rng.uniform(40, 50), rng.uniform(5, 10)
    gain = rng.uniform(130, 170)
    angle = math.radians(rng.uniform(-30, 30))
    ca, sa = math.cos(angle), math.sin(angle)

    # Render in face coordinates: each pixel is rotated back by -angle.
    yy, xx = np.mgrid[0:FRAME_H, 0:FRAME_W].astype(np.float64)
    u = cx + ca * (xx - cx) + sa * (yy - cy)
    v = cy - sa * (xx - cx) + ca * (yy - cy)
    img = 40 + 30 * (xx / FRAME_W) + 20 * (yy / FRAME_H)
    img += gain * np.exp(-(((u - cx) / face_w) ** 2 + ((v - cy) / face_h) ** 2) * 1.8)
    for ex in (cx - eye_dx, cx + eye_dx):
        img -= 90 * np.exp(-(((u - ex) ** 2 + (v - (cy - eye_dy)) ** 2) / (2 * 9.0 ** 2)))
    img -= 70 * np.exp(-(((u - cx) / 18) ** 2 + ((v - (cy + mouth_y)) / mouth_h) ** 2))
    img = np.clip(np.floor(img + 0.5), 0, 255).astype(np.uint8)

    lm = np.zeros((68, 2))
    for k in range(17):  # jaw arc, chin at point 9
        th = math.pi - k * math.pi / 16
        lm[k] = (cx + face_w * math.cos(th), cy + face_h * math.sin(th))
    for k in range(10):  # brows
        lm[17 + k] = (cx - 45 + 10 * k, cy - 42)
    for k in range(9):   # nose
        lm[27 + k] = (cx - 4 + k, cy - 10 + 2 * k)
    for i, ex in enumerate((cx - eye_dx, cx + eye_dx)):
        if coincident_eyes:
            ex = cx
        for k in range(6):
            a = k * math.pi / 3
            lm[36 + 6 * i + k] = (ex + 7 * math.cos(a), cy - eye_dy + 4 * math.sin(a))
    for k in range(20):  # mouth
        a = k * math.pi / 10
        lm[48 + k] = (cx + 16 * math.cos(a), cy + mouth_y + 6 * math.sin(a))
    rel = lm - (cx, cy)
    lm = np.stack([cx + ca * rel[:, 0] - sa * rel[:, 1],
                   cy + sa * rel[:, 0] + ca * rel[:, 1]], axis=1)
    return img, lm


def make_stream_frames(out_dir: str, seed: int, n_frames: int, planted_share: float) -> dict:
    """Frames ``frame_0000.pgm``... with sidecars; returns the planted indices."""
    rng = np.random.default_rng([seed, 2])
    os.makedirs(out_dir, exist_ok=True)
    n_planted = round(n_frames * planted_share)
    planted = sorted(int(i) for i in rng.choice(n_frames, size=n_planted, replace=False))
    paths = []
    for i in range(n_frames):
        img, lm = face_frame(rng, coincident_eyes=i in planted)
        stem = os.path.join(out_dir, f"frame_{i:04d}")
        imaging.save_pgm(stem + ".pgm", img)
        alignment.write_landmarks(stem + ".lm68", lm)
        paths.append(stem + ".pgm")
    return {"paths": paths, "planted": planted}


def make_prep_raw(out_dir: str, seed: int, n_images: int) -> dict:
    """Raw alignable frames with sidecars and a manifest naming their classes."""
    rng = np.random.default_rng([seed, 3])
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i in range(n_images):
        img, lm = face_frame(rng)
        stem = f"raw_{i:04d}"
        imaging.save_pgm(os.path.join(out_dir, stem + ".pgm"), img)
        alignment.write_landmarks(os.path.join(out_dir, stem + ".lm68"), lm)
        rows.append((stem + ".pgm", CLASS_NAMES[int(rng.integers(0, 7))]))
    manifest = os.path.join(out_dir, "labels.csv")
    _write_manifest(manifest, rows)
    return {"manifest": manifest, "n_images": n_images}


def write_model(path: str, seed: int) -> None:
    """An EMO-NET classification model with He-normal weights from ``seed``.

    Written through the package's own ``save_model`` so the file is a valid
    EMO1 model; the weights come from numpy so that set-up here stays cheap.
    """
    rng = np.random.default_rng([seed, 4])
    layers = nn.emo_net_layers(128)
    weights, biases = [], []
    for spec in layers:
        if spec.kind == nn.CONV:
            shape = (spec.out_ch, spec.in_ch, spec.kh, spec.kw)
        elif spec.kind == nn.FC:
            shape = (spec.out_dim, spec.in_dim)
        else:
            continue
        std = math.sqrt(2.0 / int(np.prod(shape[1:])))
        weights.append((rng.standard_normal(shape) * std).astype(np.float32))
        biases.append((rng.standard_normal(shape[0]) * 0.01).astype(np.float32))
    train.save_model(nn.ModelParams(layers=layers, weights=weights, biases=biases), path)
