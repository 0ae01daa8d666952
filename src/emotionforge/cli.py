"""Command-line interface: one executable, one subcommand per pipeline stage.

    align    rotate/crop/rescale raw images to 128x128 aligned faces
    augment  write the 28 brightness/blur variants of each aligned face
    train    train a model from a manifest, write model + loss history
    eval     confusion matrix, accuracy, and RMSE for a model on a manifest
    infer    single-image prediction record
    stream   per-frame records for a frame directory or stdin manifest

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
EMOTION_FORGE_THREADS caps BLAS parallelism (set before numpy loads).
"""

from __future__ import annotations

import os
import sys


def _cap_threads() -> None:
    cap = os.environ.get("EMOTION_FORGE_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

import argparse
import glob
import time

import numpy as np

from . import augment as aug
from . import dataset, evaluate, stream, train
from .alignment import align_face, read_landmarks, sidecar_path
from .errors import EmotionForgeError, MissingSidecarError
from .imaging import load_pgm, save_pgm
from .loss import sigmoid

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _pgm_files(in_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(in_dir, "*.pgm")))


def cmd_align(args) -> int:
    ok = 0
    begin = time.perf_counter()
    for path in _pgm_files(args.in_dir):
        name = os.path.basename(path)
        try:
            aligned = align_face(*_load_frame(path))
            save_pgm(os.path.join(args.out, name), aligned.image)
            ok += 1
        except (EmotionForgeError, ValueError, OSError) as exc:
            _log(f"align: skipping {name}: {exc}")
    if ok:
        elapsed = time.perf_counter() - begin
        _log(f"align: {elapsed:.4g}s total, {elapsed / ok:.4g} s/image")
    print(f"aligned {ok} images")
    return EXIT_OK if ok > 0 else EXIT_DATA


def cmd_augment(args) -> int:
    spec = aug.default_spec()
    files = _pgm_files(args.in_dir)
    written = 0
    stem_tags: dict[str, list[str]] = {}
    for path in files:
        stem = os.path.splitext(os.path.basename(path))[0]
        tags = []
        for tag, img in aug.variants(load_pgm(path), spec):
            save_pgm(os.path.join(args.out, f"{stem}__{tag}.pgm"), img)
            tags.append(tag)
            written += 1
        stem_tags[stem] = tags
    if args.manifest:
        _replicate_manifest(args.manifest, args.manifest_out, args.out, stem_tags)
    print(f"wrote {written} variants from {len(files)} images")
    return EXIT_OK if written > 0 else EXIT_DATA


def _replicate_manifest(manifest_in, manifest_out, out_dir, stem_tags) -> None:
    """One output manifest line per variant, labels carried over unchanged."""
    with open(manifest_in) as src, open(manifest_out, "w") as dst:
        for raw in src:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            stem = os.path.splitext(os.path.basename(fields[0]))[0]
            rest = ",".join(fields[1:])
            for tag in stem_tags.get(stem, []):
                dst.write(f"{os.path.join(out_dir, f'{stem}__{tag}.pgm')},{rest}\n")


def cmd_train(args) -> int:
    config = train.TrainConfig(learning_rate=args.lr, momentum=args.momentum,
                               batch_size=args.batch_size, max_iterations=args.iterations,
                               seed=args.seed, checkpoint_every=args.checkpoint_every,
                               mode=args.mode)
    train_set = dataset.load_manifest(args.manifest, args.mode)
    val_set = dataset.load_manifest(args.val_manifest, args.mode)
    ckpt, history = train.train_loop(config, train_set, val_set)
    for rec in history.val_records:
        _log(f"train: iteration {rec.iteration}: "
             f"val loss {rec.loss:.4f} accuracy {rec.accuracy:.4f}")
    train.save_model(ckpt.params, args.out)
    if args.history:
        with open(args.history, "w") as f:
            for i, lv in enumerate(history.train_loss, start=1):
                f.write(f"{i},{lv}\n")
    last_val = history.val_records[-1]
    print(f"trained {config.max_iterations} iterations; "
          f"final val loss {last_val.loss:.4f} accuracy {last_val.accuracy:.4f}; "
          f"model -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params = train.load_model(args.model)
    mode = params.resolve_mode(args.mode)
    samples = dataset.load_manifest(args.manifest, mode)

    logits, labels, targets, timed = [], [], [], []
    for batch, batch_logits, batch_labels in train._predict_batches(params, samples, mode):
        logits.append(batch_logits)
        labels.append(batch_labels)
        targets.append(batch.intensity_targets)
        if sum(map(len, timed)) < 256:
            timed.append(batch.inputs)
    logits = np.concatenate(logits)
    cm = evaluate.confusion(logits.argmax(axis=1), np.concatenate(labels))
    print(evaluate.format_confusion(cm))
    print(f"accuracy: {cm.accuracy:.4f}")
    if mode == "regression":
        print(f"rmse: {evaluate.rmse(sigmoid(logits), np.concatenate(targets)):.4f}")
    # informational single-image inference timing over the first 256 decoded
    # inputs; alignment cost excluded
    timed = np.concatenate(timed)[:256]
    total, per_image = evaluate.latency_report(params, timed)
    print(f"latency: {per_image:.4g} s/image over {timed.shape[0]} images")
    return EXIT_OK


def _stream_paths(source: str) -> list[str]:
    if source == "-":
        return [line.strip() for line in sys.stdin if line.strip()]
    return _pgm_files(source)


def _load_frame(path: str):
    lm_path = sidecar_path(path)
    if not os.path.exists(lm_path):
        raise MissingSidecarError(f"no {os.path.basename(lm_path)}")
    return load_pgm(path), read_landmarks(lm_path)


def cmd_stream(args) -> int:
    params = train.load_model(args.model)
    paths = _stream_paths(args.source)
    count = 0
    fed_index = []  # original frame number of each pair handed to the stream

    def frames():
        nonlocal count
        for i, path in enumerate(paths):
            try:
                pair = _load_frame(path)
            except (EmotionForgeError, OSError, ValueError) as exc:
                # unreadable frames still produce one record, like alignment
                # failures inside the stream, so counts stay frame-aligned
                print(f"{i},skip,{type(exc).__name__}")
                count += 1
                continue
            fed_index.append(i)
            yield pair

    for record in stream.run_stream(params, frames(), alpha=args.alpha, mode=args.mode):
        record.frame_index = fed_index[record.frame_index]
        print(record.to_line())
        count += 1
    return EXIT_OK if count > 0 else EXIT_DATA


def cmd_infer(args) -> int:
    params = train.load_model(args.model)
    if args.landmarks:
        source = [(load_pgm(args.image), read_landmarks(args.landmarks))]
    else:
        source = [_load_frame(args.image)]
    for record in stream.run_stream(params, source, alpha=1.0, mode=args.mode):
        print(record.to_line())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="emotionforge",
                     description="Facial emotion recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="align faces to 128x128 using .lm68 sidecars")
    p.add_argument("in_dir")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("augment", help="write 28 brightness/blur variants per image")
    p.add_argument("in_dir")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--manifest", help="input manifest to replicate")
    p.add_argument("--manifest-out", help="where to write the replicated manifest")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("manifest")
    p.add_argument("--val-manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", help="per-iteration loss log to write")
    p.add_argument("--mode", choices=("classification", "regression"),
                   default="classification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--iterations", type=int, default=50_000)
    p.add_argument("--checkpoint-every", type=int, default=1000)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="confusion matrix / accuracy / RMSE")
    p.add_argument("manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("classification", "regression"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="single-image prediction")
    p.add_argument("image")
    p.add_argument("--model", required=True)
    p.add_argument("--landmarks", help="defaults to the image's .lm68 sidecar")
    p.add_argument("--mode", choices=("classification", "regression"))
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("stream", help="per-frame records for a directory or stdin list")
    p.add_argument("source", help="frame directory, or - to read paths from stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--mode", choices=("classification", "regression"))
    p.set_defaults(func=cmd_stream)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (EmotionForgeError, OSError, ValueError) as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
