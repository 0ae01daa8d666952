"""Command-line interface: one executable, one subcommand per pipeline stage.

    align    rotate/crop/rescale raw images to 128x128 aligned faces
    augment  write the 28 brightness/blur variants of each aligned face
    train    train a model from a manifest, write model + loss history
    eval     confusion matrix, accuracy, and RMSE for a model on a manifest
    infer    single-image prediction record
    stream   per-frame records for a frame directory or stdin manifest

align and augment save each image's files on one writer thread while the
next image is computed; skips, counts and exit codes are a sequential loop's.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
EMOTION_FORGE_THREADS=N caps BLAS parallelism at N (set before numpy loads).
"""

from __future__ import annotations

import os
import sys


def _positive_int(text: str | None) -> int | None:
    return int(text) if text and text.isdecimal() and int(text) > 0 else None


def _cap_threads() -> None:
    """Lower each BLAS/OpenMP thread variable to EMOTION_FORGE_THREADS when
    that is a positive integer; a variable already set lower is kept."""
    cap = _positive_int(os.environ.get("EMOTION_FORGE_THREADS"))
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(min(_positive_int(os.environ.get(var)) or cap, cap))


_cap_threads()

import argparse
import glob
import threading
import time

import numpy as np

from . import augment as aug
from . import dataset, evaluate, stream, train
from .alignment import align_face, read_landmarks, sidecar_path
from .dataset import MODES
from .errors import EmotionForgeError, MissingSidecarError
from .imaging import atomic_write, load_pgm, save_pgm
from .loss import sigmoid

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3
# what bad input raises: exit 2 for a whole command, a skip for one frame
_DATA_ERRORS = (EmotionForgeError, OSError, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _pgm_files(in_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(glob.escape(in_dir), "*.pgm")))


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _writer(jobs, results) -> None:
    """The writer thread: for each ``(paths, images)`` job taken from ``jobs``
    until a None, save ``images[i]`` to ``paths[i]`` in order, then put on
    ``results`` None or what a save raised."""
    for paths, images in iter(jobs.get, None):
        try:
            for path, img in zip(paths, images):
                save_pgm(path, img)
            results.put(None)
        except BaseException as exc:  # the main thread logs or raises it
            results.put(exc)


def _each_image(cmd: str, in_dir: str, work) -> dict[str, list[str]]:
    """Run ``work(path, name)`` on each PGM in ``in_dir`` and save the images
    it returns to the paths it returns with them, ``(paths, images)``; return
    each image's saved paths by input name. An image whose work or saves raise
    a data error is skipped.

    One writer thread saves each image while the next is worked on. Results
    settle in input order, and an input named like an in-flight save waits for
    it, so skips, counts, the time log and in-place runs are a sequential
    loop's. The thread is joined before returning, also on an exception.
    """
    import queue  # here, not at module load, which every command pays for

    begin = time.perf_counter()
    saved: dict[str, list[str]] = {}
    block = np.empty(0, np.uint8)
    in_flight = None  # (name, out paths) of the image being saved

    def settle():
        nonlocal in_flight
        if in_flight:
            (name, paths), in_flight = in_flight, None
            exc = results.get()
            if exc is None:
                saved[name] = paths
            elif isinstance(exc, _DATA_ERRORS):
                _log(f"{cmd}: skipping {name}: {exc}")
            else:
                raise exc

    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()
    writer = threading.Thread(target=_writer, args=(jobs, results))
    writer.start()
    try:
        for path in _pgm_files(in_dir):
            name = os.path.basename(path)
            if in_flight and name in map(os.path.basename, in_flight[1]):
                settle()
            try:
                paths, imgs = work(path, name)
            except _DATA_ERRORS as exc:
                settle()
                _log(f"{cmd}: skipping {name}: {exc}")
                continue
            settle()
            # the writer gets copies in one block, reused once it is settled, and
            # work's own arrays are dropped: arrays held while the next image is
            # computed would split the heap and raise peak RSS
            shape = (len(imgs),) + imgs[0].shape
            if block.shape != shape:
                block = np.empty(shape, np.uint8)
            jobs.put((paths, np.stack(imgs, out=block)))
            in_flight, imgs = (name, paths), None
        settle()
    finally:
        jobs.put(None)
        writer.join()
    if saved:
        elapsed = time.perf_counter() - begin
        _log(f"{cmd}: {elapsed:.4g}s total, {elapsed / len(saved):.4g} s/image")
    return saved


def cmd_align(args) -> int:
    def align_one(path, name):
        return [os.path.join(args.out, name)], [align_face(*_load_frame(path)).image]

    ok = len(_each_image("align", args.in_dir, align_one))
    print(f"aligned {ok} images")
    return EXIT_OK if ok > 0 else EXIT_DATA


def cmd_augment(args) -> int:
    if bool(args.manifest) != bool(args.manifest_out):
        raise _UsageError("--manifest and --manifest-out go together")
    # read before any variant is written, so a bad manifest fails first
    rows = list(dataset.manifest_rows(args.manifest)) if args.manifest else []
    spec = aug.default_spec()

    def augment_one(path, name):
        tags, imgs = zip(*aug.variants(load_pgm(path), spec))
        return [os.path.join(args.out, f"{_stem(name)}__{tag}.pgm") for tag in tags], imgs

    saved = _each_image("augment", args.in_dir, augment_one)
    if args.manifest:
        _replicate_manifest(rows, args.manifest_out, saved)
    print(f"wrote {sum(map(len, saved.values()))} variants from {len(saved)} images")
    return EXIT_OK if saved else EXIT_DATA


def _replicate_manifest(rows, manifest_out, saved) -> None:
    """One output manifest line per variant of each ``dataset.manifest_rows``
    row whose stem names an image in ``saved``, labels carried over unchanged;
    the path is relative to the output manifest, as ``dataset.load_manifest``
    reads it."""
    variant_paths = {_stem(name): paths for name, paths in saved.items()}
    base = os.path.dirname(os.path.abspath(manifest_out))
    with atomic_write(manifest_out) as dst:
        for _, fields in rows:
            for path in variant_paths.get(_stem(fields[0]), []):
                line = ",".join([os.path.relpath(path, base)] + fields[1:]) + "\n"
                dst.write(line.encode("utf-8"))


def cmd_train(args) -> int:
    # args holds only the hyperparameter flags given (see build_parser)
    try:
        config = train.TrainConfig(**{k: v for k, v in vars(args).items()
                                      if k in train.TrainConfig.__dataclass_fields__})
    except ValueError as exc:  # a flag value TrainConfig rejects
        raise _UsageError(str(exc)) from None
    train_set = dataset.load_manifest(args.manifest, config.mode)
    val_set = dataset.load_manifest(args.val_manifest, config.mode)
    ckpt, history = train.train_loop(config, train_set, val_set)
    for rec in history.val_records:
        _log(f"train: iteration {rec.iteration}: "
             f"val loss {rec.loss:.4f} accuracy {rec.accuracy:.4f}")
    train.save_model(ckpt.params, args.out)
    if args.history:
        with atomic_write(args.history) as f:
            for i, lv in enumerate(history.train_loss, start=1):
                f.write(f"{i},{lv}\n".encode())
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


def _stream_frames(source: str):
    """Each frame's (image, landmarks), or the data error reading it raised, so records
    stay frame-aligned; ``-`` takes the paths from stdin, each as its line arrives."""
    paths = (line.strip() for line in sys.stdin) if source == "-" else _pgm_files(source)
    for path in filter(None, paths):
        try:
            frame = _load_frame(path)
        except _DATA_ERRORS as exc:
            frame = exc
        yield frame


def _load_frame(path: str, lm_path: str | None = None):
    """The image and its landmarks, from the sidecar unless ``lm_path`` is given."""
    if not lm_path:
        lm_path = sidecar_path(path)
        if not os.path.exists(lm_path):
            raise MissingSidecarError(f"no {os.path.basename(lm_path)}")
    return load_pgm(path), read_landmarks(lm_path)


def cmd_stream(args) -> int:
    params = train.load_model(args.model)
    frames = _stream_frames(args.source)
    given = {"alpha": args.alpha} if "alpha" in args else {}
    count = 0
    for record in stream.run_stream(params, frames, mode=args.mode, **given):
        print(record.to_line(), flush=True)
        count += 1
    return EXIT_OK if count > 0 else EXIT_DATA


def cmd_infer(args) -> int:
    params = train.load_model(args.model)
    source = [_load_frame(args.image, args.landmarks)]
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

    # hyperparameter flags set TrainConfig fields; one left out keeps TrainConfig's default
    p = sub.add_parser("train", help="train a model from a manifest",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("manifest")
    p.add_argument("--val-manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", default=None, help="per-iteration loss log to write")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--iterations", dest="max_iterations", metavar="ITERATIONS", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="confusion matrix / accuracy / RMSE")
    p.add_argument("manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=MODES)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="single-image prediction")
    p.add_argument("image")
    p.add_argument("--model", required=True)
    p.add_argument("--landmarks", help="defaults to the image's .lm68 sidecar")
    p.add_argument("--mode", choices=MODES)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("stream", help="per-frame records for a directory or stdin list")
    p.add_argument("source", help="frame directory, or - to read paths from stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)  # run_stream's default
    p.add_argument("--mode", choices=MODES)
    p.set_defaults(func=cmd_stream)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        _log(f"error: {type(exc).__name__}: {exc}")
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
