"""The three benchmark workloads: train, stream and prep.

Each workload writes its inputs from the seed (``prepare``), builds what a
user has in hand before the first timed operation (``setup``), and runs one
fixed unit of work (``job``) that returns its timings, its output
fingerprint and the failures its checks found. ``run.py`` repeats ``job``
for the measured seconds, or, in a traced run, runs it once untraced and
once traced and compares the two fingerprints.

All three are closed loops with one client: the next operation starts when
the previous one has returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
from emotionforge import alignment, augment, cli, dataset, imaging, nn, stream, train

MODE = "classification"


@dataclass
class Sizes:
    train_per_class: int
    heldout_per_class: int
    stream_frames: int
    prep_images: int


SIZES = {
    "full": Sizes(train_per_class=64, heldout_per_class=18, stream_frames=120, prep_images=24),
    "tiny": Sizes(train_per_class=8, heldout_per_class=2, stream_frames=20, prep_images=2),
}


@dataclass
class JobResult:
    ops: int                      # operations attempted in this job
    failed: int                   # operations that failed a check
    seconds: dict                 # timed phase -> wall seconds
    items: dict                   # timed phase -> items processed
    fingerprint: str              # digest of every output the checks cover
    failures: list = field(default_factory=list)
    frame_seconds: list = field(default_factory=list)   # stream only
    steps: int = 0                # training steps taken
    skip_ratio: float = 0.0       # stream only
    info: dict = field(default_factory=dict)   # recorded, never compared across commits


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Workload:
    name = ""
    setup_repeats = 1

    def __init__(self, work_dir: str, seed: int, sizes: Sizes):
        self.work_dir = work_dir
        self.seed = seed
        self.sizes = sizes

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def timed_setup(self):
        """(set-up state, seconds it took)."""
        t0 = time.perf_counter()
        state = self.setup()
        return state, time.perf_counter() - t0

    def job(self, state, tracer=None) -> JobResult:
        raise NotImplementedError

    def end_to_end(self, jobs: list[JobResult]) -> dict:
        """The two rates, plus every figure under this workload's own name."""
        raise NotImplementedError


class TrainWorkload(Workload):
    """Fit the real 128x128 EMO-NET, then evaluate it on a held-out set.

    Every job starts from the same initial weights, so every job must write
    the same model bytes. ``train_loop`` validates on a one-sample set at its
    end (it always validates at its last iteration); the held-out pass is
    timed separately as ``evaluate_dataset``.
    """

    name = "train"
    setup_repeats = 3
    steps = 4    # enough for the loss to fall and accuracy to beat chance

    def prepare(self) -> None:
        info = inputs.make_train_corpus(os.path.join(self.work_dir, "corpus"), self.seed,
                                        self.sizes.train_per_class,
                                        self.sizes.heldout_per_class)
        self.manifests = info["manifests"]
        self.model_path = os.path.join(self.work_dir, "model.emo")

    def setup(self):
        state = {key: dataset.load_manifest(path, MODE) for key, path in self.manifests.items()}
        state["params"] = nn.init_params(self.seed, mode=MODE)
        return state

    def job(self, state, tracer=None) -> JobResult:
        steps = self.steps
        config = train.TrainConfig(batch_size=64, max_iterations=steps,
                                   checkpoint_every=steps, seed=self.seed, mode=MODE)
        params = state["params"].copy()
        t0 = time.perf_counter()
        ckpt, history = train.train_loop(config, state["train"], state["val1"], params=params)
        t1 = time.perf_counter()
        record = train.evaluate_dataset(ckpt.params, state["heldout"], MODE)
        t2 = time.perf_counter()

        train.save_model(ckpt.params, self.model_path)
        with open(self.model_path, "rb") as f:
            blob = f.read()
        failures = _check_training(history.train_loss, record.accuracy)
        failures += _check_round_trip(ckpt.params, self.model_path, blob)
        n_eval = len(state["heldout"])
        ops = steps + n_eval + 1
        return JobResult(ops=ops, failed=ops if failures else 0,
                         seconds={"train": t1 - t0, "eval": t2 - t1},
                         items={"train": steps * config.batch_size, "eval": n_eval},
                         fingerprint=_digest(blob, history.train_loss, record.accuracy),
                         failures=failures, steps=steps,
                         info={"model_crc32": blob[-4:][::-1].hex(),
                               "heldout_accuracy": record.accuracy})

    def end_to_end(self, jobs):
        train_rate = float(np.median([j.items["train"] / j.seconds["train"] for j in jobs]))
        eval_rate = float(np.median([j.items["eval"] / j.seconds["eval"] for j in jobs]))
        return {"main_items_per_s": train_rate, "second_items_per_s": eval_rate,
                "own": [("train_samples_per_s", train_rate, "samples/s"),
                        ("eval_samples_per_s", eval_rate, "samples/s"),
                        ("model_crc32", jobs[0].info["model_crc32"], "hex"),
                        ("heldout_accuracy", jobs[0].info["heldout_accuracy"], "ratio")]}


def _check_training(losses: list[float], accuracy: float) -> list[str]:
    failures = []
    if not all(math.isfinite(v) for v in losses):
        failures.append(f"non-finite training loss in {losses}")
    half = max(len(losses) // 2, 1)
    first, last = np.mean(losses[:half]), np.mean(losses[-half:])
    if not last < first:
        failures.append(f"loss did not fall: first steps {first:.4f}, last steps {last:.4f}")
    if not accuracy > 1.0 / 7:
        failures.append(f"held-out accuracy {accuracy:.4f} does not beat chance 1/7")
    return failures


def _check_round_trip(params, path: str, blob: bytes) -> list[str]:
    loaded = train.load_model(path)
    same = (loaded.mode == params.mode and loaded.layers == params.layers
            and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    for a, b in zip(loaded.weights + loaded.biases,
                                    params.weights + params.biases)))
    if not same:
        return ["model changed through save_model/load_model"]
    again = path + ".again"
    train.save_model(loaded, again)
    with open(again, "rb") as f:
        if f.read() != blob:
            return ["re-saving a loaded model changed its bytes"]
    return []


class StreamWorkload(Workload):
    """Stream frames one at a time through a model loaded from disk.

    Frames are read as ``emotionforge stream DIR`` reads them: the PGM with
    ``imaging.load_pgm`` and its sidecar with ``alignment.read_landmarks``,
    inside the generator, so a frame's time covers its decode too. Planted
    frames have coincident eyes and must come back as skip records.
    """

    name = "stream"
    setup_repeats = 21
    planted_share = 0.1

    def prepare(self) -> None:
        self.frames = inputs.make_stream_frames(os.path.join(self.work_dir, "frames"),
                                                self.seed, self.sizes.stream_frames,
                                                self.planted_share)
        self.model_path = os.path.join(self.work_dir, "model.emo")
        inputs.write_model(self.model_path, self.seed)

    def setup(self):
        return train.load_model(self.model_path)

    def _frame_source(self):
        for path in self.frames["paths"]:
            yield imaging.load_pgm(path), alignment.read_landmarks(alignment.sidecar_path(path))

    def job(self, params, tracer=None) -> JobResult:
        records = stream.run_stream(params, self._frame_source(), alpha=0.3)
        pull = records.__next__
        if tracer is not None:
            pull = tracer.wrap(pull, "stream.frame")
        frame_seconds, lines, failures = [], [], []
        planted = set(self.frames["planted"])
        n = len(self.frames["paths"])
        bad = 0
        begin = time.perf_counter()
        for index in range(n):
            t0 = time.perf_counter()
            try:
                record = pull()
            except StopIteration:
                break
            frame_seconds.append(time.perf_counter() - t0)
            problem = _check_record(record, index, index in planted)
            if problem:
                failures.append(problem)
                bad += 1
            line = record.to_line()
            lines.append(line if record.emotion is None else line.rsplit(",", 1)[0])
        wall = time.perf_counter() - begin
        if len(lines) != n:
            failures.append(f"{len(lines)} records for {n} frames")
            bad = n
        elif next(records, None) is not None:
            failures.append(f"records continue past the last of {n} frames")
            bad = n
        skips = sum(1 for line in lines if ",skip," in line)
        return JobResult(ops=n, failed=bad, seconds={"stream": wall}, items={"stream": n},
                         fingerprint=_digest(lines), failures=failures,
                         frame_seconds=frame_seconds, skip_ratio=skips / n)

    def end_to_end(self, jobs):
        rate = float(np.median([j.items["stream"] / j.seconds["stream"] for j in jobs]))
        # Percentiles are taken within each pass over the frames, then the
        # median over passes: a slow spell of the machine moves a few passes,
        # not the figure.
        frame_ms = [np.array(j.frame_seconds) * 1000.0 for j in jobs]
        per_pass = np.array([np.percentile(ms, [50, 95]) for ms in frame_ms])
        p50, p95 = (float(v) for v in np.median(per_pass, axis=0))
        above = sum(int((ms > pass_p95).sum()) for ms, pass_p95 in zip(frame_ms, per_pass[:, 1]))
        return {"main_items_per_s": rate, "second_items_per_s": 1000.0 / p95,
                "own": [("stream_frames_per_s", rate, "frames/s"),
                        ("stream_frame_ms_p50", p50, "ms"),
                        ("stream_frame_ms_p95", p95, "ms"),
                        ("stream_frame_samples", sum(len(ms) for ms in frame_ms), "count"),
                        ("stream_frame_samples_above_p95", above, "count")]}


def _check_record(record, index: int, planted: bool) -> str | None:
    if record.frame_index != index:
        return f"record {record.frame_index} arrived in place of frame {index}"
    if planted:
        if record.emotion is not None or record.skip_reason != "CoincidentEyesError":
            return f"planted frame {index} gave {record.to_line()!r}, not a typed skip"
        return None
    if record.emotion is None:
        return f"frame {index} skipped: {record.skip_reason}"
    v = record.intensity
    if v.shape != (7,) or not np.all((v >= 0) & (v <= 1)):
        return f"frame {index}: intensities outside [0, 1]: {v}"
    if abs(float(v.sum()) - 1.0) > 1e-5:
        return f"frame {index}: intensities sum to {float(v.sum())!r}"
    return None


class PrepWorkload(Workload):
    """``emotionforge align`` then ``emotionforge augment`` over a raw directory.

    Runs the CLI in-process through ``cli.main`` with its output captured.
    Set-up is what the CLI loads before its first image: importing
    ``emotionforge.cli`` (numpy included) and building its parser, timed
    inside a fresh interpreter.
    """

    name = "prep"
    setup_repeats = 7
    variants_per_image = 28

    def prepare(self) -> None:
        self.raw_dir = os.path.join(self.work_dir, "raw")
        self.raw = inputs.make_prep_raw(self.raw_dir, self.seed, self.sizes.prep_images)
        self.out_dir = os.path.join(self.work_dir, "prep-out")

    def setup(self):
        return None

    def timed_setup(self):
        code = ("import time; t = time.perf_counter(); import emotionforge.cli as c; "
                "c.build_parser(); print(repr(time.perf_counter() - t))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return None, float(done.stdout.strip().splitlines()[-1])

    def job(self, state, tracer=None) -> JobResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        aligned = os.path.join(self.out_dir, "aligned")
        augmented = os.path.join(self.out_dir, "augmented")
        manifest_out = os.path.join(self.out_dir, "labels_aug.csv")
        os.makedirs(aligned)
        os.makedirs(augmented)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            rc_align = cli.main(["align", self.raw_dir, "--out", aligned])
            t1 = time.perf_counter()
            rc_augment = cli.main(["augment", aligned, "--out", augmented,
                                   "--manifest", self.raw["manifest"],
                                   "--manifest-out", manifest_out])
            t2 = time.perf_counter()
        n = self.raw["n_images"]
        failures = []
        if rc_align != 0 or rc_augment != 0:
            failures.append(f"exit codes align {rc_align}, augment {rc_augment}: "
                            f"{captured.getvalue()[-500:]}")
        problems, fingerprint = _check_prep(aligned, augmented, manifest_out, n,
                                            self.variants_per_image)
        failures += problems
        return JobResult(ops=2 * n, failed=2 * n if failures else 0,
                         seconds={"align": t1 - t0, "augment": t2 - t1},
                         items={"align": n, "augment": n}, fingerprint=fingerprint,
                         failures=failures)

    def end_to_end(self, jobs):
        align_rate = float(np.median([j.items["align"] / j.seconds["align"] for j in jobs]))
        augment_rate = float(np.median([j.items["augment"] / j.seconds["augment"]
                                        for j in jobs]))
        return {"main_items_per_s": align_rate, "second_items_per_s": augment_rate,
                "own": [("align_images_per_s", align_rate, "images/s"),
                        ("augment_images_per_s", augment_rate, "images/s")]}


def _check_prep(aligned_dir, augmented_dir, manifest_out, n, per_image):
    """(check failures, fingerprint of every output file)."""
    tags = [augment.variant_tag(f, k) for f in augment.DEFAULT_BRIGHTNESS_FACTORS
            for k in augment.DEFAULT_BLUR_KINDS]
    problems = []
    h = hashlib.sha256()
    aligned = sorted(os.listdir(aligned_dir))
    if len(aligned) != n:
        problems.append(f"{len(aligned)} aligned images for {n} raw frames")
    if len(tags) != per_image:
        problems.append(f"{len(tags)} variant tags, expected {per_image}")
    for name in aligned:
        with open(os.path.join(aligned_dir, name), "rb") as f:
            source_bytes = f.read()
        h.update(name.encode() + source_bytes)
        source = imaging.read_pgm(source_bytes)
        stem = os.path.splitext(name)[0]
        if source.shape != (128, 128):
            problems.append(f"{name} aligned to {source.shape}")
        for tag in tags:
            path = os.path.join(augmented_dir, f"{stem}__{tag}.pgm")
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except FileNotFoundError:
                problems.append(f"missing variant {stem}__{tag}")
                continue
            h.update(tag.encode() + data)
            variant = imaging.read_pgm(data)
            if variant.shape != (128, 128):
                problems.append(f"{stem}__{tag} decodes as {variant.shape}")
            if tag == "b1.00__none" and not np.array_equal(variant, source):
                problems.append(f"{stem}__b1.00__none differs from its aligned source")
    written = len(os.listdir(augmented_dir))
    if written != n * per_image:
        problems.append(f"{written} variant files for {n} images")
    with open(manifest_out, "rb") as f:
        manifest = f.read()
    h.update(manifest)
    lines = [ln for ln in manifest.decode().splitlines() if ln.strip()]
    if len(lines) != n * per_image:
        problems.append(f"replicated manifest has {len(lines)} lines, expected {n * per_image}")
    return problems, h.hexdigest()


WORKLOADS = {w.name: w for w in (TrainWorkload, StreamWorkload, PrepWorkload)}
