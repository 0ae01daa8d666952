"""Span tracing of the emotionforge modules, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
emotionforge namespace that holds it. That is where its callers look the name
up: ``train`` and ``stream`` import ``forward`` by name, ``nn``'s layer walkers
read the primitives from ``nn``'s globals, ``cli.build_parser`` reads
``cmd_align`` from ``cli``'s globals, and ``Prng`` methods sit on the class.
``Tracer.restore`` puts every original back. Nothing under ``src/`` changes.

Spans are kept in memory as ``[id, parent, request, name, start_ns, end_ns]``
and written out when the run ends. A span's self time is its duration minus
the durations of its direct children; spans nest strictly because the
pipeline is single-threaded at the Python level.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

import numpy as np

_CONV_TAGS = {(32, 1): "conv1", (64, 32): "conv2", (128, 64): "conv3"}
_POOL_TAGS = {32: "pool1", 64: "pool2", 128: "pool3"}

# Every traced layer, in report order. Each gets `.calls` and `.self_pct`.
LAYERS = (
    [f"nn.conv2d_forward.conv{i}" for i in (1, 2, 3)]
    + [f"nn.conv2d_backward.conv{i}" for i in (1, 2, 3)]
    + [f"nn.maxpool_forward.pool{i}" for i in (1, 2, 3)]
    + [f"nn.maxpool_backward.pool{i}" for i in (1, 2, 3)]
    + ["nn.relu_forward", "nn.relu_backward", "nn.fc_forward", "nn.fc_backward",
       "nn.dropout_forward", "nn.dropout_backward",
       "nn.forward.train", "nn.forward.infer", "nn.backward", "nn.init_params",
       "rng.Prng.uniform", "rng.Prng.permutation", "rng.Prng.normal",
       "loss.softmax_ce", "loss.softmax",
       "train.train_loop", "train.sgd_step", "train.evaluate_dataset",
       "train.save_model", "train.load_model",
       "dataset.load_batch_inputs", "dataset.load_manifest",
       "alignment.align_face", "alignment.read_landmarks",
       "imaging.warp_rotate", "imaging.resize_bilinear",
       "imaging.blur.gaussian", "imaging.blur.average", "imaging.blur.median",
       "imaging.adjust_brightness", "imaging.load_pgm", "imaging.save_pgm",
       "augment.variants", "stream.smooth", "cli.cmd_align", "cli.cmd_augment"]
)

# Layers whose FLOPs and bytes moved are computed from the call's shapes.
COMPUTED_LAYERS = ([f"nn.conv2d_forward.conv{i}" for i in (1, 2, 3)]
                   + [f"nn.conv2d_backward.conv{i}" for i in (1, 2, 3)]
                   + ["nn.fc_forward", "nn.fc_backward"])

COUNTS = {
    "rng.words_drawn": "count",
    "rng.words_drawn_per_step": "count",
    "dataset.decodes_per_sample": "ratio",
    "imaging.save_pgm.bytes": "bytes",
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.calls", "count", "lower"))
        spec.append((f"{layer}.self_pct", "%", "lower"))
    spec += [(f"{layer}.computed_gflops", "GFLOP/s", "higher") for layer in COMPUTED_LAYERS]
    spec += [(name, unit, "lower") for name, unit in COUNTS.items()]
    spec.append(("stream.skip_ratio", "ratio", "lower"))
    spec += [("trace_overhead.main_items_per_s", "%", "lower"),
             ("trace_overhead.second_items_per_s", "%", "lower"),
             ("trace_overhead.setup_s", "%", "lower"),
             ("trace_overhead.peak_rss_mb", "MB", "lower")]
    return spec


def _conv_tag(args, kwargs):
    return _CONV_TAGS.get(tuple(args[1].shape[:2]), "conv_other")


def _pool_fwd_tag(args, kwargs):
    return _POOL_TAGS.get(args[0].shape[1], "pool_other")


def _pool_bwd_tag(args, kwargs):
    return _POOL_TAGS.get(args[0][1], "pool_other")


def _forward_tag(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "infer")


def _blur_tag(args, kwargs):
    return kwargs.get("kind", args[1] if len(args) > 1 else "")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.flops: collections.Counter = collections.Counter()
        self.bytes_moved: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._open_names: collections.Counter = collections.Counter()
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][2] if parent >= 0 else sid
        self._stack.append(sid)
        self._open_names[name] += 1
        self.spans.append([sid, parent, request, name, time.perf_counter_ns(), 0])
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span[5] = time.perf_counter_ns()
        self._stack.pop()
        self._open_names[span[3]] -= 1

    def wrap(self, fn, name: str, tag=None, after=None):
        """``fn`` recorded as span ``name`` (plus ``.tag(args)`` when given).

        ``after(name, args, kwargs, result)`` runs once the span has closed,
        so counting work stays out of the measured interval.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if tag is None else f"{name}.{tag(args, kwargs)}"
            sid = self._open(full)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(full, args, kwargs, result)
            return result
        return traced

    # --- counters run after a span closes ---------------------------------

    def _count_words(self, n: int) -> None:
        self.counts["rng.words_drawn"] += n
        if self._open_names["train.train_loop"]:
            self.counts["rng.words_drawn_in_train_loop"] += n

    def _after_permutation(self, name, args, kwargs, result):
        self._count_words(max(int(args[1]) - 1, 0))

    def _after_conv_forward(self, name, args, kwargs, y):
        x, w = args[0], args[1]
        k, c, kh, kw = w.shape
        self.flops[name] += 2 * x.shape[0] * k * c * kh * kw * y.shape[2] * y.shape[3]
        self.bytes_moved[name] += x.nbytes + w.nbytes + y.nbytes

    def _after_conv_backward(self, name, args, kwargs, result):
        x, w, up = args[0], args[1], args[2]
        k, c, kh, kw = w.shape
        # dw and dcols are one GEMM each of the forward's size.
        self.flops[name] += 4 * x.shape[0] * k * c * kh * kw * up.shape[2] * up.shape[3]
        self.bytes_moved[name] += x.nbytes + w.nbytes + up.nbytes + sum(a.nbytes for a in result)

    def _after_fc_forward(self, name, args, kwargs, y):
        x, w = args[0], args[1]
        self.flops[name] += 2 * x.shape[0] * w.shape[0] * w.shape[1]
        self.bytes_moved[name] += x.nbytes + w.nbytes + y.nbytes

    def _after_fc_backward(self, name, args, kwargs, result):
        x, w, up = args[0], args[1], args[2]
        self.flops[name] += 4 * x.shape[0] * w.shape[0] * w.shape[1]
        self.bytes_moved[name] += x.nbytes + w.nbytes + up.nbytes + sum(a.nbytes for a in result)

    def _after_load_batch(self, name, args, kwargs, result):
        self.counts["dataset.samples_loaded"] += len(args[0])

    def _after_save_pgm(self, name, args, kwargs, result):
        self.counts["imaging.save_pgm.bytes"] += os.path.getsize(args[0])

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        from emotionforge import (alignment, augment, cli, dataset, evaluate, imaging,
                                  loss, nn, rng, stream, train)

        modules = (alignment, augment, cli, dataset, evaluate, imaging, loss, nn, rng,
                   stream, train)
        targets = [
            (nn, "conv2d_forward", _conv_tag, self._after_conv_forward),
            (nn, "conv2d_backward", _conv_tag, self._after_conv_backward),
            (nn, "maxpool_forward", _pool_fwd_tag, None),
            (nn, "maxpool_backward", _pool_bwd_tag, None),
            (nn, "relu_forward", None, None),
            (nn, "relu_backward", None, None),
            (nn, "fc_forward", None, self._after_fc_forward),
            (nn, "fc_backward", None, self._after_fc_backward),
            (nn, "dropout_forward", None, None),
            (nn, "dropout_backward", None, None),
            (nn, "forward", _forward_tag, None),
            (nn, "backward", None, None),
            (nn, "init_params", None, None),
            (loss, "softmax_ce", None, None),
            (loss, "softmax", None, None),
            (train, "train_loop", None, None),
            (train, "sgd_step", None, None),
            (train, "evaluate_dataset", None, None),
            (train, "save_model", None, None),
            (train, "load_model", None, None),
            (dataset, "load_batch_inputs", None, self._after_load_batch),
            (dataset, "load_manifest", None, None),
            (alignment, "align_face", None, None),
            (alignment, "read_landmarks", None, None),
            (imaging, "warp_rotate", None, None),
            (imaging, "resize_bilinear", None, None),
            (imaging, "blur", _blur_tag, None),
            (imaging, "adjust_brightness", None, None),
            (imaging, "load_pgm", None, None),
            (imaging, "save_pgm", None, self._after_save_pgm),
            (augment, "variants", None, None),
            (stream, "smooth", None, None),
            (cli, "main", None, None),
            (cli, "cmd_align", None, None),
            (cli, "cmd_augment", None, None),
        ]
        for home, attr, tag, after in targets:
            original = getattr(home, attr)
            name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self.wrap(original, name, tag, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

        prng = rng.Prng
        for meth in ("uniform", "normal"):
            self._replace(prng, meth, self.wrap(prng.__dict__[meth], f"rng.Prng.{meth}"))
        self._replace(prng, "permutation",
                      self.wrap(prng.__dict__["permutation"], "rng.Prng.permutation",
                                after=self._after_permutation))
        uint64 = prng.__dict__["uint64"]

        def counted_uint64(prng_self, n):
            self._count_words(int(n))
            return uint64(prng_self, n)

        self._replace(prng, "uint64", counted_uint64)

    def _replace(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # --- reporting ----------------------------------------------------------

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, self ms, inclusive ms total and per-call p50."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        rows: dict[str, dict] = {}
        durations: dict[str, list[int]] = collections.defaultdict(list)
        for sid, _, _, name, start, end in self.spans:
            row = rows.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += end - start - child_ns[sid]
            durations[name].append(end - start)
        for name, row in rows.items():
            row["self_ms"] = row["self_ns"] / 1e6
            row["total_ms"] = sum(durations[name]) / 1e6
            row["ms_p50"] = float(np.median(durations[name])) / 1e6
        return rows

    def per_layer_metrics(self, wall_ns: int, steps: int, skip_ratio: float) -> dict:
        """The metrics of ``per_layer_spec``, from the spans and counts."""
        table = self.layer_table()
        out = {}
        for layer in LAYERS:
            row = table.get(layer, {"calls": 0, "self_ns": 0})
            out[f"{layer}.calls"] = (row["calls"], "count")
            out[f"{layer}.self_pct"] = (100.0 * row["self_ns"] / wall_ns, "%")
        for layer in COMPUTED_LAYERS:
            self_ns = table.get(layer, {}).get("self_ns", 0)
            gflops = self.flops[layer] / self_ns if self_ns else 0.0
            out[f"{layer}.computed_gflops"] = (gflops, "GFLOP/s")
        decodes = table.get("imaging.load_pgm", {}).get("calls", 0)
        samples = self.counts["dataset.samples_loaded"]
        out["rng.words_drawn"] = (self.counts["rng.words_drawn"], "count")
        out["rng.words_drawn_per_step"] = (
            self.counts["rng.words_drawn_in_train_loop"] / steps if steps else 0.0, "count")
        out["dataset.decodes_per_sample"] = (decodes / samples if samples else 0.0, "ratio")
        out["imaging.save_pgm.bytes"] = (self.counts["imaging.save_pgm.bytes"], "bytes")
        out["stream.skip_ratio"] = (skip_ratio, "ratio")
        return out

    def write(self, path: str, summary: dict) -> None:
        """Spans, the layer table and the computed counts, as one JSON file."""
        table = self.layer_table()
        computed = {name: {"flop": self.flops[name], "bytes_moved": self.bytes_moved[name],
                           "calls": table.get(name, {}).get("calls", 0)}
                    for name in COMPUTED_LAYERS}
        doc = {"summary": summary, "layers": table, "computed": computed,
               "counts": dict(self.counts),
               "span_fields": ["id", "parent", "request", "name", "start_ns", "end_ns"],
               "spans": self.spans}
        with open(path, "w") as f:
            json.dump(doc, f)
