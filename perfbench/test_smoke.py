"""Smoke test of the benchmark harness at tiny input sizes (about a minute).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that each workload also prints its own figures with units, that every
output check passes, and that each workload runs the layers it is meant to
stress and bypasses the ones it is the control for.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OWN_FIGURES = {
    "train": [("setup_s", "s"), ("train_samples_per_s", "samples/s"),
              ("eval_samples_per_s", "samples/s"), ("peak_rss_mb", "MB"),
              ("error_rate", "ratio")],
    "stream": [("setup_s", "s"), ("stream_frames_per_s", "frames/s"),
               ("stream_frame_ms_p50", "ms"), ("stream_frame_ms_p95", "ms"),
               ("peak_rss_mb", "MB"), ("error_rate", "ratio")],
    "prep": [("setup_s", "s"), ("align_images_per_s", "images/s"),
             ("augment_images_per_s", "images/s"), ("peak_rss_mb", "MB"),
             ("error_rate", "ratio")],
}

# Layers each workload must run, and layers it must bypass.
RUNS = {
    "train": ["nn.conv2d_backward.conv1", "nn.dropout_forward", "train.sgd_step",
              "rng.Prng.uniform", "train.evaluate_dataset", "dataset.load_batch_inputs"],
    "stream": ["alignment.align_face", "imaging.warp_rotate", "nn.forward.infer",
               "train.load_model", "stream.smooth"],
    "prep": ["cli.cmd_align", "cli.cmd_augment", "imaging.blur.median", "imaging.save_pgm"],
}
BYPASSES = {
    "train": ["alignment.align_face", "imaging.blur.gaussian", "imaging.save_pgm"],
    "stream": ["nn.backward", "nn.dropout_forward", "train.sgd_step"],
    "prep": ["nn.forward.infer", "nn.forward.train", "rng.Prng.uniform"],
}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == ["train", "stream", "prep"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", ["train", "stream", "prep"])
def test_end_to_end_metrics(workload, spec):
    lines, result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in OWN_FIGURES[workload]:
        prefix = f"# {workload} {name} = "
        assert any(ln.startswith(prefix) and f" {unit}" in ln[len(prefix):] for ln in lines), name


@pytest.mark.parametrize("workload", ["train", "stream", "prep"])
def test_per_layer_metrics(workload, spec):
    lines, result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    calls = {name[: -len(".calls")]: m["value"] for name, m in result["metrics"].items()
             if name.endswith(".calls")}
    assert all(calls[layer] > 0 for layer in RUNS[workload]), calls
    assert all(calls[layer] == 0 for layer in BYPASSES[workload]), calls
    if workload == "train":
        assert result["metrics"]["dataset.decodes_per_sample"]["value"] == 1.0
    if workload == "stream":
        assert result["metrics"]["stream.skip_ratio"]["value"] == 0.1
