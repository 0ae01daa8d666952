import errno
import io
import os
import re
import select
import subprocess
import sys
import threading

import numpy as np
import pytest

from emotionforge import alignment, augment, cli, dataset, imaging, train
from emotionforge.cli import main
from helpers import (UNWALKABLE, fill_disk_after, make_toy_corpus, separator_model,
                     synthetic_face, toy_pattern, unwalkable_model)
from emotionforge.rng import Prng


def write_face_pair(dirpath, name, **kw):
    img, lm = synthetic_face(**kw)
    imaging.save_pgm(os.path.join(str(dirpath), f"{name}.pgm"), img)
    alignment.write_landmarks(os.path.join(str(dirpath), f"{name}.lm68"), lm)


class TestAlign:
    def test_three_pairs(self, tmp_path, capsys):
        src = tmp_path / "raw"
        dst = tmp_path / "aligned"
        src.mkdir(), dst.mkdir()
        for i, gain in enumerate((150, 130, 170)):
            write_face_pair(src, f"f{i}", face_gain=gain)
        assert main(["align", str(src), "--out", str(dst)]) == 0
        outs = sorted(os.listdir(dst))
        assert outs == ["f0.pgm", "f1.pgm", "f2.pgm"]
        assert imaging.load_pgm(dst / "f0.pgm").shape == (128, 128)
        assert "aligned 3 images" in capsys.readouterr().out

    def test_missing_sidecar_skipped(self, tmp_path, capsys):
        src = tmp_path / "raw"
        dst = tmp_path / "aligned"
        src.mkdir(), dst.mkdir()
        write_face_pair(src, "good")
        imaging.save_pgm(src / "lonely.pgm", np.zeros((40, 40), dtype=np.uint8))
        assert main(["align", str(src), "--out", str(dst)]) == 0
        captured = capsys.readouterr()
        assert "skipping lonely.pgm" in captured.err
        assert sorted(os.listdir(dst)) == ["good.pgm"]

    def test_empty_dir_fails(self, tmp_path):
        src = tmp_path / "raw"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        assert main(["align", str(src), "--out", str(dst)]) == 2

    def test_glob_characters_in_input_dir(self, tmp_path):
        src = tmp_path / "frames[1]"
        dst = tmp_path / "aligned"
        src.mkdir(), dst.mkdir()
        write_face_pair(src, "f0")
        assert main(["align", str(src), "--out", str(dst)]) == 0
        assert os.listdir(dst) == ["f0.pgm"]


class TestAugment:
    def test_fanout_and_naming(self, tmp_path):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        rng = Prng(5)
        for i in range(2):
            imaging.save_pgm(src / f"face{i}.pgm", toy_pattern(i, rng))
        assert main(["augment", str(src), "--out", str(dst)]) == 0
        outs = os.listdir(dst)
        assert len(outs) == 56
        assert "face0__b1.00__none.pgm" in outs
        assert "face1__b0.55__median.pgm" in outs
        identity = imaging.load_pgm(dst / "face0__b1.00__none.pgm")
        assert (identity == imaging.load_pgm(src / "face0.pgm")).all()

    def test_manifest_replication(self, tmp_path):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        rng = Prng(6)
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, rng))
        imaging.save_pgm(src / "b.pgm", toy_pattern(1, rng))
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\nb.pgm,happy,0.6\n")
        mout = tmp_path / "m_aug.csv"
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(manifest), "--manifest-out", str(mout)]) == 0
        lines = mout.read_text().splitlines()
        assert len(lines) == 56
        assert sum(1 for l in lines if l.endswith(",angry")) == 28
        assert sum(1 for l in lines if l.endswith(",happy,0.6")) == 28

    def test_manifest_without_manifest_out_is_usage_error(self, tmp_path):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, Prng(6)))
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\n")
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(manifest)]) == 1
        assert os.listdir(dst) == []

    def test_manifest_out_without_manifest_is_usage_error(self, tmp_path):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, Prng(6)))
        mout = tmp_path / "m_aug.csv"
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest-out", str(mout)]) == 1
        assert os.listdir(dst) == []
        assert not mout.exists()

    def test_missing_manifest_fails_before_any_variant(self, tmp_path):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, Prng(6)))
        mout = tmp_path / "o.csv"
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(tmp_path / "nope.csv"), "--manifest-out", str(mout)]) == 2
        assert os.listdir(dst) == []
        assert not mout.exists()

    def test_empty_dir_fails(self, tmp_path):
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        assert main(["augment", str(tmp_path / "in"), "--out", str(tmp_path / "out")]) == 2


class TestTimingLog:
    def test_align_and_augment_log_their_time_per_image(self, tmp_path, capsys):
        raw, aligned, out = tmp_path / "raw", tmp_path / "aligned", tmp_path / "out"
        raw.mkdir(), aligned.mkdir(), out.mkdir()
        for i in range(2):
            write_face_pair(raw, f"f{i}")
        assert main(["align", str(raw), "--out", str(aligned)]) == 0
        assert main(["augment", str(aligned), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "aligned 2 images\nwrote 56 variants from 2 images\n"
        lines = captured.err.splitlines()
        assert len(lines) == 2
        for cmd, line in zip(("align", "augment"), lines):
            m = re.fullmatch(rf"{cmd}: (\S+)s total, (\S+) s/image", line)
            assert m, line
            total, per_image = float(m[1]), float(m[2])
            assert 0 < per_image == pytest.approx(total / 2, rel=1e-3)

    def test_no_time_line_when_nothing_succeeds(self, tmp_path, capsys):
        (tmp_path / "in").mkdir(), (tmp_path / "out").mkdir()
        (tmp_path / "in" / "bad.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        for cmd in ("align", "augment"):
            assert main([cmd, str(tmp_path / "in"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "total" not in err and err.count("skipping bad.pgm") == 2


class TestTrain:
    def test_writes_model_and_history(self, tmp_path, capsys):
        man, vman = make_toy_corpus(tmp_path, n=16, n_train=12, seed=4)
        model_path = tmp_path / "toy.emo"
        hist_path = tmp_path / "hist.csv"
        rc = main(["train", man, "--val-manifest", vman, "--out", str(model_path),
                   "--history", str(hist_path), "--iterations", "3",
                   "--batch-size", "4", "--checkpoint-every", "3", "--seed", "7"])
        assert rc == 0
        params = train.load_model(model_path)
        assert params.mode == "classification"
        lines = hist_path.read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            it, lv = line.split(",")
            assert int(it) == i and float(lv) > 0

    def test_deterministic_artifacts(self, tmp_path):
        man, vman = make_toy_corpus(tmp_path, n=16, n_train=12, seed=4)
        out1, out2 = tmp_path / "a.emo", tmp_path / "b.emo"
        args = ["train", man, "--val-manifest", vman, "--iterations", "2",
                "--batch-size", "4", "--checkpoint-every", "2", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    def test_perfect_memorization_model(self, tmp_path, capsys):
        man, _ = make_toy_corpus(tmp_path, n=12, n_train=12, seed=10)
        model_path = tmp_path / "sep.emo"
        train.save_model(separator_model(), model_path)
        assert main(["eval", man, "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy: 1.0000" in out
        assert "angry" in out and "surprise" in out
        assert "rmse" not in out

    def test_regression_report_includes_rmse(self, tmp_path, capsys):
        man, _ = make_toy_corpus(tmp_path, n=10, n_train=10, seed=11, mode="regression")
        model_path = tmp_path / "sep.emo"
        train.save_model(separator_model(mode="regression"), model_path)
        assert main(["eval", man, "--model", str(model_path), "--mode", "regression"]) == 0
        out = capsys.readouterr().out
        assert "rmse: " in out

    def test_mode_mismatch(self, tmp_path, capsys):
        man, _ = make_toy_corpus(tmp_path, n=4, n_train=4, seed=12)
        model_path = tmp_path / "sep.emo"
        train.save_model(separator_model(), model_path)
        assert main(["eval", man, "--model", str(model_path), "--mode", "regression"]) == 2
        assert "ModelModeMismatchError" in capsys.readouterr().err


class TestInferAndStream:
    @pytest.fixture
    def frames_dir(self, tmp_path):
        d = tmp_path / "frames"
        d.mkdir()
        for i in range(3):
            write_face_pair(d, f"frame_{i:04d}", face_gain=140 + 10 * i)
        return d

    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "m.emo"
        train.save_model(separator_model(), path)
        return path

    def test_stream_record_per_frame(self, frames_dir, model_path, capsys):
        assert main(["stream", str(frames_dir), "--model", str(model_path),
                     "--alpha", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert [l.split(",")[0] for l in lines] == ["0", "1", "2"]

    def test_infer_matches_first_stream_record(self, frames_dir, model_path, capsys):
        assert main(["infer", str(frames_dir / "frame_0000.pgm"),
                     "--model", str(model_path)]) == 0
        infer_line = capsys.readouterr().out.strip()
        assert main(["stream", str(frames_dir), "--model", str(model_path),
                     "--alpha", "1.0"]) == 0
        stream_first = capsys.readouterr().out.strip().splitlines()[0]
        # identical except the trailing latency field
        assert infer_line.split(",")[:9] == stream_first.split(",")[:9]

    def test_stream_skips_unreadable_frames(self, frames_dir, model_path, capsys):
        # a frame without its sidecar still yields one (skip) record, and the
        # surviving frames keep their original numbering
        imaging.save_pgm(frames_dir / "frame_0000a.pgm", np.zeros((40, 40), dtype=np.uint8))
        assert main(["stream", str(frames_dir), "--model", str(model_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1] == "1,skip,MissingSidecarError"
        assert [l.split(",")[0] for l in lines] == ["0", "1", "2", "3"]
        assert all(",skip," not in l for l in (lines[0], lines[2], lines[3]))

    def test_stream_from_stdin(self, frames_dir, model_path, capsys, monkeypatch):
        listing = "\n".join(str(frames_dir / f"frame_{i:04d}.pgm") for i in range(2))
        monkeypatch.setattr("sys.stdin", io.StringIO(listing + "\n"))
        assert main(["stream", "-", "--model", str(model_path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_stream_stdin_is_live(self, frames_dir, model_path):
        # a producer that has sent one path and keeps stdin open gets its
        # record without waiting for EOF
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        with subprocess.Popen([sys.executable, "-m", "emotionforge.cli", "stream", "-",
                               "--model", str(model_path)], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            try:
                proc.stdin.write(f"{frames_dir / 'frame_0000.pgm'}\n")
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 30)
                assert ready, "no record while stdin stays open"
                assert proc.stdout.readline().startswith("0,")
                rest, _ = proc.communicate(timeout=60)  # closes stdin: EOF
                assert proc.returncode == 0 and rest == ""
            finally:
                if proc.poll() is None:
                    proc.kill()

    @pytest.mark.parametrize("table", UNWALKABLE)
    @pytest.mark.parametrize("command", ["eval", "infer", "stream"])
    def test_unwalkable_layer_table_is_data_error(self, frames_dir, tmp_path, capsys,
                                                  command, table):
        model = tmp_path / "unwalkable.emo"
        train.save_model(unwalkable_model(table, 128), model)
        if command == "eval":
            source = make_toy_corpus(tmp_path, n=4, n_train=4, seed=13)[0]
        else:
            source = str(frames_dir / "frame_0000.pgm" if command == "infer" else frames_dir)
        assert main([command, source, "--model", str(model)]) == 2
        assert f"ShapeMismatchError: {UNWALKABLE[table]}" in capsys.readouterr().err

    def test_bad_model_file(self, frames_dir, tmp_path, capsys):
        bad = tmp_path / "bad.emo"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["infer", str(frames_dir / "frame_0000.pgm"),
                     "--model", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestStreamAlphaDefault:
    @pytest.fixture
    def stream_calls(self, monkeypatch):
        """``run_stream``'s alpha default, and the keyword arguments of each
        call that ``stream`` makes."""
        import inspect
        from emotionforge import stream
        run_stream, seen = stream.run_stream, []

        def record(params, frames, **kwargs):
            seen.append(kwargs)
            return run_stream(params, frames, **kwargs)

        monkeypatch.setattr(stream, "run_stream", record)
        return inspect.signature(run_stream).parameters["alpha"].default, seen

    def test_alpha_left_to_run_stream(self, tmp_path, stream_calls, capsys):
        default, calls = stream_calls
        write_face_pair(tmp_path, "frame_0000")
        write_face_pair(tmp_path, "frame_0001", face_gain=170)
        model = tmp_path / "m.emo"
        train.save_model(separator_model(), model)
        assert main(["stream", str(tmp_path), "--model", str(model)]) == 0
        without = capsys.readouterr().out.splitlines()
        assert main(["stream", str(tmp_path), "--model", str(model),
                     "--alpha", str(default)]) == 0
        explicit = capsys.readouterr().out.splitlines()
        assert calls == [{"mode": None}, {"mode": None, "alpha": default}]
        assert [l.rsplit(",", 1)[0] for l in without] == [l.rsplit(",", 1)[0] for l in explicit]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["align", "somewhere", "--out", "x", "--frobnicate"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "-1", "learning_rate must be positive"),
        ("--momentum", "1", "momentum must be in"),
        ("--batch-size", "0", "batch_size, max_iterations, checkpoint_every must be >= 1"),
        ("--iterations", "0", "batch_size, max_iterations, checkpoint_every must be >= 1"),
    ])
    def test_rejected_training_flag_is_usage_error(self, tmp_path, capsys, flag, value, message):
        # the config is checked before any manifest is read
        rc = main(["train", str(tmp_path / "m.csv"), "--val-manifest", str(tmp_path / "v.csv"),
                   "--out", str(tmp_path / "m.emo"), flag, value])
        assert rc == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m.emo").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["eval", str(tmp_path / "nope.csv"),
                     "--model", str(tmp_path / "nope.emo")]) == 2


class TestEvalLoop:
    def test_comment_only_manifest_is_data_error(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("# no samples\n")
        model_path = tmp_path / "sep.emo"
        train.save_model(separator_model(), model_path)
        assert main(["eval", str(manifest), "--model", str(model_path)]) == 2

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_each_sample_decoded_once(self, tmp_path, monkeypatch, mode):
        man, _ = make_toy_corpus(tmp_path, n=10, n_train=10, seed=11, mode=mode)
        model_path = tmp_path / "sep.emo"
        train.save_model(separator_model(mode=mode), model_path)
        decoded = []
        real = imaging.load_pgm

        def counting(path):
            decoded.append(path)
            return real(path)

        for module in (imaging, dataset, cli):
            monkeypatch.setattr(module, "load_pgm", counting)
        assert main(["eval", man, "--model", str(model_path), "--mode", mode]) == 0
        assert len(decoded) == 10


# The SHA-256 of the logits and gradients of one batch-16 train step of the
# 128x128 net. Importing the CLI first applies EMOTION_FORGE_THREADS before
# numpy loads.
GRADIENT_DIGEST = """
import hashlib
import emotionforge.cli
import numpy as np
from emotionforge import nn
from emotionforge.rng import Prng
p = nn.init_params(seed=5)
x = Prng(6).uniform(16 * 128 * 128).reshape(16, 1, 128, 128).astype(np.float32)
logits, caches = nn.forward(p, x, mode="train", rng=Prng.derive(5, 2, 0))
dl = (Prng(7).normal(logits.size).reshape(logits.shape) * 0.1).astype(np.float32)
dws, dbs = nn.backward(p, caches, dl)
h = hashlib.sha256(logits.tobytes())
for g in dws + dbs:
    h.update(g.tobytes())
print(h.hexdigest())
"""


class TestThreadCount:
    def test_model_bytes_do_not_depend_on_thread_cap(self, tmp_path):
        # the real 128x128 net: small GEMMs may never reach BLAS threading
        man, vman = make_toy_corpus(tmp_path, n=16, n_train=12, seed=4)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        models = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["EMOTION_FORGE_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"threads{threads}.emo"
            subprocess.run([sys.executable, "-m", "emotionforge.cli", "train", man,
                            "--val-manifest", vman, "--out", str(out), "--iterations", "2",
                            "--batch-size", "4", "--checkpoint-every", "2", "--seed", "3"],
                           env=env, check=True, capture_output=True, timeout=300)
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_gradients_do_not_depend_on_thread_cap_at_batch_16(self):
        # batch 16 makes the conv GEMMs large enough to reach BLAS threading
        src = os.path.dirname(os.path.dirname(cli.__file__))
        digests = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["EMOTION_FORGE_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", GRADIENT_DIGEST], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(run.stdout)
        assert len(digests[0]) == 65 and digests[0] == digests[1]

    VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")

    @pytest.mark.parametrize("cap, before, after", [
        ("1", {"OPENBLAS_NUM_THREADS": "2"}, ("1", "1", "1", "1")),
        ("2", {"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "8"}, ("1", "2", "2", "2")),
        ("3", {"OPENBLAS_NUM_THREADS": "abc", "NUMEXPR_NUM_THREADS": "0"}, ("3", "3", "3", "3")),
        ("abc", {"OPENBLAS_NUM_THREADS": "2"}, (None, "2", None, None)),
        ("0", {}, (None, None, None, None)),
        ("-1", {}, (None, None, None, None)),
        ("", {"OMP_NUM_THREADS": "4"}, ("4", None, None, None)),
    ])
    def test_cap_only_lowers_and_ignores_a_bad_value(self, monkeypatch, cap, before, after):
        for var in self.VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in before.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setenv("EMOTION_FORGE_THREADS", cap)
        cli._cap_threads()
        assert tuple(os.environ.get(var) for var in self.VARS) == after


class TestAugmentSkipsBadImages:
    def test_truncated_image_is_skipped_like_align(self, tmp_path, capsys):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.mkdir(), dst.mkdir()
        rng = Prng(8)
        for name in ("a", "b", "c"):
            imaging.save_pgm(src / f"{name}.pgm", toy_pattern(0, rng))
        whole = (src / "b.pgm").read_bytes()
        (src / "b.pgm").write_bytes(whole[: len(whole) // 2])
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\nb.pgm,happy\nc.pgm,sad\n")
        mout = tmp_path / "m_aug.csv"
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(manifest), "--manifest-out", str(mout)]) == 0
        captured = capsys.readouterr()
        assert "augment: skipping b.pgm" in captured.err
        assert "wrote 56 variants from 2 images" in captured.out
        outs = os.listdir(dst)
        assert len(outs) == 56
        assert not any(name.startswith("b__") for name in outs)
        rows = mout.read_text().splitlines()
        assert len(rows) == 56
        assert not any(",happy" in row for row in rows)


TAGS = [augment.variant_tag(f, k) for f in augment.DEFAULT_BRIGHTNESS_FACTORS
        for k in augment.DEFAULT_BLUR_KINDS]


def write_sources(src, stems, seed=8):
    rng = Prng(seed)
    for stem in stems:
        imaging.save_pgm(src / f"{stem}.pgm", toy_pattern(0, rng))


def fail_nth_save(monkeypatch, prefix, n):
    """``cli.save_pgm`` fails as a full disk does at the ``n``-th file whose
    name starts with ``prefix``; every other call saves as before."""
    save_pgm, seen = cli.save_pgm, []

    def save_or_fail(path, *args):
        if os.path.basename(path).startswith(prefix):
            seen.append(path)
            if len(seen) == n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return save_pgm(path, *args)

    monkeypatch.setattr(cli, "save_pgm", save_or_fail)


def skip_lines(err):
    return [line for line in err.splitlines() if ": skipping " in line]


def augment_in_order(in_dir, out_dir):
    """The sequential reference: each PGM of ``in_dir``, listed once and
    sorted, has its variants saved to ``out_dir`` before the next is read."""
    for name in sorted(n for n in os.listdir(in_dir) if n.endswith(".pgm")):
        for tag, img in augment.variants(imaging.load_pgm(in_dir / name), augment.default_spec()):
            imaging.save_pgm(out_dir / f"{name[:-4]}__{tag}.pgm", img)


def tree(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


class TestWriteFailureSkipsItsImage:
    """A save that fails is charged to its own image: its skip line, the
    count, the exit code and the replicated manifest read as if that image
    could not be read."""

    def test_augment(self, tmp_path, monkeypatch, capsys):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir(), dst.mkdir()
        write_sources(src, "abc")
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\nb.pgm,happy\nc.pgm,sad\n")
        mout = tmp_path / "m_aug.csv"
        fail_nth_save(monkeypatch, "b__", 5)
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(manifest), "--manifest-out", str(mout)]) == 0
        captured = capsys.readouterr()
        assert skip_lines(captured.err) == [
            "augment: skipping b.pgm: [Errno 28] No space left on device"]
        assert captured.out == "wrote 56 variants from 2 images\n"
        outs = set(os.listdir(dst))
        assert {f"{stem}__{tag}.pgm" for stem in "ac" for tag in TAGS} <= outs
        rows = [row.split(",") for row in mout.read_text().splitlines()]
        assert [(os.path.basename(path), label) for path, label in rows] == (
            [(f"a__{tag}.pgm", "angry") for tag in TAGS]
            + [(f"c__{tag}.pgm", "sad") for tag in TAGS])

    @pytest.mark.parametrize("save_fails, truncated", [("b", "c"), ("c", "b"), ("d", "a")])
    def test_skip_lines_come_in_input_order(self, tmp_path, monkeypatch, capsys,
                                            save_fails, truncated):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir(), dst.mkdir()
        write_sources(src, "abcd")
        whole = (src / f"{truncated}.pgm").read_bytes()
        (src / f"{truncated}.pgm").write_bytes(whole[: len(whole) // 2])
        fail_nth_save(monkeypatch, f"{save_fails}__", 5)
        assert main(["augment", str(src), "--out", str(dst)]) == 0
        captured = capsys.readouterr()
        assert [line.split(": ")[1] for line in skip_lines(captured.err)] == [
            f"skipping {stem}.pgm" for stem in sorted((save_fails, truncated))]
        assert captured.out == "wrote 56 variants from 2 images\n"

    def test_align(self, tmp_path, monkeypatch, capsys):
        src, dst = tmp_path / "raw", tmp_path / "aligned"
        src.mkdir(), dst.mkdir()
        for i in range(3):
            write_face_pair(src, f"f{i}")
        fail_nth_save(monkeypatch, "f1.", 1)
        assert main(["align", str(src), "--out", str(dst)]) == 0
        captured = capsys.readouterr()
        skip, timing = captured.err.splitlines()
        assert skip == "align: skipping f1.pgm: [Errno 28] No space left on device"
        assert re.fullmatch(r"align: \S+s total, \S+ s/image", timing)
        assert captured.out == "aligned 2 images\n"
        assert sorted(os.listdir(dst)) == ["f0.pgm", "f2.pgm"]


class TestWriterThread:
    """Saves run on one writer thread, and neither it nor a temporary file
    outlives the command, however the command ends."""

    def test_one_thread_saves_every_file(self, tmp_path, monkeypatch):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir(), dst.mkdir()
        write_sources(src, "abc")
        before = threading.active_count()
        save_pgm, seen = cli.save_pgm, []

        def save_and_record(path, img):
            seen.append((threading.current_thread(), threading.active_count()))
            save_pgm(path, img)

        monkeypatch.setattr(cli, "save_pgm", save_and_record)
        assert main(["augment", str(src), "--out", str(dst)]) == 0
        assert len(seen) == 84
        [(thread, count)] = set(seen)
        assert thread is not threading.main_thread() and count == before + 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("ending", ["success", "no_image_readable", "disk_full",
                                        "interrupt_in_save", "interrupt_in_work",
                                        "bug_in_save"])
    def test_nothing_outlives_the_command(self, tmp_path, monkeypatch, capsys, ending):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir(), dst.mkdir()
        write_sources(src, "abc")
        argv = ["augment", str(src), "--out", str(dst)]
        before = threading.active_count()
        if ending == "no_image_readable":
            for stem in "abc":
                (src / f"{stem}.pgm").write_bytes(b"P5\n4 4\n255\n")
        if ending == "disk_full":
            fill_disk_after(monkeypatch, 100)
        if ending in ("interrupt_in_save", "bug_in_save"):
            save_pgm = cli.save_pgm
            fault = KeyboardInterrupt if ending == "interrupt_in_save" else RuntimeError("bug")

            def interrupted(path, img):
                if os.path.basename(path).startswith("b__"):
                    with imaging.atomic_write(path) as f:
                        f.write(b"P5")
                        raise fault
                save_pgm(path, img)

            monkeypatch.setattr(cli, "save_pgm", interrupted)
        if ending == "interrupt_in_work":
            variants, calls = augment.variants, []

            def interrupted(img, spec):  # at the second image, a's saves in flight
                calls.append(img)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                return variants(img, spec)

            monkeypatch.setattr(augment, "variants", interrupted)
        if ending.startswith("interrupt"):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == {"success": 0, "bug_in_save": 3}.get(ending, 2)
        if ending == "bug_in_save":  # not a data error, so no skip but exit 3
            assert "internal error: RuntimeError: bug" in capsys.readouterr().err
        assert threading.active_count() == before
        assert not [name for name in os.listdir(dst) if name.endswith(".tmp")]
        if ending == "interrupt_in_work":  # the first image's saves were finished
            assert sorted(os.listdir(dst)) == sorted(f"a__{tag}.pgm" for tag in TAGS)

    def test_same_bytes_under_a_short_switch_interval(self, tmp_path):
        # the writer reads each image's block while the next image is computed;
        # small images, computed faster than saved, and frequent thread
        # switches make a block reused too early show
        src, dst, ref = tmp_path / "in", tmp_path / "out", tmp_path / "ref"
        src.mkdir(), dst.mkdir(), ref.mkdir()
        rng = Prng(9)
        for stem in "abcdef":
            img = (rng.uniform(16 * 16).reshape(16, 16) * 256).astype(np.uint8)
            imaging.save_pgm(src / f"{stem}.pgm", img)
        augment_in_order(src, ref)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert main(["augment", str(src), "--out", str(dst)]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert tree(dst) == tree(ref)


def test_loading_the_cli_imports_no_executor_or_logging():
    # align and augment import their writer's executor when they run; loading
    # it, and the logging it imports, with the module would slow every command
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, emotionforge.cli as cli; cli.build_parser(); "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True, timeout=60)
    assert run.stdout == "[]\n"


class TestInPlaceRuns:
    """With ``--out`` equal to the input directory, each input is read as a
    sequential loop over the sorted inputs, saving as it goes, would read it."""

    def test_augment_over_an_earlier_runs_variants(self, tmp_path):
        src, ref = tmp_path / "in", tmp_path / "ref"
        src.mkdir(), ref.mkdir()
        rng = Prng(10)
        # a source and stale copies of the two variants its fan-out saves
        # last; the first of them is the next input after a
        images = {"a": toy_pattern(0, rng), f"a__{TAGS[-2]}": toy_pattern(1, rng),
                  f"a__{TAGS[-1]}": toy_pattern(1, rng)}
        for stem, img in images.items():
            imaging.save_pgm(src / f"{stem}.pgm", img)
            imaging.save_pgm(ref / f"{stem}.pgm", img)
        augment_in_order(ref, ref)
        assert main(["augment", str(src), "--out", str(src)]) == 0
        assert tree(src) == tree(ref)
        assert len(tree(src)) == 1 + 3 * 28

    def test_align_into_its_input_directory(self, tmp_path):
        raw, ref = tmp_path / "raw", tmp_path / "ref"
        raw.mkdir(), ref.mkdir()
        for i, gain in enumerate((150, 130, 170)):
            write_face_pair(raw, f"f{i}", face_gain=gain)
            write_face_pair(ref, f"f{i}", face_gain=gain)
        for name in sorted(n for n in os.listdir(ref) if n.endswith(".pgm")):
            path = str(ref / name)
            face = alignment.align_face(imaging.load_pgm(path),
                                        alignment.read_landmarks(alignment.sidecar_path(path)))
            imaging.save_pgm(path, face.image)
        assert main(["align", str(raw), "--out", str(raw)]) == 0
        assert tree(raw) == tree(ref)


class TestReplicatedManifestPaths:
    def test_loads_from_another_directory(self, tmp_path, monkeypatch):
        src = tmp_path / "in"
        dst = tmp_path / "variants"
        elsewhere = tmp_path / "lists" / "deep"
        src.mkdir(), dst.mkdir(), elsewhere.mkdir(parents=True)
        rng = Prng(9)
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, rng))
        imaging.save_pgm(src / "b.pgm", toy_pattern(1, rng))
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\nb.pgm,happy,0.6\n")
        # relative --out, resolved from a working directory that is neither
        # the variants' nor the output manifest's directory
        monkeypatch.chdir(tmp_path)
        mout = elsewhere / "m_aug.csv"
        assert main(["augment", "in", "--out", "variants",
                     "--manifest", "m.csv", "--manifest-out", str(mout)]) == 0
        samples = dataset.load_manifest(mout, "classification")
        assert len(samples) == 56
        assert all(os.path.exists(s.image_path) for s in samples)
        assert {os.path.dirname(os.path.normpath(s.image_path)) for s in samples} == {str(dst)}


class TestAtomicTextArtifacts:
    """A disk that fills while ``--history`` or ``--manifest-out`` is written
    leaves the old file as it was, and no temporary file beside it."""

    def test_history(self, tmp_path, monkeypatch):
        man, vman = make_toy_corpus(tmp_path, n=16, n_train=12, seed=4)
        out = tmp_path / "out"
        out.mkdir()
        hist = out / "hist.csv"
        hist.write_bytes(b"old history\n")
        listings = []
        save_model = train.save_model

        def save_then_fill_disk(params, path):
            save_model(params, path)
            listings.append(fill_disk_after(monkeypatch, 10))

        monkeypatch.setattr(train, "save_model", save_then_fill_disk)
        assert main(["train", man, "--val-manifest", vman, "--out", str(out / "m.emo"),
                     "--history", str(hist), "--iterations", "2", "--batch-size", "4",
                     "--checkpoint-every", "2", "--seed", "7"]) == 2
        assert hist.read_bytes() == b"old history\n"
        assert sorted(os.listdir(out)) == ["hist.csv", "m.emo"]
        [[written]] = listings  # one failure, in a temporary file beside the old one
        assert len(written) == 3 and any(name.endswith(".tmp") for name in written)

    def test_manifest_out(self, tmp_path, monkeypatch):
        src, dst, lists = tmp_path / "in", tmp_path / "out", tmp_path / "lists"
        src.mkdir(), dst.mkdir(), lists.mkdir()
        imaging.save_pgm(src / "a.pgm", toy_pattern(0, Prng(6)))
        manifest = tmp_path / "m.csv"
        manifest.write_text("a.pgm,angry\n")
        mout = lists / "m_aug.csv"
        mout.write_bytes(b"old manifest\n")
        listings = []
        each_image = cli._each_image

        def augment_then_fill_disk(*args):
            ok = each_image(*args)
            listings.append(fill_disk_after(monkeypatch, 10))
            return ok

        monkeypatch.setattr(cli, "_each_image", augment_then_fill_disk)
        assert main(["augment", str(src), "--out", str(dst),
                     "--manifest", str(manifest), "--manifest-out", str(mout)]) == 2
        assert len(os.listdir(dst)) == 28
        assert mout.read_bytes() == b"old manifest\n"
        assert os.listdir(lists) == ["m_aug.csv"]
        [[written]] = listings
        assert len(written) == 2 and any(name.endswith(".tmp") for name in written)


class TestTrainDefaults:
    @pytest.fixture
    def configs(self, monkeypatch):
        """The TrainConfig each ``train`` run builds; the run stops before training."""
        from emotionforge.errors import EmptyDatasetError
        built = []

        def capture(config, train_set, val_set):
            built.append(config)
            raise EmptyDatasetError("stop before training")

        monkeypatch.setattr(train, "train_loop", capture)
        return built

    def test_no_hyperparameter_flags_gives_default_config(self, tmp_path, configs):
        man, vman = make_toy_corpus(tmp_path, n=4, n_train=2, seed=4)
        assert main(["train", man, "--val-manifest", vman,
                     "--out", str(tmp_path / "m.emo")]) == 2
        assert configs == [train.TrainConfig()]

    def test_flags_map_to_config_fields(self, tmp_path, configs):
        man, vman = make_toy_corpus(tmp_path, n=4, n_train=2, seed=4, mode="regression")
        assert main(["train", man, "--val-manifest", vman, "--out", str(tmp_path / "m.emo"),
                     "--mode", "regression", "--seed", "3", "--lr", "0.5",
                     "--momentum", "0.5", "--batch-size", "2", "--iterations", "7",
                     "--checkpoint-every", "5"]) == 2
        assert configs == [train.TrainConfig(learning_rate=0.5, momentum=0.5, batch_size=2,
                                             max_iterations=7, seed=3, checkpoint_every=5,
                                             mode="regression")]


def _readme_cli_examples():
    """Each ``emotionforge`` command of README's CLI block, as an argv list."""
    import shlex
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme) as f:
        text = f.read()
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.split("|")[-1].strip()
        if line.startswith("emotionforge "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


class TestReadmeExamples:
    def test_every_example_parses(self):
        examples = _readme_cli_examples()
        assert {argv[0] for argv in examples} == {"align", "augment", "train", "eval",
                                                  "infer", "stream"}
        for argv in examples:
            args = cli.build_parser().parse_args(argv)
            assert args.func is getattr(cli, f"cmd_{argv[0]}")
