import io
import os
import select
import subprocess
import sys

import numpy as np
import pytest

from emotionforge import alignment, cli, dataset, imaging, train
from emotionforge.cli import main
from helpers import make_toy_corpus, separator_model, synthetic_face, toy_pattern
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

    def test_empty_dir_fails(self, tmp_path):
        (tmp_path / "in").mkdir()
        (tmp_path / "out").mkdir()
        assert main(["augment", str(tmp_path / "in"), "--out", str(tmp_path / "out")]) == 2


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
