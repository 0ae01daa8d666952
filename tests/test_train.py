import numpy as np
import pytest

from emotionforge import dataset, nn, train
from emotionforge.errors import (
    BadMagicError,
    ChecksumMismatchError,
    EmptyDatasetError,
    ModelIoError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
)
from emotionforge.rng import Prng
from helpers import make_toy_corpus


def params_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


@pytest.fixture(scope="module")
def tiny_sets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    man, vman = make_toy_corpus(tmp, n=24, n_train=16, seed=3)
    return (dataset.load_manifest(man, "classification"),
            dataset.load_manifest(vman, "classification"))


class TestSgdStep:
    def test_two_step_hand_case(self):
        p = np.array([1.0], dtype=np.float32)
        v = np.array([0.0], dtype=np.float32)
        g = np.array([1.0], dtype=np.float32)
        train.sgd_step([p], [v], [g], lr=0.1, momentum=0.9)
        assert v[0] == pytest.approx(-0.1) and p[0] == pytest.approx(0.9)
        train.sgd_step([p], [v], [g], lr=0.1, momentum=0.9)
        assert v[0] == pytest.approx(-0.19) and p[0] == pytest.approx(0.71)

    def test_zero_momentum_is_vanilla(self):
        p = np.array([2.0, -1.0])
        v = np.zeros(2)
        g = np.array([0.5, 0.25])
        train.sgd_step([p], [v], [g], lr=0.1, momentum=0.0)
        assert np.allclose(p, [1.95, -1.025])

    def test_zero_lr_keeps_params(self):
        p = np.array([3.0])
        v = np.array([0.4])
        train.sgd_step([p], [v], [np.array([9.0])], lr=0.0, momentum=0.5)
        assert p[0] == pytest.approx(3.0 + 0.2) and v[0] == pytest.approx(0.2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            train.sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0.1, 0.9)


class TestTrainLoop:
    def cfg(self, iters, **kw):
        kw.setdefault("learning_rate", 0.01)
        kw.setdefault("batch_size", 4)
        kw.setdefault("checkpoint_every", 4)
        kw.setdefault("seed", 5)
        return train.TrainConfig(max_iterations=iters, **kw)

    def test_deterministic_across_reruns(self, tiny_sets):
        tr, va = tiny_sets
        ck1, h1 = train.train_loop(self.cfg(6), tr, va)
        ck2, h2 = train.train_loop(self.cfg(6), tr, va)
        assert params_equal(ck1.params, ck2.params)
        assert h1.train_loss == h2.train_loss

    def test_resume_equivalence(self, tiny_sets):
        tr, va = tiny_sets
        full, _ = train.train_loop(self.cfg(8), tr, va)
        half, _ = train.train_loop(self.cfg(4), tr, va)
        resumed, _ = train.train_loop(self.cfg(8), tr, va, resume_from=half)
        assert params_equal(full.params, resumed.params)
        assert all(np.array_equal(a, b) for a, b in zip(full.velocities, resumed.velocities))
        assert full.history.train_loss == resumed.history.train_loss

    def test_history_shapes(self, tiny_sets):
        tr, va = tiny_sets
        _, hist = train.train_loop(self.cfg(6, checkpoint_every=2), tr, va)
        assert len(hist.train_loss) == 6
        assert [r.iteration for r in hist.val_records] == [2, 4, 6]
        assert all(np.isfinite(r.loss) for r in hist.val_records)

    def test_empty_dataset(self, tiny_sets):
        tr, va = tiny_sets
        with pytest.raises(EmptyDatasetError):
            train.train_loop(self.cfg(2), [], va)
        with pytest.raises(EmptyDatasetError):
            train.train_loop(self.cfg(2), tr, [])

    def test_divergence_raises_non_finite_loss(self, tiny_sets):
        tr, va = tiny_sets
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLossError):
            train.train_loop(self.cfg(30, learning_rate=1e5), tr, va)

    def test_regression_mode_runs(self, tmp_path):
        man, vman = make_toy_corpus(tmp_path, n=16, n_train=12, seed=8, mode="regression")
        tr = dataset.load_manifest(man, "regression")
        va = dataset.load_manifest(vman, "regression")
        _, hist = train.train_loop(self.cfg(3, mode="regression", checkpoint_every=3), tr, va)
        assert len(hist.train_loss) == 3
        assert 0.0 <= hist.val_records[-1].accuracy <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            train.TrainConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            train.TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            train.TrainConfig(mode="both")


class TestModelFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        p = nn.init_params(seed=12, input_hw=16, mode="regression")
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        back = train.load_model(path)
        assert back.mode == "regression"
        assert back.layers == p.layers
        assert all(np.array_equal(a, b) for a, b in zip(back.weights, p.weights))
        assert all(np.array_equal(a, b) for a, b in zip(back.biases, p.biases))

    def test_emo_net_file_size_under_budget(self, tmp_path):
        p = nn.init_params(seed=0)
        path = tmp_path / "full.emo"
        train.save_model(p, path)
        size = path.stat().st_size
        assert size > p.param_count * 4  # payload plus header
        assert size < 12.1 * 1024 * 1024

    def test_corrupted_checksum(self, tmp_path):
        p = nn.init_params(seed=1, input_hw=16)
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError):
            train.load_model(path)

    def test_corrupted_payload(self, tmp_path):
        p = nn.init_params(seed=1, input_hw=16)
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError):
            train.load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emo"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(BadMagicError):
            train.load_model(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        p = nn.init_params(seed=1, input_hw=16)
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 99)  # bump version, then re-sign
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[4:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            train.load_model(path)

    def test_truncated(self, tmp_path):
        p = nn.init_params(seed=1, input_hw=16)
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:10])
        with pytest.raises(ModelIoError):
            train.load_model(path)

    def test_layer_table_bytes(self, tmp_path):
        # the header and descriptors as README documents them, for the
        # 16x16 clone: kind bytes conv 0, relu 1, maxpool 2, flatten 3,
        # fc 4, dropout 5; conv u32 in_ch,out_ch,kh,kw,stride,pad; fc u32
        # in_dim,out_dim
        import struct
        path = tmp_path / "m.emo"
        train.save_model(nn.init_params(seed=3, input_hw=16), path)
        expected = (b"EMO1" + struct.pack("<IBI", 1, 0, 14)
                    + struct.pack("<B6I", 0, 1, 32, 5, 5, 2, 2) + bytes([1, 2])
                    + struct.pack("<B6I", 0, 32, 64, 3, 3, 1, 1) + bytes([1, 2])
                    + struct.pack("<B6I", 0, 64, 128, 3, 3, 1, 1) + bytes([1, 2, 3])
                    + struct.pack("<B2I", 4, 128, 256) + bytes([1, 5])
                    + struct.pack("<B2I", 4, 256, 7))
        assert path.read_bytes()[:len(expected)] == expected

    def test_truncated_layer_table(self, tmp_path):
        import struct
        import zlib
        p = nn.init_params(seed=1, input_hw=16)
        path = tmp_path / "m.emo"
        train.save_model(p, path)
        # cut inside the first conv descriptor, then re-sign
        payload = path.read_bytes()[4:4 + 9 + 1 + 10]
        path.write_bytes(b"EMO1" + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(ModelIoError, match="truncated layer table"):
            train.load_model(path)


class TestGradientCheck:
    def make_batch(self, mode):
        x = Prng.derive(99, 5).uniform(2 * 16 * 16).reshape(2, 1, 16, 16).astype(np.float32)
        if mode == "classification":
            return dataset.Batch(inputs=x, class_targets=np.array([1, 4]),
                                 intensity_targets=None)
        it = np.stack([dataset.intensity_label(dataset.EmotionClass.HAPPY, 0.6),
                       dataset.intensity_label(dataset.EmotionClass.NEUTRAL, 1.0)])
        return dataset.Batch(inputs=x, class_targets=np.array([3, 4]),
                             intensity_targets=it)

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_reduced_net_passes(self, mode):
        p = nn.init_params(seed=3, input_hw=16)
        report = train.gradient_check(p, self.make_batch(mode), mode, coords_per_tensor=60)
        assert report.passed, (report.max_error, report.worst_tensor, report.worst_coord)
        assert report.max_error < 1e-3

    def test_raw_loss_probe_with_small_step(self):
        # cross-check against the unfrozen loss: a tiny step keeps the FD
        # probe on the same linear piece the backward pass differentiates
        p = nn.init_params(seed=3, input_hw=16)
        report = train.gradient_check(p, self.make_batch("classification"),
                                      "classification", eps=1e-6,
                                      coords_per_tensor=40, freeze_routing=False)
        assert report.max_error < 1e-3

    def test_relative_error_fallback(self):
        assert train._relative_error(0.0, 0.0) == 0.0
        assert train._relative_error(0.0, 4e-9) == pytest.approx(4e-9)
        assert train._relative_error(1.0, 2.0) == pytest.approx(1 / 3)


class TestEvaluateDataset:
    def test_empty_set_is_typed_error(self):
        p = nn.init_params(seed=0, input_hw=16)
        with pytest.raises(EmptyDatasetError):
            train.evaluate_dataset(p, [], "classification")


class TestBatchOrder:
    """train_loop consumes its batches in dataset.batches order."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        seen = []
        real = dataset.load_batch_inputs

        def record(samples, *args, **kwargs):
            seen.append([s.image_path for s in samples])
            return real(samples, *args, **kwargs)

        monkeypatch.setattr(dataset, "load_batch_inputs", record)
        monkeypatch.setattr(train, "load_batch_inputs", record)
        return seen

    def test_matches_dataset_batches_and_resume(self, tmp_path, decoded):
        man, vman = make_toy_corpus(tmp_path, n=12, n_train=10, seed=6)
        tr = dataset.load_manifest(man, "classification")
        va = dataset.load_manifest(vman, "classification")
        val_paths = {s.image_path for s in va}
        for epoch in (0, 1):
            list(dataset.batches(tr, 4, seed=5, epoch=epoch))
        expected = list(decoded)
        assert [len(chunk) for chunk in expected] == [4, 4, 2, 4, 4, 2]

        def train_batches():
            out = [chunk for chunk in decoded if not val_paths.intersection(chunk)]
            decoded.clear()
            return out

        def cfg(iters):
            return train.TrainConfig(max_iterations=iters, batch_size=4,
                                     checkpoint_every=100, seed=5)

        p0 = nn.init_params(seed=5)
        decoded.clear()
        train.train_loop(cfg(6), tr, va, params=p0.copy())
        assert train_batches() == expected
        half, _ = train.train_loop(cfg(4), tr, va, params=p0.copy())
        assert train_batches() == expected[:4]
        train.train_loop(cfg(6), tr, va, resume_from=half)
        assert train_batches() == expected[4:]
