import math
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emotionforge import dataset, nn, train
from emotionforge.errors import (
    BadMagicError,
    ChecksumMismatchError,
    EmptyDatasetError,
    ModelIoError,
    ModelModeMismatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
)
from emotionforge.rng import Prng
from helpers import decode_outcome, fill_disk_after, make_toy_corpus, overwrite, traced_peak


def params_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def load_model_per_tensor(path) -> nn.ModelParams:
    """An EMO1 reader that sizes and reads one tensor at a time with
    ``np.prod``: the oracle for load_model."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != train._MAGIC:
        raise BadMagicError(f"{path}: not an EMO1 model file")
    if len(blob) < 4 + train._HEADER.size + 4:
        raise ModelIoError(f"{path}: truncated header")
    payload, trailer = blob[4:-4], blob[-4:]
    if zlib.crc32(payload) != struct.unpack("<I", trailer)[0]:
        raise ChecksumMismatchError(f"{path}: CRC-32 mismatch")
    version, mode_byte, layer_count = train._HEADER.unpack_from(payload)
    if version != train._VERSION:
        raise VersionMismatchError(f"{path}: format version {version}")
    if mode_byte >= len(dataset.MODES):
        raise ModelIoError(f"{path}: bad mode byte {mode_byte}")
    off = train._HEADER.size
    layers = []
    try:
        for _ in range(layer_count):
            kind = train._BYTE_TO_KIND.get(payload[off])
            if kind is None:
                raise ModelIoError(f"{path}: unknown layer kind byte {payload[off]}")
            fields = train._DESCRIPTOR_FIELDS.get(kind, ())
            values = struct.unpack_from(f"<{len(fields)}I", payload, off + 1)
            off += 1 + 4 * len(fields)
            layers.append(nn.LayerSpec(kind, **dict(zip(fields, values))))
    except (struct.error, IndexError):
        raise ModelIoError(f"{path}: truncated layer table") from None

    def tensor(shape):
        nonlocal off
        count = int(np.prod(shape))
        if off + 4 * count > len(payload):
            raise ModelIoError(f"{path}: truncated tensor data")
        out = np.frombuffer(payload, dtype="<f4", count=count, offset=off)
        off += 4 * count
        return out.reshape(shape).astype(np.float32)

    shapes = [spec.weight_shape for spec in layers if spec.parametric]
    weights = [tensor(shape) for shape in shapes]
    biases = [tensor(shape[:1]) for shape in shapes]
    if off != len(payload):
        raise ModelIoError(f"{path}: {len(payload) - off} unexpected trailing bytes")
    return nn.ModelParams(layers=layers, weights=weights, biases=biases,
                          mode=dataset.MODES[mode_byte])


def model_outcome(load, path):
    """``decode_outcome`` of a model reader, with the model as comparable bytes."""
    def fingerprint(path):
        p = load(path)
        return p.mode, p.layers, [(t.dtype.str, t.shape, t.tobytes())
                                  for t in p.weights + p.biases]
    return decode_outcome(fingerprint, path)


def signed_model(payload: bytes) -> bytes:
    """An EMO1 file around ``payload``, with a valid CRC-32 trailer."""
    return b"EMO1" + payload + struct.pack("<I", zlib.crc32(payload))


# descriptor fields: small sizes that decode, and sizes whose element count
# overflows int64 or exceeds any file
FIELD_VALUES = [0, 1, 1, 2, 2, 3, 3, 65535, 65536, 2**31, 2**32 - 1]


def emo1_payload(layer_picks: bytes, picks: bytes) -> tuple[bytes, int]:
    """An EMO1 payload made from drawn bytes, and a cut position in it.

    Each 7 bytes of ``layer_picks`` give a kind byte (0-5 known, 6 unknown)
    and its descriptor fields; a short last group leaves the table truncated.
    ``picks`` choose the version, the mode byte, a layer count off by -1..1,
    tensor data a few bytes off the size the table asks for, and the cut.
    """
    version, mode, count_delta, size_delta, cut = picks
    rows = [layer_picks[i : i + 7] for i in range(0, len(layer_picks), 7)]
    payload = struct.pack("<IBI", 1 if version < 240 else 2, (0, 1, 0, 1, 2)[mode % 5],
                          (len(rows) + (0, 0, 0, -1, 1)[count_delta % 5]) % 2**32)
    need = 0
    for kind_byte, *field_picks in rows:
        kind = train._BYTE_TO_KIND.get(kind_byte % 7)
        names = train._DESCRIPTOR_FIELDS.get(kind, ())
        fields = [FIELD_VALUES[p % len(FIELD_VALUES)] for p in field_picks][:len(names)]
        payload += struct.pack(f"<B{len(fields)}I", kind_byte % 7, *fields)
        if names and len(fields) == len(names):
            shape = nn.LayerSpec(kind, **dict(zip(names, fields))).weight_shape
            need += math.prod(shape) + shape[0]
    size = max(0, (4 * need if need < 512 else 8) + (-4, -1, 0, 0, 0, 1, 4)[size_delta % 7])
    payload += bytes((37 * i + 11) % 256 for i in range(size))
    return payload, cut * len(payload) // 255


emo1_payloads = st.builds(emo1_payload, st.binary(max_size=28), st.binary(min_size=5, max_size=5))


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

    def test_resume_at_max_iterations_returns_the_checkpoint(self, tiny_sets):
        tr, va = tiny_sets
        done, _ = train.train_loop(self.cfg(4), tr, va)
        again, hist = train.train_loop(self.cfg(4), tr, va, resume_from=done)
        assert again.iteration == 4
        assert params_equal(again.params, done.params)
        assert all(np.array_equal(a, b) for a, b in zip(again.velocities, done.velocities))
        assert hist.train_loss == done.history.train_loss
        assert hist.val_records == done.history.val_records

    def test_resume_past_max_iterations_is_rejected(self, tiny_sets):
        tr, va = tiny_sets
        ahead, _ = train.train_loop(self.cfg(6), tr, va)
        with pytest.raises(ValueError, match="past max_iterations 4"):
            train.train_loop(self.cfg(4), tr, va, resume_from=ahead)

    def test_resume_under_another_config_is_rejected(self, tmp_path):
        man, vman = make_toy_corpus(tmp_path, n=12, n_train=10, seed=6)
        tr = dataset.load_manifest(man, "classification")
        va = dataset.load_manifest(vman, "classification")
        half, _ = train.train_loop(self.cfg(2), tr, va)
        with pytest.raises(ValueError, match=r"differs .* in learning_rate, batch_size, seed$"):
            train.train_loop(self.cfg(4, seed=9, batch_size=3, learning_rate=0.5), tr, va,
                             resume_from=half)
        resumed, hist = train.train_loop(self.cfg(4), tr, va, resume_from=half)
        assert resumed.iteration == 4 and len(hist.train_loss) == 4

    @pytest.mark.parametrize("change", [
        {"learning_rate": 0.02}, {"momentum": 0.5}, {"batch_size": 3}, {"seed": 6},
        {"checkpoint_every": 2}, {"mode": "regression"},
    ])
    def test_each_config_field_but_max_iterations_must_match(self, tiny_sets, change):
        tr, va = tiny_sets
        ckpt, _ = train.train_loop(self.cfg(1), tr, va)
        with pytest.raises(ValueError, match=f"in {next(iter(change))}$"):
            train.train_loop(self.cfg(4, **change), tr, va, resume_from=ckpt)

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

    def test_params_of_another_head_are_rejected_before_a_step(self):
        # the image paths do not exist, so a decoded batch would fail another way
        samples = [dataset.Sample("missing.pgm", dataset.EmotionClass.HAPPY)]
        params = nn.init_params(seed=5, input_hw=16, mode="regression")
        with pytest.raises(ModelModeMismatchError):
            train.train_loop(self.cfg(2), samples, samples, params=params)

    def test_holds_one_step_at_a_time(self, tmp_path):
        man, vman = make_toy_corpus(tmp_path, n=72, n_train=64, seed=9)
        train_set = dataset.load_manifest(man, "classification")
        val_set = dataset.load_manifest(vman, "classification")
        config = train.TrainConfig(batch_size=64, max_iterations=3, checkpoint_every=3, seed=9)
        params = nn.init_params(9)
        peak = traced_peak(lambda: train.train_loop(config, train_set, val_set, params=params))
        # ~90 MiB; holding the last step's caches and gradients through the
        # next step would take it to ~98 MiB
        assert peak <= 93 * 2**20

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
        # TrainConfig is the only guard on these three; nothing downstream checks them
        for field in ("batch_size", "max_iterations", "checkpoint_every"):
            with pytest.raises(ValueError):
                train.TrainConfig(**{field: 0})


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

    def test_full_disk_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.emo"
        train.save_model(nn.init_params(seed=1, input_hw=16), path)
        old = path.read_bytes()
        listings = fill_disk_after(monkeypatch, len(old) // 2)
        with pytest.raises(OSError):
            train.save_model(nn.init_params(seed=2, input_hw=16), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.emo"]
        assert [len(names) for names in listings] == [2]  # failed beside it, halfway

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


class TestModelFileGrammar:
    @pytest.mark.parametrize("conv, floats", [
        # 65536**4 wraps to 0 in int64, so the 65536 bias floats are all the
        # data a wrapped count would ask for
        ((65536, 65536, 65536, 65536, 1, 0), 65536),
        ((3, 5, 2**32 - 1, 2**32 - 1, 1, 0), 0),
    ])
    def test_overflowing_layer_sizes_are_a_model_io_error(self, tmp_path, conv, floats):
        path = tmp_path / "m.emo"
        path.write_bytes(signed_model(struct.pack("<IBI", 1, 0, 1)
                                      + struct.pack("<B6I", 0, *conv) + bytes(4 * floats)))
        with pytest.raises(ModelIoError):
            train.load_model(path)

    @settings(max_examples=300)
    @given(emo1_payloads)
    def test_agrees_with_per_tensor_reader(self, input_file, payload_and_cut):
        """The same model bytes or error class as the per-tensor oracle, except
        that sizes the oracle's int64 count wraps on are a ModelIoError, not
        the oracle's bare ValueError."""
        payload, cut = payload_and_cut
        for data in (payload, payload[:cut]):
            overwrite(input_file, signed_model(data))
            try:
                expected = model_outcome(load_model_per_tensor, input_file)
            except ValueError:
                expected = ModelIoError
            assert model_outcome(train.load_model, input_file) == expected, data


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
        assert report.max_error < 1e-3, (report.max_error, report.worst_tensor,
                                         report.worst_coord)

    def test_raw_loss_probe_with_small_step(self):
        # cross-check against the unfrozen loss: a tiny step keeps the FD
        # probe on the same linear piece the backward pass differentiates
        p = nn.init_params(seed=3, input_hw=16).astype(np.float64)
        batch = self.make_batch("classification")
        x = batch.inputs.astype(np.float64)
        logits, caches = nn.forward(p, x, mode="train", rng=None)
        dweights, dbiases = nn.backward(p, caches, train._batch_loss(
            batch, "classification", logits).dlogits)

        def loss_value():
            return train._batch_loss(batch, "classification",
                                     nn.forward(p, x, mode="infer")).value

        eps, rng, worst = 1e-6, Prng.derive(0, 3), 0.0
        for tensor, grad in zip(p.weights + p.biases, dweights + dbiases):
            flat = tensor.reshape(-1)
            for ci in rng.choice(flat.size, 40):
                keep = flat[ci]
                flat[ci] = keep + eps
                up = loss_value()
                flat[ci] = keep - eps
                down = loss_value()
                flat[ci] = keep
                numeric = (up - down) / (2 * eps)
                worst = max(worst, train._relative_error(float(grad.reshape(-1)[ci]), numeric))
        assert worst < 1e-3

    def test_relative_error_fallback(self):
        assert train._relative_error(0.0, 0.0) == 0.0
        assert train._relative_error(0.0, 4e-9) == pytest.approx(4e-9)
        assert train._relative_error(1.0, 2.0) == pytest.approx(1 / 3)


class TestEvaluateDataset:
    def test_empty_set_is_typed_error(self):
        p = nn.init_params(seed=0, input_hw=16)
        with pytest.raises(EmptyDatasetError):
            train.evaluate_dataset(p, [], "classification")

    def test_model_of_another_head_is_typed_error(self):
        p = nn.init_params(seed=0, input_hw=16, mode="regression")
        samples = [dataset.Sample("missing.pgm", dataset.EmotionClass.HAPPY)]
        with pytest.raises(ModelModeMismatchError):
            train.evaluate_dataset(p, samples, "classification")


class TestBatchOrder:
    """train_loop consumes epoch e as the lane (seed, 1, e) permutation, cut
    into batch_size pieces, and a resume continues that order mid-epoch."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        seen = []
        real = train.load_batch_inputs

        def record(samples, *args, **kwargs):
            seen.append([s.image_path for s in samples])
            return real(samples, *args, **kwargs)

        monkeypatch.setattr(train, "load_batch_inputs", record)
        return seen

    def test_matches_epoch_permutation_and_resume(self, tmp_path, decoded):
        man, vman = make_toy_corpus(tmp_path, n=12, n_train=10, seed=6)
        tr = dataset.load_manifest(man, "classification")
        va = dataset.load_manifest(vman, "classification")
        val_paths = {s.image_path for s in va}
        expected = []
        for epoch in (0, 1):
            perm = Prng.derive(5, 1, epoch).permutation(10)
            expected += [[tr[i].image_path for i in perm[start : start + 4]]
                         for start in (0, 4, 8)]
        assert [len(chunk) for chunk in expected] == [4, 4, 2, 4, 4, 2]

        def train_batches():
            out = [chunk for chunk in decoded if not val_paths.intersection(chunk)]
            decoded.clear()
            return out

        def cfg(iters):
            return train.TrainConfig(max_iterations=iters, batch_size=4,
                                     checkpoint_every=100, seed=5)

        p0 = nn.init_params(seed=5)
        train.train_loop(cfg(6), tr, va, params=p0.copy())
        assert train_batches() == expected
        half, _ = train.train_loop(cfg(4), tr, va, params=p0.copy())
        assert train_batches() == expected[:4]
        train.train_loop(cfg(6), tr, va, resume_from=half)
        assert train_batches() == expected[4:]


class TestModeByte:
    def test_regression_model_mode_byte_is_one(self, tmp_path):
        # byte 8: after the magic and the u32 version
        path = tmp_path / "r.emo"
        train.save_model(nn.init_params(seed=3, input_hw=16, mode="regression"), path)
        assert path.read_bytes()[8] == 1
