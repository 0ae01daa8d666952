import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emotionforge import dataset, imaging
from emotionforge.dataset import EmotionClass
from emotionforge.errors import (
    ApexOnBoundaryError,
    EmptyDatasetError,
    ManifestParseError,
    MissingIntensityColumnError,
    OutOfRangeIntensityError,
    TooFewFramesError,
    UnalignedImageError,
    UnknownClassNameError,
)
from emotionforge.rng import Prng
from helpers import decode_outcome, overwrite

# pieces of manifest text: paths, class names in and out of the list,
# intensities and apex indices in and out of range, separators, comments,
# line breaks and bytes that are not UTF-8
MANIFEST_PIECES = [b"a.pgm", b"d/b.pgm", b"happy", b"NEUTRAL", b"joy", b"0.5", b"1", b"0",
                   b"1.5", b"nan", b"-3", b"x", b"9" * 5000, b",", b",", b",", b" ", b"\t",
                   b"\n", b"\n", b"\r\n", b"#", b"\x00", b"\xff", "\u00e9".encode()]


class TestEmotionClass:
    def test_fixed_index_order(self):
        assert [c.label for c in EmotionClass] == \
            ["angry", "disgust", "fear", "happy", "neutral", "sad", "surprise"]
        assert EmotionClass.ANGRY == 0 and EmotionClass.SURPRISE == 6

    def test_from_name(self):
        assert EmotionClass.from_name("happy") is EmotionClass.HAPPY
        with pytest.raises(UnknownClassNameError):
            EmotionClass.from_name("joyful")


class TestIntensityLabel:
    def test_happy_20(self):
        v = dataset.intensity_label(EmotionClass.HAPPY, 0.2)
        assert v[EmotionClass.HAPPY] == pytest.approx(0.2)
        assert v[EmotionClass.NEUTRAL] == pytest.approx(0.8)
        assert v.sum() == pytest.approx(1.0)

    def test_sad_40(self):
        v = dataset.intensity_label(EmotionClass.SAD, 0.4)
        assert v[EmotionClass.SAD] == pytest.approx(0.4)
        assert v[EmotionClass.NEUTRAL] == pytest.approx(0.6)
        assert np.count_nonzero(v) == 2

    def test_neutral_ignores_k(self):
        for k in (0.2, 0.7, 1.0):
            v = dataset.intensity_label(EmotionClass.NEUTRAL, k)
            assert v[EmotionClass.NEUTRAL] == 1.0 and v.sum() == 1.0

    def test_components_sum_to_one(self):
        for cls in EmotionClass:
            for k in (0.2, 0.4, 0.6, 0.8, 1.0, 0.37):
                assert dataset.intensity_label(cls, k).sum() == pytest.approx(1.0)

    def test_out_of_range(self):
        for k in (0.0, -0.1, 1.2):
            with pytest.raises(OutOfRangeIntensityError):
                dataset.intensity_label(EmotionClass.HAPPY, k)


class TestSequences:
    def test_intensity_targets(self):
        v = dataset.sequence_intensities()
        assert len(v) == 9
        assert v[4] == 1.0
        assert v.tolist() == v.tolist()[::-1]  # palindrome
        assert v.tolist() == [0.2, 0.4, 0.6, 0.8, 1.0, 0.8, 0.6, 0.4, 0.2]

    def test_nine_frames_takes_all(self):
        assert dataset.select_sequence_frames(9, 4) == list(range(9))

    def test_eleven_frames_linear_ramp(self):
        assert dataset.select_sequence_frames(11, 5) == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_strictly_increasing_everywhere(self):
        for n in range(9, 40):
            for apex in range(4, n - 4):
                picks = dataset.select_sequence_frames(n, apex)
                assert len(picks) == 9
                assert picks[4] == apex
                assert all(a < b for a, b in zip(picks, picks[1:]))
                assert picks[0] >= 0 and picks[-1] <= n - 1

    def test_too_few_frames(self):
        with pytest.raises(TooFewFramesError):
            dataset.select_sequence_frames(8, 4)

    def test_apex_on_boundary(self):
        with pytest.raises(ApexOnBoundaryError):
            dataset.select_sequence_frames(9, 1)
        with pytest.raises(ApexOnBoundaryError):
            dataset.select_sequence_frames(12, 8)


@pytest.fixture
def corpus(tmp_path):
    rng = Prng(77)
    paths = []
    for i in range(10):
        img = (rng.uniform(128 * 128).reshape(128, 128) * 256).astype(np.uint8)
        p = tmp_path / f"img{i}.pgm"
        imaging.save_pgm(p, img)
        paths.append(p.name)
    return tmp_path, paths


class TestManifest:
    def test_classification_line(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"# header comment\n{paths[0]},happy\n\n{paths[1]},sad\n")
        samples = dataset.load_manifest(man, "classification")
        assert len(samples) == 2
        assert samples[0].label is EmotionClass.HAPPY
        assert samples[0].intensity is None
        assert samples[0].image_path == str(tmp / paths[0])
        assert samples[0].landmark_path.endswith(".lm68")

    def test_regression_line(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},happy,0.6\n")
        s = dataset.load_manifest(man, "regression")[0]
        assert s.intensity[EmotionClass.HAPPY] == pytest.approx(0.6)
        assert s.intensity[EmotionClass.NEUTRAL] == pytest.approx(0.4)

    def test_apex_column(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},surprise,1.0,14\n")
        s = dataset.load_manifest(man, "regression")[0]
        assert s.apex == 14

    def test_unknown_class(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},joyful\n")
        with pytest.raises(UnknownClassNameError):
            dataset.load_manifest(man, "classification")

    def test_missing_intensity(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},happy\n")
        with pytest.raises(MissingIntensityColumnError):
            dataset.load_manifest(man, "regression")

    def test_parse_errors_carry_line_number(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},happy,0.5\n{paths[1]},happy,zero\n")
        with pytest.raises(ManifestParseError, match=":2:"):
            dataset.load_manifest(man, "regression")

    def test_intensity_out_of_range_in_manifest(self, corpus):
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},happy,1.5\n")
        with pytest.raises(ManifestParseError):
            dataset.load_manifest(man, "regression")


class TestBatches:
    def make_samples(self, corpus, n=10):
        tmp, paths = corpus
        man = tmp / "m.csv"
        names = [f"img{i % 10}.pgm" for i in range(n)]
        man.write_text("".join(f"{p},{'happy' if i % 2 else 'angry'}\n"
                               for i, p in enumerate(names)))
        return dataset.load_manifest(man, "classification")

    def test_batch_sizes(self, corpus):
        samples = self.make_samples(corpus, 10)
        sizes = [b.inputs.shape[0] for b in dataset.batches(samples, 4, seed=1, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_shapes_and_scaling(self, corpus):
        samples = self.make_samples(corpus, 6)
        batch = next(dataset.batches(samples, 6, seed=1, epoch=0))
        assert batch.inputs.shape == (6, 1, 128, 128)
        assert batch.inputs.dtype == np.float32
        assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0
        assert batch.class_targets.shape == (6,)
        assert batch.intensity_targets is None

    def test_deterministic_per_epoch(self, corpus):
        samples = self.make_samples(corpus, 10)
        a = [b.class_targets.tolist() for b in dataset.batches(samples, 3, seed=9, epoch=2)]
        b = [b.class_targets.tolist() for b in dataset.batches(samples, 3, seed=9, epoch=2)]
        assert a == b

    def test_epochs_differ(self, corpus):
        samples = self.make_samples(corpus, 10)
        perm0 = Prng.derive(5, 1, 0).permutation(100)
        perm1 = Prng.derive(5, 1, 1).permutation(100)
        assert not (perm0 == perm1).all()
        a = np.concatenate([b.inputs.ravel() for b in dataset.batches(samples, 4, 5, 0)])
        b = np.concatenate([b.inputs.ravel() for b in dataset.batches(samples, 4, 5, 1)])
        assert not np.array_equal(a, b)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            next(dataset.batches([], 4, seed=0, epoch=0))

    def test_rejects_unaligned_images(self, corpus, tmp_path):
        tmp, _ = corpus
        imaging.save_pgm(tmp / "small.pgm", np.zeros((64, 64), dtype=np.uint8))
        man = tmp / "m.csv"
        man.write_text("small.pgm,happy\n")
        samples = dataset.load_manifest(man, "classification")
        with pytest.raises(ValueError, match="128x128"):
            next(dataset.batches(samples, 1, seed=0, epoch=0))

    def test_unaligned_image_is_a_typed_error(self, corpus):
        tmp, _ = corpus
        imaging.save_pgm(tmp / "wide.pgm", np.zeros((128, 129), dtype=np.uint8))
        sample = dataset.Sample(str(tmp / "wide.pgm"), str(tmp / "wide.lm68"),
                                EmotionClass.HAPPY)
        with pytest.raises(UnalignedImageError, match="129x128"):
            dataset.load_batch_inputs([sample])


class TestManifestRows:
    def test_skips_blank_and_comment_lines_and_strips_fields(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_text("# comment\n\n a.pgm , happy ,0.5\n  \nb.pgm,sad\n")
        assert list(dataset.manifest_rows(man)) == [(3, ["a.pgm", "happy", "0.5"]),
                                                     (5, ["b.pgm", "sad"])]

    def test_non_utf8_manifest_is_a_parse_error_naming_the_file(self, tmp_path):
        man = tmp_path / "m.csv"
        man.write_bytes(b"a.pgm,happy\nb\xff.pgm,sad\n")
        with pytest.raises(ManifestParseError, match=r"m\.csv"):
            dataset.load_manifest(man, "classification")

    @settings(max_examples=300)
    @given(st.binary(max_size=24))
    def test_any_text_loads_or_raises_a_typed_error(self, input_file, picks):
        overwrite(input_file, b"".join(MANIFEST_PIECES[i % len(MANIFEST_PIECES)] for i in picks))
        for mode in dataset.MODES:
            decode_outcome(dataset.load_manifest, input_file, mode)

    def test_out_of_range_intensity_keeps_line_prefix(self, corpus):
        # intensity_label owns the range; the manifest error names the line
        tmp, paths = corpus
        man = tmp / "m.csv"
        man.write_text(f"{paths[0]},happy,0.5\n{paths[1]},happy,0\n")
        with pytest.raises(ManifestParseError, match=r"m\.csv:2: intensity 0\.0 outside"):
            dataset.load_manifest(man, "regression")
