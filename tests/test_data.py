"""Unit tests for blob generation, IDX loading, and splitting."""

import numpy as np
import pytest

from conftest import write_idx_pair
from snapstack import (
    BadMagicError,
    CountMismatchError,
    Dataset,
    FormatError,
    InputError,
    SplitSpec,
    TruncatedFileError,
    fingerprint,
    load_idx,
    make_blobs,
    split,
)
from snapstack.data import load_idx_split


class TestMakeBlobs:
    def test_deterministic(self):
        a = make_blobs(3, 50, 2, 0.7, seed=5)
        b = make_blobs(3, 50, 2, 0.7, seed=5)
        assert a == b

    def test_balanced_labels(self):
        data = make_blobs(3, 200, 2, 1.0, seed=0)
        assert data.num_examples == 600
        assert np.bincount(data.labels).tolist() == [200, 200, 200]

    def test_near_zero_spread_is_nearest_centroid_separable(self):
        data = make_blobs(4, 50, 3, 1e-9, seed=3)
        centroids = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in range(4)]
        )
        dists = ((data.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.all(dists.argmin(axis=1) == data.labels)

    def test_shared_centers_seed_gives_same_geometry(self):
        a = make_blobs(3, 400, 2, 1e-9, seed=1, centers_seed=9)
        b = make_blobs(3, 400, 2, 1e-9, seed=2, centers_seed=9)
        # different noise draws...
        assert a != b
        # ...but identical cluster centers (spread ~ 0 collapses onto them)
        for c in range(3):
            np.testing.assert_allclose(
                a.features[a.labels == c].mean(axis=0),
                b.features[b.labels == c].mean(axis=0),
                atol=1e-8,
            )

    def test_validation(self):
        with pytest.raises(InputError):
            make_blobs(1, 10, 2, 1.0, seed=0)
        with pytest.raises(InputError):
            make_blobs(3, 0, 2, 1.0, seed=0)
        with pytest.raises(InputError):
            make_blobs(3, 10, 1, 1.0, seed=0)
        with pytest.raises(InputError):
            make_blobs(3, 10, 2, 0.0, seed=0)


class TestLoadIdx:
    def test_hand_crafted_pair(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 64]], [[255, 0], [0, 255]]], dtype=np.uint8
        )
        labels = np.array([1, 0], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl)
        assert data.num_examples == 2
        assert data.features.shape == (2, 4)
        np.testing.assert_allclose(data.features[0], [0.0, 1.0, 128 / 255, 64 / 255])
        assert data.labels.tolist() == [1, 0]

    def test_round_trip_bit_exact_after_descaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (30, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, 30, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl)
        descale = np.rint(data.features * 255.0).astype(np.uint8)
        assert np.array_equal(descale.reshape(30, 4, 5), images)
        assert np.array_equal(data.labels, labels.astype(np.int64))

    def test_limit(self, tmp_path):
        images = np.zeros((120, 2, 2), dtype=np.uint8)
        labels = np.arange(120, dtype=np.uint8) % 7
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl, limit=100, num_classes=7)
        assert data.num_examples == 100

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lbl = tmp_path / "bad_labels.idx"
        lbl.write_bytes(
            (0x00000801).to_bytes(4, "big") + (3).to_bytes(4, "big") + bytes([0, 1, 0])
        )
        with pytest.raises(CountMismatchError):
            load_idx(img, lbl)

    def test_zero_images_rejected_naming_file(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2), dtype=np.uint8), [])
        with pytest.raises(FormatError, match="images.idx.*0 images"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("shape", [(2, 0, 2), (2, 2, 0)], ids=["0-rows", "0-cols"])
    def test_zero_pixel_images_rejected_naming_file(self, tmp_path, shape):
        img, lbl = write_idx_pair(tmp_path, np.zeros(shape, dtype=np.uint8), [0, 1])
        with pytest.raises(FormatError, match="images.idx.*-pixel images"):
            load_idx(img, lbl)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        corrupted = tmp_path / "corrupt.idx"
        raw = bytearray(img.read_bytes())
        raw[0] ^= 0xFF
        corrupted.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_idx(corrupted, lbl)

    def test_truncated_payload(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 0])
        cut = tmp_path / "cut.idx"
        cut.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_idx(cut, lbl)


class TestLoadIdxSplit:
    """load_idx_split equals split(load_idx(...)): datasets, fingerprints, errors."""

    @pytest.mark.parametrize("limit, num_classes, fraction", [(None, None, 0.2), (37, 10, 0.33)])
    def test_equals_split_of_load(self, tmp_path, limit, num_classes, fraction):
        rng = np.random.default_rng(4)
        img, lbl = write_idx_pair(
            tmp_path, rng.integers(0, 256, (50, 3, 4)), rng.integers(0, 9, 50)
        )
        spec = SplitSpec(fraction, 11)
        want = split(load_idx(img, lbl, limit, num_classes), spec)
        got = load_idx_split(img, lbl, spec, limit, num_classes)
        assert got[0] == want[0] and got[1] == want[1]
        assert [fingerprint(d) for d in got] == [fingerprint(d) for d in want]
        assert all(not d.features.flags.writeable for d in got)

    def test_split_error_equals_split_of_load(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        with pytest.raises(InputError) as want:
            split(load_idx(img, lbl), SplitSpec(0.5, 0))
        with pytest.raises(InputError) as got:
            load_idx_split(img, lbl, SplitSpec(0.5, 0))
        assert str(got.value) == str(want.value)

    def test_pool_label_error_comes_before_split_error(self, tmp_path):
        # 2 rows cannot be split, and label 5 lies outside 3 classes
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 5])
        with pytest.raises(InputError) as want:
            split(load_idx(img, lbl, num_classes=3), SplitSpec(0.5, 0))
        with pytest.raises(InputError) as got:
            load_idx_split(img, lbl, SplitSpec(0.5, 0), num_classes=3)
        assert str(got.value) == str(want.value)
        assert "labels must lie in [0, 3), got range [0, 5]" in str(got.value)


class TestSplit:
    def test_sizes(self):
        data = make_blobs(2, 50, 2, 1.0, seed=0)  # 100 rows
        train, val = split(data, SplitSpec(0.2, 0))
        assert (train.num_examples, val.num_examples) == (80, 20)

    def test_ceil_semantics(self):
        data = make_blobs(2, 50, 2, 1.0, seed=0)
        train, val = split(data, SplitSpec(0.33, 1))  # ceil(67) = 67
        assert (train.num_examples, val.num_examples) == (67, 33)

    def test_partition_preserves_rows(self):
        data = make_blobs(3, 30, 2, 1.0, seed=2)
        train, val = split(data, SplitSpec(0.25, 3))
        combined = np.vstack([train.features, val.features])
        key = np.lexsort(combined.T)
        key0 = np.lexsort(data.features.T)
        np.testing.assert_array_equal(combined[key], data.features[key0])

    def test_deterministic(self):
        data = make_blobs(3, 30, 2, 1.0, seed=2)
        a = split(data, SplitSpec(0.2, 9))
        b = split(data, SplitSpec(0.2, 9))
        assert a[0] == b[0] and a[1] == b[1]

    def test_degenerate_rejected(self):
        data = make_blobs(2, 1, 2, 1.0, seed=0)  # 2 rows: val would equal train
        with pytest.raises(InputError):
            split(data, SplitSpec(0.5, 0))
        with pytest.raises(InputError):
            SplitSpec(0.0, 0)


def test_fingerprint_distinguishes_data():
    a = make_blobs(3, 10, 2, 1.0, seed=0)
    b = make_blobs(3, 10, 2, 1.0, seed=1)
    assert fingerprint(a) == fingerprint(a)
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_digest_is_stable():
    # store headers carry this digest, so its bytes must not change
    data = Dataset(np.arange(12.0).reshape(4, 3) / 8.0, [0, 2, 1, 2], 3)
    assert fingerprint(data) == "331daef12348b832a7c2e8c3c10e745cbf8cee7578925a487205e66fa0220bb5"
