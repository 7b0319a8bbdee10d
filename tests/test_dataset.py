"""Dataset construction, CSV ingestion, splitting, folds, and label noise."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from correntia import (
    Dataset,
    SplitSpec,
    inject_label_noise,
    kfold,
    label_indicator,
    load_csv,
    load_features,
    make_rng,
    split,
)


def blob(n=20, d=2, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(1, num_classes + 1), rng.integers(1, num_classes + 1, n - num_classes)])
    return Dataset(rng.standard_normal((n, d)), labels, num_classes)


class TestDataset:
    def test_validates_label_range(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset(np.zeros((2, 1)), np.array([1, 3]), 2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1, 1]), 1)

    def test_immutable_after_construction(self):
        ds = blob()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_default_label_names(self):
        ds = blob(num_classes=3)
        assert ds.label_names == ("1", "2", "3")


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,cls\n1.0,a\n2.0,b\n3.0,a\n")
        ds = load_csv(path, "cls")
        assert ds.n_samples == 3 and ds.n_features == 1 and ds.num_classes == 2
        assert ds.labels.tolist() == [1, 2, 1]
        assert ds.label_names == ("a", "b")
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_blank_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,cls\n1.0,2.0,a\n1.5,,b\n")
        with pytest.raises(ValueError, match="row 2, column 'y'"):
            load_csv(path, "cls")

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,cls\n1.0,a\ninf,b\n")
        with pytest.raises(ValueError, match="row 2, column 'x'.*non-finite"):
            load_csv(path, "cls")

    def test_integer_labels_keep_identity_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        # class 2 appears first; first-appearance order would swap the ids
        path.write_text("x,cls\n0.5,2\n1.5,1\n2.5,2\n")
        ds = load_csv(path, "cls")
        assert ds.labels.tolist() == [2, 1, 2]
        assert ds.label_names == ("1", "2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "cls")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, "cls")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path, "cls")

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,cls\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, "cls")

    @pytest.mark.parametrize("cell", ["", "  "])
    def test_empty_label_names_its_row(self, tmp_path, cell):
        # a blank label is an error, as a blank feature cell is, not a class
        # named ""; load_features still ignores the column
        path = tmp_path / "d.csv"
        path.write_text(f"f1,f2,label\n1,2,a\n2,3,b\n3,1,{cell}\n4,4,a\n0,1,b\n")
        with pytest.raises(ValueError, match="^row 3: empty label in column 'label'$"):
            load_csv(path, "label")
        assert load_features(path, "label").tolist() == [[1, 2], [2, 3], [3, 1], [4, 4], [0, 1]]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM, which must not
        # become part of the first header name
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,f1\na,1.0\nb,2.0\na,3.0\n")
        ds = load_csv(path, "label")
        assert ds.labels.tolist() == [1, 2, 1] and ds.label_names == ("a", "b")
        assert ds.features[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert load_features(path, "label").tolist() == [[1.0], [2.0], [3.0]]
        path.write_bytes(b"\xef\xbb\xbff1,f2\n1.0,2.0\n")
        assert load_features(path, "label").tolist() == [[1.0, 2.0]]


class TestLoadFeatures:
    def test_skips_label_column_when_present(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,cls,y\n1.0,a,2.0\n3.0,b,4.0\n")
        np.testing.assert_array_equal(load_features(path, "cls"), [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(load_features(path, "cls"), load_csv(path, "cls").features)

    def test_every_column_is_a_feature_without_the_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n 3.0 ,4.0\n")
        expected = [[1.0, 2.0], [3.0, 4.0]]
        np.testing.assert_array_equal(load_features(path, "cls"), expected)
        np.testing.assert_array_equal(load_features(path), expected)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y\n1.0,2.0\n3.0,4.0\n0.5,{cell}\n")
        with pytest.raises(ValueError, match=r"^row 3, column 'y': non-finite value -?(nan|inf)$"):
            load_features(path)

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 2, column 'y': cannot parse 'oops'"):
            load_features(path)

    @pytest.mark.parametrize("row", ["1.0,2.0,3.0", "1.0", ""])
    def test_ragged_row(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y\n1.0,2.0\n{row}\n")
        cells = len(row.split(",")) if row else 0
        with pytest.raises(ValueError, match=f"row 2: expected 2 cells, got {cells}"):
            load_features(path)

    def test_empty_and_header_only_files(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_features(path)
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_features(path)


class TestLabelIndicator:
    def test_two_classes(self):
        np.testing.assert_array_equal(
            label_indicator([1, 2], 2), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_single_class(self):
        np.testing.assert_array_equal(label_indicator([1], 1), np.array([[1.0]]))

    def test_column_sums_are_two_minus_L(self):
        indicator = label_indicator([3, 1, 2], 3)
        np.testing.assert_array_equal(indicator.sum(axis=0), [-1.0, -1.0, -1.0])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            label_indicator([1, 4], 3)

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=3),
    )
    def test_argmax_recovers_labels(self, labels, extra_classes):
        num_classes = max(labels) + extra_classes
        indicator = label_indicator(labels, num_classes)
        assert np.all(np.sum(indicator == 1.0, axis=0) == 1)
        recovered = np.argmax(indicator, axis=0) + 1
        assert recovered.tolist() == labels


class TestSplit:
    def test_66_half_split(self):
        ds = blob(n=66, num_classes=2, seed=1)
        train, test = split(ds, SplitSpec(0.5, seed=7))
        assert train.n_samples == 33 and test.n_samples == 33

    def test_deterministic(self):
        ds = blob(n=30, seed=2)
        a = split(ds, SplitSpec(0.6, seed=5))
        b = split(ds, SplitSpec(0.6, seed=5))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_exact_partition(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((4, 1))
        ds = Dataset(features, np.array([1, 2, 1, 2]), 2)
        train, test = split(ds, SplitSpec(0.5, seed=0))
        combined = np.vstack([train.features, test.features])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, features))

    def test_both_partitions_cover_classes(self):
        ds = blob(n=40, num_classes=4, seed=4)
        for seed in range(5):
            train, test = split(ds, SplitSpec(0.5, seed=seed))
            assert set(train.labels) == set(test.labels) == {1, 2, 3, 4}

    def test_impossible_coverage_raises(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 2]), 2)
        with pytest.raises(ValueError, match="100 reseeded attempts"):
            split(ds, SplitSpec(0.5, seed=0))

    def test_degenerate_fraction(self):
        ds = blob(n=10)
        with pytest.raises(ValueError, match="empty partition"):
            split(ds, SplitSpec(0.01, seed=0))


class TestKfold:
    def test_leave_one_out_sizes(self):
        ds = blob(n=10, seed=5)
        pairs = kfold(ds, 10, seed=1)
        assert all(test.n_samples == 1 for _, test in pairs)

    def test_6000_samples_10_folds(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.standard_normal((6000, 1)), rng.integers(1, 3, 6000), 2)
        pairs = kfold(ds, 10, seed=2)
        assert [test.n_samples for _, test in pairs] == [600] * 10

    def test_every_sample_in_exactly_one_test_fold(self):
        for n, k in [(11, 3), (20, 4), (7, 7)]:
            features = np.arange(n, dtype=float)[:, None]
            ds = Dataset(features, np.ones(n, dtype=int), 1)
            pairs = kfold(ds, k, seed=3)
            collected = np.concatenate([test.features[:, 0] for _, test in pairs])
            assert sorted(collected.tolist()) == list(range(n))
            sizes = [test.n_samples for _, test in pairs]
            assert max(sizes) - min(sizes) <= 1

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            kfold(blob(n=5), 6, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            kfold(blob(), 1, seed=0)

    def test_training_fold_missing_a_class_raises(self):
        # the lone class-3 sample always sits in some test fold
        ds = Dataset(np.arange(9.0)[:, None], np.array([1, 2, 1, 2, 1, 2, 1, 2, 3]), 3)
        with pytest.raises(ValueError, match="class 3 .*100 reseeded attempts"):
            kfold(ds, 3, seed=0)

    def test_reseeds_until_every_training_fold_covers_all_classes(self):
        ds = Dataset(np.arange(12.0)[:, None], np.array([1] * 8 + [2] * 2 + [3] * 2), 3)
        seeds = [s for s in range(40) if _first_permutation_misses_a_class(ds, 3, s)]
        assert seeds, "no seed whose first fold assignment misses a class"
        for seed in seeds:
            for train, _ in kfold(ds, 3, seed):
                assert set(train.labels) == {1, 2, 3}

    def test_working_fold_assignment_is_the_seeds_permutation(self):
        ds = blob(n=30, num_classes=3, seed=8)
        perm = make_rng(4).permutation(30)
        tests = [test.features for _, test in kfold(ds, 3, seed=4)]
        np.testing.assert_array_equal(np.vstack(tests), ds.features[perm])


def _first_permutation_misses_a_class(ds, k, seed):
    folds = np.array_split(make_rng(seed).permutation(ds.n_samples), k)
    return any(set(np.delete(ds.labels, fold)) != set(ds.labels) for fold in folds)


class TestInjectLabelNoise:
    def test_rate_zero_is_identity(self):
        ds = blob(n=50, seed=7)
        noisy = inject_label_noise(ds, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.labels, ds.labels)
        np.testing.assert_array_equal(noisy.features, ds.features)

    def test_exact_flip_count_and_no_self_assignment(self):
        ds = blob(n=100, num_classes=4, seed=8)
        noisy = inject_label_noise(ds, 0.2, seed=9)
        changed = noisy.labels != ds.labels
        assert int(changed.sum()) == 20
        assert np.all(noisy.labels[changed] != ds.labels[changed])
        assert np.all((noisy.labels >= 1) & (noisy.labels <= 4))

    def test_rate_one_two_classes_flips_everything(self):
        ds = blob(n=30, num_classes=2, seed=10)
        noisy = inject_label_noise(ds, 1.0, seed=11)
        np.testing.assert_array_equal(noisy.labels, 3 - ds.labels)

    def test_deterministic(self):
        ds = blob(n=60, num_classes=3, seed=12)
        a = inject_label_noise(ds, 0.5, seed=13)
        b = inject_label_noise(ds, 0.5, seed=13)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError, match="noise rate"):
            inject_label_noise(blob(), 1.2, seed=0)

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((3, 1)), np.ones(3, dtype=int), 1)
        with pytest.raises(ValueError, match="at least 2 classes"):
            inject_label_noise(ds, 0.5, seed=0)
