import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import build_model_with_encoder, randomize_model
from hypothesis import given, settings
from hypothesis import strategies as st

from tcflow import data as dt
from tcflow.conditioners import EncoderConfig
from tcflow.score import ScoreSeries, _latent_series, export_latent, load_score_csv


class TestLoadCsv:
    def test_basic_labeled_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = dt.load_csv(path, has_labels=True)
        assert ds.values.shape == (3, 2)
        assert ds.labels.tolist() == [False, True, False]

    def test_header_populates_channel_names(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("temp,rpm\n1.0,2.0\n3.0,4.0\n")
        ds = dt.load_csv(path)
        assert ds.channel_names == ["temp", "rpm"]
        assert ds.n_steps == 2

    def test_non_binary_label_reports_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,0\n2.0,2\n")
        with pytest.raises(dt.DataError, match="row 2"):
            dt.load_csv(path, has_labels=True)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(dt.DataError, match="ragged"):
            dt.load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(dt.DataError, match="empty"):
            dt.load_csv(path)

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        path = tmp_path / "d.csv"
        for cell in ("oops", "nan", "inf", "-inf"):
            path.write_text(f"1.0,2.0\n3.0,{cell}\n")
            with pytest.raises(dt.DataError, match="row 2, column 2"):
                dt.load_csv(path)

    def test_save_load_round_trip(self, tmp_path):
        ds = dt.generate_synthetic("sine", 120, 3, noise=0.1, seed=4)
        ds = dt.inject_anomaly(ds, dt.AnomalySpec("spike", 60, 1, 4.0, (0,)))
        path = tmp_path / "d.csv"
        dt.save_csv(ds, path)
        back = dt.load_csv(path, has_labels=True)
        np.testing.assert_array_equal(back.values, ds.values)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.channel_names == ds.channel_names


    def test_header_wider_than_rows_is_a_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(dt.DataError, match="ragged row 1 has 2 cells, expected 3"):
            dt.load_csv(path)
        with pytest.raises(dt.DataError, match="ragged row 1 has 2 cells, expected 3"):
            dt.load_csv(path, has_labels=True)

    def test_channel_names_must_match_channels(self):
        with pytest.raises(dt.DataError, match="3 channel names for 2 channels"):
            dt.TimeSeriesDataset(np.zeros((4, 2)), channel_names=["a", "b", "c"])


# finite doubles, with the edge values drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# channel names with a comma and a double quote, no edge whitespace
NAMES = st.text(alphabet='ab ,"', max_size=4).map(lambda s: f'c,{s}"')


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestTableRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=1, max_size=8),
        st.lists(NAMES, min_size=d, max_size=d))), st.booleans(), st.data())
    def test_save_csv_reads_back_bit_identical(self, table, with_labels, data):
        rows, names = table
        labels = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        ds = dt.TimeSeriesDataset(np.array(rows), np.array(labels) if with_labels else None,
                                  channel_names=names)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            dt.save_csv(ds, path)
            back = dt.load_csv(path, has_labels=with_labels)
        np.testing.assert_array_equal(_bits(back.values), _bits(ds.values))
        assert back.channel_names == names
        if with_labels:
            np.testing.assert_array_equal(back.labels, ds.labels)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(FINITE, st.booleans()), min_size=1, max_size=12), st.booleans())
    def test_score_csv_reads_back_bit_identical(self, rows, with_labels):
        scores = np.array([s for s, _ in rows])
        labels = np.array([flag for _, flag in rows]) if with_labels else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            ScoreSeries(scores).to_csv(path, labels=labels)
            back, back_labels = load_score_csv(path)
        np.testing.assert_array_equal(_bits(back.scores), _bits(scores))
        if with_labels:
            np.testing.assert_array_equal(back_labels, labels)
        else:
            assert back_labels is None

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.booleans()),
                    min_size=1, max_size=12), st.integers(0, 3))
    def test_export_latent_reads_back_bit_identical(self, rows, seed):
        model = build_model_with_encoder(2, 2, EncoderConfig("passthrough", lookback=2))
        randomize_model(model, np.random.default_rng(seed), scale=0.3)
        model.norm_stats = (np.full(2, -1.0), np.full(2, 1.0))
        ds = dt.TimeSeriesDataset(np.array([r[:2] for r in rows]),
                                  np.array([r[2] for r in rows]))
        latents, log_dets, scores = _latent_series(model, ds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "latent.csv"
            export_latent(model, ds, path)
            header, values = dt.read_table(path)
        assert header == ["u0", "u1", "logdet", "score", "label"]
        expected = np.column_stack([latents, log_dets, scores, ds.labels])
        np.testing.assert_array_equal(_bits(values), _bits(expected))


SCORES_HEADER = "t,score,label\n0,1.0,0\n"


class TestTableChecks:
    """One table of inputs for both numeric readers: the same file is a
    labeled series for ``load_csv`` and a scores file for ``load_score_csv``."""

    LOADERS = {"load_csv": lambda path: dt.load_csv(path, has_labels=True),
               "load_score_csv": load_score_csv}

    @pytest.mark.parametrize("loader", LOADERS)
    def test_blank_rows_are_skipped(self, tmp_path, loader):
        path = tmp_path / "d.csv"
        path.write_text("\n" + SCORES_HEADER + "\n1,2.0,1\n\n")
        assert self.LOADERS[loader](path) is not None
        header, values = dt.read_table(path)
        assert header == ["t", "score", "label"]
        np.testing.assert_array_equal(values, [[0.0, 1.0, 0.0], [1.0, 2.0, 1.0]])

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("rows, message", [
        ("1,2.0\n", "ragged row 2 has 2 cells, expected 3"),
        ("1,2.0,1,7\n", "ragged row 2 has 4 cells, expected 3"),
        ("1,high,1\n", "non-numeric cell at row 2, column 2: 'high'"),
        ("one,2.0,1\n", "non-numeric cell at row 2, column 1: 'one'"),
        ("1,,1\n", "non-numeric cell at row 2, column 2: ''"),
        ("1,-inf,1\n", "non-finite score at row 2, column 2: -inf"),
        ("nan,2.0,1\n", "non-finite t at row 2, column 1: nan"),
        ("1,1e999,1\n", "non-finite score at row 2, column 2: inf"),
        ("1,2.0,2\n", "non-binary label at row 2, column 3: 2.0"),
        ("1,2.0,0.5\n", "non-binary label at row 2, column 3: 0.5"),
    ], ids=["short", "long", "non-numeric", "non-numeric-t", "empty-cell", "minus-inf",
            "nan-t", "overflow", "label-2", "label-half"])
    def test_bad_rows_rejected_naming_row_and_column(self, tmp_path, loader, rows, message):
        path = tmp_path / "d.csv"
        path.write_text(SCORES_HEADER + rows)
        with pytest.raises(dt.DataError, match=message):
            self.LOADERS[loader](path)


class TestPrepare:
    def test_maps_endpoints_and_midpoint(self):
        ds = dt.TimeSeriesDataset(np.array([[0.0], [5.0], [10.0]]))
        out, (lo, hi) = dt.prepare(ds)
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0])
        assert lo[0] == 0.0 and hi[0] == 10.0

    def test_all_zero_training_channel_spans_nothing_and_maps_to_zero(self):
        values = np.zeros((4, 2))
        values[:, 1] = [1.0, 2.0, 3.0, 4.0]
        out, (lo, hi) = dt.prepare(dt.TimeSeriesDataset(values))
        np.testing.assert_array_equal([lo[0], hi[0]], 0.0)
        np.testing.assert_array_equal([lo[1], hi[1]], [1.0, 4.0])
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_all_zero_scored_channel_maps_by_the_training_statistics(self):
        # a sensor that read 0.3 .. 0.7 in training and is dead (all zero)
        # in the scored series lies far below its training range
        values = np.zeros((4, 2))
        values[:, 1] = [1.0, 2.0, 3.0, 4.0]
        out, _ = dt.prepare(dt.TimeSeriesDataset(values), ([0.3, 1.0], [0.7, 4.0]))
        np.testing.assert_allclose(out[:, 0], -2.5)

    def test_constant_channel_normalizes_to_zero(self):
        ds = dt.TimeSeriesDataset(np.column_stack([np.full(5, 3.3), np.arange(5.0)]))
        out, _ = dt.prepare(ds)
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_test_values_beyond_train_range_exceed_one(self):
        _, stats = dt.prepare(dt.TimeSeriesDataset(np.array([[0.0], [10.0]])))
        test, _ = dt.prepare(dt.TimeSeriesDataset(np.array([[15.0]])), stats)
        assert test[0, 0] == pytest.approx(2.0)

    def test_affine_inverse_recovers_originals(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.0, (50, 4))
        out, (lo, hi) = dt.prepare(dt.TimeSeriesDataset(values))
        recovered = lo + (out + 1.0) * (hi - lo) / 2.0
        np.testing.assert_allclose(recovered, values, atol=1e-12)

    def test_odd_gets_constant_half_channel(self):
        ds = dt.TimeSeriesDataset(np.zeros((5, 3)))
        out, (lo, _) = dt.prepare(ds)
        assert out.shape == (5, 4)
        np.testing.assert_array_equal(out[:, 3], 0.5)
        assert len(lo) == 3  # the statistics cover the data channels only

    def test_even_gets_no_pad_channel(self):
        ds = dt.TimeSeriesDataset(np.zeros((5, 4)))
        out, _ = dt.prepare(ds)
        assert out.shape == (5, 4)

    def test_stats_of_another_width_rejected(self):
        ds = dt.TimeSeriesDataset(np.zeros((5, 3)))
        with pytest.raises(dt.DataError, match="stats cover 2 channels, dataset has 3"):
            dt.prepare(ds, (np.zeros(2), np.ones(2)))

    def test_leaves_input_and_its_anomaly_list_untouched(self):
        ds = dt.inject_anomaly(dt.generate_synthetic("sine", 200, 3, seed=0),
                               dt.AnomalySpec("spike", 50, 1))
        before, anomalies = ds.values.copy(), list(ds.anomalies)
        out, _ = dt.prepare(ds)
        np.testing.assert_array_equal(ds.values, before)
        assert ds.anomalies == anomalies and not np.shares_memory(out, ds.values)


def test_readme_library_use_imports_only_public_names():
    import tcflow

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    imported = re.search(r"from tcflow import \((.*?)\)", section, re.S).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert "train_model" in names
    assert sorted(set(names) - set(tcflow.__all__)) == []


class TestGenerator:
    def test_noiseless_sine_hits_unit_amplitude(self):
        ds = dt.generate_synthetic("sine", 300, 2, noise=0.0, seed=0)
        for d in range(2):
            assert np.abs(ds.values[:, d]).max() == pytest.approx(1.0)
        offset = 50  # half the period between the two channels
        np.testing.assert_allclose(ds.values[:-offset, 1], ds.values[offset:, 0], atol=1e-12)

    def test_increasing_is_nondecreasing_without_noise(self):
        ds = dt.generate_synthetic("increasing", 200, 3, noise=0.0, seed=1)
        assert (np.diff(ds.values, axis=0) >= 0).all()

    def test_same_seed_identical(self):
        a = dt.generate_synthetic("wave", 150, 2, noise=0.1, seed=42)
        b = dt.generate_synthetic("wave", 150, 2, noise=0.1, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_family_rejected(self):
        with pytest.raises(dt.DataError, match="family"):
            dt.generate_synthetic("square", 200, 2)

    @pytest.mark.parametrize("family", dt.FAMILIES)
    def test_all_families_produce_finite_values(self, family):
        ds = dt.generate_synthetic(family, 250, 3, noise=0.05, seed=7)
        assert ds.values.shape == (250, 3)
        assert np.isfinite(ds.values).all()


class TestInjectAnomaly:
    def _base(self):
        return dt.generate_synthetic("sine", 200, 2, noise=0.0, seed=0)

    def test_single_step_spike_labels_one_point(self):
        out = dt.inject_anomaly(self._base(), dt.AnomalySpec("spike", 50, 1, 3.0, (0,)))
        assert out.labels.sum() == 1 and out.labels[50]
        assert out.values[50, 0] != self._base().values[50, 0]
        np.testing.assert_array_equal(out.values[:, 1], self._base().values[:, 1])

    def test_cutoff_zeroes_range(self):
        out = dt.inject_anomaly(self._base(), dt.AnomalySpec("cutoff", 30, 10, channels=(1,)))
        np.testing.assert_array_equal(out.values[30:40, 1], 0.0)
        assert out.labels[30:40].all()

    def test_zero_magnitude_mean_shift_sets_labels_only(self):
        base = self._base()
        out = dt.inject_anomaly(base, dt.AnomalySpec("mean-shift", 60, 5, 0.0))
        np.testing.assert_array_equal(out.values, base.values)
        assert out.labels[60:65].all() and out.labels.sum() == 5

    def test_overlapping_same_channel_rejected(self):
        out = dt.inject_anomaly(self._base(), dt.AnomalySpec("platform", 40, 20, 0.3, (0,)))
        with pytest.raises(dt.DataError, match="overlaps"):
            dt.inject_anomaly(out, dt.AnomalySpec("spike", 50, 1, 3.0, (0,)))

    def test_disjoint_channels_may_overlap_in_time(self):
        out = dt.inject_anomaly(self._base(), dt.AnomalySpec("platform", 40, 20, 0.3, (0,)))
        out = dt.inject_anomaly(out, dt.AnomalySpec("spike", 50, 1, 3.0, (1,)))
        assert out.labels[40:60].all()

    def test_labels_are_union_of_ranges(self):
        out = self._base()
        ranges = [(20, 5), (80, 1), (140, 12)]
        for start, length in ranges:
            out = dt.inject_anomaly(out, dt.AnomalySpec("mean-shift", start, length, 2.0, (0,)))
        expected = np.zeros(200, dtype=bool)
        for start, length in ranges:
            expected[start : start + length] = True
        np.testing.assert_array_equal(out.labels, expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(dt.DataError, match="outside"):
            dt.inject_anomaly(self._base(), dt.AnomalySpec("spike", 199, 5))
