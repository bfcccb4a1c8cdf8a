import numpy as np
import pytest

from hydropinn.dataset import DatasetMeta
from hydropinn.errors import ConfigError, DomainError
from hydropinn.metrics import (
    MetricsReport,
    MetricsRow,
    _segment_columns,
    compare,
    evaluate_model,
    mape,
    mape_with_skips,
    predict_field,
    r2,
    residual_series,
    rmse,
)
from hydropinn.moc import FieldGrid, interior_column_indices
from hydropinn.network import InputScaler, NetSpec


def brute_rmse(pred, truth):
    total = 0.0
    for p, t in zip(pred, truth):
        total += (p - t) ** 2
    return (total / len(pred)) ** 0.5


def brute_mape(pred, truth):
    total, n = 0.0, 0
    for p, t in zip(pred, truth):
        if abs(t) > 1e-9:
            total += abs(p - t) / abs(t)
            n += 1
    return 100.0 * total / n


def brute_r2(pred, truth):
    mean = sum(truth) / len(truth)
    ss_tot = sum((t - mean) ** 2 for t in truth)
    ss_res = sum((p - t) ** 2 for p, t in zip(pred, truth))
    return 1.0 - ss_res / ss_tot


class TestMetricFunctions:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0
        assert mape(y, y) == 0.0
        assert r2(y, y) == 1.0

    def test_constant_prediction_r2_zero(self):
        truth = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, truth.mean())
        assert r2(pred, truth) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_example(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = np.array([1.1, 1.9, 3.3])
        assert rmse(pred, truth) == pytest.approx(np.sqrt(0.11 / 3), rel=1e-12)
        assert mape(pred, truth) == pytest.approx(100 * (0.1 + 0.05 + 0.1) / 3,
                                                  rel=1e-12)
        assert r2(pred, truth) == pytest.approx(1 - 0.11 / 2, rel=1e-12)

    def test_matches_brute_force_on_random_vectors(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            truth = rng.normal(0, 10, n)
            pred = truth + rng.normal(0, 1, n)
            if np.var(truth) == 0:
                continue
            assert rmse(pred, truth) == pytest.approx(brute_rmse(pred, truth),
                                                      rel=1e-12)
            assert mape(pred, truth) == pytest.approx(brute_mape(pred, truth),
                                                      rel=1e-12)
            assert r2(pred, truth) == pytest.approx(brute_r2(pred, truth),
                                                    rel=1e-12)

    def test_mape_skips_near_zero_truth(self):
        truth = np.array([0.0, 1e-12, 2.0])
        pred = np.array([5.0, 5.0, 2.2])
        value, skipped = mape_with_skips(pred, truth)
        assert skipped == 2
        assert value == pytest.approx(10.0)

    def test_mape_all_skipped_rejected(self):
        with pytest.raises(DomainError):
            mape(np.array([1.0]), np.array([0.0]))

    def test_r2_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            r2(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            rmse(np.array([1.0]), np.array([1.0, 2.0]))

    def test_r2_needs_two_points(self):
        with pytest.raises(DomainError):
            r2(np.array([1.0]), np.array([1.0]))

    def test_negative_r2_representable(self):
        truth = np.array([1.0, 2.0, 3.0])
        pred = np.array([30.0, -40.0, 90.0])
        assert r2(pred, truth) < -30.0


class TestResidualSeries:
    def _fields(self):
        xs = np.linspace(0, 10_000, 6)
        ts = np.linspace(0, 10, 5)
        P = np.outer(np.ones(5), np.linspace(2, 1, 6))
        v = np.ones((5, 6))
        truth = FieldGrid(xs=xs, ts=ts, P=P, v=v)
        return truth

    def test_identical_fields_zero(self):
        truth = self._fields()
        per_step, per_loc = residual_series(truth, truth)
        assert np.all(per_step == 0.0)
        assert np.all(per_loc == 0.0)

    def test_uniform_offset_flat_series(self):
        truth = self._fields()
        pred = FieldGrid(xs=truth.xs, ts=truth.ts, P=truth.P + 0.01, v=truth.v)
        per_step, per_loc = residual_series(pred, truth)
        assert np.allclose(per_step, 0.01)
        assert np.allclose(per_loc, 0.01)
        assert per_step.size == truth.ts.size
        assert per_loc.size == truth.xs.size - 2

    def test_grid_mismatch(self):
        truth = self._fields()
        other = FieldGrid(xs=truth.xs[:-1], ts=truth.ts, P=truth.P[:, :-1],
                          v=truth.v[:, :-1])
        with pytest.raises(DomainError):
            residual_series(other, truth)


class TestCompare:
    def _perfect_model(self, truth, meta):
        """An 'identity' checkpoint is impossible, so fabricate a constant
        field dataset a zero-weight net reproduces exactly."""
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, meta.pipe.length, 0.0, 600.0))
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([1.2, 0.8]))]
        flat = FieldGrid(xs=truth.xs, ts=truth.ts,
                         P=np.full_like(truth.P, 1.2),
                         v=np.full_like(truth.v, 0.8))
        return spec, params, flat

    def test_perfect_model_row(self, fluid, pipe):
        xs = np.linspace(0, pipe.length, 11)
        ts = np.linspace(0, 600, 4)
        base = FieldGrid(xs=xs, ts=ts, P=np.ones((4, 11)), v=np.ones((4, 11)))
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.0)
        spec, params, flat = self._perfect_model(base, meta)
        report = compare([("flat", spec, params)], flat, meta)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.rmse == pytest.approx(0.0, abs=1e-12)
            assert row.mape_pct == pytest.approx(0.0, abs=1e-9)

    def test_segment_partition(self, desk_dataset):
        field, meta = desk_dataset
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, meta.pipe.length, 0.0, 600.0))
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([1.5, 0.8]))]
        report = compare([("const", spec, params)], field, meta,
                         segment_breaks=[25_000.0])
        segments = {r.segment for r in report.rows}
        assert segments == {"0-25km", "25-50km"}
        assert len(report.rows) == 4

    @pytest.mark.parametrize("breaks, names, counts", [
        (None, ["all"], [48]),
        ([20_000.0], ["0-20km", "20-50km"], [19, 29]),
        ([35_000.0, 20_000.0], ["0-20km", "20-35km", "35-50km"], [19, 14, 15]),
        ([500.0, 49_500.0], ["0.5-49.5km"], [48]),
    ])
    def test_segments_partition_interior_columns(self, desk_dataset, breaks,
                                                 names, counts):
        # desk grid: 51 columns at 1 km, 48 interior (no 0, 25 or 50 km)
        field, meta = desk_dataset
        length = meta.pipe.length
        interior = interior_column_indices(field.xs, length, meta.offtake_x)
        segments = _segment_columns(field.xs, interior, length, breaks)
        assert [name for name, _ in segments] == names
        assert [cols.size for _, cols in segments] == counts
        assert sum(counts) == interior.size
        assert np.array_equal(np.sort(np.concatenate([c for _, c in segments])),
                              interior)

    @pytest.mark.parametrize("breaks", [
        [60_000.0], [50_000.0], [0.0], [-1_000.0], [20_000.0, 20_000.0]])
    def test_bad_segment_breaks_rejected(self, desk_dataset, breaks):
        field, meta = desk_dataset
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, meta.pipe.length, 0.0, 600.0))
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([1.5, 0.8]))]
        with pytest.raises(ConfigError):
            compare([("const", spec, params)], field, meta, segment_breaks=breaks)

    def test_csv_schema_and_stability(self, desk_dataset):
        field, meta = desk_dataset
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, meta.pipe.length, 0.0, 600.0))
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([1.5, 0.8]))]
        r1 = compare([("m", spec, params)], field, meta).to_csv()
        r2_ = compare([("m", spec, params)], field, meta).to_csv()
        assert r1 == r2_
        lines = r1.strip().split("\n")
        assert lines[0] == "model,segment,quantity,rmse,mape_pct,r2"
        assert lines[1].startswith("m,all,pressure,")

    def test_flowrate_reported_in_m3h(self, fluid, pipe):
        # constant-velocity model vs constant-velocity truth offset by
        # 0.1 m/s: flowrate RMSE must be 0.1 * A * 3600
        xs = np.linspace(0, pipe.length, 11)
        ts = np.linspace(0, 600, 4)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.0)
        truth = FieldGrid(xs=xs, ts=ts, P=np.full((4, 11), 1.2),
                          v=np.full((4, 11), 0.7))
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, pipe.length, 0.0, 600.0))
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([1.2, 0.8]))]
        rows = evaluate_model("m", spec, params, truth, meta)
        flow = [r for r in rows if r.quantity == "flowrate"][0]
        assert flow.rmse == pytest.approx(0.1 * pipe.area * 3600.0, rel=1e-9)

    def test_head_output_mode_converted(self, fluid, pipe):
        # a head-velocity net outputting h = 120 m must evaluate as
        # P = rho g h / 1e6
        spec = NetSpec(hidden_layers=1, width=2, activation="identity",
                       scaler=InputScaler(0.0, pipe.length, 0.0, 600.0),
                       output_mode="head-velocity")
        params = [(np.zeros((2, 2)), np.zeros(2)),
                  (np.zeros((2, 2)), np.array([120.0, 0.8]))]
        field = predict_field(spec, params, np.linspace(0, pipe.length, 5),
                              np.linspace(0, 600, 3), fluid, pipe)
        assert np.allclose(field.P, 850 * 9.81 * 120 / 1e6)


def test_report_table_renders(desk_dataset):
    report = MetricsReport(rows=[
        MetricsRow("kih", "all", "pressure", 0.004, 0.617, 1.0),
        MetricsRow("dnn", "all", "flowrate", 10.527, 5.791, -37.409),
    ])
    text = report.to_table()
    assert "kih" in text and "-37.409" in text
    assert text == report.to_table()
