import json
import re

import numpy as np
import pytest

from hydropinn.dataset import DatasetMeta, meta_path, read_dataset, write_dataset
from hydropinn.errors import ConfigError
from hydropinn.moc import FieldGrid
from hydropinn.scenario import (
    Offtake,
    PiecewiseSignal,
    Scenario,
    load_scenario,
    save_scenario,
)


class TestDatasetCsv:
    def _random_field(self, rng):
        xs = np.linspace(0.0, 50_000.0, 11)
        ts = np.linspace(0.0, 600.0, 7)
        # adversarial float values: many digits, tiny and large magnitudes
        P = rng.standard_normal((7, 11)) * np.logspace(-8, 2, 11)
        v = rng.standard_normal((7, 11)) / 3.0
        return FieldGrid(xs=xs, ts=ts, P=P, v=v)

    def test_bitwise_round_trip(self, tmp_path, rng, fluid, pipe):
        field = self._random_field(rng)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.476, offtake_x=None)
        path = tmp_path / "ds.csv"
        write_dataset(field, meta, path)
        back, meta2 = read_dataset(path)
        assert np.array_equal(back.xs, field.xs)
        assert np.array_equal(back.ts, field.ts)
        assert np.array_equal(back.P, field.P)
        assert np.array_equal(back.v, field.v)
        assert meta2.pipe == meta.pipe
        assert meta2.fluid == meta.fluid
        assert meta2.wave_speed == meta.wave_speed

    def test_write_read_write_is_stable(self, tmp_path, rng, fluid, pipe):
        field = self._random_field(rng)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.476)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(field, meta, p1)
        back, meta2 = read_dataset(p1)
        write_dataset(back, meta2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_equal_per_cell_formatting(self, tmp_path, rng, fluid, pipe):
        # the reference formats every cell of every row on its own
        field = self._random_field(rng)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.476)
        path = tmp_path / "ds.csv"
        write_dataset(field, meta, path)
        lines = ["x_m,t_s,pressure_mpa,velocity_mps"]
        for j, t in enumerate(field.ts):
            for i, x in enumerate(field.xs):
                lines.append(",".join(format(value, ".17g") for value in
                                      (x, t, field.P[j, i], field.v[j, i])))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ConfigError):
            read_dataset(path)

    def _write_lines(self, tmp_path, fluid, pipe, rows):
        path = tmp_path / "ds.csv"
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.0)
        write_dataset(FieldGrid(xs=np.array([0.0, 1.0]), ts=np.array([0.0]),
                                P=np.zeros((1, 2)), v=np.zeros((1, 2))), meta, path)
        path.write_text("\n".join(["x_m,t_s,pressure_mpa,velocity_mps"]
                                   + [",".join(map(str, r)) for r in rows]) + "\n")
        return path

    def test_time_blocks_out_of_order(self, tmp_path, fluid, pipe):
        # two swapped blocks would read back as ts=[0, 1, 0.5, 1.5]
        rows = [(x, t, 1.0, 0.1) for t in (0.0, 1.0, 0.5, 1.5) for x in (0.0, 1.0)]
        path = self._write_lines(tmp_path, fluid, pipe, rows)
        with pytest.raises(ConfigError, match="ds.csv"):
            read_dataset(path)

    def test_block_must_repeat_first_block_positions(self, tmp_path, fluid, pipe):
        rows = [(0.0, 0.0, 1.0, 0.1), (1.0, 0.0, 1.0, 0.1),
                (1.0, 0.5, 1.0, 0.1), (0.0, 0.5, 1.0, 0.1)]
        path = self._write_lines(tmp_path, fluid, pipe, rows)
        with pytest.raises(ConfigError, match="ds.csv"):
            read_dataset(path)

    def test_time_constant_within_block(self, tmp_path, fluid, pipe):
        rows = [(0.0, 0.0, 1.0, 0.1), (1.0, 0.5, 1.0, 0.1),
                (0.0, 1.0, 1.0, 0.1), (1.0, 1.0, 1.0, 0.1)]
        path = self._write_lines(tmp_path, fluid, pipe, rows)
        with pytest.raises(ConfigError, match="ds.csv"):
            read_dataset(path)

    @pytest.mark.parametrize("bad_row", ["1.0,0.0,abc,0.1", "1.0,0.0,1.0",
                                         "1.0,0.0,1.0,0.1,7"],
                             ids=["non-numeric", "three-cells", "five-cells"])
    def test_malformed_row_named(self, tmp_path, fluid, pipe, bad_row):
        path = self._write_lines(tmp_path, fluid, pipe, [(0.0, 0.0, 1.0, 0.1)])
        path.write_text(path.read_text() + bad_row + "\n")
        with pytest.raises(ConfigError, match=r"ds\.csv: line 3 "):
            read_dataset(path)

    @pytest.mark.filterwarnings("error")  # loadtxt warns on input without rows
    def test_no_data_rows(self, tmp_path, fluid, pipe):
        path = self._write_lines(tmp_path, fluid, pipe, [])
        with pytest.raises(ConfigError, match="no data rows"):
            read_dataset(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["\n\n", " \n\t\n"],
                             ids=["blank-lines", "whitespace-lines"])
    def test_blank_lines_are_no_data_rows(self, tmp_path, fluid, pipe, body):
        path = self._write_lines(tmp_path, fluid, pipe, [])
        path.write_text(path.read_text() + body)
        with pytest.raises(ConfigError, match="no data rows"):
            read_dataset(path)

    @pytest.mark.parametrize("blank", ["   ", "\t"], ids=["spaces", "tab"])
    def test_whitespace_line_between_rows_named(self, tmp_path, desk_dataset, blank):
        path = tmp_path / "desk.csv"
        write_dataset(*desk_dataset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + [blank] + lines[3:]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"desk.csv: line 4 ({blank!r})")):
            read_dataset(path)

    def test_single_x_column_is_config_error_naming_file(self, tmp_path, desk_dataset):
        path = tmp_path / "desk.csv"
        write_dataset(*desk_dataset, path)
        header, *rows = path.read_text().splitlines()
        first_x = rows[0].split(",")[0]
        path.write_text("\n".join([header] + [r for r in rows
                                              if r.split(",")[0] == first_x]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path} has one x position")):
            read_dataset(path)

    def test_crlf_copy_reads_back_bitwise_equal(self, tmp_path, rng, fluid, pipe):
        field = self._random_field(rng)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.476)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_dataset(field, meta, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        meta_path(crlf).write_bytes(meta_path(lf).read_bytes())
        a, _ = read_dataset(lf)
        b, _ = read_dataset(crlf)
        for key in ("xs", "ts", "P", "v"):
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes()

    def test_missing_sidecar(self, tmp_path, rng, fluid, pipe):
        field = self._random_field(rng)
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.0)
        path = tmp_path / "ds.csv"
        write_dataset(field, meta, path)
        meta_path(path).unlink()
        with pytest.raises(FileNotFoundError):
            read_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "absent.csv")

    def test_sidecar_unknown_key_named(self, tmp_path, rng, fluid, pipe):
        meta = DatasetMeta(pipe=pipe.with_friction(0.0221), fluid=fluid,
                           wave_speed=1190.0)
        path = tmp_path / "ds.csv"
        write_dataset(self._random_field(rng), meta, path)
        sidecar = json.loads(meta_path(path).read_text())
        sidecar["fluid"]["density"] = 900.0
        meta_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError, match=r"meta\.json: unknown key 'fluid\.density'"):
            read_dataset(path)

    @pytest.mark.parametrize("key, value, message", [
        ("wave_speed_mps", 0.0, "wave_speed_mps must be positive, got 0.0"),
        ("wave_speed_mps", -1190.0, "wave_speed_mps must be positive, got -1190.0"),
        ("offtake_position_m", 90_000.0, "offtake_position_m must lie strictly inside "
                                         "the 50000 m pipe, got 90000.0"),
        ("offtake_position_m", 0.0, "offtake_position_m must lie strictly inside "
                                    "the 50000 m pipe, got 0.0"),
        ("offtake_position_m", 50_000.0, "offtake_position_m must lie strictly inside "
                                         "the 50000 m pipe, got 50000.0"),
    ], ids=["zero_wave_speed", "negative_wave_speed", "offtake_past_outlet",
            "offtake_at_inlet", "offtake_at_outlet"])
    def test_sidecar_value_outside_the_pipe_named(self, tmp_path, desk_dataset,
                                                  key, value, message):
        path = tmp_path / "desk.csv"
        write_dataset(*desk_dataset, path)
        sidecar = json.loads(meta_path(path).read_text())
        sidecar[key] = value
        meta_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(ConfigError, match=re.escape(f"meta.json: {message}")):
            read_dataset(path)

    @pytest.mark.parametrize("columns, message", [
        (slice(1, -1), "first column x=1000 m is not the pipe inlet x=0 m"),
        (slice(1, None), "first column x=1000 m is not the pipe inlet x=0 m"),
        (slice(0, -1), "last column x=49000 m is not the pipe outlet x=50000 m"),
    ], ids=["both_ends_cropped", "first_cropped", "last_cropped"])
    def test_grid_not_spanning_the_pipe_named(self, tmp_path, desk_dataset, columns,
                                              message):
        field, meta = desk_dataset
        cropped = FieldGrid(xs=field.xs[columns], ts=field.ts, P=field.P[:, columns],
                            v=field.v[:, columns])
        path = tmp_path / "desk.csv"
        write_dataset(cropped, meta, path)
        with pytest.raises(ConfigError, match=re.escape(f"desk.csv: {message} "
                                                        "(within 0.5 m)")):
            read_dataset(path)

    def test_end_columns_within_half_a_metre_accepted(self, tmp_path, desk_dataset):
        field, meta = desk_dataset
        xs = field.xs.copy()
        xs[0], xs[-1] = 0.4, meta.pipe.length - 0.4
        path = tmp_path / "desk.csv"
        write_dataset(FieldGrid(xs=xs, ts=field.ts, P=field.P, v=field.v), meta, path)
        assert np.array_equal(read_dataset(path)[0].xs, xs)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path, fluid, pipe):
        sc = Scenario(
            pipe=pipe, fluid=fluid, duration=600.0,
            inlet_pressure=PiecewiseSignal.from_breakpoints([[0, 1.48], [600, 1.6]]),
            outlet_flowrate=PiecewiseSignal.from_breakpoints(
                [[0, 0.0428], [120, 0.0428], [180, 0.0333]]),
            offtake=Offtake(position=25_000.0,
                            flowrate=PiecewiseSignal.from_breakpoints(
                                [[0, 0.0], [60, 0.005]])),
        )
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.pipe == sc.pipe
        assert back.fluid == sc.fluid
        assert back.duration == sc.duration
        ts = np.linspace(0, 600, 41)
        assert np.array_equal(back.inlet_pressure(ts), sc.inlet_pressure(ts))
        assert np.array_equal(back.outlet_flowrate(ts), sc.outlet_flowrate(ts))
        assert back.offtake.position == 25_000.0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps({"pipe": {"length_m": 1000, "diameter_m": 0.25}}))
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_signal_validation(self):
        with pytest.raises(ConfigError):
            PiecewiseSignal.from_breakpoints([[0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ConfigError):
            PiecewiseSignal.from_breakpoints([])
        with pytest.raises(ConfigError):
            PiecewiseSignal.from_breakpoints([[0.0, np.nan]])

    def test_signal_holds_outside_breakpoints(self):
        s = PiecewiseSignal.from_breakpoints([[10.0, 2.0], [20.0, 4.0]])
        assert s(0.0) == 2.0
        assert s(15.0) == 3.0
        assert s(100.0) == 4.0

    def test_offtake_must_start_shut(self, fluid, pipe):
        with pytest.raises(ConfigError):
            Scenario(
                pipe=pipe, fluid=fluid, duration=100.0,
                inlet_pressure=PiecewiseSignal.constant(1.48),
                outlet_flowrate=PiecewiseSignal.constant(0.04),
                offtake=Offtake(position=25_000.0,
                                flowrate=PiecewiseSignal.constant(0.01)),
            )

    def test_offtake_position_inside_pipe(self, fluid, pipe):
        with pytest.raises(ConfigError):
            Scenario(
                pipe=pipe, fluid=fluid, duration=100.0,
                inlet_pressure=PiecewiseSignal.constant(1.48),
                outlet_flowrate=PiecewiseSignal.constant(0.04),
                offtake=Offtake(position=60_000.0,
                                flowrate=PiecewiseSignal.constant(0.0)),
            )
