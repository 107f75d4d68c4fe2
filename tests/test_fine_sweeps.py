"""Sweeps at the step counts the benchmark uses: values and CSV bytes.

The profiles check the two ends of an axis through the public scalars and
evaluate every point through unchecked kernels, and the exposure CSV
renders all rows of a figure as one block: each abscissa column object is
converted once (csvout.float_column), each figure's csvout.row_template is
built from it and filled by one % over the value column. These tests hold
both to the single-point public calls and to csvout.fmt, point by point
and byte by byte.
"""

import json
import random

import pytest

from balloonlink import cli
from balloonlink import exposure as exp
from balloonlink import scenario as scen
from balloonlink.csvout import float_column, fmt, row_template
from balloonlink.propagation import (
    db_to_linear,
    power_density,
    received_power,
    slant_range,
    wavelength_m,
)

SWEEPS = ("ground_offset", "altitude", "range")


def _seeded_payload(seed: int, steps: int) -> dict:
    """A scenario with seeded physics inputs, as the benchmark generates them."""
    rng = random.Random(seed)
    altitude_min = rng.uniform(120.0, 220.0)
    return {
        "transmitter": {
            "power_w": rng.uniform(5.0, 40.0),
            "gain_db": rng.uniform(12.0, 20.0),
            "freq_mhz": rng.uniform(700.0, 1400.0),
        },
        "geometry": {
            "altitude_m": rng.uniform(100.0, 300.0),
            "ground_offset_m": rng.uniform(0.0, 40.0),
            "rx_gain_db": rng.uniform(0.0, 5.0),
        },
        "sweeps": {
            "ground_offset": {"min": 0.0, "max": rng.uniform(10.0, 50.0), "steps": steps},
            "altitude": {
                "min": altitude_min,
                "max": altitude_min + rng.uniform(100.0, 300.0),
                "steps": steps,
            },
            "range": {"min": rng.uniform(5.0, 20.0), "max": rng.uniform(300.0, 1000.0), "steps": steps},
            "distances_m": [rng.uniform(1.0, 1000.0) for _ in range(steps)],
        },
    }


def _bundled_payload(steps: int) -> dict:
    payload = json.loads(scen.default_scenario_path().read_text(encoding="utf-8"))
    sweeps = payload.setdefault("sweeps", {})
    for name in SWEEPS:
        sweeps[name] = {**sweeps.get(name, {}), "steps": steps}
    return payload


def _single_points(s: scen.Scenario) -> dict:
    """Per profile, the public single-point call each sampled value must equal."""
    tx, geometry = s.transmitter, s.geometry
    power, gain, offset = tx.power_w, tx.linear_gain(), geometry.ground_offset_m
    rx_gain = db_to_linear(geometry.rx_gain_db)
    return {
        "fig4": lambda d: power_density(power, gain, slant_range(cli.FIG4_ALTITUDE_M, d)),
        "fig5": lambda d: power_density(power, gain, slant_range(cli.FIG5_ALTITUDE_M, d)),
        "fig6": lambda a: power_density(power, gain, slant_range(a, offset)),
        "fig7": lambda r: power_density(power, gain, r),
        "fig8": lambda a: received_power(power, gain, rx_gain, tx.freq_mhz, slant_range(a, offset)),
    }


@pytest.mark.parametrize("steps", [2, 101, 1001, 10001])
@pytest.mark.parametrize("source", ["bundled", "seeded"])
def test_every_sampled_value_is_the_single_point_call(source, steps):
    payload = _bundled_payload(steps) if source == "bundled" else _seeded_payload(5, steps)
    s = scen.scenario_from_dict(payload)
    series = {figure: cli._FIGURES[figure][0](s) for figure in cli.FIGURE_IDS}
    for name, single_point in _single_points(s).items():
        points = series[name].points
        assert len(points) == steps
        assert [v for _, v in points] == [single_point(x) for x, _ in points], name


@pytest.mark.parametrize("steps", [2, 101, 1001, 10001])
def test_csv_bytes(tmp_path, steps):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_seeded_payload(8, steps)), encoding="utf-8")
    out = tmp_path / "out"
    for command in ("exposure", "table1"):
        assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 0
    for figure in cli.FIGURE_IDS:
        argv = ["exposure", "--figure", figure, "--scenario", str(path), "--out", str(tmp_path / figure)]
        assert cli.main(argv) == 0
    s = scen.load_scenario(path)
    assert s.notes == ()
    axes = {
        "ground_offset_m": exp._sample_axis(0.0, s.ground_offset_sweep.max, steps),
        "altitude_m": exp._sample_axis(s.altitude_sweep.min, s.altitude_sweep.max, steps),
        "range_m": exp._sample_axis(s.range_sweep.min, s.range_sweep.max, steps),
    }
    single_points = _single_points(s)
    for figure in cli.FIGURE_IDS:
        build, _, unit, extra = cli._FIGURES[figure]
        series = build(s)
        lines = [*extra, f"# series: {series.label}; abscissa: {series.abscissa_name}"]
        lines.append("abscissa,value,unit")
        single_point = single_points[figure]
        lines += [f"{fmt(x)},{fmt(single_point(x))},{unit}" for x in axes[series.abscissa_name]]
        # the header lines plus one row per step, no empty line, one final LF
        assert len(lines) == len(extra) + 2 + steps and "" not in lines
        for directory in (out, tmp_path / figure):
            assert (directory / f"{figure}.csv").read_bytes().decode().split("\n") == [*lines, ""]
        assert [p.name for p in (tmp_path / figure).iterdir()] == [f"{figure}.csv"]
    # seeded distances start at 1 m: from 101 steps on, the shortest lies
    # inside the near field of the default 1 m antenna, and table1 says so
    tx, nearest = s.transmitter, min(s.table_distances_m)
    boundary = 2.0 * tx.antenna_dim_m**2 / wavelength_m(tx.freq_mhz)
    assert (nearest < boundary) == (steps > 2)
    lines = [
        f"# warning: range_m={nearest:g} inside the near-field boundary "
        f"2*antenna_dim_m^2/wavelength={boundary:g} m"
    ] if nearest < boundary else []
    lines.append("distance_m,power_density_w_m2")
    gain = tx.linear_gain()
    lines += [f"{fmt(r)},{fmt(power_density(tx.power_w, gain, r))}" for r in s.table_distances_m]
    assert len(lines) == steps + 1 + (nearest < boundary)
    assert (out / "table1.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_empty_series_adds_no_row(monkeypatch):
    # the CLI never builds a series without points; a renderer given one
    # writes the header lines alone, as a row per point would
    empty = exp.SweepSeries("empty", "range_m")
    monkeypatch.setitem(cli._FIGURES, "fig7", (lambda s: empty, lambda s: 10.0, "W/m2", ()))
    args = cli.build_parser().parse_args(["exposure", "--figure", "fig7"])
    (name, lines, _), = cli._exposure(scen.load_scenario(scen.default_scenario_path()), args)
    assert name == "fig7.csv"
    assert lines == ["# series: empty; abscissa: range_m", "abscissa,value,unit"]


def _exposure_files(monkeypatch, figures: dict) -> dict:
    """Every figure's lines from cli._exposure, with figures patched into cli._FIGURES."""
    for figure, entry in figures.items():
        monkeypatch.setitem(cli._FIGURES, figure, entry)
    args = cli.build_parser().parse_args(["exposure"])
    s = scen.load_scenario(scen.default_scenario_path())
    return {name: lines for name, lines, _ in cli._exposure(s, args)}


def test_column_reuse_is_keyed_on_identity(monkeypatch):
    # equal abscissa columns, distinct objects: -0.0 == 0.0 prints differently
    first, second = (0.0, 1.0), (-0.0, 1.0)
    assert first == second and first is not second
    files = _exposure_files(monkeypatch, {
        figure: (lambda s, xs=xs: exp.SweepSeries("edge", "range_m", xs, (1.0, 2.0)), lambda s: 10.0, "W/m2", ())
        for figure, xs in (("fig4", first), ("fig5", second))
    })
    assert files["fig4.csv"][-1] == "0.00000e+00,1.00000e+00,W/m2\n1.00000e+00,2.00000e+00,W/m2"
    assert files["fig5.csv"][-1] == "-0.00000e+00,1.00000e+00,W/m2\n1.00000e+00,2.00000e+00,W/m2"


def test_each_abscissa_column_is_converted_once(monkeypatch):
    # fig4 and fig5 share the cached ground-offset axis, fig6 and fig8 the
    # altitude axis; each figure still gets its own row template
    converted, templates = [], []
    monkeypatch.setattr(cli, "float_column", lambda xs: converted.append(xs) or float_column(xs))
    monkeypatch.setattr(cli, "row_template", lambda text, unit: templates.append(unit) or row_template(text, unit))
    files = _exposure_files(monkeypatch, {})
    assert len(converted) == 3
    assert templates == ["W/m2", "W/m2", "W/m2", "W/m2", "W"]
    assert list(files) == [f"{figure}.csv" for figure in cli.FIGURE_IDS]
