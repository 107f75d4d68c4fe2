"""CLI behavior: file contents, exit codes, determinism."""

import errno
import gc
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from balloonlink import __main__ as balloonlink_main
from balloonlink import cli
from balloonlink import scenario as scen
from balloonlink.cli import FIGURE_IDS
from balloonlink.propagation import (
    FREE_SPACE_IMPEDANCE_OHM,
    TransmitterConfig,
    link_budget,
    wavelength_m,
)

TABLE1_GOLDEN = """\
# warning: gain_linear=50 overrides gain_db=17
distance_m,power_density_w_m2
1.00000e+01,7.95775e-01
1.00000e+02,7.95775e-03
5.00000e+02,3.18310e-04
"""


class TestTable1:
    def test_default_scenario_golden_file(self, run_cli, tmp_path):
        assert run_cli("table1", "--out", str(tmp_path)) == 0
        assert (tmp_path / "table1.csv").read_text() == TABLE1_GOLDEN

    def test_custom_distances(self, run_cli, write_scenario, tmp_path):
        path = write_scenario(
            {
                "transmitter": {"power_w": 20.0, "gain_linear": 50.0, "freq_mhz": 900.0},
                "sweeps": {"distances_m": [50.0]},
            }
        )
        out = tmp_path / "out"
        assert run_cli("table1", "--scenario", str(path), "--out", str(out)) == 0
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[0] == "distance_m,power_density_w_m2"
        assert len(lines) == 2
        # 20*50/(4*pi*50^2) = 0.0318310
        assert lines[1] == "5.00000e+01,3.18310e-02"

    def test_non_finite_distance_is_validation_error(self, run_cli, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"transmitter": {"power_w": 20, "freq_mhz": 900}, "sweeps": {"distances_m": [1e400, 10]}}',
            encoding="utf-8",
        )
        assert run_cli("table1", "--scenario", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err == "error: invalid scenario: sweeps.distances_m[0] must be finite\n"
        assert not (tmp_path / "table1.csv").exists()

    def test_section_six_maxima_as_table_rows(self, run_cli, write_scenario, tmp_path):
        path = write_scenario(
            {
                "transmitter": {"power_w": 20.0, "gain_linear": 50.0, "freq_mhz": 900.0},
                "sweeps": {"distances_m": [150.0, 200.0]},
            }
        )
        assert run_cli("table1", "--scenario", str(path), "--out", str(tmp_path)) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[1] == "1.50000e+02,3.53678e-03"
        assert lines[2] == "2.00000e+02,1.98944e-03"


class TestExposure:
    def test_fig4_first_row(self, run_cli, tmp_path):
        assert run_cli("exposure", "--figure", "fig4", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "fig4.csv").read_text().splitlines()
        header_at = lines.index("abscissa,value,unit")
        assert lines[header_at + 1] == "0.00000e+00,3.53678e-03,W/m2"

    def test_fig6_quarter_ratio(self, run_cli, tmp_path):
        assert run_cli("exposure", "--figure", "fig6", "--out", str(tmp_path)) == 0
        rows = _data_rows(tmp_path / "fig6.csv")
        assert rows[0][0] == 200.0 and rows[-1][0] == 400.0
        # CSV carries 6 significant digits, so compare at display precision
        assert rows[-1][1] == pytest.approx(rows[0][1] / 4.0, rel=1e-5)

    def test_fig8_strictly_decreasing(self, run_cli, tmp_path):
        assert run_cli("exposure", "--figure", "fig8", "--out", str(tmp_path)) == 0
        values = [v for _, v in _data_rows(tmp_path / "fig8.csv")]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_all_figures_written_by_default(self, run_cli, tmp_path):
        assert run_cli("exposure", "--out", str(tmp_path)) == 0
        for figure in FIGURE_IDS:
            assert (tmp_path / f"{figure}.csv").exists()

    def test_failed_write_keeps_the_old_file_set(self, run_cli, write_scenario, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert run_cli("exposure", "--out", str(out)) == 0
        old = {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir()}
        assert sorted(old) == sorted(f"{figure}.csv" for figure in FIGURE_IDS)
        calls, write_csv = [], cli.write_csv

        def full_disk_on_third(path, lines):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            write_csv(path, lines)
            assert path.is_file()

        monkeypatch.setattr(cli, "write_csv", full_disk_on_third)
        # another transmitter power, so a replaced file would differ in bytes
        scenario = write_scenario({"transmitter": {"power_w": 40.0, "freq_mhz": 900.0}})
        capsys.readouterr()
        assert run_cli("exposure", "--scenario", str(scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
        assert len(calls) == 3
        assert {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir()} == old

    def test_fig7_carries_interpretation_note(self, run_cli, tmp_path):
        assert run_cli("exposure", "--figure", "fig7", "--out", str(tmp_path)) == 0
        text = (tmp_path / "fig7.csv").read_text()
        assert "# note:" in text
        assert "power density" in text

    def test_failed_figure_writes_no_figure(self, run_cli, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("received power failed")

        monkeypatch.setattr(cli, "received_power_profile", fail)
        assert run_cli("exposure", "--out", str(tmp_path)) == 1
        assert list(tmp_path.glob("fig*.csv")) == []

    def test_unknown_figure_is_usage_error(self, run_cli, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("exposure", "--figure", "fig9", "--out", str(tmp_path))
        assert excinfo.value.code == 1


class TestReplaceAll:
    def test_unencodable_line_keeps_the_old_file_set(self, tmp_path):
        old = {"a.csv": b"old,a\n", "b.csv": b"old,b\n"}
        for name, content in old.items():
            (tmp_path / name).write_bytes(content)
        with pytest.raises(UnicodeEncodeError):
            # a lone surrogate cannot be encoded
            cli._replace_all(tmp_path, [("a.csv", ["new,a"]), ("b.csv", ["x", "\ud800"])])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old

    def test_failed_write_removes_the_directories_it_created(self, run_cli, tmp_path, capsys, monkeypatch):
        def full_disk(path, lines):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full_disk)
        (tmp_path / "D").mkdir()
        assert run_cli("table1", "--out", str(tmp_path / "D" / "new" / "sub")) == 2
        assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
        assert list((tmp_path / "D").iterdir()) == []

    def test_file_at_a_staged_name_is_refused_and_kept(self, run_cli, tmp_path, capsys):
        assert run_cli("table1", "--out", str(tmp_path)) == 0
        old = (tmp_path / "table1.csv").read_bytes()
        stage = tmp_path / f".table1.csv.{os.getpid()}.staged"
        stage.write_bytes(b"not ours\n")
        capsys.readouterr()
        assert run_cli("table1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"I/O error: [Errno 17] File exists: '{stage}'\n"
        assert stage.read_bytes() == b"not ours\n"
        assert (tmp_path / "table1.csv").read_bytes() == old

    def test_directory_at_a_target_fails_before_any_rename(self, run_cli, write_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("exposure", "--out", str(out)) == 0
        (out / "fig6.csv").unlink()
        (out / "fig6.csv").mkdir()
        old = {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir() if p.is_file()}
        assert len(old) == 4
        scenario = write_scenario({"transmitter": {"power_w": 40.0, "freq_mhz": 900.0}})
        capsys.readouterr()
        assert run_cli("exposure", "--scenario", str(scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"I/O error: [Errno 21] Is a directory: '{out / 'fig6.csv'}'\n"
        assert {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir() if p.is_file()} == old
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{figure}.csv" for figure in FIGURE_IDS)


class TestCoverage:
    def test_reference_inversion(self, run_cli, tmp_path):
        assert (
            run_cli(
                "coverage",
                "--max-path-loss-db",
                "144.8451212094079",
                "--num-balloons",
                "1",
                "--out",
                str(tmp_path),
            )
            == 0
        )
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        radius_line = [l for l in lines if l.startswith("cell_radius_km,")][0]
        assert float(radius_line.split(",")[1]) == pytest.approx(10.0, rel=1e-6)
        union_line = [l for l in lines if l.startswith("union_area_km2,")][0]
        # single disk of radius 10: pi * 100
        assert float(union_line.split(",")[1]) == pytest.approx(314.159265, rel=0.01)

    def test_seven_balloon_layout(self, run_cli, tmp_path):
        assert (
            run_cli(
                "coverage",
                "--max-path-loss-db",
                "144.8451212094079",
                "--num-balloons",
                "7",
                "--out",
                str(tmp_path),
            )
            == 0
        )
        rows = [
            line.split(",")
            for line in (tmp_path / "coverage.csv").read_text().splitlines()
            if line and not line.startswith("#") and line[0].isdigit()
        ]
        assert len(rows) == 7
        for index, x, y in rows[1:]:
            distance = math.hypot(float(x), float(y))
            assert distance == pytest.approx(math.sqrt(3.0) * 10.0, rel=1e-5)

    def test_largest_layout_golden_digest(self, run_cli, tmp_path):
        # a full 1000-platform coverage.csv at the default budget, byte for byte
        assert run_cli("coverage", "--num-balloons", "1000", "--out", str(tmp_path)) == 0
        digest = hashlib.sha256((tmp_path / "coverage.csv").read_bytes()).hexdigest()
        assert digest == "43f93f67dc633d2745980c218d2c9c4a1f5a5b31830f2192543799a7648ece4f"


    def test_more_balloons_than_the_cap_is_validation_error(self, run_cli, tmp_path, capsys):
        argv = ("coverage", "--num-balloons", "1001", "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        assert "num_balloons" in capsys.readouterr().err
        assert not (tmp_path / "coverage.csv").exists()


class TestGreen:
    def test_default_comparison(self, run_cli, tmp_path):
        assert run_cli("green", "--out", str(tmp_path)) == 0
        text = (tmp_path / "green.csv").read_text()
        assert "replaced_bs_count,100" in text
        assert "terrestrial_annual_tons,4.69536e+03" in text
        assert "balloon_annual_tons,0.00000e+00" in text
        assert "avoided_tons,4.69536e+03" in text
        assert "# assumptions:" in text

    def test_equal_radii_single_replacement(self, run_cli, tmp_path):
        assert (
            run_cli(
                "green",
                "--balloon-radius-km",
                "10",
                "--terrestrial-radius-km",
                "10",
                "--out",
                str(tmp_path),
            )
            == 0
        )
        assert "replaced_bs_count,1" in (tmp_path / "green.csv").read_text()

    def test_identical_diesel_profiles_avoid_nothing(
        self, run_cli, write_scenario, tmp_path
    ):
        path = write_scenario(
            {
                "transmitter": {"power_w": 20.0, "freq_mhz": 900.0},
                "green": {
                    "terrestrial": {"source_kind": "DIESEL"},
                    "balloon": {
                        "source_kind": "DIESEL",
                        "fuel_liters_per_hour": 2.0,
                        "emission_factor_kg_per_liter": 2.68,
                    },
                },
            }
        )
        assert (
            run_cli(
                "green",
                "--scenario",
                str(path),
                "--balloon-radius-km",
                "5",
                "--terrestrial-radius-km",
                "5",
                "--out",
                str(tmp_path),
            )
            == 0
        )
        assert "avoided_tons,0.00000e+00" in (tmp_path / "green.csv").read_text()


class TestZones:
    def test_explicit_densities(self, run_cli, tmp_path):
        assert (
            run_cli("zones", "--densities", "5.0,0.796,0.0001", "--out", str(tmp_path))
            == 0
        )
        lines = (tmp_path / "zones.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "density_w_m2,zone"
        assert data[1].endswith(",EXCEEDS_LIMIT")
        assert data[2].endswith(",CAUTION")
        assert data[3].endswith(",SAFE")

    @pytest.mark.parametrize("densities", ["", ",", " , "], ids=["empty", "comma", "spaces"])
    def test_empty_density_list_is_usage_error(self, run_cli, tmp_path, capsys, densities):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("zones", "--densities", densities, "--out", str(tmp_path))
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.endswith("balloonlink zones: error: argument --densities: expected at least one number\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("densities, token", [("abc", "abc"), ("1.0, x2", "x2")])
    def test_non_number_density_names_the_token(self, run_cli, tmp_path, capsys, densities, token):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("zones", "--densities", densities, "--out", str(tmp_path))
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.endswith(f"balloonlink zones: error: argument --densities: not a number: '{token}'\n")
        assert list(tmp_path.iterdir()) == []

    def test_default_classifies_scenario_peak(self, run_cli, tmp_path):
        assert run_cli("zones", "--out", str(tmp_path)) == 0
        data = [
            l
            for l in (tmp_path / "zones.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert data[1] == "3.53678e-03,SAFE"

    def test_negative_density_is_validation_error(self, run_cli, tmp_path, capsys):
        assert run_cli("zones", "--densities=-1.0", "--out", str(tmp_path)) == 1
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("densities", ["nan", "inf", "1.0,nan"])
    def test_non_finite_density_is_validation_error(self, run_cli, tmp_path, capsys, densities):
        assert run_cli("zones", "--densities", densities, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: density_w_m2 must be finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "zones.csv").exists()


class TestLinkBudget:
    def test_stdout_csv(self, run_cli, capsys):
        assert run_cli("linkbudget") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "key,value"
        keys = [l.split(",")[0] for l in data[1:]]
        assert keys == [
            "path_loss_db",
            "power_density_w_m2",
            "e_field_v_m",
            "received_power_w",
            "range_m",
        ]
        values = {l.split(",")[0]: float(l.split(",")[1]) for l in data[1:]}
        assert values["range_m"] == 150.0
        assert values["power_density_w_m2"] == pytest.approx(3.5367765131532297e-3, rel=1e-5)
        # slant range of 0.15 km sits below the Hata validity floor
        assert any("# warning:" in l and "distance_km" in l for l in lines)

    def test_subnormal_density_is_reported(self, run_cli, write_scenario, capsys):
        # E^2 / (120*pi) and the subnormal P_d agree only to far below 1e-12 of P_d
        payload = {
            "transmitter": {"power_w": 9.186094947869e-311, "freq_mhz": 900},
            "geometry": {"altitude_m": 159.02446236209968},
        }
        assert run_cli("linkbudget", "--scenario", str(write_scenario(payload))) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line for line in captured.out.splitlines() if not line.startswith("#")]
        assert rows[0] == "key,value"
        values = [float(row.split(",")[1]) for row in rows[1:]]
        assert len(values) == 5
        assert all(math.isfinite(value) for value in values)
        assert 0.0 < values[1] < sys.float_info.min

    def test_density_below_float_range_agrees_with_the_field(self, run_cli, write_scenario, capsys):
        # at R = 1e160 m the density, ~8e-319 W/m^2, is subnormal: reported, not refused
        path = write_scenario({"transmitter": VALID_TRANSMITTER, "geometry": {"altitude_m": 1e160}})
        assert run_cli("linkbudget", "--scenario", str(path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "range_m,1.00000e+160" in captured.out.splitlines()
        s = scen.load_scenario(path)
        result = link_budget(s.transmitter, s.geometry)
        implied = result.e_field_v_m**2 / FREE_SPACE_IMPEDANCE_OHM
        assert 0.0 < result.power_density_w_m2 == pytest.approx(implied, rel=1e-12)


# The shortest range each product evaluates in NEAR_FIELD_PAYLOAD, in m.
NEAR_FIELD_PAYLOAD = {
    "geometry": {"altitude_m": 30.0, "ground_offset_m": 40.0},
    "sweeps": {
        "altitude": {"min": 30.0, "max": 60.0},
        "range": {"min": 40.0, "max": 500.0},
        "distances_m": [100.0, 40.0],
    },
}
SHORTEST_RANGE_M = {
    ("table1",): 40.0,  # min(distances_m)
    ("exposure", "--figure", "fig4"): cli.FIG4_ALTITUDE_M,
    ("exposure", "--figure", "fig5"): cli.FIG5_ALTITUDE_M,
    ("exposure", "--figure", "fig6"): 50.0,  # hypot(altitude min, ground offset)
    ("exposure", "--figure", "fig7"): 40.0,  # range min
    ("exposure", "--figure", "fig8"): 50.0,
    ("linkbudget",): 50.0,  # the slant range
    ("zones",): 30.0,  # the altitude, over the peak density
}


def _near_field_m(antenna_dim_m: float, freq_mhz: float) -> float:
    return TransmitterConfig(1.0, freq_mhz=freq_mhz, antenna_dim_m=antenna_dim_m).near_field_m()


def _antenna_at(boundary_m: float) -> tuple[float, float]:
    """(antenna_dim_m, freq_mhz) whose far-field boundary is exactly boundary_m."""
    for freq_mhz in (900.0, 901.0, 902.0, 903.0, 904.0):
        guess = math.sqrt(boundary_m * wavelength_m(freq_mhz) / 2.0)
        for length in (guess, math.nextafter(guess, 0.0), math.nextafter(guess, math.inf)):
            if _near_field_m(length, freq_mhz) == boundary_m:
                return length, freq_mhz
    raise AssertionError(f"no antenna found with its boundary at exactly {boundary_m} m")


@pytest.fixture
def near_field_lines(run_cli, write_scenario, tmp_path, capsys):
    """Run a product on NEAR_FIELD_PAYLOAD with the given antenna; return its near-field warnings."""

    def run(argv, antenna_dim_m, freq_mhz):
        transmitter = {"power_w": 20.0, "freq_mhz": freq_mhz, "antenna_dim_m": antenna_dim_m}
        path = write_scenario({**NEAR_FIELD_PAYLOAD, "transmitter": transmitter})
        out = tmp_path / "out"
        assert run_cli(*argv, "--scenario", str(path), "--out", str(out)) == 0
        texts = [p.read_text() for p in out.glob("*.csv")] or [capsys.readouterr().out]
        return [line for text in texts for line in text.splitlines() if "near-field" in line]

    return run


@pytest.mark.parametrize("argv", SHORTEST_RANGE_M, ids=lambda argv: argv[-1])
class TestNearField:
    def test_no_warning_at_the_boundary(self, near_field_lines, argv):
        assert near_field_lines(argv, *_antenna_at(SHORTEST_RANGE_M[argv])) == []

    def test_one_warning_just_inside(self, near_field_lines, argv):
        range_m = SHORTEST_RANGE_M[argv]
        length, freq_mhz = _antenna_at(range_m)
        while _near_field_m(length, freq_mhz) == range_m:
            length = math.nextafter(length, math.inf)
        boundary = _near_field_m(length, freq_mhz)
        assert near_field_lines(argv, length, freq_mhz) == [
            f"# warning: range_m={range_m:g} inside the near-field boundary "
            f"2*antenna_dim_m^2/wavelength={boundary:g} m"
        ]

    def test_no_warning_without_an_antenna_size(self, near_field_lines, argv):
        assert near_field_lines(argv, 0.0, 900.0) == []


class TestNearFieldProducts:
    @pytest.mark.parametrize(
        "argv", [("zones", "--densities", "1.0"), ("coverage",), ("green",)], ids=lambda a: a[0]
    )
    def test_product_without_a_range_never_warns(self, near_field_lines, argv):
        # a 100 m antenna at 900 MHz has its far field beyond 60 km
        assert near_field_lines(argv, 100.0, 900.0) == []

    @pytest.mark.parametrize("antenna_dim_m, warnings", [(3.0, 1), (1.0, 0)])
    def test_antenna_size_decides_the_table1_warning(
        self, run_cli, write_scenario, tmp_path, antenna_dim_m, warnings
    ):
        # 2 L^2 / lambda at 900 MHz: 54.0 m for L = 3 m, 6.0 m for L = 1 m
        transmitter = {"power_w": 20.0, "freq_mhz": 900.0, "antenna_dim_m": antenna_dim_m}
        path = write_scenario({"transmitter": transmitter, "sweeps": {"distances_m": [10.0]}})
        assert run_cli("table1", "--scenario", str(path), "--out", str(tmp_path / "out")) == 0
        lines = (tmp_path / "out" / "table1.csv").read_text().splitlines()
        assert sum(line.startswith("# warning: range_m=10 inside") for line in lines) == warnings
        assert len(lines) == 2 + warnings


# The one-line outcomes of bad or extreme scenario values, one row per case:
# id -> (argv, scenario sections laid over VALID_TRANSMITTER, exit code, the
# whole stderr line after its "error: ", or None where the run succeeds with
# an empty stderr).
VALID_TRANSMITTER = {"power_w": 20.0, "freq_mhz": 900.0}
_F303 = {"transmitter": {"freq_mhz": 1e303}}  # the wavelength underflows to 0
_F323 = {"transmitter": {"freq_mhz": 2e-323}}  # the wavelength overflows to inf
_HUGE_PG = {"transmitter": {"power_w": 1e308, "gain_linear": 1e10}}
_TINY_F = {"transmitter": {"freq_mhz": 1e-300}}  # lambda^2 overflows; the range is fine
_NUL_DIR = {"output_dir": "a\u0000b"}  # refused even where --out overrides it
# a field too small for a float is 0 in fig6 and in fig8 alike
_ALTITUDE_TO_1E300 = {"sweeps": {"altitude": {"min": 200.0, "max": 1e300, "steps": 3}}}
ONE_LINE_ERRORS = {
    "section-geometry": (("table1",), {"geometry": 3}, 1, "invalid scenario: geometry must be a JSON object"),
    "section-solar-fuel": (
        ("table1",), {"green": {"balloon": {"source_kind": "SOLAR", "fuel_liters_per_hour": 1.0}}}, 1,
        "invalid scenario: green.balloon: a SOLAR profile must have all emission fields at 0"),
    "section-profile-number": (
        ("table1",), {"green": {"terrestrial": {"fuel_liters_per_hour": -1.0}}}, 1,
        "invalid scenario: green.terrestrial.fuel_liters_per_hour must be >= 0"),
    "section-source-kind": (
        ("green",), {"green": {"terrestrial": {"source_kind": "COAL"}}}, 1,
        "invalid scenario: green.terrestrial.source_kind must be one of DIESEL, SOLAR, GRID"),
    "section-distances": (
        ("table1",), {"sweeps": {"distances_m": 5}}, 1,
        "invalid scenario: sweeps.distances_m must be a list of numbers"),
    "section-output-dir-empty": (
        ("table1",), {"output_dir": ""}, 1, "invalid scenario: output_dir must be a non-empty string"),
    "section-output-dir-int": (
        ("table1",), {"output_dir": 3}, 1, "invalid scenario: output_dir must be a non-empty string"),
    "section-output-dir-nul-table1": (
        ("table1",), _NUL_DIR, 1, "invalid scenario: output_dir must not contain a NUL character"),
    "section-output-dir-nul-linkbudget": (
        ("linkbudget",), _NUL_DIR, 1, "invalid scenario: output_dir must not contain a NUL character"),
    "db-gain-overflow": (
        ("table1",), {"transmitter": {"gain_db": 1e308}}, 1,
        "value_db=1e+308 is out of range: 10^(dB/10) is not a float > 0"),
    "db-rx-gain-linkbudget": (
        ("linkbudget",), {"geometry": {"rx_gain_db": 5000}}, 1,
        "value_db=5000 is out of range: 10^(dB/10) is not a float > 0"),
    "db-rx-gain-fig8": (
        ("exposure", "--figure", "fig8"), {"geometry": {"rx_gain_db": 5000}}, 1,
        "value_db=5000 is out of range: 10^(dB/10) is not a float > 0"),
    "db-gain-underflow": (
        ("table1",), {"transmitter": {"gain_db": -4000}}, 1,
        "value_db=-4000 is out of range: 10^(dB/10) is not a float > 0"),
    "infinite-green": (
        ("green",),
        {"green": {"terrestrial": {
            "source_kind": "GRID", "grid_kwh_per_hour": 1.5e308, "grid_emission_kg_per_kwh": 2}}},
        1,
        "annual emissions at grid_kwh_per_hour=1.5e+308, hours_per_year=8760, "
        "grid_emission_kg_per_kwh=2 is beyond float range"),
    "infinite-table1": (
        ("table1",), _HUGE_PG, 1, "power density at power_w=1e+308, gain_linear=1e+10 is beyond float range"),
    "infinite-fig7": (
        ("exposure", "--figure", "fig7"), _HUGE_PG, 1,
        "power density at power_w=1e+308, gain_linear=1e+10 is beyond float range"),
    "underflow-table1": (
        ("table1",), {"sweeps": {"distances_m": [1e-200]}}, 1,
        "power density at range_m=1e-200 is beyond float range"),
    "underflow-fig7": (
        ("exposure", "--figure", "fig7"), {"sweeps": {"range": {"min": 1e-200, "max": 1e-190}}}, 1,
        "power density at range_m=1e-200 is beyond float range"),
    "altitude-1e300-fig6": (("exposure", "--figure", "fig6"), _ALTITUDE_TO_1E300, 0, None),
    "altitude-1e300-fig8": (("exposure", "--figure", "fig8"), _ALTITUDE_TO_1E300, 0, None),
    "wavelength-fig8": (
        ("exposure", "--figure", "fig8"), _TINY_F, 1,
        "received power at freq_mhz=1e-300 is beyond float range"),
    "wavelength-linkbudget": (
        ("linkbudget",), _TINY_F, 1, "received power at freq_mhz=1e-300 is beyond float range"),
    # green and zones --densities evaluate no range, so they need no wavelength
    "freq-1e303-table1": (("table1",), _F303, 1, "wavelength at freq_mhz=1e+303 is beyond float range"),
    "freq-1e303-exposure": (("exposure",), _F303, 1, "wavelength at freq_mhz=1e+303 is beyond float range"),
    "freq-1e303-coverage": (
        ("coverage",), _F303, 1,
        "max_path_loss_db=140 is too small for freq_mhz=1e+303, outside the Hata range [150, 1500] MHz: "
        "the cell radius, 10^-261.403 km, has an area below float range"),
    "freq-1e303-green": (("green",), _F303, 0, None),
    "freq-1e303-zones-densities": (("zones", "--densities", "1"), _F303, 0, None),
    "freq-1e303-linkbudget": (
        ("linkbudget",), _F303, 1, "wavelength at freq_mhz=1e+303 is beyond float range"),
    "freq-2e-323-table1": (
        ("table1",), _F323, 1, "wavelength at freq_mhz=1.97626e-323 is beyond float range"),
    "freq-2e-323-exposure": (
        ("exposure",), _F323, 1, "wavelength at freq_mhz=1.97626e-323 is beyond float range"),
    "freq-2e-323-coverage": (
        ("coverage",), _F323, 1,
        "max_path_loss_db=140 is too large for freq_mhz=1.97626e-323, outside the Hata range "
        "[150, 1500] MHz: the cell radius, 10^285.464 km, has an area beyond float range"),
    "freq-2e-323-green": (("green",), _F323, 0, None),
    "freq-2e-323-zones-densities": (("zones", "--densities", "1"), _F323, 0, None),
    "freq-2e-323-linkbudget": (
        ("linkbudget",), _F323, 1, "wavelength at freq_mhz=1.97626e-323 is beyond float range"),
    "beyond-near-field": (
        ("table1",), {"transmitter": {"antenna_dim_m": 1.7e308}}, 1,
        "near-field distance at antenna_dim_m=1.7e+308, freq_mhz=900 is beyond float range"),
    "beyond-slant-range": (
        ("linkbudget",), {"geometry": {"altitude_m": 1.7e308, "ground_offset_m": 1e308}}, 1,
        "slant range at altitude_m=1.7e+308, ground_offset_m=1e+308 is beyond float range"),
    "beyond-hata-correction": (
        ("linkbudget",), {"geometry": {"rx_antenna_height_m": 1.7e308}}, 1,
        "Hata correction at freq_mhz=900, rx_antenna_height_m=1.7e+308 is beyond float range"),
    "beyond-annual-emissions": (
        ("green",),
        {"green": {"terrestrial": {"fuel_liters_per_hour": 1e300, "emission_factor_kg_per_liter": 1e300}}},
        1,
        "annual emissions at fuel_liters_per_hour=1e+300, hours_per_year=8760, "
        "emission_factor_kg_per_liter=1e+300 is beyond float range"),
    # valid sweeps whose step is below float resolution at the upper end
    "sweep-altitude-finer-than-float": (
        ("exposure",), {"sweeps": {"altitude": {"min": 200, "max": 200.00000000000006, "steps": 101}}}, 1,
        "altitude_m sweep from 200.0 to 200.00000000000006 in 101 steps is finer than float resolution"),
    "sweep-range-finer-than-float": (
        ("exposure", "--figure", "fig7"),
        {"sweeps": {"range": {"min": 10, "max": 10.000000000000002, "steps": 5}}}, 1,
        "range_m sweep from 10.0 to 10.000000000000002 in 5 steps is finer than float resolution"),
    "sweep-ground-offset-finer-than-float": (
        ("exposure", "--figure", "fig4"), {"sweeps": {"ground_offset": {"max": 5e-324}}}, 1,
        "ground_offset_m sweep from 0.0 to 5e-324 in 101 steps is finer than float resolution"),
}


class TestExitCodes:
    def test_missing_scenario_file_is_io_error(self, run_cli, tmp_path, capsys):
        assert run_cli("table1", "--scenario", str(tmp_path / "nope.json")) == 2
        assert "I/O error" in capsys.readouterr().err

    def test_invalid_scenario_is_validation_error(
        self, run_cli, write_scenario, capsys
    ):
        path = write_scenario({"transmitter": {"power_w": -5.0, "freq_mhz": 900.0}})
        assert run_cli("table1", "--scenario", str(path)) == 1
        assert "power_w must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, sections, code, message", ONE_LINE_ERRORS.values(), ids=ONE_LINE_ERRORS)
    def test_one_line_outcome(self, run_cli, write_scenario, tmp_path, capsys, argv, sections, code, message):
        payload = {**sections, "transmitter": {**VALID_TRANSMITTER, **sections.get("transmitter", {})}}
        out = tmp_path / "out"
        assert run_cli(*argv, "--scenario", str(write_scenario(payload)), "--out", str(out)) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()
        else:
            assert captured.err == ""
            assert sorted(captured.out.splitlines()) == sorted(f"wrote {path}" for path in out.iterdir())

    @pytest.mark.parametrize("figure", ["fig6", "fig8"])
    def test_altitude_beyond_float_range_writes_zero(self, run_cli, write_scenario, tmp_path, figure):
        path = write_scenario({**_ALTITUDE_TO_1E300, "transmitter": VALID_TRANSMITTER})
        assert run_cli("exposure", "--figure", figure, "--scenario", str(path), "--out", str(tmp_path)) == 0
        # the series line, the header and the row at 200 m come first
        rows = (tmp_path / f"{figure}.csv").read_text().splitlines()[3:]
        assert [row.split(",")[:2] for row in rows] == [
            ["5.00000e+299", "0.00000e+00"],
            ["1.00000e+300", "0.00000e+00"],
        ]

    @pytest.mark.parametrize("flag", ["--out", "--scenario"])
    def test_empty_path_is_usage_error(self, run_cli, tmp_path, monkeypatch, capsys, flag):
        # Path("") would be ".": the working directory, which the user never named
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("table1", flag, "")
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.endswith(f"balloonlink table1: error: argument {flag}: expected a non-empty path\n")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_json_is_validation_error(self, run_cli, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run_cli("table1", "--scenario", str(path)) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, out_is_file, code, message",
        [
            # deeper than the recursion limit of any interpreter
            (b'{"sweeps": {"distances_m": ' + b"[" * 100_000 + b"]" * 100_000 + b"}}", False, 1,
             "error: {path}: JSON nested too deeply\n"),
            (b'{"transmitter": {"power_w": 20, "freq_mhz": 900}, "output_dir": "\xff"}', False, 1,
             "error: {path}: byte 65: not UTF-8 text\n"),
            (b"[20, 900]", False, 1, "error: invalid scenario: scenario root must be a JSON object\n"),
            (None, False, 2, "I/O error: "),  # None: the scenario path is a directory
            (b'{"transmitter": {"power_w": 20, "freq_mhz": 900}}', True, 2, "I/O error: "),
        ],
        ids=["deep-nesting", "not-utf-8", "root-not-object", "scenario-is-directory", "out-is-file"],
    )
    def test_unusable_scenario_or_out_is_one_line(
        self, run_cli, tmp_path, capsys, content, out_is_file, code, message
    ):
        path = tmp_path / "scenario.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("not a directory", encoding="utf-8")
        assert run_cli("table1", "--scenario", str(path), "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(path=path))
        assert err.count("\n") == 1
        assert not (out / "table1.csv").exists()

    def test_unwritable_out_dir_is_io_error(self, run_cli, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        assert run_cli("table1", "--out", str(blocker / "sub")) == 2
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("coverage", "--max-path-loss-db", "1e6"),
            ("coverage", "--max-path-loss-db", "5000"),
            ("coverage", "--max-path-loss-db", "4700"),
            ("green", "--balloon-radius-km", "1e200", "--terrestrial-radius-km", "1e-200"),
        ],
    )
    def test_overflowing_input_is_validation_error(self, run_cli, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, parameter",
        [
            (("coverage", "--max-path-loss-db", "1e6"), "max_path_loss_db"),
            (("coverage", "--max-path-loss-db", "5000"), "max_path_loss_db"),
            # the radius squared is finite, the union of 7 cells is not
            (("coverage", "--max-path-loss-db", "4700"), "radius_km=5.16129e+153"),
            (("green", "--balloon-radius-km", "1e155"), "balloon_radius_km"),
            (("green", "--terrestrial-radius-km", "1e-160"), "terrestrial_radius_km"),
            (("coverage", "--max-path-loss-db", "-5000"), "max_path_loss_db"),
            (("coverage", "--max-path-loss-db", "-20000"), "max_path_loss_db"),
            (("green", "--terrestrial-radius-km", "inf"), "terrestrial_radius_km"),
        ],
    )
    def test_overflow_error_names_its_input(self, run_cli, tmp_path, capsys, argv, parameter):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert parameter in capsys.readouterr().err

    def test_missing_command_is_usage_error(self, run_cli):
        with pytest.raises(SystemExit) as excinfo:
            run_cli()
        assert excinfo.value.code == 1

    def test_help_exits_zero(self, run_cli):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--help")
        assert excinfo.value.code == 0

    def test_subcommand_help_lists_green_assumptions(self, run_cli, capsys):
        with pytest.raises(SystemExit):
            run_cli("green", "--help")
        out = capsys.readouterr().out
        assert "2.68 kg CO2/L" in out
        assert "8760" in out

    def test_help_lists_every_table_default(self, run_cli, capsys):
        with pytest.raises(SystemExit):
            run_cli("--help")
        out = capsys.readouterr().out
        for rows in scen._FIELDS.values():
            for key, default, _ in rows:
                if isinstance(default, float):
                    assert f"{key}={default:g}" in out
        for profile in scen._PROFILE_DEFAULTS.values():
            assert profile.summary() in out
        for name, (lo, hi, _) in scen._SWEEPS.items():
            assert f"{name}={lo:g}..{hi:g} m" in out
        key, steps, bounds = scen._STEPS
        assert f"{key}={steps} ({bounds[0][1]}..{bounds[1][1]})" in out
        assert "distances_m=[" + ", ".join(f"{d:g}" for d in scen._DISTANCES_M) + "]" in out


class TestReadme:
    def test_command_block_and_profile_table_match_the_cli(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```sh\n(balloonlink .*?)```", readme, re.DOTALL).group(1)
        commands = {line.split()[1] for line in block.splitlines() if line.startswith("balloonlink ")}
        assert commands == set(cli.PRODUCTS)
        assert tuple(re.findall(r"^\| (fig\d+) ", readme, re.MULTILINE)) == FIGURE_IDS
        assert f"at most {cli.MAX_BALLOONS} balloons" in readme


class TestDeterminism:
    def test_identical_bytes_across_runs(self, run_cli, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        commands = [
            ("table1",),
            ("exposure",),
            ("coverage",),
            ("green",),
            ("zones",),
        ]
        for command in commands:
            assert run_cli(*command, "--out", str(first)) == 0
            assert run_cli(*command, "--out", str(second)) == 0
        first_files = sorted(p.name for p in first.iterdir())
        assert first_files == sorted(p.name for p in second.iterdir())
        for name in first_files:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_linkbudget_stdout_stable(self, run_cli, capsys):
        assert run_cli("linkbudget") == 0
        first = capsys.readouterr().out
        assert run_cli("linkbudget") == 0
        assert capsys.readouterr().out == first


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


class TestEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        result = _python("-m", "balloonlink", "table1", "--out", str(tmp_path))
        assert (result.returncode, result.stderr) == (0, "")
        assert (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("bogus",), 1),
            (("zones", "--densities", "abc"), 1),
            (("table1", "--scenario", "{invalid}"), 1),
            (("table1", "--out", "{file}"), 2),
        ],
        ids=["unknown-command", "densities-not-a-number", "invalid-scenario", "out-is-a-file"],
    )
    def test_exit_code_and_one_error_line(self, write_scenario, tmp_path, argv, code):
        invalid = write_scenario({"transmitter": {"power_w": -5.0, "freq_mhz": 900.0}})
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        argv = [arg.format(invalid=invalid, file=blocker) for arg in argv]
        result = _python("-m", "balloonlink", *argv)
        assert result.returncode == code
        assert sum("error:" in line for line in result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "scenario.json"]

    def test_dev_mode_with_warnings_as_errors_is_silent(self, tmp_path):
        result = _python("-X", "dev", "-W", "error", "-m", "balloonlink", "exposure", "--out", str(tmp_path))
        assert (result.returncode, result.stderr) == (0, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{figure}.csv" for figure in FIGURE_IDS)

    @pytest.mark.parametrize(
        "argv, code", [(["table1", "--out", "{out}"], 0), (["--version"], 0), (["bogus"], 1)]
    )
    def test_run_freezes_the_heap_once_on_every_exit(self, tmp_path, capsys, monkeypatch, argv, code):
        # a recorder stands in for gc.freeze, so this process is never frozen
        freezes = []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(True))
        monkeypatch.setattr(sys, "argv", ["balloonlink", *(a.format(out=tmp_path) for a in argv)])
        if argv[0] == "table1":
            assert balloonlink_main.run() == code
        else:
            with pytest.raises(SystemExit) as excinfo:
                balloonlink_main.run()
            assert excinfo.value.code == code
        assert freezes == [True]

    def test_main_in_process_never_freezes(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setattr(gc, "freeze", lambda: pytest.fail("cli.main froze the heap"))
        assert run_cli("table1", "--out", str(tmp_path)) == 0
        with pytest.raises(SystemExit):
            run_cli("--version")


class _ClosedPipe:
    """An in-process stdout whose reader has gone; it has no file descriptor."""

    def __init__(self, buffered: bool):
        self.buffered = buffered

    def write(self, text: str) -> int:
        if not self.buffered:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedStdout:
    FIGURES = sorted(f"{figure}.csv" for figure in FIGURE_IDS)

    @pytest.mark.parametrize("buffered", [False, True], ids=["fails-on-write", "fails-on-flush"])
    def test_every_file_is_written_before_the_error(self, run_cli, tmp_path, capsys, monkeypatch, buffered):
        assert run_cli("exposure", "--out", str(tmp_path / "open")) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(buffered))
        assert run_cli("exposure", "--out", str(tmp_path / "closed")) == 2
        assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"
        assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == self.FIGURES
        for name in self.FIGURES:
            assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()

    def test_closed_pipe_exits_2_with_one_line(self, tmp_path):
        # Python's default block buffering: without PYTHONUNBUFFERED the
        # error surfaces at the flush, not at the first write
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            result = subprocess.run(
                [sys.executable, "-m", "balloonlink", "exposure", "--out", str(tmp_path)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, "I/O error: [Errno 32] Broken pipe\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FIGURES


def _data_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("abscissa"):
            continue
        x, v, _ = line.split(",")
        rows.append((float(x), float(v)))
    return rows
