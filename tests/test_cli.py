"""CLI behavior: file contents, exit codes, determinism."""

import errno
import gc
import hashlib
import io
import itertools
import math
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest

from balloonlink import __main__ as balloonlink_main
from balloonlink import cli
from balloonlink import scenario as scen
from balloonlink.cli import FIGURE_IDS
from balloonlink.emissions import grid_profile, solar_profile
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
            assert Path(path).is_file()

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
            cli._replace_all(tmp_path, {"a.csv": "new,a\n", "b.csv": "x\n\ud800\n"})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old

    @pytest.mark.parametrize("spelling", ["D/new/sub", "D/new/./sub/", "D//new/sub"])
    def test_failed_write_removes_the_directories_it_created(
        self, run_cli, tmp_path, capsys, monkeypatch, spelling
    ):
        def full_disk(path, lines):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full_disk)
        (tmp_path / "D").mkdir()
        assert run_cli("table1", "--out", f"{tmp_path}/{spelling}") == 2
        assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
        assert list((tmp_path / "D").iterdir()) == []

    @pytest.mark.parametrize(
        "out",
        [".", "./x", "x/", "x//y", "x/./y", "x/.", "a/../b", pytest.param("{tmp}//abs/./", id="absolute"),
         pytest.param(None, id="output_dir")],
    )
    def test_out_is_reported_and_written_as_a_posix_path_joins_it(
        self, run_cli, write_scenario, tmp_path, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").mkdir()
        if out is None:  # the scenario's output_dir
            out = "."
            argv = ["--scenario", str(write_scenario({"transmitter": VALID_TRANSMITTER, "output_dir": out}))]
        else:
            out = out.format(tmp=tmp_path)
            argv = ["--out", out]
        assert run_cli("table1", *argv) == 0
        target = str(Path(out) / "table1.csv")
        assert capsys.readouterr().out == f"wrote {target}\n"
        assert [p.resolve() for p in tmp_path.rglob("table1.csv")] == [Path(target).resolve()]

    def test_a_path_is_spelled_as_a_posix_path_object_prints_it(self):
        # every spelling of up to four parts, "//" and "///" roots included
        for parts in itertools.product(["", ".", "..", "a", "/", "//", "///"], repeat=4):
            path = "".join(parts)
            assert cli._spelled(path) == str(PurePosixPath(path)), path
            assert cli._spelled(path, "t.csv") == str(PurePosixPath(path) / "t.csv"), path

    def test_a_stat_error_other_than_missing_names_out(self, run_cli, tmp_path, capsys):
        # a part longer than a file name may be fails the mkdir of out itself,
        # so no directory above it is made and none is named
        out = tmp_path / ("n" * 300) / "sub"
        assert run_cli("table1", "--out", str(out)) == 2
        expected = f"I/O error: [Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '{out}'\n"
        assert capsys.readouterr().err == expected
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, lands_in", [("a/../b", "b"), ("x/y/../z", "x/z")])
    def test_missing_parents_before_a_dotdot_are_made_as_mkdir_p_makes_them(
        self, run_cli, tmp_path, capsys, monkeypatch, out, lands_in
    ):
        monkeypatch.chdir(tmp_path)
        assert run_cli("table1", "--out", out) == 0
        assert capsys.readouterr().out == f"wrote {out}/table1.csv\n"
        assert (tmp_path / lands_in / "table1.csv").read_text() == TABLE1_GOLDEN

    def test_out_made_meanwhile_by_another_process_is_used(self, run_cli, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "out")
        real_mkdir = os.mkdir
        raced = []

        def racing_mkdir(path, *args, **kwargs):
            if path == out and not raced:  # the other process makes out first
                raced.append(path)
                real_mkdir(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", racing_mkdir)
        assert run_cli("table1", "--out", out) == 0
        assert raced == [out]
        assert capsys.readouterr().out == f"wrote {out}/table1.csv\n"
        assert (tmp_path / "out" / "table1.csv").read_text() == TABLE1_GOLDEN

    def test_out_symlinked_to_a_directory_is_used(self, run_cli, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "dir")
        assert run_cli("table1", "--out", str(out)) == 0
        assert (tmp_path / "dir" / "table1.csv").read_text() == TABLE1_GOLDEN

    @pytest.mark.parametrize("target", ["missing", "out"], ids=["dangling", "looping"])
    def test_a_symlink_at_out_to_no_directory_is_not_a_directory(self, run_cli, tmp_path, capsys, target):
        out = tmp_path / "out"
        out.symlink_to(tmp_path / target)
        assert run_cli("table1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"I/O error: [Errno 20] Not a directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_a_missing_path_of_1500_parts_is_made_without_recursion(
        self, run_cli, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out = "/".join(["d"] * 1500)
        try:
            assert run_cli("table1", "--out", out) == 0
            assert capsys.readouterr().out == f"wrote {out}/table1.csv\n"
        finally:
            # os.removedirs is iterative; shutil.rmtree, which cleans tmp_path, recurses
            if os.path.isdir(out):
                if os.path.exists(f"{out}/table1.csv"):
                    os.remove(f"{out}/table1.csv")
                os.removedirs(out)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, kept", [("new", "new"), ("a/../b", "b")])
    def test_a_rollback_keeps_a_directory_written_into_and_raises_the_first_error(
        self, run_cli, tmp_path, capsys, monkeypatch, out, kept
    ):
        foreign = tmp_path / kept / "foreign.txt"

        def foreign_file_then_full_disk(path, lines):
            foreign.write_bytes(b"not ours\n")  # another process writes into the new directory
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "write_csv", foreign_file_then_full_disk)
        assert run_cli("table1", "--out", out) == 2
        assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
        assert foreign.read_bytes() == b"not ours\n"
        # every other directory the run made is gone: "a" is removed after "b" fails
        assert [str(p.relative_to(tmp_path)) for p in sorted(tmp_path.rglob("*"))] == [kept, f"{kept}/foreign.txt"]

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

    def test_out_naming_a_file_is_reported_under_its_own_name(self, run_cli, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_bytes(b"kept\n")
        assert run_cli("exposure", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"I/O error: [Errno 20] Not a directory: '{out}'\n"
        assert out.read_bytes() == b"kept\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_output_dir_naming_a_file_is_reported_under_its_own_name(
        self, run_cli, write_scenario, tmp_path, capsys
    ):
        out = tmp_path / "afile"
        out.write_bytes(b"kept\n")
        scenario = write_scenario({"transmitter": VALID_TRANSMITTER, "output_dir": str(out)})
        assert run_cli("table1", "--scenario", str(scenario)) == 2
        assert capsys.readouterr().err == f"I/O error: [Errno 20] Not a directory: '{out}'\n"
        assert out.read_bytes() == b"kept\n"
        assert sorted(tmp_path.iterdir()) == sorted([out, scenario])


class TestRender:
    @pytest.mark.parametrize("command", cli.PRODUCTS)
    def test_render_touches_no_file_or_stream_and_is_what_main_writes(
        self, run_cli, tmp_path, capsys, monkeypatch, command
    ):
        class FailingStream:
            def write(self, text):
                raise OSError(errno.EIO, "render wrote to stdout")

        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        scenario = scen.load_scenario(scen.default_scenario_path())
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", FailingStream())
            texts = cli.render(scenario, vars(cli.build_parser().parse_args(argv)))
        assert not out.exists()

        assert run_cli(*argv) == 0
        stdout = texts.pop(None, "")
        assert capsys.readouterr().out == stdout + "".join(f"wrote {out / name}\n" for name in texts)
        written = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        assert written == {name: text.encode() for name, text in texts.items()}


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

    def test_source_kinds_are_case_insensitive_and_print_canonically(
        self, run_cli, write_scenario, tmp_path
    ):
        path = write_scenario(
            {
                "transmitter": {"power_w": 20.0, "freq_mhz": 900.0},
                "green": {
                    "terrestrial": {"source_kind": "grid", "grid_kwh_per_hour": 3.0},
                    "balloon": {"source_kind": "Solar"},
                },
            }
        )
        loaded = scen.load_scenario(str(path))
        assert (loaded.green_terrestrial, loaded.green_balloon) == (grid_profile(3.0), solar_profile())
        assert run_cli("green", "--scenario", str(path), "--out", str(tmp_path)) == 0
        text = (tmp_path / "green.csv").read_text()
        assert "terrestrial=GRID 3 kWh/h at 0.82 kg CO2/kWh, balloon=SOLAR (zero emission)\n" in text


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
# whole stderr line after its "error: "; where the run succeeds with an empty
# stderr, None for a file product, or for linkbudget a row its stdout holds).
VALID_TRANSMITTER = {"power_w": 20.0, "freq_mhz": 900.0}
_F303 = {"transmitter": {"freq_mhz": 1e303}}  # the frequency in Hz overflows to inf
_F323 = {"transmitter": {"freq_mhz": 2e-323}}  # the wavelength overflows to inf
_HUGE_PG = {"transmitter": {"power_w": 1e308, "gain_linear": 1e10}}
_TINY_F = {"transmitter": {"freq_mhz": 1e-300}}  # lambda^2 overflows; the range is fine
_NUL_DIR = {"output_dir": "a\u0000b"}  # refused even where --out overrides it
_SURROGATE_DIR = {"output_dir": "x\ud800y"}  # no path's bytes decode to it; refused as _NUL_DIR is
# a field too small for a float is 0 in fig6 and in fig8 alike
_ALTITUDE_TO_1E300 = {"sweeps": {"altitude": {"min": 200.0, "max": 1e300, "steps": 3}}}
# E^2 overflows a float here, but the density E*(E/(120*pi)), 1.00464e+307 W/m^2, does not
_E_SQUARED_OVERFLOWS = {
    "transmitter": {"power_w": 1e8, "gain_linear": 100}, "geometry": {"altitude_m": 8.9e-150}
}
ONE_LINE_ERRORS = {
    "section-geometry": (("table1",), {"geometry": 3}, 1, "invalid scenario: geometry must be a JSON object"),
    # a section left out takes its defaults; one given as null is refused like any non-object
    "section-geometry-null": (
        ("table1",), {"geometry": None}, 1, "invalid scenario: geometry must be a JSON object"),
    "section-sweeps-null": (("table1",), {"sweeps": None}, 1, "invalid scenario: sweeps must be a JSON object"),
    "section-sweep-null": (
        ("table1",), {"sweeps": {"altitude": None}}, 1, "invalid scenario: sweeps.altitude must be a JSON object"),
    "section-profile-null": (
        ("green",), {"green": {"terrestrial": None}}, 1,
        "invalid scenario: green.terrestrial must be a JSON object"),
    # a list longer than the sweeps' step cap is one problem: none of its values is checked
    "distances-over-cap": (
        ("table1",), {"sweeps": {"distances_m": [-1.0] * 100_002}}, 1,
        "invalid scenario: sweeps.distances_m must hold at most 100001 values"),
    # a list at the cap is checked value by value, but only the first ten bad values are named
    "distances-all-bad-at-cap": (
        ("table1",), {"sweeps": {"distances_m": [-1.0] * 100_001}}, 1,
        "invalid scenario: "
        + "".join(f"sweeps.distances_m[{i}] must be > 0; " for i in range(10))
        + "sweeps.distances_m has 99991 more bad values"),
    "section-solar-fuel": (
        ("table1",), {"green": {"balloon": {"source_kind": "SOLAR", "fuel_liters_per_hour": 1.0}}}, 1,
        "invalid scenario: green.balloon: a SOLAR profile must have fuel_liters_per_hour at 0"),
    "section-grid-fuel": (
        ("green",), {"green": {"terrestrial": {"source_kind": "GRID", "fuel_liters_per_hour": 5}}}, 1,
        "invalid scenario: green.terrestrial: a GRID profile must have fuel_liters_per_hour at 0"),
    "section-profile-number": (
        ("table1",), {"green": {"terrestrial": {"fuel_liters_per_hour": -1.0}}}, 1,
        "invalid scenario: green.terrestrial.fuel_liters_per_hour must be >= 0"),
    "section-source-kind": (
        ("green",), {"green": {"terrestrial": {"source_kind": "COAL"}}}, 1,
        "invalid scenario: green.terrestrial.source_kind must be one of DIESEL, SOLAR, GRID"),
    "section-source-kind-unknown-key": (
        ("green",), {"green": {"terrestrial": {"source_kind": "COAL", "bogus": 1}}}, 1,
        "invalid scenario: unknown key 'bogus' in green.terrestrial; "
        "green.terrestrial.source_kind must be one of DIESEL, SOLAR, GRID"),
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
    "section-output-dir-surrogate-table1": (
        ("table1",), _SURROGATE_DIR, 1, "invalid scenario: output_dir must be encodable as a file-system path"),
    "section-output-dir-surrogate-linkbudget": (
        ("linkbudget",), _SURROGATE_DIR, 1,
        "invalid scenario: output_dir must be encodable as a file-system path"),
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
    "wavelength-at-huge-range-fig8": (
        ("exposure", "--figure", "fig8"),
        {"transmitter": {"freq_mhz": 1e-160}, "geometry": {"ground_offset_m": 1e160}}, 1,
        "received power at freq_mhz=1e-160 is beyond float range"),
    "e-field-squared-overflows-linkbudget": (
        ("linkbudget",), _E_SQUARED_OVERFLOWS, 0, "e_field_v_m,6.15419e+154"),
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
    # the axis is sampled before the gain is read, in fig6 as in fig4
    "sweep-altitude-finer-than-float-gain-overflow-fig6": (
        ("exposure", "--figure", "fig6"),
        {
            "transmitter": {"gain_db": 1e308},
            "sweeps": {"altitude": {"min": 200, "max": 200.00000000000006, "steps": 101}},
        },
        1,
        "altitude_m sweep from 200.0 to 200.00000000000006 in 101 steps is finer than float resolution"),
    "sweep-range-finer-than-float": (
        ("exposure", "--figure", "fig7"),
        {"sweeps": {"range": {"min": 10, "max": 10.000000000000002, "steps": 5}}}, 1,
        "range_m sweep from 10.0 to 10.000000000000002 in 5 steps is finer than float resolution"),
    "sweep-ground-offset-finer-than-float": (
        ("exposure", "--figure", "fig4"), {"sweeps": {"ground_offset": {"max": 5e-324}}}, 1,
        "ground_offset_m sweep from 0.0 to 5e-324 in 101 steps is finer than float resolution"),
    # flag values, worded by the same bounds grammar as the scenario's fields
    "flag-num-balloons-0": (("coverage", "--num-balloons", "0"), {}, 1, "num_balloons must be an integer >= 1"),
    "flag-num-balloons-1001": (
        ("coverage", "--num-balloons", "1001"), {}, 1, "num_balloons must be an integer <= 1000"),
    "flag-max-path-loss-nan": (("coverage", "--max-path-loss-db", "nan"), {}, 1, "max_path_loss_db must be finite"),
    "flag-balloon-radius-negative": (
        ("green", "--balloon-radius-km", "-1"), {}, 1, "balloon_radius_km must be > 0"),
    "flag-terrestrial-radius-inf": (
        ("green", "--terrestrial-radius-km", "inf"), {}, 1, "terrestrial_radius_km must be finite"),
    "flag-densities-negative": (("zones", "--densities", "1,-2"), {}, 1, "density_w_m2 must be >= 0"),
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
            if message is None:
                assert sorted(captured.out.splitlines()) == sorted(f"wrote {path}" for path in out.iterdir())
            else:
                assert message in captured.out.splitlines()
                assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--out", "--scenario"])
    @pytest.mark.parametrize(
        "text, problem",
        [("x\ud800y", "must be encodable as a file-system path"), ("a\0b", "must not contain a NUL character")],
        ids=["surrogate", "nul"],
    )
    def test_a_path_no_file_system_can_hold_is_usage_error(
        self, run_cli, tmp_path, monkeypatch, capsys, flag, text, problem
    ):
        # only an in-process argv can carry one: a process's argv decodes with surrogateescape
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run_cli("table1", flag, text)
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.endswith(f"balloonlink table1: error: argument {flag}: {problem}\n")
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

    @pytest.mark.parametrize("command", cli.PRODUCTS)
    def test_usage_lists_common_flags_then_the_product_flags(self, run_cli, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = ["-h", "--scenario", "--out", *cli.PRODUCTS[command].flags]
        assert re.findall(r"\[(--?[\w-]+)", usage) == flags

    @pytest.mark.parametrize("command", cli.PRODUCTS)
    def test_help_shows_each_flag_default_once(self, run_cli, capsys, command):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        # argparse may wrap "(default:" onto the next line
        page = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in page
        for flag, keywords in {**cli._COMMON_FLAGS, **cli.PRODUCTS[command].flags}.items():
            if "default" in keywords:
                assert page.count(f"(default: {keywords['default']})") == 1, flag

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

    def test_library_block_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["area"] > 0.0
        assert len(namespace["centers"]) == 7
        assert namespace["fig4"].abscissas[-1] == 25.0


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

    @pytest.mark.parametrize("command", cli.PRODUCTS)
    def test_a_valid_run_loads_no_path_or_enum_module(self, tmp_path, command):
        # -S keeps the site hooks, which may import pathlib or enum themselves,
        # out; paths are plain strings through os.path, zones and source
        # kinds are the names they print, the sampled axes are kept in a
        # dict and the flags are one, so none of these is needed
        code = (
            "import sys; from balloonlink.__main__ import run; code = run(); "
            "print(code, sorted({'pathlib', 're', 'fnmatch', 'urllib', 'ipaddress', 'ntpath', 'enum',"
            " 'functools', 'collections', 'types'} & sys.modules.keys()))"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, command, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert (result.returncode, result.stderr) == (0, "")
        *output, verdict = result.stdout.splitlines()
        assert verdict == "0 []"
        if command != "linkbudget":  # the one product printed, not written
            assert output == [f"wrote {tmp_path / name}" for name in sorted(os.listdir(tmp_path))]

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
    def test_a_signal_rolls_the_run_back_and_kills_it(self, tmp_path, signum):
        # the third staged write signals the process itself, mid-set
        code = (
            "import os, sys; from balloonlink import cli; from balloonlink.__main__ import run\n"
            "calls = []\n"
            "def write_csv(path, text, write=cli.write_csv):\n"
            "    calls.append(path)\n"
            f"    if len(calls) == 3: os.kill(os.getpid(), {int(signum)})\n"
            "    write(path, text)\n"
            "cli.write_csv = write_csv\n"
            "sys.exit(run())\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        old = tmp_path / "old"
        assert cli.main(["exposure", "--out", str(old)]) == 0
        kept = {p.name: (p.read_bytes(), p.stat().st_ino) for p in old.iterdir()}
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"transmitter": {"power_w": 40.0, "freq_mhz": 900.0}}', encoding="utf-8")
        for out in (old, tmp_path / "new" / "deeper"):
            argv = ["exposure", "--scenario", str(scenario), "--out", str(out)]
            result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
            assert result.returncode == -signum
            assert result.stderr == f"stopped by signal {int(signum)} ({signal.strsignal(signum)})\n"
            # no staged file, no directory the run made, and the old set as it was
            assert sorted(p.name for p in tmp_path.iterdir()) == ["old", "scenario.json"]
            assert {p.name: (p.read_bytes(), p.stat().st_ino) for p in old.iterdir()} == kept

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
    def test_a_signal_between_renames_lands_after_the_whole_set(self, tmp_path, signum):
        # the third rename signals the process itself, mid-set
        code = (
            "import os, sys; from balloonlink.__main__ import run\n"
            "calls = []\n"
            "def replace(src, dst, rename=os.replace):\n"
            "    calls.append(src)\n"
            f"    if len(calls) == 3: os.kill(os.getpid(), {int(signum)})\n"
            "    rename(src, dst)\n"
            "os.replace = replace\n"
            "sys.exit(run())\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"transmitter": {"power_w": 40.0, "freq_mhz": 900.0}}', encoding="utf-8")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert cli.main(["exposure", "--scenario", str(scenario), "--out", str(clean)]) == 0
        assert cli.main(["exposure", "--out", str(out)]) == 0
        argv = ["exposure", "--scenario", str(scenario), "--out", str(out)]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
        assert result.returncode == -signum
        assert result.stderr == f"stopped by signal {int(signum)} ({signal.strsignal(signum)})\n"
        # no staged file, and every target is the new run's
        expected = {p.name: p.read_bytes() for p in clean.iterdir()}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected

    def test_a_valid_run_never_imports_argparse(self):
        result = _python("-X", "importtime", "-m", "balloonlink", "linkbudget")
        imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if "|" in line}
        assert (result.returncode, "balloonlink.cli" in imported) == (0, True)
        assert "key,value" in result.stdout.splitlines()
        assert not imported & {"argparse", "gettext", "json", "json.decoder", "json.scanner", "json.encoder"}

    def test_help_still_comes_from_argparse(self):
        result = _python("-m", "balloonlink", "--help")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("usage: balloonlink ")
        assert result.stdout.rstrip().endswith(scen.DEFAULTS_HELP.rstrip())

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


def _into_closed_pipe(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """`python -m balloonlink argv` with a stdout whose reader is gone before the first write."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "balloonlink", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)


_HELP_AND_VERSION = {"help": ["--help"], "exposure-help": ["exposure", "--help"], "version": ["--version"]}


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
        result = _into_closed_pipe(["exposure", "--out", str(tmp_path)], unbuffered=False)
        assert (result.returncode, result.stderr) == (2, "I/O error: [Errno 32] Broken pipe\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FIGURES

    @pytest.mark.parametrize("argv", _HELP_AND_VERSION.values(), ids=_HELP_AND_VERSION)
    def test_help_and_version_into_a_closed_pipe_exit_2_with_one_line(self, argv):
        # argparse writes into stdout's buffer and exits; the flush on the
        # way out fails, as for a product's report
        result = _into_closed_pipe(argv, unbuffered=False)
        assert (result.returncode, result.stderr) == (2, "I/O error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("argv", _HELP_AND_VERSION.values(), ids=_HELP_AND_VERSION)
    def test_unbuffered_help_and_version_into_a_closed_pipe_exit_2_with_one_line(self, argv):
        # the write itself fails; argparse would drop the error and exit 0,
        # the parser raises it to main's one I/O error instead
        result = _into_closed_pipe(argv, unbuffered=True)
        assert (result.returncode, result.stderr) == (2, "I/O error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize(
        "argv, written",
        [(["table1", "--out", "{out}"], ["table1.csv"]), (["linkbudget"], [])],
        ids=["table1", "linkbudget"],
    )
    def test_stdout_closed_at_start_exits_2_with_one_line(self, tmp_path, argv, written):
        # descriptor 1 closed before Python starts leaves sys.stdout None
        argv = [arg.format(out=tmp_path) for arg in argv]
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "balloonlink", *argv],
            stderr=subprocess.PIPE,
            text=True,
        )
        assert (result.returncode, result.stderr) == (2, "I/O error: [Errno 9] Bad file descriptor: '<stdout>'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == written

    @pytest.mark.parametrize("argv, code", [(["bogus"], 1), (["--help"], 0)], ids=["usage-error", "help"])
    def test_stdout_closed_at_start_keeps_usage_and_help_codes(self, argv, code):
        # argparse writes both to stderr when there is no stdout
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "balloonlink", *argv],
            stderr=subprocess.PIPE,
            text=True,
        )
        assert result.returncode == code
        assert "Traceback" not in result.stderr and "I/O error" not in result.stderr

    @pytest.mark.parametrize("argv, code", [(["bogus"], 1), (["--help"], 0)], ids=["usage-error", "help"])
    def test_stdout_and_stderr_closed_at_start_keep_usage_and_help_codes(self, argv, code):
        # nowhere to write: the message is dropped, as argparse drops it
        result = subprocess.run(["sh", "-c", 'exec "$@" >&- 2>&-', "sh", sys.executable, "-m", "balloonlink", *argv])
        assert result.returncode == code

    def test_no_stdout_in_process_is_one_io_error(self, run_cli, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert run_cli("table1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == "I/O error: [Errno 9] Bad file descriptor: '<stdout>'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table1.csv"]

    def test_a_path_stdout_cannot_encode_is_one_io_error(self, run_cli, tmp_path, capsys, monkeypatch):
        # a strict UTF-8 stdout, Python's default under a UTF-8 locale, and a
        # directory name that is not UTF-8 (byte 0xff, decoded as U+DCFF)
        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stream)
        out = tmp_path / "n\udcff"
        assert run_cli("table1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: [Errno {errno.EILSEQ}] 'utf-8' codec can't encode character '\\udcff'")
        assert err.endswith(": '<stdout>'\n") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["table1.csv"]
        assert stream.buffer.getvalue() == b""

    def test_main_leaves_the_callers_descriptor_alone(self, tmp_path, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w", buffering=1, closefd=False)
        try:
            monkeypatch.setattr(sys, "stdout", stream)
            assert cli.main(["table1", "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"
            assert stat.S_ISFIFO(os.fstat(write_end).st_mode)
        finally:
            monkeypatch.undo()
            try:
                stream.close()  # flushes the report the dead pipe refused
            except BrokenPipeError:
                pass
            os.close(write_end)

    def test_run_points_a_dead_stdout_at_devnull(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gc, "freeze", lambda: None)  # keep this process unfrozen
        monkeypatch.setattr(sys, "argv", ["balloonlink", "table1", "--out", str(tmp_path)])
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w", buffering=1, closefd=False)
        try:
            monkeypatch.setattr(sys, "stdout", stream)
            assert balloonlink_main.run() == 2
            assert capsys.readouterr().err == "I/O error: [Errno 32] Broken pipe\n"
            assert os.fstat(write_end).st_rdev == os.stat(os.devnull).st_rdev
            stream.flush()  # the pending report now goes to os.devnull
        finally:
            monkeypatch.undo()
            try:
                stream.close()
            except BrokenPipeError:
                pass
            os.close(write_end)


# an unreadable file, a field out of bounds and an unknown command
_STDERR_CASES = {
    "io-error": ["table1", "--scenario", "{tmp}/absent.json"],
    "validation-error": ["table1", "--scenario", "{tmp}/bad.json"],
    "usage-error": ["bogus"],
}


def _into_stderr(tmp_path, case: str, shell: str, **streams) -> subprocess.CompletedProcess:
    """`python -m balloonlink` on one of _STDERR_CASES, run under `sh -c shell`."""
    (tmp_path / "bad.json").write_text('{"transmitter": {"power_w": -1, "freq_mhz": 900}}')
    argv = [arg.format(tmp=tmp_path) for arg in _STDERR_CASES[case]]
    command = ["sh", "-c", shell, "sh", sys.executable, "-m", "balloonlink", *argv]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True, **streams)


class TestDeadStderr:
    @pytest.mark.parametrize("case, code", [("io-error", 2), ("validation-error", 1), ("usage-error", 2)])
    def test_a_closed_pipe_keeps_the_code(self, tmp_path, case, code):
        # the error line is lost; a usage error's line is argparse's own
        # write, which fails into main's one I/O error
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = _into_stderr(tmp_path, case, 'exec "$@"', stderr=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stdout) == (code, "")

    @pytest.mark.parametrize("case, code", [("io-error", 2), ("validation-error", 1), ("usage-error", 1)])
    def test_stderr_closed_at_start_keeps_the_code_and_stdout_empty(self, tmp_path, case, code):
        # descriptor 2 closed before Python starts leaves sys.stderr None;
        # what was meant for it goes nowhere, not to stdout
        result = _into_stderr(tmp_path, case, 'exec "$@" 2>&-')
        assert (result.returncode, result.stdout) == (code, "")


def _data_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("abscissa"):
            continue
        x, v, _ = line.split(",")
        rows.append((float(x), float(v)))
    return rows
