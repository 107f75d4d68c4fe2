"""Unit tests for scenario file loading and validation."""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from balloonlink import scenario as scen
from balloonlink.emissions import PowerSourceProfile, SourceKind
from balloonlink.exposure import ZoneThresholds
from balloonlink.propagation import LinkGeometry, TransmitterConfig

MINIMAL = {"transmitter": {"power_w": 20.0, "gain_db": 17.0, "freq_mhz": 900.0}}


class TestDefaults:
    def test_minimal_file_gets_defaults(self, write_scenario):
        loaded = scen.load_scenario(write_scenario(MINIMAL))
        assert loaded.transmitter.power_w == 20.0
        assert loaded.transmitter.gain_linear is None
        assert loaded.geometry.altitude_m == 150.0
        assert loaded.geometry.bs_antenna_height_m == 200.0
        assert loaded.geometry.rx_antenna_height_m == 1.5
        assert loaded.thresholds.limit_w_m2 == pytest.approx(4.5)
        assert loaded.thresholds.caution_fraction == 0.1
        assert loaded.green_terrestrial.source_kind is SourceKind.DIESEL
        assert loaded.green_balloon.source_kind is SourceKind.SOLAR
        assert loaded.hours_per_year == 8760.0
        assert loaded.ground_offset_sweep.max == 25.0
        assert loaded.altitude_sweep.min == 200.0
        assert loaded.altitude_sweep.max == 400.0
        assert loaded.range_sweep.steps == 101
        assert loaded.table_distances_m == (10.0, 100.0, 500.0)
        assert loaded.output_dir == "."
        assert loaded.notes == ()

    def test_bundled_file_spells_out_the_table_defaults(self):
        # the bundled file differs from the defaults only by its gain_linear override
        overrides = {
            "transmitter": {"power_w": 20.0, "gain_db": 17.0, "gain_linear": 50.0, "freq_mhz": 900.0}
        }
        assert scen.load_scenario(scen.default_scenario_path()) == scen.scenario_from_dict(overrides)

    def test_readme_block_is_the_bundled_file(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        bundled = scen.default_scenario_path().read_text(encoding="utf-8")
        assert json.loads(block) == json.loads(bundled)

    def test_defaults_help_is_pinned(self):
        # the --help epilog, byte for byte: 12 lines, each under 80 columns
        assert scen.DEFAULTS_HELP == (
            "scenario defaults (overridable in the scenario file):\n"
            "  transmitter: power_w (required), gain_db=17, freq_mhz (required),\n"
            "    antenna_dim_m=1\n"
            "  geometry: altitude_m=150, ground_offset_m=0, bs_antenna_height_m=200,\n"
            "    rx_antenna_height_m=1.5, rx_gain_db=0\n"
            "  thresholds: limit_w_m2=freq_mhz/200 (clamped to [2, 10] W/m^2),\n"
            "    caution_fraction=0.1\n"
            "  green (assumed values, not measurements): hours_per_year=8760,\n"
            "    terrestrial=DIESEL, balloon=SOLAR, DIESEL 2 L/h at 2.68 kg CO2/L,\n"
            "    SOLAR (zero emission), GRID 0 kWh/h at 0.82 kg CO2/kWh\n"
            "  sweeps: ground_offset=0..25 m, altitude=200..400 m, range=10..500 m,\n"
            "    steps=101 (2..100001), distances_m=[10, 100, 500]\n"
        )
        assert max(map(len, scen.DEFAULTS_HELP.splitlines())) < 80

    def test_threshold_limit_follows_frequency(self, write_scenario):
        payload = {"transmitter": {"power_w": 20.0, "freq_mhz": 1800.0}}
        loaded = scen.load_scenario(write_scenario(payload))
        assert loaded.thresholds.limit_w_m2 == pytest.approx(9.0)

    def test_bundled_default_scenario(self):
        loaded = scen.load_scenario(scen.default_scenario_path())
        assert loaded.transmitter.power_w == 20.0
        assert loaded.transmitter.linear_gain() == 50.0
        assert loaded.geometry.altitude_m == 150.0
        assert loaded.notes  # linear override is flagged


class TestRecordRules:
    """The scenario reads each record field's default and bounds from the record."""

    SECTIONS = {
        "transmitter": TransmitterConfig,
        "geometry": LinkGeometry,
        "thresholds": ZoneThresholds,
        "green": scen.Scenario,
    }

    def test_only_the_tightening_table_departs_from_the_records(self):
        assert set(scen._TIGHTENED) == {"power_w", "freq_mhz", "altitude_m", "limit_w_m2"}
        assert scen._FIELDS.keys() == self.SECTIONS.keys()
        # (record, where its defaults come from, scenario row)
        rows = [(r, r, row) for name, r in self.SECTIONS.items() for row in scen._FIELDS[name]]
        for profile in scen._PROFILE_DEFAULTS.values():
            profile_rows = scen._rows(PowerSourceProfile, profile)
            rows += [(PowerSourceProfile, profile, row) for row in profile_rows]
        rows.append((scen.SweepRange, scen.SweepRange, scen._STEPS))
        for record, defaults, (key, default, bounds) in rows:
            assert key in record._fields
            if key not in scen._TIGHTENED:
                assert bounds is record._bounds[key], key
                assert default == getattr(defaults, key, None), key

    def test_tightenings_hold(self, write_scenario):
        payload = {"transmitter": {"power_w": 0, "freq_mhz": 900}, "geometry": {"altitude_m": 0}}
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert excinfo.value.problems == (
            "transmitter.power_w must be > 0",
            "geometry.altitude_m must be > 0",
        )
        # the records themselves take a zero power and altitude
        assert TransmitterConfig(0.0).power_w == LinkGeometry(altitude_m=0.0).altitude_m == 0.0


class TestGainHandling:
    def test_linear_override_used_verbatim(self, write_scenario):
        payload = {
            "transmitter": {
                "power_w": 20.0,
                "gain_db": 17.0,
                "gain_linear": 50.0,
                "freq_mhz": 900.0,
            }
        }
        loaded = scen.load_scenario(write_scenario(payload))
        assert loaded.transmitter.linear_gain() == 50.0
        assert any("gain_linear" in note for note in loaded.notes)

    def test_linear_alone_carries_no_note(self, write_scenario):
        payload = {
            "transmitter": {"power_w": 20.0, "gain_linear": 50.0, "freq_mhz": 900.0}
        }
        loaded = scen.load_scenario(write_scenario(payload))
        assert loaded.transmitter.linear_gain() == 50.0
        assert loaded.notes == ()


class TestValidation:
    def test_negative_power_named_in_error(self, write_scenario):
        payload = {"transmitter": {"power_w": -5.0, "freq_mhz": 900.0}}
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert "transmitter.power_w must be > 0" in str(excinfo.value)

    def test_missing_required_fields(self, write_scenario):
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario({"transmitter": {}}))
        message = str(excinfo.value)
        assert "transmitter.power_w is required" in message
        assert "transmitter.freq_mhz is required" in message

    def test_all_violations_reported_at_once(self, write_scenario):
        payload = {
            "transmitter": {"power_w": -5.0, "freq_mhz": 0.0},
            "geometry": {"bs_antenna_height_m": -1.0},
            "thresholds": {"caution_fraction": 1.5},
            "green": {"hours_per_year": 0},
        }
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        problems = excinfo.value.problems
        assert len(problems) >= 5
        joined = "\n".join(problems)
        assert "transmitter.power_w" in joined
        assert "transmitter.freq_mhz" in joined
        assert "geometry.bs_antenna_height_m" in joined
        assert "thresholds.caution_fraction" in joined
        assert "green.hours_per_year" in joined

    def test_unknown_keys_flagged(self, write_scenario):
        payload = {
            "transmitter": {"power_w": 20.0, "freq_mhz": 900.0, "powr": 1.0},
            "extra": {},
        }
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        message = str(excinfo.value)
        assert "unknown key 'powr' in transmitter" in message
        assert "unknown top-level key 'extra'" in message

    def test_solar_with_fuel_rejected(self, write_scenario):
        payload = dict(MINIMAL)
        payload["green"] = {
            "balloon": {"source_kind": "SOLAR", "fuel_liters_per_hour": 1.0}
        }
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert "green.balloon" in str(excinfo.value)

    def test_bad_source_kind_rejected(self, write_scenario):
        payload = dict(MINIMAL)
        payload["green"] = {"terrestrial": {"source_kind": "COAL"}}
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert "green.terrestrial.source_kind" in str(excinfo.value)

    def test_wrong_types_rejected(self, write_scenario):
        payload = {"transmitter": {"power_w": "twenty", "freq_mhz": True}}
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        message = str(excinfo.value)
        assert "transmitter.power_w must be a number" in message
        assert "transmitter.freq_mhz must be a number" in message

    def test_sweep_constraints(self, write_scenario):
        payload = dict(MINIMAL)
        payload["sweeps"] = {
            "ground_offset": {"min": 5.0, "max": 25.0},
            "altitude": {"min": 400.0, "max": 200.0},
            "range": {"min": 10.0, "max": 500.0, "steps": 1},
        }
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        message = str(excinfo.value)
        assert "sweeps.ground_offset.min must be 0" in message
        assert "sweeps.altitude.max must be > sweeps.altitude.min" in message
        assert "sweeps.range.steps must be an integer >= 2" in message

    @pytest.mark.parametrize(
        "literal",
        ["Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400],
        ids=["inf", "-inf", "nan", "1e400", "int-10**400"],
    )
    def test_non_finite_distance_rejected(self, tmp_path, literal):
        path = tmp_path / "scenario.json"
        payload = json.dumps(dict(MINIMAL, sweeps={"distances_m": ["@", 10.0]}))
        path.write_text(payload.replace('"@"', literal), encoding="utf-8")
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(path)
        assert excinfo.value.problems == ("sweeps.distances_m[0] must be finite",)

    def test_mixed_distances_report_each_bad_index(self, tmp_path):
        # a list that is not all positive finite floats is checked value by value
        path = tmp_path / "scenario.json"
        payload = json.dumps(dict(MINIMAL, sweeps={"distances_m": ["@"]}))
        literals = '1.5, 5, true, "5", -1.0, 0, NaN, 1e400, 0.0, 2.5'
        path.write_text(payload.replace('"@"', literals), encoding="utf-8")
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(path)
        assert excinfo.value.problems == (
            "sweeps.distances_m[2] must be a number",
            "sweeps.distances_m[3] must be a number",
            "sweeps.distances_m[4] must be > 0",
            "sweeps.distances_m[5] must be > 0",
            "sweeps.distances_m[6] must be finite",
            "sweeps.distances_m[7] must be finite",
            "sweeps.distances_m[8] must be > 0",
        )

    def test_int_distances_load_as_floats(self, write_scenario):
        loaded = scen.load_scenario(write_scenario(dict(MINIMAL, sweeps={"distances_m": [1.5, 5, 7.0]})))
        assert loaded.table_distances_m == (1.5, 5.0, 7.0)
        assert [type(d) for d in loaded.table_distances_m] == [float, float, float]

    def test_zero_altitude_rejected(self, write_scenario):
        payload = dict(MINIMAL, geometry={"altitude_m": 0})
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert excinfo.value.problems == ("geometry.altitude_m must be > 0",)

    def test_steps_capped(self, write_scenario):
        payload = dict(MINIMAL, sweeps={"range": {"steps": 100_002}, "altitude": {"steps": 100_001}})
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert excinfo.value.problems == ("sweeps.range.steps must be an integer <= 100001",)

    def test_empty_distances_rejected(self, write_scenario):
        payload = dict(MINIMAL)
        payload["sweeps"] = {"distances_m": []}
        with pytest.raises(scen.ScenarioValidationError) as excinfo:
            scen.load_scenario(write_scenario(payload))
        assert "sweeps.distances_m must not be empty" in str(excinfo.value)


class TestParseErrors:
    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "transmitter": {\n', encoding="utf-8")
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(path)
        assert "line 3" in str(excinfo.value)

    def test_int_too_long_to_parse_names_the_file(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"transmitter": {"power_w": 1' + "0" * 4400 + ', "freq_mhz": 900}}', encoding="utf-8")
        with pytest.raises((scen.ScenarioParseError, scen.ScenarioValidationError)) as excinfo:
            scen.load_scenario(path)
        if hasattr(sys, "set_int_max_str_digits"):
            assert str(excinfo.value) == f"{path}: an integer with too many digits to parse"
        else:  # no digit limit: the int loads and fails its field's check
            assert excinfo.value.problems == ("transmitter.power_w must be finite",)

    def test_file_over_the_size_cap_is_refused(self, tmp_path, monkeypatch):
        text = json.dumps(MINIMAL)
        monkeypatch.setattr(scen, "MAX_SCENARIO_BYTES", len(text) + 10)
        at_cap, over_cap = tmp_path / "at.json", tmp_path / "over.json"
        at_cap.write_text(text + " " * 10, encoding="utf-8")
        over_cap.write_text(text + " " * 11, encoding="utf-8")
        assert scen.load_scenario(at_cap).transmitter.power_w == 20.0
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(over_cap)
        assert str(excinfo.value) == f"{over_cap}: larger than {len(text) + 10} bytes"

    def test_file_over_the_size_cap_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        from balloonlink.cli import main

        path = tmp_path / "over.json"
        path.write_text(json.dumps(MINIMAL) + " " * 100, encoding="utf-8")
        monkeypatch.setattr(scen, "MAX_SCENARIO_BYTES", 64)
        assert main(["table1", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: larger than 64 bytes\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            scen.load_scenario(tmp_path / "nope.json")

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(scen.ScenarioValidationError):
            scen.load_scenario(path)

    def test_the_cap_is_4_mib(self):
        assert scen.MAX_SCENARIO_BYTES == 4 * 1024 * 1024

    def test_the_cap_counts_bytes_not_characters(self, tmp_path, monkeypatch):
        # "é" is two bytes in UTF-8: the file over the cap holds fewer
        # characters than the cap
        text = json.dumps(dict(MINIMAL, output_dir="é" * 20), ensure_ascii=False)
        size = len(text.encode("utf-8"))
        monkeypatch.setattr(scen, "MAX_SCENARIO_BYTES", size)
        at_cap, over_cap = tmp_path / "at.json", tmp_path / "over.json"
        at_cap.write_text(text, encoding="utf-8")
        over_cap.write_text(text.replace("é", "éé", 1), encoding="utf-8")
        assert scen.load_scenario(at_cap).output_dir == "é" * 20
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(over_cap)
        assert str(excinfo.value) == f"{over_cap}: larger than {size} bytes"

    def test_bad_utf8_over_the_cap_reports_the_size(self, tmp_path, monkeypatch):
        path = tmp_path / "over.json"
        path.write_bytes(b'{"output_dir": "\xff' + b" " * 100 + b'"}')
        monkeypatch.setattr(scen, "MAX_SCENARIO_BYTES", 64)
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(path)
        assert str(excinfo.value) == f"{path}: larger than 64 bytes"

    def test_bad_utf8_past_the_first_8_kib_names_its_file_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"output_dir": "' + b"a" * 10_000 + b'\xff"}')
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(path)
        assert str(excinfo.value) == f"{path}: byte 10016: not UTF-8 text"

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n", b"\n"], ids=["cr", "crlf", "lf"])
    def test_every_newline_counts_one_line(self, tmp_path, newline):
        path = tmp_path / "broken.json"
        path.write_bytes(b'{@"transmitter": {@}@,}'.replace(b"@", newline))
        with pytest.raises(scen.ScenarioParseError) as excinfo:
            scen.load_scenario(path)
        assert str(excinfo.value).startswith(f"{path}: line 4, column 2: ")

    def test_a_fresh_process_words_json_errors_as_json_does(self):
        # json is not imported until the first error, and the scanner of
        # CPython 3.10 and 3.11 words its errors only once it is
        texts = ['{"a" 1}', "", "\ufeff{}", "{} x", "[1, 2"]
        script = (
            "import sys\n"
            "from balloonlink import scenario\n"
            "assert 'json' not in sys.modules\n"
            f"for text in {ascii(texts)}:\n"
            "    try:\n"
            "        scenario._loads(text)\n"
            "    except ValueError as exc:\n"
            "        print(f'{type(exc).__name__}: {exc}')\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        expected = []
        for text in texts:
            with pytest.raises(json.JSONDecodeError) as excinfo:
                json.loads(text)
            expected.append(f"JSONDecodeError: {excinfo.value}")
        assert (result.returncode, result.stderr, result.stdout.splitlines()) == (0, "", expected)


# Pieces a mutant of the bundled scenario is edited with: JSON's syntax,
# its constants, escapes and text it must refuse or keep.
_PIECES = (
    *"{}[],:\"\\ \n\r\t0123456789-+.eEé",
    "true", "false", "null", "NaN", "Infinity", "-Infinity", "\\u00e9", "\\ud800", "\\x",
    "\ufeff", "\x00", "\x1f", "\ud800", '"a": ', "1e400", "-0", "0.5e-3", "01",
)
_FIXED_TEXTS = {
    "empty": "",
    "whitespace": " \t\n\r ",
    "bom": "\ufeff{}",
    "trailing-data": '{"a": 1} {"b": 2}',
    "trailing-whitespace": ' {"a": 1}\r\n\t ',
    "constants": "[NaN, Infinity, -Infinity, -0.0, 1e400]",
    "deep": "[" * 100_000 + "]" * 100_000,
    "5000-digits": "1" * 5000,
    "lone-surrogate-escape": '"\\ud800"',
    "bom-after-whitespace": " \ufeff{}",
    "error-inside-a-value": '{"a": [1, 2,]}',
}


def _mutants(count: int, seed: int):
    """count seeded texts, each the bundled scenario under one to three edits."""
    rng = random.Random(seed)
    base = scen.default_scenario_path().read_text(encoding="utf-8")
    for _ in range(count):
        text = base
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            cut = rng.choice((0, 0, 1, rng.randint(1, 40), len(text)))
            text = text[:at] + rng.choice(("", *_PIECES)) + text[at + cut :]
        yield text


def _outcome(loads, text: str):
    """The repr of loads(text), or its error's type and fields."""
    try:
        return repr(loads(text))
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc), *(getattr(exc, key, None) for key in ("msg", "pos", "lineno", "colno"))


def test_loads_agrees_with_json_loads():
    texts = [*_FIXED_TEXTS.values(), *_mutants(3000, seed=2019)]
    outcomes = [(_outcome(scen._loads, text), _outcome(json.loads, text)) for text in texts]
    assert [index for index, (ours, theirs) in enumerate(outcomes) if ours != theirs] == []
    # the mutants reach values and errors alike
    assert 100 < sum(isinstance(ours, str) for ours, _ in outcomes) < len(texts) - 100
