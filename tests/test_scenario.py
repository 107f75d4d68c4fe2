"""Unit tests for scenario file loading and validation."""

import json
import re
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
        literals = '1.5, 5, true, "5", -1.0, 0, NaN, 1e400, 2.5'
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

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            scen.load_scenario(tmp_path / "nope.json")

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(scen.ScenarioValidationError):
            scen.load_scenario(path)
