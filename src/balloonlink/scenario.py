"""Scenario files: the JSON configuration consumed by every CLI command.

A scenario is a flat two-level JSON object with sections ``transmitter``,
``geometry``, ``thresholds``, ``green`` and ``sweeps`` plus an
``output_dir``. Only transmitter.power_w and transmitter.freq_mhz are
required; everything else takes documented defaults. Validation collects
every violated field before failing, so one load attempt reports all
problems at once.

Each default and bound is stated once: a record field's on its record
(its class default and _bounds), the scenario's own in the tables below.
The parser, the validator and DEFAULTS_HELP (the CLI's help epilog) all
read them.
"""

import io
import math
import os
from _json import make_scanner

from .emissions import (
    HOURS_PER_YEAR,
    PowerSourceProfile,
    diesel_profile,
    grid_profile,
    solar_profile,
)
from .exposure import DEFAULT_NUM_STEPS, SWEEP_STEPS, ZONE_LIMIT_BAND_MHZ, ZoneThresholds, default_thresholds
from .propagation import NON_NEGATIVE, POSITIVE, LinkGeometry, Record, TransmitterConfig, bound_problem


class ScenarioError(ValueError):
    """Base for scenario load failures."""


class ScenarioParseError(ScenarioError):
    """The file is not UTF-8 JSON; the message names the file and where it fails."""


class ScenarioValidationError(ScenarioError):
    """One or more fields violate their constraints; all are listed."""

    def __init__(self, problems: list[str]):
        self.problems = tuple(problems)
        super().__init__("invalid scenario: " + "; ".join(problems))


class SweepRange(Record):
    """Inclusive sweep bounds and the number of uniform samples."""

    min: float
    max: float
    steps: int = DEFAULT_NUM_STEPS

    _bounds = {"min": (), "max": (), "steps": SWEEP_STEPS}


class Scenario(Record):
    """A fully validated, fully defaulted simulation configuration."""

    transmitter: TransmitterConfig
    geometry: LinkGeometry
    thresholds: ZoneThresholds
    green_terrestrial: PowerSourceProfile
    green_balloon: PowerSourceProfile
    hours_per_year: float = HOURS_PER_YEAR
    ground_offset_sweep: SweepRange
    altitude_sweep: SweepRange
    range_sweep: SweepRange
    table_distances_m: tuple[float, ...]
    output_dir: str
    notes: tuple[str, ...] = ()

    _bounds = {"hours_per_year": POSITIVE}


def default_scenario_path() -> str:
    """Path of the bundled default scenario (20 W at linear gain 50, 900 MHz)."""
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.json")


# The largest scenario file read, in bytes, about 28 times the largest
# benchmark scenario (10001 distances, 149 KB): a source that never ends,
# such as /dev/zero, is refused after this many bytes instead of filling
# memory.
MAX_SCENARIO_BYTES = 4 * 1024 * 1024


class _Decoder:
    """json.loads' defaults, as the attributes the C scanner reads."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}.__getitem__


_scan = make_scanner(_Decoder)
_WHITESPACE = " \t\n\r"


def _loads(text: str):
    """json.loads(text), scanned by the C scanner json wraps.

    A text that is one value between whitespace is scanned once and never
    imports json; json.loads parses every other text, so each error is
    json's own. RecursionError and the ValueError of an integer past the
    digit limit come straight from the scanner, as from json.loads.
    """
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except (StopIteration, SystemError):
        # StopIteration: no value where one must start, a leading BOM
        # included. SystemError: before CPython 3.12 the scanner finds
        # JSONDecodeError only in an imported json.decoder
        pass
    else:
        if not text[end:].lstrip(_WHITESPACE):
            return value
    import json

    return json.loads(text)


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Read, parse and validate a scenario file.

    The text is parsed as json.loads parses it (_loads). Raises OSError
    if the file cannot be read, ScenarioParseError for a file larger than
    MAX_SCENARIO_BYTES, text that is not UTF-8, malformed or too deeply
    nested JSON and an integer too long to parse (each worded from
    json's own error), and ScenarioValidationError (listing every
    violation) for constraint failures.
    """
    with open(path, "rb") as source:
        data = source.read(MAX_SCENARIO_BYTES + 1)
    if len(data) > MAX_SCENARIO_BYTES:
        raise ScenarioParseError(f"{path}: larger than {MAX_SCENARIO_BYTES} bytes")
    try:
        # text mode's newline translation, so error lines count "\r" and "\r\n"
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: byte {exc.start}: not UTF-8 text") from exc
    try:
        raw = _loads(text)
    except RecursionError as exc:
        raise ScenarioParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        from json import JSONDecodeError

        if isinstance(exc, JSONDecodeError):
            raise ScenarioParseError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        # the rest: an int past the interpreter's digit limit
        raise ScenarioParseError(f"{path}: an integer with too many digits to parse") from exc
    return scenario_from_dict(raw)


_ABSENT = object()
_REQUIRED = object()
# Marks the default of thresholds.limit_w_m2, default_thresholds(freq_mhz),
# and reads as that default in the help.
_LIMIT_FROM_FREQ = "freq_mhz/200 (clamped to [{:g}, {:g}] W/m^2)".format(
    *(default_thresholds(freq).limit_w_m2 for freq in ZONE_LIMIT_BAND_MHZ)
)

# Where the scenario is stricter than the records: key -> (default, bounds).
# A scenario describes a radiating source on a platform aloft.
_TIGHTENED = {
    "power_w": (_REQUIRED, POSITIVE),
    "freq_mhz": (_REQUIRED, TransmitterConfig._bounds["freq_mhz"]),
    "altitude_m": (LinkGeometry.altitude_m, POSITIVE),
    "limit_w_m2": (_LIMIT_FROM_FREQ, ZoneThresholds._bounds["limit_w_m2"]),
}


def _rows(record: type[Record], defaults=None) -> tuple:
    """(key, default, bounds) for each field of record._bounds, in its order."""
    return tuple(
        (key, *_TIGHTENED.get(key, (getattr(defaults or record, key, _REQUIRED), bounds)))
        for key, bounds in record._bounds.items()
    )


# (key, default, bounds) per section; each key names the record field it fills.
_FIELDS = {
    "transmitter": _rows(TransmitterConfig),
    "geometry": _rows(LinkGeometry),
    "thresholds": _rows(ZoneThresholds),
    "green": _rows(Scenario),
}

# green.<name> is a power profile of this default source kind; each kind's
# default profile is keyed by the kind's name.
_GREEN_PROFILES = {"terrestrial": "DIESEL", "balloon": "SOLAR"}
_PROFILE_DEFAULTS = {p.source_kind: p for p in (diesel_profile(), solar_profile(), grid_profile(0.0))}

# sweeps.<name>: (default min, default max, bounds on min), in meters.
_SWEEPS = {
    "ground_offset": (
        0.0,
        25.0,
        NON_NEGATIVE + (("==", 0.0, "profile starts under the platform"),),
    ),
    "altitude": (200.0, 400.0, POSITIVE),
    "range": (10.0, 500.0, POSITIVE),
}
_STEPS = ("steps", SweepRange.steps, SWEEP_STEPS)
_DISTANCES_M = (10.0, 100.0, 500.0)
# bad distances named one by one; the rest are counted, so the error stays one short line
_NAMED_BAD_DISTANCES = 10


def _defaults_help() -> str:
    def item(key, default):
        if default is _REQUIRED:
            return f"{key} (required)"
        return f"{key}={default}" if isinstance(default, str) else f"{key}={default:g}"

    sections = {
        name: [item(key, default) for key, default, _ in rows if default is not None]
        for name, rows in _FIELDS.items()
    }
    sections["green (assumed values, not measurements)"] = [
        *sections.pop("green"),
        *(f"{name}={kind}" for name, kind in _GREEN_PROFILES.items()),
        *(profile.summary() for profile in _PROFILE_DEFAULTS.values()),
    ]
    key, steps, ((_, least), (_, most)) = _STEPS
    sections["sweeps"] = [
        *(f"{name}={lo:g}..{hi:g} m" for name, (lo, hi, _) in _SWEEPS.items()),
        f"{key}={steps} ({least}..{most})",
        "distances_m=[" + ", ".join(f"{d:g}" for d in _DISTANCES_M) + "]",
    ]
    lines = ["scenario defaults (overridable in the scenario file):"]
    for head, items in sections.items():
        lines.append(f"  {head}: {items[0]}")
        for text in items[1:]:
            if len(lines[-1]) + len(text) > 76:  # keeps lines under 80 columns
                lines[-1] += ","
                lines.append(f"    {text}")
            else:
                lines[-1] += f", {text}"
    return "\n".join(lines) + "\n"


# The CLI's help epilog, rendered from the tables above.
DEFAULTS_HELP = _defaults_help()


def _path_problem(text: str) -> str | None:
    """Why no file-system path can be text, as words after its name, or None."""
    if "\0" in text:
        return "must not contain a NUL character"
    try:  # a lone surrogate outside the escapes U+DC80-U+DCFF spells no path's bytes
        os.fsencode(text)
    except UnicodeEncodeError:
        return "must be encodable as a file-system path"
    return None


def _object(value, qualified: str, known, problems: list[str]) -> dict:
    """value as a JSON object, {} when not one; unknown keys are problems."""
    if not isinstance(value, dict):
        problems.append(f"{qualified} must be a JSON object")
        return {}
    problems.extend(f"unknown key '{key}' in {qualified}" for key in value if key not in known)
    return value


def _number(value, qualified: str, default, bounds, problems: list[str]):
    """value as a number, or default when value is _ABSENT.

    Returns None after appending a problem when value is not a finite
    number inside its bounds. An int default makes the value an int.
    """
    if value is _ABSENT:
        if default is _REQUIRED:
            problems.append(f"{qualified} is required")
            return None
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{qualified} must be a number")
        return None
    problem = bound_problem(qualified, value, bounds)
    if problem:
        problems.append(problem)
        return None
    return int(value) if type(default) is int else float(value)


def _numbers(section: dict, qualified: str, rows, problems: list[str]) -> dict:
    return {
        key: _number(section.get(key, _ABSENT), f"{qualified}.{key}", default, bounds, problems)
        for key, default, bounds in rows
    }


def _profile(value, qualified: str, default_kind: str, problems: list[str]):
    section = _object(value, qualified, PowerSourceProfile._fields, problems)
    kind = section.get("source_kind", default_kind)
    if not (isinstance(kind, str) and kind.upper() in _PROFILE_DEFAULTS):
        problems.append(f"{qualified}.source_kind must be one of {', '.join(_PROFILE_DEFAULTS)}")
        return None
    defaults = _PROFILE_DEFAULTS[kind.upper()]
    numbers = _numbers(section, qualified, _rows(PowerSourceProfile, defaults), problems)
    if None in numbers.values():  # _number has appended the problem
        return None
    try:
        return PowerSourceProfile(defaults.source_kind, **numbers)
    except ValueError as exc:
        problems.append(f"{qualified}: {exc}")
        return None


def _sweep_range(value, qualified: str, lo, hi, lo_bounds, problems: list[str]):
    rows = (("min", lo, lo_bounds), ("max", hi, SweepRange._bounds["max"]), _STEPS)
    section = _object(value, qualified, {key for key, _, _ in rows}, problems)
    numbers = _numbers(section, qualified, rows, problems)
    if None in numbers.values():  # _number has appended the problem
        return None
    if not numbers["max"] > numbers["min"]:
        problems.append(f"{qualified}.max must be > {qualified}.min")
        return None
    return SweepRange(**numbers)


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a parsed scenario object and apply defaults."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["scenario root must be a JSON object"])
    top_level = {*_FIELDS, "sweeps", "output_dir"}
    problems = [f"unknown top-level key '{key}'" for key in raw if key not in top_level]

    sections: dict[str, dict] = {}
    values: dict[str, dict] = {}
    for name, rows in _FIELDS.items():
        known = {key for key, _, _ in rows} | (_GREEN_PROFILES.keys() if name == "green" else set())
        sections[name] = _object(raw.get(name, {}), name, known, problems)
        values[name] = _numbers(sections[name], name, rows, problems)
    freq_mhz = values["transmitter"]["freq_mhz"]
    if values["thresholds"]["limit_w_m2"] is _LIMIT_FROM_FREQ and freq_mhz is not None:
        values["thresholds"]["limit_w_m2"] = default_thresholds(freq_mhz).limit_w_m2
    profiles = {
        name: _profile(sections["green"].get(name, {}), f"green.{name}", kind, problems)
        for name, kind in _GREEN_PROFILES.items()
    }

    sweeps = _object(raw.get("sweeps", {}), "sweeps", {*_SWEEPS, "distances_m"}, problems)
    ranges = {
        name: _sweep_range(sweeps.get(name, {}), f"sweeps.{name}", *row, problems)
        for name, row in _SWEEPS.items()
    }
    distances = sweeps.get("distances_m", list(_DISTANCES_M))
    if not isinstance(distances, list):
        problems.append("sweeps.distances_m must be a list of numbers")
        distances = []
    elif not distances:
        problems.append("sweeps.distances_m must not be empty")
    elif len(distances) > SWEEP_STEPS[-1][1]:  # the sweeps' count cap; no element is checked
        problems.append(f"sweeps.distances_m must hold at most {SWEEP_STEPS[-1][1]} values")
        distances = []
    bad = []  # _number's one problem per bad distance
    # a positive finite float already passes _number as itself
    table_distances = tuple(
        value
        if type(value) is float and 0.0 < value < math.inf
        else _number(value, f"sweeps.distances_m[{i}]", None, POSITIVE, bad)
        for i, value in enumerate(distances)
    )
    problems += bad[:_NAMED_BAD_DISTANCES]
    if len(bad) > _NAMED_BAD_DISTANCES:
        problems.append(f"sweeps.distances_m has {len(bad) - _NAMED_BAD_DISTANCES} more bad values")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("output_dir must be a non-empty string")
    elif problem := _path_problem(output_dir):
        problems.append(f"output_dir {problem}")

    if problems:
        raise ScenarioValidationError(problems)

    tx = values["transmitter"]
    notes = []
    if "gain_linear" in sections["transmitter"] and "gain_db" in sections["transmitter"]:
        notes.append(f"gain_linear={tx['gain_linear']:g} overrides gain_db={tx['gain_db']:g}")

    return Scenario(
        transmitter=TransmitterConfig(**tx),
        geometry=LinkGeometry(**values["geometry"]),
        thresholds=ZoneThresholds(**values["thresholds"]),
        green_terrestrial=profiles["terrestrial"],
        green_balloon=profiles["balloon"],
        hours_per_year=values["green"]["hours_per_year"],
        ground_offset_sweep=ranges["ground_offset"],
        altitude_sweep=ranges["altitude"],
        range_sweep=ranges["range"],
        table_distances_m=table_distances,
        output_dir=output_dir,
        notes=tuple(notes),
    )
