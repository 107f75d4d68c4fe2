"""Output checker built on closed forms coded here, not on balloonlink.

Each CLI product is compared against the textbook expression it should
print: free-space density P*G/(4*pi*R^2), Friis received power, the Hata
small-city loss, the hexagonal-lattice union area and the diesel/solar
CO2 sums. Floats are printed with six significant digits, so a value
passes when it lies within half a unit of its sixth digit of the exact
value (plus 1e-12 relative for float evaluation order).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

SPEED_OF_LIGHT_M_S = 299_792_458.0
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8")
# Platform altitudes fixed by the fig4/fig5 definitions, in meters.
FIGURE_ALTITUDE_M = {"fig4": 150.0, "fig5": 200.0}
HATA_ROUND_TRIP_DB = 1e-3
UNION_AREA_REL_TOL = 0.01

_SIX_DIGITS = re.compile(r"-?\d\.\d{5}e[+-]\d{2,3}")


class CheckError(Exception):
    """A product differs from its closed form."""


def products(command: str) -> tuple[str, ...]:
    """Files a subcommand writes; linkbudget prints its table to stdout."""
    if command == "exposure":
        return tuple(f"{figure}.csv" for figure in FIGURES)
    if command == "linkbudget":
        return ()
    return (f"{command}.csv",)


def _close6(text: str, exact: float, what: str) -> None:
    if not _SIX_DIGITS.fullmatch(text):
        raise CheckError(f"{what}: {text!r} is not six-digit scientific notation")
    ulp = 10.0 ** (int(text.split("e")[1]) - 5)
    if abs(float(text) - exact) > 0.5 * ulp + 1e-12 * abs(exact):
        raise CheckError(f"{what}: printed {text}, closed form gives {exact:.9e}")


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _table(text: str, header: str, what: str) -> list[list[str]]:
    lines = _data_lines(text)
    if not lines or lines[0] != header:
        raise CheckError(f"{what}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _rows(text: str, header: str, count: int, width: int, what: str) -> list[list[str]]:
    rows = _table(text, header, what)
    if len(rows) != count:
        raise CheckError(f"{what}: {len(rows)} rows, expected {count}")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CheckError(f"{what}: row {i} has {len(row)} fields, expected {width}")
    return rows


def _key_values(text: str, what: str) -> dict[str, str]:
    return dict(row[:2] for row in _table(text, "key,value", what) if len(row) == 2)


def _tx_gain(scenario: dict) -> float:
    tx = scenario["transmitter"]
    if "gain_linear" in tx:
        return tx["gain_linear"]
    return 10.0 ** (tx.get("gain_db", 17.0) / 10.0)


def density(scenario: dict, range_m: float) -> float:
    """Free-space power density P*G/(4*pi*R^2) in W/m^2."""
    return scenario["transmitter"]["power_w"] * _tx_gain(scenario) / (4.0 * math.pi * range_m**2)


def friis(scenario: dict, range_m: float) -> float:
    """Received power P*Gt*Gr*lambda^2/(4*pi*R)^2 in W."""
    tx = scenario["transmitter"]
    wavelength = SPEED_OF_LIGHT_M_S / (tx["freq_mhz"] * 1e6)
    rx_gain = 10.0 ** (scenario["geometry"]["rx_gain_db"] / 10.0)
    return tx["power_w"] * _tx_gain(scenario) * rx_gain * (wavelength / (4.0 * math.pi * range_m)) ** 2


def hata_small_city_db(freq_mhz: float, h_base_m: float, h_mobile_m: float, distance_km: float) -> float:
    """Okumura-Hata median loss with the small/medium-city mobile correction."""
    log_f = math.log10(freq_mhz)
    mobile = (1.1 * log_f - 0.7) * h_mobile_m - (1.56 * log_f - 0.8)
    return (
        69.55
        + 26.16 * log_f
        - 13.82 * math.log10(h_base_m)
        - mobile
        + (44.9 - 6.55 * math.log10(h_base_m)) * math.log10(distance_km)
    )


def hex_lattice(count: int) -> list[tuple[int, int]]:
    """Axial coordinates of the first `count` sites, ring by ring from +x, counterclockwise."""
    directions = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    sites = [(0, 0)]
    ring = 1
    while len(sites) < count:
        for side in range(6):
            q, r = ring * directions[side][0], ring * directions[side][1]
            dq, dr = directions[(side + 2) % 6]
            sites.extend((q + k * dq, r + k * dr) for k in range(ring))
        ring += 1
    return sites[:count]


def adjacent_pairs(sites: list[tuple[int, int]]) -> int:
    present = set(sites)
    steps = ((1, 0), (0, 1), (-1, 1))
    return sum((q + dq, r + dr) in present for q, r in sites for dq, dr in steps)


def union_area_km2(count: int, radius_km: float) -> float:
    """Exact union of disks of radius D on a hex lattice of spacing sqrt(3)*D.

    Only adjacent disks overlap, pairwise, in a lens of area
    D^2*(pi/3 - sqrt(3)/2); no point lies in three disks.
    """
    edges = adjacent_pairs(hex_lattice(count))
    lens = radius_km**2 * (math.pi / 3.0 - math.sqrt(3.0) / 2.0)
    return count * math.pi * radius_km**2 - edges * lens


def _axis(sweep: dict) -> list[float]:
    lo, hi, steps = sweep["min"], sweep["max"], sweep["steps"]
    xs = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    xs[-1] = hi
    return xs


def _check_series(text: str, xs: list[float], value, unit: str, what: str) -> None:
    rows = _rows(text, "abscissa,value,unit", len(xs), 3, what)
    for i, (row, x) in enumerate(zip(rows, xs)):
        _close6(row[0], x, f"{what} row {i} abscissa")
        _close6(row[1], value(x), f"{what} row {i} value")
        if row[2] != unit:
            raise CheckError(f"{what} row {i}: unit {row[2]!r}, expected {unit!r}")


def check_figure(figure: str, scenario: dict, text: str) -> None:
    sweeps = scenario["sweeps"]
    offset = scenario["geometry"]["ground_offset_m"]
    if figure in FIGURE_ALTITUDE_M:
        height = FIGURE_ALTITUDE_M[figure]
        axis, value, unit = "ground_offset", lambda d: density(scenario, math.hypot(height, d)), "W/m2"
    elif figure == "fig6":
        axis, value, unit = "altitude", lambda a: density(scenario, math.hypot(a, offset)), "W/m2"
    elif figure == "fig7":
        axis, value, unit = "range", lambda r: density(scenario, r), "W/m2"
    else:
        axis, value, unit = "altitude", lambda a: friis(scenario, math.hypot(a, offset)), "W"
    _check_series(text, _axis(sweeps[axis]), value, unit, figure)


def check_table1(scenario: dict, text: str) -> None:
    distances = scenario["sweeps"]["distances_m"]
    rows = _rows(text, "distance_m,power_density_w_m2", len(distances), 2, "table1")
    for i, (row, r) in enumerate(zip(rows, distances)):
        _close6(row[0], r, f"table1 row {i} distance")
        _close6(row[1], density(scenario, r), f"table1 row {i} density")


def _flag(flags: tuple[str, ...], name: str) -> str:
    return flags[flags.index(name) + 1]


def check_coverage(scenario: dict, flags: tuple[str, ...], text: str) -> None:
    budget_db = float(_flag(flags, "--max-path-loss-db"))
    count = int(_flag(flags, "--num-balloons"))
    lines = _data_lines(text)
    if len(lines) != count + 2:
        raise CheckError(f"coverage: {len(lines)} data lines, expected {count + 2}")
    key, radius_text = lines[0].split(",")
    if key != "cell_radius_km":
        raise CheckError(f"coverage: first data line is {lines[0]!r}")
    radius = float(radius_text)
    geometry = scenario["geometry"]
    loss = hata_small_city_db(
        scenario["transmitter"]["freq_mhz"],
        geometry["bs_antenna_height_m"],
        geometry["rx_antenna_height_m"],
        radius,
    )
    if abs(loss - budget_db) > HATA_ROUND_TRIP_DB:
        raise CheckError(f"coverage: Hata loss at {radius_text} km is {loss:.6f} dB, budget {budget_db} dB")

    spacing = math.sqrt(3.0) * radius
    remaining = [tuple(map(float, line.split(",")[1:])) for line in lines[1:-1]]
    for q, r in hex_lattice(count):
        x, y = spacing * (q + r / 2.0), spacing * r * math.sqrt(3.0) / 2.0
        tolerance = 1e-5 * spacing * (1 + abs(q) + abs(r))
        match = next((c for c in remaining if math.hypot(c[0] - x, c[1] - y) <= tolerance), None)
        if match is None:
            raise CheckError(f"coverage: no cell centre at ({x:.6g}, {y:.6g}) km")
        remaining.remove(match)

    key, area_text = lines[-1].split(",")
    exact = union_area_km2(count, radius)
    if key != "union_area_km2" or abs(float(area_text) - exact) > UNION_AREA_REL_TOL * exact:
        raise CheckError(f"coverage: {lines[-1]!r}, exact lattice union is {exact:.6e} km2")


def check_green(scenario: dict, flags: tuple[str, ...], text: str) -> None:
    balloon_km = float(_flag(flags, "--balloon-radius-km"))
    ratio_sq = (balloon_km / float(_flag(flags, "--terrestrial-radius-km"))) ** 2
    replaced = round(ratio_sq) if abs(ratio_sq - round(ratio_sq)) < 1e-9 else math.ceil(ratio_sq)
    green = scenario["green"]
    diesel = green["terrestrial"]
    kg_per_hour = diesel["fuel_liters_per_hour"] * diesel["emission_factor_kg_per_liter"]
    terrestrial = replaced * kg_per_hour * green["hours_per_year"] / 1000.0
    values = _key_values(text, "green")
    if values.get("replaced_bs_count") != str(replaced):
        got = values.get("replaced_bs_count")
        raise CheckError(f"green: replaced_bs_count {got}, expected {replaced}")
    expected = {
        "terrestrial_annual_tons": terrestrial,
        "balloon_annual_tons": 0.0,
        "avoided_tons": terrestrial,
    }
    for key, exact in expected.items():
        _close6(values.get(key, ""), exact, f"green {key}")


def check_zones(scenario: dict, flags: tuple[str, ...], text: str) -> None:
    densities = [float(d) for d in _flag(flags, "--densities").split(",")]
    limit = scenario["thresholds"]["limit_w_m2"]
    caution = scenario["thresholds"]["caution_fraction"] * limit
    rows = _rows(text, "density_w_m2,zone", len(densities), 2, "zones")
    for i, (row, d) in enumerate(zip(rows, densities)):
        _close6(row[0], d, f"zones row {i} density")
        zone = "EXCEEDS_LIMIT" if d >= limit else "CAUTION" if d >= caution else "SAFE"
        if row[1] != zone:
            raise CheckError(f"zones row {i}: {row[1]}, expected {zone}")


def check_linkbudget(scenario: dict, text: str) -> None:
    geometry = scenario["geometry"]
    tx = scenario["transmitter"]
    range_m = math.hypot(geometry["altitude_m"], geometry["ground_offset_m"])
    expected = {
        "path_loss_db": hata_small_city_db(
            tx["freq_mhz"], geometry["bs_antenna_height_m"], geometry["rx_antenna_height_m"], range_m / 1000.0
        ),
        "power_density_w_m2": density(scenario, range_m),
        "e_field_v_m": math.sqrt(30.0 * tx["power_w"] * _tx_gain(scenario)) / range_m,
        "received_power_w": friis(scenario, range_m),
        "range_m": range_m,
    }
    values = _key_values(text, "linkbudget")
    for key, exact in expected.items():
        _close6(values.get(key, ""), exact, f"linkbudget {key}")


def check(command: str, scenario: dict, flags: tuple[str, ...], out_dir: Path, stdout: str) -> int:
    """Check every product of one CLI run; return how many were checked.

    Raises CheckError naming the first mismatch or missing product.
    """
    texts = {}
    for name in products(command):
        try:
            texts[name] = (out_dir / name).read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckError(f"{command}: product {name} missing ({exc.strerror})") from None
    try:
        if command == "exposure":
            for figure in FIGURES:
                check_figure(figure, scenario, texts[f"{figure}.csv"])
            return len(FIGURES)
        if command == "table1":
            check_table1(scenario, texts["table1.csv"])
        elif command == "coverage":
            check_coverage(scenario, flags, texts["coverage.csv"])
        elif command == "green":
            check_green(scenario, flags, texts["green.csv"])
        elif command == "zones":
            check_zones(scenario, flags, texts["zones.csv"])
        elif command == "linkbudget":
            check_linkbudget(scenario, stdout)
        else:
            raise CheckError(f"no checker for subcommand {command!r}")
    except (ValueError, IndexError) as exc:  # unparsable text is a failed product too
        raise CheckError(f"{command}: malformed product ({exc})") from None
    return 1
