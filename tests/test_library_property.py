"""Property of the library functions: raise ValueError or return a finite result.

Each function is called on seeded draws from a pool of finite floats that
spans the float range: zero, subnormals, tiny, ordinary, huge and negative
values, each also scaled by 3.7 and 0.37, plus an integral float and ints
beyond float range. A call may refuse its inputs with a ValueError; it may
not return inf or NaN, nor raise anything else, nor return for a count
outside the count's bounds. A refused argument is worded by the bounds
grammar of the records.
"""

import math
import random
import re

import pytest

from balloonlink import coverage as cov
from balloonlink import emissions as em
from balloonlink import exposure as exp
from balloonlink import propagation as prop

_BASE = (
    0.0, 1.0, -1.0, 5e-324, 2e-323, 1e-300, 1e-200, 1e-10,
    2.5, 150.0, 1e10, 1e150, 1e200, 1e300, 1.7e308, -1e300,
)  # fmt: skip
_SCALED = {value * scale for value in _BASE for scale in (1.0, 3.7, 0.37)} - {math.inf}
POOL = tuple(sorted(_SCALED | {7.0, 10**400, -(10**400)}))

DRAWS = 2000


def _annual_emissions_tons(liters_per_hour, kg_co2_per_liter, hours_per_year):
    profile = em.diesel_profile(liters_per_hour, kg_co2_per_liter)
    return em.annual_emissions_tons(profile, hours_per_year)


def _range_density_profile(power_w, range_min_m, range_max_m, num_steps):
    tx = prop.TransmitterConfig(power_w, gain_linear=50.0)
    return exp.range_density_profile(tx, range_min_m, range_max_m, num_steps)


def _ground_density_profile(power_w, altitude_m, offset_max_m, num_steps):
    tx = prop.TransmitterConfig(power_w, gain_linear=50.0)
    return exp.ground_density_profile(tx, altitude_m, offset_max_m, num_steps)


def _compare(liters_per_hour, kg_co2_per_liter, kwh_per_hour, kg_co2_per_kwh, *radii_and_hours):
    terrestrial = em.diesel_profile(liters_per_hour, kg_co2_per_liter)
    balloon = em.grid_profile(kwh_per_hour, kg_co2_per_kwh)
    return em.compare(terrestrial, balloon, *radii_and_hours)


# name -> (function, number of float arguments)
FUNCTIONS = {
    "db_to_linear": (prop.db_to_linear, 1),
    "wavelength_m": (prop.wavelength_m, 1),
    "near_field_distance": (prop.near_field_distance, 2),
    "hata_correction_small_city": (prop.hata_correction_small_city, 2),
    "hata_path_loss": (prop.hata_path_loss, 4),
    "hata_slope_db_per_decade": (prop.hata_slope_db_per_decade, 1),
    "slant_range": (prop.slant_range, 2),
    "power_density": (prop.power_density, 3),
    "e_field_rms": (prop.e_field_rms, 3),
    "received_power": (prop.received_power, 5),
    "cell_radius_from_budget": (cov.cell_radius_from_budget, 4),
    "replacement_count": (cov.replacement_count, 2),
    "default_thresholds": (exp.default_thresholds, 1),
    "range_density_profile": (_range_density_profile, 4),
    "ground_density_profile": (_ground_density_profile, 4),
    "constellation_layout": (cov.constellation_layout, 2),
    "annual_emissions_tons": (_annual_emissions_tons, 3),
    "compare": (_compare, 7),
}


# name -> (index of a count argument, its bounds): a call that returns took a valid count
COUNTS = {
    "range_density_profile": (3, exp.SWEEP_STEPS),
    "ground_density_profile": (3, exp.SWEEP_STEPS),
    "constellation_layout": (0, ((">=", 1), ("<=", cov.MAX_BALLOONS))),
}


def _finite(result) -> bool:
    if isinstance(result, prop.Record):
        return all(map(_finite, result._values()))
    if isinstance(result, tuple):
        return all(map(_finite, result))
    return isinstance(result, str) or math.isfinite(result)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_raises_value_error_or_returns_finite(name):
    function, arity = FUNCTIONS[name]
    rng = random.Random(name)
    for _ in range(DRAWS):
        args = tuple(rng.choice(POOL) for _ in range(arity))
        try:
            result = function(*args)
        except ValueError:
            continue
        assert _finite(result), f"{name}{args} returned {result!r}"
        if name in COUNTS:
            index, bounds = COUNTS[name]
            assert prop.bound_problem("count", args[index], bounds) is None, f"{name}{args} took the count"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: prop.wavelength_m(2e-323), "wavelength at freq_mhz=1.97626e-323"),
        (
            lambda: prop.near_field_distance(1.7e308, 0.925),
            "near-field distance at antenna_dim_m=1.7e+308, freq_mhz=0.925",
        ),
        (lambda: prop.near_field_distance(3.7e200, 2e-323), "wavelength at freq_mhz=1.97626e-323"),
        (
            lambda: prop.slant_range(1.7e308, 6.29e307),
            "slant range at altitude_m=1.7e+308, ground_offset_m=6.29e+307",
        ),
        (
            lambda: prop.hata_correction_small_city(1.7e308, 6.29e307),
            "Hata correction at freq_mhz=1.7e+308, rx_antenna_height_m=6.29e+307",
        ),
        (
            lambda: prop.hata_correction_small_city(1e-320, 6.29e307),
            "Hata correction at freq_mhz=9.99989e-321, rx_antenna_height_m=6.29e+307",
        ),
        (
            lambda: prop.hata_path_loss(1.7e308, 200.0, 6.29e307, 1.0),
            "Hata correction at freq_mhz=1.7e+308, rx_antenna_height_m=6.29e+307",
        ),
        (
            lambda: em.annual_emissions_tons(em.diesel_profile(1e300, 1e300)),
            "annual emissions at fuel_liters_per_hour=1e+300, hours_per_year=8760, "
            "emission_factor_kg_per_liter=1e+300",
        ),
        (
            lambda: em.compare(em.diesel_profile(1e100, 1e100), em.solar_profile(), 1e100, 1e-5),
            "terrestrial annual emissions at balloon_radius_km=1e+100, terrestrial_radius_km=1e-05, "
            "fuel_liters_per_hour=1e+100, hours_per_year=8760, emission_factor_kg_per_liter=1e+100",
        ),
        (
            lambda: cov.union_area_km2(cov.constellation_layout(1, 1e200)),
            "union area at radius_km=1e+200",
        ),
        (
            lambda: cov.replacement_count(1e155, 1.0),
            "area ratio at balloon_radius_km=1e+155, terrestrial_radius_km=1",
        ),
    ],
    ids=[
        "wavelength",
        "near-field-square",
        "near-field-wavelength",
        "slant-range",
        "hata-correction-large",
        "hata-correction-tiny",
        "hata-path-loss",
        "annual-emissions",
        "compare",
        "union-area",
        "area-ratio",
    ],
)
def test_value_beyond_float_range_names_the_inputs(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == f"{message} is beyond float range"


TX = prop.TransmitterConfig(20.0, gain_linear=50.0)
THRESHOLDS = exp.ZoneThresholds(4.5)
DIESEL = em.diesel_profile()


# One row per argument check: each is the bounds grammar's message, whole.
# Record fields and the sweeps' ground offsets have theirs in test_propagation
# and test_exposure.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: prop.db_to_linear(10**400), "value_db must be finite"),
        (lambda: prop.db_to_linear(-(10**400)), "value_db must be finite"),
        (lambda: prop.wavelength_m(0.0), "freq_mhz must be > 0"),
        (lambda: prop.wavelength_m(math.inf), "freq_mhz must be finite"),
        (lambda: prop.near_field_distance(-1.0, 900.0), "antenna_dim_m must be >= 0"),
        (lambda: prop.hata_correction_small_city(900.0, 0.0), "rx_antenna_height_m must be > 0"),
        (lambda: prop.hata_path_loss(900.0, 200.0, 1.5, -1.0), "distance_km must be > 0"),
        (lambda: prop.hata_slope_db_per_decade(math.nan), "bs_antenna_height_m must be finite"),
        (lambda: prop.slant_range(1.0, -1.0), "ground_offset_m must be >= 0"),
        (lambda: prop.power_density(-1.0, 50.0, 10.0), "power_w must be >= 0"),
        (lambda: prop.e_field_rms(20.0, 0.0, 10.0), "gain_linear must be > 0"),
        (lambda: prop.power_density(20.0, 50.0, math.nan), "range_m must be finite"),
        (lambda: prop.e_field_rms(10**400, 50.0, 10.0), "power_w must be finite"),
        (lambda: prop.received_power(20.0, 50.0, -1.0, 900.0, 10.0), "rx_gain_linear must be > 0"),
        (lambda: exp.default_thresholds(-900.0), "freq_mhz must be > 0"),
        (lambda: exp.classify_zone(math.nan, THRESHOLDS), "density_w_m2 must be finite"),
        (lambda: exp.classify_zone(-0.1, THRESHOLDS), "density_w_m2 must be >= 0"),
        (lambda: exp.ground_density_profile(TX, 0.0, 25.0), "altitude_m must be > 0"),
        (lambda: exp.ground_density_profile(TX, 150.0, math.inf), "offset_max_m must be finite"),
        (lambda: exp.ground_density_profile(TX, 150.0, 0.0), "offset_max_m must be > 0"),
        (lambda: exp.ground_density_profile(TX, 150.0, 25.0, 2.5), "num_steps must be an integer >= 2"),
        (lambda: exp.ground_density_profile(TX, 150.0, 25.0, 10**9), "num_steps must be an integer <= 100001"),
        (lambda: exp.altitude_density_profile(TX, 0.0, 400.0), "altitude_min_m must be > 0"),
        (lambda: exp.altitude_density_profile(TX, 400.0, 200.0), "altitude_max_m must be > altitude_min_m"),
        (lambda: exp.range_density_profile(TX, 10.0, math.inf), "range_max_m must be finite"),
        (lambda: exp.received_power_profile(TX, 0.0, 200.0, 200.0), "altitude_max_m must be > altitude_min_m"),
        (lambda: exp.range_density_profile(TX, 10.0, 500.0, 2.5), "num_steps must be an integer >= 2"),
        (lambda: exp.range_density_profile(TX, 10.0, 500.0, 100_002), "num_steps must be an integer <= 100001"),
        (lambda: cov.cell_radius_from_budget(900.0, 200.0, 1.5, math.nan), "max_path_loss_db must be finite"),
        (lambda: cov.constellation_layout(0, 1.0), "num_balloons must be an integer >= 1"),
        (lambda: cov.constellation_layout(2.5, 1.0), "num_balloons must be an integer >= 1"),
        (lambda: cov.constellation_layout(1001, 1.0), "num_balloons must be an integer <= 1000"),
        (lambda: cov.replacement_count(-1.0, 1.0), "balloon_radius_km must be > 0"),
        (lambda: cov.replacement_count(10.0, math.inf), "terrestrial_radius_km must be finite"),
        (lambda: em.annual_emissions_tons(DIESEL, 0.0), "hours_per_year must be > 0"),
    ],
    ids=[
        "db-huge-int",
        "db-huge-negative-int",
        "wavelength-zero",
        "wavelength-inf",
        "near-field",
        "hata-correction",
        "hata-path-loss",
        "hata-slope",
        "slant-range",
        "field-power",
        "field-gain",
        "field-range",
        "field-huge-int",
        "received-rx-gain",
        "default-thresholds",
        "classify-nan",
        "classify-negative",
        "ground-altitude",
        "ground-offset-max",
        "ground-zero-window",
        "ground-steps-fractional",
        "ground-steps-cap",
        "altitude-min",
        "altitude-max-below-min",
        "range-max",
        "received-max-equals-min",
        "steps-fractional",
        "steps-cap",
        "cell-radius",
        "balloons-zero",
        "balloons-fractional",
        "balloons-cap",
        "replacement-balloon",
        "replacement-terrestrial",
        "annual-emissions",
    ],
)
def test_argument_error_speaks_the_bounds_grammar(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# The sweep-versus-scalar property: on seeded draws of a transmitter and an
# axis that can be sampled, each profile either raises the error its public
# scalar raises at an end of the axis, or equals that scalar at every
# abscissa, bit for bit. The pools reach a zero power, an aperture
# Gr*lambda^2 beyond float range and slant ranges near the top of it.
SWEEP_POWERS_W = (0.0, 1e-300, 20.0, 1e300, 1.7e308)
SWEEP_GAINS = (1e-300, 50.0, 1e300)
SWEEP_FREQS_MHZ = (1e-300, 1e-200, 1e-160, 1e-10, 900.0, 1e200, 1e303)
SWEEP_RX_GAINS_DB = (-3000.0, -300.0, 0.0, 300.0, 3000.0)
SWEEP_LENGTHS_M = (5e-324, 1e-200, 1e-10, 1.0, 150.0, 1e150, 1e300, 1.5e308)
SWEEP_STEP_COUNTS = (2, 3, 5, 17)
SWEEP_DRAWS = 1500


def _ground_case(rng, tx):
    altitude, offset_max = rng.choice(SWEEP_LENGTHS_M), rng.choice((0.0, *SWEEP_LENGTHS_M))
    power, gain = tx.power_w, tx.linear_gain()
    return (
        (0.0, offset_max, "ground_offset_m"),
        lambda steps: exp.ground_density_profile(tx, altitude, offset_max, steps),
        lambda d: prop.power_density(power, gain, prop.slant_range(altitude, d)),
    )


def _altitude_case(rng, tx):
    low, high = sorted(rng.sample(SWEEP_LENGTHS_M, 2))
    offset = rng.choice((0.0, *SWEEP_LENGTHS_M))
    power, gain = tx.power_w, tx.linear_gain()
    return (
        (low, high, "altitude_m"),
        lambda steps: exp.altitude_density_profile(tx, low, high, offset, steps),
        lambda a: prop.power_density(power, gain, prop.slant_range(a, offset)),
    )


def _range_case(rng, tx):
    low, high = sorted(rng.sample(SWEEP_LENGTHS_M, 2))
    power, gain = tx.power_w, tx.linear_gain()
    return (
        (low, high, "range_m"),
        lambda steps: exp.range_density_profile(tx, low, high, steps),
        lambda r: prop.power_density(power, gain, r),
    )


def _received_case(rng, tx):
    low, high = sorted(rng.sample(SWEEP_LENGTHS_M, 2))
    offset, rx_gain_db = rng.choice((0.0, *SWEEP_LENGTHS_M)), rng.choice(SWEEP_RX_GAINS_DB)
    power, gain, rx_gain = tx.power_w, tx.linear_gain(), prop.db_to_linear(rx_gain_db)
    return (
        (low, high, "altitude_m"),
        lambda steps: exp.received_power_profile(tx, rx_gain_db, low, high, offset, steps),
        lambda a: prop.received_power(power, gain, rx_gain, tx.freq_mhz, prop.slant_range(a, offset)),
    )


# profile name -> draw(rng, transmitter) -> ((lo, hi, axis), profile(steps), scalar(x))
SWEEP_CASES = {
    "ground_density_profile": _ground_case,
    "altitude_density_profile": _altitude_case,
    "range_density_profile": _range_case,
    "received_power_profile": _received_case,
}


def _error(call, *args) -> str | None:
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_sweep_is_its_scalar_at_every_abscissa(name):
    rng = random.Random(name)
    compared = 0
    for _ in range(SWEEP_DRAWS):
        tx = prop.TransmitterConfig(
            rng.choice(SWEEP_POWERS_W), gain_linear=rng.choice(SWEEP_GAINS), freq_mhz=rng.choice(SWEEP_FREQS_MHZ)
        )
        (lo, hi, axis), profile, scalar = SWEEP_CASES[name](rng, tx)
        steps = rng.choice(SWEEP_STEP_COUNTS)
        try:
            xs = exp._sample_axis(lo, hi, steps, axis)
        except ValueError:
            continue  # finer than float resolution: no scalar is evaluated
        where = f"{name}: {tx}, axis {xs[0]!r}..{xs[-1]!r} in {len(xs)}"
        try:
            series = profile(steps)
        except ValueError as exc:
            assert str(exc) in {_error(scalar, xs[0]), _error(scalar, xs[-1])}, f"{where}: {exc}"
            continue
        assert series.abscissas == xs, where
        expected = tuple(scalar(x) for x in xs)
        assert list(map(float.hex, series.values)) == list(map(float.hex, expected)), where
        compared += 1
    # enough draws reach the comparison that it is not vacuous
    assert compared > SWEEP_DRAWS // 10, compared


def test_an_integral_float_count_is_a_count():
    assert exp.range_density_profile(TX, 10.0, 500.0, 3.0) == exp.range_density_profile(TX, 10.0, 500.0, 3)
    assert cov.constellation_layout(3.0, 1.0) == cov.constellation_layout(3, 1.0)
