"""Property of the library functions: raise ValueError or return a finite result.

Each function is called on seeded draws from a pool of finite floats that
spans the float range: zero, subnormals, tiny, ordinary, huge and negative
values, each also scaled by 3.7 and 0.37. A call may refuse its inputs with
a ValueError; it may not return inf or NaN, nor raise anything else.
"""

import math
import random

import pytest

from balloonlink import coverage as cov
from balloonlink import emissions as em
from balloonlink import exposure as exp
from balloonlink import propagation as prop

_BASE = (
    0.0, 1.0, -1.0, 5e-324, 2e-323, 1e-300, 1e-200, 1e-10,
    2.5, 150.0, 1e10, 1e150, 1e200, 1e300, 1.7e308, -1e300,
)  # fmt: skip
POOL = tuple(
    sorted({value * scale for value in _BASE for scale in (1.0, 3.7, 0.37)} - {math.inf})
)

DRAWS = 2000


def _annual_emissions_tons(liters_per_hour, kg_co2_per_liter, hours_per_year):
    profile = em.diesel_profile(liters_per_hour, kg_co2_per_liter)
    return em.annual_emissions_tons(profile, hours_per_year)


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
    "annual_emissions_tons": (_annual_emissions_tons, 3),
    "compare": (_compare, 7),
}


def _finite(result) -> bool:
    if isinstance(result, prop.Record):
        return all(map(_finite, result._values()))
    return math.isfinite(result)


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
    ],
)
def test_value_beyond_float_range_names_the_inputs(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == f"{message} is beyond float range"
