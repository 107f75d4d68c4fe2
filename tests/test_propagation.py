"""Unit tests for the closed-form link physics."""

import functools
import math
import random
import sys
from fractions import Fraction

import pytest

from balloonlink import cli
from balloonlink import coverage as cov
from balloonlink import emissions as em
from balloonlink import exposure as exp
from balloonlink import propagation as prop
from balloonlink import scenario as scen


class TestDbConversions:
    def test_identity_points(self):
        assert prop.db_to_linear(0.0) == 1.0
        assert prop.db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        # 10^(17/10) = 50.11872336272722
        assert prop.db_to_linear(17.0) == pytest.approx(50.11872336272722, rel=1e-12)

    def test_negative_gain_allowed(self):
        assert prop.db_to_linear(-3.0) == pytest.approx(10.0 ** -0.3, rel=1e-12)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                prop.db_to_linear(bad)

    @pytest.mark.parametrize("value_db", [1e308, 5000.0, -4000.0], ids=["1e308", "5000", "-4000"])
    def test_ratio_out_of_float_range_names_value_db(self, value_db):
        with pytest.raises(ValueError) as excinfo:
            prop.db_to_linear(value_db)
        assert str(excinfo.value).startswith(f"value_db={value_db:g} is out of range")

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            ratio = 10.0 ** rng.uniform(-6.0, 6.0)
            back = prop.db_to_linear(10.0 * math.log10(ratio))
            assert abs(back - ratio) / ratio < 1e-12


class TestWavelength:
    def test_known_values(self):
        # c / 3e8 and c / 2.4e9, c = 299792458 m/s
        assert prop.wavelength_m(300.0) == pytest.approx(0.9993081933333333, rel=1e-12)
        assert prop.wavelength_m(2400.0) == pytest.approx(0.12491352416666666, rel=1e-12)

    def test_halving_frequency_doubles_wavelength(self):
        assert prop.wavelength_m(150.0) == pytest.approx(
            2.0 * prop.wavelength_m(300.0), rel=1e-15
        )

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            prop.wavelength_m(0.0)
        with pytest.raises(ValueError):
            prop.wavelength_m(-900.0)


class TestNearField:
    def test_zero_antenna(self):
        assert prop.near_field_distance(0.0, 900.0) == 0.0

    def test_one_meter_antenna(self):
        # 2 * 1^2 / lambda(2400 MHz) = 2 / 0.124914 = 16.011
        assert prop.near_field_distance(1.0, 2400.0) == pytest.approx(
            16.0110765695113, rel=1e-12
        )

    def test_proportional_to_frequency(self):
        # n_f scales with f: the 600 MHz boundary is a quarter of 2400 MHz
        assert prop.near_field_distance(1.0, 600.0) == pytest.approx(
            prop.near_field_distance(1.0, 2400.0) / 4.0, rel=1e-15
        )

    def test_proportional_to_length_squared(self):
        assert prop.near_field_distance(3.0, 900.0) == pytest.approx(
            9.0 * prop.near_field_distance(1.0, 900.0), rel=1e-12
        )

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            prop.near_field_distance(-0.1, 900.0)


class TestHataCorrection:
    def test_reference_values(self):
        # term-by-term: (1.1*log10(900)-0.7)*1.5 - (1.56*log10(900)-0.8)
        assert prop.hata_correction_small_city(900.0, 1.5) == pytest.approx(
            0.015881825849539677, rel=1e-12
        )
        assert prop.hata_correction_small_city(200.0, 1.5) == pytest.approx(
            -0.042907300390241154, rel=1e-12
        )

    def test_zero_crossing(self):
        # the correction vanishes at h_re = (1.56*log10(f)-0.8)/(1.1*log10(f)-0.7)
        root = (1.56 * math.log10(900.0) - 0.8) / (1.1 * math.log10(900.0) - 0.7)
        assert abs(prop.hata_correction_small_city(900.0, root)) < 1e-12
        assert abs(prop.hata_correction_small_city(900.0, 1.49379)) < 1e-4

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            prop.hata_correction_small_city(0.0, 1.5)
        with pytest.raises(ValueError):
            prop.hata_correction_small_city(900.0, 0.0)


def hata_oracle(f, hte, hre, d):
    """Independent term-by-term evaluation of the path-loss formula."""
    correction = (1.1 * math.log10(f) - 0.7) * hre - (1.56 * math.log10(f) - 0.8)
    return (
        69.55
        + 26.16 * math.log10(f)
        - 13.82 * math.log10(hte)
        - correction
        + (44.9 - 6.55 * math.log10(hte)) * math.log10(d)
    )


class TestHataPathLoss:
    def test_reference_values(self):
        # at D=1 km the distance term vanishes
        assert prop.hata_path_loss(900.0, 200.0, 1.5, 1.0) == pytest.approx(
            115.01686768100697, rel=1e-12
        )
        assert prop.hata_path_loss(900.0, 200.0, 1.5, 10.0) == pytest.approx(
            144.8451212094079, rel=1e-12
        )
        assert prop.hata_path_loss(900.0, 200.0, 1.5, 100.0) == pytest.approx(
            174.6733747378088, rel=1e-12
        )

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(300):
            f = rng.uniform(150.0, 1500.0)
            hte = rng.uniform(30.0, 440.0)
            hre = rng.uniform(1.0, 10.0)
            d = rng.uniform(1.0, 20.0)
            assert prop.hata_path_loss(f, hte, hre, d) == pytest.approx(
                hata_oracle(f, hte, hre, d), rel=1e-12
            )

    def test_affine_in_log_distance(self):
        # slope is 44.9 - 6.55*log10(200) = 29.82825352840092 dB/decade
        slope = prop.hata_slope_db_per_decade(200.0)
        assert slope == pytest.approx(29.82825352840092, rel=1e-12)
        step = prop.hata_path_loss(900.0, 200.0, 1.5, 10.0) - prop.hata_path_loss(
            900.0, 200.0, 1.5, 1.0
        )
        assert step == pytest.approx(slope, rel=1e-10)

    def test_strictly_increasing_in_distance(self):
        losses = [prop.hata_path_loss(900.0, 200.0, 1.5, d) for d in (1, 2, 5, 10, 20)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            prop.hata_path_loss(900.0, 200.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            prop.hata_path_loss(-900.0, 200.0, 1.5, 1.0)


class TestHataValidityWarnings:
    def test_silent_in_range(self):
        assert prop.hata_validity_warnings(900.0, 100.0, 5.0) == ()

    def test_flags_each_excursion(self):
        assert prop.hata_validity_warnings(2400.0, 440.0, 0.15) == (
            "freq_mhz=2400 outside Hata validity range [150, 1500] MHz",
            "bs_antenna_height_m=440 outside Hata validity range [30, 200] m",
            "distance_km=0.15 outside Hata validity range [1, 20] km",
        )

    def test_boundaries_are_inclusive(self):
        assert prop.hata_validity_warnings(150.0, 200.0, 20.0) == ()
        assert prop.hata_validity_warnings(1500.0, 30.0, 1.0) == ()


class TestSlantRange:
    def test_degenerate_axes(self):
        assert prop.slant_range(0.0, 25.0) == 25.0
        assert prop.slant_range(200.0, 0.0) == 200.0

    def test_hypotenuse(self):
        assert prop.slant_range(3.0, 4.0) == 5.0
        # sqrt(150^2 + 25^2) = sqrt(23125)
        assert prop.slant_range(150.0, 25.0) == pytest.approx(152.0690632574555, rel=1e-12)

    def test_dominates_both_legs(self):
        rng = random.Random(3)
        for _ in range(100):
            a, d = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
            if a == 0.0 and d == 0.0:
                continue
            assert prop.slant_range(a, d) >= max(a, d)

    def test_rejects_origin_and_negatives(self):
        with pytest.raises(ValueError):
            prop.slant_range(0.0, 0.0)
        with pytest.raises(ValueError):
            prop.slant_range(-1.0, 5.0)


class TestPowerDensity:
    def test_terrestrial_table_values(self):
        # 20 W * 50 / (4*pi*R^2)
        assert prop.power_density(20.0, 50.0, 10.0) == pytest.approx(
            0.7957747154594766, rel=1e-12
        )
        assert prop.power_density(20.0, 50.0, 500.0) == pytest.approx(
            3.183098861837907e-4, rel=1e-12
        )
        assert prop.power_density(20.0, 50.0, 150.0) == pytest.approx(
            3.5367765131532297e-3, rel=1e-12
        )

    def test_zero_power(self):
        assert prop.power_density(0.0, 50.0, 10.0) == 0.0

    def test_linear_in_power(self):
        assert prop.power_density(40.0, 50.0, 10.0) == pytest.approx(
            2.0 * prop.power_density(20.0, 50.0, 10.0), rel=1e-15
        )

    def test_strictly_decreasing_in_range(self):
        values = [prop.power_density(20.0, 50.0, r) for r in (1, 10, 100, 1000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prop.power_density(20.0, 50.0, 0.0)
        with pytest.raises(ValueError):
            prop.power_density(-1.0, 50.0, 10.0)
        with pytest.raises(ValueError):
            prop.power_density(20.0, 0.0, 10.0)


class TestEFieldRms:
    def test_reference_value(self):
        # sqrt(30 * 20 * 50) / 10 = sqrt(30000) / 10
        assert prop.e_field_rms(20.0, 50.0, 10.0) == pytest.approx(
            17.32050807568877, rel=1e-12
        )

    def test_zero_power(self):
        assert prop.e_field_rms(0.0, 50.0, 10.0) == 0.0

    def test_impedance_identity(self):
        e = prop.e_field_rms(20.0, 50.0, 10.0)
        assert e * e / (120.0 * math.pi) == pytest.approx(
            prop.power_density(20.0, 50.0, 10.0), rel=1e-13
        )

    def test_rejects_zero_range(self):
        with pytest.raises(ValueError):
            prop.e_field_rms(20.0, 50.0, 0.0)


class TestReceivedPower:
    def test_reference_value(self):
        # oracle: P_d(1000 m) * G_r * lambda^2 / (4*pi) = 7.026461305115372e-07
        assert prop.received_power(20.0, 50.0, 1.0, 900.0, 1000.0) == pytest.approx(
            7.026461305115372e-7, rel=1e-12
        )

    def test_matches_density_times_aperture(self):
        lam = prop.wavelength_m(900.0)
        expected = prop.power_density(20.0, 50.0, 1000.0) * lam * lam / (4.0 * math.pi)
        assert prop.received_power(20.0, 50.0, 1.0, 900.0, 1000.0) == pytest.approx(
            expected, rel=1e-13
        )

    def test_inverse_square_in_range(self):
        assert prop.received_power(20.0, 50.0, 1.0, 900.0, 2000.0) == pytest.approx(
            7.026461305115372e-7 / 4.0, rel=1e-12
        )

    def test_zero_power(self):
        assert prop.received_power(0.0, 50.0, 1.0, 900.0, 1000.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prop.received_power(20.0, 50.0, 1.0, 900.0, 0.0)
        with pytest.raises(ValueError):
            prop.received_power(20.0, 50.0, 0.0, 900.0, 1000.0)
        with pytest.raises(ValueError):
            prop.received_power(20.0, 50.0, 1.0, -900.0, 1000.0)


class TestTransmitterConfig:
    def test_gain_linear_override_wins(self):
        tx = prop.TransmitterConfig(power_w=20.0, gain_db=17.0, gain_linear=50.0)
        assert tx.linear_gain() == 50.0

    def test_gain_from_db_when_no_override(self):
        tx = prop.TransmitterConfig(power_w=20.0, gain_db=17.0)
        assert tx.linear_gain() == pytest.approx(50.11872336272722, rel=1e-12)

    def test_db_path_close_to_rounded_linear(self):
        # the dB route differs from the rounded linear gain by under 0.3%
        tx = prop.TransmitterConfig(power_w=20.0, gain_db=17.0)
        assert abs(tx.linear_gain() - 50.0) / 50.0 < 0.003

    def test_zero_power_probe_allowed(self):
        assert prop.TransmitterConfig(power_w=0.0).power_w == 0.0

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            prop.TransmitterConfig(power_w=-1.0)
        with pytest.raises(ValueError):
            prop.TransmitterConfig(power_w=20.0, freq_mhz=0.0)
        with pytest.raises(ValueError):
            prop.TransmitterConfig(power_w=20.0, antenna_dim_m=-1.0)
        with pytest.raises(ValueError):
            prop.TransmitterConfig(power_w=20.0, gain_linear=0.0)
        with pytest.raises(ValueError):
            prop.TransmitterConfig(power_w=20.0, gain_db=math.inf)

    def test_near_field_helper(self):
        tx = prop.TransmitterConfig(power_w=20.0, freq_mhz=2400.0, antenna_dim_m=1.0)
        assert tx.near_field_m() == pytest.approx(16.0110765695113, rel=1e-12)


class TestLinkGeometry:
    def test_slant_range_helper(self):
        geom = prop.LinkGeometry(altitude_m=150.0, ground_offset_m=25.0)
        assert geom.slant_range_m() == pytest.approx(152.0690632574555, rel=1e-12)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            prop.LinkGeometry(altitude_m=-1.0)
        with pytest.raises(ValueError):
            prop.LinkGeometry(bs_antenna_height_m=0.0)
        with pytest.raises(ValueError):
            prop.LinkGeometry(rx_antenna_height_m=0.0)


class TestLinkBudget:
    def test_full_budget_at_default_geometry(self):
        tx = prop.TransmitterConfig(power_w=20.0, gain_linear=50.0)
        geom = prop.LinkGeometry(altitude_m=150.0, ground_offset_m=0.0)
        result = prop.link_budget(tx, geom)
        assert result.range_m == 150.0
        assert result.power_density_w_m2 == pytest.approx(3.5367765131532297e-3, rel=1e-12)
        assert result.e_field_v_m == pytest.approx(math.sqrt(30000.0) / 150.0, rel=1e-12)
        assert result.path_loss_db == pytest.approx(hata_oracle(900.0, 200.0, 1.5, 0.15), rel=1e-12)
        expected_pr = prop.power_density(20.0, 50.0, 150.0) * prop.wavelength_m(
            900.0
        ) ** 2 / (4.0 * math.pi)
        assert result.received_power_w == pytest.approx(expected_pr, rel=1e-12)

    @pytest.mark.parametrize(
        "power_w, altitude_m",
        [
            (1.5e-323, 2.822),
            (3.26e-322, 1.843),
            (1.21e-320, 1.352),
            (3.12e-319, 1.093),
            (5.53e-318, 172.8),
            (1.06e-316, 2.634),
            (2.47e-315, 2705.0),
            (7.11e-314, 5454.0),
            (6.13e-313, 3.449),
            (9.186094947869e-311, 159.02446236209968),
            (1.52e-310, 2461.0),
        ],
    )
    def test_subnormal_density_is_consistent(self, power_w, altitude_m):
        # P_d is subnormal here, so E^2 / (120*pi) can miss it by more than
        # 1e-12 of itself while agreeing to far below the smallest normal float
        tx = prop.TransmitterConfig(power_w=power_w, freq_mhz=900.0)
        result = prop.link_budget(tx, prop.LinkGeometry(altitude_m=altitude_m))
        assert result.power_density_w_m2 < sys.float_info.min
        implied = result.e_field_v_m**2 / prop.FREE_SPACE_IMPEDANCE_OHM
        assert abs(implied - result.power_density_w_m2) <= 1e-12 * sys.float_info.min

    @pytest.mark.parametrize(
        "density, e_field",
        [
            (1e-315, math.sqrt(2e-315 * 120.0 * math.pi)),
            (0.0, 1e-150),
            (1e-300, math.sqrt(1.5e-300 * 120.0 * math.pi)),
        ],
        ids=["subnormal", "zero-density", "near-normal"],
    )
    def test_result_rejects_inconsistent_tiny_fields(self, density, e_field):
        with pytest.raises(ValueError, match="e_field_v_m inconsistent"):
            prop.LinkBudgetResult(
                path_loss_db=100.0,
                power_density_w_m2=density,
                e_field_v_m=e_field,
                received_power_w=0.0,
                range_m=10.0,
            )

    def test_result_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError):
            prop.LinkBudgetResult(
                path_loss_db=100.0,
                power_density_w_m2=1.0,
                e_field_v_m=1.0,  # should be sqrt(120*pi)
                received_power_w=0.0,
                range_m=10.0,
            )
        with pytest.raises(ValueError):
            prop.LinkBudgetResult(
                path_loss_db=100.0,
                power_density_w_m2=1.0,
                e_field_v_m=math.sqrt(120.0 * math.pi),
                received_power_w=0.0,
                range_m=0.0,
            )


# name -> (callable, valid keyword arguments); each argument is fed NaN and +-inf
_FINITE_GUARDED = {
    "power_density": (prop.power_density, dict(power_w=1.0, gain_linear=1.0, range_m=1.0)),
    "e_field_rms": (prop.e_field_rms, dict(power_w=1.0, gain_linear=1.0, range_m=1.0)),
    "received_power": (
        prop.received_power,
        dict(power_w=1.0, tx_gain_linear=1.0, rx_gain_linear=1.0, freq_mhz=900.0, range_m=1.0),
    ),
    "slant_range": (prop.slant_range, dict(altitude_m=150.0, ground_offset_m=25.0)),
    "LinkGeometry": (
        prop.LinkGeometry,
        dict(
            altitude_m=150.0,
            ground_offset_m=25.0,
            bs_antenna_height_m=200.0,
            rx_antenna_height_m=1.5,
            rx_gain_db=0.0,
        ),
    ),
    "near_field_distance": (prop.near_field_distance, dict(antenna_dim_m=1.0, freq_mhz=900.0)),
    "hata_correction_small_city": (
        prop.hata_correction_small_city,
        dict(freq_mhz=900.0, rx_antenna_height_m=1.5),
    ),
    "hata_path_loss": (
        prop.hata_path_loss,
        dict(freq_mhz=900.0, bs_antenna_height_m=200.0, rx_antenna_height_m=1.5, distance_km=1.0),
    ),
    "hata_slope_db_per_decade": (prop.hata_slope_db_per_decade, dict(bs_antenna_height_m=200.0)),
    "TransmitterConfig": (
        prop.TransmitterConfig,
        dict(power_w=20.0, gain_db=17.0, freq_mhz=900.0, antenna_dim_m=1.0, gain_linear=50.0),
    ),
    "LinkBudgetResult": (
        prop.LinkBudgetResult,
        dict(
            path_loss_db=100.0,
            power_density_w_m2=1.0,
            e_field_v_m=math.sqrt(120.0 * math.pi),
            received_power_w=1e-9,
            range_m=10.0,
        ),
    ),
    "cell_radius_from_budget": (
        cov.cell_radius_from_budget,
        dict(
            freq_mhz=900.0,
            bs_antenna_height_m=200.0,
            rx_antenna_height_m=1.5,
            max_path_loss_db=140.0,
        ),
    ),
    "PowerSourceProfile": (
        functools.partial(em.PowerSourceProfile, em.SourceKind.DIESEL),
        dict(
            fuel_liters_per_hour=2.0,
            emission_factor_kg_per_liter=2.68,
            grid_kwh_per_hour=0.0,
            grid_emission_kg_per_kwh=0.0,
        ),
    ),
    "diesel_profile": (em.diesel_profile, dict(liters_per_hour=2.0, kg_co2_per_liter=2.68)),
    "annual_emissions_tons": (
        functools.partial(em.annual_emissions_tons, em.diesel_profile()),
        dict(hours_per_year=8760.0),
    ),
    "ZoneThresholds": (exp.ZoneThresholds, dict(limit_w_m2=4.5, caution_fraction=0.1)),
    "default_thresholds": (exp.default_thresholds, dict(freq_mhz=900.0)),
    "SweepRange": (scen.SweepRange, dict(min=0.0, max=25.0, steps=101)),
    "GreenComparison": (
        functools.partial(em.GreenComparison, replaced_bs_count=100),
        dict(terrestrial_annual_tons=4695.36, balloon_annual_tons=0.0, avoided_tons=4695.36),
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, argument", [(name, arg) for name, (_, kwargs) in _FINITE_GUARDED.items() for arg in kwargs]
)
def test_non_finite_argument_rejected(name, argument, value):
    function, kwargs = _FINITE_GUARDED[name]
    function(**kwargs)
    with pytest.raises(ValueError):
        function(**{**kwargs, argument: value})


# Finite inputs whose field leaves float range: (function, keyword overrides
# of its _FINITE_GUARDED row).
_BEYOND_FLOAT_RANGE = {
    "R^2-underflows": ("power_density", dict(range_m=1e-200)),
    "inf-over-inf": ("power_density", dict(power_w=1e308, gain_linear=1e10, range_m=1e300)),
    "subnormal-range": ("e_field_rms", dict(range_m=1e-320)),
    "result-overflows": ("received_power", dict(range_m=1e-160)),
    "(4piR)^2-underflows": ("received_power", dict(range_m=1e-200)),
}


@pytest.mark.parametrize("name, overrides", _BEYOND_FLOAT_RANGE.values(), ids=_BEYOND_FLOAT_RANGE)
def test_field_beyond_float_range_names_range_m(name, overrides):
    function, kwargs = _FINITE_GUARDED[name]
    with pytest.raises(ValueError, match=r"^[a-zE -]+ at range_m=\S+ is beyond float range$"):
        function(**{**kwargs, **overrides})


# Finite inputs whose field leaves float range through a factor other than
# the range: (function, keyword overrides, the inputs the error names).
_BEYOND_FLOAT_RANGE_ELSEWHERE = {
    "lambda^2-overflows": (
        "received_power",
        dict(freq_mhz=1e-300, range_m=200.0),
        "received power at freq_mhz=1e-300",
    ),
    "PG-overflows": (
        "power_density",
        dict(power_w=1e308, gain_linear=1e10),
        "power density at power_w=1e+308, gain_linear=1e+10",
    ),
    "30PG-overflows": (
        "e_field_rms",
        dict(power_w=1e308, gain_linear=1e10),
        "rms E-field at power_w=1e+308, gain_linear=1e+10",
    ),
    "PGtGr-overflows": (
        "received_power",
        dict(power_w=1e308, tx_gain_linear=1e10, range_m=200.0),
        "received power at power_w=1e+308, tx_gain_linear=1e+10, rx_gain_linear=1",
    ),
    "PGtGr-lambda^2-overflows": (
        "received_power",
        dict(power_w=1e12, freq_mhz=1e-150, range_m=200.0),
        "received power at power_w=1e+12, tx_gain_linear=1, rx_gain_linear=1, freq_mhz=1e-150",
    ),
}


@pytest.mark.parametrize(
    "name, overrides, named", _BEYOND_FLOAT_RANGE_ELSEWHERE.values(), ids=_BEYOND_FLOAT_RANGE_ELSEWHERE
)
def test_field_beyond_float_range_names_the_overflowed_input(name, overrides, named):
    function, kwargs = _FINITE_GUARDED[name]
    with pytest.raises(ValueError) as excinfo:
        function(**{**kwargs, **overrides})
    assert str(excinfo.value) == f"{named} is beyond float range"


# The program's double 4*pi as a rational: the exact field laws over it are
# the oracle at every range a float can hold.
_EXACT_FOUR_PI = Fraction(prop._FOUR_PI)


def test_field_laws_match_the_exact_value_or_go_to_zero():
    # a field at least the smallest normal float is returned to 1e-9, and one
    # below it is 0 or a subnormal; neither law raises
    rng = random.Random(2019)
    for _ in range(20_000):
        power_w, tx_gain, rx_gain, freq_mhz = (
            10.0 ** rng.uniform(lo, hi) for lo, hi in ((-3, 4), (-1, 4), (-1, 2), (1, 5))
        )
        range_m = 10.0 ** rng.uniform(0, 300)
        density = Fraction(power_w) * Fraction(tx_gain) / (_EXACT_FOUR_PI * Fraction(range_m) ** 2)
        lam = Fraction(prop.wavelength_m(freq_mhz))
        for value, exact in (
            (prop.power_density(power_w, tx_gain, range_m), density),
            (
                prop.received_power(power_w, tx_gain, rx_gain, freq_mhz, range_m),
                density * Fraction(rx_gain) * lam * lam / _EXACT_FOUR_PI,
            ),
        ):
            if exact >= sys.float_info.min:
                assert value == pytest.approx(float(exact), rel=1e-9)
            else:
                assert 0.0 <= value < sys.float_info.min


class TestRecord:
    """The frozen value-class base every record of the package derives from."""

    def test_positional_and_keyword_construction_with_defaults(self):
        tx = prop.TransmitterConfig(20.0, 10.0, freq_mhz=800.0)
        assert (tx.power_w, tx.gain_db, tx.freq_mhz) == (20.0, 10.0, 800.0)
        assert (tx.antenna_dim_m, tx.gain_linear) == (1.0, None)
        assert prop.TransmitterConfig(power_w=20.0) == prop.TransmitterConfig(20.0)
        assert exp.SweepSeries("x", "r").points == ()

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((20.0,), dict(bogus=1.0)),
            ((20.0,), dict(power_w=1.0)),
            ((), dict(gain_db=17.0)),
            ((20.0, 17.0, 900.0, 1.0, None, 0.0), {}),
        ],
        ids=["unknown", "repeated", "missing", "extra"],
    )
    def test_bad_arguments_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            prop.TransmitterConfig(*args, **kwargs)

    def test_post_init_validates(self):
        with pytest.raises(ValueError, match="power_w"):
            prop.TransmitterConfig(-1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: prop.TransmitterConfig(power_w=-1.0), "power_w must be >= 0"),
            (lambda: prop.TransmitterConfig(power_w=math.nan), "power_w must be finite"),
            (lambda: prop.TransmitterConfig(20.0, gain_linear=0.0), "gain_linear must be > 0"),
            (lambda: exp.ZoneThresholds(4.5, 1.0), "caution_fraction must be < 1"),
            (lambda: scen.SweepRange(0.0, 1.0, steps=2.5), "steps must be an integer >= 2"),
            (lambda: scen.SweepRange(0.0, 1.0, 100_002), "steps must be an integer <= 100001"),
        ],
        ids=["negative", "nan", "zero-gain", "caution-1", "fractional-steps", "steps-cap"],
    )
    def test_bounds_give_one_message_per_field(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_none_passes_only_where_it_is_the_default(self):
        assert prop.TransmitterConfig(20.0, gain_linear=None).gain_linear is None
        with pytest.raises(TypeError):
            prop.TransmitterConfig(None)

    def test_bounds_name_own_fields(self):
        records, pending = [], [prop.Record]
        while pending:
            subclasses = pending.pop().__subclasses__()
            records += subclasses
            pending += subclasses
        assert cli.Product in records and scen.SweepRange in records
        for record in records:
            assert set(record._bounds) <= set(record._fields), record.__name__

    def test_frozen(self):
        tx = prop.TransmitterConfig(20.0)
        with pytest.raises(AttributeError):
            tx.power_w = 1.0
        with pytest.raises(AttributeError):
            tx.extra = 1.0
        with pytest.raises(AttributeError):
            del tx.power_w
        assert tx.power_w == 20.0

    def test_equality_and_hash_agree(self):
        a, b = prop.TransmitterConfig(20.0), prop.TransmitterConfig(20.0, 17.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != prop.TransmitterConfig(21.0)

    def test_other_class_with_equal_values_is_unequal(self):
        class Left(prop.Record):
            x: float

        class Right(prop.Record):
            x: float

        assert Left(1.0) == Left(1.0)
        assert Left(1.0) != Right(1.0)
        assert Left(1.0) != (1.0,)

    def test_repr_is_dataclass_style(self):
        assert repr(prop.TransmitterConfig(20.0)) == (
            "TransmitterConfig(power_w=20.0, gain_db=17.0, freq_mhz=900.0, "
            "antenna_dim_m=1.0, gain_linear=None)"
        )

    def test_fields_keep_the_linkbudget_row_order(self):
        assert prop.LinkBudgetResult._fields == (
            "path_loss_db",
            "power_density_w_m2",
            "e_field_v_m",
            "received_power_w",
            "range_m",
        )

    def test_class_level_defaults_stay_readable(self):
        assert prop.TransmitterConfig.gain_db == 17.0
        assert prop.LinkGeometry.altitude_m == 150.0
        assert exp.ZoneThresholds.caution_fraction == exp.DEFAULT_CAUTION_FRACTION
