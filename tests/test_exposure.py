"""Unit tests for exposure tables, sweep profiles and zone classification."""

import math
import re

import pytest

from balloonlink import exposure as exp
from balloonlink.propagation import (
    TransmitterConfig,
    power_density,
    received_power,
    slant_range,
)

TX = TransmitterConfig(power_w=20.0, gain_db=17.0, freq_mhz=900.0, gain_linear=50.0)


class TestTableOne:
    def test_reference_distances(self):
        rows = exp.table_one(TX, [10.0, 100.0, 500.0])
        assert [r for r, _ in rows] == [10.0, 100.0, 500.0]
        densities = [d for _, d in rows]
        assert densities[0] == pytest.approx(0.7957747154594766, rel=1e-12)
        assert densities[1] == pytest.approx(7.957747154594767e-3, rel=1e-12)
        assert densities[2] == pytest.approx(3.183098861837907e-4, rel=1e-12)
        # the reference figures are these values at 3 decimal places
        # (6 for the smallest)
        assert round(densities[0], 3) == 0.796
        assert round(densities[1], 3) == 0.008
        assert round(densities[2], 6) == 0.000318

    def test_single_row(self):
        rows = exp.table_one(TX, [10.0])
        assert len(rows) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exp.table_one(TX, [])

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            exp.table_one(TX, [10.0, 0.0])


class TestGroundDensityProfile:
    def test_peak_at_150m_altitude(self):
        series = exp.ground_density_profile(TX, 150.0, 25.0)
        assert series.points[0][0] == 0.0
        assert series.points[0][1] == pytest.approx(3.5367765131532297e-3, rel=1e-12)
        assert max(series.values) == series.points[0][1]

    def test_peak_at_200m_altitude(self):
        series = exp.ground_density_profile(TX, 200.0, 25.0)
        assert series.points[0][1] == pytest.approx(1.9894367886486917e-3, rel=1e-12)

    def test_endpoint_matches_direct_evaluation(self):
        series = exp.ground_density_profile(TX, 150.0, 25.0)
        last_offset, last_value = series.points[-1]
        assert last_offset == 25.0
        assert last_value == power_density(20.0, 50.0, slant_range(150.0, 25.0))

    def test_strictly_decreasing_in_offset(self):
        values = exp.ground_density_profile(TX, 150.0, 25.0).values
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_zero_altitude_rejected(self):
        with pytest.raises(ValueError):
            exp.ground_density_profile(TX, 0.0, 25.0)

    def test_zero_offset_window_rejected(self):
        with pytest.raises(ValueError, match="^offset_max_m must be > 0$"):
            exp.ground_density_profile(TX, 150.0, 0.0)

    def test_step_count(self):
        series = exp.ground_density_profile(TX, 150.0, 25.0, num_steps=11)
        assert len(series.points) == 11


class TestAltitudeDensityProfile:
    def test_inverse_square_between_endpoints(self):
        series = exp.altitude_density_profile(TX, 200.0, 400.0, 0.0)
        first = series.points[0]
        last = series.points[-1]
        assert first[0] == 200.0 and last[0] == 400.0
        assert last[1] == pytest.approx(first[1] / 4.0, rel=1e-13)

    def test_start_matches_fig5_peak(self):
        series = exp.altitude_density_profile(TX, 200.0, 400.0, 0.0)
        assert series.points[0][1] == pytest.approx(1.9894367886486917e-3, rel=1e-12)

    def test_strictly_decreasing(self):
        values = exp.altitude_density_profile(TX, 200.0, 400.0, 0.0).values
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            exp.altitude_density_profile(TX, 400.0, 200.0, 0.0)
        with pytest.raises(ValueError):
            exp.altitude_density_profile(TX, 0.0, 400.0, 0.0)


class TestRangeDensityProfile:
    def test_matches_single_point_calls(self):
        series = exp.range_density_profile(TX, 10.0, 500.0, num_steps=5)
        for r, value in series.points:
            assert value == power_density(20.0, 50.0, r)

    def test_strictly_decreasing(self):
        values = exp.range_density_profile(TX, 10.0, 500.0).values
        assert all(b < a for a, b in zip(values, values[1:]))


class TestReceivedPowerProfile:
    def test_reference_value(self):
        series = exp.received_power_profile(TX, 0.0, 500.0, 1000.0, 0.0, num_steps=3)
        assert series.points[-1][0] == 1000.0
        assert series.points[-1][1] == pytest.approx(7.026461305115372e-7, rel=1e-12)

    def test_inverse_square_between_200_and_400(self):
        series = exp.received_power_profile(TX, 0.0, 200.0, 400.0, 0.0)
        assert series.points[-1][1] == pytest.approx(series.points[0][1] / 4.0, rel=1e-13)

    def test_rx_gain_doubling_doubles_values(self):
        base = exp.received_power_profile(TX, 0.0, 200.0, 400.0, 0.0, num_steps=7)
        doubled = exp.received_power_profile(
            TX, 10.0 * math.log10(2.0), 200.0, 400.0, 0.0, num_steps=7
        )
        for (_, b), (_, d) in zip(base.points, doubled.points):
            assert d == pytest.approx(2.0 * b, rel=1e-12)

    def test_strictly_decreasing(self):
        values = exp.received_power_profile(TX, 0.0, 200.0, 400.0, 0.0).values
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_zero_power_receives_zero_where_the_aperture_overflows(self):
        # lambda^2 at 1e-200 MHz is beyond float range, but 0 W receives 0 W
        tx = TransmitterConfig(0.0, freq_mhz=1e-200)
        series = exp.received_power_profile(tx, 0.0, 200.0, 400.0, 0.0, num_steps=5)
        gain = tx.linear_gain()
        assert series.values == tuple(received_power(0.0, gain, 1.0, 1e-200, a) for a in series.abscissas)
        assert series.values == (0.0,) * 5


def _received_power_profile(tx, *axis):
    return exp.received_power_profile(tx, 0.0, *axis)


class TestSweepArguments:
    @pytest.mark.parametrize(
        "profile, args, message",
        [
            (exp.ground_density_profile, (150.0, 25.0, 1), "num_steps must be an integer >= 2"),
            (exp.altitude_density_profile, (200.0, 400.0, 0.0, 1), "num_steps must be an integer >= 2"),
            (exp.range_density_profile, (10.0, 500.0, -3), "num_steps must be an integer >= 2"),
            (_received_power_profile, (200.0, 400.0, 0.0, 1), "num_steps must be an integer >= 2"),
            (exp.ground_density_profile, (150.0, -1.0), "offset_max_m must be > 0"),
            (exp.altitude_density_profile, (200.0, 400.0, -1.0), "ground_offset_m must be >= 0"),
            (_received_power_profile, (200.0, 400.0, -1.0), "ground_offset_m must be >= 0"),
            # the geometry is checked before the axis
            (exp.altitude_density_profile, (400.0, 200.0, -1.0), "ground_offset_m must be >= 0"),
            (_received_power_profile, (400.0, 200.0, -1.0), "ground_offset_m must be >= 0"),
        ],
        ids=[
            "ground-steps",
            "altitude-steps",
            "range-steps",
            "received-steps",
            "ground-offset",
            "altitude-offset",
            "received-offset",
            "altitude-offset-before-axis",
            "received-offset-before-axis",
        ],
    )
    def test_rejected(self, profile, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            profile(TX, *args)

    # each profile checks and samples its axis before it reads the
    # transmitter, so a call wrong in both names the same argument in each
    @pytest.mark.parametrize(
        "profile, args",
        [
            (exp.ground_density_profile, (150.0, 25.0, 2.5)),
            (exp.altitude_density_profile, (200.0, 400.0, 0.0, 2.5)),
            (exp.range_density_profile, (10.0, 500.0, 2.5)),
            (_received_power_profile, (200.0, 400.0, 0.0, 2.5)),
            (lambda tx, *axis: exp.received_power_profile(tx, 5000.0, *axis), (200.0, 400.0, 0.0, 2.5)),
        ],
        ids=["ground", "altitude", "range", "received", "received-rx-gain"],
    )
    def test_axis_is_checked_before_the_transmitter(self, profile, args):
        with pytest.raises(ValueError, match="^num_steps must be an integer >= 2$"):
            profile(TransmitterConfig(20.0, gain_db=1e308), *args)


class TestSweepSeriesInvariants:
    def test_non_increasing_abscissas_rejected(self):
        with pytest.raises(ValueError):
            exp.SweepSeries(label="x", abscissa_name="r", abscissas=(0.0, 0.0), values=(1.0, 0.5))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            exp.SweepSeries(label="x", abscissa_name="r", abscissas=(0.0,), values=(-1.0,))

    @pytest.mark.parametrize(
        "abscissas, values",
        [
            ((0.0,), (math.nan,)),
            ((math.nan, 0.0), (1.0, 1.0)),
            ((0.0,), (math.inf,)),
            ((-math.inf, 0.0), (1.0, 1.0)),
            ((0.0, math.inf), (1.0, 1.0)),
        ],
        ids=["nan-value", "nan-abscissa", "inf-value", "-inf-first-abscissa", "inf-last-abscissa"],
    )
    def test_non_finite_points_rejected(self, abscissas, values):
        with pytest.raises(ValueError, match="^x: point"):
            exp.SweepSeries("x", "r", abscissas, values)

    @pytest.mark.parametrize(
        "x, y",
        [(5000.0, math.nan), (5000.0, math.inf), (5000.0, -1.0), (4999.0, 1.0)],
        ids=["nan-value", "inf-value", "negative-value", "repeated-abscissa"],
    )
    def test_bad_point_in_a_long_column_is_named(self, x, y):
        xs, ys = [float(i) for i in range(10001)], [1.0] * 10001
        xs[5000], ys[5000] = x, y
        message = f"x: point {(x, y)} is out of order, not finite or < 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exp.SweepSeries("x", "r", tuple(xs), tuple(ys))

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="^x: 2 abscissas but 1 values$"):
            exp.SweepSeries("x", "r", (0.0, 1.0), (1.0,))

    def test_a_series_has_a_point(self):
        with pytest.raises(ValueError, match="^x: no points$"):
            exp.SweepSeries("x", "r", (), ())
        with pytest.raises(TypeError, match="missing the arguments"):
            exp.SweepSeries("x", "r")

    def test_points_pair_the_columns(self):
        series = exp.ground_density_profile(TX, 150.0, 25.0, num_steps=11)
        assert len(series.points) == 11
        assert series.points == tuple(zip(series.abscissas, series.values))
        with pytest.raises(AttributeError):
            series.points = ()

    def test_profiles_over_one_axis_share_its_samples(self):
        fig4 = exp.ground_density_profile(TX, 150.0, 25.0)
        fig5 = exp.ground_density_profile(TX, 200.0, 25.0)
        assert fig4.abscissas is fig5.abscissas

    def test_sampled_axis_is_float_whatever_the_argument_types(self):
        assert exp._sample_axis(1.0, 2.0, 3) == (1.0, 1.5, 2.0)
        samples = exp._sample_axis(1, 2, 3)
        assert samples == (1.0, 1.5, 2.0)
        assert all(type(x) is float for x in samples)


class TestZones:
    THRESHOLDS = exp.ZoneThresholds(limit_w_m2=4.5, caution_fraction=0.1)

    def test_reference_classifications(self):
        assert exp.classify_zone(5.0, self.THRESHOLDS) is exp.ExposureZone.EXCEEDS_LIMIT
        assert exp.classify_zone(0.796, self.THRESHOLDS) is exp.ExposureZone.CAUTION
        assert exp.classify_zone(0.0, self.THRESHOLDS) is exp.ExposureZone.SAFE

    def test_boundaries_are_inclusive_upward(self):
        assert exp.classify_zone(4.5, self.THRESHOLDS) is exp.ExposureZone.EXCEEDS_LIMIT
        assert exp.classify_zone(0.45, self.THRESHOLDS) is exp.ExposureZone.CAUTION

    def test_monotone_in_density(self):
        densities = [0.0, 0.1, 0.45, 1.0, 4.5, 10.0]
        zones = [exp.classify_zone(d, self.THRESHOLDS) for d in densities]
        assert all(b >= a for a, b in zip(zones, zones[1:]))

    def test_zone_ordering(self):
        assert exp.ExposureZone.EXCEEDS_LIMIT > exp.ExposureZone.CAUTION > exp.ExposureZone.SAFE

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            exp.classify_zone(-0.1, self.THRESHOLDS)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            exp.ZoneThresholds(limit_w_m2=0.0)
        with pytest.raises(ValueError):
            exp.ZoneThresholds(limit_w_m2=4.5, caution_fraction=1.0)

    def test_default_thresholds_follow_band_law(self):
        assert exp.default_thresholds(900.0).limit_w_m2 == pytest.approx(4.5)
        assert exp.default_thresholds(400.0).limit_w_m2 == pytest.approx(2.0)
        assert exp.default_thresholds(2000.0).limit_w_m2 == pytest.approx(10.0)
        # plateaus outside the band
        assert exp.default_thresholds(100.0).limit_w_m2 == pytest.approx(2.0)
        assert exp.default_thresholds(5800.0).limit_w_m2 == pytest.approx(10.0)


class TestElevationBenefit:
    def test_platform_density_far_below_terrestrial(self):
        # same EIRP: 10 m terrestrial distance vs 150 m platform altitude
        terrestrial = power_density(20.0, 50.0, 10.0)
        platform = exp.ground_density_profile(TX, 150.0, 25.0).points[0][1]
        assert terrestrial / platform > 100.0
