"""Unit tests for the CO2 accounting model."""

import pytest

from balloonlink import emissions as em


class TestProfiles:
    def test_solar_must_be_zero_emission(self):
        with pytest.raises(ValueError):
            em.PowerSourceProfile(
                source_kind="SOLAR", fuel_liters_per_hour=1.0
            )

    @pytest.mark.parametrize(
        "kind, fields, field",
        [
            ("SOLAR", dict(grid_emission_kg_per_kwh=0.5), "grid_emission_kg_per_kwh"),
            ("GRID", dict(fuel_liters_per_hour=5.0), "fuel_liters_per_hour"),
            ("DIESEL", dict(fuel_liters_per_hour=2.0, grid_kwh_per_hour=1.0), "grid_kwh_per_hour"),
        ],
        ids=["solar", "grid-with-fuel", "diesel-with-grid"],
    )
    def test_a_profile_sets_only_its_kinds_fields(self, kind, fields, field):
        with pytest.raises(ValueError, match=f"^a {kind} profile must have {field} at 0$"):
            em.PowerSourceProfile(kind, **fields)

    @pytest.mark.parametrize("kind", ["COAL", "diesel", "", None, 1, ["DIESEL"]])
    def test_an_unknown_kind_is_a_value_error_naming_the_kinds(self, kind):
        with pytest.raises(ValueError, match="^source_kind must be one of DIESEL, SOLAR, GRID$"):
            em.PowerSourceProfile(kind)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            em.PowerSourceProfile(
                source_kind="DIESEL", fuel_liters_per_hour=-1.0
            )

    def test_helpers_apply_defaults(self):
        diesel = em.diesel_profile()
        assert diesel.fuel_liters_per_hour == 2.0
        assert diesel.emission_factor_kg_per_liter == 2.68
        assert em.solar_profile().source_kind == "SOLAR"
        assert em.grid_profile(1.5).grid_emission_kg_per_kwh == 0.82

    @pytest.mark.parametrize(
        "profile, summary",
        [
            (em.diesel_profile(), "DIESEL 2 L/h at 2.68 kg CO2/L"),
            (em.grid_profile(1.5), "GRID 1.5 kWh/h at 0.82 kg CO2/kWh"),
            (em.solar_profile(), "SOLAR (zero emission)"),
        ],
        ids=["diesel", "grid", "solar"],
    )
    def test_summary_names_each_consumed_field_with_its_unit(self, profile, summary):
        assert profile.summary() == summary


class TestAnnualEmissions:
    def test_solar_is_exactly_zero(self):
        assert em.annual_emissions_tons(em.solar_profile(), 8760.0) == 0.0
        assert em.annual_emissions_tons(em.solar_profile(), 1.0) == 0.0

    def test_diesel_hand_oracle(self):
        # 2.0 L/h * 8760 h * 2.68 kg/L / 1000 = 46.9536 t
        expected = 2.0 * 8760.0 * 2.68 / 1000.0
        value = em.annual_emissions_tons(em.diesel_profile(), 8760.0)
        assert abs(value - expected) / expected < 1e-12

    def test_diesel_linear_in_consumption(self):
        half = em.annual_emissions_tons(em.diesel_profile(liters_per_hour=1.0), 8760.0)
        full = em.annual_emissions_tons(em.diesel_profile(liters_per_hour=2.0), 8760.0)
        assert full == pytest.approx(2.0 * half, rel=1e-12)
        assert half == pytest.approx(23.4768, rel=1e-12)

    def test_grid_oracle(self):
        # 1.5 kWh/h * 8760 h * 0.82 kg/kWh / 1000 = 10.7748 t
        value = em.annual_emissions_tons(em.grid_profile(1.5), 8760.0)
        assert value == pytest.approx(10.7748, rel=1e-12)

    def test_rejects_non_positive_hours(self):
        with pytest.raises(ValueError):
            em.annual_emissions_tons(em.diesel_profile(), 0.0)


class TestCompare:
    def test_diesel_fleet_vs_solar_platform(self):
        result = em.compare(em.diesel_profile(), em.solar_profile(), 10.0, 1.0, 8760.0)
        assert result.replaced_bs_count == 100
        assert result.terrestrial_annual_tons == pytest.approx(4695.36, rel=1e-12)
        assert result.balloon_annual_tons == 0.0
        assert result.avoided_tons == pytest.approx(4695.36, rel=1e-12)

    def test_identical_scenarios_avoid_nothing(self):
        diesel = em.diesel_profile()
        result = em.compare(diesel, diesel, 5.0, 5.0, 8760.0)
        assert result.replaced_bs_count == 1
        assert result.avoided_tons == 0.0

    def test_solar_vs_solar_all_zero(self):
        result = em.compare(em.solar_profile(), em.solar_profile(), 10.0, 1.0)
        assert result.terrestrial_annual_tons == 0.0
        assert result.balloon_annual_tons == 0.0
        assert result.avoided_tons == 0.0
        assert result.replaced_bs_count == 100

    def test_avoided_linear_in_replaced_count(self):
        # doubling the area ratio doubles replaced count and avoided mass
        small = em.compare(em.diesel_profile(), em.solar_profile(), 10.0, 1.0)
        large = em.compare(em.diesel_profile(), em.solar_profile(), 20.0, 1.0)
        assert large.replaced_bs_count == 4 * small.replaced_bs_count
        assert large.avoided_tons == pytest.approx(4.0 * small.avoided_tons, rel=1e-12)

    def test_monotone_in_balloon_radius(self):
        avoided = [
            em.compare(em.diesel_profile(), em.solar_profile(), r, 1.0).avoided_tons
            for r in (1.0, 2.0, 5.0, 10.0, 13.7)
        ]
        assert all(b >= a for a, b in zip(avoided, avoided[1:]))

    def test_invariant_balance(self):
        result = em.compare(em.diesel_profile(), em.grid_profile(1.5), 10.0, 1.0)
        assert result.avoided_tons == pytest.approx(
            result.terrestrial_annual_tons - result.balloon_annual_tons, rel=1e-15
        )
