"""Annual CO2 accounting for base-station power sources.

Parametric comparison of a diesel- or grid-powered terrestrial fleet
against a solar platform covering the same area. All default parameter
values are engineering assumptions, not measured quantities; they are
surfaced in output so nobody mistakes them for ground truth.
"""

from .coverage import replacement_count
from .propagation import NON_NEGATIVE, POSITIVE, Record, _finite, _require

HOURS_PER_YEAR = 8760.0

# Assumed per-station consumption and emission factors, config-overridable.
DEFAULT_DIESEL_LITERS_PER_HOUR = 2.0
DEFAULT_DIESEL_KG_CO2_PER_LITER = 2.68
DEFAULT_GRID_KG_CO2_PER_KWH = 0.82


# The source kinds, by the names they print, and the fields of a profile that
# one station's emissions multiply, per kind, each with its unit: a
# consumption per hour and an emission factor. A kind with none emits nothing.
_EMISSION_FIELDS = {
    "DIESEL": (
        ("fuel_liters_per_hour", "L/h"),
        ("emission_factor_kg_per_liter", "kg CO2/L"),
    ),
    "SOLAR": (),
    "GRID": (("grid_kwh_per_hour", "kWh/h"), ("grid_emission_kg_per_kwh", "kg CO2/kWh")),
}


class PowerSourceProfile(Record):
    """How one base station is powered and what it emits.

    source_kind is "DIESEL", "SOLAR" or "GRID". A profile may set only the
    emission fields its source kind consumes; every other one must be 0, so
    a SOLAR profile has all of them at 0.
    """

    source_kind: str
    fuel_liters_per_hour: float = 0.0
    emission_factor_kg_per_liter: float = 0.0
    grid_kwh_per_hour: float = 0.0
    grid_emission_kg_per_kwh: float = 0.0

    # the emission-bearing fields
    _bounds = {
        "fuel_liters_per_hour": NON_NEGATIVE,
        "emission_factor_kg_per_liter": NON_NEGATIVE,
        "grid_kwh_per_hour": NON_NEGATIVE,
        "grid_emission_kg_per_kwh": NON_NEGATIVE,
    }

    def __post_init__(self) -> None:
        if not (isinstance(self.source_kind, str) and self.source_kind in _EMISSION_FIELDS):
            raise ValueError(f"source_kind must be one of {', '.join(_EMISSION_FIELDS)}")
        consumed = [key for key, _ in _EMISSION_FIELDS[self.source_kind]]
        for key in self._bounds:  # in field order, so the first one set is named
            if key not in consumed and getattr(self, key):
                raise ValueError(f"a {self.source_kind} profile must have {key} at 0")

    def summary(self) -> str:
        """The kind and the fields it consumes, as green.csv and the CLI help print them."""
        fields = _EMISSION_FIELDS[self.source_kind]
        if not fields:
            return f"{self.source_kind} (zero emission)"
        rate, factor = (f"{getattr(self, key):g} {unit}" for key, unit in fields)
        return f"{self.source_kind} {rate} at {factor}"


def diesel_profile(
    liters_per_hour: float = DEFAULT_DIESEL_LITERS_PER_HOUR,
    kg_co2_per_liter: float = DEFAULT_DIESEL_KG_CO2_PER_LITER,
) -> PowerSourceProfile:
    return PowerSourceProfile(
        source_kind="DIESEL",
        fuel_liters_per_hour=liters_per_hour,
        emission_factor_kg_per_liter=kg_co2_per_liter,
    )


def solar_profile() -> PowerSourceProfile:
    return PowerSourceProfile(source_kind="SOLAR")


def grid_profile(
    kwh_per_hour: float,
    kg_co2_per_kwh: float = DEFAULT_GRID_KG_CO2_PER_KWH,
) -> PowerSourceProfile:
    return PowerSourceProfile(
        source_kind="GRID",
        grid_kwh_per_hour=kwh_per_hour,
        grid_emission_kg_per_kwh=kg_co2_per_kwh,
    )


class GreenComparison(Record):
    """Annual CO2 of a terrestrial fleet vs one platform, in metric tonnes."""

    terrestrial_annual_tons: float
    balloon_annual_tons: float
    avoided_tons: float
    replaced_bs_count: int

    # avoided_tons is negative when the platform emits more than the fleet
    _bounds = {
        "terrestrial_annual_tons": NON_NEGATIVE,
        "balloon_annual_tons": NON_NEGATIVE,
        "avoided_tons": (),
    }


def _emission_inputs(profile: PowerSourceProfile, hours_per_year: float) -> dict:
    """The factors of one emitting station's annual kg CO2, by name, in the order multiplied."""
    (rate, _), (factor, _) = _EMISSION_FIELDS[profile.source_kind]
    return {
        rate: getattr(profile, rate),
        "hours_per_year": hours_per_year,
        factor: getattr(profile, factor),
    }


def annual_emissions_tons(
    profile: PowerSourceProfile, hours_per_year: float = HOURS_PER_YEAR
) -> float:
    """Annual CO2 output of one station, in metric tonnes."""
    _require(POSITIVE, hours_per_year=hours_per_year)
    if not _EMISSION_FIELDS[profile.source_kind]:
        return 0.0
    inputs = _emission_inputs(profile, hours_per_year)
    rate, hours, factor = inputs.values()
    # an overflowed product times a zero is NaN, which _finite refuses too
    return _finite("annual emissions", rate * hours * factor, **inputs) / 1000.0


def compare(
    terrestrial_profile: PowerSourceProfile,
    balloon_profile: PowerSourceProfile,
    balloon_radius_km: float,
    terrestrial_radius_km: float,
    hours_per_year: float = HOURS_PER_YEAR,
) -> GreenComparison:
    """Fleet-vs-platform annual CO2 for equal covered area.

    The terrestrial side is scaled by how many terrestrial cells one
    platform cell replaces (area ratio, rounded up).
    """
    replaced = replacement_count(balloon_radius_km, terrestrial_radius_km)
    station = annual_emissions_tons(terrestrial_profile, hours_per_year)
    # a finite station's emissions times a huge count; one that emits nothing cannot overflow
    terrestrial = _finite(
        "terrestrial annual emissions",
        replaced * station,
        balloon_radius_km=balloon_radius_km,
        terrestrial_radius_km=terrestrial_radius_km,
        **(_emission_inputs(terrestrial_profile, hours_per_year) if station else {}),
    )
    balloon = annual_emissions_tons(balloon_profile, hours_per_year)
    return GreenComparison(
        terrestrial_annual_tons=terrestrial,
        balloon_annual_tons=balloon,
        avoided_tons=terrestrial - balloon,
        replaced_bs_count=replaced,
    )
