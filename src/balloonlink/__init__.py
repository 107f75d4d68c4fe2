"""Link-budget, exposure and coverage planning for balloon base stations."""

__version__ = "0.1.0"

from .coverage import (
    Constellation,
    cell_radius_from_budget,
    constellation_layout,
    linked_pairs,
    replacement_count,
    union_area_km2,
)
from .emissions import (
    GreenComparison,
    PowerSourceProfile,
    SourceKind,
    annual_emissions_tons,
    compare,
    diesel_profile,
    grid_profile,
    solar_profile,
)
from .exposure import (
    ExposureZone,
    SweepSeries,
    ZoneThresholds,
    altitude_density_profile,
    classify_zone,
    default_thresholds,
    ground_density_profile,
    range_density_profile,
    received_power_profile,
    table_one,
)
from .propagation import (
    LinkBudgetResult,
    LinkGeometry,
    TransmitterConfig,
    db_to_linear,
    e_field_rms,
    hata_correction_small_city,
    hata_path_loss,
    hata_validity_warnings,
    link_budget,
    near_field_distance,
    power_density,
    received_power,
    slant_range,
    wavelength_m,
)
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    default_scenario_path,
    load_scenario,
)
