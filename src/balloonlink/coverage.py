"""Sizing of cells and layout of multi-platform constellations.

Inverts the Hata model for the cell radius that exhausts a path-loss
budget, lays platforms out on a hexagonal lattice and computes the exact
union coverage area of the resulting cells.
"""

from __future__ import annotations

import math

from .propagation import (
    HATA_FREQ_RANGE_MHZ,
    POSITIVE,
    Record,
    _finite,
    _require,
    hata_path_loss,
    hata_slope_db_per_decade,
)

# Largest constellation laid out. Layout and adjacency are linear in the
# count; the cap bounds the size of coverage.csv, one line per platform.
MAX_BALLOONS = 1000

# Hexagonal lattice spacing factor: disks of radius D centered sqrt(3)*D
# apart overlap minimally while leaving no gap.
HEX_SPACING_FACTOR = math.sqrt(3.0)

# Axial steps (q, r) between neighboring lattice sites, counterclockwise
# from +x. The first three are the forward half that linked_pairs follows.
_AXIAL_STEPS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class Constellation(Record):
    """Cells of one radius on distinct sites of a hexagonal lattice.

    A site is an axial coordinate (q, r) of integers; its center lies at
    x = spacing * (q + r/2), y = spacing * (sqrt(3)/2) * r, with spacing
    sqrt(3) times the radius. Adjacent sites are one spacing apart and any
    other two are at least 3 * radius apart, so only adjacent cells
    overlap; union_area_km2 is exact because of this.
    """

    radius_km: float
    sites: tuple[tuple[int, int], ...]

    _bounds = {"radius_km": POSITIVE}

    def __post_init__(self) -> None:
        if len(self.sites) < 1:
            raise ValueError("constellation needs at least one site")
        for site in self.sites:
            if type(site) is not tuple or tuple(map(type, site)) != (int, int):
                raise ValueError(f"site {site!r} is not a pair of int axial coordinates")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be distinct")

    @property
    def spacing_km(self) -> float:
        """Center-to-center distance of adjacent cells, sqrt(3) * radius_km."""
        return HEX_SPACING_FACTOR * self.radius_km

    def centers_km(self) -> tuple[tuple[float, float], ...]:
        """Centers (x, y) of the cells in km, in site order."""
        spacing = self.spacing_km
        row = spacing * math.sqrt(3.0) / 2.0
        return tuple((spacing * (q + r / 2), row * r) for q, r in self.sites)


def cell_radius_from_budget(
    freq_mhz: float,
    bs_antenna_height_m: float,
    rx_antenna_height_m: float,
    max_path_loss_db: float,
) -> float:
    """The cell radius D (km) at which the Hata path loss equals the budget.

    Closed-form inversion of hata_path_loss: log10(D) = (PL - fixed) / slope,
    where fixed is the path loss at D = 1 km (log10(1) = 0) and slope is
    hata_slope_db_per_decade(h_te). Round-trips with hata_path_loss to
    better than 1e-9 relative.
    """
    _require((), max_path_loss_db=max_path_loss_db)
    slope = hata_slope_db_per_decade(bs_antenna_height_m)
    if slope <= 0.0:
        raise ValueError(
            "path loss is not increasing in distance for "
            f"bs_antenna_height_m={bs_antenna_height_m:g}; cannot invert"
        )
    fixed = hata_path_loss(freq_mhz, bs_antenna_height_m, rx_antenna_height_m, 1.0)
    exponent = (max_path_loss_db - fixed) / slope
    try:
        radius = 10.0**exponent
    except OverflowError:
        radius = math.inf
    area = radius * radius
    if 0.0 < area < math.inf:
        return radius
    size, side = ("large", "beyond") if area == math.inf else ("small", "below")
    problem = f"max_path_loss_db={max_path_loss_db:g} is too {size}"
    lo, hi = HATA_FREQ_RANGE_MHZ
    if not lo <= freq_mhz <= hi:  # the frequency moved the radius as well
        problem += f" for freq_mhz={freq_mhz:g}, outside the Hata range [{lo:g}, {hi:g}] MHz"
    raise ValueError(
        f"{problem}: the cell radius, 10^{exponent:.6g} km, has an area {side} float range"
    )


def constellation_layout(num_balloons: int, radius_km: float) -> Constellation:
    """Place platforms ring by ring on a hexagonal lattice.

    The first cell sits at the origin; each following ring is filled
    counterclockwise starting from the +x axis. Deterministic: the same
    inputs always produce the same ordered sites. num_balloons is an
    integral count from 1 to MAX_BALLOONS.
    """
    _require(((">=", 1), ("<=", MAX_BALLOONS)), num_balloons=num_balloons)
    num_balloons = int(num_balloons)
    sites = [(0, 0)]
    ring = 1
    while len(sites) < num_balloons:
        for segment in range(6):
            corner_q, corner_r = _AXIAL_STEPS[segment]
            step_q, step_r = _AXIAL_STEPS[(segment + 2) % 6]
            for along in range(ring):
                sites.append(
                    (ring * corner_q + along * step_q, ring * corner_r + along * step_r)
                )
        ring += 1
    return Constellation(radius_km=radius_km, sites=tuple(sites[:num_balloons]))


def linked_pairs(constellation: Constellation) -> tuple[tuple[int, int], ...]:
    """Sorted index pairs (i, j), i < j, of adjacent cells.

    Adjacency is the inter-platform link topology; the radio or optical
    link itself is not modeled.
    """
    index = {site: i for i, site in enumerate(constellation.sites)}
    pairs = []
    for i, (q, r) in enumerate(constellation.sites):
        for step_q, step_r in _AXIAL_STEPS[:3]:
            j = index.get((q + step_q, r + step_r))
            if j is not None:
                pairs.append((i, j) if i < j else (j, i))
    return tuple(sorted(pairs))


def union_area_km2(constellation: Constellation) -> float:
    """Exact area covered by at least one cell.

    Adjacent cells, sqrt(3)*D apart, overlap in a lens of area
    D^2 * (pi/3 - sqrt(3)/2); cells further apart are at least 3*D apart
    and disjoint. Three mutually adjacent cells share only their
    circumcenter, so inclusion-exclusion stops at the pair term:
    N * pi * D^2 - E * lens, with E the number of linked pairs.
    """
    unit_lens = math.pi / 3.0 - math.sqrt(3.0) / 2.0
    unit_union = len(constellation.sites) * math.pi - len(linked_pairs(constellation)) * unit_lens
    radius = constellation.radius_km
    return _finite("union area", radius * radius * unit_union, radius_km=radius)


def replacement_count(balloon_radius_km: float, terrestrial_radius_km: float) -> int:
    """Terrestrial cells one platform cell replaces, by area ratio.

    ceil((D_balloon / D_terrestrial)^2), since a fractional tower cannot
    be deployed, and at least 1. A tiny slack absorbs float noise so exact
    integer ratios stay exact.
    """
    _require(POSITIVE, balloon_radius_km=balloon_radius_km, terrestrial_radius_km=terrestrial_radius_km)
    ratio = balloon_radius_km / terrestrial_radius_km
    inputs = {"balloon_radius_km": balloon_radius_km, "terrestrial_radius_km": terrestrial_radius_km}
    return max(1, math.ceil(_finite("area ratio", ratio * ratio, **inputs) - 1e-9))
