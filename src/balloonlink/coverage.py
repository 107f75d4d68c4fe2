"""Cell sizing and multi-platform constellation layout.

Inverts the Hata model for the cell radius that exhausts a path-loss
budget, lays platforms out on a hexagonal lattice and computes the exact
union coverage area of the resulting cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .propagation import hata_correction_small_city, hata_slope_db_per_decade

# Largest constellation laid out: the layout and the union area scan
# every pair of cells, so their time grows as the square of the count.
MAX_BALLOONS = 1000

# Hexagonal lattice spacing factor: disks of radius D centered sqrt(3)*D
# apart overlap minimally while leaving no gap.
HEX_SPACING_FACTOR = math.sqrt(3.0)

# Unit steps between neighboring lattice sites, counterclockwise from +x.
_HALF_SQRT3 = math.sqrt(3.0) / 2.0
_HEX_DIRECTIONS = (
    (1.0, 0.0),
    (0.5, _HALF_SQRT3),
    (-0.5, _HALF_SQRT3),
    (-1.0, 0.0),
    (-0.5, -_HALF_SQRT3),
    (0.5, -_HALF_SQRT3),
)


@dataclass(frozen=True)
class Cell:
    """A circular coverage cell on the plane, dimensions in km."""

    radius_km: float
    center_x_km: float = 0.0
    center_y_km: float = 0.0

    def __post_init__(self) -> None:
        if self.radius_km <= 0.0:
            raise ValueError("radius_km must be > 0")


@dataclass(frozen=True)
class Constellation:
    """Cells of one shared radius on a hexagonal lattice.

    spacing_km is the center-to-center distance of adjacent cells and is
    fixed at sqrt(3) times the cell radius. Every pair of centers is
    either one spacing apart or at least 2 * radius apart, so only
    adjacent cells overlap; union_area_km2 is exact because of this.
    """

    cells: tuple[Cell, ...]
    spacing_km: float

    def __post_init__(self) -> None:
        if len(self.cells) < 1:
            raise ValueError("constellation needs at least one cell")
        radius = self.cells[0].radius_km
        if any(cell.radius_km != radius for cell in self.cells):
            raise ValueError("all cells must share one radius_km")
        expected = HEX_SPACING_FACTOR * radius
        if not math.isclose(self.spacing_km, expected, rel_tol=1e-12):
            raise ValueError("spacing_km must equal sqrt(3) * radius_km")
        for _, _, distance in _pair_distances(self.cells):
            if distance < 2.0 * radius and not _is_spacing(distance, self.spacing_km):
                raise ValueError("cells closer than 2 * radius_km must be spacing_km apart")

    @property
    def radius_km(self) -> float:
        return self.cells[0].radius_km


def cell_radius_from_budget(
    freq_mhz: float,
    bs_antenna_height_m: float,
    rx_antenna_height_m: float,
    max_path_loss_db: float,
) -> float:
    """Cell radius D (km) at which the Hata path loss equals the budget.

    Closed-form inversion: log10(D) = (PL - fixed terms) / slope, with
    slope = 44.9 - 6.55*log10(h_te). Round-trips with hata_path_loss to
    better than 1e-9 relative.
    """
    if not math.isfinite(max_path_loss_db):
        raise ValueError("max_path_loss_db must be finite")
    if freq_mhz <= 0.0 or bs_antenna_height_m <= 0.0:
        raise ValueError("freq_mhz and bs_antenna_height_m must be > 0")
    slope = hata_slope_db_per_decade(bs_antenna_height_m)
    if slope <= 0.0:
        raise ValueError(
            "path loss is not increasing in distance for "
            f"bs_antenna_height_m={bs_antenna_height_m:g}; cannot invert"
        )
    fixed = (
        69.55
        + 26.16 * math.log10(freq_mhz)
        - 13.82 * math.log10(bs_antenna_height_m)
        - hata_correction_small_city(freq_mhz, rx_antenna_height_m)
    )
    exponent = (max_path_loss_db - fixed) / slope
    try:
        radius = 10.0**exponent
    except OverflowError:
        radius = math.inf
    if radius * radius == math.inf:
        raise ValueError(
            f"max_path_loss_db={max_path_loss_db:g} is too large: the cell radius, "
            f"10^{exponent:.6g} km, has an area beyond float range"
        )
    if radius * radius == 0.0:
        raise ValueError(
            f"max_path_loss_db={max_path_loss_db:g} is too small: the cell radius, "
            f"10^{exponent:.6g} km, has an area below float range"
        )
    return radius


def cell_area_km2(radius_km: float) -> float:
    """Area of one circular cell, pi * D^2."""
    if radius_km <= 0.0:
        raise ValueError("radius_km must be > 0")
    return math.pi * radius_km * radius_km


def constellation_layout(num_balloons: int, radius_km: float) -> Constellation:
    """Place platforms ring by ring on a hexagonal lattice.

    The first cell sits at the origin; each following ring is filled
    counterclockwise starting from the +x axis. Deterministic: the same
    inputs always produce the same ordered centers. At most MAX_BALLOONS.
    """
    if num_balloons < 1:
        raise ValueError("num_balloons must be >= 1")
    if num_balloons > MAX_BALLOONS:
        raise ValueError(f"num_balloons={num_balloons} is above the cap of {MAX_BALLOONS}")
    if radius_km <= 0.0:
        raise ValueError("radius_km must be > 0")
    spacing = HEX_SPACING_FACTOR * radius_km
    centers = [(0.0, 0.0)]
    ring = 1
    while len(centers) < num_balloons:
        for segment in range(6):
            corner_x = ring * spacing * _HEX_DIRECTIONS[segment][0]
            corner_y = ring * spacing * _HEX_DIRECTIONS[segment][1]
            step = _HEX_DIRECTIONS[(segment + 2) % 6]
            for along in range(ring):
                centers.append(
                    (
                        corner_x + along * spacing * step[0],
                        corner_y + along * spacing * step[1],
                    )
                )
        ring += 1
    cells = tuple(
        Cell(radius_km=radius_km, center_x_km=x, center_y_km=y)
        for x, y in centers[:num_balloons]
    )
    return Constellation(cells=cells, spacing_km=spacing)


def _pair_distances(cells: tuple[Cell, ...]):
    """Yield (i, j, center distance) for every index pair i < j."""
    for i, a in enumerate(cells):
        for j, b in enumerate(cells[i + 1 :], start=i + 1):
            yield i, j, math.hypot(a.center_x_km - b.center_x_km, a.center_y_km - b.center_y_km)


def _is_spacing(distance_km: float, spacing_km: float) -> bool:
    return math.isclose(distance_km, spacing_km, rel_tol=1e-9)


def linked_pairs(constellation: Constellation) -> tuple[tuple[int, int], ...]:
    """Index pairs of adjacent cells (centers one lattice spacing apart).

    Adjacency is the inter-platform link topology; the radio or optical
    link itself is not modeled.
    """
    return tuple(
        (i, j)
        for i, j, distance in _pair_distances(constellation.cells)
        if _is_spacing(distance, constellation.spacing_km)
    )


def union_area_km2(constellation: Constellation) -> float:
    """Exact area covered by at least one cell.

    Adjacent cells, sqrt(3)*D apart, overlap in a lens of area
    D^2 * (pi/3 - sqrt(3)/2); cells further apart are at least 2*D apart
    and disjoint. Three mutually adjacent cells share only their
    circumcenter, so inclusion-exclusion stops at the pair term:
    N * pi * D^2 - E * lens, with E the number of linked pairs.
    """
    unit_lens = math.pi / 3.0 - math.sqrt(3.0) / 2.0
    unit_union = len(constellation.cells) * math.pi - len(linked_pairs(constellation)) * unit_lens
    try:
        area = constellation.radius_km**2 * unit_union
    except OverflowError:
        area = math.inf
    if area == math.inf:
        raise ValueError(
            f"radius_km={constellation.radius_km:g} is too large: the union area is beyond float range"
        )
    return area


def replacement_count(balloon_radius_km: float, terrestrial_radius_km: float) -> int:
    """Terrestrial cells one platform cell replaces, by area ratio.

    ceil((D_balloon / D_terrestrial)^2), since a fractional tower cannot
    be deployed, and at least 1. A tiny slack absorbs float noise so exact
    integer ratios stay exact.
    """
    if not (balloon_radius_km > 0.0 and terrestrial_radius_km > 0.0):
        raise ValueError("radii must be > 0")
    try:
        ratio = (balloon_radius_km / terrestrial_radius_km) ** 2
    except OverflowError:
        ratio = math.inf
    if not ratio < math.inf:
        raise ValueError(
            f"balloon_radius_km={balloon_radius_km:g} over terrestrial_radius_km="
            f"{terrestrial_radius_km:g} is too large: the area ratio is beyond float range"
        )
    return max(1, math.ceil(ratio - 1e-9))
