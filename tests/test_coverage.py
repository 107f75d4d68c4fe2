"""Unit tests for cell sizing and constellation layout."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from balloonlink import coverage as cov
from balloonlink.propagation import hata_path_loss, hata_slope_db_per_decade


def _lens_area(radius, distance):
    """Area shared by two disks of one radius whose centers are distance apart."""
    half_angle = math.acos(distance / (2.0 * radius))
    return 2.0 * radius**2 * half_angle - 0.5 * distance * math.sqrt(4.0 * radius**2 - distance**2)


def _exact_union_area(centers, radius):
    """Area covered by at least one of the disks, by Green's theorem.

    The union's boundary is made of the arcs of each circle that no other
    disk covers; a hole's boundary is such arcs too, and runs clockwise
    around the hole. A disk whose center lies d < 2R away at bearing phi
    covers the bearings phi +- acos(d / 2R) of the circle. Over an uncovered
    arc from bearing a to b of the circle about (cx, cy), (x dy - y dx) / 2
    integrates to [R^2 (b - a) + R (cx (sin b - sin a) - cy (cos b - cos a))] / 2.
    Any placement of distinct centers works, not only lattice sites.
    """
    two_pi = 2.0 * math.pi
    area = 0.0
    for i, (cx, cy) in enumerate(centers):
        covered = []
        for j, (ox, oy) in enumerate(centers):
            distance = math.hypot(ox - cx, oy - cy)
            if j != i and distance < 2.0 * radius:
                half = math.acos(distance / (2.0 * radius))
                start = (math.atan2(oy - cy, ox - cx) - half) % two_pi
                end = start + 2.0 * half
                if end > two_pi:  # split at bearing 0
                    covered += [(start, two_pi), (0.0, end - two_pi)]
                else:
                    covered.append((start, end))
        # bearings below reach are covered or summed; the sentinel ends the last gap at 2*pi
        reach = 0.0
        for start, end in [*sorted(covered), (two_pi, two_pi)]:
            if start > reach:
                a, b = reach, start
                area += 0.5 * (
                    radius * radius * (b - a)
                    + radius * (cx * (math.sin(b) - math.sin(a)) - cy * (math.cos(b) - math.cos(a)))
                )
            reach = max(reach, end)
    return area


def _reference_linked_pairs(constellation):
    """Adjacency from float center distances: every pair one spacing apart."""
    centers = constellation.centers_km()
    return tuple(
        (i, j)
        for i, (ax, ay) in enumerate(centers)
        for j, (bx, by) in enumerate(centers[i + 1 :], start=i + 1)
        if math.isclose(math.hypot(ax - bx, ay - by), constellation.spacing_km, rel_tol=1e-9)
    )


class TestCellRadiusFromBudget:
    def test_round_trips_reference_losses(self):
        # inverse of the 115.017 / 144.845 dB reference evaluations
        assert cov.cell_radius_from_budget(900.0, 200.0, 1.5, 144.8451212094079) == pytest.approx(
            10.0, rel=1e-9
        )
        assert cov.cell_radius_from_budget(900.0, 200.0, 1.5, 115.01686768100697) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_one_decade_per_slope_db(self):
        slope = 44.9 - 6.55 * math.log10(200.0)
        base = cov.cell_radius_from_budget(900.0, 200.0, 1.5, 130.0)
        ten_x = cov.cell_radius_from_budget(900.0, 200.0, 1.5, 130.0 + slope)
        assert ten_x == pytest.approx(10.0 * base, rel=1e-9)

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            f = rng.uniform(150.0, 1500.0)
            hte = rng.uniform(30.0, 440.0)
            hre = rng.uniform(1.0, 10.0)
            d = rng.uniform(1.0, 20.0)
            loss = hata_path_loss(f, hte, hre, d)
            back = cov.cell_radius_from_budget(f, hte, hre, loss)
            assert abs(back - d) / d < 1e-9

    def test_loss_at_one_km_inverts_to_exactly_one_km(self):
        # the inverse takes its fixed terms from the forward model at D = 1 km
        rng = random.Random(29)
        for _ in range(2000):
            f = 10.0 ** rng.uniform(0.0, 4.0)
            hte = 10.0 ** rng.uniform(-1.0, 3.0)
            hre = 10.0 ** rng.uniform(-1.0, 2.0)
            assert cov.cell_radius_from_budget(f, hte, hre, hata_path_loss(f, hte, hre, 1.0)) == 1.0

    def test_strictly_increasing_in_budget(self):
        radii = [
            cov.cell_radius_from_budget(900.0, 200.0, 1.5, loss)
            for loss in (110.0, 120.0, 130.0, 140.0)
        ]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_non_invertible_height_rejected(self):
        # slope 44.9 - 6.55*log10(h_te) turns negative above ~7.16e6 m
        with pytest.raises(ValueError):
            cov.cell_radius_from_budget(900.0, 1e8, 1.5, 140.0)

    def test_zero_slope_height_rejected(self):
        # the slope is exactly 0.0 at some float next to 10**(44.9/6.55);
        # search 64 either side, so another libm's log10 finds one too
        height = 10.0 ** (44.9 / 6.55)
        for _ in range(64):
            height = math.nextafter(height, 0.0)
        for _ in range(129):
            if hata_slope_db_per_decade(height) == 0.0:
                break
            height = math.nextafter(height, math.inf)
        else:
            pytest.fail("no height with a slope of exactly 0.0 near 10**(44.9/6.55)")
        with pytest.raises(ValueError, match="path loss is not increasing in distance"):
            cov.cell_radius_from_budget(900.0, height, 1.5, 140.0)

    @pytest.mark.parametrize("freq_mhz, size", [(1e303, "small"), (2e-323, "large")])
    def test_budget_error_names_a_frequency_outside_hata_range(self, freq_mhz, size):
        problem = (
            f"max_path_loss_db=140 is too {size} for freq_mhz={freq_mhz:g}, "
            "outside the Hata range [150, 1500] MHz: "
        )
        with pytest.raises(ValueError, match=re.escape(problem)):
            cov.cell_radius_from_budget(freq_mhz, 200.0, 1.5, 140.0)

    def test_budget_error_names_no_frequency_inside_hata_range(self):
        with pytest.raises(ValueError, match=r"^max_path_loss_db=-1e\+06 is too small: "):
            cov.cell_radius_from_budget(900.0, 200.0, 1.5, -1e6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cov.cell_radius_from_budget(0.0, 200.0, 1.5, 140.0)
        with pytest.raises(ValueError):
            cov.cell_radius_from_budget(900.0, 200.0, 1.5, math.nan)


class TestConstellationLayout:
    def test_single_cell_at_origin(self):
        constellation = cov.constellation_layout(1, 5.0)
        assert constellation.sites == ((0, 0),)
        assert constellation.centers_km() == ((0.0, 0.0),)
        assert constellation.spacing_km == pytest.approx(math.sqrt(3.0) * 5.0, rel=1e-12)

    def test_second_cell_on_positive_x(self):
        constellation = cov.constellation_layout(2, 1.0)
        second_x, second_y = constellation.centers_km()[1]
        assert second_x == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert second_y == 0.0

    def test_seven_cells_form_one_ring(self):
        constellation = cov.constellation_layout(7, 1.0)
        spacing = constellation.spacing_km
        for x, y in constellation.centers_km()[1:]:
            assert math.hypot(x, y) == pytest.approx(spacing, rel=1e-12)

    def test_first_ring_is_counterclockwise_from_x_axis(self):
        constellation = cov.constellation_layout(7, 1.0)
        angles = [math.atan2(y, x) % (2.0 * math.pi) for x, y in constellation.centers_km()[1:]]
        expected = [k * math.pi / 3.0 for k in range(6)]
        assert angles == pytest.approx(expected, abs=1e-12)

    def test_pairwise_spacing_lower_bound(self):
        constellation = cov.constellation_layout(19, 2.5)
        centers = constellation.centers_km()
        for i, (ax, ay) in enumerate(centers):
            for bx, by in centers[i + 1 :]:
                distance = math.hypot(ax - bx, ay - by)
                assert distance >= constellation.spacing_km - 1e-9

    def test_deterministic(self):
        first = cov.constellation_layout(12, 3.0)
        second = cov.constellation_layout(12, 3.0)
        assert first == second

    def test_rejects_more_than_the_cap(self):
        with pytest.raises(ValueError, match="num_balloons"):
            cov.constellation_layout(cov.MAX_BALLOONS + 1, 1.0)

    def test_rejects_zero_balloons(self):
        with pytest.raises(ValueError):
            cov.constellation_layout(0, 1.0)
        with pytest.raises(ValueError):
            cov.constellation_layout(3, 0.0)


class TestLinkedPairs:
    def test_seven_cell_cluster_topology(self):
        constellation = cov.constellation_layout(7, 1.0)
        pairs = cov.linked_pairs(constellation)
        # center touches all six ring cells; the ring itself closes a 6-cycle
        assert len(pairs) == 12
        center_links = [p for p in pairs if 0 in p]
        assert len(center_links) == 6

    def test_single_cell_has_no_links(self):
        assert cov.linked_pairs(cov.constellation_layout(1, 1.0)) == ()

    @pytest.mark.parametrize("count", [*range(1, 128), 1000])
    def test_matches_float_distance_reference(self, count):
        constellation = cov.constellation_layout(count, 2.5)
        assert cov.linked_pairs(constellation) == _reference_linked_pairs(constellation)


class TestUnionArea:
    def test_single_disk_close_to_pi(self):
        constellation = cov.constellation_layout(1, 1.0)
        area = cov.union_area_km2(constellation)
        assert abs(area - math.pi) / math.pi < 0.01

    def test_repeated_calls_identical(self):
        constellation = cov.constellation_layout(7, 2.0)
        assert cov.union_area_km2(constellation) == cov.union_area_km2(constellation)

    def test_union_between_single_cell_and_disjoint_total(self):
        constellation = cov.constellation_layout(7, 2.0)
        area = cov.union_area_km2(constellation)
        single = math.pi * 2.0 * 2.0
        assert single < area < 7.0 * single

    def test_scales_with_radius_squared(self):
        small = cov.union_area_km2(cov.constellation_layout(3, 1.0))
        large = cov.union_area_km2(cov.constellation_layout(3, 2.0))
        assert large == pytest.approx(4.0 * small, rel=0.02)

    @pytest.mark.parametrize(
        "count, radius_km", [(1, 1e200), (7, 1e154)], ids=["square-overflows", "product-overflows"]
    )
    def test_area_beyond_float_range_rejected(self, count, radius_km):
        constellation = cov.constellation_layout(count, radius_km)
        message = f"union area at radius_km={radius_km:g} is beyond float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cov.union_area_km2(constellation)

    def test_two_adjacent_cells_lose_one_lens(self):
        radius = 2.5
        area = cov.union_area_km2(cov.constellation_layout(2, radius))
        expected = 2.0 * math.pi * radius**2 - _lens_area(radius, math.sqrt(3.0) * radius)
        assert area == pytest.approx(expected, rel=1e-12)

    def test_full_rings_match_closed_form(self):
        # k full rings hold 3k^2 + 3k + 1 cells joined by 9k^2 + 3k lattice edges
        radius = 1.5
        lens = radius**2 * (math.pi / 3.0 - math.sqrt(3.0) / 2.0)
        for rings in (1, 2, 6):
            count = 3 * rings * rings + 3 * rings + 1
            edges = 9 * rings * rings + 3 * rings
            constellation = cov.constellation_layout(count, radius)
            assert len(cov.linked_pairs(constellation)) == edges
            expected = count * math.pi * radius**2 - edges * lens
            assert cov.union_area_km2(constellation) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 19, 61, 127])
    def test_agrees_with_exact_oracle(self, count):
        constellation = cov.constellation_layout(count, 1.5)
        exact = _exact_union_area(constellation.centers_km(), constellation.radius_km)
        assert cov.union_area_km2(constellation) == pytest.approx(exact, rel=1e-12)

    def test_random_hexagon_subsets_agree_with_exact_oracle(self):
        # any sites of the 127-cell hexagon: holes, chains, islands, not only rings
        hexagon = cov.constellation_layout(127, 1.0).sites
        rng = random.Random(5)
        for _ in range(200):
            sites = tuple(rng.sample(hexagon, rng.randint(1, len(hexagon))))
            constellation = cov.Constellation(radius_km=10.0 ** rng.uniform(-3.0, 3.0), sites=sites)
            exact = _exact_union_area(constellation.centers_km(), constellation.radius_km)
            assert cov.union_area_km2(constellation) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("distance", [0.1, 1.0, math.sqrt(3.0), 1.99, 2.0, 3.0])
    def test_exact_oracle_loses_one_lens_for_two_disks(self, distance):
        # the oracle alone, off the lattice: two disks at a bearing of 2 rad
        radius = 2.5
        far_x, far_y = radius * distance * math.cos(2.0), radius * distance * math.sin(2.0)
        lens = _lens_area(radius, radius * distance) if distance < 2.0 else 0.0
        exact = _exact_union_area(((0.3, -0.4), (0.3 + far_x, -0.4 + far_y)), radius)
        assert exact == pytest.approx(2.0 * math.pi * radius**2 - lens, rel=1e-12)

    def test_cli_import_leaves_numpy_unloaded(self):
        code = "import sys, balloonlink.cli; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_cli_import_leaves_dataclasses_and_inspect_unloaded(self):
        # -S keeps site hooks out, so only the package's own imports count
        code = (
            "import sys, balloonlink.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cov.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestReplacementCount:
    def test_area_ratio_examples(self):
        assert cov.replacement_count(10.0, 1.0) == 100
        assert cov.replacement_count(3.0, 2.0) == 3  # ceil(2.25)
        assert cov.replacement_count(1e-5, 1.0) == 1
        assert cov.replacement_count(1e-200, 1.0) == 1  # the ratio underflows to 0.0

    def test_equal_radii(self):
        for radius in (0.3, 1.0, 7.7):
            assert cov.replacement_count(radius, radius) == 1

    def test_monotone_in_balloon_radius(self):
        counts = [cov.replacement_count(0.5 + 19.5 * i / 49, 1.0) for i in range(50)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            cov.replacement_count(0.0, 1.0)
        with pytest.raises(ValueError):
            cov.replacement_count(1.0, -2.0)


class TestConstellationInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one site"):
            cov.Constellation(radius_km=1.0, sites=())

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            cov.Constellation(radius_km=1.0, sites=((0, 0), (1, 0), (0, 0)))

    @pytest.mark.parametrize(
        "site",
        [(0.5, 0), (1.0, 0), (0, True), (1, 0, 0), [1, 0]],
        ids=["off_lattice", "float", "bool", "triple", "list"],
    )
    def test_non_integer_site_rejected(self, site):
        with pytest.raises(ValueError, match="pair of int"):
            cov.Constellation(radius_km=1.0, sites=((0, 0), site))

    @pytest.mark.parametrize("radius_km", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_radius_rejected(self, radius_km):
        with pytest.raises(ValueError, match="radius_km"):
            cov.Constellation(radius_km=radius_km, sites=((0, 0),))

    def test_pair_at_least_two_radii_apart_accepted(self):
        # (1, 1) is a next-nearest site, 3 * radius from the origin: disjoint cells
        constellation = cov.Constellation(radius_km=1.0, sites=((0, 0), (1, 1)))
        assert cov.linked_pairs(constellation) == ()
        assert cov.union_area_km2(constellation) == pytest.approx(2.0 * math.pi, rel=1e-12)
