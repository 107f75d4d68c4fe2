"""Command-line front end: scenario JSON in, CSV artifacts out.

Each subcommand loads a scenario (the bundled default unless --scenario
is given), evaluates one product and writes CSV into the output
directory. Exit codes: 0 success, 1 validation or usage error, 2 I/O
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .coverage import (
    cell_radius_from_budget,
    constellation_layout,
    union_area_km2,
)
from .csvout import fmt, write_csv
from .emissions import compare
from .exposure import (
    altitude_density_profile,
    classify_zone,
    ground_density_profile,
    range_density_profile,
    received_power_profile,
    table_one,
)
from .propagation import hata_validity_warnings, link_budget, power_density, slant_range
from .scenario import DEFAULTS_HELP, Scenario, default_scenario_path, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

FIGURE_IDS = ("fig4", "fig5", "fig6", "fig7", "fig8")

# Altitudes fixed by the fig4/fig5 scenario definitions, in meters.
FIG4_ALTITUDE_M = 150.0
FIG5_ALTITUDE_M = 200.0

class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2 (2 is for I/O here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter, argparse.RawDescriptionHelpFormatter):
    """Show flag defaults but keep the epilog's line structure."""


def _comma_floats(text: str) -> list[float]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        values.append(float(token))
    return values


def _scenario_comments(scenario: Scenario) -> list[str]:
    return [f"# warning: {note}" for note in scenario.notes]


def _resolve_out_dir(scenario: Scenario, args: argparse.Namespace) -> Path:
    out = args.out if args.out is not None else Path(scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, lines: list[str]) -> None:
    write_csv(path, lines)
    print(f"wrote {path}")


def cmd_table1(scenario: Scenario, args: argparse.Namespace) -> None:
    rows = table_one(scenario.transmitter, list(scenario.table_distances_m))
    lines = _scenario_comments(scenario)
    lines.append("distance_m,power_density_w_m2")
    lines.extend(f"{fmt(r)},{fmt(density)}" for r, density in rows)
    _write(_resolve_out_dir(scenario, args) / "table1.csv", lines)


def _exposure_series(scenario: Scenario, figure: str):
    tx = scenario.transmitter
    geometry = scenario.geometry
    ground = scenario.ground_offset_sweep
    altitude = scenario.altitude_sweep
    distance = scenario.range_sweep
    if figure == "fig4":
        return ground_density_profile(tx, FIG4_ALTITUDE_M, ground.max, ground.steps), "W/m2", []
    if figure == "fig5":
        return ground_density_profile(tx, FIG5_ALTITUDE_M, ground.max, ground.steps), "W/m2", []
    if figure == "fig6":
        series = altitude_density_profile(
            tx, altitude.min, altitude.max, geometry.ground_offset_m, altitude.steps
        )
        return series, "W/m2", []
    if figure == "fig7":
        series = range_density_profile(tx, distance.min, distance.max, distance.steps)
        note = "# note: distance-decay radiation reported as free-space power density"
        return series, "W/m2", [note]
    series = received_power_profile(
        tx,
        geometry.rx_gain_db,
        tx.freq_mhz,
        altitude.min,
        altitude.max,
        geometry.ground_offset_m,
        altitude.steps,
    )
    return series, "W", []


def cmd_exposure(scenario: Scenario, args: argparse.Namespace) -> None:
    figures = [args.figure] if args.figure else list(FIGURE_IDS)
    out_dir = _resolve_out_dir(scenario, args)
    for figure in figures:
        series, unit, extra = _exposure_series(scenario, figure)
        lines = _scenario_comments(scenario)
        lines.extend(extra)
        lines.append(f"# series: {series.label}; abscissa: {series.abscissa_name}")
        lines.append("abscissa,value,unit")
        lines.extend(f"{fmt(x)},{fmt(v)},{unit}" for x, v in series.points)
        _write(out_dir / f"{figure}.csv", lines)


def cmd_coverage(scenario: Scenario, args: argparse.Namespace) -> None:
    tx = scenario.transmitter
    geometry = scenario.geometry
    radius = cell_radius_from_budget(
        tx.freq_mhz,
        geometry.bs_antenna_height_m,
        geometry.rx_antenna_height_m,
        args.max_path_loss_db,
    )
    constellation = constellation_layout(args.num_balloons, radius)
    union = union_area_km2(constellation)
    lines = _scenario_comments(scenario)
    lines.extend(
        f"# warning: {w}"
        for w in hata_validity_warnings(tx.freq_mhz, geometry.bs_antenna_height_m, radius)
    )
    lines.append(f"cell_radius_km,{fmt(radius)}")
    lines.append("# columns: index,x_km,y_km")
    for index, cell in enumerate(constellation.cells):
        lines.append(f"{index},{fmt(cell.center_x_km)},{fmt(cell.center_y_km)}")
    lines.append(f"union_area_km2,{fmt(union)}")
    _write(_resolve_out_dir(scenario, args) / "coverage.csv", lines)


def cmd_green(scenario: Scenario, args: argparse.Namespace) -> None:
    comparison = compare(
        scenario.green_terrestrial,
        scenario.green_balloon,
        args.balloon_radius_km,
        args.terrestrial_radius_km,
        scenario.hours_per_year,
    )
    lines = _scenario_comments(scenario)
    lines.append(
        "# assumptions: "
        f"hours_per_year={scenario.hours_per_year:g}, "
        f"balloon_radius_km={args.balloon_radius_km:g}, "
        f"terrestrial_radius_km={args.terrestrial_radius_km:g}, "
        f"terrestrial={scenario.green_terrestrial.summary()}, "
        f"balloon={scenario.green_balloon.summary()}"
    )
    lines.append("key,value")
    lines.append(f"replaced_bs_count,{comparison.replaced_bs_count}")
    lines.append(f"terrestrial_annual_tons,{fmt(comparison.terrestrial_annual_tons)}")
    lines.append(f"balloon_annual_tons,{fmt(comparison.balloon_annual_tons)}")
    lines.append(f"avoided_tons,{fmt(comparison.avoided_tons)}")
    _write(_resolve_out_dir(scenario, args) / "green.csv", lines)


def cmd_zones(scenario: Scenario, args: argparse.Namespace) -> None:
    if args.densities is None:
        # default: classify the peak ground density, directly under the platform
        tx = scenario.transmitter
        peak = power_density(
            tx.power_w,
            tx.linear_gain(),
            slant_range(scenario.geometry.altitude_m, 0.0),
        )
        densities = [peak]
    else:
        densities = args.densities
    lines = _scenario_comments(scenario)
    lines.append("density_w_m2,zone")
    for density in densities:
        zone = classify_zone(density, scenario.thresholds)
        lines.append(f"{fmt(density)},{zone.name}")
    _write(_resolve_out_dir(scenario, args) / "zones.csv", lines)


def cmd_linkbudget(scenario: Scenario, args: argparse.Namespace) -> None:
    result = link_budget(scenario.transmitter, scenario.geometry)
    warnings = hata_validity_warnings(
        scenario.transmitter.freq_mhz,
        scenario.geometry.bs_antenna_height_m,
        result.range_m / 1000.0,
    )
    lines = _scenario_comments(scenario)
    lines.extend(f"# warning: {w}" for w in warnings)
    lines.append("key,value")
    lines.append(f"path_loss_db,{fmt(result.path_loss_db)}")
    lines.append(f"power_density_w_m2,{fmt(result.power_density_w_m2)}")
    lines.append(f"e_field_v_m,{fmt(result.e_field_v_m)}")
    lines.append(f"received_power_w,{fmt(result.received_power_w)}")
    lines.append(f"range_m,{fmt(result.range_m)}")
    sys.stdout.write("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="balloonlink",
        description="Link-budget, exposure and coverage products for an "
        "elevated (tethered-balloon) base station.",
        epilog=DEFAULTS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scenario",
        type=Path,
        default=None,
        metavar="PATH",
        help="scenario JSON file (default: bundled default scenario)",
    )
    common.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="output directory (default: the scenario's output_dir)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_command(name, handler, help_text, **kwargs):
        sub = subparsers.add_parser(
            name,
            parents=[common],
            help=help_text,
            description=help_text,
            epilog=DEFAULTS_HELP,
            formatter_class=_HelpFormatter,
            **kwargs,
        )
        sub.set_defaults(handler=handler)
        return sub

    add_command(
        "table1",
        cmd_table1,
        "power density at each configured distance, written to table1.csv",
    )

    sub = add_command(
        "exposure",
        cmd_exposure,
        "sweep profiles fig4..fig8 (ground density at 150 m and 200 m, density vs "
        "altitude, density vs distance, received power vs altitude), one CSV each",
    )
    sub.add_argument(
        "--figure",
        choices=FIGURE_IDS,
        default=None,
        help="which profile to write (default: all of them)",
    )

    sub = add_command(
        "coverage",
        cmd_coverage,
        "cell radius from a path-loss budget plus a hexagonal constellation "
        "layout, written to coverage.csv",
    )
    sub.add_argument(
        "--max-path-loss-db",
        type=float,
        default=140.0,
        help="path-loss budget that sets the cell radius",
    )
    sub.add_argument(
        "--num-balloons",
        type=int,
        default=7,
        help="number of platforms to lay out",
    )

    sub = add_command(
        "green",
        cmd_green,
        "annual CO2 of the replaced terrestrial fleet vs the platform, "
        "written to green.csv",
    )
    sub.add_argument(
        "--balloon-radius-km",
        type=float,
        default=10.0,
        help="platform cell radius",
    )
    sub.add_argument(
        "--terrestrial-radius-km",
        type=float,
        default=1.0,
        help="terrestrial cell radius",
    )

    sub = add_command(
        "zones",
        cmd_zones,
        "classify power densities against the scenario exposure thresholds, "
        "written to zones.csv",
    )
    sub.add_argument(
        "--densities",
        type=_comma_floats,
        default=None,
        metavar="W_M2[,W_M2...]",
        help="densities to classify (default: the scenario's peak ground density)",
    )

    add_command(
        "linkbudget",
        cmd_linkbudget,
        "single-point link budget at the scenario geometry, key,value CSV on stdout",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario_path = args.scenario if args.scenario is not None else default_scenario_path()
        scenario = load_scenario(scenario_path)
        args.handler(scenario, args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: inputs whose result overflows a float or an int
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
