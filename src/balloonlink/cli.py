"""Command-line front end: scenario JSON in, CSV artifacts out.

Each subcommand loads a scenario (the bundled default unless --scenario
is given), renders one product and writes it as CSV into the output
directory. Every subcommand is one row of PRODUCTS; ``_run`` renders all
of a product's files before it writes any, replaces them as one set and
only then reports them. Exit codes: 0 success, 1 validation or usage
error, 2 I/O error.

``main(argv)`` touches no process state: it reads only the argv it is
given and no file descriptor, so it runs in-process as well as in its
own process (``__main__.run``, which owns the process).

``main`` reads an argv of the shape ``COMMAND (--flag VALUE)*`` straight
from the flag tables; argparse is imported only to word help, the version
and usage errors (``build_parser``).
"""

import errno
import math
import os
import sys
from collections.abc import Callable
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .coverage import MAX_BALLOONS, cell_radius_from_budget, constellation_layout, union_area_km2
from .csvout import float_column, fmt, render, row_template, write_csv
from .emissions import compare
from .exposure import (
    altitude_density_profile,
    classify_zone,
    ground_density_profile,
    range_density_profile,
    received_power_profile,
    table_one,
)
from .propagation import Record, hata_validity_warnings, link_budget, power_density
from .scenario import DEFAULTS_HELP, Scenario, default_scenario_path, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

# Altitudes fixed by the fig4/fig5 scenario definitions, in meters.
FIG4_ALTITUDE_M = 150.0
FIG5_ALTITUDE_M = 200.0


def _type_error(message: str) -> Exception:
    """The error a flag's type raises for argparse to word as a usage error."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _comma_floats(text: str) -> list[float]:
    values = []
    for token in filter(str.strip, text.split(",")):
        try:
            values.append(float(token))
        except ValueError:
            raise _type_error(f"not a number: {token.strip()!r}") from None
    if not values:
        raise _type_error("expected at least one number")
    return values


def _path(text: str) -> Path:
    # Path("") is ".", a directory the user never named
    if not text:
        raise _type_error("expected a non-empty path")
    return Path(text)


# The figure builders and renderers name the layer functions in their
# bodies, so a module global rebound at run time (a tracer) sees each call.
# A sweep calls the public propagation scalars only for the checks at the
# two ends of its axis and evaluates every point through a private kernel,
# so a tracer that rebinds exposure's globals sees those two calls per
# series, not one per point.

def _ground_profile(altitude_m: float):
    return lambda s: ground_density_profile(
        s.transmitter, altitude_m, s.ground_offset_sweep.max, s.ground_offset_sweep.steps
    )


def _altitude_axis(s: Scenario) -> tuple[float, float, float, int]:
    """Arguments the altitude profiles share: min, max, ground offset, steps."""
    sweep = s.altitude_sweep
    return sweep.min, sweep.max, s.geometry.ground_offset_m, sweep.steps


def _density_vs_altitude(s: Scenario):
    return altitude_density_profile(s.transmitter, *_altitude_axis(s))


def _density_vs_range(s: Scenario):
    sweep = s.range_sweep
    return range_density_profile(s.transmitter, sweep.min, sweep.max, sweep.steps)


def _received_vs_altitude(s: Scenario):
    return received_power_profile(s.transmitter, s.geometry.rx_gain_db, *_altitude_axis(s))


def _lowest_altitude_range(s: Scenario) -> float:
    return math.hypot(s.altitude_sweep.min, s.geometry.ground_offset_m)


_FIG7_NOTE = "# note: distance-decay radiation reported as free-space power density"

# figure id -> (series builder, shortest range it evaluates in m, value unit,
# extra header lines)
_FIGURES = {
    "fig4": (_ground_profile(FIG4_ALTITUDE_M), lambda s: FIG4_ALTITUDE_M, "W/m2", ()),
    "fig5": (_ground_profile(FIG5_ALTITUDE_M), lambda s: FIG5_ALTITUDE_M, "W/m2", ()),
    "fig6": (_density_vs_altitude, _lowest_altitude_range, "W/m2", ()),
    "fig7": (_density_vs_range, lambda s: s.range_sweep.min, "W/m2", (_FIG7_NOTE,)),
    "fig8": (_received_vs_altitude, _lowest_altitude_range, "W", ()),
}
FIGURE_IDS = tuple(_FIGURES)


def _warnings(messages) -> list[str]:
    return [f"# warning: {message}" for message in messages]


def _near_field_warnings(s: Scenario, range_m: float) -> list[str]:
    """The warning for a shortest range inside the antenna's near field.

    The free-space laws every product evaluates hold only beyond the
    far-field boundary 2L^2/lambda, L the antenna's largest dimension.
    """
    if range_m == math.inf:  # the product evaluates no range
        return []
    boundary = s.transmitter.near_field_m()
    if range_m < boundary:
        return _warnings(
            [f"range_m={range_m:g} inside the near-field boundary 2*antenna_dim_m^2/wavelength={boundary:g} m"]
        )
    return []


def _table1(s: Scenario, args: SimpleNamespace):
    rows = table_one(s.transmitter, s.table_distances_m)
    lines = ["distance_m,power_density_w_m2"]
    lines.extend(f"{fmt(r)},{fmt(density)}" for r, density in rows)
    yield "table1.csv", lines, min(s.table_distances_m)


def _exposure(s: Scenario, args: SimpleNamespace):
    columns = []  # (abscissas, converted column) of each abscissa column seen
    for figure in [args.figure] if args.figure else FIGURE_IDS:
        build, shortest_range, unit, extra = _FIGURES[figure]
        series = build(s)
        lines = [*extra, f"# series: {series.label}; abscissa: {series.abscissa_name}"]
        lines.append("abscissa,value,unit")
        # All rows as one block. The sampled axes are cached, so figures over
        # one axis share its column object, which is converted once; matched
        # with `is`, not ==, since -0.0 == 0.0 prints differently.
        xs = series.abscissas
        text = next((text for seen, text in columns if seen is xs), None)
        if text is None:
            text = float_column(xs)
            columns.append((xs, text))
        lines.append(row_template(text, unit) % series.values)
        yield f"{figure}.csv", lines, shortest_range(s)


def _coverage(s: Scenario, args: SimpleNamespace):
    tx, geometry = s.transmitter, s.geometry
    radius = cell_radius_from_budget(
        tx.freq_mhz,
        geometry.bs_antenna_height_m,
        geometry.rx_antenna_height_m,
        args.max_path_loss_db,
    )
    constellation = constellation_layout(args.num_balloons, radius)
    union = union_area_km2(constellation)
    lines = _warnings(hata_validity_warnings(tx.freq_mhz, geometry.bs_antenna_height_m, radius))
    lines += [f"cell_radius_km,{fmt(radius)}", "# columns: index,x_km,y_km"]
    for index, (x, y) in enumerate(constellation.centers_km()):
        lines.append(f"{index},{fmt(x)},{fmt(y)}")
    lines.append(f"union_area_km2,{fmt(union)}")
    yield "coverage.csv", lines, math.inf


def _green(s: Scenario, args: SimpleNamespace):
    comparison = compare(
        s.green_terrestrial,
        s.green_balloon,
        args.balloon_radius_km,
        args.terrestrial_radius_km,
        s.hours_per_year,
    )
    lines = [
        "# assumptions: "
        f"hours_per_year={s.hours_per_year:g}, "
        f"balloon_radius_km={args.balloon_radius_km:g}, "
        f"terrestrial_radius_km={args.terrestrial_radius_km:g}, "
        f"terrestrial={s.green_terrestrial.summary()}, "
        f"balloon={s.green_balloon.summary()}",
        "key,value",
        f"replaced_bs_count,{comparison.replaced_bs_count}",
    ]
    for key in ("terrestrial_annual_tons", "balloon_annual_tons", "avoided_tons"):
        lines.append(f"{key},{fmt(getattr(comparison, key))}")
    yield "green.csv", lines, math.inf


def _zones(s: Scenario, args: SimpleNamespace):
    densities, range_m = args.densities, math.inf
    if densities is None:
        # default: classify the peak ground density, directly under the platform
        tx, range_m = s.transmitter, s.geometry.altitude_m
        densities = [power_density(tx.power_w, tx.linear_gain(), range_m)]
    lines = ["density_w_m2,zone"]
    lines.extend(f"{fmt(d)},{classify_zone(d, s.thresholds).name}" for d in densities)
    yield "zones.csv", lines, range_m


def _linkbudget(s: Scenario, args: SimpleNamespace):
    tx, geometry = s.transmitter, s.geometry
    result = link_budget(tx, geometry)
    range_km = result.range_m / 1000.0
    lines = _warnings(hata_validity_warnings(tx.freq_mhz, geometry.bs_antenna_height_m, range_km))
    lines.append("key,value")
    # the record's field order is the row order
    for key in result._fields:
        lines.append(f"{key},{fmt(getattr(result, key))}")
    yield None, lines, result.range_m


class Product(Record):
    """One subcommand: renderer, help text and its own flags."""

    # yields (file name, or None for stdout; lines without the scenario notes;
    # the shortest range the lines evaluate, inf where they evaluate none)
    renderer: Callable
    help: str
    flags: dict


PRODUCTS = {
    "table1": Product(
        _table1, "power density at each configured distance, written to table1.csv", {}
    ),
    "exposure": Product(
        _exposure,
        f"sweep profiles fig4..fig8 (ground density at {FIG4_ALTITUDE_M:g} m and "
        f"{FIG5_ALTITUDE_M:g} m, density vs altitude, density vs distance, received "
        "power vs altitude), one CSV each",
        {
            "--figure": dict(
                choices=FIGURE_IDS, help="which profile to write (default: all of them)"
            )
        },
    ),
    "coverage": Product(
        _coverage,
        "cell radius from a path-loss budget plus a hexagonal constellation "
        "layout, written to coverage.csv",
        {
            "--max-path-loss-db": dict(
                type=float, default=140.0, help="path-loss budget that sets the cell radius"
            ),
            "--num-balloons": dict(
                type=int, default=7, help=f"number of platforms to lay out (at most {MAX_BALLOONS})"
            ),
        },
    ),
    "green": Product(
        _green,
        "annual CO2 of the replaced terrestrial fleet vs the platform, written to green.csv",
        {
            "--balloon-radius-km": dict(type=float, default=10.0, help="platform cell radius"),
            "--terrestrial-radius-km": dict(
                type=float, default=1.0, help="terrestrial cell radius"
            ),
        },
    ),
    "zones": Product(
        _zones,
        "classify power densities against the scenario exposure thresholds, "
        "written to zones.csv",
        {
            "--densities": dict(
                type=_comma_floats,
                metavar="W_M2[,W_M2...]",
                help="densities to classify (default: the scenario's peak ground density)",
            )
        },
    ),
    "linkbudget": Product(
        _linkbudget,
        "single-point link budget at the scenario geometry, key,value CSV on stdout",
        {},
    ),
}


# flags every subcommand takes
_COMMON_FLAGS = {
    "--scenario": dict(
        type=_path, metavar="PATH", help="scenario JSON file (default: bundled default scenario)"
    ),
    "--out": dict(
        type=_path, metavar="DIR", help="output directory (default: the scenario's output_dir)"
    ),
}


def _replace_all(out: Path, files: list[tuple[str, list[str]]]) -> None:
    """Replace the named files in the directory out as one set, or none of them.

    out is created with its missing parents; an out that is not a directory
    fails the call before anything is staged. Each file is written once,
    under a hidden staged name in out qualified by the process id. Only
    when every write has succeeded and no target is a directory (which a
    rename cannot replace) is each staged file renamed, once, onto its
    target. A failure before that removes every staged file written and
    every directory created, so the old set stays as it was.
    """
    missing = list(takewhile(lambda directory: not directory.exists(), (out, *out.parents)))
    created, staged = [], []
    try:
        for directory in reversed(missing):
            directory.mkdir()
            created.append(directory)
        if not out.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
        for name, lines in files:
            stage = out / f".{name}.{os.getpid()}.staged"
            # listed only once written: the create is exclusive, so a file
            # already at stage is refused and must be kept
            write_csv(stage, lines)
            staged.append(stage)
        targets = [out / name for name, _ in files]
        for target in targets:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for stage, target in zip(staged, targets):
            os.replace(stage, target)
    except BaseException:
        for stage in staged:
            stage.unlink(missing_ok=True)
        for directory in reversed(created):
            directory.rmdir()
        raise


def _run(scenario: Scenario, args: SimpleNamespace) -> None:
    """Render every file of the product, replace them as one set, then report them.

    A failed render writes nothing, a failed write leaves the old files as
    they were, and a failed report (a closed stdout) comes after every file
    is in place, so the files are all of one run.
    """
    notes = _warnings(scenario.notes)
    files = [
        (name, notes + _near_field_warnings(scenario, range_m) + lines)
        for name, lines, range_m in PRODUCTS[args.command].renderer(scenario, args)
    ]
    if any(name is not None for name, _ in files):
        out = args.out if args.out is not None else Path(scenario.output_dir)
        _replace_all(out, [(name, lines) for name, lines in files if name is not None])
    if sys.stdout is None:  # descriptor 1 was closed when the process started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    for name, lines in files:
        if name is None:
            sys.stdout.write(render(lines))
        else:
            print(f"wrote {out / name}")


def build_parser():
    """The argparse parser of the flag tables, which words help, the version and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage errors must exit 1, not argparse's default 2 (2 is for I/O here)
        def error(self, message):
            # print_usage(None) would fall back to stdout
            self._print_message(self.format_usage(), sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

        # argparse drops a failed write; raised, it reaches main's one I/O
        # error. With neither stdout nor stderr there is nothing to write to.
        def _print_message(self, message, file=None):
            file = file or sys.stderr
            if message and file is not None:
                file.write(message)

    class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter, argparse.RawDescriptionHelpFormatter):
        """Show flag defaults but keep the epilog's line structure."""

    parser = _Parser(
        prog="balloonlink",
        description="Link-budget, exposure and coverage products for an "
        "elevated (tethered-balloon) base station.",
        epilog=DEFAULTS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    for flag, keywords in _COMMON_FLAGS.items():
        common.add_argument(flag, **keywords)
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, product in PRODUCTS.items():
        sub = subparsers.add_parser(
            name,
            parents=[common],
            help=product.help,
            description=product.help,
            epilog=DEFAULTS_HELP,
            formatter_class=_HelpFormatter,
        )
        for flag, keywords in product.flags.items():
            sub.add_argument(flag, **keywords)
    return parser


def _parse_quick(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of an argv `COMMAND (--flag VALUE)*`, or None for argparse to parse.

    Each flag is spelled in full and read from the tables build_parser adds
    it from, with the same type, choices and default, so the namespace is
    the one argparse returns. Anything else is None: help, the version, an
    abbreviation, `--flag=value`, a value that starts with "-" (argparse
    may read it as a flag), a value the flag's type or choices refuse.
    """
    if not argv or argv[0] not in PRODUCTS or len(argv) % 2 == 0:
        return None
    flags = {**_COMMON_FLAGS, **PRODUCTS[argv[0]].flags}
    values = {flag: keywords.get("default") for flag, keywords in flags.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in flags or text.startswith("-"):
            return None
        keywords = flags[flag]
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse calls the type again and words its error
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[flag] = value  # a repeated flag's last value wins, as in argparse
    return SimpleNamespace(command=argv[0], **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _report(line: str) -> None:
    """Write line to stderr, or nothing when there is no stderr or it fails.

    A failed write is the last thing the run could tell, so it is dropped
    and the exit code alone reports the error.
    """
    if sys.stderr is not None:  # None: descriptor 2 was closed at start
        try:
            sys.stderr.write(line + "\n")  # stderr is line-buffered
        except OSError:
            pass


def main(argv: list[str]) -> int:
    """Run the CLI on argv (without the program name) and return its exit code.

    Help, the version and usage errors raise argparse's SystemExit. Every
    write to stdout, argparse's included, is flushed before the return, so
    a dead stdout is one I/O error line like any other.
    """
    try:
        try:
            args = _parse_quick(argv) or build_parser().parse_args(argv, SimpleNamespace())
            scenario_path = args.scenario if args.scenario is not None else default_scenario_path()
            _run(load_scenario(scenario_path), args)
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()
    except OSError as exc:
        _report(f"I/O error: {exc}")
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError is a safety net: every overflow the code knows of
        # is a ValueError naming its inputs, and a new one is still one line
        _report(f"error: {exc}")
        return EXIT_USAGE
    return EXIT_OK
