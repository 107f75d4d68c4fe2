"""Ground-level exposure products: density tables, sweep profiles, zones.

Everything here samples the free-space expressions from ``propagation``
at configured geometries. Sweeps are uniform in the swept variable with
inclusive endpoints, and every sampled value is exactly the single-point
evaluation at that abscissa, so series endpoints can be compared bit for
bit against direct calls.
"""

import enum
import math
import operator
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, islice, repeat

from .propagation import (
    NON_NEGATIVE,
    POSITIVE,
    Record,
    TransmitterConfig,
    _power_density,
    _received_power,
    _require,
    db_to_linear,
    power_density,
    received_power,
    slant_range,
    wavelength_m,
)

DEFAULT_NUM_STEPS = 101

# Bounds on a sweep's step count, for the scenario's sweeps and the library's
# alike. The cap bounds the memory of one sweep: exposure with all three
# sweeps at 100001 steps runs in 0.43-0.73 s at 55 MiB peak RSS (12 runs,
# Python 3.11.7, shared 2-vCPU host), and CI fails such a run above 96 MiB.
SWEEP_STEPS = ((">=", 2), ("<=", 100_001))

# Default general-public power-density limit: f/200 W/m^2 for f in MHz,
# the ICNIRP-style band law, held at its 400 and 2000 MHz plateau values
# outside that band.
ZONE_LIMIT_BAND_MHZ = (400.0, 2000.0)
DEFAULT_CAUTION_FRACTION = 0.1


class ExposureZone(enum.IntEnum):
    """Exposure classification, ordered: higher value means more exposure."""

    SAFE = 0
    CAUTION = 1
    EXCEEDS_LIMIT = 2


class ZoneThresholds(Record):
    """Density limit and the fraction of it where caution starts."""

    limit_w_m2: float
    caution_fraction: float = DEFAULT_CAUTION_FRACTION

    _bounds = {"limit_w_m2": POSITIVE, "caution_fraction": ((">", 0.0), ("<", 1.0))}


def default_thresholds(freq_mhz: float) -> ZoneThresholds:
    """Frequency-derived thresholds: f/200 W/m^2, clamped outside the band."""
    _require(POSITIVE, freq_mhz=freq_mhz)
    lo, hi = ZONE_LIMIT_BAND_MHZ
    clamped = min(max(freq_mhz, lo), hi)
    return ZoneThresholds(limit_w_m2=clamped / 200.0)


def classify_zone(density_w_m2: float, thresholds: ZoneThresholds) -> ExposureZone:
    """Classify a power density against the configured thresholds."""
    _require(NON_NEGATIVE, density_w_m2=density_w_m2)
    if density_w_m2 >= thresholds.limit_w_m2:
        return ExposureZone.EXCEEDS_LIMIT
    if density_w_m2 >= thresholds.caution_fraction * thresholds.limit_w_m2:
        return ExposureZone.CAUTION
    return ExposureZone.SAFE


class SweepSeries(Record):
    """An ordered 1-D profile: a column of abscissas, one of values, and labels.

    A series has at least one point. The abscissas ascend strictly and are
    finite; no value is negative, NaN or infinite. ``points`` pairs the two
    columns up.
    """

    label: str
    abscissa_name: str
    abscissas: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        xs, ys = self.abscissas, self.values
        if len(xs) != len(ys):
            raise ValueError(f"{self.label}: {len(xs)} abscissas but {len(ys)} values")
        if not xs:
            raise ValueError(f"{self.label}: no points")
        # C-level passes over the columns; only a failed check walks the
        # points, to name the first bad one
        if (
            -math.inf < xs[0]
            and xs[-1] < math.inf
            and all(map(operator.lt, xs, islice(xs, 1, None)))
            and all(map(math.isfinite, ys))
            and min(ys) >= 0.0
        ):
            return
        for previous, x, y in zip(chain((-math.inf,), xs), xs, ys):
            if not (previous < x < math.inf and 0.0 <= y < math.inf):
                raise ValueError(f"{self.label}: point {(x, y)} is out of order, not finite or < 0")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The (abscissa, value) pairs, built on each read."""
        return tuple(zip(self.abscissas, self.values))


@lru_cache(maxsize=3)
def _sample_axis(lo: float, hi: float, num_steps: int, axis: str = "x") -> tuple[float, ...]:
    """Uniform float samples on [lo, hi], 0 <= lo < hi, with both endpoints exact.

    num_steps is an integral count within SWEEP_STEPS. Raises ValueError
    naming the axis when the samples are not strictly ascending, that is
    when the step is below float resolution at hi. The last three axes are
    kept, so profiles over one axis share its samples.
    """
    _require(SWEEP_STEPS, num_steps=num_steps)
    num_steps = int(num_steps)
    step = (hi - lo) / (num_steps - 1)
    xs = [lo + i * step for i in range(num_steps)]
    xs[-1] = float(hi)
    # Each sample is within about one ulp(hi) of its exact value, so a step
    # of a few ulp(hi) proves them ascending without a pass over them.
    if step <= 4.0 * math.ulp(hi) and not all(a < b for a, b in zip(xs, xs[1:])):
        raise ValueError(
            f"{axis} sweep from {lo!r} to {hi!r} in {num_steps} steps "
            "is finer than float resolution"
        )
    return tuple(xs)


def _sweep(label: str, abscissa_name: str, xs, single_point, values) -> SweepSeries:
    """The series of single_point(x) over the ascending abscissas xs.

    values is a lazy map, over xs, of the unchecked kernel that the checked
    public call single_point(x) ends in; it is drained into the value
    column, and SweepSeries checks every value. single_point runs at both
    ends first to name the error: every profile is monotone in x, so a value
    beyond float range is one at an end, and the public call names the
    inputs to blame where SweepSeries could only name the point.
    """
    single_point(xs[0])
    single_point(xs[-1])
    return SweepSeries(label, abscissa_name, xs, tuple(values))


def _axis(axis: str, lo: float, hi: float, num_steps: int) -> tuple[float, ...]:
    """The samples of the swept {axis}_m on [lo, hi], once lo > 0 and hi > lo are checked."""
    _require(POSITIVE, **{f"{axis}_min_m": lo})
    _require((), **{f"{axis}_max_m": hi})
    if not hi > lo:
        raise ValueError(f"{axis}_max_m must be > {axis}_min_m")
    return _sample_axis(lo, hi, num_steps, f"{axis}_m")


def table_one(
    tx: TransmitterConfig, distances_m: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """Power density at each listed distance, as (R, P_d) rows."""
    if not distances_m:
        raise ValueError("distances_m must not be empty")
    gain = tx.linear_gain()
    return tuple((r, power_density(tx.power_w, gain, r)) for r in distances_m)


def ground_density_profile(
    tx: TransmitterConfig,
    altitude_m: float,
    offset_max_m: float,
    num_steps: int = DEFAULT_NUM_STEPS,
) -> SweepSeries:
    """Power density along the ground away from the point under the platform.

    Samples the horizontal offset d on [0, offset_max_m]; each value is the
    density at the slant range sqrt(altitude^2 + d^2). The maximum is
    always at d = 0, directly beneath the platform.
    """
    _require(POSITIVE, altitude_m=altitude_m, offset_max_m=offset_max_m)
    offsets = _sample_axis(0.0, offset_max_m, num_steps, "ground_offset_m")
    power, gain = tx.power_w, tx.linear_gain()
    return _sweep(
        f"ground power density, platform at {altitude_m:g} m",
        "ground_offset_m",
        offsets,
        lambda d: power_density(power, gain, slant_range(altitude_m, d)),
        map(_power_density, repeat(power), repeat(gain), map(math.hypot, repeat(altitude_m), offsets)),
    )


def altitude_density_profile(
    tx: TransmitterConfig,
    altitude_min_m: float,
    altitude_max_m: float,
    ground_offset_m: float = 0.0,
    num_steps: int = DEFAULT_NUM_STEPS,
) -> SweepSeries:
    """Ground-point power density as the platform altitude rises."""
    _require(NON_NEGATIVE, ground_offset_m=ground_offset_m)
    altitudes = _axis("altitude", altitude_min_m, altitude_max_m, num_steps)
    power, gain = tx.power_w, tx.linear_gain()
    return _sweep(
        f"power density vs platform altitude, offset {ground_offset_m:g} m",
        "altitude_m",
        altitudes,
        lambda a: power_density(power, gain, slant_range(a, ground_offset_m)),
        map(_power_density, repeat(power), repeat(gain), map(math.hypot, altitudes, repeat(ground_offset_m))),
    )


def range_density_profile(
    tx: TransmitterConfig,
    range_min_m: float,
    range_max_m: float,
    num_steps: int = DEFAULT_NUM_STEPS,
) -> SweepSeries:
    """Power density over a straight-line distance sweep (1/R^2 falloff)."""
    ranges = _axis("range", range_min_m, range_max_m, num_steps)
    power, gain = tx.power_w, tx.linear_gain()
    return _sweep(
        "power density vs distance",
        "range_m",
        ranges,
        lambda r: power_density(power, gain, r),
        map(_power_density, repeat(power), repeat(gain), ranges),
    )


def received_power_profile(
    tx: TransmitterConfig,
    rx_gain_db: float,
    altitude_min_m: float,
    altitude_max_m: float,
    ground_offset_m: float = 0.0,
    num_steps: int = DEFAULT_NUM_STEPS,
) -> SweepSeries:
    """Received power at a ground point as the platform altitude rises, at tx.freq_mhz."""
    _require(NON_NEGATIVE, ground_offset_m=ground_offset_m)
    altitudes = _axis("altitude", altitude_min_m, altitude_max_m, num_steps)
    power, tx_gain, freq_mhz = tx.power_w, tx.linear_gain(), tx.freq_mhz
    rx_gain = db_to_linear(rx_gain_db)
    lam = wavelength_m(freq_mhz)
    return _sweep(
        f"received power vs platform altitude, offset {ground_offset_m:g} m",
        "altitude_m",
        altitudes,
        lambda a: received_power(power, tx_gain, rx_gain, freq_mhz, slant_range(a, ground_offset_m)),
        map(
            _received_power,
            repeat(power),
            repeat(tx_gain),
            repeat(rx_gain),
            repeat(lam),
            map(math.hypot, altitudes, repeat(ground_offset_m)),
        ),
    )
