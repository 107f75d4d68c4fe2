"""Closed-form radio link physics for an elevated base-station platform.

Free-space power density, rms E-field and received power around an
isotropic-equivalent transmitter, plus the Hata small-city path-loss
model used for cell sizing. Scalars in, scalars out; frequencies are in
MHz, distances in meters unless a name says otherwise. Every function is
pure, so callers may evaluate concurrently without locking.
"""

import math
import operator
import sys

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Impedance of free space, the 120*pi in P_d = E^2 / (120*pi).
FREE_SPACE_IMPEDANCE_OHM = 120.0 * math.pi

# Empirical fitting ranges of the Hata small-city model. The formula still
# evaluates outside them; hata_validity_warnings() reports the excursions.
HATA_FREQ_RANGE_MHZ = (150.0, 1500.0)
HATA_BS_HEIGHT_RANGE_M = (30.0, 200.0)
HATA_DISTANCE_RANGE_KM = (1.0, 20.0)


# The bounds grammar of every record field and library argument: bounds are
# (operator, limit) pairs, checked in order after the value is found finite;
# an optional third element is a reason, appended to the message. An int
# limit also requires an integer value.
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le, "==": operator.eq}
POSITIVE = ((">", 0.0),)
NON_NEGATIVE = ((">=", 0.0),)
_FLOAT_MAX = sys.float_info.max


def bound_problem(name: str, value, bounds) -> str | None:
    """What is wrong with the number value under bounds, or None if nothing is."""
    if not abs(value) <= _FLOAT_MAX:  # also an int too large for a float
        return f"{name} must be finite"
    for op, limit, *reason in bounds:
        integer = type(limit) is int
        if not _OPS[op](value, limit) or (integer and value != int(value)):
            rule = f"{limit:g}" if op == "==" else f"{op} {limit:g}"
            kind = "an integer " if integer else ""
            return f"{name} must be {kind}{rule}" + "".join(f" ({r})" for r in reason)
    return None


def _require(bounds, **values) -> None:
    """Raise the ValueError bound_problem words for the first value outside bounds."""
    for name, value in values.items():
        problem = bound_problem(name, value, bounds)
        if problem:
            raise ValueError(problem)


def _float_range_error(quantity: str, inputs: dict, *factors: tuple[float, dict]) -> ValueError:
    """The error for a quantity beyond float range, naming the inputs to blame.

    factors are the quantity's factors as (product, {name: value}) pairs, in
    the order it forms them: the inputs of the first one that overflowed are
    to blame, else inputs. Only a failed call builds this error, so a call
    that succeeds pays nothing for the diagnosis.
    """
    inputs = next((named for product, named in factors if product == math.inf), inputs)
    named = ", ".join(f"{name}={value:g}" for name, value in inputs.items())
    return ValueError(f"{quantity} at {named} is beyond float range")


def _finite(quantity: str, value: float, /, **inputs: float) -> float:
    """value if it is finite; else raise the float-range error for quantity naming inputs."""
    if abs(value) < math.inf:  # also rejects NaN
        return value
    raise _float_range_error(quantity, inputs)


def db_to_linear(value_db: float) -> float:
    """Convert a decibel power ratio to linear: 10^(dB/10), a float > 0."""
    _require((), value_db=value_db)
    try:
        ratio = 10.0 ** (value_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"value_db={value_db:g} is out of range: 10^(dB/10) is not a float > 0")
    return ratio


def wavelength_m(freq_mhz: float) -> float:
    """Free-space wavelength in meters for a carrier given in MHz."""
    _require(POSITIVE, freq_mhz=freq_mhz)
    freq_hz = _finite("wavelength", freq_mhz * 1e6, freq_mhz=freq_mhz)
    return _finite("wavelength", SPEED_OF_LIGHT_M_S / freq_hz, freq_mhz=freq_mhz)


def near_field_distance(antenna_dim_m: float, freq_mhz: float) -> float:
    """Far-field boundary 2*L^2/lambda for an antenna of largest dimension L.

    Used only as a distance marker; no separate near-field model is applied
    inside it.
    """
    _require(NON_NEGATIVE, antenna_dim_m=antenna_dim_m)
    distance = 2.0 * antenna_dim_m * antenna_dim_m / wavelength_m(freq_mhz)
    return _finite("near-field distance", distance, antenna_dim_m=antenna_dim_m, freq_mhz=freq_mhz)


def hata_correction_small_city(freq_mhz: float, rx_antenna_height_m: float) -> float:
    """Mobile-antenna height correction a(h_re) for a small city, in dB.

    a(h_re) = (1.1*log10(f) - 0.7)*h_re - (1.56*log10(f) - 0.8)
    """
    _require(POSITIVE, freq_mhz=freq_mhz, rx_antenna_height_m=rx_antenna_height_m)
    log_f = math.log10(freq_mhz)
    correction = (1.1 * log_f - 0.7) * rx_antenna_height_m - (1.56 * log_f - 0.8)
    return _finite(
        "Hata correction", correction, freq_mhz=freq_mhz, rx_antenna_height_m=rx_antenna_height_m
    )


def hata_path_loss(
    freq_mhz: float,
    bs_antenna_height_m: float,
    rx_antenna_height_m: float,
    distance_km: float,
) -> float:
    """Median path loss of the Hata small-city model, in dB.

    PL = 69.55 + 26.16*log10(f) - 13.82*log10(h_te) - a(h_re)
         + (44.9 - 6.55*log10(h_te)) * log10(D)

    with f in MHz, antenna heights in m and the distance D in km: the
    terms fixed by f and the antenna heights (the loss at D = 1 km) plus
    hata_slope_db_per_decade(h_te) per decade of distance. The
    formula is evaluated regardless of the empirical fitting ranges; use
    hata_validity_warnings() to check those.
    """
    _require(POSITIVE, distance_km=distance_km)
    correction = hata_correction_small_city(freq_mhz, rx_antenna_height_m)
    slope = hata_slope_db_per_decade(bs_antenna_height_m)
    log_hte = math.log10(bs_antenna_height_m)
    fixed = 69.55 + 26.16 * math.log10(freq_mhz) - 13.82 * log_hte - correction
    return fixed + slope * math.log10(distance_km)


def hata_slope_db_per_decade(bs_antenna_height_m: float) -> float:
    """Distance slope 44.9 - 6.55*log10(h_te) of the Hata model, dB/decade."""
    _require(POSITIVE, bs_antenna_height_m=bs_antenna_height_m)
    return 44.9 - 6.55 * math.log10(bs_antenna_height_m)


def hata_validity_warnings(
    freq_mhz: float,
    bs_antenna_height_m: float,
    distance_km: float,
) -> tuple[str, ...]:
    """Advisory flags for Hata inputs outside the model's fitting ranges.

    Returns an empty tuple when all inputs are within range. Never raises
    for out-of-range values: the platform use case intentionally exceeds
    the classical base-station height limit.
    """
    warnings = []
    for name, value, (lo, hi), unit in (
        ("freq_mhz", freq_mhz, HATA_FREQ_RANGE_MHZ, "MHz"),
        ("bs_antenna_height_m", bs_antenna_height_m, HATA_BS_HEIGHT_RANGE_M, "m"),
        ("distance_km", distance_km, HATA_DISTANCE_RANGE_KM, "km"),
    ):
        if not lo <= value <= hi:
            warnings.append(f"{name}={value:g} outside Hata validity range [{lo:g}, {hi:g}] {unit}")
    return tuple(warnings)


def slant_range(altitude_m: float, ground_offset_m: float) -> float:
    """Straight-line distance from a platform to a ground point, in meters.

    R = sqrt(altitude^2 + offset^2). Both inputs must be >= 0 and at least
    one must be positive (R = 0 is a field singularity downstream).
    """
    _require(NON_NEGATIVE, altitude_m=altitude_m, ground_offset_m=ground_offset_m)
    if altitude_m == 0.0 and ground_offset_m == 0.0:
        raise ValueError("altitude_m and ground_offset_m cannot both be 0")
    distance = math.hypot(altitude_m, ground_offset_m)
    return _finite("slant range", distance, altitude_m=altitude_m, ground_offset_m=ground_offset_m)


def _check_field_inputs(power_w: float, gain_linear: float, range_m: float) -> None:
    """Reject a negative power, a non-positive gain or range, and non-finite input."""
    # table1 checks once per distance: the bounds are only worded on failure
    if not (0.0 <= power_w <= _FLOAT_MAX and 0.0 < gain_linear <= _FLOAT_MAX and 0.0 < range_m <= _FLOAT_MAX):
        _require(NON_NEGATIVE, power_w=power_w)
        _require(POSITIVE, gain_linear=gain_linear, range_m=range_m)


# The unchecked field kernels. Each public field function below checks its
# inputs, then returns its kernel's value, so a sweep that checks its inputs
# once can call a kernel per point and still match the single-point call bit
# for bit. The inverse-square law is stated once, in _power_density, which
# divides by 4*pi*R and then by R; Friis is that density times the receive
# aperture Gr*lambda^2/(4*pi), and a power of 0 W receives 0 W at any
# aperture, even one that overflows. No kernel squares the range, so for a
# positive finite range neither raises: a value too small for a float rounds
# to 0 or a subnormal, and one too large is inf, which the public function
# reports, naming the first numerator factor that overflowed or, if none
# did, range_m (a finite numerator over a range too small for the law).
_FOUR_PI = 4.0 * math.pi


def _power_density(power_w: float, gain_linear: float, range_m: float) -> float:
    return power_w * gain_linear / (_FOUR_PI * range_m) / range_m


def _received_power(
    power_w: float, tx_gain_linear: float, rx_gain_linear: float, lam: float, range_m: float
) -> float:
    if power_w == 0.0:  # the zero keeps its sign, as the density's does
        return power_w
    return _power_density(power_w, tx_gain_linear, range_m) * (rx_gain_linear * lam * lam / _FOUR_PI)


def power_density(power_w: float, gain_linear: float, range_m: float) -> float:
    """Free-space power density P*G / (4*pi*R^2), in W/m^2."""
    _check_field_inputs(power_w, gain_linear, range_m)
    density = _power_density(power_w, gain_linear, range_m)
    if density < math.inf:  # also rejects NaN, an infinite P*G over an infinite 4*pi*R
        return density
    raise _float_range_error(
        "power density",
        {"range_m": range_m},
        (power_w * gain_linear, {"power_w": power_w, "gain_linear": gain_linear}),
    )


def e_field_rms(power_w: float, gain_linear: float, range_m: float) -> float:
    """Rms electric field sqrt(30*P*G) / R, in V/m."""
    _check_field_inputs(power_w, gain_linear, range_m)
    field = math.sqrt(30.0 * power_w * gain_linear) / range_m
    if field < math.inf:
        return field
    raise _float_range_error(
        "rms E-field",
        {"range_m": range_m},
        (30.0 * power_w * gain_linear, {"power_w": power_w, "gain_linear": gain_linear}),
    )


def received_power(
    power_w: float,
    tx_gain_linear: float,
    rx_gain_linear: float,
    freq_mhz: float,
    range_m: float,
) -> float:
    """Friis received power P*Gt*Gr*lambda^2 / (4*pi*R)^2, in watts."""
    _check_field_inputs(power_w, tx_gain_linear, range_m)
    _require(POSITIVE, rx_gain_linear=rx_gain_linear)
    lam = wavelength_m(freq_mhz)
    power = _received_power(power_w, tx_gain_linear, rx_gain_linear, lam, range_m)
    if power < math.inf:  # also rejects NaN, a zero density or aperture times an infinite one
        return power
    gains = power_w * tx_gain_linear * rx_gain_linear
    inputs = {"power_w": power_w, "tx_gain_linear": tx_gain_linear, "rx_gain_linear": rx_gain_linear}
    raise _float_range_error(
        "received power",
        {"range_m": range_m},
        (lam * lam, {"freq_mhz": freq_mhz}),
        (gains, inputs),
        # each factor finite, their product not
        (gains * lam * lam, {**inputs, "freq_mhz": freq_mhz}),
    )


class Record:
    """Base of the frozen value classes.

    A subclass's fields are its own annotations, in order, and a class
    attribute of a field's name is its default. Record gives the subclass an
    __init__ taking fields by position or keyword, checking each field named
    in _bounds (a None value passes where None is the default) and then
    calling __post_init__, which is left to rules over more than one field.
    Records compare, hash and repr by their field values; assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    # field -> bounds, in the grammar of bound_problem
    _bounds: dict[str, tuple] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, not {len(args)}")
        extra = kwargs.keys() - cls._fields[len(args):]
        if extra:
            raise TypeError(f"{cls.__name__} got unknown or repeated arguments {sorted(extra)}")
        values = dict(zip(cls._fields, args), **kwargs)
        missing = [key for key in cls._fields if key not in values and not hasattr(cls, key)]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the arguments {missing}")
        for key in cls._fields:
            object.__setattr__(self, key, values[key] if key in values else getattr(cls, key))
        for key, bounds in cls._bounds.items():
            value = getattr(self, key)
            if value is not None or getattr(cls, key, 0) is not None:
                _require(bounds, **{key: value})
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, key, value):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot assign {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"{type(self).__name__} is frozen; cannot delete {key!r}")


class TransmitterConfig(Record):
    """Transmitter parameters.

    gain_db is the canonical gain; gain_linear, when set, is an explicit
    linear override that wins over gain_db (used to reproduce reference
    tables computed with a rounded linear gain). power_w = 0 is allowed
    as a degenerate probe; source configurations require a positive power.
    """

    power_w: float
    gain_db: float = 17.0
    freq_mhz: float = 900.0
    antenna_dim_m: float = 1.0
    gain_linear: float | None = None

    # in the order the scenario's transmitter section lists them
    _bounds = {
        "power_w": NON_NEGATIVE,
        "gain_db": (),
        "gain_linear": POSITIVE,
        "freq_mhz": POSITIVE,
        "antenna_dim_m": NON_NEGATIVE,
    }

    def linear_gain(self) -> float:
        """Effective linear transmit gain; gain_linear wins over gain_db."""
        if self.gain_linear is not None:
            return self.gain_linear
        return db_to_linear(self.gain_db)

    def near_field_m(self) -> float:
        return near_field_distance(self.antenna_dim_m, self.freq_mhz)


class LinkGeometry(Record):
    """One transmitter-to-ground geometry.

    altitude_m is the platform height above ground, ground_offset_m the
    horizontal distance from the point directly beneath it. The antenna
    heights feed the Hata model only.
    """

    altitude_m: float = 150.0
    ground_offset_m: float = 0.0
    bs_antenna_height_m: float = 200.0
    rx_antenna_height_m: float = 1.5
    rx_gain_db: float = 0.0

    _bounds = {
        "altitude_m": NON_NEGATIVE,
        "ground_offset_m": NON_NEGATIVE,
        "bs_antenna_height_m": POSITIVE,
        "rx_antenna_height_m": POSITIVE,
        "rx_gain_db": (),
    }

    def slant_range_m(self) -> float:
        return slant_range(self.altitude_m, self.ground_offset_m)


class LinkBudgetResult(Record):
    """Path loss, field quantities and received power at one geometry."""

    path_loss_db: float
    power_density_w_m2: float
    e_field_v_m: float
    received_power_w: float
    range_m: float

    _bounds = {
        "path_loss_db": (),
        "power_density_w_m2": NON_NEGATIVE,
        "e_field_v_m": NON_NEGATIVE,
        "received_power_w": NON_NEGATIVE,
        "range_m": POSITIVE,
    }

    def __post_init__(self) -> None:
        # E and P_d must agree through the free-space impedance identity.
        # Relative tolerance 1e-12, but never finer than 1e-12 of the smallest
        # normal float: one unit in the last place of a subnormal P_d can be
        # more than 1e-12 of it. A zero density needs E^2 / (120*pi) <= ~2e-320.
        # E^2 overflows above E ~ 1.3e154 V/m, where P_d is still a float;
        # E * (E / (120*pi)) stays a float up to P_d ~ 1.8e308 W/m^2.
        implied = self.e_field_v_m * (self.e_field_v_m / FREE_SPACE_IMPEDANCE_OHM)
        scale = max(self.power_density_w_m2, sys.float_info.min)
        if not abs(implied - self.power_density_w_m2) <= 1e-12 * scale:
            raise ValueError("e_field_v_m inconsistent with power_density_w_m2")


def link_budget(tx: TransmitterConfig, geometry: LinkGeometry) -> LinkBudgetResult:
    """Evaluate the full single-point budget at the geometry's slant range.

    The Hata path loss is evaluated at the slant range converted to km,
    which for a low platform is usually below the model's 1 km validity
    floor; pair with hata_validity_warnings() when reporting results.
    """
    range_m = geometry.slant_range_m()
    gain = tx.linear_gain()
    return LinkBudgetResult(
        path_loss_db=hata_path_loss(
            tx.freq_mhz,
            geometry.bs_antenna_height_m,
            geometry.rx_antenna_height_m,
            range_m / 1000.0,
        ),
        power_density_w_m2=power_density(tx.power_w, gain, range_m),
        e_field_v_m=e_field_rms(tx.power_w, gain, range_m),
        received_power_w=received_power(
            tx.power_w, gain, db_to_linear(geometry.rx_gain_db), tx.freq_mhz, range_m
        ),
        range_m=range_m,
    )
