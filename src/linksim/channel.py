"""Receiver SNR production: trace replay or analytic propagation models.

Analytic mode composes tx power, per-end RF gain, a path loss model (Friis
free space or log-distance), optional Nakagami-m fast fading on the linear
received power, and thermal noise. The radio is fixed, so the per-end gain
is the link budget's one setting. Trace replay bypasses all of it and
returns recorded values verbatim.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from numbers import Real
from typing import Callable

from .engine import RngStream
from .record import Frozen, Record
from .traces import DirectedLink, MobilityTrace, SnrTrace

SPEED_OF_LIGHT = 299_792_458.0
MIN_FRIIS_DISTANCE_M = 0.5   # near-field guard
# the fixed 802.11a radio: 20 MHz channel 44, noise floor -93.99 dBm
TX_POWER_DBM = 17.0
BANDWIDTH_HZ = 20e6
CENTER_FREQ_HZ = 5.22e9
NOISE_FIGURE_DB = 7.0


def check_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


TRACE = "trace"
FRIIS = "friis"
LOGDIST = "logdist"


class PropagationSpec(Frozen):
    """Which SNR source drives the link: trace replay or an analytic model,
    whose link budget has one setting, the per-end RF gain. ``build``
    checks which fields a model takes; the spec checks values."""

    model: str
    trace: SnrTrace | None = None   # model = trace
    gamma: float = 2.0
    ref_distance_m: float = 1.0
    nakagami_m: float | None = None
    rf_gain_db_per_end: float = -7.0   # antenna gain minus inline attenuator

    def __post_init__(self) -> None:
        check_real("gamma", self.gamma)
        check_real("ref_distance_m", self.ref_distance_m)
        if self.nakagami_m is not None:
            check_real("nakagami_m", self.nakagami_m)
        check_real("rf_gain_db_per_end", self.rf_gain_db_per_end)
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.ref_distance_m > 0:
            raise ValueError("ref_distance_m must be > 0")
        # a gamma draw takes sqrt(2m - 1), which is infinite above max / 2
        max_m = sys.float_info.max / 2
        if self.nakagami_m is not None and not 0.5 <= self.nakagami_m <= max_m:
            raise ValueError(f"nakagami_m must be in [0.5, {max_m}]")


def friis_path_loss(d_m: float, f_hz: float,
                    min_distance_m: float = MIN_FRIIS_DISTANCE_M) -> float:
    """Free-space path loss in dB: 20 log10(4 pi d f / c)."""
    if f_hz <= 0:
        raise ValueError("f_hz must be > 0")
    if d_m < min_distance_m:
        raise ValueError(
            f"below reference distance: d={d_m} m < {min_distance_m} m"
        )
    return 20.0 * math.log10(4.0 * math.pi * d_m * f_hz / SPEED_OF_LIGHT)


def log_distance_path_loss(d_m: float, gamma: float, ref_distance_m: float,
                           f_hz: float) -> float:
    """Friis at the reference distance plus 10*gamma*log10(d/d0)."""
    if ref_distance_m <= 0:
        raise ValueError("ref_distance_m must be > 0")
    if d_m < ref_distance_m:
        raise ValueError(
            f"below reference distance: d={d_m} m < {ref_distance_m} m"
        )
    ref_loss = friis_path_loss(ref_distance_m, f_hz,
                               min_distance_m=ref_distance_m)
    return ref_loss + 10.0 * gamma * math.log10(d_m / ref_distance_m)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz integrated over the bandwidth plus NF."""
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def w_to_dbm(w: float) -> float:
    return 10.0 * math.log10(max(w, 1e-300)) + 30.0


def mean_rx_power_dbm(spec: PropagationSpec, d_m: float) -> float:
    """Received power in dBm at distance d_m before any fading draw."""
    if spec.model == FRIIS:
        loss_db = friis_path_loss(d_m, CENTER_FREQ_HZ)
    else:
        loss_db = log_distance_path_loss(
            d_m, spec.gamma, spec.ref_distance_m, CENTER_FREQ_HZ
        )
    return TX_POWER_DBM + 2.0 * spec.rf_gain_db_per_end - loss_db


class Channel(Record):
    """SNR source for one simulation instance, made with its run's seed.

    Each link has one source, a function of the frame time in µs that
    returns the SNR in dB, built at its first ``source`` call: a station
    takes the source of each of its links when it is made. A replayed link
    holds its trace's last sample. An analytic link's SNR is a function of
    the distance between its ends: the link budget, then one fading draw per
    frame when fading is configured. A link whose ends never move takes that
    distance once; a link with a moving end takes it at every frame. The
    channel owns the per-link fading streams, rooted at ``seed``, so that
    replaying a recorded trace consumes exactly the same non-fading streams
    as the original run. A fresh channel starts every stream afresh.
    """

    spec: PropagationSpec
    mobility: MobilityTrace
    seed: int

    def __post_init__(self) -> None:
        self._sources: dict[DirectedLink, Callable[[int], float]] = {}

    def snr(self, link: DirectedLink, t_us: int) -> float:
        return self.source(link)(t_us)

    def source(self, link: DirectedLink) -> Callable[[int], float]:
        """The link's one source, built on first use."""
        source = self._sources.get(link)
        if source is None:
            source = self._sources[link] = self._source(link)
        return source

    def _source(self, link: DirectedLink) -> Callable[[int], float]:
        spec = self.spec
        if spec.model == TRACE:
            times, values = spec.trace.series(link)
            # SnrTrace.snr_at, inlined as this runs once per frame
            return lambda t_us: values[max(bisect_right(times, t_us) - 1, 0)]
        m = spec.nakagami_m
        noise_dbm = noise_power_dbm(BANDWIDTH_HZ, NOISE_FIGURE_DB)
        rng = None if m is None else RngStream(self.seed, f"fading.{link}")

        def budget(d_m: float) -> tuple[float | None, float | None]:
            """(SNR, None) of a link d_m meters long that takes no fading
            draw, else (None, the scale of its gamma draw)."""
            rx_dbm = mean_rx_power_dbm(spec, d_m)
            if m is None:
                return rx_dbm - noise_dbm, None
            power_w = dbm_to_w(rx_dbm)
            if power_w > 0.0:
                return None, power_w / m
            return w_to_dbm(0.0) - noise_dbm, None   # zero power takes no draw

        tx, rx = link
        track, distance = self.mobility.track, self.mobility.link_distance
        if len(track(tx)[0]) == len(track(rx)[0]) == 1:   # neither end moves
            snr_db, scale = budget(distance(tx, rx, 0))
            if scale is None:
                return lambda t_us: snr_db
            return faded_snr(rng, m, noise_dbm, scale)
        draw = None if m is None else faded_snr(rng, m, noise_dbm)

        def moving(t_us: int) -> float:
            snr_db, scale = budget(distance(tx, rx, t_us))
            return snr_db if scale is None else draw(t_us, scale)
        return moving


def faded_snr(rng: RngStream, m: float, noise_dbm: float,
              scale: float | None = None) -> Callable[..., float]:
    """A faded link's SNR kernel on its fading stream rng.

    ``draw(t_us, scale)`` returns ``w_to_dbm(x) - noise_dbm`` for x the
    draw ``random.Random.gammavariate(m, scale)`` makes on rng, bit for bit
    and with the same stream draws. For m > 1 it runs gammavariate's loop,
    Cheng's algorithm (Cheng 1977, Applied Statistics 26(1)), term for term
    with the shape constants computed once here, not at every draw; m <= 1
    calls gammavariate. A static link binds its scale here, so a frame's
    draw is one Python call; a moving link passes its scale at each call.
    """
    log10 = math.log10
    if not m > 1.0:
        gammavariate = rng._rng.gammavariate   # RngStream's generator

        def draw(t_us: int, scale: float = scale) -> float:
            return (10.0 * log10(max(gammavariate(m, scale), 1e-300)) + 30.0
                    - noise_dbm)
        return draw

    random, log, exp = rng.random, math.log, math.exp
    ainv = math.sqrt(2.0 * m - 1.0)
    # the random module's LOG4 and SG_MAGICCONST, which are private to it
    bbb = m - log(4.0)
    ccc = m + ainv
    sg_magicconst = 1.0 + log(4.5)

    def draw(t_us: int, scale: float = scale) -> float:
        while True:
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = log(u1 / (1.0 - u1)) / ainv
            x = m * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + sg_magicconst - 4.5 * z >= 0.0 or r >= log(z):
                return (10.0 * log10(max(x * scale, 1e-300)) + 30.0
                        - noise_dbm)
    return draw
