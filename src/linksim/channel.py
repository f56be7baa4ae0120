"""Receiver SNR production: trace replay or analytic propagation models.

Analytic mode composes tx power, per-end RF gain, a path loss model (Friis
free space or log-distance), optional Nakagami-m fast fading on the linear
received power, and thermal noise. Trace replay bypasses all of it and
returns recorded values verbatim.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from numbers import Real
from typing import Callable

from .engine import RngStream
from .record import Frozen, Record
from .traces import DirectedLink, MobilityTrace, SnrTrace

SPEED_OF_LIGHT = 299_792_458.0
MIN_FRIIS_DISTANCE_M = 0.5   # near-field guard


def check_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


class RadioParams(Frozen):
    tx_power_dbm: float = 17.0
    rf_gain_db_per_end: float = -7.0   # antenna gain minus inline attenuator
    bandwidth_hz: float = 20e6
    center_freq_hz: float = 5.22e9
    noise_figure_db: float = 7.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            check_real(name, value)
        if not 0.0 <= self.tx_power_dbm <= 17.0:
            raise ValueError(f"tx_power_dbm out of [0, 17]: {self.tx_power_dbm}")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        if not self.center_freq_hz > 0:
            raise ValueError("center_freq_hz must be > 0")


TRACE = "trace"
FRIIS = "friis"
LOGDIST = "logdist"


class PropagationSpec(Frozen):
    """Which SNR source drives the link: trace replay or an analytic model."""

    model: str
    trace: SnrTrace | None = None
    gamma: float = 2.0
    ref_distance_m: float = 1.0
    nakagami_m: float | None = None

    def __post_init__(self) -> None:
        if self.model not in (TRACE, FRIIS, LOGDIST):
            raise ValueError(f"unknown propagation model {self.model!r}")
        if self.model == TRACE:
            if self.trace is None:
                raise ValueError("trace model requires an SnrTrace")
            if self.nakagami_m is not None:
                raise ValueError("trace replay admits no fading overlay")
        else:
            if self.trace is not None:
                raise ValueError(f"{self.model} model must not carry a trace")
        check_real("gamma", self.gamma)
        check_real("ref_distance_m", self.ref_distance_m)
        if self.nakagami_m is not None:
            check_real("nakagami_m", self.nakagami_m)
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.ref_distance_m > 0:
            raise ValueError("ref_distance_m must be > 0")
        if self.nakagami_m is not None and not self.nakagami_m >= 0.5:
            raise ValueError("nakagami_m must be >= 0.5")


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


def apply_nakagami(power_w: float, m: float, rng: RngStream) -> float:
    """One Nakagami-m block-fading draw: gamma with shape m, mean power_w."""
    if power_w < 0:
        raise ValueError("power_w must be >= 0")
    if not m >= 0.5:
        raise ValueError("m must be >= 0.5")
    if power_w == 0.0:
        return 0.0
    return rng.gamma(m, power_w / m)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise floor: -174 dBm/Hz integrated over the bandwidth plus NF."""
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def w_to_dbm(w: float) -> float:
    return 10.0 * math.log10(max(w, 1e-300)) + 30.0


def mean_rx_power_dbm(spec: PropagationSpec, params: RadioParams,
                      d_m: float) -> float:
    """Received power in dBm at distance d_m before any fading draw."""
    if spec.model == FRIIS:
        loss_db = friis_path_loss(d_m, params.center_freq_hz)
    else:
        loss_db = log_distance_path_loss(
            d_m, spec.gamma, spec.ref_distance_m, params.center_freq_hz
        )
    return params.tx_power_dbm + 2.0 * params.rf_gain_db_per_end - loss_db


def link_snr(spec: PropagationSpec, params: RadioParams, link: DirectedLink,
             mobility: MobilityTrace, t_us: int,
             fading_rng: RngStream | None = None) -> float:
    """Receiver SNR in dB for one frame on link at t_us, of an analytic model.

    The rx power follows from the distance at t_us; when fading is
    configured a fresh draw is taken from fading_rng (one per frame).
    """
    d_m = mobility.link_distance(link.tx, link.rx, t_us)
    rx_dbm = mean_rx_power_dbm(spec, params, d_m)
    if spec.nakagami_m is not None:
        if fading_rng is None:
            raise ValueError("fading configured but no fading stream supplied")
        rx_dbm = w_to_dbm(apply_nakagami(dbm_to_w(rx_dbm), spec.nakagami_m,
                                         fading_rng))
    return rx_dbm - noise_power_dbm(params.bandwidth_hz, params.noise_figure_db)


class Channel(Record):
    """SNR source for one simulation instance, made with its run's seed.

    Each link has one source, a function of the frame time in µs that
    returns the SNR in dB, built at the link's first frame: a replayed link
    holds its trace's last sample, a link whose nodes never move keeps its
    link budget (and takes one fading draw per frame when fading is
    configured), and a link with a moving node runs ``link_snr``. The
    channel owns the per-link fading streams, rooted at ``seed``, so that
    replaying a recorded trace consumes exactly the same non-fading streams
    as the original run. A fresh channel starts every stream afresh.
    """

    spec: PropagationSpec
    params: RadioParams
    mobility: MobilityTrace
    seed: int

    def __post_init__(self) -> None:
        self._sources: dict[DirectedLink, Callable[[int], float]] = {}

    def snr(self, link: DirectedLink, t_us: int) -> float:
        source = self._sources.get(link)
        if source is None:
            source = self._sources[link] = self._source(link)
        return source(t_us)

    def _source(self, link: DirectedLink) -> Callable[[int], float]:
        spec = self.spec
        if spec.model == TRACE:
            times, values = spec.trace.series(link)
            # SnrTrace.snr_at, inlined as this runs once per frame
            return lambda t_us: values[max(bisect_right(times, t_us) - 1, 0)]
        m = spec.nakagami_m
        rng = None if m is None else RngStream(self.seed, f"fading.{link}")
        mobility = self.mobility
        if not mobility.is_static(link.tx) or not mobility.is_static(link.rx):
            return lambda t_us: link_snr(spec, self.params, link, mobility,
                                         t_us, rng)
        params = self.params
        d_m = mobility.link_distance(link.tx, link.rx, 0)
        rx_dbm = mean_rx_power_dbm(spec, params, d_m)
        noise_dbm = noise_power_dbm(params.bandwidth_hz, params.noise_figure_db)
        snr_db = rx_dbm - noise_dbm
        if m is not None:
            power_w = dbm_to_w(rx_dbm)
            if power_w > 0.0:
                gamma, scale = rng.gamma, power_w / m
                # w_to_dbm(apply_nakagami(power_w, m, rng)) - noise, inlined
                return lambda t_us: (10.0 * math.log10(
                    max(gamma(m, scale), 1e-300)) + 30.0 - noise_dbm)
            snr_db = w_to_dbm(0.0) - noise_dbm   # apply_nakagami draws nothing
        return lambda t_us: snr_db
