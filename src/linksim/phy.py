"""IEEE 802.11a PHY: mode table, frame airtime, and the SNR->FER chain.

The frame error model follows the NIST-validated OFDM formulation: raw BER
per modulation via erfc, first-event error probability of the K=7
convolutional code via the Chernoff-bounded union sum over the distance
spectrum, then frame success as (1-pe)^bits over the data bits.
"""

from __future__ import annotations

import math
from enum import Enum

from .record import Frozen

PREAMBLE_US = 20        # PLCP preamble + SIGNAL
SYMBOL_US = 4
SERVICE_BITS = 16
TAIL_BITS = 6


class Modulation(Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"


class PhyMode(Frozen):
    id: int
    modulation: Modulation
    coding_rate: str
    data_rate_mbps: int
    n_dbps: int           # data bits per 4 µs OFDM symbol

    def __str__(self) -> str:
        return f"{self.data_rate_mbps}Mbps"


MODES: tuple[PhyMode, ...] = (
    PhyMode(0, Modulation.BPSK, "1/2", 6, 24),
    PhyMode(1, Modulation.BPSK, "3/4", 9, 36),
    PhyMode(2, Modulation.QPSK, "1/2", 12, 48),
    PhyMode(3, Modulation.QPSK, "3/4", 18, 72),
    PhyMode(4, Modulation.QAM16, "1/2", 24, 96),
    PhyMode(5, Modulation.QAM16, "3/4", 36, 144),
    PhyMode(6, Modulation.QAM64, "2/3", 48, 192),
    PhyMode(7, Modulation.QAM64, "3/4", 54, 216),
)

_MODE_BY_RATE = {m.data_rate_mbps: m for m in MODES}


def mode_for_rate(data_rate_mbps: int) -> PhyMode:
    try:
        return _MODE_BY_RATE[data_rate_mbps]
    except KeyError:
        rates = sorted(_MODE_BY_RATE)
        raise ValueError(
            f"no 802.11a mode at {data_rate_mbps} Mbit/s (valid: {rates})"
        ) from None


# Distance spectra of the industry-standard K=7, rate-1/2 convolutional code
# and its punctured 2/3 and 3/4 variants, as tabulated in the NIST OFDM error
# model validation: (per-info-bit scale 1/(2b), free distance, distance step,
# first ten spectrum coefficients). The rate-1/2 spectrum has only even
# distances, hence step 2.
_CODE_TABLE: dict[str, tuple[float, int, int, tuple[int, ...]]] = {
    "1/2": (1 / 2, 10, 2, (36, 211, 1404, 11633, 77433, 502690, 3322763,
                           21292910, 134365911, 843425871)),
    "2/3": (1 / 4, 6, 1, (3, 70, 285, 1276, 6160, 27128, 117019,
                          498860, 2103891, 8784123)),
    "3/4": (1 / 6, 5, 1, (42, 201, 1492, 10469, 62935, 379644, 2253373,
                          13073811, 75152755, 428005675)),
}


def frame_duration_us(payload_bytes: int, mode: PhyMode) -> int:
    """Airtime of one PPDU carrying payload_bytes of MPDU data."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    bits = SERVICE_BITS + 8 * payload_bytes + TAIL_BITS
    n_symbols = -(-bits // mode.n_dbps)
    return PREAMBLE_US + SYMBOL_US * n_symbols


def bit_error_rate(snr_linear: float, modulation: Modulation) -> float:
    """Raw (pre-decoding) BER for the given modulation at a linear SNR."""
    if snr_linear < 0:
        raise ValueError("snr_linear must be >= 0")
    if modulation is Modulation.BPSK:
        ber = 0.5 * math.erfc(math.sqrt(snr_linear))
    elif modulation is Modulation.QPSK:
        ber = 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))
    elif modulation is Modulation.QAM16:
        ber = (3.0 / 8.0) * math.erfc(math.sqrt(snr_linear / 10.0))
    else:
        ber = (7.0 / 24.0) * math.erfc(math.sqrt(snr_linear / 42.0))
    return min(max(ber, 0.0), 0.5)


def _first_event_error(ber: float, coding_rate: str) -> float:
    scale, d_free, step, coeffs = _CODE_TABLE[coding_rate]
    d_factor = math.sqrt(4.0 * ber * (1.0 - ber))
    total = 0.0
    power = d_factor ** d_free
    step_factor = d_factor ** step
    for a in coeffs:
        total += a * power
        power *= step_factor
    return min(scale * total, 1.0)


def frame_success_probability(snr_db: float, mode: PhyMode,
                              payload_bytes: int) -> float:
    """Probability that a payload_bytes frame at mode survives snr_db intact."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    ber = bit_error_rate(10.0 ** (snr_db / 10.0), mode.modulation)
    if ber == 0.0:
        return 1.0
    pe = _first_event_error(ber, mode.coding_rate)
    return (1.0 - pe) ** (8 * payload_bytes)


DELIVERED = "delivered"
CORRUPTED = "corrupted"

# Bracket table for receive: (mode id, frame bytes, k) -> (p(k/10) - eps,
# p((k+1)/10) + eps), filled lazily. Every entry is a pure function of its
# key, so sharing it across stations and runs changes no outcome.
_BRACKETS: dict[tuple[int, int, float], tuple[float, float]] = {}
# Covers float rounding in k and in p, which is nondecreasing in SNR only up
# to the last bits; far above the ~1e-16 either can be off by.
_BRACKET_EPS = 1e-9


def receive(frame_bytes: int, mode: PhyMode, snr_db: float, rng,
            memo: dict | None = None) -> str:
    """Stochastic reception decision: DELIVERED iff the stream draw < p(success).

    Exactly one draw u is taken from rng. With memo None, p is computed
    exactly. Otherwise memo maps (mode id, frame_bytes) to the last SNR
    seen for that pair: one entry per pair however many SNRs pass through
    it. A repeated SNR (static link, held trace sample) uses its exact p,
    computed on the second sight and kept in the entry. A new SNR (fading)
    is decided against its 0.1 dB bin k = floor(10 * snr_db) in a shared
    table that holds p at both bin edges, widened by _BRACKET_EPS: u below
    the low edge is DELIVERED, u at or above the high edge is CORRUPTED,
    and only a u in between computes p exactly. The decision is the same as
    u < p because p is nondecreasing in SNR, so p(k/10) <= p(snr_db) <=
    p((k+1)/10).
    """
    u = rng.random()
    if memo is None:
        p = frame_success_probability(snr_db, mode, frame_bytes)
        return DELIVERED if u < p else CORRUPTED
    key = (mode.id, frame_bytes)
    last = memo.get(key)
    if last is not None and last[0] == snr_db:
        p = last[1]
        if p is None:
            p = frame_success_probability(snr_db, mode, frame_bytes)
            memo[key] = (snr_db, p)
        return DELIVERED if u < p else CORRUPTED
    memo[key] = (snr_db, None)
    k = snr_db * 10.0 // 1.0
    bin_key = (mode.id, frame_bytes, k)
    edges = _BRACKETS.get(bin_key)
    if edges is None:
        if k != k:   # an infinite SNR has no bin; nan keys would never match
            p = frame_success_probability(snr_db, mode, frame_bytes)
            return DELIVERED if u < p else CORRUPTED
        edges = _BRACKETS[bin_key] = (
            frame_success_probability(k / 10.0, mode, frame_bytes)
            - _BRACKET_EPS,
            frame_success_probability((k + 1.0) / 10.0, mode, frame_bytes)
            + _BRACKET_EPS)
    if u < edges[0]:
        return DELIVERED
    if u >= edges[1]:
        return CORRUPTED
    p = frame_success_probability(snr_db, mode, frame_bytes)
    return DELIVERED if u < p else CORRUPTED
