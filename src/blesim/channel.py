"""Channel impairments: noise, block fading, CFO/DC offsets, WLAN interference.

Fading is a block model: one tapped-delay-line realization of one of the
three fixed profiles (ChannelProfile: LOS, NLOS, reverberant) is drawn
per call, from the call's seed, and applied to the whole frame.  Tap delays
are expressed in samples at PROFILE_RATE_HZ and rescaled to the frame's
actual rate so the physical delay spread is the same for every PHY mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import LengthError, ParamError
from .gmsk import IqFrame, phase_ramp, serial_matmul


def measured_power(samples: np.ndarray) -> float:
    """Mean power over active (non-padding) samples, those above 1e-12 of
    the peak power; 0 for an empty frame."""
    power = np.abs(samples)
    np.multiply(power, power, out=power)
    floor = power.max(initial=0.0) * 1e-12
    if power.size and power.min() > floor:
        return float(np.mean(power))
    active = power[power > floor]
    if not active.size:
        return 0.0
    return float(np.mean(active))


def awgn(frame: IqFrame, snr_db: float, seed: int,
         p_sig: float | None = None) -> IqFrame:
    """Add complex white Gaussian noise at the requested measured SNR.

    SNR is defined against the mean power of the active part of the frame,
    measured_power(frame.samples), which a caller that already has it may
    pass as p_sig; noise covers every sample.  snr_db=inf returns the
    frame unchanged.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return frame.replace(frame.samples.copy())
    if p_sig is None:
        p_sig = measured_power(frame.samples)
    if p_sig == 0.0:
        return frame.replace(frame.samples.copy())
    sigma2 = p_sig * 10.0 ** (-snr_db / 10.0)
    noisy = np.multiply(_unit_noise(seed, len(frame)), np.sqrt(sigma2 / 2.0))
    return frame.replace(np.add(frame.samples, noisy, out=noisy))


# A campaign adds one frame's noise at each of its sweep points in turn,
# so the last draw is the one to keep.
@lru_cache(maxsize=1)
def _unit_noise(seed: int, n: int) -> np.ndarray:
    """n samples of complex Gaussian noise, variance 1 per component;
    read-only."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise.flags.writeable = False
    return noise


# Tap delays count samples at 8 Msps, the 1 Msym/s modes' rate.
PROFILE_RATE_HZ = 8e6


class ChannelProfile(Enum):
    """The three propagation environments a scenario can fade with: LOS,
    one dominant path with a mild diffuse component (K 10 dB); NLOS, eight
    Rayleigh taps with an exponential decay, ~0.5 us RMS spread; and
    REVERBERANT, dense uniform Rayleigh taps, as in a highly reflective
    cavity.

    `taps` holds (delay in samples at PROFILE_RATE_HZ, relative power in
    dB) pairs; powers are normalized to unit average gain when the profile
    is applied.  A Rician K factor (dB) puts a fixed-phase deterministic
    component on the first tap; None means pure Rayleigh on every tap.
    """

    LOS = "los"
    NLOS = "nlos"
    REVERBERANT = "reverberant"

    @property
    def taps(self) -> tuple:
        return _PROFILES[self][0]

    @property
    def rician_k_db(self) -> float | None:
        return _PROFILES[self][1]


# Each profile's taps and Rician K factor.
_PROFILES = {
    ChannelProfile.LOS: (((0, 0.0),), 10.0),
    ChannelProfile.NLOS: (
        tuple((d, -10.0 * (d / 6.0) / np.log(10.0)) for d in range(0, 16, 2)),
        None),
    ChannelProfile.REVERBERANT: (tuple((d, 0.0) for d in range(32)), None),
}


def los_profile() -> ChannelProfile:
    return ChannelProfile.LOS


def nlos_profile() -> ChannelProfile:
    return ChannelProfile.NLOS


def reverberant_profile() -> ChannelProfile:
    return ChannelProfile.REVERBERANT


@lru_cache(maxsize=16)
def _tap_table(profile: ChannelProfile, sample_rate: float):
    """A profile's tap delays in samples at sample_rate and its tap
    amplitudes, the root of powers normalized to unit average gain;
    read-only."""
    scale = sample_rate / PROFILE_RATE_HZ
    delays = np.array([int(round(d * scale)) for d, _ in profile.taps])
    powers = np.array([10.0 ** (p / 10.0) for _, p in profile.taps])
    powers /= powers.sum()
    amplitudes = np.sqrt(powers)
    for table in delays, amplitudes:
        table.setflags(write=False)
    return delays, amplitudes


def channel_realization(profile: ChannelProfile, sample_rate: float,
                        seed: int) -> np.ndarray:
    """Draw one complex impulse response at the given sample rate.

    Each tap's diffuse part is a pair of standard normals, drawn for all
    taps at once in tap order: the values of one scalar draw each.  The
    Rician profile, LOS, has one tap, so its phase, drawn next, follows
    tap 0's pair.  Taps whose delays round to the same sample add up, in
    tap order.
    """
    rng = np.random.default_rng(seed)
    delays, amplitudes = _tap_table(profile, sample_rate)
    coeff = rng.standard_normal(2 * delays.size).view(complex) / np.sqrt(2.0)
    k_db = profile.rician_k_db
    if k_db is not None:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        k = 10.0 ** (k_db / 10.0)
        coeff[0] = (np.sqrt(k / (k + 1.0)) * np.exp(1j * theta)
                    + coeff[0] / np.sqrt(k + 1.0))
    cir = np.zeros(delays.max() + 1, dtype=np.complex128)
    np.add.at(cir, delays, coeff * amplitudes)
    return cir


def fade(frame: IqFrame, profile: ChannelProfile, seed: int) -> IqFrame:
    """Apply one block-fading realization; output grows by the delay spread."""
    cir = channel_realization(profile, frame.sample_rate, seed)
    if cir.size >= len(frame):
        raise ParamError(
            f"delay spread {cir.size} samples exceeds frame length {len(frame)}"
        )
    return frame.replace(np.convolve(frame.samples, cir))


def apply_cfo(frame: IqFrame, offset_hz: float) -> IqFrame:
    """Rotate the frame by a carrier frequency offset."""
    if abs(offset_hz) >= frame.sample_rate / 2.0:
        raise ParamError(
            f"offset {offset_hz} Hz outside +-fs/2 ({frame.sample_rate / 2.0} Hz)"
        )
    ramp = phase_ramp(2.0 * np.pi * offset_hz / frame.sample_rate, 0, len(frame))
    return frame.replace(np.multiply(frame.samples, ramp, out=ramp))


def apply_dc(frame: IqFrame, dc_dbc: float, phase_rad: float = 0.0) -> IqFrame:
    """Add a constant complex offset, dc_dbc relative to the signal RMS."""
    rms = np.sqrt(measured_power(frame.samples))
    dc = rms * 10.0 ** (dc_dbc / 20.0) * np.exp(1j * phase_rad)
    return frame.replace(frame.samples + dc)


# The interferer is one 802.11a/g OFDM signal (IEEE 802.11-2020, clause
# 17), 20 MHz wide, centred on the BLE channel and never gated: 64
# subcarriers, of which +-1..+-26 carry data, and a symbol of 80 /
# bandwidth, a 16-sample cyclic prefix plus 64 samples at the nominal
# rate.  At fs a symbol is fs / 250 kHz samples.
WLAN_BANDWIDTH_HZ = 20e6
_OFDM_SYMBOL_RATE = WLAN_BANDWIDTH_HZ / 80.0
_SUBCARRIERS = np.concatenate([np.arange(1, 27), np.arange(-26, 0)])
_FREQS = _SUBCARRIERS * (WLAN_BANDWIDTH_HZ / 64.0)
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class InterfererConfig:
    """The WLAN interferer, which has nothing to set: a scenario holds one
    to say that its frames meet the interferer."""


def _kept_subcarriers(fs: float) -> np.ndarray:
    """Mask over _SUBCARRIERS of those strictly inside +-fs/2."""
    return np.abs(_FREQS) < fs / 2.0


# A campaign runs at two rates at most, 8 and 16 Msps.
@lru_cache(maxsize=8)
def _ofdm_tones(fs: float) -> tuple:
    """What every draw at fs shares: the kept-subcarrier mask and the
    basis, the kept tones over one symbol's samples, timed from the end
    of the cyclic prefix and scaled so that all 52 tones together have
    unit power.  The arrays are read-only.
    """
    kept = _kept_subcarriers(fs)
    per_symbol = int(fs // _OFDM_SYMBOL_RATE)
    # The prefix lasts 16 / bandwidth, a fifth of a symbol.
    t = np.arange(per_symbol) - per_symbol / 5.0
    step = 2.0 * np.pi * _FREQS[kept] / fs
    basis = np.exp(1j * np.outer(step, t)) / np.sqrt(_SUBCARRIERS.size)
    for a in (kept, basis):
        a.flags.writeable = False
    return kept, basis


def interferer_at_rate(n_samples: int, fs: float, seed: int) -> IqFrame:
    """The WLAN interferer, synthesised at sample rate fs.

    Each symbol draws random QPSK on all 52 subcarriers, so a symbol's
    data does not depend on fs; only the subcarriers whose frequency
    (k * 312.5 kHz) lies inside +-fs/2 are synthesised.  fs must be a
    whole multiple of 250 kHz, so that a symbol is a whole number of
    samples.  The mean power is interferer_inband_fraction(fs): 1 with
    all 52 subcarriers kept.
    """
    if n_samples <= 0:
        raise ParamError("n_samples must be positive")
    if not (fs >= _OFDM_SYMBOL_RATE and fs % _OFDM_SYMBOL_RATE == 0.0):
        raise ParamError(f"sample rate {fs!r} Hz is no whole multiple of "
                         f"{_OFDM_SYMBOL_RATE:g} Hz")
    rng = np.random.default_rng(seed)
    kept, basis = _ofdm_tones(fs)
    n_syms = (n_samples - 1) // basis.shape[1] + 1
    symbols = _QPSK[rng.integers(0, 4, size=(n_syms, _SUBCARRIERS.size))[:, kept]]
    # The samples are one product's, bit for bit, on the calling thread.
    rows = np.empty((n_syms, basis.shape[1]), complex)
    serial_matmul(symbols, basis, rows)
    return IqFrame(rows.ravel()[:n_samples], fs, WLAN_BANDWIDTH_HZ / 64.0)


def mix(signal: IqFrame, interferer: IqFrame, sir_db: float,
        p_sig: float | None = None, p_int: float | None = None) -> IqFrame:
    """Add the interferer, sample for sample, scaled so active-sample
    powers obey the target SIR; sir_db=inf adds nothing.  p_sig and
    p_int, if given, are measured_power(signal.samples) and
    measured_power(interferer.samples)."""
    if interferer.sample_rate != signal.sample_rate:
        raise ParamError(
            f"signal at {signal.sample_rate} Hz, interferer at "
            f"{interferer.sample_rate} Hz"
        )
    if len(interferer) != len(signal):
        raise LengthError(
            f"signal has {len(signal)} samples, interferer {len(interferer)}")
    if np.isinf(sir_db) and sir_db > 0:
        return signal.replace(signal.samples.copy())
    if p_sig is None:
        p_sig = measured_power(signal.samples)
    if p_int is None:
        p_int = measured_power(interferer.samples)
    if p_int == 0.0:
        return signal.replace(signal.samples.copy())
    alpha = np.sqrt(p_sig / (p_int * 10.0 ** (sir_db / 10.0)))
    mixed = np.multiply(alpha, interferer.samples)
    return signal.replace(np.add(signal.samples, mixed, out=mixed))


def interferer_inband_fraction(fs: float) -> float:
    """Share of the interferer's 52 subcarriers that interferer_at_rate
    synthesises at fs: those inside +-fs/2.

    Campaigns quote SIR against the full interferer power the way a lab
    sets transmit gains; mix() measures only what lands in the simulated
    band, so its target must be offset by this fraction.
    """
    return np.count_nonzero(_kept_subcarriers(fs)) / _SUBCARRIERS.size
