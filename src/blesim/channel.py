"""Channel impairments: noise, block fading, CFO/DC offsets, WLAN interference.

Fading is a block model: one tapped-delay-line realization is drawn per
call and applied to the whole frame.  Tap delays are expressed in samples
at a profile reference rate (8 Msps by default) and rescaled to the
frame's actual rate so the physical delay spread is the same for every
PHY mode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import ifft

from .errors import ParamError, ProfileError, RateMismatchError
from .gmsk import IqFrame, resample


def _active_mask(samples: np.ndarray) -> np.ndarray:
    power = np.abs(samples) ** 2
    peak = power.max(initial=0.0)
    return power > peak * 1e-12


def measured_power(samples: np.ndarray) -> float:
    """Mean power over active (non-padding) samples; 0 for an empty frame."""
    mask = _active_mask(samples)
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(samples[mask]) ** 2))


def awgn(frame: IqFrame, snr_db: float, seed: int) -> IqFrame:
    """Add complex white Gaussian noise at the requested measured SNR.

    SNR is defined against the mean power of the active part of the frame;
    noise covers every sample.  snr_db=inf returns the frame unchanged.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return frame.replace(frame.samples.copy())
    p_sig = measured_power(frame.samples)
    if p_sig == 0.0:
        return frame.replace(frame.samples.copy())
    rng = np.random.default_rng(seed)
    sigma2 = p_sig * 10.0 ** (-snr_db / 10.0)
    n = len(frame)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return frame.replace(frame.samples + noise * np.sqrt(sigma2 / 2.0))


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped-delay-line description of a propagation environment.

    `taps` holds (delay in samples at reference_rate_hz, relative power in
    dB) pairs; powers are normalized to unit average gain when the profile
    is applied.  A Rician K factor (dB) puts a fixed-phase deterministic
    component on the first tap; None means pure Rayleigh on every tap.
    """

    kind: str
    taps: tuple = ((0, 0.0),)
    rician_k_db: float | None = None
    reference_rate_hz: float = 8e6
    seed: int = 0

    def __post_init__(self):
        if not self.taps:
            raise ProfileError("profile needs at least one tap")
        delays = [d for d, _ in self.taps]
        if any(d < 0 for d in delays):
            raise ProfileError("tap delays must be non-negative")
        if len(set(delays)) != len(delays):
            raise ProfileError("duplicate tap delays")
        # Levels within 300 dB keep 10**(dB/10) a finite float.
        k = self.rician_k_db
        if not (all(int(d) == d and abs(p) <= 300.0 for d, p in self.taps)
                and (k is None or abs(k) <= 300.0 or k == math.inf)
                and 0.0 < self.reference_rate_hz < math.inf):
            raise ProfileError("need whole-sample delays, powers and K within 300 "
                               "dB (or K inf), and a positive reference rate")

    def with_seed(self, seed: int) -> "ChannelProfile":
        return ChannelProfile(
            self.kind, self.taps, self.rician_k_db, self.reference_rate_hz, seed
        )


def los_profile(rician_k_db: float = 10.0, seed: int = 0) -> ChannelProfile:
    """Single dominant path with a mild diffuse component."""
    return ChannelProfile("los", ((0, 0.0),), rician_k_db, seed=seed)


def nlos_profile(seed: int = 0) -> ChannelProfile:
    """Eight Rayleigh taps with an exponential decay, ~0.5 us RMS spread."""
    taps = tuple((d, -10.0 * (d / 6.0) / np.log(10.0)) for d in range(0, 16, 2))
    return ChannelProfile("nlos", taps, None, seed=seed)


def reverberant_profile(seed: int = 0) -> ChannelProfile:
    """Dense uniform Rayleigh taps, as in a highly reflective cavity."""
    taps = tuple((d, 0.0) for d in range(32))
    return ChannelProfile("reverberant", taps, None, seed=seed)


def channel_realization(profile: ChannelProfile, sample_rate: float) -> np.ndarray:
    """Draw one complex impulse response at the given sample rate."""
    rng = np.random.default_rng(profile.seed)
    scale = sample_rate / profile.reference_rate_hz
    delays = np.array([int(round(d * scale)) for d, _ in profile.taps])
    powers = np.array([10.0 ** (p / 10.0) for _, p in profile.taps])
    powers /= powers.sum()  # unit average gain

    cir = np.zeros(delays.max() + 1, dtype=np.complex128)
    for i, (d, p) in enumerate(zip(delays, powers)):
        diffuse = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
        if i == 0 and profile.rician_k_db is not None:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            if np.isinf(profile.rician_k_db):
                coeff = np.exp(1j * theta)
            else:
                k = 10.0 ** (profile.rician_k_db / 10.0)
                coeff = np.sqrt(k / (k + 1.0)) * np.exp(1j * theta) + diffuse / np.sqrt(
                    k + 1.0
                )
        else:
            coeff = diffuse
        cir[d] += coeff * np.sqrt(p)
    return cir


def fade(frame: IqFrame, profile: ChannelProfile) -> IqFrame:
    """Apply one block-fading realization; output grows by the delay spread."""
    cir = channel_realization(profile, frame.sample_rate)
    if cir.size >= len(frame):
        raise ProfileError(
            f"delay spread {cir.size} samples exceeds frame length {len(frame)}"
        )
    return frame.replace(np.convolve(frame.samples, cir))


def apply_cfo(frame: IqFrame, offset_hz: float) -> IqFrame:
    """Rotate the frame by a carrier frequency offset."""
    if abs(offset_hz) >= frame.sample_rate / 2.0:
        raise ParamError(
            f"offset {offset_hz} Hz outside +-fs/2 ({frame.sample_rate / 2.0} Hz)"
        )
    n = np.arange(len(frame))
    return frame.replace(
        frame.samples * np.exp(2j * np.pi * offset_hz * n / frame.sample_rate)
    )


def apply_dc(frame: IqFrame, dc_dbc: float, phase_rad: float = 0.0) -> IqFrame:
    """Add a constant complex offset, dc_dbc relative to the signal RMS."""
    rms = np.sqrt(measured_power(frame.samples))
    dc = rms * 10.0 ** (dc_dbc / 20.0) * np.exp(1j * phase_rad)
    return frame.replace(frame.samples + dc)


@dataclass(frozen=True)
class InterfererConfig:
    """OFDM interferer knobs (64 subcarriers, 52 occupied, CP 1/4)."""

    bandwidth_hz: float = 20e6
    center_offset_hz: float = 0.0
    duty_cycle: float = 1.0
    burst_symbols: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ParamError(f"duty cycle {self.duty_cycle} outside [0, 1]")
        # At least 1 MHz keeps the generator's 64-bin FFT small.
        if not (1e6 <= self.bandwidth_hz < math.inf
                and abs(self.center_offset_hz) < math.inf):
            raise ParamError("bandwidth must be 1 MHz or more, the offset finite")
        if self.duty_cycle and not 1 <= self.burst_symbols <= 2**31 * self.duty_cycle:
            raise ParamError("bursts must hold 1 or more symbols, period below 2^31")

    def with_seed(self, seed: int) -> "InterfererConfig":
        return InterfererConfig(
            self.bandwidth_hz,
            self.center_offset_hz,
            self.duty_cycle,
            self.burst_symbols,
            seed,
        )


def wlan_interferer(n_samples: int, config: InterfererConfig, fs: float) -> IqFrame:
    """Generate an OFDM interference burst train at sample rate fs.

    Subcarrier spacing is bandwidth/64 with subcarriers +-1..+-26 carrying
    random QPSK, so the occupied band is 52/64 of the nominal bandwidth.
    duty_cycle gates the stream into bursts of `burst_symbols` OFDM symbols.
    """
    if fs < config.bandwidth_hz:
        raise ParamError(
            f"fs {fs} Hz cannot represent a {config.bandwidth_hz} Hz interferer"
        )
    if abs(config.center_offset_hz) + config.bandwidth_hz / 2.0 > fs / 2.0:
        raise ParamError("interferer band exceeds Nyquist at this offset")
    if n_samples <= 0:
        raise ParamError("n_samples must be positive")
    rng = np.random.default_rng(config.seed)
    if config.duty_cycle == 0.0:
        return IqFrame(np.zeros(n_samples, dtype=np.complex128), fs, config.bandwidth_hz / 64.0)

    spacing = config.bandwidth_hz / 64.0
    n_fft = int(round(fs / spacing))
    cp = n_fft // 4
    sym_len = n_fft + cp
    n_syms = -(-n_samples // sym_len)

    occupied = np.concatenate([np.arange(1, 27), np.arange(-26, 0)])
    bins = occupied % n_fft
    qpsk_lut = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

    spec = np.zeros((n_syms, n_fft), dtype=np.complex128)
    spec[:, bins] = qpsk_lut[rng.integers(0, 4, size=(n_syms, bins.size))]
    out = np.empty((n_syms, sym_len), dtype=np.complex128)
    out[:, cp:] = ifft(spec, axis=1, overwrite_x=True)
    out[:, cp:] *= np.sqrt(n_fft**2 / bins.size)
    out[:, :cp] = out[:, -cp:]
    out = out.ravel()[:n_samples]

    if config.duty_cycle < 1.0:
        burst_on = config.burst_symbols * sym_len
        period = int(round(burst_on / config.duty_cycle))
        start = int(rng.integers(0, period))
        gate = ((np.arange(n_samples) + start) % period) < burst_on
        out = out * gate
    if config.center_offset_hz:
        n = np.arange(n_samples)
        out = out * np.exp(2j * np.pi * config.center_offset_hz * n / fs)
    return IqFrame(out, fs, config.bandwidth_hz / 64.0)


def mix(signal: IqFrame, interferer: IqFrame, sir_db: float) -> IqFrame:
    """Add the interferer scaled so active-sample powers obey the target SIR."""
    if np.isinf(sir_db) and sir_db > 0:
        return signal.replace(signal.samples.copy())
    if interferer.sample_rate != signal.sample_rate:
        raise RateMismatchError(
            f"signal at {signal.sample_rate} Hz, interferer at "
            f"{interferer.sample_rate} Hz"
        )
    reps = -(-len(signal) // len(interferer))
    inter = np.tile(interferer.samples, reps)[: len(signal)]
    p_sig = measured_power(signal.samples)
    p_int = measured_power(inter)
    if p_int == 0.0:
        return signal.replace(signal.samples.copy())
    alpha = np.sqrt(p_sig / (p_int * 10.0 ** (sir_db / 10.0)))
    return signal.replace(signal.samples + alpha * inter)


def interferer_inband_fraction(config: InterfererConfig, fs: float) -> float:
    """Fraction of the interferer's occupied-band power inside +-fs/2.

    The occupied band is flat (52 of 64 subcarriers), so the fraction is
    the simple overlap ratio.  Campaigns quote SIR against the full
    interferer power the way a lab sets transmit gains; mix() measures
    only what survives band-limiting, so its target must be offset by
    this fraction.
    """
    occupied = config.bandwidth_hz * 52.0 / 64.0
    lo = config.center_offset_hz - occupied / 2.0
    hi = config.center_offset_hz + occupied / 2.0
    width = max(0.0, min(hi, fs / 2.0) - max(lo, -fs / 2.0))
    return width / occupied


# Rate at which interferer_at_rate generates an interferer wider than fs.
INTERFERER_GEN_RATE_HZ = 40e6


def interferer_at_rate(
    n_samples: int, config: InterfererConfig, fs: float,
    gen_fs: float = INTERFERER_GEN_RATE_HZ,
) -> IqFrame:
    """Interferer wider than fs: generate at gen_fs, then resample down.

    Only the in-band part of the interferer survives; mix() rescales power
    to the requested SIR afterwards, so SIR always refers to what lands in
    the simulated band.
    """
    if fs >= config.bandwidth_hz:
        return wlan_interferer(n_samples, config, fs)
    n_wide = int(np.ceil(n_samples * gen_fs / fs)) + 64
    wide = wlan_interferer(n_wide, config, gen_fs)
    narrow = resample(wide, fs)
    return IqFrame(narrow.samples[:n_samples], fs, wide.symbol_rate)
