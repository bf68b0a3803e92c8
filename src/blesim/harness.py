"""Monte Carlo packet-error-rate campaigns.

A scenario fixes the link (PHY modes, PDU size, channel or hop schedule)
and the impairments (fading profile, CFO/DC ranges, optional interferer),
then sweeps SNR and optionally SIR.  Every frame draws its randomness
from a seed derived from (campaign seed, scenario id, mode, sweep point,
frame index), so results are bit-identical no matter how the frames are
distributed over worker processes.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .bits import random_bits
from .channel import (
    INTERFERER_GEN_RATE_HZ,
    ChannelProfile,
    InterfererConfig,
    apply_cfo,
    apply_dc,
    awgn,
    fade,
    interferer_at_rate,
    interferer_inband_fraction,
    los_profile,
    mix,
    nlos_profile,
    reverberant_profile,
)
from .chansel import ChannelMap, HopState, csa1_next, csa2_select
from .coded import assemble_coded
from .errors import BlesimError, ConfigError, InsufficientDataError, IoError
from .gmsk import IqFrame, PulseShape, gaussian_taps, gmsk_modulate
from .llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
    ADVERTISING_CRC_INIT,
    ChannelIndex,
    LinkLayerPacket,
    assemble_uncoded,
)
from .phymode import PhyMode
from .receiver import ReceiverConfig, receive

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "scenario", "phy", "snr_db", "sir_db", "frames",
    "detected", "valid", "per", "wilson_lo", "wilson_hi",
)


@dataclass(frozen=True)
class HoppingConfig:
    algorithm: str = "csa2"
    map_mask: str = "0x1FFFFFFFFF"
    hop_increment: int = 7


# ReceiverConfig fields a scenario's `receiver` object may set; the
# scenario sets the others itself.
_RECEIVER_KEYS = {f.name for f in fields(ReceiverConfig)} - {
    "phy_mode", "expected_access_address", "channel", "pdu_bits", "crc_init",
    "sps",
}


@contextmanager
def _as_config_error():
    """Report any bad-value error raised inside as a ConfigError."""
    try:
        yield
    except (BlesimError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _integer(name: str, value, lo=-math.inf, hi=math.inf) -> int:
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or not lo <= value <= hi):
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _real(name: str, value, lo: float, hi: float) -> float:
    """A number in [lo, hi]; NaN never is."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not lo <= value <= hi):
        raise ConfigError(f"{name} must be a number in [{lo}, {hi}], got {value!r}")
    return float(value)


def _nonempty(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(value)


def _sweep_db(name: str, value) -> tuple:
    # +inf means no noise (SNR) or no interferer power (SIR); finite levels
    # stay within 300 dB so that 10**(dB/10) is a finite float.
    return tuple(
        v if v == math.inf else _real(name, v, -300.0, 300.0)
        for v in _nonempty(name, value)
    )


@dataclass
class ScenarioConfig:
    """One campaign: the link, its impairments and the sweep.

    Construction checks every field, from JSON, the CLI or Python alike,
    and builds once what every frame reuses; a bad value raises
    ConfigError here, never mid-campaign.  Change a field with
    dataclasses.replace, which checks again; attribute assignment does not.
    """

    id: str
    seed: int
    phy_modes: tuple = (PhyMode.LE1M, PhyMode.LE2M, PhyMode.LE500K, PhyMode.LE125K)
    snr_sweep_db: tuple = tuple(float(s) for s in range(0, 21, 2))
    sir_sweep_db: tuple | None = None
    channel: int | None = 37
    hopping: HoppingConfig | None = None
    profile: ChannelProfile | None = None
    interferer: InterfererConfig | None = None
    frames: int = 10000
    pdu_bits: int = 128
    cfo_range_hz: tuple = (-50e3, 50e3)
    dc_dbc: float | None = -20.0
    access_address: int = ADVERTISING_ACCESS_ADDRESS
    crc_init: int = ADVERTISING_CRC_INIT
    sps: int = 8
    receiver: dict = field(default_factory=dict)
    # Built by __post_init__: crc32 of the id, the ReceiverConfig of each
    # mode, the fixed channel, and the hop map plus CSA#1 hop state.
    _id_key: int = field(init=False, repr=False, compare=False)
    _rx: dict = field(init=False, repr=False, compare=False)
    _channel: ChannelIndex | None = field(init=False, repr=False, compare=False)
    _channel_map: ChannelMap | None = field(init=False, repr=False, compare=False)
    _hop: HopState | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with _as_config_error():
            self._check_and_build()

    def _check_and_build(self):
        if not isinstance(self.id, str):
            raise ConfigError(f"id must be a string, got {self.id!r}")
        self._id_key = zlib.crc32(self.id.encode())
        self.seed = _integer("seed", self.seed, 0)
        modes = _nonempty("phy_modes", self.phy_modes)
        self.phy_modes = tuple(PhyMode(m) for m in modes)
        self.snr_sweep_db = _sweep_db("snr_sweep_db", self.snr_sweep_db)
        if (self.sir_sweep_db is None) != (self.interferer is None):
            raise ConfigError("a sir sweep needs an interferer and vice versa")
        if self.sir_sweep_db is not None:
            self.sir_sweep_db = _sweep_db("sir_sweep_db", self.sir_sweep_db)
        self.frames = _integer("frames", self.frames, 1)
        self.pdu_bits = _integer("pdu_bits", self.pdu_bits)
        self.access_address = _integer("access_address", self.access_address,
                                       0, 2**32 - 1)
        self.crc_init = _integer("crc_init", self.crc_init, 0, 2**24 - 1)
        # 64 bounds the samples, and so the memory, of one frame.
        self.sps = _integer("sps", self.sps, 2, 64)
        if self.dc_dbc is not None:
            self.dc_dbc = _real("dc_dbc", self.dc_dbc, -300.0, 300.0)

        self._channel = self._channel_map = self._hop = None
        if (self.channel is None) == (self.hopping is None):
            raise ConfigError("exactly one of channel / hopping must be set")
        if self.channel is not None:
            self._channel = ChannelIndex(_integer("channel", self.channel, 0, 39))
        else:
            hop = self.hopping
            if hop.algorithm not in ("csa1", "csa2"):
                raise ConfigError(f"unknown hop algorithm {hop.algorithm!r}")
            self._channel_map = ChannelMap.from_mask(hop.map_mask)
            increment = _integer("hop_increment", hop.hop_increment)
            if hop.algorithm == "csa1":
                self._hop = HopState(increment)

        if not isinstance(self.receiver, dict) or set(self.receiver) - _RECEIVER_KEYS:
            raise ConfigError(f"receiver must be an object with keys among "
                              f"{sorted(_RECEIVER_KEYS)}, got {self.receiver!r}")
        self._rx = {  # under hopping run_frame sets each frame's channel
            mode: ReceiverConfig(
                phy_mode=mode, expected_access_address=self.access_address,
                channel=37 if self.channel is None else self.channel,
                pdu_bits=self.pdu_bits, crc_init=self.crc_init, sps=self.sps,
                **self.receiver,
            )
            for mode in self.phy_modes
        }

        rates = [mode.symbol_rate * self.sps for mode in self.phy_modes]
        # apply_cfo needs every draw strictly inside +-fs/2.
        nyquist = math.nextafter(min(rates) / 2.0, 0.0)
        cfo = _nonempty("cfo_range_hz", self.cfo_range_hz)
        self.cfo_range_hz = tuple(
            _real("cfo_range_hz", v, -nyquist, nyquist) for v in cfo)
        if len(cfo) != 2 or cfo[0] > cfo[1]:
            raise ConfigError(f"cfo_range_hz must be [lo, hi], lo <= hi, got {cfo!r}")

        for mode, fs in zip(self.phy_modes, rates):
            prof, inter = self.profile, self.interferer
            if prof is not None:
                # fade() needs the impulse response shorter than the frame:
                # 384 padding samples plus at least an uncoded packet.
                taps = round(max(d for d, _ in prof.taps) * fs / prof.reference_rate_hz)
                packet = (mode.preamble_len + 56 + self.pdu_bits) * self.sps
                if taps + 1 >= 384 + packet:
                    raise ConfigError(f"profile delay spread too long for {mode.value}")
            if inter is not None:
                gen_fs = fs if fs >= inter.bandwidth_hz else INTERFERER_GEN_RATE_HZ
                if abs(inter.center_offset_hz) + inter.bandwidth_hz / 2 > gen_fs / 2:
                    raise ConfigError(f"interferer band exceeds Nyquist at "
                                      f"{gen_fs / 1e6:g} MHz")


@dataclass
class PerResult:
    scenario: str
    phy: str
    snr_db: float
    sir_db: float | None
    frames: int
    detected: int
    valid: int
    per: float
    wilson_lo: float
    wilson_hi: float


def wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion."""
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def _frame_channel(cfg: ScenarioConfig, frame_idx: int) -> ChannelIndex:
    if cfg._channel is not None:
        return cfg._channel
    if cfg._hop is None:
        return csa2_select(frame_idx & 0xFFFF, cfg._channel_map, cfg.access_address)
    # CSA#1's state recursion has the closed form used here: after k+1
    # hops the unmapped channel is (k+1)*hop mod 37.
    hop = cfg._hop
    state = replace(hop, last_unmapped=(frame_idx * hop.hop_increment) % 37)
    return csa1_next(state, cfg._channel_map)[0]


@lru_cache(maxsize=8)
def _tx_pulse(sps: int) -> PulseShape:
    """The transmitter's BT=0.5 frequency pulse, built once per rate."""
    return gaussian_taps(0.5, sps)


def run_frame(cfg: ScenarioConfig, mode: PhyMode, snr_db: float,
              sir_db: float | None, frame_idx: int, mode_idx: int = 0,
              point_idx: int = 0, trace: list | None = None):
    """Simulate one frame of one of cfg's modes; returns the receiver report."""
    ss = np.random.SeedSequence(
        [cfg.seed, cfg._id_key, mode_idx, point_idx, frame_idx]
    )
    rng = np.random.default_rng(ss)

    channel = _frame_channel(cfg, frame_idx)
    pdu = random_bits(cfg.pdu_bits, rng)
    packet = LinkLayerPacket(
        access_address=cfg.access_address, pdu=pdu,
        channel=channel, crc_init=cfg.crc_init,
    )
    bits = (
        assemble_coded(packet, mode) if mode.coded
        else assemble_uncoded(packet, mode)
    )
    pulse = _tx_pulse(cfg.sps)
    tx = gmsk_modulate(bits, pulse, symbol_rate=mode.symbol_rate)

    lead = 256 + int(rng.integers(0, 64))
    samples = np.concatenate(
        [np.zeros(lead, complex), tx.samples, np.zeros(128, complex)]
    )
    frame = IqFrame(samples, tx.sample_rate, tx.symbol_rate)

    if cfg.profile is not None:
        frame = fade(frame, cfg.profile.with_seed(int(rng.integers(2**63))))
    lo, hi = cfg.cfo_range_hz
    frame = apply_cfo(frame, float(rng.uniform(lo, hi)))
    if cfg.dc_dbc is not None:
        frame = apply_dc(frame, cfg.dc_dbc, float(rng.uniform(0, 2 * np.pi)))
    if cfg.interferer is not None and sir_db is not None:
        inter = interferer_at_rate(
            len(frame), cfg.interferer.with_seed(int(rng.integers(2**63))),
            frame.sample_rate,
        )
        # Scenario SIR counts the interferer's full occupied-band power;
        # only the in-band fraction lands in the simulated bandwidth.
        frac = interferer_inband_fraction(cfg.interferer, frame.sample_rate)
        if frac > 0.0:
            frame = mix(frame, inter, sir_db - 10.0 * np.log10(frac))
    if not np.isinf(snr_db):
        frame = awgn(frame, snr_db, int(rng.integers(2**63)))

    rx = cfg._rx[mode]
    if cfg._channel is None:
        rx = replace(rx, channel=channel.index)
    return receive(frame, rx, trace=trace)


def _count_chunk(args) -> tuple[int, int]:
    cfg, mode, snr, sir, lo, hi, mode_idx, point_idx = args
    detected = valid = 0
    for i in range(lo, hi):
        rep = run_frame(cfg, mode, snr, sir, i, mode_idx, point_idx)
        detected += int(rep.detected)
        valid += int(rep.crc_ok)
    return detected, valid


def run_campaign(cfg: ScenarioConfig, jobs: int = 1) -> list[PerResult]:
    """Sweep every (mode, SNR, SIR) point of a scenario.

    A frame counts as an error unless its CRC validated; sync failures are
    therefore errors, not exclusions.
    """
    points = [
        (snr, sir)
        for snr in cfg.snr_sweep_db
        for sir in (cfg.sir_sweep_db if cfg.sir_sweep_db is not None else (None,))
    ]
    n = cfg.frames
    parallel = jobs > 1
    bounds = np.linspace(0, n, (jobs if parallel else 1) + 1, dtype=int)
    results = []
    # One pool serves the whole campaign; each point still splits into
    # `jobs` chunks of consecutive frames, as it did with a pool per point.
    pool = ProcessPoolExecutor(max_workers=jobs) if parallel else nullcontext()
    with pool:
        for mode_idx, mode in enumerate(cfg.phy_modes):
            for point_idx, (snr, sir) in enumerate(points):
                tasks = [
                    (cfg, mode, snr, sir, int(a), int(b), mode_idx, point_idx)
                    for a, b in zip(bounds[:-1], bounds[1:]) if b > a
                ]
                counts = list((pool.map if parallel else map)(_count_chunk, tasks))
                detected = sum(c[0] for c in counts)
                valid = sum(c[1] for c in counts)
                errors = n - valid
                lo, hi = wilson_interval(errors, n)
                results.append(PerResult(
                    scenario=cfg.id, phy=mode.value, snr_db=float(snr),
                    sir_db=None if sir is None else float(sir),
                    frames=n, detected=detected, valid=valid,
                    per=errors / n, wilson_lo=lo, wilson_hi=hi,
                ))
    return results


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def emit_results(results: list[PerResult], out, fmt: str = "csv") -> None:
    """Write results as CSV (fixed column set) or JSON."""
    own = isinstance(out, (str, bytes))
    if own:
        try:
            fh = open(out, "w", newline="")
        except OSError as exc:
            raise IoError(str(exc)) from exc
    else:
        fh = out
    try:
        if fmt == "csv":
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(CSV_COLUMNS)
            for r in results:
                w.writerow([
                    r.scenario, r.phy, _fmt(r.snr_db), _fmt(r.sir_db),
                    r.frames, r.detected, r.valid,
                    _fmt(r.per), _fmt(r.wilson_lo), _fmt(r.wilson_hi),
                ])
        elif fmt == "json":
            json.dump([r.__dict__ for r in results], fh, indent=2)
            fh.write("\n")
        else:
            raise ConfigError(f"unknown output format {fmt!r}")
    finally:
        if own:
            fh.close()


def update_channel_map(per_by_channel: dict, threshold: float = 0.5
                       ) -> ChannelMap:
    """Rebuild the hop map from per-channel PER measurements.

    Channels at or above the threshold are dropped; if fewer than two
    survive, the two best (ties broken by lowest index) are kept so the
    map stays legal.
    """
    if len(per_by_channel) < 2:
        raise InsufficientDataError(
            f"need measurements on >= 2 channels, got {len(per_by_channel)}"
        )
    pers = {
        int(ch): (v.per if isinstance(v, PerResult) else float(v))
        for ch, v in per_by_channel.items()
    }
    good = [ch for ch, p in pers.items() if p < threshold]
    if len(good) < 2:
        good = [ch for ch, _ in sorted(pers.items(), key=lambda kv: (kv[1], kv[0]))[:2]]
    return ChannelMap(good)


# ---------------------------------------------------------------------------
# Scenario (de)serialization: versioned JSON, unknown keys rejected.
# ---------------------------------------------------------------------------

def paper_scenarios() -> list[ScenarioConfig]:
    """The four canned campaigns: LOS/NLOS, each with and without WLAN."""
    seed = 45541
    common = dict(frames=10000, pdu_bits=128, channel=37, hopping=None)
    wlan = dict(
        snr_sweep_db=(20.0,), sir_sweep_db=(-10.0, 0.0, 10.0),
        interferer=InterfererConfig(),
    )
    return [
        ScenarioConfig(id="los", seed=seed, profile=los_profile(), **common),
        ScenarioConfig(id="nlos", seed=seed, profile=nlos_profile(), **common),
        ScenarioConfig(id="los_wlan", seed=seed, profile=los_profile(),
                       **common, **wlan),
        ScenarioConfig(id="nlos_wlan", seed=seed, profile=nlos_profile(),
                       **common, **wlan),
    ]


_PROFILE_FACTORIES = {
    "los": los_profile,
    "nlos": nlos_profile,
    "reverberant": reverberant_profile,
}


def _check_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _profile_from_dict(obj: dict) -> ChannelProfile:
    _check_keys(obj, {"kind", "rician_k_db", "taps", "reference_rate_hz"}, "profile")
    kind = obj.get("kind")
    if isinstance(kind, str) and kind in _PROFILE_FACTORIES and "taps" not in obj:
        prof = _PROFILE_FACTORIES[kind]()
        if "rician_k_db" in obj:
            prof = replace(prof, rician_k_db=obj["rician_k_db"])
        return prof
    if "taps" not in obj:
        raise ConfigError(f"profile kind {kind!r} needs explicit taps")
    return ChannelProfile(
        kind or "custom", tuple(tuple(tap) for tap in obj["taps"]),
        obj.get("rician_k_db"), obj.get("reference_rate_hz", 8e6),
    )


def _profile_to_dict(p: ChannelProfile) -> dict:
    if p.kind in _PROFILE_FACTORIES and p == _PROFILE_FACTORIES[p.kind]():
        return {"kind": p.kind}
    return {
        "kind": p.kind,
        "taps": [[d, pw] for d, pw in p.taps],
        "rician_k_db": p.rician_k_db,
        "reference_rate_hz": p.reference_rate_hz,
    }


# The InterfererConfig fields a scenario's interferer object carries.
_INTERFERER_KEYS = ("bandwidth_hz", "center_offset_hz", "duty_cycle", "burst_symbols")
_TOP_KEYS = {
    "version", "id", "seed", "phy_modes", "snr_sweep_db", "sir_sweep_db",
    "channel", "profile", "interferer", "frames", "pdu_bits", "cfo_range_hz",
    "dc_dbc", "access_address", "crc_init", "sps", "receiver",
}


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """Map a JSON scenario onto ScenarioConfig, which checks the values."""
    _check_keys(obj, _TOP_KEYS, "scenario")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version!r}")
    for key in ("id", "seed"):
        if key not in obj:
            raise ConfigError(f"missing required key {key!r}")
    nested = {"version", "channel", "profile", "interferer"}
    kwargs = {key: obj[key] for key in _TOP_KEYS - nested if key in obj}

    with _as_config_error():
        chan = obj.get("channel", {"index": 37})
        if isinstance(chan, dict) and "index" in chan:
            _check_keys(chan, {"index"}, "channel")
            kwargs["channel"], kwargs["hopping"] = chan["index"], None
        elif isinstance(chan, dict) and "hopping" in chan:
            _check_keys(chan, {"hopping"}, "channel")
            hop = chan["hopping"]
            _check_keys(hop, {"algorithm", "map", "hop_increment"}, "channel.hopping")
            kwargs["channel"] = None
            kwargs["hopping"] = HoppingConfig(
                hop.get("algorithm", "csa2"), hop.get("map", "0x1FFFFFFFFF"),
                hop.get("hop_increment", 7),
            )
        else:
            raise ConfigError("channel must carry either 'index' or 'hopping'")

        if obj.get("profile") is not None:
            kwargs["profile"] = _profile_from_dict(obj["profile"])
        if obj.get("interferer") is not None:
            inter = obj["interferer"]
            _check_keys(inter, _INTERFERER_KEYS, "interferer")
            kwargs["interferer"] = InterfererConfig(**inter)
        return ScenarioConfig(**kwargs)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"version": SCHEMA_VERSION, "id": cfg.id, "seed": cfg.seed,
           "phy_modes": [m.value for m in cfg.phy_modes]}
    for key in ("frames", "pdu_bits", "snr_sweep_db", "sir_sweep_db",
                "cfo_range_hz", "dc_dbc", "access_address", "crc_init", "sps"):
        out[key] = getattr(cfg, key)
    if cfg.channel is not None:
        out["channel"] = {"index": cfg.channel}
    else:
        out["channel"] = {"hopping": {
            "algorithm": cfg.hopping.algorithm,
            "map": cfg.hopping.map_mask,
            "hop_increment": cfg.hopping.hop_increment,
        }}
    out["profile"] = None if cfg.profile is None else _profile_to_dict(cfg.profile)
    out["interferer"] = None if cfg.interferer is None else {
        key: getattr(cfg.interferer, key) for key in _INTERFERER_KEYS
    }
    if cfg.receiver:
        out["receiver"] = dict(cfg.receiver)
    return out


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return scenario_from_dict(obj)


def save_scenario(cfg: ScenarioConfig, path) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(scenario_to_dict(cfg), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
