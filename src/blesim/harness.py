"""Monte Carlo packet-error-rate campaigns.

A scenario fixes the link (PHY modes, PDU size, channel or hop schedule;
the access address and CRC init are the advertising ones, and frames
run at gmsk.SPS samples per symbol) and the impairments (fading profile,
optional interferer; the CFO and DC offset are fixed, see CFO_MAX_HZ),
then sweeps SNR and optionally SIR.
Frame k of a mode draws its randomness from SeedSequence([seed,
crc32(id), mode, k]), where mode is the mode's position in PhyMode, not
in the scenario's phy_modes.  The key holds no sweep point: every
SNR/SIR point of a campaign sees the same frames (common random
numbers), only the noise and interferer levels change.  So a row does
not depend on the rest of the sweep or the other modes, and results are
bit-identical no matter how the frames are distributed over worker
processes.
"""
from __future__ import annotations

import csv
import json
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bits import random_bits
from .channel import (
    ChannelProfile,
    InterfererConfig,
    apply_cfo,
    apply_dc,
    awgn,
    fade,
    interferer_at_rate,
    interferer_inband_fraction,
    los_profile,
    measured_power,
    mix,
    nlos_profile,
)
from .chansel import ChannelMap, HopState, csa1_next, csa2_select
from .coded import assemble_coded
from .errors import (
    BlesimError,
    ConfigError,
    IoError,
    ParamError,
    check_enum,
    check_int,
    check_real,
)
from .gmsk import IqFrame, gaussian_taps, gmsk_modulate
from .llpacket import (
    ADVERTISING_ACCESS_ADDRESS,
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

# run_frame pads LEAD + U[0, LEAD_JITTER) zero samples before the packet
# and TAIL after it.
LEAD, LEAD_JITTER, TAIL = 256, 64, 128

# Each frame's carrier offset is uniform over +-CFO_MAX_HZ, and its DC
# offset is DC_DBC relative to the signal RMS, at a uniform phase.
CFO_MAX_HZ = 50e3
DC_DBC = -20.0


@dataclass(frozen=True)
class HoppingConfig:
    algorithm: str = "csa2"
    map_mask: str = "0x1FFFFFFFFF"
    hop_increment: int = 7

    def __post_init__(self):
        if self.algorithm not in ("csa1", "csa2"):
            raise ParamError(f"unknown hop algorithm {self.algorithm!r}")
        ChannelMap.from_mask(self.map_mask)
        # Checked under either algorithm, though only CSA#1 hops by it.
        HopState(self.hop_increment)


@contextmanager
def _as_config_error():
    """Report any bad-value error raised inside as a ConfigError."""
    try:
        yield
    except (BlesimError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _nonempty(name: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(value)


def _sweep_db(name: str, value) -> tuple:
    # +inf means no noise (SNR) or no interferer power (SIR); finite levels
    # stay within 300 dB so that 10**(dB/10) is a finite float.
    return tuple(
        v if v == math.inf else check_real(name, v, -300.0, 300.0)
        for v in _nonempty(name, value)
    )


@dataclass
class ScenarioConfig:
    """One campaign: the link, its impairments and the sweep.

    Construction checks every field, from JSON, the CLI or Python alike,
    and builds once what every frame reuses; the link's fields are checked
    by the channel, hop and receiver objects built from them.  A bad value
    raises ConfigError here, never mid-campaign.  Change a field with
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
        self.seed = check_int("seed", self.seed, 0)
        modes = _nonempty("phy_modes", self.phy_modes)
        self.phy_modes = tuple(PhyMode(m) for m in modes)
        self.snr_sweep_db = _sweep_db("snr_sweep_db", self.snr_sweep_db)
        if (self.sir_sweep_db is None) != (self.interferer is None):
            raise ConfigError("a sir sweep needs an interferer and vice versa")
        if not isinstance(self.interferer, (InterfererConfig, type(None))):
            raise ConfigError(
                f"interferer must be an InterfererConfig, got {self.interferer!r}")
        if self.sir_sweep_db is not None:
            self.sir_sweep_db = _sweep_db("sir_sweep_db", self.sir_sweep_db)
        self.frames = check_int("frames", self.frames, 1)
        if self.profile is not None:
            self.profile = check_enum("profile", ChannelProfile, self.profile)

        self._channel = self._channel_map = self._hop = None
        if (self.channel is None) == (self.hopping is None):
            raise ConfigError("exactly one of channel / hopping must be set")
        if self.channel is not None:
            self._channel = ChannelIndex(self.channel)
            self.channel = self._channel.index
        else:
            hop = self.hopping
            if not isinstance(hop, HoppingConfig):
                raise ConfigError(f"hopping must be a HoppingConfig, got {hop!r}")
            self._channel_map = ChannelMap.from_mask(hop.map_mask)
            if hop.algorithm == "csa1":
                self._hop = HopState(hop.hop_increment)

        self._rx = {  # under hopping _draw_frame sets each frame's channel
            mode: ReceiverConfig(
                phy_mode=mode, channel=37 if self.channel is None else self.channel,
                pdu_bits=self.pdu_bits)
            for mode in self.phy_modes
        }
        # The receivers checked pdu_bits; keep the int they hold.
        self.pdu_bits = self._rx[self.phy_modes[0]].pdu_bits


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


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion."""
    if n == 0:
        return 0.0, 1.0
    z = 1.96
    p = errors / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def _frame_channel(cfg: ScenarioConfig, frame_idx: int) -> ChannelIndex:
    if cfg._channel is not None:
        return cfg._channel
    if cfg._hop is None:
        return csa2_select(frame_idx & 0xFFFF, cfg._channel_map,
                           ADVERTISING_ACCESS_ADDRESS)
    # CSA#1's state recursion has the closed form used here: after k+1
    # hops the unmapped channel is (k+1)*hop mod 37.
    hop = cfg._hop
    state = replace(hop, last_unmapped=(frame_idx * hop.hop_increment) % 37)
    return csa1_next(state, cfg._channel_map)[0]


# The mode's part of a frame's seed key: its fixed position in PhyMode.
_MODE_KEY = {mode: key for key, mode in enumerate(PhyMode)}


@dataclass(frozen=True)
class _FrameDraw:
    """What one frame's sweep points share: the faded, offset frame and
    its measured power, the interferer realisation (None without one)
    with its measured power and its in-band level in dB, the noise seed
    and the receiver set to the frame's channel."""

    frame: IqFrame
    power: float
    interferer: IqFrame | None
    interferer_power: float
    inband_db: float
    noise_seed: int
    rx: ReceiverConfig


def _draw_frame(cfg: ScenarioConfig, mode: PhyMode, frame_idx: int) -> _FrameDraw:
    """Transmit frame `frame_idx` of `mode` through the channel.

    Draws, in this order: payload, lead jitter, fade seed, CFO, DC phase,
    interferer seed and noise seed; the fade seed only when the scenario
    has a profile, and the interferer seed only when it has an
    interferer.
    """
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed, cfg._id_key, _MODE_KEY[mode], frame_idx]))

    channel = _frame_channel(cfg, frame_idx)
    pdu = random_bits(cfg.pdu_bits, rng)
    packet = LinkLayerPacket(pdu=pdu, channel=channel)
    bits = (
        assemble_coded(packet, mode) if mode.coded
        else assemble_uncoded(packet, mode)
    )
    tx = gmsk_modulate(bits, gaussian_taps(), symbol_rate=mode.symbol_rate)

    lead = LEAD + int(rng.integers(0, LEAD_JITTER))
    samples = np.concatenate(
        [np.zeros(lead, complex), tx.samples, np.zeros(TAIL, complex)]
    )
    frame = IqFrame(samples, tx.sample_rate, tx.symbol_rate)

    if cfg.profile is not None:
        frame = fade(frame, cfg.profile, int(rng.integers(2**63)))
    frame = apply_cfo(frame, float(rng.uniform(-CFO_MAX_HZ, CFO_MAX_HZ)))
    frame = apply_dc(frame, DC_DBC, float(rng.uniform(0, 2 * np.pi)))
    frame.samples.flags.writeable = False  # every point reads it

    inter, p_int, inband_db = None, 0.0, 0.0
    if cfg.interferer is not None:
        fs = frame.sample_rate
        inter = interferer_at_rate(len(frame), fs, int(rng.integers(2**63)))
        p_int = measured_power(inter.samples)
        # Scenario SIR counts the interferer's full occupied-band power;
        # only the in-band fraction lands in the simulated bandwidth.
        inband_db = 10.0 * np.log10(interferer_inband_fraction(fs))

    rx = cfg._rx[mode]
    if cfg._channel is None:
        rx = replace(rx, channel=channel.index)
    return _FrameDraw(frame, measured_power(frame.samples), inter, p_int,
                      inband_db, int(rng.integers(2**63)), rx)


def received_frame(cfg: ScenarioConfig, mode: PhyMode, snr_db: float,
                   sir_db: float | None, frame_idx: int,
                   shared: dict | None = None
                   ) -> tuple[IqFrame, ReceiverConfig]:
    """Frame `frame_idx` of one of cfg's modes as it reaches the receiver
    at one sweep point, and the receiver set to the frame's channel.

    The frame's draws depend on (cfg.seed, cfg.id, mode, frame_idx) only.
    Calls for the points of one frame may pass one `shared` dict: the
    first call stores the frame's transmit and channel draw there, and
    the others only scale the interferer and the noise.
    """
    key = (mode, frame_idx)
    draw = None if shared is None else shared.get(key)
    if draw is None:
        draw = _draw_frame(cfg, mode, frame_idx)
        if shared is not None:
            shared[key] = draw

    frame, p_sig = draw.frame, draw.power
    if draw.interferer is not None and sir_db is not None:
        frame = mix(frame, draw.interferer, sir_db - draw.inband_db,
                    p_sig=p_sig, p_int=draw.interferer_power)
        p_sig = None  # awgn measures the mixture
    return awgn(frame, snr_db, draw.noise_seed, p_sig=p_sig), draw.rx


def run_frame(cfg: ScenarioConfig, mode: PhyMode, snr_db: float,
              sir_db: float | None, frame_idx: int, mode_idx: int = 0,
              point_idx: int = 0, shared: dict | None = None):
    """Receive frame `frame_idx` of one of cfg's modes at one sweep point
    (see received_frame); returns the receiver report.

    mode_idx and point_idx seed nothing; they name the mode's and the
    point's place in a campaign for whoever traces the calls.
    """
    return receive(*received_frame(cfg, mode, snr_db, sir_db, frame_idx,
                                   shared))


def _count_chunk(args) -> list[tuple[int, int]]:
    """(detected, valid) at each sweep point over frames [lo, hi) of one
    mode, run frame by frame."""
    cfg, mode, points, lo, hi = args
    detected, valid = [0] * len(points), [0] * len(points)
    for i in range(lo, hi):
        shared: dict = {}
        for point_idx, (snr, sir) in enumerate(points):
            rep = run_frame(cfg, mode, snr, sir, i, point_idx=point_idx,
                            shared=shared)
            detected[point_idx] += int(rep.detected)
            valid[point_idx] += int(rep.crc_ok)
    return list(zip(detected, valid))


def run_campaign(cfg: ScenarioConfig, jobs: int = 1) -> list[PerResult]:
    """Sweep every (mode, SNR, SIR) point of a scenario.

    A frame counts as an error unless its CRC validated; sync failures are
    therefore errors, not exclusions.  Each mode's frames split into
    min(jobs, frames) chunks of consecutive frames, each run over every
    point; the campaign's chunks go in one map to a pool of at most one
    worker per core.
    """
    with _as_config_error():
        jobs = check_int("jobs", jobs, 1)
    points = [
        (snr, sir)
        for snr in cfg.snr_sweep_db
        for sir in (cfg.sir_sweep_db if cfg.sir_sweep_db is not None else (None,))
    ]
    n = cfg.frames
    parallel = jobs > 1
    # More chunks than frames would only add empty ones.
    bounds = np.linspace(0, n, min(jobs, n) + 1, dtype=int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    tasks = [(cfg, mode, points, a, b) for mode in cfg.phy_modes for a, b in ranges]
    # One pool serves the whole campaign.  The fork start method starts
    # every worker up front, so a large `jobs` must not mean as many forks.
    pool = (ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
            if parallel else nullcontext())
    with pool:
        counts = list((pool.map if parallel else map)(_count_chunk, tasks))

    results = []
    for m, mode in enumerate(cfg.phy_modes):
        chunks = counts[m * len(ranges):(m + 1) * len(ranges)]
        for point_idx, (snr, sir) in enumerate(points):
            detected = sum(c[point_idx][0] for c in chunks)
            valid = sum(c[point_idx][1] for c in chunks)
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
    """Write results to an open text stream as CSV (fixed column set) or
    JSON."""
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in results:
            w.writerow([
                r.scenario, r.phy, _fmt(r.snr_db), _fmt(r.sir_db),
                r.frames, r.detected, r.valid,
                _fmt(r.per), _fmt(r.wilson_lo), _fmt(r.wilson_hi),
            ])
    elif fmt == "json":
        json.dump([r.__dict__ for r in results], out, indent=2)
        out.write("\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


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


def _check_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


# The JSON keys: HoppingConfig's fields under these names, and
# ScenarioConfig's init fields with hopping nested under channel.
_HOP_KEYS = {"algorithm": "algorithm", "map": "map_mask",
             "hop_increment": "hop_increment"}
_TOP_KEYS = {"version"} | {
    f.name for f in fields(ScenarioConfig) if f.init and f.name != "hopping"}


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    """Map a JSON scenario onto ScenarioConfig, which checks the values."""
    _check_keys(obj, _TOP_KEYS, "scenario")
    version = obj.get("version")
    # true and 1.0 equal 1 in Python, but only the JSON integer 1 is a version.
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version!r}")
    for key in ("id", "seed"):
        if key not in obj:
            raise ConfigError(f"missing required key {key!r}")
    nested = {"version", "channel", "profile", "interferer"}
    kwargs = {key: obj[key] for key in _TOP_KEYS - nested if key in obj}

    with _as_config_error():
        chan = obj.get("channel", {"index": ScenarioConfig.channel})
        if isinstance(chan, dict) and "index" in chan:
            _check_keys(chan, {"index"}, "channel")
            kwargs["channel"], kwargs["hopping"] = chan["index"], None
        elif isinstance(chan, dict) and "hopping" in chan:
            _check_keys(chan, {"hopping"}, "channel")
            hop = chan["hopping"]
            _check_keys(hop, _HOP_KEYS, "channel.hopping")
            kwargs["channel"] = None
            kwargs["hopping"] = HoppingConfig(
                **{_HOP_KEYS[key]: value for key, value in hop.items()})
        else:
            raise ConfigError("channel must carry either 'index' or 'hopping'")

        if obj.get("profile") is not None:
            _check_keys(obj["profile"], {"kind"}, "profile")
            kwargs["profile"] = check_enum("profile kind", ChannelProfile,
                                           obj["profile"].get("kind"))
        if obj.get("interferer") is not None:
            _check_keys(obj["interferer"], (), "interferer")
            kwargs["interferer"] = InterfererConfig()
        return ScenarioConfig(**kwargs)


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"version": SCHEMA_VERSION, "id": cfg.id, "seed": cfg.seed,
           "phy_modes": [m.value for m in cfg.phy_modes]}
    for key in ("frames", "pdu_bits", "snr_sweep_db", "sir_sweep_db"):
        out[key] = getattr(cfg, key)
    if cfg.channel is not None:
        out["channel"] = {"index": cfg.channel}
    else:
        out["channel"] = {"hopping": {
            key: getattr(cfg.hopping, name) for key, name in _HOP_KEYS.items()}}
    out["profile"] = None if cfg.profile is None else {"kind": cfg.profile.value}
    out["interferer"] = None if cfg.interferer is None else {}
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
