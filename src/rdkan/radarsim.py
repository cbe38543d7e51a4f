"""FMCW scene synthesis: extended fluctuating targets to IF data cubes.

The IF signal of a sawtooth FMCW radar is modelled as a sum of complex
tones, one per point scatterer.  A scatterer at range R moving at radial
velocity v contributes a beat frequency 2*slope*R/c along fast time and a
Doppler frequency 2*v*f0/c sampled once per chirp along slow time.  Large
targets (cars, trucks) are modelled as clouds of 50..100 scatterers with
fluctuating powers, spread over a few metres in range and a fraction of a
m/s in velocity.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

C = 3.0e8  # propagation speed used throughout, m/s

# Reference range for the R^-4 link budget.  Absolute scale is arbitrary
# (noise is set relative to signal), only ratios between targets matter.
R_REF = 50.0

# Admissible RCS bands per viewing aspect, dBsm.
RCS_BANDS_DBSM = {
    "front": (8.7, 20.5),
    "rear": (14.4, 24.6),
    "side": (19.0, 22.0),
}

CUBE_MAGIC = b"RDIFCUB1"
_CUBE_HEADER = struct.Struct("<8sII5d8x")  # magic, N, L, fs, slope, t_cri, f0, sigma; 64 bytes
assert _CUBE_HEADER.size == 64


class ConfigError(ValueError):
    """Invalid radar configuration."""


class SceneError(ValueError):
    """Scene is not representable on the configured map (e.g. aliasing)."""


def _is_pow2(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class RadarConfig:
    """Chirp and sampling parameters of the radar front end.

    Defaults describe a 77 GHz automotive medium-range configuration:
    16.67 MHz/us slope, 50 us chirp repetition interval, 10 MHz ADC rate,
    256 fast-time samples, 128 chirps per dwell.
    """

    f0: float = 77.0e9          # carrier, Hz
    slope: float = 16.67e12     # chirp slope, Hz/s
    t_cri: float = 50.0e-6      # chirp repetition interval, s
    fs: float = 10.0e6          # ADC sample rate, Hz
    n_samples: int = 256        # fast-time samples per chirp
    n_chirps: int = 128         # chirps per dwell

    def __post_init__(self):
        for name in ("f0", "slope", "t_cri", "fs"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("n_samples", "n_chirps"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"{name} must be a power of two, got {getattr(self, name)}")
        if self.bandwidth >= self.f0:
            raise ConfigError("chirp bandwidth must stay below the carrier")

    @property
    def bandwidth(self) -> float:
        """Swept bandwidth over the sampled part of the chirp, Hz."""
        return self.slope * self.n_samples / self.fs


@dataclass(frozen=True)
class MapGeometry:
    """Cell geometry of the range-Doppler map produced by one dwell."""

    range_res: float       # m per range bin
    vel_res: float         # m/s per Doppler bin
    max_range: float       # unambiguous range span, m
    max_abs_velocity: float  # +-max unambiguous velocity, m/s
    n_range: int
    n_doppler: int

    def range_to_bin(self, range_m: float) -> int:
        return int(round(range_m / self.range_res))

    def velocity_to_bin(self, velocity_mps: float) -> int:
        return int(round(velocity_mps / self.vel_res)) + self.n_doppler // 2

    def bin_to_range(self, b: int) -> float:
        return b * self.range_res

    def bin_to_velocity(self, b: int) -> float:
        return (b - self.n_doppler // 2) * self.vel_res


def derive_geometry(config: RadarConfig) -> MapGeometry:
    """Map cell geometry implied by the chirp parameters.

    Range resolution is the FFT bin spacing converted through the beat
    frequency relation f_R = 2*slope*R/c; velocity resolution is the
    Doppler bin spacing converted through f_D = 2*v/lambda.
    """
    range_res = C * (config.fs / config.n_samples) / (2.0 * config.slope)
    vel_res = (C / config.f0) / (2.0 * config.n_chirps * config.t_cri)
    return MapGeometry(
        range_res=range_res,
        vel_res=vel_res,
        max_range=config.n_samples * range_res,
        max_abs_velocity=(config.n_chirps / 2) * vel_res,
        n_range=config.n_samples,
        n_doppler=config.n_chirps,
    )


@dataclass(frozen=True)
class Scatterer:
    """One point scatterer of an extended target, offsets relative to the body center."""

    delta_r: float    # range offset, m
    delta_v: float    # radial velocity offset, m/s
    amplitude: float  # linear amplitude (sqrt of power)
    phase: float      # rad, in [0, 2*pi)


@dataclass(frozen=True)
class ExtendedTarget:
    range_m: float
    velocity_mps: float
    rcs_dbsm: float
    aspect: str
    extent_r: float   # half extent in range, m
    extent_v: float   # half extent in velocity, m/s
    scatterers: tuple[Scatterer, ...]

    @property
    def n_scatterers(self) -> int:
        return len(self.scatterers)

    def scatterer_arrays(self):
        """(delta_r, delta_v, amplitude, phase) as float arrays."""
        dr = np.array([s.delta_r for s in self.scatterers])
        dv = np.array([s.delta_v for s in self.scatterers])
        amp = np.array([s.amplitude for s in self.scatterers])
        ph = np.array([s.phase for s in self.scatterers])
        return dr, dv, amp, ph


@dataclass
class IfDataCube:
    """Complex baseband IF samples of one dwell, fast time x slow time."""

    samples: np.ndarray  # (n_samples, n_chirps) complex
    config: RadarConfig
    noise_sigma: float


def sample_target(
    rng: np.random.Generator,
    range_m: float,
    velocity_mps: float,
    aspect: str,
    *,
    n_scatterers_range=(50, 100),
    extent_r_range=(0.3, 1.0),
    extent_v_range=(0.05, 0.25),
    edge_taper_db=-18.0,
    rcs_band=None,
) -> ExtendedTarget:
    """Draw one extended fluctuating target.

    Scatterer count is uniform in n_scatterers_range, positions uniform
    within +-extent (extent_r drawn from extent_r_range in metres,
    extent_v likewise in m/s).  Per-scatterer powers are i.i.d.
    chi-squared with 4 degrees of freedom, shaped by a quadratic edge
    taper (edge_taper_db at |delta_r| = extent_r) so a few mid-body
    scattering centers dominate, then normalized so total power follows
    the RCS draw with an R^-4 link budget.  One bulk phase per target
    plus independent per-scatterer phase jitter.
    """
    if aspect not in RCS_BANDS_DBSM:
        raise SceneError(f"unknown aspect {aspect!r}, expected one of {sorted(RCS_BANDS_DBSM)}")
    if range_m <= 0:
        raise SceneError(f"target range must be positive, got {range_m}")
    n = int(rng.integers(n_scatterers_range[0], n_scatterers_range[1] + 1))
    extent_r = float(rng.uniform(*extent_r_range))
    extent_v = float(rng.uniform(*extent_v_range))
    band = rcs_band if rcs_band is not None else RCS_BANDS_DBSM[aspect]
    rcs_dbsm = float(rng.uniform(*band))

    delta_r = rng.uniform(-extent_r, extent_r, n)
    delta_v = rng.uniform(-extent_v, extent_v, n)
    powers = rng.chisquare(4, n)
    powers = powers * 10.0 ** (edge_taper_db * (delta_r / extent_r) ** 2 / 10.0)
    total_power = 10.0 ** (rcs_dbsm / 10.0) * (R_REF / range_m) ** 4
    powers *= total_power / powers.sum()

    bulk_phase = rng.uniform(0.0, 2.0 * np.pi)
    phases = np.mod(bulk_phase + rng.uniform(0.0, 2.0 * np.pi, n), 2.0 * np.pi)

    scatterers = tuple(
        Scatterer(float(delta_r[i]), float(delta_v[i]), float(np.sqrt(powers[i])), float(phases[i]))
        for i in range(n)
    )
    return ExtendedTarget(
        range_m=float(range_m),
        velocity_mps=float(velocity_mps),
        rcs_dbsm=rcs_dbsm,
        aspect=aspect,
        extent_r=extent_r,
        extent_v=extent_v,
        scatterers=scatterers,
    )


def _validate_scene(scene, config, geometry):
    for k, tgt in enumerate(scene):
        if not tgt.scatterers:
            raise SceneError(f"target {k} has no scatterers")
        dr, dv, _, _ = tgt.scatterer_arrays()
        r_lo = tgt.range_m + dr.min()
        r_hi = tgt.range_m + dr.max()
        if r_lo <= 0 or r_hi >= geometry.max_range:
            raise SceneError(
                f"target {k}: range extent [{r_lo:.1f}, {r_hi:.1f}] m outside the "
                f"unambiguous span (0, {geometry.max_range:.1f}) m"
            )
        v_abs = np.abs(tgt.velocity_mps + dv).max()
        if v_abs >= geometry.max_abs_velocity:
            raise SceneError(
                f"target {k}: |velocity| {v_abs:.2f} m/s aliases, max is "
                f"{geometry.max_abs_velocity:.2f} m/s"
            )


def synth_clean_cube(scene, config: RadarConfig) -> np.ndarray:
    """Noiseless IF cube (n_samples, n_chirps) for a list of targets."""
    geometry = derive_geometry(config)
    _validate_scene(scene, config, geometry)
    n = np.arange(config.n_samples)
    l = np.arange(config.n_chirps)
    cube = np.zeros((config.n_samples, config.n_chirps), dtype=np.complex128)
    for tgt in scene:
        dr, dv, amp, ph = tgt.scatterer_arrays()
        f_r = 2.0 * config.slope * (tgt.range_m + dr) / C
        f_d = 2.0 * (tgt.velocity_mps + dv) * config.f0 / C
        # Each scatterer is a rank-1 (fast time) x (slow time) tone.
        fast = np.exp(2j * np.pi * np.outer(n / config.fs, f_r))         # (N, I)
        slow = np.exp(2j * np.pi * np.outer(f_d * config.t_cri, l))      # (I, L)
        coef = amp * np.exp(1j * ph)
        cube += fast @ (coef[:, None] * slow)
    return cube


def concentrated_peak(clean_cube: np.ndarray) -> float:
    """Strongest RD cell of the Hann-windowed map, in single-chirp units.

    The clean cube goes through the same separable-Hann 2-D FFT the
    detection pipeline applies, and the peak cell power is divided by the
    window power gains and the Doppler integration factor n_chirps.  The
    result is the range-bin power one chirp would carry if the analysis
    window concentrated the whole return into a single cell, so straddle,
    spread and speckle losses are already priced in.
    """
    n, l = clean_cube.shape
    w_r = np.hanning(n)
    w_d = np.hanning(l)
    power = np.abs(np.fft.fft2(clean_cube * np.outer(w_r, w_d))) ** 2
    gain = (w_r**2).sum() * (w_d**2).sum() * l / n
    return float(power.max() / gain)


def sigma_for_snr(clean_cube: np.ndarray, config: RadarConfig, snr_db: float, peak=None) -> float:
    """Noise sigma realizing a given single-chirp-equivalent SNR.

    snr_db fixes the contrast of the dominant target's RD peak exactly:
    in the Hann-windowed map the peak cell sits snr_db + 10*log10(n_chirps)
    dB above the mean noise cell, for every scene draw.  Equivalently the
    concentrated per-chirp peak power is snr_db over the per-bin noise
    power n_samples*sigma^2.  Pass peak=concentrated_peak(clean_cube)
    when sweeping snr_db to skip the repeated FFT.
    """
    s_eq = concentrated_peak(clean_cube) if peak is None else float(peak)
    if s_eq <= 0:
        raise SceneError("cannot set SNR for an empty (zero-power) scene")
    return math.sqrt(s_eq / (config.n_samples * 10.0 ** (snr_db / 10.0)))


def synth_if_cube(
    scene,
    config: RadarConfig,
    snr_db: float | None = None,
    *,
    noise_sigma: float | None = None,
    rng: np.random.Generator | None = None,
) -> IfDataCube:
    """Synthesize one dwell: clean target returns plus circular white noise.

    Exactly one of snr_db / noise_sigma fixes the noise level; an empty
    scene with neither defaults to sigma = 1.  Pass a seeded Generator
    for reproducible noise (identical seeds give identical cubes).
    """
    scene = list(scene)
    clean = synth_clean_cube(scene, config)
    if noise_sigma is not None and snr_db is not None:
        raise SceneError("give either snr_db or noise_sigma, not both")
    if noise_sigma is not None:
        sigma = float(noise_sigma)
    elif snr_db is not None:
        sigma = sigma_for_snr(clean, config, snr_db)
    elif not scene:
        sigma = 1.0
    else:
        raise SceneError("a non-empty scene needs snr_db or noise_sigma")
    if sigma < 0:
        raise SceneError("noise_sigma must be non-negative")
    if sigma > 0:
        if rng is None:
            raise SceneError("noisy synthesis needs an rng")
        shape = clean.shape
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (sigma / math.sqrt(2.0))
        clean = clean + noise
    return IfDataCube(samples=clean, config=config, noise_sigma=sigma)


# ---------------------------------------------------------------------------
# cube and scene serialization


def save_cube(path, cube: IfDataCube) -> None:
    """Write a cube as a 64-byte little-endian header plus complex64 samples."""
    cfg = cube.config
    header = _CUBE_HEADER.pack(
        CUBE_MAGIC, cfg.n_samples, cfg.n_chirps,
        cfg.fs, cfg.slope, cfg.t_cri, cfg.f0, cube.noise_sigma,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(cube.samples.astype(np.complex64)).tobytes())


def load_cube(path) -> IfDataCube:
    with open(path, "rb") as f:
        raw = f.read(_CUBE_HEADER.size)
        if len(raw) != _CUBE_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, n, l, fs, slope, t_cri, f0, sigma = _CUBE_HEADER.unpack(raw)
        if magic != CUBE_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(f.read(), dtype="<c8")
    if data.size != n * l:
        raise ValueError(f"{path}: expected {n * l} samples, found {data.size}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite IF samples")
    config = RadarConfig(f0=f0, slope=slope, t_cri=t_cri, fs=fs, n_samples=n, n_chirps=l)
    samples = data.reshape(n, l).astype(np.complex128)
    return IfDataCube(samples=samples, config=config, noise_sigma=sigma)


def scene_to_json(path, scene, config: RadarConfig, noise_sigma=None, snr_db=None) -> None:
    doc = {
        "config": asdict(config),
        "noise_sigma": noise_sigma,
        "snr_db": snr_db,
        "targets": [
            {
                "range_m": t.range_m,
                "velocity_mps": t.velocity_mps,
                "rcs_dbsm": t.rcs_dbsm,
                "aspect": t.aspect,
                "extent_r": t.extent_r,
                "extent_v": t.extent_v,
                "scatterers": [asdict(s) for s in t.scatterers],
            }
            for t in scene
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def scene_from_json(path):
    """Returns (scene, config, noise_sigma, snr_db) with scatterers replayed exactly.

    A file that does not hold a scene raises SceneError naming it: a
    missing config or targets, a config RadarConfig refuses, targets or
    scatterers that are not a list of objects with exactly the fields
    scene_to_json writes, or a number that is not finite (noise_sigma and
    snr_db may also be null or absent).
    """
    doc = json.loads(Path(path).read_text())

    def number(where, value):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SceneError(f"{path}: {where} must be a finite number, got {value!r}")
        return float(value)

    def records(where, value, cls):
        """value as a list of objects whose keys are exactly cls's fields."""
        keys = {f.name for f in fields(cls)}
        if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
            raise SceneError(f"{path}: {where} must be a list of objects")
        for k, v in enumerate(value):
            if v.keys() != keys:
                raise SceneError(f"{path}: {where}[{k}] has keys {sorted(v)}, expected {sorted(keys)}")
        return value

    if not isinstance(doc, dict) or not {"config", "targets"} <= doc.keys():
        raise SceneError(f"{path}: not a scene (expected an object with config and targets)")
    try:
        config = RadarConfig(**doc["config"])
    except (TypeError, ConfigError) as err:
        raise SceneError(f"{path}: bad config: {err}") from None
    scene = []
    for k, t in enumerate(records("targets", doc["targets"], ExtendedTarget)):
        where = f"targets[{k}]"
        scatterers = tuple(
            Scatterer(**{key: number(f"{where}.scatterers[{j}].{key}", v) for key, v in s.items()})
            for j, s in enumerate(records(f"{where}.scatterers", t["scatterers"], Scatterer))
        )
        numbers = {key: number(f"{where}.{key}", v) for key, v in t.items()
                   if key not in ("aspect", "scatterers")}
        scene.append(ExtendedTarget(aspect=t["aspect"], scatterers=scatterers, **numbers))
    sigma, snr = (None if doc.get(key) is None else number(key, doc[key])
                  for key in ("noise_sigma", "snr_db"))
    return scene, config, sigma, snr
