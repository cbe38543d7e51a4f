"""Scene synthesis: geometry, tone placement, SNR definition, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdkan.radarsim import (
    C,
    R_REF,
    RCS_BANDS_DBSM,
    ConfigError,
    ExtendedTarget,
    IfDataCube,
    RadarConfig,
    Scatterer,
    SceneError,
    concentrated_peak,
    derive_geometry,
    load_cube,
    sample_target,
    save_cube,
    scene_from_json,
    scene_to_json,
    sigma_for_snr,
    synth_clean_cube,
    synth_if_cube,
)
from rdkan.rdmap import compute_rd_map

# Hand-evaluated from the beat/Doppler relations with the default config:
# range_res = c*(fs/N)/(2*slope), vel_res = (c/f0)/(2*L*t_cri).
RANGE_RES_ORACLE = 0.3514922016
VEL_RES_ORACLE = 0.3043831169


def point_target(range_m, velocity_mps, amplitude=1.0, phase=0.0):
    """Extended target degenerated to a single centered scatterer."""
    return ExtendedTarget(
        range_m=range_m,
        velocity_mps=velocity_mps,
        rcs_dbsm=0.0,
        aspect="front",
        extent_r=0.0,
        extent_v=0.0,
        scatterers=(Scatterer(0.0, 0.0, amplitude, phase),),
    )


class TestGeometry:
    def test_default_resolutions(self, geometry):
        assert geometry.range_res == pytest.approx(RANGE_RES_ORACLE, rel=1e-9)
        assert geometry.vel_res == pytest.approx(VEL_RES_ORACLE, rel=1e-9)

    def test_spans(self, geometry):
        assert geometry.max_range == pytest.approx(256 * RANGE_RES_ORACLE)
        assert geometry.max_abs_velocity == pytest.approx(64 * VEL_RES_ORACLE)
        assert geometry.n_range == 256
        assert geometry.n_doppler == 128

    def test_bin_round_trips(self, geometry):
        for r in (0.0, 10.0, 35.149, 88.0):
            assert geometry.bin_to_range(geometry.range_to_bin(r)) == pytest.approx(
                r, abs=geometry.range_res / 2 + 1e-12
            )
        for v in (-19.0, -4.2, 0.0, 7.7):
            assert geometry.bin_to_velocity(geometry.velocity_to_bin(v)) == pytest.approx(
                v, abs=geometry.vel_res / 2 + 1e-12
            )
        assert geometry.velocity_to_bin(0.0) == 64

    def test_axes(self, geometry):
        ra = geometry.range_axis()
        va = geometry.velocity_axis()
        assert ra.shape == (256,) and va.shape == (128,)
        assert ra[1] - ra[0] == pytest.approx(geometry.range_res)
        assert va[64] == 0.0
        assert va[0] == pytest.approx(-64 * geometry.vel_res)

    def test_scaling_with_config(self):
        # Twice the chirps halves the velocity cell, range cell untouched.
        base = derive_geometry(RadarConfig())
        dense = derive_geometry(RadarConfig(n_chirps=256))
        assert dense.vel_res == pytest.approx(base.vel_res / 2)
        assert dense.range_res == base.range_res


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"fs": 0.0},
        {"slope": -1.0},
        {"t_cri": 0.0},
        {"n_samples": 100},      # not a power of two
        {"n_chirps": 0},
        {"slope": 1e18},         # bandwidth would pass the carrier
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RadarConfig(**kwargs)

    def test_bandwidth_property(self, config):
        assert config.bandwidth == pytest.approx(16.67e12 * 256 / 10.0e6)
        assert config.wavelength == pytest.approx(C / 77.0e9)


class TestSynthClean:
    def test_bin_centered_tone_lands_on_its_bin(self, config, geometry):
        # On-grid offsets put all tone energy in one RD cell: peak (N*L)^2.
        tgt = point_target(100 * geometry.range_res, 10 * geometry.vel_res)
        cube = synth_clean_cube([tgt], config)
        power = np.abs(np.fft.fftshift(np.fft.fft2(cube), axes=1)) ** 2
        peak = np.unravel_index(np.argmax(power), power.shape)
        assert peak == (100, 64 + 10)
        assert power[peak] == pytest.approx((256 * 128) ** 2, rel=1e-9)

    def test_negative_velocity_maps_left_of_center(self, config, geometry):
        tgt = point_target(40 * geometry.range_res, -7 * geometry.vel_res)
        rd = compute_rd_map(synth_if_cube([tgt], config, noise_sigma=0.0))
        peak = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        assert peak == (40, 64 - 7)

    def test_off_grid_tone_within_one_bin(self, config, geometry):
        tgt = point_target(33.3, 4.4)
        cube = synth_clean_cube([tgt], config)
        power = np.abs(np.fft.fftshift(np.fft.fft2(cube), axes=1)) ** 2
        r, d = np.unravel_index(np.argmax(power), power.shape)
        assert abs(r - 33.3 / geometry.range_res) <= 1.0
        assert abs(d - (64 + 4.4 / geometry.vel_res)) <= 1.0

    def test_orthogonal_tones_add_energy(self, config, geometry):
        # Bin-centered tones on distinct bins are orthogonal, so cube
        # energies add without cross terms.
        a = point_target(50 * geometry.range_res, 5 * geometry.vel_res)
        b = point_target(90 * geometry.range_res, -12 * geometry.vel_res)
        e = lambda s: float(np.sum(np.abs(synth_clean_cube(s, config)) ** 2))
        assert e([a, b]) == pytest.approx(e([a]) + e([b]), rel=1e-9)

    def test_amplitude_scales_power(self, config, geometry):
        r, v = 60 * geometry.range_res, 0.0
        e1 = np.sum(np.abs(synth_clean_cube([point_target(r, v, 1.0)], config)) ** 2)
        e3 = np.sum(np.abs(synth_clean_cube([point_target(r, v, 3.0)], config)) ** 2)
        assert e3 == pytest.approx(9 * e1, rel=1e-12)

    @pytest.mark.parametrize("range_m,velocity", [
        (95.0, 0.0),     # beyond unambiguous range
        (-2.0, 0.0),
        (50.0, 20.0),    # aliases in Doppler
        (50.0, -25.0),
    ])
    def test_scene_validation(self, config, range_m, velocity):
        with pytest.raises(SceneError):
            synth_clean_cube([point_target(range_m, velocity)], config)

    def test_empty_scene_is_silent(self, config):
        assert np.all(synth_clean_cube([], config) == 0)


class TestSampleTarget:
    def test_fields_within_bands(self, rng):
        tgt = sample_target(rng, 50.0, 3.0, "rear")
        assert 50 <= tgt.n_scatterers <= 100
        assert 0.3 <= tgt.extent_r <= 1.0
        assert 0.05 <= tgt.extent_v <= 0.25
        lo, hi = RCS_BANDS_DBSM["rear"]
        assert lo <= tgt.rcs_dbsm <= hi
        dr, dv, amp, ph = tgt.scatterer_arrays()
        assert np.all(np.abs(dr) <= tgt.extent_r)
        assert np.all(np.abs(dv) <= tgt.extent_v)
        assert np.all(amp > 0)
        assert np.all((0 <= ph) & (ph < 2 * np.pi))

    def test_total_power_follows_link_budget(self, rng):
        for r in (25.0, 50.0, 80.0):
            tgt = sample_target(rng, r, 0.0, "side")
            _, _, amp, _ = tgt.scatterer_arrays()
            want = 10.0 ** (tgt.rcs_dbsm / 10.0) * (R_REF / r) ** 4
            assert np.sum(amp**2) == pytest.approx(want, rel=1e-9)

    def test_edge_taper_suppresses_rim(self, rng):
        tgt = sample_target(rng, 50.0, 0.0, "front", n_scatterers_range=(2000, 2000))
        dr, _, amp, _ = tgt.scatterer_arrays()
        u = np.abs(dr) / tgt.extent_r
        inner = np.mean(amp[u < 0.2] ** 2)
        outer = np.mean(amp[u > 0.9] ** 2)
        assert outer < inner / 10  # -18 dB design taper, chi^2 noise on top

    def test_rcs_band_override(self, rng):
        tgt = sample_target(rng, 50.0, 0.0, "front", rcs_band=(30.0, 31.0))
        assert 30.0 <= tgt.rcs_dbsm <= 31.0

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(SceneError):
            sample_target(rng, 50.0, 0.0, "top")
        with pytest.raises(SceneError):
            sample_target(rng, -5.0, 0.0, "front")


class TestNoiseAndSnr:
    def test_sigma_for_snr_sets_exact_map_contrast(self, config, rng):
        # Definition check: in the Hann-windowed map the clean peak cell
        # sits exactly snr_db + 10*log10(n_chirps) over the mean noise
        # cell sigma^2 * sum(w_r^2) * sum(w_d^2), whatever the scene draw.
        noise_gain = (np.hanning(256) ** 2).sum() * (np.hanning(128) ** 2).sum()
        scene = [sample_target(rng, 50.0, 4.0, "front")]
        clean = synth_clean_cube(scene, config)
        rd = compute_rd_map(IfDataCube(samples=clean, config=config, noise_sigma=0.0), window="hann")
        for snr_db in (-10.0, 0.0, 15.0):
            sigma = sigma_for_snr(clean, config, snr_db)
            contrast = rd.power.max() / (sigma**2 * noise_gain)
            want = config.n_chirps * 10.0 ** (snr_db / 10.0)
            assert contrast == pytest.approx(want, rel=1e-9)

    def test_peak_shortcut_matches(self, config, rng):
        scene = [sample_target(rng, 40.0, -3.0, "rear")]
        clean = synth_clean_cube(scene, config)
        peak = concentrated_peak(clean)
        assert sigma_for_snr(clean, config, 5.0, peak=peak) == sigma_for_snr(clean, config, 5.0)

    def test_empty_scene_has_no_snr(self, config):
        with pytest.raises(SceneError):
            sigma_for_snr(np.zeros((256, 128), complex), config, 0.0)

    def test_noise_level_and_reproducibility(self, config):
        cube1 = synth_if_cube([], config, noise_sigma=2.0, rng=np.random.default_rng(5))
        cube2 = synth_if_cube([], config, noise_sigma=2.0, rng=np.random.default_rng(5))
        assert np.array_equal(cube1.samples, cube2.samples)
        assert np.mean(np.abs(cube1.samples) ** 2) == pytest.approx(4.0, rel=0.02)

    def test_synth_argument_errors(self, config, geometry, rng):
        tgt = point_target(30 * geometry.range_res, 0.0)
        with pytest.raises(SceneError):
            synth_if_cube([tgt], config, snr_db=0.0, noise_sigma=1.0, rng=rng)
        with pytest.raises(SceneError):
            synth_if_cube([tgt], config)  # no noise level given
        with pytest.raises(SceneError):
            synth_if_cube([tgt], config, snr_db=0.0)  # no rng
        quiet = synth_if_cube([tgt], config, noise_sigma=0.0)
        assert quiet.noise_sigma == 0.0

    def test_empty_scene_defaults_to_unit_sigma(self, config, rng):
        cube = synth_if_cube([], config, rng=rng)
        assert cube.noise_sigma == 1.0

    def test_rd_peak_gains_doppler_integration(self, config, geometry, rng):
        # After the full 2-D map the tone peak sits 10*log10(L) = 21 dB
        # above the single-chirp SNR relative to the mean noise cell, and
        # the measurement survives the noise actually being there.
        tgt = point_target(80 * geometry.range_res, 6 * geometry.vel_res)
        clean = synth_clean_cube([tgt], config)
        sigma = sigma_for_snr(clean, config, 10.0)
        rd = compute_rd_map(synth_if_cube([tgt], config, snr_db=10.0, rng=rng), window="hann")
        noise_cell = sigma**2 * (np.hanning(256) ** 2).sum() * (np.hanning(128) ** 2).sum()
        got_db = 10 * np.log10(rd.power[80, 64 + 6] / noise_cell)
        assert got_db == pytest.approx(10.0 + 10 * np.log10(128), abs=0.5)


class TestSerialization:
    def test_cube_round_trip(self, tmp_path, config, rng):
        scene = [sample_target(rng, 55.0, -2.0, "front")]
        cube = synth_if_cube(scene, config, snr_db=5.0, rng=rng)
        path = tmp_path / "dwell.rdc"
        save_cube(path, cube)
        back = load_cube(path)
        assert back.config == config
        assert back.noise_sigma == pytest.approx(cube.noise_sigma, rel=1e-15)
        # complex64 on disk: relative quantization only
        scale = np.abs(cube.samples).max()
        assert np.allclose(back.samples, cube.samples, atol=1e-6 * scale)

    def test_cube_header_errors(self, tmp_path):
        bad = tmp_path / "bad.rdc"
        bad.write_bytes(b"NOTACUBE" + b"\0" * 56)
        with pytest.raises(ValueError, match="bad magic"):
            load_cube(bad)
        bad.write_bytes(b"\0" * 10)
        with pytest.raises(ValueError, match="truncated"):
            load_cube(bad)

    def test_cube_size_mismatch(self, tmp_path, config):
        cube = synth_if_cube([], config, noise_sigma=0.0)
        path = tmp_path / "short.rdc"
        save_cube(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:-8])  # drop one complex64
        with pytest.raises(ValueError, match="expected"):
            load_cube(path)

    def test_scene_json_replay_is_exact(self, tmp_path, config, rng):
        scene = [
            sample_target(rng, 45.0, 3.0, "front"),
            sample_target(rng, 70.0, -8.0, "side"),
        ]
        path = tmp_path / "scene.json"
        scene_to_json(path, scene, config, snr_db=12.5)
        back, cfg2, sigma2, snr2 = scene_from_json(path)
        assert cfg2 == config
        assert sigma2 is None and snr2 == 12.5
        # repr round-trip through JSON keeps floats bit-exact, so the
        # replayed cube matches sample for sample
        assert np.array_equal(synth_clean_cube(back, config), synth_clean_cube(scene, config))


finite = st.floats(allow_nan=False, allow_infinity=False)
scatterers = st.builds(Scatterer, finite, finite, finite, finite)
targets = st.builds(ExtendedTarget, finite, finite, finite, st.sampled_from(("front", "rear", "side")),
                    finite, finite, st.lists(scatterers, max_size=5).map(tuple))


class TestSceneFileProperties:
    @settings(max_examples=60, deadline=None)
    @given(scene=st.lists(targets, max_size=3), noise_sigma=st.none() | finite,
           snr_db=st.none() | finite)
    def test_round_trip_is_exact(self, scene, noise_sigma, snr_db, config, tmp_path_factory):
        path = tmp_path_factory.mktemp("scene") / "scene.json"
        scene_to_json(path, scene, config, noise_sigma=noise_sigma, snr_db=snr_db)
        # repr tells -0.0 from 0.0 and shows every float digit
        assert repr(scene_from_json(path)) == repr((scene, config, noise_sigma, snr_db))


class TestCubeFileProperties:
    @settings(max_examples=40, deadline=None)
    @given(samples=arrays(np.complex64, (8, 4), elements=st.complex_numbers(
               allow_nan=False, allow_infinity=False, width=64)),
           noise_sigma=st.floats(0.0, 1e6))
    def test_round_trip_is_byte_exact(self, samples, noise_sigma, tmp_path_factory):
        # complex64 on disk, so complex64-representable samples survive bit for bit
        config = RadarConfig(n_samples=8, n_chirps=4)
        cube = IfDataCube(samples=samples.astype(np.complex128), config=config,
                          noise_sigma=noise_sigma)
        path = tmp_path_factory.mktemp("cube") / "dwell.rdc"
        save_cube(path, cube)
        back = load_cube(path)
        assert back.config == config
        assert back.noise_sigma == noise_sigma
        assert back.samples.dtype == np.complex128
        assert back.samples.tobytes() == cube.samples.tobytes()
