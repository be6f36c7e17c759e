import numpy as np
import pytest

import oracles
from fgseg.data import pad_to_multiple_of_4
from fgseg.pyramid import RADIUS, SIGMA, build_pyramid, gaussian_blur, gaussian_taps


def test_default_sigma_is_two_thirds():
    assert SIGMA == pytest.approx(2.0 / 3.0)


def test_kernel_is_seven_taps_normalized():
    assert RADIUS == 3
    taps = gaussian_taps()
    assert taps.shape == (7,)
    assert taps.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(taps, taps[::-1])  # symmetric
    ref = oracles.gaussian_kernel_direct(SIGMA, RADIUS)
    assert np.max(np.abs(taps - ref)) < 1e-12


def test_blur_preserves_constant():
    img = np.full((3, 16, 16), 100.0, dtype=np.float32)
    out = gaussian_blur(img)
    assert out.shape == img.shape
    assert np.max(np.abs(out - 100.0)) < 1e-6


def test_blur_of_centered_impulse_is_the_kernel():
    img = np.zeros((1, 9, 9), dtype=np.float64)
    img[0, 4, 4] = 1.0
    out = gaussian_blur(img)
    taps = gaussian_taps()
    expect = np.zeros((9, 9))
    expect[1:8, 1:8] = np.outer(taps, taps)
    assert np.max(np.abs(out[0] - expect)) < 1e-6


def test_blur_matches_loop_oracle_with_reflect_borders():
    rng = np.random.default_rng(30)
    img = rng.uniform(0, 255, size=(2, 8, 7))
    out = gaussian_blur(img)
    ref = oracles.blur_reflect_loops(img, SIGMA, RADIUS)
    assert np.max(np.abs(out - ref)) < 1e-10


def test_blur_keeps_single_pixel_axes():
    img = np.array([[[3.0, 4.0, 5.0]]])  # (1, 1, 3)
    out = gaussian_blur(img)
    assert out.shape == img.shape


def test_pyramid_shapes():
    img = np.zeros((3, 64, 64), dtype=np.float32)
    pyr = build_pyramid(img)
    assert pyr.i0.shape == (3, 64, 64)
    assert pyr.i1.shape == (3, 32, 32)
    assert pyr.i2.shape == (3, 16, 16)


def test_pyramid_of_any_frame_keeps_i0_untouched():
    rng = np.random.default_rng(31)
    for h, w, i2_shape in ((66, 64, (17, 16)), (64, 30, (16, 8))):
        img = rng.uniform(0, 255, size=(3, h, w)).astype(np.float32)
        pyr = build_pyramid(img)
        assert pyr.i0 is img
        # the halvings are those of the frame reflect-padded to multiples of 4
        padded = build_pyramid(pad_to_multiple_of_4(img)[0])
        assert pyr.i2.shape[1:] == i2_shape
        assert np.array_equal(pyr.i1, padded.i1) and np.array_equal(pyr.i2, padded.i2)


def test_pyramid_of_constant_is_constant():
    img = np.full((3, 32, 48), 37.0, dtype=np.float32)
    pyr = build_pyramid(img)
    for level in pyr.scales:
        assert np.max(np.abs(level - 37.0)) < 1e-5


def test_pyramid_keeps_original_scale_untouched():
    rng = np.random.default_rng(31)
    img = rng.uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    pyr = build_pyramid(img)
    assert np.array_equal(pyr.i0, img)


def test_checkerboard_nyquist_attenuation():
    # amplitude survival ratio comes from the blur oracle, not a fixed guess
    m, a = 128.0, 50.0
    img = np.zeros((1, 32, 32))
    img[0] = m + a * ((-1.0) ** (np.add.outer(np.arange(32), np.arange(32))))
    ref = oracles.blur_reflect_loops(img, SIGMA, RADIUS)
    ratio = np.max(np.abs(ref - m)) / a
    assert ratio < 0.1  # sigma 2/3 crushes the Nyquist component

    pyr = build_pyramid(img)
    assert np.max(np.abs(pyr.i1 - m)) <= ratio * a * (1 + 1e-9)
    assert np.max(np.abs(pyr.i1 - ref[:, ::2, ::2])) < 1e-10


def test_pyramid_levels_stay_within_input_range():
    rng = np.random.default_rng(32)
    img = rng.uniform(10, 240, size=(3, 32, 32)).astype(np.float32)
    pyr = build_pyramid(img)
    lo, hi = float(img.min()), float(img.max())
    for level in pyr.scales:
        assert level.min() >= lo - 1e-4 and level.max() <= hi + 1e-4


def test_pyramid_is_pure():
    rng = np.random.default_rng(33)
    img = rng.uniform(0, 255, size=(3, 16, 20)).astype(np.float32)
    p1 = build_pyramid(img)
    p2 = build_pyramid(img)
    for a, b in zip(p1.scales, p2.scales):
        assert np.array_equal(a, b)


def test_decimation_keeps_even_indices():
    img = np.zeros((1, 8, 8), dtype=np.float64)
    pyr = build_pyramid(img)
    blurred = gaussian_blur(img)
    assert np.array_equal(pyr.i1, blurred[:, ::2, ::2])
