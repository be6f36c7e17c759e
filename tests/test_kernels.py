import numpy as np
import pytest

import oracles
from fgseg import kernels
from fgseg.kernels import (
    ConvSpec,
    NonFiniteError,
    ShapeError,
    concat_depth,
    concat_depth_backward,
    conv2d_backward,
    conv2d_backward_shared,
    conv2d_forward,
    conv2d_relu_pool,
    dropout,
    dropout_backward,
    maxpool2x2_backward,
    maxpool2x2_forward,
    pointwise_activation,
    pointwise_activation_backward,
    tconv2d_backward,
    tconv2d_forward,
    upsample_nearest,
    upsample_nearest_backward,
)
from memory import numpy_peak

FD_H = 1e-3
LAYER_TOL = 1e-4


def spaced(rng, shape, lo=-2.0, hi=2.0):
    """Distinct values with pairwise gaps well above 2*FD_H and none near 0.

    Keeps finite differencing honest around max-pool ties and the relu kink.
    """
    n = int(np.prod(shape))
    vals = (rng.permutation(n) - n / 2 + 0.5) * ((hi - lo) / n)
    assert (hi - lo) / n > 4 * FD_H and np.abs(vals).min() > 0.01
    return vals.reshape(shape)


def scalar_loss(out, probe):
    return float(np.sum(out * probe))


# conv2d ----------------------------------------------------------------

def test_conv2d_all_ones_overlap_counts():
    # 3x3 ones * 3x3 ones kernel, pad 1: output counts the overlap area
    x = np.ones((1, 3, 3), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    spec = ConvSpec.same(3, 1, 1)
    y, _ = conv2d_forward(x, w, b, spec)
    expect = np.array([[[4, 6, 4], [6, 9, 6], [4, 6, 4]]], dtype=np.float32)
    assert np.array_equal(y, expect)


def test_conv2d_1x1_scale_and_bias():
    x = np.array([[[5.0]]], dtype=np.float32)
    w = np.array([[[[2.0]]]], dtype=np.float32)
    b = np.array([3.0], dtype=np.float32)
    spec = ConvSpec(1, 1, 0, 1, 1)
    y, _ = conv2d_forward(x, w, b, spec)
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == pytest.approx(13.0)


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    y, _ = conv2d_forward(x, w, b, ConvSpec.same(3, 3, 4))
    ref = oracles.conv2d_loops(x, w, b, stride=1, pad=1)
    assert np.max(np.abs(y - ref)) < 1e-6
    # single precision agrees with the double-precision oracle to f32 noise
    y32, _ = conv2d_forward(x.astype(np.float32), w.astype(np.float32),
                            b.astype(np.float32), ConvSpec.same(3, 3, 4))
    assert np.max(np.abs(y32 - ref)) < 1e-4


def test_conv2d_strided_matches_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 9, 7))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    spec = ConvSpec(3, 2, 1, 2, 3)
    y, _ = conv2d_forward(x, w, b, spec)
    ref = oracles.conv2d_loops(x, w, b, stride=2, pad=1)
    assert y.shape == ref.shape == (3, 5, 4)
    assert np.max(np.abs(y - ref)) < 1e-10


def test_conv2d_linearity():
    rng = np.random.default_rng(2)
    spec = ConvSpec.same(3, 2, 3)
    w = rng.standard_normal((3, 2, 3, 3))
    b = np.zeros(3)
    x = rng.standard_normal((2, 6, 6))
    y = rng.standard_normal((2, 6, 6))
    lhs, _ = conv2d_forward(1.7 * x - 0.4 * y, w, b, spec)
    cx, _ = conv2d_forward(x, w, b, spec)
    cy, _ = conv2d_forward(y, w, b, spec)
    assert oracles.max_rel_error(lhs, 1.7 * cx - 0.4 * cy) < 1e-5


def test_conv2d_shape_errors():
    spec = ConvSpec.same(3, 3, 4)
    x = np.zeros((2, 8, 8), dtype=np.float32)  # wrong channel count
    w = np.zeros((4, 3, 3, 3), dtype=np.float32)
    b = np.zeros(4, dtype=np.float32)
    with pytest.raises(ShapeError, match="channels"):
        conv2d_forward(x, w, b, spec)
    with pytest.raises(ShapeError, match="weights"):
        conv2d_forward(np.zeros((3, 8, 8), dtype=np.float32),
                       np.zeros((4, 3, 5, 5), dtype=np.float32), b, spec)
    with pytest.raises(ShapeError, match="bias"):
        conv2d_forward(np.zeros((3, 8, 8), dtype=np.float32), w,
                       np.zeros(5, dtype=np.float32), spec)


def test_conv2d_rejects_nonfinite_result():
    x = np.full((1, 4, 4), np.nan, dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    with pytest.raises(NonFiniteError):
        conv2d_forward(x, w, b, ConvSpec.same(3, 1, 1))


def test_conv2d_backward_finite_differences():
    rng = np.random.default_rng(3)
    spec = ConvSpec.same(3, 2, 4)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    probe = rng.standard_normal((4, 6, 6))

    y, ctx = conv2d_forward(x, w, b, spec)
    gx, gw, gb = conv2d_backward(probe, ctx)

    fx = oracles.fd_gradient(lambda v: scalar_loss(conv2d_forward(v, w, b, spec)[0], probe),
                             x.copy(), h=FD_H)
    fw = oracles.fd_gradient(lambda v: scalar_loss(conv2d_forward(x, v, b, spec)[0], probe),
                             w.copy(), h=FD_H)
    fb = oracles.fd_gradient(lambda v: scalar_loss(conv2d_forward(x, w, v, spec)[0], probe),
                             b.copy(), h=FD_H)
    assert oracles.max_rel_error(gx, fx) < LAYER_TOL
    assert oracles.max_rel_error(gw, fw) < LAYER_TOL
    assert oracles.max_rel_error(gb, fb) < LAYER_TOL


def test_conv2d_backward_grad_selection():
    rng = np.random.default_rng(4)
    spec = ConvSpec.same(3, 2, 2)
    x = rng.standard_normal((2, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3))
    y, ctx = conv2d_forward(x, w, np.zeros(2), spec)
    gx, gw, gb = conv2d_backward(np.ones_like(y), ctx)
    gx2, gw2, gb2 = conv2d_backward(np.ones_like(y), ctx, need_input_grad=False)
    assert gx is not None and gx2 is None
    assert np.array_equal(gw2, gw) and np.array_equal(gb2, gb)


def test_conv2d_backward_shared_matches_per_input_sum():
    # one weight set over three inputs of different sizes, as the encoder
    # runs over the pyramid scales: one GEMM against the per-input sum
    rng = np.random.default_rng(5)
    spec = ConvSpec.same(3, 3, 4)
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    ctxs, probes = [], []
    for h, wd in ((8, 12), (4, 6), (2, 4)):
        y, ctx = conv2d_forward(rng.standard_normal((3, h, wd)), w, b, spec)
        ctxs.append(ctx)
        probes.append(rng.standard_normal(y.shape))
    gxs, gw, gb = conv2d_backward_shared(probes, ctxs)
    plain = [conv2d_backward(g, c) for g, c in zip(probes, ctxs)]
    assert oracles.max_rel_error(gw, sum(p[1] for p in plain)) < 1e-12
    assert oracles.max_rel_error(gb, sum(p[2] for p in plain)) < 1e-12
    for gx, (want, _, _) in zip(gxs, plain, strict=True):
        assert oracles.max_rel_error(gx, want) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("ho,wo", [(23, 16), (70, 17)])
def test_conv2d_bands_match_one_gemm(monkeypatch, ho, wo, stride, dtype):
    rng = np.random.default_rng(26)
    spec = ConvSpec(3, stride, 1, 5, 6)
    x = rng.standard_normal((5, ho * stride, wo * stride)).astype(dtype)
    w = rng.standard_normal((6, 5, 3, 3)).astype(dtype)
    b = rng.standard_normal(6).astype(dtype)
    assert spec.conv_out_hw(*x.shape[1:]) == (ho, wo)
    row_bytes = 5 * 9 * wo * x.itemsize
    monkeypatch.setattr(kernels, "_BAND_BYTES", ho * row_bytes)
    assert kernels._plan_bands([(ho, wo)], 5 * 9 * x.itemsize) == [[(0, 0, ho, wo)]]
    one, _ = conv2d_forward(x, w, b, spec)
    # the whole input zero-padded up front, against each band's own padded rows
    whole, _ = conv2d_forward(np.pad(x, ((0, 0), (1, 1), (1, 1))), w, b,
                              ConvSpec(3, stride, 0, 5, 6))
    assert np.array_equal(whole, one)
    monkeypatch.setattr(kernels, "_BAND_BYTES", 4 * row_bytes)
    calls = record_bands(monkeypatch)
    banded, _ = conv2d_forward(x, w, b, spec)
    assert several_bands_short_last(calls)
    assert np.array_equal(banded, one)
    if dtype == np.float64:
        ref = oracles.conv2d_dot(x, w, b, stride=stride, pad=1)
        assert np.max(np.abs(banded - ref)) < 1e-12
    # every band is checked, the short last one included
    x[:, -1, -1] = np.nan
    with pytest.raises(NonFiniteError, match="conv2d"):
        conv2d_forward(x, w, b, spec)


def test_conv2d_peak_memory_stays_within_two_bands():
    # the widest frozen layer on a 320x240 frame; one full-frame column
    # matrix (177 MB) would take the peak far over this bound
    rng = np.random.default_rng(27)
    x = rng.standard_normal((64, 240, 320), dtype=np.float32)
    w = rng.standard_normal((64, 64, 3, 3), dtype=np.float32)
    b = np.zeros(64, dtype=np.float32)
    peak = numpy_peak(lambda: conv2d_forward(x, w, b, ConvSpec.same(3, 64, 64)))
    # the output (x's size) lives on after the call, and the ctx holds x
    # itself; one band's columns and its zero-padded input rows stay under
    # twice the 8 MiB band budget.  A whole-array padded copy of x (20 MB)
    # would take the peak over this bound.
    assert peak < x.nbytes + 2 * 8 * 2**20


@pytest.mark.parametrize("grids", [
    [(70, 17)], [(23, 16)], [(1, 1)], [(5, 64), (3, 128)],
    [(26, 18), (13, 9), (7, 5)], [(26, 32), (13, 16), (7, 8)],
    [(240, 320), (120, 160), (60, 80)],
])
def test_band_planner_rows_once_in_order_full_bands_aligned_cuts(monkeypatch, grids):
    for budget in (1, 700, 4 * 36 * 18 * 8, 10**5, 8 << 20):
        monkeypatch.setattr(kernels, "_BAND_BYTES", budget)
        for col_bytes in (36 * 4, 36 * 8, 4608 * 4):
            bands = kernels._plan_bands(grids, col_bytes)
            parts = [part for band in bands for part in band]
            assert [(i, r) for i, r0, nr, _ in parts for r in range(r0, r0 + nr)] == \
                [(i, r) for i, (ho, _) in enumerate(grids) for r in range(ho)]
            assert all(wo == grids[i][1] for i, *_, wo in parts)
            for band in bands[:-1]:
                assert sum(nr * wo for *_, nr, wo in band) * col_bytes >= budget
            # a part that starts inside its grid starts a band
            assert all(r0 * wo % kernels._BAND_ALIGN == 0 for _, r0, _, wo in parts)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_block4_grids_of_a_64x64_frame_make_one_band(dtype):
    # block 4's 3x3 convolutions over 512 channels, at the three scales: one
    # GEMM per layer in 64x64 training
    bands = kernels._plan_bands([(16, 16), (8, 8), (4, 4)], 4608 * np.dtype(dtype).itemsize)
    assert bands == [[(0, 0, 16, 16), (1, 0, 8, 8), (2, 0, 4, 4)]]


def record_bands(monkeypatch):
    """Wrap the kernels' band planner; returns the list of (arguments,
    bands) it is called with."""
    calls, plan = [], kernels._plan_bands

    def recorded(*args):
        calls.append((args, plan(*args)))
        return calls[-1][1]

    monkeypatch.setattr(kernels, "_plan_bands", recorded)
    return calls


def several_bands_short_last(calls):
    # one grid's bands: [[(grid, first row, rows, columns per row)], ...]
    return any(len(bands) > 1 and bands[-1][0][2] < bands[0][0][2] for _, bands in calls)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ho,wo", [(70, 18), (22, 16)])
def test_fused_conv_relu_pool_matches_the_three_plain_kernels(monkeypatch, ho, wo, dtype):
    rng = np.random.default_rng(30)
    spec = ConvSpec.same(3, 5, 6)
    x = rng.standard_normal((5, ho, wo)).astype(dtype)
    w = rng.standard_normal((6, 5, 3, 3)).astype(dtype)
    b = rng.standard_normal(6).astype(dtype)
    y, _ = conv2d_forward(x, w, b, spec)
    want, _ = maxpool2x2_forward(pointwise_activation(y, "relu")[0])
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1)
    calls = record_bands(monkeypatch)
    got = conv2d_relu_pool(x, w, b, spec)
    assert several_bands_short_last(calls)  # in row pairs
    assert got.dtype == dtype and np.array_equal(got, want)
    x[:, -1, -1] = np.nan  # the short last band is checked too
    with pytest.raises(NonFiniteError, match="conv2d"):
        conv2d_relu_pool(x, w, b, spec)
    with pytest.raises(ShapeError, match="even"):
        conv2d_relu_pool(x[:, 1:], w, b, spec)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad,opad,h,w", [
    (5, 2, 2, 1, 9, 14),   # dec.b6/b8's upscale, 16 padded columns a row
    (3, 1, 1, 0, 70, 14),  # dec.b5/b7's 3x3: bands of 32, 32 and 6 rows
    (3, 2, 1, 1, 70, 9),   # odd rows of 11 columns: 64-row bands
    (2, 2, 0, 0, 66, 8),   # no tap shifts at all
])
def test_tconv2d_bands_match_one_band(monkeypatch, kernel, stride, pad, opad, h, w, dtype):
    rng = np.random.default_rng(31)
    spec = ConvSpec(kernel, stride, pad, 4, 3, output_pad=opad)
    x = rng.standard_normal((4, h, w)).astype(dtype)
    k = rng.standard_normal((4, 3, kernel, kernel)).astype(dtype)
    b = rng.standard_normal(3).astype(dtype)
    one, _ = tconv2d_forward(x, k, b, spec)
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1)
    calls = record_bands(monkeypatch)
    banded, _ = tconv2d_forward(x, k, b, spec)
    assert several_bands_short_last(calls)
    assert np.array_equal(banded, one)


@pytest.mark.parametrize("kernel,stride,pad,opad", [(5, 2, 2, 1), (3, 1, 1, 0)])
def test_tconv2d_bands_plan_the_same_bands_with_or_without_y(monkeypatch, kernel, stride,
                                                             pad, opad):
    # y says only where each band lands: the streamed decoder tail passes the
    # map a tape keeps as y, and runs the bands it runs without one
    rng = np.random.default_rng(34)
    spec = ConvSpec(kernel, stride, pad, 4, 3, output_pad=opad)
    x = rng.standard_normal((4, 70, 14)).astype(np.float32)
    k = rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1)
    calls = record_bands(monkeypatch)
    whole, _ = tconv2d_forward(x, k, b, spec)
    rows = [r0 for r0, band in kernels.tconv2d_bands(x, k, b, spec)
            if np.array_equal(band, whole[:, r0:r0 + band.shape[1]])]
    assert len(calls) == 2 and calls[0] == calls[1]
    assert rows == [stride * m0 for [(_, m0, _, _)] in calls[0][1]] and len(rows) > 1


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_backward_bands_match_one_band(monkeypatch, dtype, tol, stride):
    # three inputs, as the encoder's scales, with widths that divide 64
    # columns, so that small bands end inside an input and span two of them
    rng = np.random.default_rng(32)
    spec = ConvSpec(3, stride, 1, 4, 6)
    w = rng.standard_normal((6, 4, 3, 3)).astype(dtype)
    b = rng.standard_normal(6).astype(dtype)
    ctxs, probes = [], []
    for h, wd in ((26, 32), (13, 16), (7, 8)):
        y, ctx = conv2d_forward(rng.standard_normal((4, h, wd)).astype(dtype), w, b, spec)
        ctxs.append(ctx)
        probes.append(rng.standard_normal(y.shape).astype(dtype))
    one = conv2d_backward_shared(probes, ctxs)
    monkeypatch.setattr(kernels, "_BAND_BYTES", 4 * 36 * 18 * np.dtype(dtype).itemsize)
    calls = record_bands(monkeypatch)
    banded = conv2d_backward_shared(probes, ctxs)
    (_, bands), = calls
    assert len(bands) > 1 and any(len({i for i, *_ in band}) > 1 for band in bands)
    for got, want in zip((*banded[0], banded[1], banded[2]), (*one[0], one[1], one[2])):
        assert got.dtype == dtype
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    _, gw, gb = conv2d_backward_shared(probes, ctxs, need_input_grad=False)
    assert np.array_equal(gw, banded[1]) and np.array_equal(gb, banded[2])


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("kernel,stride,pad,opad", [(5, 2, 2, 1), (3, 1, 1, 0), (1, 1, 0, 0)])
def test_tconv2d_backward_bands_match_one_band(monkeypatch, dtype, tol, kernel, stride, pad,
                                               opad):
    rng = np.random.default_rng(33)
    spec = ConvSpec(kernel, stride, pad, 4, 3, output_pad=opad)
    x = rng.standard_normal((4, 19, 16)).astype(dtype)
    k = rng.standard_normal((4, 3, kernel, kernel)).astype(dtype)
    y, ctx = tconv2d_forward(x, k, np.zeros(3, dtype), spec)
    g = rng.standard_normal(y.shape).astype(dtype)
    one = tconv2d_backward(g, ctx)
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1)
    calls = record_bands(monkeypatch)
    banded = tconv2d_backward(g, ctx)
    assert several_bands_short_last(calls)
    assert np.array_equal(banded[0], one[0])  # column bands of one GEMM
    for got, want in zip(banded, one):
        assert got.dtype == dtype
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


# tconv2d ---------------------------------------------------------------

def test_tconv2d_centered_delta_places_inputs_on_stride_grid():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    w = np.zeros((1, 1, 5, 5), dtype=np.float32)
    w[0, 0, 2, 2] = 1.0
    spec = ConvSpec.upscale2x(5, 1, 1)
    y, _ = tconv2d_forward(x, w, np.zeros(1, dtype=np.float32), spec)
    expect = np.zeros((1, 4, 4), dtype=np.float32)
    expect[0, 0, 0], expect[0, 0, 2] = 1.0, 2.0
    expect[0, 2, 0], expect[0, 2, 2] = 3.0, 4.0
    assert np.array_equal(y, expect)


def test_tconv2d_1x1_identity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4, 4)).astype(np.float32)
    w = np.ones((1, 1, 1, 1), dtype=np.float32)
    spec = ConvSpec(1, 1, 0, 1, 1)
    y, _ = tconv2d_forward(x, w, np.zeros(1, dtype=np.float32), spec)
    assert np.array_equal(y, x)


@pytest.mark.parametrize("h,w", [(2, 2), (3, 5), (16, 16), (15, 20)])
def test_tconv2d_upscale2x_doubles_extent(h, w):
    rng = np.random.default_rng(6)
    spec = ConvSpec.upscale2x(5, 2, 3)
    x = rng.standard_normal((2, h, w)).astype(np.float32)
    k = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    y, _ = tconv2d_forward(x, k, np.zeros(3, dtype=np.float32), spec)
    assert y.shape == (3, 2 * h, 2 * w)


@pytest.mark.parametrize("kernel,stride,pad,opad", [
    (3, 1, 1, 0),
    (1, 1, 0, 0),
    (5, 2, 2, 1),
])
def test_tconv2d_matches_zero_stuff_oracle(kernel, stride, pad, opad):
    rng = np.random.default_rng(7)
    spec = ConvSpec(kernel, stride, pad, 3, 2, output_pad=opad)
    x = rng.standard_normal((3, 5, 6))
    w = rng.standard_normal((3, 2, kernel, kernel))
    b = rng.standard_normal(2)
    y, _ = tconv2d_forward(x, w, b, spec)
    ref = oracles.tconv2d_zero_stuff(x, w, b, stride=stride, pad=pad, output_pad=opad)
    assert y.shape == ref.shape
    assert oracles.max_rel_error(y, ref) < 1e-10


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("h,w", [(5, 7), (6, 8), (6, 7)])
@pytest.mark.parametrize("kernel,stride,pad,opad", [
    (1, 1, 0, 0),
    (3, 1, 1, 0),
    (5, 2, 2, 1),
    (2, 2, 1, 0),  # shifted taps with no zero padding
    (1, 2, 0, 1),  # phases no tap reaches hold the bias alone
])
def test_tconv2d_phases_match_zero_stuff_oracle(kernel, stride, pad, opad, h, w,
                                                dtype, tol):
    rng = np.random.default_rng(28)
    spec = ConvSpec(kernel, stride, pad, 4, 3, output_pad=opad)
    x = rng.standard_normal((4, h, w))
    k = rng.standard_normal((4, 3, kernel, kernel))
    b = rng.standard_normal(3)
    y, ctx = tconv2d_forward(x.astype(dtype), k.astype(dtype), b.astype(dtype), spec)
    ref = oracles.tconv2d_zero_stuff(x, k, b, stride=stride, pad=pad, output_pad=opad)
    assert y.dtype == dtype and y.shape == ref.shape
    assert np.max(np.abs(y - ref)) <= tol * np.max(np.abs(ref))
    assert np.array_equal(ctx[0], x.astype(dtype))


@pytest.mark.parametrize("kernel,stride,pad,opad", [(1, 1, 0, 0), (3, 1, 1, 0), (5, 2, 2, 1)])
def test_tconv2d_phases_match_scatter_bit_for_bit(kernel, stride, pad, opad):
    # the plain path: one GEMM into every tap's columns, then a scatter-add
    rng = np.random.default_rng(29)
    spec = ConvSpec(kernel, stride, pad, 16, 8, output_pad=opad)
    x = rng.standard_normal((16, 9, 11)).astype(np.float32)
    k = rng.standard_normal((16, 8, kernel, kernel)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    y, _ = tconv2d_forward(x, k, b, spec)
    full = np.zeros((8, 8 * stride + kernel + opad, 10 * stride + kernel + opad), np.float32)
    kernels._col2im(k.reshape(16, -1).T @ x.reshape(16, -1), full, kernel, kernel, stride, 9, 11)
    ho, wo = spec.tconv_out_hw(9, 11)
    assert np.array_equal(y, full[:, pad:pad + ho, pad:pad + wo] + b[:, None, None])


def test_tconv2d_is_adjoint_of_conv2d():
    # <conv(x), y> == <x, tconv(y)> with the shared kernel, zero bias
    rng = np.random.default_rng(8)
    for kernel, stride, pad, opad, h, w in [(3, 1, 1, 0, 6, 6), (5, 2, 2, 1, 8, 10)]:
        cspec = ConvSpec(kernel, stride, pad, 3, 4)
        x = rng.standard_normal((3, h, w))
        k = rng.standard_normal((4, 3, kernel, kernel))
        cx, _ = conv2d_forward(x, k, np.zeros(4), cspec)
        y = rng.standard_normal(cx.shape)
        tspec = ConvSpec(kernel, stride, pad, 4, 3, output_pad=opad)
        ty, _ = tconv2d_forward(y, k, np.zeros(3), tspec)
        assert ty.shape == x.shape
        lhs = float(np.sum(cx * y))
        rhs = float(np.sum(x * ty))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-4


def test_output_pad_must_stay_below_stride():
    with pytest.raises(ShapeError):
        ConvSpec(5, 2, 2, 1, 1, output_pad=2)
    with pytest.raises(ShapeError):
        ConvSpec(3, 1, 1, 1, 1, output_pad=1)


@pytest.mark.parametrize("kernel,stride,pad,opad", [(3, 1, 1, 0), (5, 2, 2, 1)])
def test_tconv2d_backward_finite_differences(kernel, stride, pad, opad):
    rng = np.random.default_rng(9)
    spec = ConvSpec(kernel, stride, pad, 2, 3, output_pad=opad)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((2, 3, kernel, kernel))
    b = rng.standard_normal(3)
    y, ctx = tconv2d_forward(x, w, b, spec)
    probe = rng.standard_normal(y.shape)
    gx, gw, gb = tconv2d_backward(probe, ctx)

    fx = oracles.fd_gradient(lambda v: scalar_loss(tconv2d_forward(v, w, b, spec)[0], probe),
                             x.copy(), h=FD_H)
    fw = oracles.fd_gradient(lambda v: scalar_loss(tconv2d_forward(x, v, b, spec)[0], probe),
                             w.copy(), h=FD_H)
    fb = oracles.fd_gradient(lambda v: scalar_loss(tconv2d_forward(x, w, v, spec)[0], probe),
                             b.copy(), h=FD_H)
    assert oracles.max_rel_error(gx, fx) < LAYER_TOL
    assert oracles.max_rel_error(gw, fw) < LAYER_TOL
    assert oracles.max_rel_error(gb, fb) < LAYER_TOL


# maxpool ---------------------------------------------------------------

def test_maxpool_hand_case():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
    y, _ = maxpool2x2_forward(x)
    assert np.array_equal(y, np.array([[[4.0]]], dtype=np.float32))


def test_maxpool_constant_image():
    x = np.full((3, 8, 6), 2.5, dtype=np.float32)
    y, _ = maxpool2x2_forward(x)
    assert y.shape == (3, 4, 3)
    assert np.all(y == 2.5)


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 6, 8)).astype(np.float32)
    y, _ = maxpool2x2_forward(x)
    assert np.array_equal(y, oracles.maxpool2x2_loops(x))


def test_maxpool_rejects_odd_extent():
    with pytest.raises(ShapeError, match="even"):
        maxpool2x2_forward(np.zeros((1, 5, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="even"):
        maxpool2x2_forward(np.zeros((1, 4, 7), dtype=np.float32))


def test_maxpool_backward_routes_to_argmax():
    rng = np.random.default_rng(11)
    x = spaced(rng, (2, 6, 8))
    y, ctx = maxpool2x2_forward(x)
    g = rng.standard_normal(y.shape)
    got = maxpool2x2_backward(g, ctx)
    ref = oracles.maxpool2x2_backward_loops(x, g)
    assert np.array_equal(got, ref)
    # everything not selected stays zero
    assert np.count_nonzero(got) == y.size


def test_maxpool_backward_tie_goes_to_first():
    x = np.zeros((1, 2, 2), dtype=np.float32)  # fully tied window
    y, ctx = maxpool2x2_forward(x)
    g = maxpool2x2_backward(np.array([[[1.0]]], dtype=np.float32), ctx)
    ref = oracles.maxpool2x2_backward_loops(x, np.array([[[1.0]]], dtype=np.float32))
    assert np.array_equal(g, ref)
    assert g[0, 0, 0] == 1.0 and np.count_nonzero(g) == 1


def test_maxpool_ctx_is_the_input_and_ties_go_to_first():
    # small integers tie within most windows
    x = np.random.default_rng(30).integers(0, 3, size=(3, 6, 8)).astype(np.float32)
    y, ctx = maxpool2x2_forward(x)
    assert ctx is x
    assert np.array_equal(y, oracles.maxpool2x2_loops(x))
    g = np.random.default_rng(31).standard_normal(y.shape).astype(np.float32)
    assert np.array_equal(maxpool2x2_backward(g, ctx),
                          oracles.maxpool2x2_backward_loops(x, g))


def test_maxpool_backward_finite_differences():
    rng = np.random.default_rng(12)
    x = spaced(rng, (2, 6, 6))
    y, ctx = maxpool2x2_forward(x)
    probe = rng.standard_normal(y.shape)
    g = maxpool2x2_backward(probe, ctx)
    fd = oracles.fd_gradient(lambda v: scalar_loss(maxpool2x2_forward(v)[0], probe),
                             x.copy(), h=FD_H)
    assert oracles.max_rel_error(g, fd) < LAYER_TOL


# activations -----------------------------------------------------------

def test_sigmoid_at_zero():
    y, _ = pointwise_activation(np.zeros((1, 1, 1)), "sigmoid")
    assert y[0, 0, 0] == pytest.approx(0.5)


def test_relu_signs():
    y, _ = pointwise_activation(np.array([-3.2, 3.2]), "relu")
    assert y[0] == 0.0 and y[1] == pytest.approx(3.2)


def test_sigmoid_symmetry():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(1000) * 5
    a, _ = pointwise_activation(x, "sigmoid")
    b, _ = pointwise_activation(-x, "sigmoid")
    assert np.max(np.abs(a + b - 1.0)) < 1e-7


def test_sigmoid_moderate_range_stays_open_interval():
    x = np.linspace(-30, 30, 101)
    y, _ = pointwise_activation(x, "sigmoid")
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_unknown_activation_kind():
    with pytest.raises(ValueError, match="kind"):
        pointwise_activation(np.zeros(3), "tanh")


def test_relu_backward_passes_grad_where_positive():
    x = np.array([1.0, -1.0, 2.0, -0.5])
    _, ctx = pointwise_activation(x, "relu")
    g = pointwise_activation_backward(np.array([10.0, 20.0, 30.0, 40.0]), ctx)
    assert np.array_equal(g, np.array([10.0, 0.0, 30.0, 0.0]))


def test_relu_ctx_marks_exactly_the_positive_inputs():
    x = np.array([[-2.0, -0.0, 0.0, 1e-300], [3.0, -1e-300, 5.0, -7.0]])
    before = x.copy()
    y, (kind, cached) = pointwise_activation(x, "relu")
    assert kind == "relu" and cached is y
    assert np.array_equal(cached > 0, x > 0)
    assert np.array_equal(x, before)  # pure: finite differencing perturbs x


@pytest.mark.parametrize("kind", ["relu", "sigmoid"])
def test_activation_backward_finite_differences(kind):
    rng = np.random.default_rng(14)
    x = spaced(rng, (2, 6, 6)) if kind == "relu" else rng.standard_normal((2, 6, 6))
    y, ctx = pointwise_activation(x, kind)
    probe = rng.standard_normal(y.shape)
    g = pointwise_activation_backward(probe, ctx)
    fd = oracles.fd_gradient(lambda v: scalar_loss(pointwise_activation(v, kind)[0], probe),
                             x.copy(), h=FD_H)
    assert oracles.max_rel_error(g, fd) < LAYER_TOL


# dropout ---------------------------------------------------------------

def test_dropout_inference_is_identity():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 5, 5)).astype(np.float32)
    y, ctx = dropout(x, 0.5, training=False)
    assert y is x and ctx is None


def test_dropout_rate_zero_is_identity():
    x = np.ones((2, 3, 3), dtype=np.float32)
    y, ctx = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert np.array_equal(y, x) and ctx is None


def test_dropout_preserves_mean_at_scale():
    x = np.ones(1_000_000, dtype=np.float32)
    y, _ = dropout(x, 0.5, training=True, rng=np.random.default_rng(16))
    assert 0.99 < float(y.mean()) < 1.01


def test_dropout_survivors_scaled_rest_zero():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    y, (keep, scale) = dropout(x, 0.25, training=True, rng=np.random.default_rng(18))
    assert scale == pytest.approx(1.0 / 0.75)
    assert np.array_equal(y[~keep], np.zeros(np.count_nonzero(~keep), dtype=np.float32))
    assert np.allclose(y[keep], x[keep] * scale, rtol=1e-6)


def test_dropout_rate_validation():
    x = np.ones(4)
    for bad in (1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="rate"):
            dropout(x, bad, training=True, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        dropout(x, 0.5, training=True)


def test_dropout_same_seed_same_mask():
    x = np.ones((2, 16, 16), dtype=np.float32)
    y1, _ = dropout(x, 0.5, training=True, rng=np.random.default_rng(19))
    y2, _ = dropout(x, 0.5, training=True, rng=np.random.default_rng(19))
    assert np.array_equal(y1, y2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_draws_its_mask_in_chunks_as_one_draw(dtype):
    # about 2.5 chunks, the last one ragged: the mask and the generator's
    # state after it are those of one float64 draw over the whole input
    x = np.ones((5, kernels.CHUNK // 2 + 7), dtype=dtype)
    rng, plain = np.random.default_rng(23), np.random.default_rng(23)
    y, (keep, scale) = dropout(x, 0.5, training=True, rng=rng)
    assert np.array_equal(keep, plain.random(x.shape) >= 0.5)
    assert rng.bit_generator.state == plain.bit_generator.state
    assert y.dtype == dtype and np.array_equal(y, np.where(keep, x * scale, 0))


def test_dropout_backward_finite_differences():
    # fix the mask by rebuilding the generator inside the loss closure
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 5, 5))
    probe = rng.standard_normal((2, 5, 5))

    def loss(v):
        out, _ = dropout(v, 0.5, training=True, rng=np.random.default_rng(21))
        return scalar_loss(out, probe)

    _, ctx = dropout(x, 0.5, training=True, rng=np.random.default_rng(21))
    g = dropout_backward(probe, ctx)
    fd = oracles.fd_gradient(loss, x.copy(), h=FD_H)
    assert oracles.max_rel_error(g, fd) < LAYER_TOL
    assert np.array_equal(dropout_backward(probe, None), probe)


# upsample --------------------------------------------------------------

def test_upsample_replicates_blocks():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    y = upsample_nearest(x, 2)
    expect = np.array([[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]],
                      dtype=np.float64)
    assert np.array_equal(y, expect)


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_upsample_rows_from_any_row_match_the_whole_map(factor):
    # a band of the upsampled map from a row that need not start a block,
    # and cropped on the right, as the decoder input's bands are written
    x = np.random.default_rng(24).standard_normal((3, 5, 4))
    whole = upsample_nearest(x, factor)
    for row in range(5 * factor - 2):
        out = np.full((3, 2, 4 * factor - 1), np.nan)
        assert upsample_nearest(x, factor, out=out, row=row) is out
        assert np.array_equal(out, whole[:, row:row + 2, :4 * factor - 1])
    with pytest.raises(ShapeError, match="from row"):
        upsample_nearest(x, factor, out=np.empty((3, 2, 4)), row=5 * factor - 1)


def test_upsample_factor_one_identity():
    x = np.arange(12.0).reshape(1, 3, 4)
    assert upsample_nearest(x, 1) is x


def test_upsample_constant_stays_constant():
    y = upsample_nearest(np.full((2, 3, 3), 7.0), 4)
    assert y.shape == (2, 12, 12) and np.all(y == 7.0)


def test_upsample_factor_validation():
    with pytest.raises(ValueError, match="factor"):
        upsample_nearest(np.zeros((1, 2, 2)), 0)


@pytest.mark.parametrize("factor", [2, 4])
def test_upsample_backward_finite_differences(factor):
    rng = np.random.default_rng(22)
    x = rng.standard_normal((2, 3, 4))
    probe = rng.standard_normal((2, 3 * factor, 4 * factor))
    g = upsample_nearest_backward(probe, factor)
    fd = oracles.fd_gradient(lambda v: scalar_loss(upsample_nearest(v, factor), probe),
                             x.copy(), h=FD_H)
    assert oracles.max_rel_error(g, fd) < LAYER_TOL


# concat ----------------------------------------------------------------

def test_concat_depth_triple_shape():
    parts = [np.zeros((512, 60, 80), dtype=np.float32) for _ in range(3)]
    assert concat_depth(parts).shape == (1536, 60, 80)


def test_concat_single_input_identity():
    x = np.ones((4, 3, 3), dtype=np.float32)
    assert concat_depth([x]) is x


def test_concat_slices_bit_exact():
    rng = np.random.default_rng(23)
    parts = [rng.standard_normal((c, 4, 5)).astype(np.float32) for c in (2, 3, 1)]
    y = concat_depth(parts)
    assert np.array_equal(y[:2], parts[0])
    assert np.array_equal(y[2:5], parts[1])
    assert np.array_equal(y[5:], parts[2])


def test_concat_spatial_mismatch():
    with pytest.raises(ShapeError, match="input 1"):
        concat_depth([np.zeros((1, 4, 4)), np.zeros((1, 4, 5))])
    with pytest.raises(ShapeError, match="no inputs"):
        concat_depth([])


def test_concat_backward_splits_channels():
    rng = np.random.default_rng(24)
    g = rng.standard_normal((6, 4, 4))
    parts = concat_depth_backward(g, [2, 3, 1])
    assert np.array_equal(parts[0], g[:2])
    assert np.array_equal(parts[1], g[2:5])
    assert np.array_equal(parts[2], g[5:])
    with pytest.raises(ShapeError):
        concat_depth_backward(g, [2, 3])


# determinism -----------------------------------------------------------

def test_forward_passes_are_bit_deterministic():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((3, 12, 12)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    spec = ConvSpec.same(3, 3, 4)
    y1, _ = conv2d_forward(x, w, b, spec)
    y2, _ = conv2d_forward(x, w, b, spec)
    assert np.array_equal(y1, y2)
    t1, _ = tconv2d_forward(y1, w, np.zeros(3, np.float32), ConvSpec.same(3, 4, 3))
    t2, _ = tconv2d_forward(y1, w, np.zeros(3, np.float32), ConvSpec.same(3, 4, 3))
    assert np.array_equal(t1, t2)
