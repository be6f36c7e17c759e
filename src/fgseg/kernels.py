"""Dense layer primitives: forward and backward passes on (C, H, W) arrays.

No function writes its inputs, except into an ``out=`` array the caller
passes.  A forward pass returns ``(output, ctx)`` where ``ctx`` carries
whatever the matching backward pass needs, and no more:

- conv2d and tconv2d: ``conv_ctx``, ``(input, weights, spec)``; backward
  zero-pads the input (conv2d) or the output gradient (tconv2d) one band of
  rows at a time and rebuilds that band's patch columns;
- maxpool2x2: the input; backward finds each window's argmax;
- conv2d_relu_pool, conv2d then ReLU then maxpool2x2 for layers that never
  train: no ctx, only the pooled output;
- ReLU: ``("relu", output)``, since the output is > 0 exactly where the input
  is; sigmoid: ``("sigmoid", output)``;
- dropout: ``(keep mask, scale)``, or None at inference.

Arrays are numpy ndarrays in channel-major layout; float32 by default,
float64 for gradient checking.

Only the GEMM ops, where an overflow first shows, raise ``NonFiniteError``:
``conv2d_forward`` and ``conv2d_relu_pool`` per band, and ``tconv2d_forward``;
``tconv2d_bands`` leaves each band's check to its caller.
ReLU, sigmoid and max-pool keep a finite array finite.  An overflow in
dropout's scale or in a backward sum reaches the next GEMM's check or the
next layer's weight gradient; backward returns gradients unchecked, and the
optimizer checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Tensor dimensions incompatible with the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def ensure_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: non-finite values in result")


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a (transposed) convolution with a square kernel.

    ``output_pad`` is meaningful for transposed convolutions only and must be
    smaller than the stride.
    """

    kernel: int
    stride: int
    pad: int
    in_channels: int
    out_channels: int
    output_pad: int = 0

    def __post_init__(self):
        if self.kernel < 1:
            raise ShapeError(f"kernel must be >= 1, got {self.kernel}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if not 0 <= self.output_pad < self.stride:
            raise ShapeError(
                f"output_pad {self.output_pad} must be in [0, stride={self.stride})")

    @classmethod
    def same(cls, kernel, in_channels, out_channels):
        """Stride-1 'same' convolution; requires an odd kernel."""
        if kernel % 2 == 0:
            raise ShapeError(f"'same' padding needs an odd kernel, got {kernel}")
        return cls(kernel, 1, (kernel - 1) // 2, in_channels, out_channels)

    @classmethod
    def upscale2x(cls, kernel, in_channels, out_channels):
        """Stride-2 transposed-conv geometry that exactly doubles H and W."""
        return cls(kernel, 2, (kernel - 1) // 2, in_channels, out_channels, output_pad=1)

    def conv_out_hw(self, h, w):
        ho = (h + 2 * self.pad - self.kernel) // self.stride + 1
        wo = (w + 2 * self.pad - self.kernel) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"input {h}x{w} too small for kernel "
                             f"{self.kernel}x{self.kernel} pad {self.pad}")
        return ho, wo

    def tconv_out_hw(self, h, w):
        ho = (h - 1) * self.stride - 2 * self.pad + self.kernel + self.output_pad
        wo = (w - 1) * self.stride - 2 * self.pad + self.kernel + self.output_pad
        if ho < 1 or wo < 1:
            raise ShapeError(f"transposed conv output would be {ho}x{wo}")
        return ho, wo


def _check_chw(x, op):
    if x.ndim != 3:
        raise ShapeError(f"{op}: expected (C, H, W) input, got shape {x.shape}")


def _pad_hw(x, top, bottom, left, right):
    """x with top, bottom, left and right rows and columns of zeros added on
    its last two axes; a negative width crops instead.  A view of x when no
    width is positive, else a new array."""
    c, h, w = x.shape
    if max(top, bottom, left, right) <= 0:
        return x[:, -top:h + bottom, -left:w + right]
    out = np.empty((c, h + top + bottom, w + left + right), dtype=x.dtype)
    # the rows and columns of x that stay, and where they land in out
    r0, c0 = max(-top, 0), max(-left, 0)
    r1, c1 = max(r0, h + min(bottom, 0)), max(c0, w + min(right, 0))
    out[:, :r0 + top] = 0
    out[:, r1 + top:] = 0
    out[:, r0 + top:r1 + top, :c0 + left] = 0
    out[:, r0 + top:r1 + top, c1 + left:] = 0
    out[:, r0 + top:r1 + top, c0 + left:c1 + left] = x[:, r0:r1, c0:c1]
    return out


def _im2col(x, kh, kw, stride, ho, wo, out):
    """Copy the patches of a stride-s convolution over x (C, H, W) into out,
    a (C*kh*kw, ho*wo) matrix or a column slice of one; returns out."""
    c = x.shape[0]
    sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(c, kh, kw, ho, wo),
        strides=(sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    np.copyto(out.reshape(c, kh, kw, ho, wo), windows)
    return out


def _col2im(cols, out, kh, kw, stride, ho, wo):
    """Adjoint of _im2col: scatter-add patch columns into out (C, H, W)."""
    cols = cols.reshape(out.shape[0], kh, kw, ho, wo)
    for a in range(kh):
        for b in range(kw):
            out[:, a:a + ho * stride:stride, b:b + wo * stride:stride] += cols[:, a, b]


# ---------------------------------------------------------------- convolution

_BAND_BYTES = 8 << 20
_BAND_ALIGN = 64  # columns; BLAS sums a GEMM's ragged last columns apart


def _aligned_rows(width):
    """The fewest rows of width columns that make a multiple of _BAND_ALIGN."""
    return _BAND_ALIGN // math.gcd(width, _BAND_ALIGN)


def _plan_bands(grids, col_bytes, step=1):
    """Split the output rows of grids [(rows, columns per row)], taken in
    turn, into even bands of at least _BAND_BYTES at col_bytes a column, the
    last band excepted, so a band's buffers stay under 2 * _BAND_BYTES where
    they can.  Each band is a list of (grid, first row, rows, columns per
    row).  A band that ends inside a grid ends on a multiple of _BAND_ALIGN
    columns, and of step rows, which keeps each GEMM's output bit-identical
    to one GEMM over all columns."""
    total = sum(ho * wo for ho, wo in grids)
    cap = -(-total // max(1, total * col_bytes // _BAND_BYTES))
    bands, band, n = [], [], 0
    for i, (ho, wo) in enumerate(grids):
        step_i = math.lcm(step, _aligned_rows(wo))  # rows
        r0 = 0
        while r0 < ho:
            nr = min(ho - r0, -(-(cap - n) // (wo * step_i)) * step_i)
            band.append((i, r0, nr, wo))
            n, r0 = n + nr * wo, r0 + nr
            if n >= cap:
                bands.append(band)
                band, n = [], 0
    return bands + [band] if band else bands


def _band_columns(xs, spec, bands):
    """Iterate (band, cols) over bands of _plan_bands for the convolution
    with spec over xs: cols holds the band's patch columns, each part read
    from a zero-padded copy of only the input rows it reaches, in a buffer
    this call allocates.  The conv passes make it before their output: the
    other order left a 320x240 segment's resident peak 3 MB higher (glibc)."""
    k, s = xs[0].shape[0] * spec.kernel ** 2, spec.stride
    widths = [sum(nr * wo for *_, nr, wo in band) for band in bands]
    buf = np.empty(k * max(widths), dtype=xs[0].dtype)

    def columns():
        for band, width in zip(bands, widths):
            cols, col = buf[:k * width].reshape(k, -1), 0
            for i, r0, nr, wo in band:
                top, n = r0 * s - spec.pad, (nr - 1) * s + spec.kernel  # input rows read
                # no name holds the padded rows, so they are freed before the yield
                _im2col(_pad_hw(xs[i], -top, top + n - xs[i].shape[1], spec.pad, spec.pad),
                        spec.kernel, spec.kernel, s, nr, wo, cols[:, col:col + nr * wo])
                col += nr * wo
            yield band, cols
    return columns()


def _check_conv(op, x, w, b, spec, channels):
    """Raise ShapeError unless x, w and b fit spec; w is (*channels, k, k)."""
    _check_chw(x, op)
    if x.shape[0] != spec.in_channels:
        raise ShapeError(f"{op}: input has {x.shape[0]} channels, "
                         f"spec expects {spec.in_channels}")
    want = (*channels, spec.kernel, spec.kernel)
    if w.shape != want:
        raise ShapeError(f"{op}: weights shaped {w.shape}, spec wants "
                         f"({','.join(map(str, want))})")
    if b.shape != (spec.out_channels,):
        raise ShapeError(f"{op}: bias shaped {b.shape}, expected ({spec.out_channels},)")


def conv_ctx(x, w, spec):
    """conv2d's and tconv2d's ctx, which their backward passes unpack."""
    return x, w, spec


def conv2d_forward(x, w, b, spec: ConvSpec):
    """Cross-correlation of x (C_in,H,W) with w (C_out,C_in,kh,kw) plus bias,
    one band of output rows at a time: each band's GEMM writes straight into
    its rows of the output."""
    _check_conv("conv2d", x, w, b, spec, (spec.out_channels, spec.in_channels))
    ho, wo = spec.conv_out_hw(*x.shape[1:])
    w2 = w.reshape(spec.out_channels, -1)
    columns = _band_columns([x], spec, _plan_bands([(ho, wo)], w2.shape[1] * x.itemsize))
    y = np.empty((spec.out_channels, ho * wo), dtype=np.result_type(x, w))
    for [(_, r0, nr, _)], cols in columns:
        band = y[:, r0 * wo:(r0 + nr) * wo]
        np.matmul(w2, cols, out=band)
        band += b[:, None]
        ensure_finite(band, "conv2d")
    return y.reshape(spec.out_channels, ho, wo), conv_ctx(x, w, spec)


def conv2d_relu_pool(x, w, b, spec: ConvSpec):
    """conv2d_forward, ReLU and maxpool2x2_forward in one pass: each band
    of output rows is pooled as soon as its GEMM ends, so only the pooled
    rows are kept.  There is no ctx, so it serves layers that never train."""
    _check_conv("conv2d", x, w, b, spec, (spec.out_channels, spec.in_channels))
    ho, wo = spec.conv_out_hw(*x.shape[1:])
    if ho % 2 or wo % 2:
        raise ShapeError(f"conv2d_relu_pool: output extents must be even, got {ho}x{wo}")
    w2 = w.reshape(spec.out_channels, -1)
    # bands of whole row pairs, so every band pools whole windows
    bands = _plan_bands([(ho, wo)], w2.shape[1] * x.itemsize, 2)
    columns = _band_columns([x], spec, bands)
    y = np.empty((spec.out_channels, ho // 2, wo // 2), dtype=np.result_type(x, w))
    pre = np.empty((spec.out_channels, bands[0][0][2] * wo), dtype=y.dtype)
    for [(_, r0, nr, _)], cols in columns:
        band = pre[:, :nr * wo]
        np.matmul(w2, cols, out=band)
        band += b[:, None]
        ensure_finite(band, "conv2d")
        pointwise_activation(band, "relu", out=band)
        _pool2x2(band.reshape(spec.out_channels, nr, wo), out=y[:, r0 // 2:(r0 + nr) // 2])
    return y


def conv2d_backward(grad_out, ctx, need_input_grad=True):
    """Gradients of conv2d_forward; returns (grad_x, grad_w, grad_b)."""
    grad_xs, grad_w, grad_b = conv2d_backward_shared([grad_out], [ctx], need_input_grad)
    return grad_xs[0] if need_input_grad else None, grad_w, grad_b


def conv2d_backward_shared(grads_out, ctxs, need_input_grad=True):
    """Gradients of one conv2d_forward layer run on several inputs (the
    encoder's pyramid scales); returns ([grad_x], grad_w, grad_b).

    The inputs' output rows, taken in turn, split into the bands of
    _plan_bands.  Each band's GEMMs add its part of the weight gradient and
    scatter its part of the input gradient; inputs that fit in one band
    together share its one GEMM."""
    xs = [x for x, _, _ in ctxs]
    _, w, spec = ctxs[0]
    grids = [spec.conv_out_hw(*x.shape[1:]) for x in xs]
    for g, grid in zip(grads_out, grids, strict=True):
        if g.shape != (spec.out_channels, *grid):
            raise ShapeError(f"conv2d backward: grad shaped {g.shape}, expected "
                             f"{(spec.out_channels, *grid)}")
    w2 = w.reshape(spec.out_channels, -1)
    s, p = spec.stride, spec.pad
    columns = _band_columns(xs, spec, _plan_bands(grids, w2.shape[1] * xs[0].itemsize))
    dxps = [np.zeros((spec.in_channels, x.shape[1] + 2 * p, x.shape[2] + 2 * p), dtype=x.dtype)
            for x in xs] if need_input_grad else []
    grad_w = None
    for band, cols in columns:
        # the band's output gradient, its inputs' columns side by side
        parts = [grads_out[i][:, r0:r0 + nr].reshape(spec.out_channels, -1)
                 for i, r0, nr, _ in band]
        gband = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if need_input_grad:
            dcols, col = w2.T @ gband, 0
            for i, r0, nr, wo in band:
                _col2im(dcols[:, col:col + nr * wo], dxps[i][:, r0 * s:],
                        spec.kernel, spec.kernel, s, nr, wo)
                col += nr * wo
            del dcols  # before the weight gradient's GEMM builds its own
        if grad_w is None:
            grad_w, grad_b = gband @ cols.T, gband.sum(axis=1)
        else:
            grad_w += gband @ cols.T
            grad_b += gband.sum(axis=1)
    grad_xs = [dxp[:, p:p + x.shape[1], p:p + x.shape[2]] for dxp, x in zip(dxps, xs)]
    return grad_xs if need_input_grad else None, grad_w.reshape(w.shape), grad_b


# ----------------------------------------------------- transposed convolution

def tconv2d_forward(x, w, b, spec: ConvSpec):
    """Transposed convolution (adjoint of conv2d with the same spec).

    Weights are oriented (C_in, C_out, kh, kw).  Output spatial size is
    (H-1)*stride - 2*pad + kernel + output_pad per axis.
    """
    _check_conv("tconv2d", x, w, b, spec, (spec.in_channels, spec.out_channels))
    ho, wo = spec.tconv_out_hw(*x.shape[1:])
    y = np.empty((spec.out_channels, ho, wo), dtype=np.result_type(x, w))
    if (spec.kernel, spec.stride, spec.pad) == (1, 1, 0):
        # one unshifted tap: its GEMM writes y itself
        np.matmul(w.reshape(spec.in_channels, -1).T, x.reshape(spec.in_channels, -1),
                  out=y.reshape(spec.out_channels, -1))
        y += b[:, None, None]
    else:
        for _ in tconv2d_bands(x, w, b, spec, y):
            pass
    ensure_finite(y, "tconv2d")
    return y, conv_ctx(x, w, spec)


def tconv2d_bands(x, w, b, spec: ConvSpec, y=None):
    """Iterate (first output row, band) over tconv2d_forward's output, bias
    added and not yet checked finite, one band of output rows at a time.
    Any spec but the 1x1 one.  A band ends on a multiple of _BAND_ALIGN
    output columns, so a GEMM over one band's columns gives the bits of one
    GEMM over all of them.  y says only where each band lands: in its rows
    of y when given, else at the front of one buffer that every band reuses."""
    h, wd = x.shape[1:]
    ho, wo = spec.tconv_out_hw(h, wd)
    s = spec.stride
    # Output pixel i takes tap a from input row m = (i + pad - a) / s where
    # that divides, so output phase p = i mod s sums, over its taps, one
    # stride-1 GEMM each on the input shifted by d = (p + pad - a) / s.
    phases_h, qh = _phase_taps(s, spec.kernel, spec.pad, ho, h)
    phases_w, qw = _phase_taps(s, spec.kernel, spec.pad, wo, wd)
    q = max(qh, qw)
    # On the input zero-padded by q, every tap is a flat view over rows of
    # wd + 2q columns whose last row may run past the right edge: a band of
    # phase rows m0.. reads padded rows m0.. up to the largest shift and one
    # row more.
    wp = wd + 2 * q
    reach = max([0] + [d for _, taps in phases_h for _, d in taps]) + q + 1
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    dtype = np.result_type(x, w)
    # phase 0 has the most rows; later phases use the front of the buffers
    bands = _plan_bands([(phases_h[0][0], wp)],
                        (spec.in_channels + 2 * spec.out_channels) * dtype.itemsize,
                        _aligned_rows(s * wo))
    rows = bands[0][0][2]
    acc = np.empty((spec.out_channels, rows * wp), dtype)
    tap = np.empty_like(acc)
    out = np.empty((spec.out_channels, min(ho, s * rows), wo), dtype) if y is None else y
    for [(_, m0, _, _)] in bands:
        top = s * m0 if y is not None else 0
        band = out[:, top:top + min(ho - s * m0, s * rows)]
        flat = _pad_hw(x, q - m0, m0 + rows + reach - q - h, q, q).reshape(spec.in_channels, -1)
        for py, (nh, taps_h) in enumerate(phases_h):
            nm = min(rows, nh - m0)
            for px, (nw, taps_w) in enumerate(phases_w):
                n = nm * wp
                # sum taps in _col2im's (a, b) order, so sums match it bit for bit
                taps = [(i, j, (di + q) * wp + dj + q) for i, di in taps_h for j, dj in taps_w]
                for t, (i, j, start) in enumerate(taps):
                    np.matmul(wt[i, j].T, flat[:, start:start + n], out=(tap if t else acc)[:, :n])
                    if t:
                        acc[:, :n] += tap[:, :n]
                phase = acc[:, :n].reshape(spec.out_channels, nm, wp)[:, :, :nw] if taps else 0
                np.add(phase, b[:, None, None], out=band[:, py::s, px::s][:, :nm])
        del flat
        yield s * m0, band


def _phase_taps(s, k, pad, n_out, n_in):
    """Along one axis, per output phase p < s: (its output count, [(tap a,
    input shift d)] for the taps that reach it, in increasing a); and the
    zero padding that keeps every shifted view inside the input."""
    phases = [(len(range(p, n_out, s)),
               [(a, (p + pad - a) // s) for a in range(k) if (p + pad - a) % s == 0])
              for p in range(min(s, n_out))]
    return phases, max([0] + [max(-d, d + n - n_in) for n, taps in phases for _, d in taps])


def tconv2d_backward(grad_out, ctx):
    """Gradients of tconv2d_forward; returns (grad_x, grad_w, grad_b)."""
    x, w, spec = ctx
    h, wd = x.shape[1:]
    ho, wo = spec.tconv_out_hw(h, wd)
    if grad_out.shape != (spec.out_channels, ho, wo):
        raise ShapeError(f"tconv2d backward: grad shaped {grad_out.shape}, "
                         f"expected ({spec.out_channels},{ho},{wo})")
    # padded by pad all round, the gradient spans the full (H-1)*s + k +
    # output_pad extent the forward's taps reach; its patch columns over
    # the input grid are built one band of input rows at a time
    x2, w2 = x.reshape(spec.in_channels, -1), w.reshape(spec.in_channels, -1)
    grad_x = np.empty(x2.shape, dtype=np.result_type(w, grad_out))
    bands = _plan_bands([(h, wd)], w2.shape[1] * grad_out.itemsize)
    for [(_, r0, nr, _)], cols in _band_columns([grad_out], spec, bands):
        band = slice(r0 * wd, (r0 + nr) * wd)
        np.matmul(w2, cols, out=grad_x[:, band])
        if r0:
            grad_w += x2[:, band] @ cols.T
        else:
            grad_w = x2[:, band] @ cols.T
    return grad_x.reshape(x.shape), grad_w.reshape(w.shape), grad_out.sum(axis=(1, 2))


# -------------------------------------------------------------------- pooling

def maxpool2x2_forward(x):
    """2x2 max pooling with stride 2: the max of the four strided views.
    The ctx is the input; backward finds each window's argmax."""
    _check_chw(x, "maxpool2x2")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial extents must be even, got {h}x{w}")
    return _pool2x2(x), x


def _pool2x2(x, out=None):
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]), out=out)


def maxpool2x2_backward(grad_out, ctx):
    """Routes each gradient to the first max of its window, in row order."""
    c, h, w = ctx.shape
    if grad_out.shape != (c, h // 2, w // 2):
        raise ShapeError(f"maxpool2x2 backward: grad shaped {grad_out.shape}, "
                         f"expected ({c},{h // 2},{w // 2})")
    win = ctx.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(
        c, h // 2, w // 2, 4)
    scatter = np.zeros((c, h // 2, w // 2, 4), dtype=grad_out.dtype)
    np.put_along_axis(scatter, win.argmax(axis=3)[..., None], grad_out[..., None], axis=3)
    return scatter.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


# ---------------------------------------------------------------- activations

def pointwise_activation(x, kind, out=None):
    """Elementwise ReLU or sigmoid, into out when given (x itself may be
    out); returns (y, ctx) for the backward pass."""
    if kind == "relu":
        y = np.maximum(x, 0, out=out)
        return y, ("relu", y)  # y > 0 exactly where x > 0
    if kind == "sigmoid":
        y = np.empty_like(x) if out is None else out
        pos = x >= 0  # each element is read before it is written
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        return y, ("sigmoid", y)
    raise ValueError(f"unknown activation kind {kind!r}")


def pointwise_activation_backward(grad_out, ctx):
    kind, cached = ctx
    if kind == "relu":
        return grad_out * (cached > 0)
    return grad_out * cached * (1.0 - cached)


# -------------------------------------------------------------------- dropout

CHUNK = 1 << 15  # elements per chunk of a streamed pass: its arrays stay in cache


def dropout(x, rate, training, rng=None):
    """Inverted dropout; identity at inference.  Returns (y, mask_ctx).
    The keep mask is rng.random(x.shape) >= rate, drawn CHUNK uniforms at a
    time: the same mask and generator state, without a float64 array of x's
    size."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = np.empty(x.shape, dtype=bool)
    flat = keep.reshape(-1)
    uniforms = np.empty(min(CHUNK, flat.size))
    for i in range(0, flat.size, CHUNK):
        part = flat[i:i + CHUNK]
        np.greater_equal(rng.random(out=uniforms[:part.size]), rate, out=part)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return np.where(keep, x * scale, x.dtype.type(0.0)), (keep, scale)


def dropout_backward(grad_out, ctx):
    if ctx is None:
        return grad_out
    keep, scale = ctx
    return np.where(keep, grad_out * scale, grad_out.dtype.type(0.0))


# ----------------------------------------------------------------- upsampling

def upsample_nearest(x, factor, out=None, row=0):
    """Replicate every pixel into a factor x factor block.  With out, only
    the part that out's extents cover from upsampled row `row` on, left
    columns first, written into out; row need not be a multiple of factor."""
    _check_chw(x, "upsample_nearest")
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    c, h, w = x.shape
    if out is None:
        if factor == 1 and row == 0:
            return x
        out = np.empty((c, h * factor, w * factor), dtype=x.dtype)
    if (out.shape[0] != c or not 0 <= row <= h * factor - out.shape[1]
            or out.shape[2] > w * factor):
        raise ShapeError(f"upsample_nearest: {out.shape} from row {row} is not "
                         f"within {factor}x of {x.shape}")
    for a in range(factor):
        top = (row + a) // factor  # the input row that out's row a repeats
        for b in range(factor):
            part = out[:, a::factor, b::factor]
            part[...] = x[:, top:top + part.shape[1], :part.shape[2]]
    return out


def upsample_nearest_backward(grad_out, factor):
    if factor == 1:
        return grad_out
    c, h, w = grad_out.shape
    return grad_out.reshape(c, h // factor, factor, w // factor, factor).sum(axis=(2, 4))


# -------------------------------------------------------------- concatenation

def concat_depth(inputs):
    """Stack feature maps along the channel axis; spatial sizes must agree."""
    if not inputs:
        raise ShapeError("concat_depth: no inputs")
    hw = inputs[0].shape[1:]
    for i, t in enumerate(inputs):
        _check_chw(t, "concat_depth")
        if t.shape[1:] != hw:
            raise ShapeError(f"concat_depth: input {i} is {t.shape[1]}x{t.shape[2]}, "
                             f"expected {hw[0]}x{hw[1]}")
    if len(inputs) == 1:
        return inputs[0]
    return np.concatenate(inputs, axis=0)


def concat_depth_backward(grad_out, channel_counts):
    """Split the gradient back into the per-input channel slices."""
    if grad_out.shape[0] != sum(channel_counts):
        raise ShapeError(f"concat_depth backward: grad has {grad_out.shape[0]} channels, "
                         f"inputs sum to {sum(channel_counts)}")
    splits = np.cumsum(channel_counts)[:-1]
    return np.split(grad_out, splits, axis=0)
