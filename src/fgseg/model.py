"""Triplet multi-scale encoder + transposed-convolution decoder.

One shared encoder (VGG-16 blocks 1-4, pools 3 and 4 removed, dropout in
block 4) runs over three pyramid scales; the three 512-channel feature maps
are upsampled to the finest feature grid, depth-concatenated to 1536
channels, and decoded back to a per-pixel foreground probability by five
transposed-convolution blocks.

Encoder blocks 1-3 are frozen (pretrained-feature territory); block 4 and
the whole decoder train.  The first transposed layer of each of blocks 5-8
carries an L2 penalty on its weights.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import pad_to_multiple
from .kernels import (
    CHUNK,
    ConvSpec,
    NonFiniteError,
    ShapeError,
    _pad_hw,
    _plan_bands,
    concat_depth_backward,
    conv2d_backward_shared,
    conv2d_forward,
    conv2d_relu_pool,
    conv_ctx,
    dropout,
    dropout_backward,
    ensure_finite,
    pointwise_activation,
    pointwise_activation_backward,
    tconv2d_backward,
    tconv2d_bands,
    tconv2d_forward,
    upsample_nearest,
    upsample_nearest_backward,
)
from .netpbm import atomic_write
from .pyramid import PyramidTriple

DROPOUT_RATE = 0.5
DECODER_L2 = 5e-4


@dataclass(frozen=True)
class LayerDef:
    name: str
    kind: str              # "conv" or "tconv"
    in_ch: int
    out_ch: int
    kernel: int
    upscale: bool = False  # kernel-5 stride-2 geometry that doubles H and W
    pool_after: bool = False
    dropout_after: bool = False
    frozen: bool = False
    l2: float = 0.0

    def __post_init__(self):
        if self.pool_after and not self.frozen:
            raise ValueError(f"{self.name}: a pooled layer must be frozen, since its "
                             f"fused conv, ReLU and pool keep nothing for backward")

    def spec(self) -> ConvSpec:
        if self.upscale:
            return ConvSpec.upscale2x(self.kernel, self.in_ch, self.out_ch)
        return ConvSpec.same(self.kernel, self.in_ch, self.out_ch)


ENCODER_DEFS = (
    LayerDef("enc.b1.c1", "conv", 3, 64, 3, frozen=True),
    LayerDef("enc.b1.c2", "conv", 64, 64, 3, frozen=True, pool_after=True),
    LayerDef("enc.b2.c1", "conv", 64, 128, 3, frozen=True),
    LayerDef("enc.b2.c2", "conv", 128, 128, 3, frozen=True, pool_after=True),
    LayerDef("enc.b3.c1", "conv", 128, 256, 3, frozen=True),
    LayerDef("enc.b3.c2", "conv", 256, 256, 3, frozen=True),
    LayerDef("enc.b3.c3", "conv", 256, 256, 3, frozen=True),
    LayerDef("enc.b4.c1", "conv", 256, 512, 3, dropout_after=True),
    LayerDef("enc.b4.c2", "conv", 512, 512, 3, dropout_after=True),
    LayerDef("enc.b4.c3", "conv", 512, 512, 3, dropout_after=True),
)

DECODER_DEFS = (
    LayerDef("dec.b5.t1x1a", "tconv", 1536, 64, 1, l2=DECODER_L2),
    LayerDef("dec.b5.t3x3", "tconv", 64, 64, 3),
    LayerDef("dec.b5.t1x1b", "tconv", 64, 512, 1),
    LayerDef("dec.b6.t1x1a", "tconv", 512, 64, 1, l2=DECODER_L2),
    LayerDef("dec.b6.t5x5", "tconv", 64, 64, 5, upscale=True),
    LayerDef("dec.b6.t1x1b", "tconv", 64, 256, 1),
    LayerDef("dec.b7.t1x1a", "tconv", 256, 64, 1, l2=DECODER_L2),
    LayerDef("dec.b7.t3x3", "tconv", 64, 64, 3),
    LayerDef("dec.b7.t1x1b", "tconv", 64, 128, 1),
    LayerDef("dec.b8.t5x5", "tconv", 128, 64, 5, upscale=True, l2=DECODER_L2),
    LayerDef("dec.b9.t1x1", "tconv", 64, 1, 1),
)

ALL_DEFS = ENCODER_DEFS + DECODER_DEFS


@dataclass
class LayerParams:
    name: str
    weights: np.ndarray
    bias: np.ndarray
    trainable: bool
    l2: float = 0.0


@dataclass
class ModelParams:
    layers: dict  # name -> LayerParams, in architecture order
    dtype: np.dtype = np.dtype(np.float32)

    def __getitem__(self, name) -> LayerParams:
        return self.layers[name]

    def trainable_layers(self):
        return [p for p in self.layers.values() if p.trainable]


def _glorot(rng, shape, fan_in, fan_out, dtype):
    """rng.uniform(-bound, bound, size=shape).astype(dtype), drawn CHUNK
    values at a time: the same values and generator state, without a
    float64 array of the whole shape."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty(shape, dtype)
    flat = w.reshape(-1)
    for i in range(0, flat.size, CHUNK):
        flat[i:i + CHUNK] = rng.uniform(-bound, bound, size=min(CHUNK, flat.size - i))
    return w


def _weight_shape(d: LayerDef):
    if d.kind == "conv":
        return (d.out_ch, d.in_ch, d.kernel, d.kernel)
    return (d.in_ch, d.out_ch, d.kernel, d.kernel)


def build_model(encoder_weights=None, seed=0, dtype=np.float32) -> ModelParams:
    """Assemble the full parameter set.

    encoder_weights: optional container path holding exactly the 10 encoder
    conv layers, checked as strictly as load_weights checks a full model;
    everything else is random-initialized with fan-based uniform bounds and
    zero biases.
    """
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    pretrained = None
    if encoder_weights is not None:
        pretrained = _read_layers(encoder_weights, ENCODER_DEFS)
    layers = {}
    for d in ALL_DEFS:
        shape = _weight_shape(d)
        fan_in = d.in_ch * d.kernel * d.kernel
        fan_out = d.out_ch * d.kernel * d.kernel
        if pretrained is not None and d.name in pretrained:
            w, b = (a.astype(dtype, copy=False) for a in pretrained[d.name])
        else:
            w = _glorot(rng, shape, fan_in, fan_out, dtype)
            b = np.zeros(d.out_ch, dtype=dtype)
        layers[d.name] = LayerParams(d.name, w, b, trainable=not d.frozen, l2=d.l2)
    return ModelParams(layers, dtype)


def count_parameters(model: ModelParams):
    """(total, trainable, frozen) scalar parameter counts."""
    total = trainable = 0
    for p in model.layers.values():
        n = p.weights.size + p.bias.size
        total += n
        if p.trainable:
            trainable += n
    return total, trainable, total - trainable


def layer_table(model: ModelParams):
    """Per-layer rows: (name, kind, weight shape, params, trainable, l2)."""
    rows = []
    for d in ALL_DEFS:
        p = model[d.name]
        rows.append((d.name, d.kind, tuple(p.weights.shape),
                     p.weights.size + p.bias.size, p.trainable, p.l2))
    return rows


# ------------------------------------------------------------------ forward
#
# The tape is a flat list of (kind, name, ctx) entries, one group per
# trainable layer (frozen ones need no backward), each written by _record:
# the named conv/tconv, the activation, then dropout when the LayerDef has
# it; encoder scales 0, 1 and 2, then the decoder.  backward() slices it by
# the defs.  The decoder's first and last two layers run in bands whose
# 64-column cuts keep each output bit-identical to tconv2d_forward's.

_N_SCALES = DECODER_DEFS[0].in_ch // ENCODER_DEFS[-1].out_ch
_FIRST_TRAINABLE = next(d for d in ALL_DEFS if not d.frozen)
_TRUNK_DEFS = ENCODER_DEFS[:ENCODER_DEFS.index(_FIRST_TRAINABLE)]
_TRAINED_ENCODER_DEFS = ENCODER_DEFS[len(_TRUNK_DEFS):]


def _entry_count(d: LayerDef):
    return 2 + d.dropout_after


@contextmanager
def _named(d: LayerDef, shape):
    """Re-raise a NonFiniteError as one that names layer d and the shape of
    its input, which tells the three scales apart."""
    try:
        yield
    except NonFiniteError as e:
        raise NonFiniteError(f"{d.name} on a {'x'.join(map(str, shape))} input: {e}") from e


def _activation(d: LayerDef):
    return "sigmoid" if d == DECODER_DEFS[-1] else "relu"


def _record(tape, d: LayerDef, x, w, y, dctx=None):
    """Layer d's entries on the tape, if any: its conv or tconv on x with weights
    w, its activation's output y, then dropout's dctx.  y may be dropout's output:
    > 0 exactly where it keeps a ReLU's > 0, and its backward zeroes the rest."""
    if tape is not None:
        act = _activation(d)
        tape.append((d.kind, d.name, conv_ctx(x, w, d.spec())))
        tape.append((act, None, (act, y)))
        if d.dropout_after:
            tape.append(("dropout", None, dctx))


def _run_layer(model, d: LayerDef, x, training, rng, tape):
    p = model[d.name]
    with _named(d, x.shape):
        if d.pool_after:  # frozen (LayerDef's rule), so there is nothing to record
            return conv2d_relu_pool(x, p.weights, p.bias, d.spec())
        op = conv2d_forward if d.kind == "conv" else tconv2d_forward
        out, _ = op(x, p.weights, p.bias, d.spec())
    pointwise_activation(out, _activation(d), out=out)  # the layer's own fresh output
    out, dctx = dropout(out, DROPOUT_RATE, training, rng) if d.dropout_after else (out, None)
    _record(tape, d, x, p.weights, out, dctx)
    return out


def _run_layers(model, defs, x, training=False, rng=None, tape=None):
    for d in defs:
        x = _run_layer(model, d, x, training, rng, None if d.frozen else tape)
    return x


def encode_scale(model: ModelParams, image, training=False, rng=None, tape=None):
    """Blocks 1-4 on one scale: (3, h, w) -> (512, h/4, w/4)."""
    h, w = image.shape[-2:]
    if h % 4 or w % 4:
        raise ShapeError(f"encode_scale: extents must be multiples of 4, got {h}x{w}")
    x = np.ascontiguousarray(image, dtype=model.dtype)
    return _run_layers(model, ENCODER_DEFS, x, training, rng, tape)


def _scale_images(pyr: PyramidTriple):
    # pad every level into the encoder's multiple-of-4 contract; features
    # are cropped back to the finest grid, and the output to the frame
    return [pad_to_multiple(image, 4) for image in pyr.scales]


class Trunk(NamedTuple):
    scales: tuple   # per-scale output of blocks 1-3
    extents: tuple  # (H, W) of the frame


def frozen_trunk(model: ModelParams, pyr: PyramidTriple) -> Trunk:
    """Per-scale output of blocks 1-3, the first trainable layer's input.
    Those blocks neither train nor drop out, so it is fixed per frame."""
    scales = tuple(_run_layers(model, _TRUNK_DEFS,
                               np.ascontiguousarray(image, dtype=model.dtype))
                   for image in _scale_images(pyr))
    return Trunk(scales, pyr.i0.shape[-2:])


def forward(model: ModelParams, pyr, training=False, rng=None, tape=None):
    """Full network: pyramid triple of a frame of any size -> probability
    map (1, H, W).  pyr may instead be frozen_trunk(model, pyr), for the
    same result from less work."""
    h, w = pyr.i0.shape[-2:] if isinstance(pyr, PyramidTriple) else pyr.extents
    # only the callee holds each layer's input (its output, without a tape),
    # so, unless the tape records it, it is freed once the next layer starts
    out = _decoder_tail(model, _run_layers(
        model, DECODER_DEFS[1:-2],
        _first_decoder_layer(model, _features(model, pyr, training, rng, tape), tape),
        tape=tape), tape)
    return out[:, :h, :w]


def _features(model, pyr, training, rng, tape):
    """The encoder's output at each scale."""
    if isinstance(pyr, PyramidTriple):
        return [encode_scale(model, image, training, rng, tape)
                for image in _scale_images(pyr)]
    return [_run_layers(model, _TRAINED_ENCODER_DEFS, x, training, rng, tape)
            for x in pyr.scales]


def _pointwise_band(model, d, r0, x, y, shape):
    """Layer d, a 1x1 tconv, and its activation as _run_layer runs them, on
    x, rows r0.. of its input shaped shape, into the same rows of y."""
    p = model[d.name]
    out = y[:, r0:r0 + x.shape[1]].reshape(d.out_ch, -1)
    np.matmul(p.weights.reshape(d.in_ch, d.out_ch).T, x.reshape(d.in_ch, -1), out=out)
    out += p.bias[:, None]
    with _named(d, shape):
        ensure_finite(out, "tconv2d")
    pointwise_activation(out, _activation(d), out=out)


def _first_decoder_layer(model, feats, tape):
    """The first decoder layer (a 1x1 tconv) and its ReLU on the scales'
    features, upsampled to the finest feature grid and depth-concatenated
    one band of that grid at a time.  Each band's input lands in its rows of
    the whole input that a tape keeps, else in one buffer every band reuses."""
    d = DECODER_DEFS[0]
    c, th, tw = feats[0].shape
    bands = _plan_bands([(th, tw)], d.in_ch * feats[0].itemsize)
    x = np.empty((d.in_ch, th if tape is not None else bands[0][0][2], tw), feats[0].dtype)
    y = np.empty((d.out_ch, th, tw), dtype=np.result_type(feats[0], model.dtype))
    for [(_, r0, nr, _)] in bands:
        band = x[:, r0:r0 + nr] if tape is not None else x[:, :nr]
        for s, f in enumerate(feats):
            upsample_nearest(f, 2 ** s, out=band[s * c:(s + 1) * c], row=r0)
        _pointwise_band(model, d, r0, band, y, (d.in_ch, th, tw))
    _record(tape, d, x, model[d.name].weights, y)
    return y


def _decoder_tail(model, x, tape):
    """The last two decoder layers, a 5x5 upscaling tconv and a 1x1 one,
    with their ReLU and sigmoid on x, one band of the first's output rows at
    a time (tconv2d_bands').  With a tape each rectified band lands in its
    rows of one full-resolution map, the 1x1 layer's input, to keep."""
    up, last = DECODER_DEFS[-2:]
    p = model[up.name]
    ho, wo = up.spec().tconv_out_hw(*x.shape[1:])
    y = np.empty((last.out_ch, ho, wo), dtype=np.result_type(x, model.dtype))
    kept = None if tape is None else np.empty((up.out_ch, ho, wo), y.dtype)
    for r0, band in tconv2d_bands(x, p.weights, p.bias, up.spec(), kept):
        with _named(up, x.shape):
            ensure_finite(band, "tconv2d")
        pointwise_activation(band, "relu", out=band)
        _pointwise_band(model, last, r0, band, y, (up.out_ch, ho, wo))
    _record(tape, up, x, p.weights, kept)
    _record(tape, last, kept, model[last.name].weights, y)
    return y


# ----------------------------------------------------------------- backward

_BACKWARD = {
    "relu": pointwise_activation_backward,
    "sigmoid": pointwise_activation_backward,
    "dropout": dropout_backward,
}
_ENCODER_ENTRIES = sum(_entry_count(d) for d in _TRAINED_ENCODER_DEFS)


def _check_tape(tape):
    pos = 0
    for d in _TRAINED_ENCODER_DEFS * _N_SCALES + DECODER_DEFS:
        found = tuple(tape[pos][:2]) if pos < len(tape) else "missing"
        if found != (d.kind, d.name):
            raise ValueError(f"backward: tape entry {pos} is {found}, expected "
                             f"{d.kind} {d.name!r}")
        pos += _entry_count(d)
    if pos != len(tape):
        raise ValueError(f"backward: tape has {len(tape)} entries, the layer "
                         f"definitions record {pos}")


def _backward_layers(defs, paths, gs, grads):
    """Walk defs in reverse, layer by layer across the paths that ran them
    (the encoder per scale, the decoder once), each with its own tape slice
    and gradient; sums weight gradients into grads, returns input gradients."""
    end = len(paths[0])
    for d in reversed(defs):
        start = end - _entry_count(d)
        ctxs = []
        for i, entries in enumerate(paths):
            (_, _, ctx), *after = entries[start:end]
            for k, _, c in reversed(after):
                gs[i] = _BACKWARD[k](gs[i], c)
            ctxs.append(ctx)
        if d.kind == "conv":
            gs, gw, gb = conv2d_backward_shared(
                gs, ctxs, need_input_grad=d is not _FIRST_TRAINABLE)
        else:  # the decoder runs once per forward
            gx, gw, gb = tconv2d_backward(gs[0], ctxs[0])
            gs = [gx]
        grads[d.name] = (gw, gb)
        end = start
    return gs


def backward(model: ModelParams, tape, grad_out):
    """Backward over the tape of the trainable layers produced by forward().

    Returns {layer name: (grad_weights, grad_bias)} for trainable layers.
    Encoder gradients sum over the three shared scale paths, one GEMM per
    layer, and stop at the first trainable layer.  Raises ValueError when
    the tape does not match the layer definitions.
    """
    _check_tape(tape)
    grads = {}
    # undo forward's crop onto the frame: the sigmoid's output spans the
    # decoder grid
    hd, wd = tape[-1][2][1].shape[1:]
    grad_out = _pad_hw(grad_out, 0, hd - grad_out.shape[1], 0, wd - grad_out.shape[2])
    (g,) = _backward_layers(DECODER_DEFS, [tape[_N_SCALES * _ENCODER_ENTRIES:]],
                            [grad_out], grads)
    paths = [tape[s * _ENCODER_ENTRIES:(s + 1) * _ENCODER_ENTRIES]
             for s in range(_N_SCALES)]
    parts = concat_depth_backward(g, [ENCODER_DEFS[-1].out_ch] * _N_SCALES)
    last = _entry_count(ENCODER_DEFS[-1])
    gs = []
    for s, (g, entries) in enumerate(zip(parts, paths)):
        # undo the crop, then the upsample, onto this scale's feature grid
        factor = 2 ** s
        h, w = entries[-last][2][0].shape[1:]  # the last conv's input
        g = _pad_hw(g, 0, h * factor - g.shape[1], 0, w * factor - g.shape[2])
        gs.append(upsample_nearest_backward(g, factor))
    del parts, g  # views of the decoder input's gradient, which gs[0] alone keeps
    _backward_layers(_TRAINED_ENCODER_DEFS, paths, gs, grads)
    return grads


# ------------------------------------------------------------ serialization

_MAGIC = b"FGSN"
_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_weights(model: ModelParams, path):
    """Write the container: magic, version, then name/dtype/dims/flags/data
    per tensor, little-endian throughout."""
    entries = []
    for p in model.layers.values():
        entries.append((f"{p.name}.weight", p.weights, p.trainable, p.l2))
        entries.append((f"{p.name}.bias", p.bias, p.trainable, 0.0))
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(entries)))
        for name, arr, trainable, l2 in entries:
            code = _CODES_BY_DTYPE[np.dtype(arr.dtype)]
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", code, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(struct.pack("<Bf", int(trainable), float(l2)))
            # the array's own buffer, not a bytes copy of it
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]))


def read_container(path):
    """Parse a container into {tensor name: (array, trainable, l2)}; a NaN or
    Inf in any tensor is rejected here, before it can reach a layer.  Each
    tensor is read straight into its own array, once its byte count is
    known to fit in what is left of the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != _MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {_MAGIC!r}")
        if len(head) < 12:
            raise ValueError(f"{path}: truncated header")
        version, count = struct.unpack_from("<II", head, 4)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported container version {version}")

        def unpack(fmt):
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        entries = {}
        for _ in range(count):
            try:
                (namelen,) = unpack("<H")
                name = fh.read(namelen).decode("utf-8")
                code, ndim = unpack("<BB")
                dims = unpack(f"<{ndim}I")
                trainable, l2 = unpack("<Bf")
            except struct.error:
                raise ValueError(f"{path}: truncated container") from None
            dtype = _DTYPE_CODES.get(code)
            if dtype is None:
                raise ValueError(f"{path}: unknown dtype code {code} for {name!r}")
            nbytes = math.prod(dims) * dtype.itemsize
            if nbytes > size - fh.tell():
                raise ValueError(f"{path}: truncated data for {name!r}")
            arr = np.empty(dims, dtype)
            if fh.readinto(arr) != nbytes:
                raise ValueError(f"{path}: truncated data for {name!r}")
            if name in entries:
                raise ValueError(f"{path}: duplicate tensor {name!r}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{path}: non-finite values in tensor {name!r}")
            entries[name] = (arr, bool(trainable), float(l2))
        if fh.tell() != size:
            raise ValueError(f"{path}: {size - fh.tell()} trailing bytes")
    return entries


def _read_layers(path, defs):
    """{layer name: (weights, bias)} from a container holding exactly the
    tensors of defs, each with the layer table's shape, trainable flag and
    L2 factor (compared as float32); every error names the file."""
    entries = read_container(path)
    out = {}
    for d in defs:
        arrays = []
        for key, shape, l2 in ((f"{d.name}.weight", _weight_shape(d), d.l2),
                               (f"{d.name}.bias", (d.out_ch,), 0.0)):
            if key not in entries:
                raise ValueError(f"{path}: missing tensor {key!r}")
            arr, trainable, found = entries.pop(key)
            if arr.shape != shape:
                raise ValueError(f"{path}: {key!r} has shape {arr.shape}, "
                                 f"expected {shape}")
            if trainable == d.frozen or np.float32(found) != np.float32(l2):
                raise ValueError(f"{path}: {key!r} has trainable={trainable} "
                                 f"l2={np.float32(found)}, which contradicts the layer "
                                 f"table's trainable={not d.frozen} l2={np.float32(l2)}")
            arrays.append(arr)
        out[d.name] = tuple(arrays)
    if entries:
        raise ValueError(f"{path}: unknown tensors {sorted(entries)}")
    return out


def load_weights(path) -> ModelParams:
    """Strict full-model load; every architecture tensor must be present,
    as _read_layers checks it."""
    arrays = _read_layers(path, ALL_DEFS)
    dtype = arrays[ALL_DEFS[0].name][0].dtype
    layers = {}
    for d in ALL_DEFS:
        w, b = arrays[d.name]
        layers[d.name] = LayerParams(d.name, w.astype(dtype, copy=False),
                                     b.astype(dtype, copy=False), not d.frozen, d.l2)
    return ModelParams(layers, np.dtype(dtype))


def get_state(model: ModelParams, out=None):
    """Deep copy of the trainable weights, for checkpoint snapshots; the
    frozen layers never change.  With out, an earlier snapshot of the same
    model, the copy overwrites its arrays and out is returned."""
    if out is None:
        return {p.name: (p.weights.copy(), p.bias.copy())
                for p in model.trainable_layers()}
    for name, (w, b) in out.items():
        np.copyto(w, model[name].weights)
        np.copyto(b, model[name].bias)
    return out


def set_state(model: ModelParams, state):
    for name, (w, b) in state.items():
        p = model[name]
        p.weights = w.copy()
        p.bias = b.copy()
