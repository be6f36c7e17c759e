import re
import struct

import numpy as np
import pytest

import oracles
from fgseg import kernels
from fgseg import model as M
from fgseg.data import SynthConfig, crop_back, pad_to_multiple_of_4, synth_sequence
from fgseg.kernels import (
    NonFiniteError,
    ShapeError,
    conv2d_backward,
    dropout_backward,
    pointwise_activation_backward,
    tconv2d_backward,
    upsample_nearest_backward,
)
from fgseg.model import (
    ALL_DEFS,
    DECODER_L2,
    LayerParams,
    ModelParams,
    backward,
    build_model,
    count_parameters,
    encode_scale,
    forward,
    get_state,
    layer_table,
    load_weights,
    read_container,
    save_weights,
    set_state,
)
from fgseg.pyramid import build_pyramid
from memory import numpy_peak


@pytest.fixture(scope="module")
def small_model():
    return build_model(seed=0)


# accounting ------------------------------------------------------------

def test_parameter_counts_exact(small_model):
    assert count_parameters(small_model) == (8_222_401, 6_486_913, 1_735_488)


def test_layer_table_rows(small_model):
    rows = layer_table(small_model)
    assert len(rows) == 21
    by_name = {r[0]: r for r in rows}
    assert by_name["enc.b1.c1"][2] == (64, 3, 3, 3)
    assert by_name["enc.b4.c2"][3] == 2_359_808
    assert by_name["dec.b8.t5x5"][3] == 204_864
    assert by_name["dec.b9.t1x1"][3] == 65
    assert sum(r[3] for r in rows) == 8_222_401


def test_frozen_and_l2_assignment(small_model):
    for p in small_model.layers.values():
        frozen = p.name.startswith(("enc.b1", "enc.b2", "enc.b3"))
        assert p.trainable == (not frozen)
    with_l2 = {p.name for p in small_model.layers.values() if p.l2 > 0}
    assert with_l2 == {"dec.b5.t1x1a", "dec.b6.t1x1a", "dec.b7.t1x1a", "dec.b8.t5x5"}
    assert all(small_model[n].l2 == DECODER_L2 for n in with_l2)


def test_same_seed_bit_identical_weights():
    a = build_model(seed=5)
    b = build_model(seed=5)
    for name in a.layers:
        assert np.array_equal(a[name].weights, b[name].weights)
        assert np.array_equal(a[name].bias, b[name].bias)
    c = build_model(seed=6)
    assert not np.array_equal(a["dec.b5.t3x3"].weights, c["dec.b5.t3x3"].weights)


def test_biases_start_at_zero(small_model):
    assert all(not p.bias.any() for p in small_model.layers.values())


# encoder ---------------------------------------------------------------

def test_encode_scale_shape(small_model):
    img = np.zeros((3, 64, 64), dtype=np.float32)
    assert encode_scale(small_model, img).shape == (512, 16, 16)


def test_encode_scale_rejects_unaligned(small_model):
    with pytest.raises(ShapeError, match="multiples of 4"):
        encode_scale(small_model, np.zeros((3, 10, 12), dtype=np.float32))


def test_encode_scale_inference_deterministic(small_model):
    rng = np.random.default_rng(60)
    img = rng.uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    a = encode_scale(small_model, img)
    b = encode_scale(small_model, img)
    assert np.array_equal(a, b)


def test_encode_scale_matches_composed_oracle():
    # replay blocks 1-4 with the standalone oracles, float64, tiny image
    m = build_model(seed=1, dtype=np.float64)
    rng = np.random.default_rng(61)
    for p in m.layers.values():  # nonzero biases make the check meaningful
        p.bias = rng.standard_normal(p.bias.shape) * 0.05
    img = rng.uniform(0, 255, size=(3, 8, 8))
    got = encode_scale(m, img)

    x = img
    for d in M.ENCODER_DEFS:
        p = m[d.name]
        x = oracles.conv2d_dot(x, p.weights, p.bias, stride=1, pad=(d.kernel - 1) // 2)
        x = np.maximum(x, 0.0)
        if d.pool_after:
            x = oracles.maxpool2x2_loops(x)
    assert x.shape == got.shape == (512, 2, 2)
    assert oracles.max_rel_error(got, x) < 1e-10


def _oracle_network(m, pyr):
    """Eval forward layer by layer from the standalone oracles."""
    feats = []
    for s, image in enumerate(pyr.scales):
        h, w = image.shape[1:]
        x = np.pad(image, ((0, 0), (0, -h % 4), (0, -w % 4)), mode="reflect")
        for d in M.ENCODER_DEFS:
            p = m[d.name]
            x = np.maximum(oracles.conv2d_dot(x, p.weights, p.bias, pad=1), 0.0)
            if d.pool_after:
                x = oracles.maxpool2x2_loops(x)
        feats.append(np.repeat(np.repeat(x, 2 ** s, axis=1), 2 ** s, axis=2))
    th, tw = feats[0].shape[1:]
    x = np.concatenate([f[:, :th, :tw] for f in feats])
    for d in M.DECODER_DEFS:
        p = m[d.name]
        stride, opad = (2, 1) if d.upscale else (1, 0)
        x = oracles.tconv2d_zero_stuff(x, p.weights, p.bias, stride=stride,
                                       pad=(d.kernel - 1) // 2, output_pad=opad)
        x = 1.0 / (1.0 + np.exp(-x)) if d is M.DECODER_DEFS[-1] else np.maximum(x, 0.0)
    return x


def test_forward_matches_oracle_network_across_band_seams(monkeypatch):
    # bands this small split every conv's rows, mostly with a short last
    # band, so a wrong seam or phase offset shows in the probabilities
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1 << 14)
    m = build_model(seed=3, dtype=np.float64)
    rng = np.random.default_rng(64)
    for p in m.layers.values():
        p.bias = rng.standard_normal(p.bias.shape) * 0.05
    m[M.DECODER_DEFS[-1].name].weights *= 100  # spread the map away from 0.5
    pyr = build_pyramid(rng.uniform(0, 255, size=(3, 44, 52)))
    got = forward(m, pyr)
    want = _oracle_network(m, pyr)[:, :44, :52]
    assert got.shape == want.shape == (1, 44, 52)
    assert want.std() > 0.1
    assert np.max(np.abs(got - want)) < 1e-10


def test_pooled_layers_must_be_frozen():
    # the fused conv, ReLU and pool records nothing for backward
    assert all(d.frozen for d in M.ALL_DEFS if d.pool_after)
    with pytest.raises(ValueError, match="enc.x.*must be frozen"):
        M.LayerDef("enc.x", "conv", 3, 4, 3, pool_after=True)


def test_encode_zero_image_is_bias_propagation():
    m = build_model(seed=2, dtype=np.float64)
    for p in m.layers.values():
        p.bias = np.full(p.bias.shape, 0.01)
    out = encode_scale(m, np.zeros((3, 8, 8)))
    # constant input per channel stays constant per channel away from borders;
    # with 'same' zero padding the interior column equals the center value
    assert out.shape == (512, 2, 2)
    assert np.all(out >= 0.0)


# full forward ----------------------------------------------------------

def test_forward_probability_map(small_model):
    rng = np.random.default_rng(62)
    img = rng.uniform(0, 255, size=(3, 64, 64)).astype(np.float32)
    tape = []
    out = forward(small_model, build_pyramid(img), tape=tape)
    assert out.shape == (1, 64, 64)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    # layer entries only, no markers between the scales and the decoder, and
    # only the trainable layers: backward never reads a frozen one
    assert {e[0] for e in tape} == {"conv", "relu", "dropout", "tconv", "sigmoid"}
    assert {e[1] for e in tape} - {None} == {p.name for p in small_model.trainable_layers()}
    # the first decoder entry takes the three 512-channel scale features
    first_dec = next(e for e in tape if e[0] == "tconv")
    assert first_dec[1] == "dec.b5.t1x1a"
    assert first_dec[2][0].shape == (3 * 512, 16, 16)


def test_forward_untrained_output_not_saturated(small_model):
    rng = np.random.default_rng(63)
    img = rng.uniform(0, 255, size=(3, 32, 32)).astype(np.float32)
    out = forward(small_model, build_pyramid(img))
    assert 0.05 < float(out.mean()) < 0.95


@pytest.mark.parametrize("h,w", [(16, 16), (32, 16), (64, 32), (20, 36), (48, 64)])
def test_forward_restores_input_extents(small_model, h, w):
    rng = np.random.default_rng(64)
    img = rng.uniform(0, 255, size=(3, h, w)).astype(np.float32)
    out = forward(small_model, build_pyramid(img))
    assert out.shape == (1, h, w)


def test_forward_inference_bit_deterministic(small_model):
    rng = np.random.default_rng(65)
    img = rng.uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    pyr = build_pyramid(img)
    assert np.array_equal(forward(small_model, pyr), forward(small_model, pyr))


def test_encoder_weights_shared_across_scales(small_model):
    rng = np.random.default_rng(66)
    img = rng.uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    tape = []
    forward(small_model, build_pyramid(img), tape=tape)
    # each encoder layer ran three times, on the same parameter objects
    entries = [e for e in tape if e[1] == "enc.b4.c3"]
    assert len(entries) == 3
    for e in entries:
        assert e[2][1] is small_model["enc.b4.c3"].weights


def test_forward_peak_memory_at_320x240():
    # inference keeps no layer context and frees the three scales' features
    # after the first decoder layer, which upsamples them one band at a time
    # instead of building their 1536-channel concatenation; the last two
    # decoder layers run one band of output rows at a time, so dec.b8.t5x5's
    # full-resolution output never exists whole; every convolution pads and
    # builds its patch columns one band of rows at a time, ReLU acts in
    # place and pooled layers keep only pooled rows.  Measured 35.6 MB
    # (numpy 2.4, f32), in enc.b1.c2; the bound adds a 3 MB margin.
    # dec.b8.t5x5's whole output took it to 46.7 MB; whole-array padding, a
    # second array per ReLU, per-scale upsampled copies and block 4's 47 MB
    # bands to 78.6 MB.
    net = build_model(seed=4)
    frame = np.random.default_rng(4).uniform(0, 255, (3, 240, 320)).astype(np.float32)
    pyr = build_pyramid(frame)
    peak = numpy_peak(lambda: forward(net, pyr))
    assert peak < 35.6e6 + 3e6


def test_forward_peak_memory_at_720x480():
    # CDnet 2014's largest frames: without a tape the first decoder layer
    # runs one band of the feature grid at a time, so the 1536-channel
    # decoder input (133 MB here) never exists whole, and the last two run
    # one band of output rows at a time, so neither does dec.b8.t5x5's
    # 88.5 MB output.  Measured 148.3 MB (numpy 2.4, f32), in enc.b4.c2;
    # the bound adds a 3 MB margin.  dec.b8.t5x5's whole output took the
    # peak to 168.1 MB, and the whole input to 190.8 MB.
    net = build_model(seed=4)
    frame = np.random.default_rng(4).uniform(0, 255, (3, 480, 720)).astype(np.float32)
    pyr = build_pyramid(frame)
    peak = numpy_peak(lambda: forward(net, pyr))
    assert peak < 148.3e6 + 3e6


# backward --------------------------------------------------------------

def test_backward_covers_exactly_trainable_layers(small_model):
    rng = np.random.default_rng(67)
    img = rng.uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    tape = []
    out = forward(small_model, build_pyramid(img), training=True,
                  rng=np.random.default_rng(0), tape=tape)
    grads = backward(small_model, tape, np.ones_like(out))
    expected = {p.name for p in small_model.layers.values() if p.trainable}
    assert set(grads) == expected
    for name, (gw, gb) in grads.items():
        assert gw.shape == small_model[name].weights.shape
        assert gb.shape == small_model[name].bias.shape


def test_end_to_end_gradient_check_small():
    # raw 0..255 inputs make activations large, so a big FD step lands on
    # relu kinks; h=1e-4 keeps the probe inside the smooth region
    m = build_model(seed=3, dtype=np.float64)
    rng = np.random.default_rng(68)
    img = rng.uniform(0, 255, size=(3, 16, 16))
    pyr = build_pyramid(img)
    probe = rng.standard_normal((1, 16, 16))
    h = 1e-4

    def loss():
        # dropout mask fixed by reseeding the generator every evaluation
        tape = []
        out = forward(m, pyr, training=True, rng=np.random.default_rng(99), tape=tape)
        return float(np.sum(out * probe)), tape

    base, tape = loss()
    grads = backward(m, tape, probe)

    worst = 0.0
    names = sorted(grads)
    for _ in range(12):
        name = names[int(rng.integers(len(names)))]
        w = m[name].weights
        flat = int(rng.integers(w.size))
        orig = w.flat[flat]
        w.flat[flat] = orig + h
        up, _ = loss()
        w.flat[flat] = orig - h
        down, _ = loss()
        w.flat[flat] = orig
        fd = (up - down) / (2 * h)
        analytic = grads[name][0].flat[flat]
        err = abs(analytic - fd) / max(1e-8, abs(analytic) + abs(fd))
        worst = max(worst, err)
    assert worst < 1e-4


def _training_tape(m):
    img = np.random.default_rng(69).uniform(0, 255, size=(3, 16, 16)).astype(np.float32)
    tape = []
    out = forward(m, build_pyramid(img), training=True,
                  rng=np.random.default_rng(0), tape=tape)
    return tape, out


def test_backward_rejects_tape_missing_an_entry(small_model):
    tape, out = _training_tape(small_model)
    i = next(i for i, e in enumerate(tape) if e[1] == "dec.b5.t1x1a")
    del tape[i + 1]  # the relu after dec.b5.t1x1a
    with pytest.raises(ValueError, match="dec.b5.t3x3"):
        backward(small_model, tape, np.ones_like(out))
    tape, out = _training_tape(small_model)
    del tape[-1]  # the final sigmoid
    with pytest.raises(ValueError, match="entries"):
        backward(small_model, tape, np.ones_like(out))


def test_backward_rejects_single_scale_tape(small_model):
    img = np.zeros((3, 16, 16), dtype=np.float32)
    tape = []
    feats = encode_scale(small_model, img, training=True,
                         rng=np.random.default_rng(0), tape=tape)
    with pytest.raises(ValueError, match="enc.b4.c1"):
        backward(small_model, tape, np.ones_like(feats))


# fast paths against the plain path -------------------------------------

def _odd_scale_pyramid(dtype):
    # 20x36: the coarser levels (10x18, 5x9) need padding to multiples of 4
    img = np.random.default_rng(70).uniform(0, 255, size=(3, 20, 36))
    return build_pyramid(img.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_trunk_forward_is_bit_identical(dtype):
    m = build_model(seed=1, dtype=dtype)
    pyr = _odd_scale_pyramid(dtype)
    trunk = M.frozen_trunk(m, pyr)
    assert np.array_equal(forward(m, trunk), forward(m, pyr))
    tapes = ([], [])
    outs = [forward(m, x, training=True, rng=np.random.default_rng(5), tape=t)
            for x, t in zip((pyr, trunk), tapes)]
    assert np.array_equal(outs[0], outs[1])
    assert [e[:2] for e in tapes[0]] == [e[:2] for e in tapes[1]]


def _unaligned_frame(dtype):
    # 58x62, cropped from a 64x64 synthetic scene: no side a multiple of 4
    frame = synth_sequence(SynthConfig(n_frames=1, seed=3))[0][0][:, 3:61, 1:63]
    return frame.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_pads_and_crops_unaligned_frames(dtype):
    m = build_model(seed=1, dtype=dtype)
    frame = _unaligned_frame(dtype)
    padded, extents = pad_to_multiple_of_4(frame)
    expected = crop_back(forward(m, build_pyramid(padded)), extents)
    pyr = build_pyramid(frame)
    got = forward(m, pyr)
    assert got.shape == (1, 58, 62) and got.dtype == dtype
    assert np.array_equal(got, expected)
    assert np.array_equal(forward(m, M.frozen_trunk(m, pyr)), expected)


@pytest.mark.parametrize("h,w,band_rows", [
    (64, 64, [0]),
    (58, 62, [0]),            # _unaligned_frame's extents
    (240, 320, [0, 20, 40]),
    (180, 256, [0, 23]),      # a 45x64 grid: the second band starts on an odd row
])
def test_banded_first_decoder_layer_matches_the_taped_forward(small_model, monkeypatch,
                                                             h, w, band_rows):
    # dec.b5.t1x1a runs band by band on rows of the decoder input upsampled
    # from each scale, and dec.b8.t5x5 with dec.b9.t1x1 on bands of output
    # rows, the same bands with or without a tape; a tape decides only where
    # each band lands, in the whole maps that it keeps
    m = small_model
    grid = (-(-h // 4), -(-w // 4))
    bands = kernels._plan_bands([grid], 1536 * 4)
    assert [r0 for [(_, r0, _, _)] in bands] == band_rows
    tail_rows = {(64, 64): [0], (58, 62): [0], (240, 320): [0, 128], (180, 256): [0]}
    frame = (_unaligned_frame(np.float32) if (h, w) == (58, 62) else
             np.random.default_rng(71).uniform(0, 255, (3, h, w)).astype(np.float32))
    trunk = M.frozen_trunk(m, build_pyramid(frame))
    tail = _record_tail_bands(monkeypatch)
    banded = forward(m, trunk)
    assert tail == [tail_rows[h, w]]
    assert banded.shape == (1, h, w)
    assert np.array_equal(banded, forward(m, trunk, tape=[]))


def test_first_decoder_layer_runs_the_same_bands_with_a_tape(small_model, monkeypatch):
    # with a tape each band's upsampled input lands in its rows of the whole
    # decoder input, which the tape keeps as dec.b5.t1x1a's input
    m = small_model
    frame = np.random.default_rng(71).uniform(0, 255, (3, 240, 320)).astype(np.float32)
    trunk = M.frozen_trunk(m, build_pyramid(frame))
    feats = M._features(m, trunk, False, None, None)
    th, tw = feats[0].shape[1:]
    whole = kernels.concat_depth([kernels.upsample_nearest(f, 2 ** s)[:, :th, :tw]
                                  for s, f in enumerate(feats)])
    runs, upsample = [], M.upsample_nearest

    def recorded(x, factor, out=None, row=0):
        if factor == 1:   # the finest scale: once a band
            runs[-1].append(row)
        return upsample(x, factor, out=out, row=row)

    monkeypatch.setattr(M, "upsample_nearest", recorded)
    tape = []
    for t in (None, tape):
        runs.append([])
        forward(m, trunk, tape=t)
    assert runs == [[0, 20, 40]] * 2
    (_, name, (x, _, _)) = next(e for e in tape if e[0] == "tconv")
    assert name == "dec.b5.t1x1a" and np.array_equal(x, whole)


def _record_tail_bands(monkeypatch):
    """Record the first output row of each band the streamed tail runs, one
    list per forward."""
    runs, bands = [], M.tconv2d_bands

    def recorded(*args):
        runs.append([])
        for r0, band in bands(*args):
            runs[-1].append(r0)
            yield r0, band

    monkeypatch.setattr(M, "tconv2d_bands", recorded)
    return runs


def test_streamed_decoder_tail_in_several_bands_matches_the_taped_forward(small_model,
                                                                         monkeypatch):
    # at 64x124, dec.b8.t5x5's phase rows are 64 columns wide, so only the
    # output's 248-column rows hold its cuts to every 16th output row: cut
    # anywhere else, dec.b9.t1x1's GEMM over a band differs in the last bit
    m = small_model
    frame = np.random.default_rng(71).uniform(0, 255, (3, 64, 124)).astype(np.float32)
    trunk = M.frozen_trunk(m, build_pyramid(frame))
    taped = forward(m, trunk, tape=[])
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1 << 16)
    tail = _record_tail_bands(monkeypatch)
    streamed = forward(m, trunk)
    assert tail == [[0, 16, 32, 48]]
    assert np.array_equal(streamed, taped)
    assert np.array_equal(streamed, forward(m, trunk, tape=[]))


def test_taped_forward_streams_the_decoder_tail(small_model, monkeypatch):
    # a tape changes only where the streamed tail's bands land: the same
    # bands run, and each rectified band lands in its rows of one map, which
    # the tape holds as both dec.b8.t5x5's ReLU output and dec.b9.t1x1's input
    m = small_model
    frame = np.random.default_rng(71).uniform(0, 255, (3, 64, 124)).astype(np.float32)
    trunk = M.frozen_trunk(m, build_pyramid(frame))
    monkeypatch.setattr(kernels, "_BAND_BYTES", 1 << 16)
    tail = _record_tail_bands(monkeypatch)
    tape = []
    taped = forward(m, trunk, tape=tape)
    streamed = forward(m, trunk)
    assert tail == [[0, 16, 32, 48]] * 2
    i = next(i for i, e in enumerate(tape) if e[1] == "dec.b8.t5x5")
    (_, _, (x, w, spec)), (relu, _, (_, kept)), (_, name, (x9, _, _)) = tape[i:i + 3]
    assert (relu, name) == ("relu", "dec.b9.t1x1")
    assert kept is x9 and kept.shape == (64, 64, 124)
    whole, _ = kernels.tconv2d_forward(x, w, m["dec.b8.t5x5"].bias, spec)
    assert np.array_equal(kept, np.maximum(whole, 0))
    assert np.array_equal(taped, streamed)


@pytest.mark.parametrize("h,w,budget", [(58, 62, None), (64, 124, 1 << 16), (240, 320, None)])
def test_streamed_decoder_is_bit_identical_to_whole_layers(small_model, monkeypatch,
                                                           h, w, budget):
    # the plain path: the scales' features upsampled and concatenated whole,
    # then every decoder layer through tconv2d_forward on its whole input
    if budget:
        monkeypatch.setattr(kernels, "_BAND_BYTES", budget)
    m = small_model
    frame = np.random.default_rng(73).uniform(0, 255, (3, h, w)).astype(np.float32)
    trunk = M.frozen_trunk(m, build_pyramid(frame))
    feats = M._features(m, trunk, False, None, None)
    th, tw = feats[0].shape[1:]
    x = kernels.concat_depth([kernels.upsample_nearest(f, 2 ** s)[:, :th, :tw]
                              for s, f in enumerate(feats)])
    whole = M._run_layers(m, M.DECODER_DEFS, x)[:, :h, :w]
    assert np.array_equal(forward(m, trunk), whole)
    assert np.array_equal(forward(m, trunk, tape=[]), whole)


@pytest.mark.parametrize("tape", [None, []])
def test_non_finite_first_decoder_layer_names_it_on_both_paths(small_model, tape):
    layers = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
              for n, p in small_model.layers.items()}
    layers["dec.b5.t1x1a"].weights = layers["dec.b5.t1x1a"].weights.copy()
    layers["dec.b5.t1x1a"].weights.flat[7] = np.nan
    image = np.random.default_rng(0).uniform(0, 255, (3, 16, 16)).astype(np.float32)
    message = "dec.b5.t1x1a on a 1536x4x4 input: tconv2d: non-finite values in result"
    with pytest.raises(NonFiniteError, match="^" + re.escape(message) + "$"), \
            np.errstate(invalid="ignore"):
        forward(ModelParams(layers, small_model.dtype), build_pyramid(image), tape=tape)


@pytest.mark.parametrize("name,message", [
    ("dec.b8.t5x5", "dec.b8.t5x5 on a 128x8x8 input"),
    ("dec.b9.t1x1", "dec.b9.t1x1 on a 64x16x16 input"),
])
@pytest.mark.parametrize("tape", [None, []])
def test_non_finite_decoder_tail_names_its_layer_on_both_paths(small_model, name,
                                                               message, tape):
    layers = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
              for n, p in small_model.layers.items()}
    layers[name].weights = layers[name].weights.copy()
    layers[name].weights.flat[7] = np.nan
    image = np.random.default_rng(0).uniform(0, 255, (3, 16, 16)).astype(np.float32)
    message += ": tconv2d: non-finite values in result"
    with pytest.raises(NonFiniteError, match="^" + re.escape(message) + "$"), \
            np.errstate(invalid="ignore"):
        forward(ModelParams(layers, small_model.dtype), build_pyramid(image), tape=tape)


def test_block4_relu_reads_the_dropout_output_the_next_conv_holds(small_model):
    tape, _ = _training_tape(small_model)
    convs = [i for i, e in enumerate(tape) if e[0] == "conv"]
    assert len(convs) == 9  # block 4's three layers at three scales
    for i in convs:
        if tape[i][1] == "enc.b4.c3":
            continue
        (relu, _, (_, seen)), (dropout, _, (keep, _)), nxt = tape[i + 1:i + 4]
        assert (relu, dropout, nxt[0]) == ("relu", "dropout", "conv")
        assert seen is nxt[2][0]
        assert not keep.all() and np.any(keep & (seen == 0))


def test_block4_gradients_with_dropout_match_finite_differences():
    # the ReLU backward of a dropout layer tests dropout's output, not its
    # own: a wrong mask would show where dropout keeps a zero
    m = build_model(seed=3, dtype=np.float64)
    rng = np.random.default_rng(72)
    trunk = M.frozen_trunk(m, build_pyramid(rng.uniform(0, 255, size=(3, 16, 16))))
    probe = rng.standard_normal((1, 16, 16))
    h = 1e-4

    def loss():
        # dropout mask fixed by reseeding the generator every evaluation
        tape = []
        out = forward(m, trunk, training=True, rng=np.random.default_rng(98), tape=tape)
        return float(np.sum(out * probe)), tape

    grads = backward(m, loss()[1], probe)
    worst = 0.0
    for name in ("enc.b4.c1", "enc.b4.c2", "enc.b4.c3"):
        w = m[name].weights
        for flat in rng.choice(w.size, size=4, replace=False):
            orig = w.flat[flat]
            w.flat[flat] = orig + h
            up, _ = loss()
            w.flat[flat] = orig - h
            down, _ = loss()
            w.flat[flat] = orig
            fd = (up - down) / (2 * h)
            analytic = grads[name][0].flat[flat]
            worst = max(worst, abs(analytic - fd) / max(1e-8, abs(analytic) + abs(fd)))
    assert worst < 1e-4


def _plain_backward(tape, grad_out):
    """Reference: the tape walked entry by entry, one scale at a time,
    through the single-input kernels; encoder gradients summed over scales."""
    ops = {"conv": conv2d_backward, "tconv": tconv2d_backward,
           "relu": pointwise_activation_backward,
           "sigmoid": pointwise_activation_backward, "dropout": dropout_backward}
    grads = {}

    def walk(entries, g):
        for kind, name, ctx in reversed(entries):
            if name is None:
                g = ops[kind](g, ctx)
                continue
            if kind == "tconv":
                g, gw, gb = ops[kind](g, ctx)
            else:
                g, gw, gb = ops[kind](g, ctx, need_input_grad=name != "enc.b4.c1")
            old = grads.get(name, (0.0, 0.0))
            grads[name] = (old[0] + gw, old[1] + gb)
        return g

    per_scale = next(i for i, e in enumerate(tape) if e[0] == "tconv") // 3
    g = walk(tape[3 * per_scale:], grad_out)
    for s in range(3):
        entries = tape[s * per_scale:(s + 1) * per_scale]
        h, w = entries[-3][2][0].shape[1:]  # input grid of enc.b4.c3 at this scale
        part = g[512 * s:512 * (s + 1)]
        part = np.pad(part, ((0, 0), (0, h * 2 ** s - part.shape[1]),
                             (0, w * 2 ** s - part.shape[2])))
        walk(entries, upsample_nearest_backward(part, 2 ** s))
    return grads


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
def test_scale_fused_backward_matches_per_scale_sum(dtype, tol):
    m = build_model(seed=2, dtype=dtype)
    tape = []
    out = forward(m, _odd_scale_pyramid(dtype), training=True,
                  rng=np.random.default_rng(6), tape=tape)
    probe = np.random.default_rng(7).standard_normal(out.shape).astype(dtype)
    fused, plain = backward(m, tape, probe), _plain_backward(tape, probe)
    assert set(fused) == set(plain) == {p.name for p in m.trainable_layers()}
    for name, want in plain.items():
        for got, ref in zip(fused[name], want):
            assert got.dtype == dtype
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), name


# serialization ---------------------------------------------------------

def test_container_roundtrip_byte_identical(small_model, tmp_path):
    a = tmp_path / "a.fgsn"
    b = tmp_path / "b.fgsn"
    save_weights(small_model, a)
    loaded = load_weights(a)
    save_weights(loaded, b)
    assert a.read_bytes() == b.read_bytes()
    for name in small_model.layers:
        assert np.array_equal(loaded[name].weights, small_model[name].weights)
        assert loaded[name].trainable == small_model[name].trainable
        # l2 travels as a 32-bit float on the wire
        assert loaded[name].l2 == pytest.approx(small_model[name].l2, rel=1e-6)


def test_save_failing_midway_keeps_the_old_container(small_model, tmp_path):
    path = tmp_path / "w.fgsn"
    save_weights(small_model, path)
    before = path.read_bytes()
    last = ALL_DEFS[-1].name
    layers = dict(small_model.layers)
    layers[last] = LayerParams(last, layers[last].weights.astype(np.float16),
                               layers[last].bias, True)
    with pytest.raises(KeyError):  # no container code for f16, after 20 layers
        save_weights(ModelParams(layers), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.fgsn"]


def test_load_weights_peak_memory_is_the_file_size(tmp_path):
    # each tensor is read straight into its own array, with no whole-file
    # buffer to copy from; the rest is the finite check's mask of the
    # largest tensor.  Reading the file whole and then copying every
    # tensor out of it took twice the file size.
    p = tmp_path / "w.fgsn"
    save_weights(build_model(seed=4), p)
    assert numpy_peak(lambda: load_weights(p)) < 1.2 * p.stat().st_size


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_glorot_matches_the_whole_array_draw(dtype):
    shape = (3, 5, 7, 1000)  # 105,000 values: three whole chunks and a part
    assert 3 * kernels.CHUNK < np.prod(shape) < 4 * kernels.CHUNK
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    got = M._glorot(a, shape, 90, 30, dtype)
    want = b.uniform(-np.sqrt(0.05), np.sqrt(0.05), size=shape).astype(dtype)
    assert got.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_build_and_save_match_whole_array_draws_and_bytes(tmp_path):
    # the container written from each tensor's own buffer, of weights drawn
    # in chunks, has the bytes of whole-array draws written with tobytes
    rng = np.random.default_rng(9)
    parts = [b"FGSN", struct.pack("<II", 1, 2 * len(ALL_DEFS))]
    for d in ALL_DEFS:
        bound = np.sqrt(6.0 / ((d.in_ch + d.out_ch) * d.kernel ** 2))
        w = rng.uniform(-bound, bound, size=M._weight_shape(d)).astype(np.float32)
        for key, arr, l2 in ((f"{d.name}.weight", w, d.l2),
                             (f"{d.name}.bias", np.zeros(d.out_ch, np.float32), 0.0)):
            parts += [struct.pack("<H", len(key)), key.encode(),
                      struct.pack("<BB", 0, arr.ndim), struct.pack(f"<{arr.ndim}I", *arr.shape),
                      struct.pack("<Bf", not d.frozen, l2), arr.tobytes()]
    p = tmp_path / "w.fgsn"
    save_weights(build_model(seed=9), p)
    assert p.read_bytes() == b"".join(parts)


def test_build_and_save_peak_memory(tmp_path):
    # weights are drawn kernels.CHUNK values at a time straight into their
    # dtype, and each tensor is written from its own buffer: a float64 draw
    # of every tensor, and a bytes copy of each, took 2x and 1x the largest
    # tensor more
    net = build_model(seed=4)
    own = sum(p.weights.nbytes + p.bias.nbytes for p in net.layers.values())
    assert numpy_peak(lambda: build_model(seed=4)) < own + 1e6
    assert numpy_peak(lambda: save_weights(net, tmp_path / "w.fgsn")) < 1e6


def test_container_float64_roundtrip(tmp_path):
    m = build_model(seed=4, dtype=np.float64)
    p = tmp_path / "w.fgsn"
    save_weights(m, p)
    loaded = load_weights(p)
    assert loaded.dtype == np.dtype(np.float64)
    assert np.array_equal(loaded["dec.b9.t1x1"].weights, m["dec.b9.t1x1"].weights)


def test_load_missing_layer_names_it(small_model, tmp_path):
    trimmed = ModelParams(dict(small_model.layers), small_model.dtype)
    del trimmed.layers["dec.b9.t1x1"]
    p = tmp_path / "w.fgsn"
    save_weights(trimmed, p)
    with pytest.raises(ValueError, match="dec.b9.t1x1"):
        load_weights(p)


def test_load_rejects_unknown_tensor(small_model, tmp_path):
    extra = ModelParams(dict(small_model.layers), small_model.dtype)
    extra.layers["spare"] = LayerParams("spare", np.zeros((1, 1, 1, 1), np.float32),
                                        np.zeros(1, np.float32), True)
    p = tmp_path / "w.fgsn"
    save_weights(extra, p)
    with pytest.raises(ValueError, match="unknown tensors"):
        load_weights(p)


def test_load_rejects_bad_magic_and_version(tmp_path):
    p = tmp_path / "w.fgsn"
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="magic"):
        read_container(p)
    import struct
    p.write_bytes(b"FGSN" + struct.pack("<II", 9, 0))
    with pytest.raises(ValueError, match="version"):
        read_container(p)


def test_load_rejects_truncation(small_model, tmp_path):
    p = tmp_path / "w.fgsn"
    save_weights(small_model, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        read_container(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_non_finite_tensor(small_model, tmp_path, bad):
    # a full model (segment's input) and an encoder container (train's
    # --weights-in) fail as they load, naming the file and the tensor
    def planted(prefixes, name):
        layers = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
                  for n, p in small_model.layers.items() if n.startswith(prefixes)}
        layers[name].weights = layers[name].weights.copy()
        layers[name].weights.flat[7] = bad
        path = tmp_path / f"{name}.fgsn"
        save_weights(ModelParams(layers, small_model.dtype), path)
        return path, re.escape(f"{path}: non-finite values in tensor '{name}.weight'")

    path, message = planted(("enc.", "dec."), "dec.b7.t3x3")
    with pytest.raises(ValueError, match=message):
        load_weights(path)
    path, message = planted("enc.", "enc.b4.c2")
    with pytest.raises(ValueError, match=message):
        build_model(encoder_weights=path)


@pytest.mark.parametrize("name,message", [
    ("enc.b4.c2", "enc.b4.c2 on a 512x4x4 input: conv2d: "),
    ("dec.b7.t3x3", "dec.b7.t3x3 on a 64x8x8 input: tconv2d: "),
])
def test_non_finite_forward_names_the_layer(small_model, name, message):
    layers = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
              for n, p in small_model.layers.items()}
    layers[name].weights = layers[name].weights.copy()
    layers[name].weights.flat[7] = np.inf
    image = np.random.default_rng(0).uniform(0, 255, (3, 16, 16))
    with pytest.raises(NonFiniteError, match="^" + re.escape(message)), \
            np.errstate(over="ignore", invalid="ignore"):
        forward(ModelParams(layers, small_model.dtype),
                build_pyramid(image.astype(np.float32)))


def test_load_rejects_contradictory_trainable_flag(small_model, tmp_path):
    twisted = ModelParams({n: LayerParams(p.name, p.weights, p.bias,
                                          p.trainable, p.l2)
                           for n, p in small_model.layers.items()},
                          small_model.dtype)
    twisted.layers["enc.b1.c1"].trainable = True
    p = tmp_path / "w.fgsn"
    save_weights(twisted, p)
    with pytest.raises(ValueError, match="contradicts"):
        load_weights(p)
    # an encoder container meets the same table: block 4 trains
    enc = ModelParams({n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
                       for n, p in small_model.layers.items() if n.startswith("enc.")},
                      small_model.dtype)
    enc.layers["enc.b4.c1"].trainable = False
    p = tmp_path / "enc.fgsn"
    save_weights(enc, p)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{p}: 'enc.b4.c1.weight' has trainable=False")) as info:
        build_model(encoder_weights=p)
    assert "\n" not in str(info.value)


def _container_off_the_table(model, path, key):
    """Save model to path with one tensor's flag or L2 contradicting the table:
    0.3 L2 on a decoder weight, or a trainable bias flagged frozen."""
    layers = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
              for n, p in model.layers.items()}
    name, tensor = key.rsplit(".", 1)
    if tensor == "weight":
        layers[name].l2 = 0.3
    save_weights(ModelParams(layers, model.dtype), path)
    if tensor == "bias":
        import struct
        blob = bytearray(path.read_bytes())
        raw = key.encode()
        flag = blob.index(struct.pack("<H", len(raw)) + raw) + 2 + len(raw) + 2 + 4
        assert blob[flag] == 1
        blob[flag] = 0
        path.write_bytes(bytes(blob))


@pytest.mark.parametrize("key", ["dec.b5.t1x1a.weight", "enc.b4.c1.bias"])
def test_load_rejects_flags_or_l2_off_the_layer_table(small_model, tmp_path, key):
    path = tmp_path / "w.fgsn"
    _container_off_the_table(small_model, path, key)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {key!r} has ")) as info:
        load_weights(path)
    assert "\n" not in str(info.value) and "contradicts the layer table" in str(info.value)


def test_loaded_l2_comes_from_the_layer_table(small_model, tmp_path):
    path = tmp_path / "w.fgsn"
    save_weights(small_model, path)
    loaded = load_weights(path)
    # the file holds 5e-4 as float32, 5.000000237e-4
    assert [loaded[d.name].l2 for d in ALL_DEFS] == [d.l2 for d in ALL_DEFS]
    assert loaded["dec.b5.t1x1a"].l2 == DECODER_L2


def test_build_model_from_encoder_container(small_model, tmp_path):
    enc_only = ModelParams({n: p for n, p in small_model.layers.items()
                            if n.startswith("enc.")}, small_model.dtype)
    p = tmp_path / "enc.fgsn"
    save_weights(enc_only, p)
    m = build_model(encoder_weights=p, seed=7)
    for name in enc_only.layers:
        assert np.array_equal(m[name].weights, small_model[name].weights)
    assert not np.array_equal(m["dec.b5.t3x3"].weights,
                              small_model["dec.b5.t3x3"].weights)


def test_encoder_container_shape_mismatch_names_layer(small_model, tmp_path):
    enc = {n: LayerParams(p.name, p.weights, p.bias, p.trainable, p.l2)
           for n, p in small_model.layers.items() if n.startswith("enc.")}
    enc["enc.b2.c1"].weights = np.zeros((128, 64, 5, 5), dtype=np.float32)
    p = tmp_path / "enc.fgsn"
    save_weights(ModelParams(enc, small_model.dtype), p)
    with pytest.raises(ValueError, match="enc.b2.c1"):
        build_model(encoder_weights=p)


def test_state_snapshot_roundtrip(small_model):
    state = get_state(small_model)
    # frozen blocks 1-3 never change, so a snapshot holds trainable layers only
    assert set(state) == {p.name for p in small_model.trainable_layers()}
    assert not any(n.startswith(("enc.b1", "enc.b2", "enc.b3")) for n in state)
    saved = small_model["dec.b9.t1x1"].weights.copy()
    small_model["dec.b9.t1x1"].weights += 1.0
    set_state(small_model, state)
    assert np.array_equal(small_model["dec.b9.t1x1"].weights, saved)
