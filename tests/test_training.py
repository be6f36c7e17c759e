import math
import re

import numpy as np
import pytest

import oracles
from fgseg import data, model, training
from fgseg.data import LabelMask, SynthConfig
from fgseg.kernels import NonFiniteError, ShapeError
from fgseg.model import LayerParams, ModelParams
from fgseg.training import (OptimizerState, PlateauSchedule, TrainConfig,
                            TrainingExample, class_weights, init_optimizer,
                            read_manifest, rmsprop_step, select_frames, train,
                            weighted_bce)
from memory import numpy_peak


def labels_of(raw):
    return LabelMask(np.asarray(raw, dtype=np.uint8))


def mixed_labels(h=10, w=10, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.choice([0, 50, 170, 255], size=(h, w), p=[0.5, 0.1, 0.1, 0.3])
    raw[0, 0], raw[0, 1] = 255, 0  # both classes present
    return labels_of(raw)


# ------------------------------------------------------------ select_frames

def test_select_all_frames_returns_every_index():
    assert sorted(select_frames(100, 100, seed=1)) == list(range(100))


def test_selection_is_deterministic_under_seed():
    a = select_frames(300, 50, seed=7)
    b = select_frames(300, 50, seed=7)
    assert a == b
    assert len(set(a)) == 50
    assert all(0 <= i < 300 for i in a)


def test_focus_list_is_used_verbatim(tmp_path):
    focus = [9, 3, 41, 0]
    p = tmp_path / "frames.txt"
    p.write_text("".join(f"{i}\n" for i in focus))
    assert read_manifest(p, 50) == focus
    assert read_manifest(p, 42) == focus   # the last index a total of 42 holds


def test_selection_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot select"):
        select_frames(10, 11, seed=0)
    p = tmp_path / "frames.txt"
    p.write_text("1\n1\n2\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{p}: duplicate frame indices [1]") + "$"):
        read_manifest(p, 10)
    p.write_text("0\n10\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{p}: frame indices out of range [0, 10): [10]") + "$"):
        read_manifest(p, 10)


def test_manifest_parsing(tmp_path):
    p = tmp_path / "frames.txt"
    p.write_text("3\n# a comment\n 17 \n\n0\n")
    assert read_manifest(p, 18) == [3, 17, 0]
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no frames"):
        read_manifest(empty, 18)
    for line in ("abc", "-1", "2.0"):
        bad = tmp_path / "m.txt"
        bad.write_text(f"3\n# a comment\n{line}\n")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{bad}:3: expected a 0-based frame index, got {line!r}") + "$"):
            read_manifest(bad, 18)


# ------------------------------------------------------------ class weights

def test_class_weights_imbalanced():
    raw = np.zeros((10, 10), dtype=np.uint8)
    raw.flat[:20] = 255
    w_fg, w_bg = class_weights(labels_of(raw))
    assert w_fg == pytest.approx(2.5)
    assert w_bg == pytest.approx(0.625)


def test_class_weights_balanced_and_degenerate():
    raw = np.zeros((2, 2), dtype=np.uint8)
    raw[0] = 255
    assert class_weights(labels_of(raw)) == (1.0, 1.0)
    assert class_weights(labels_of(np.zeros((4, 4)))) == (1.0, 1.0)
    assert class_weights(labels_of(np.full((4, 4), 255))) == (1.0, 1.0)


def test_class_weights_ignore_void_pixels():
    raw = np.zeros((10, 10), dtype=np.uint8)
    raw.flat[:20] = 255
    raw.flat[80:] = 170  # 20 fg, 60 bg, 20 void
    w_fg, w_bg = class_weights(labels_of(raw))
    assert w_fg == pytest.approx(80 / 40)
    assert w_bg == pytest.approx(80 / 120)


def test_shadow_counts_as_background():
    raw = np.full((4, 4), 50, dtype=np.uint8)
    raw[0, 0] = 255
    n_fg, n_bg = labels_of(raw).counts()
    assert (n_fg, n_bg) == (1, 15)


# ---------------------------------------------------------------- loss

def test_coin_flip_probabilities_cost_ln2():
    labels = mixed_labels()
    probs = np.full((1,) + labels.shape, 0.5)
    loss, _ = weighted_bce(probs, labels, 1.0, 1.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_perfect_prediction_costs_almost_nothing():
    labels = mixed_labels()
    probs = labels.foreground.astype(np.float64)[None]
    loss, _ = weighted_bce(probs, labels, 1.0, 1.0)
    assert 0.0 <= loss <= 1e-6


def test_unit_weights_reduce_to_plain_cross_entropy():
    rng = np.random.default_rng(4)
    labels = mixed_labels(12, 9, seed=4)
    probs = rng.uniform(0.01, 0.99, size=(1,) + labels.shape)
    loss, _ = weighted_bce(probs, labels, 1.0, 1.0)
    want = oracles.bce_unweighted(probs[0], labels.foreground, labels.valid)
    assert loss == pytest.approx(want, abs=1e-12)


def test_void_pixels_carry_no_loss_and_no_gradient():
    labels = mixed_labels(8, 8, seed=2)
    void = ~labels.valid
    assert void.any()
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.05, 0.95, size=(1, 8, 8))
    loss_a, grad_a = weighted_bce(probs, labels, 2.0, 0.7)
    flipped = probs.copy()
    flipped[0][void] = 1.0 - flipped[0][void]
    loss_b, grad_b = weighted_bce(flipped, labels, 2.0, 0.7)
    assert loss_a == loss_b
    assert np.array_equal(grad_a, grad_b)
    assert np.all(grad_a[0][void] == 0.0)


def test_all_void_frame_is_rejected():
    labels = labels_of(np.full((6, 6), 170))
    probs = np.full((1, 6, 6), 0.5)
    with pytest.raises(ValueError, match="no supervised pixels"):
        weighted_bce(probs, labels, 1.0, 1.0)


def test_foreground_weight_raises_cost_of_missed_foreground():
    raw = np.zeros((4, 4), dtype=np.uint8)
    raw[1, 1] = 255
    labels = labels_of(raw)
    probs = np.full((1, 4, 4), 0.5)  # fg pixel mispredicted at p=0.5
    losses = [weighted_bce(probs, labels, w, 1.0)[0] for w in (1.0, 2.0, 5.0)]
    assert losses[0] < losses[1] < losses[2]


def test_loss_gradient_matches_finite_differences():
    labels = mixed_labels(6, 5, seed=9)
    rng = np.random.default_rng(10)
    probs = rng.uniform(0.2, 0.8, size=(1, 6, 5))
    _, grad = weighted_bce(probs, labels, 1.7, 0.9)

    def f(flat):
        return weighted_bce(flat.reshape(1, 6, 5), labels, 1.7, 0.9)[0]

    fd = oracles.fd_gradient(f, probs.ravel(), h=1e-6).reshape(1, 6, 5)
    valid = labels.valid
    assert oracles.max_rel_error(grad[0][valid], fd[0][valid]) < 1e-4


def test_gradient_is_zero_where_the_clip_is_active():
    raw = np.zeros((2, 2), dtype=np.uint8)
    raw[0, 0] = 255
    labels = labels_of(raw)
    probs = np.array([[[1e-9, 0.5], [1.0 - 1e-9, 0.5]]])
    loss, grad = weighted_bce(probs, labels, 1.0, 1.0)
    assert math.isfinite(loss)
    assert grad[0, 0, 0] == 0.0
    assert grad[0, 1, 0] == 0.0
    assert grad[0, 0, 1] != 0.0


def test_loss_shape_mismatch_is_rejected():
    labels = mixed_labels(6, 6)
    with pytest.raises(ShapeError):
        weighted_bce(np.full((1, 6, 5), 0.5), labels, 1.0, 1.0)
    with pytest.raises(ShapeError, match="weighted_bce"):  # one map, not two
        weighted_bce(np.full((2, 6, 6), 0.5), labels, 1.0, 1.0)


# -------------------------------------------------------------- optimizer

def tiny_model(w=0.0, b=0.0, l2=0.0, trainable=True):
    layer = LayerParams(name="only", weights=np.array([w]),
                        bias=np.array([b]), trainable=trainable, l2=l2)
    return ModelParams(layers={"only": layer}, dtype=np.float64)


def test_rmsprop_single_step_hand_values():
    m = tiny_model(w=0.0)
    state = init_optimizer(m, lr=0.1)
    rmsprop_step(m, {"only": (np.array([1.0]), np.array([0.0]))}, state)
    assert state.acc["only"][0][0] == pytest.approx(0.1, abs=1e-12)
    assert m["only"].weights[0] == pytest.approx(-0.316228, abs=1e-6)


def test_zero_gradient_changes_nothing():
    m = tiny_model(w=1.5, b=-0.5)
    state = init_optimizer(m, lr=0.1)
    rmsprop_step(m, {"only": (np.array([0.0]), np.array([0.0]))}, state)
    assert m["only"].weights[0] == 1.5
    assert m["only"].bias[0] == -0.5


def test_constant_gradient_steps_shrink():
    m = tiny_model(w=0.0)
    state = init_optimizer(m, lr=0.1)
    g = {"only": (np.array([1.0]), np.array([0.0]))}
    w0 = m["only"].weights[0]
    rmsprop_step(m, g, state)
    w1 = m["only"].weights[0]
    rmsprop_step(m, g, state)
    w2 = m["only"].weights[0]
    assert abs(w2 - w1) < abs(w1 - w0)


def test_step_size_bound():
    # |dw| = lr*|g|/(sqrt(a)+eps) with a >= (1-rho)*g^2, so |dw| <= lr/sqrt(1-rho)
    rng = np.random.default_rng(0)
    m = tiny_model(w=0.3)
    state = init_optimizer(m, lr=1e-3)
    for _ in range(20):
        g = rng.standard_normal(1) * 10.0
        w_before = m["only"].weights.copy()
        rmsprop_step(m, {"only": (g, np.zeros(1))}, state)
        assert abs(m["only"].weights[0] - w_before[0]) <= 1e-3 / math.sqrt(0.1) + 1e-12


def test_l2_penalty_touches_weights_not_biases():
    m = tiny_model(w=2.0, b=2.0, l2=0.5)
    state = init_optimizer(m, lr=0.1)
    rmsprop_step(m, {"only": (np.array([0.0]), np.array([0.0]))}, state)
    assert m["only"].weights[0] != 2.0  # decay pulls the weight down
    assert m["only"].bias[0] == 2.0


def with_layer_ahead(m):
    """m with a trainable layer "ahead" of its own, weight and bias 1."""
    ahead = LayerParams(name="ahead", weights=np.ones(1), bias=np.ones(1),
                        trainable=True)
    return ModelParams(layers={"ahead": ahead, **m.layers}, dtype=m.dtype)


def assert_ahead_untouched(m, state):
    assert m["ahead"].weights[0] == 1.0 and m["ahead"].bias[0] == 1.0
    assert not any(a.any() for a in state.acc["ahead"])


def test_nan_gradient_aborts_the_step():
    m = with_layer_ahead(tiny_model())
    state = init_optimizer(m, lr=0.1)
    with pytest.raises(NonFiniteError, match="only"):
        rmsprop_step(m, {"ahead": (np.ones(1), np.ones(1)),
                         "only": (np.array([np.nan]), np.array([0.0]))}, state)
    # the finite layer ahead of the NaN one is not updated either
    assert_ahead_untouched(m, state)


def test_gradient_for_frozen_layer_is_rejected():
    m = with_layer_ahead(tiny_model(trainable=False))
    state = OptimizerState(acc={"ahead": [np.zeros(1), np.zeros(1)],
                                "only": [np.zeros(1), np.zeros(1)]}, lr=0.1)
    with pytest.raises(ValueError, match="frozen"):
        rmsprop_step(m, {"ahead": (np.ones(1), np.ones(1)),
                         "only": (np.ones(1), np.zeros(1))}, state)
    assert_ahead_untouched(m, state)


def test_accumulators_stay_non_negative():
    rng = np.random.default_rng(3)
    m = tiny_model(w=0.1)
    state = init_optimizer(m, lr=0.01)
    for _ in range(30):
        g = rng.standard_normal(1)
        rmsprop_step(m, {"only": (g, -g)}, state)
        assert state.acc["only"][0][0] >= 0.0
        assert state.acc["only"][1][0] >= 0.0


def whole_array_rmsprop(w, g, a, l2, lr):
    """The update over whole arrays, one operation at a time in the order
    rmsprop_step keeps."""
    if l2 > 0.0:
        g = g + l2 * w
    a *= training.RHO
    a += (1.0 - training.RHO) * g * g
    w -= lr * g / (np.sqrt(a) + training.EPSILON)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("l2", [0.0, model.DECODER_L2])
def test_chunked_rmsprop_matches_whole_array_update_bit_for_bit(dtype, l2):
    rng = np.random.default_rng(12)
    shape = (3, training.CHUNK // 2 + 5)   # 1.5 chunks, 15 elements over
    layer = LayerParams("big", rng.standard_normal(shape).astype(dtype),
                        rng.standard_normal(7).astype(dtype), trainable=True, l2=l2)
    m = ModelParams({"big": layer}, np.dtype(dtype))
    state = init_optimizer(m, lr=1e-3)
    w, b = layer.weights.copy(), layer.bias.copy()
    acc_w, acc_b = np.zeros_like(w), np.zeros_like(b)
    arrays = (layer.weights, layer.bias, *state.acc["big"])
    for _ in range(3):
        gw = rng.standard_normal(shape).astype(dtype)
        gb = rng.standard_normal(7).astype(dtype)
        rmsprop_step(m, {"big": (gw, gb)}, state)
        whole_array_rmsprop(w, gw, acc_w, l2, 1e-3)
        whole_array_rmsprop(b, gb, acc_b, 0.0, 1e-3)
        # the update lands in the model's and the state's own arrays
        assert all(x is y for x, y in zip((layer.weights, layer.bias, *state.acc["big"]),
                                          arrays))
        for x, y in zip(arrays, (w, b, acc_w, acc_b)):
            assert x.dtype == dtype and np.array_equal(x, y)


def test_nan_in_a_later_layers_last_chunk_changes_nothing():
    rng = np.random.default_rng(13)
    size = 2 * training.CHUNK + 9
    m = ModelParams({name: LayerParams(name, rng.standard_normal(size),
                                       rng.standard_normal(3), trainable=True)
                     for name in ("first", "second")}, np.dtype(np.float64))
    before = {name: (p.weights.copy(), p.bias.copy()) for name, p in m.layers.items()}
    state = init_optimizer(m, lr=0.1)
    grads = {name: (rng.standard_normal(size), rng.standard_normal(3)) for name in m.layers}
    grads["second"][0][-1] = np.nan
    with pytest.raises(NonFiniteError, match="second"):
        rmsprop_step(m, grads, state)
    for name, (w, b) in before.items():
        assert np.array_equal(m[name].weights, w) and np.array_equal(m[name].bias, b)
        assert not any(a.any() for a in state.acc[name])


# -------------------------------------------------------- plateau schedule

def test_plateau_fires_after_exactly_patience_stale_epochs():
    sched = PlateauSchedule(patience=6, factor=0.1, min_delta=1e-4)
    state = OptimizerState(acc={}, lr=1e-4)
    assert sched.observe(state, 1.0) is False  # first epoch improves on inf
    for _ in range(5):
        assert sched.observe(state, 1.0) is False
        assert state.lr == 1e-4
    assert sched.observe(state, 1.0) is True   # sixth stale epoch
    assert state.lr == pytest.approx(1e-5)
    assert state.wait == 0


def test_improvement_below_min_delta_does_not_reset_the_clock():
    sched = PlateauSchedule(patience=2, factor=0.1, min_delta=1e-2)
    state = OptimizerState(acc={}, lr=1.0)
    sched.observe(state, 1.0)
    assert sched.observe(state, 1.0 - 1e-3) is False  # too small to count
    assert sched.observe(state, 1.0 - 2e-3) is True
    assert state.lr == pytest.approx(0.1)


def test_real_improvement_resets_the_clock_and_reductions_repeat():
    sched = PlateauSchedule(patience=1, factor=0.1, min_delta=1e-4)
    state = OptimizerState(acc={}, lr=1.0)
    sched.observe(state, 1.0)
    assert sched.observe(state, 0.5) is False  # big improvement, no cut
    assert sched.observe(state, 0.5) is True
    assert sched.observe(state, 0.5) is True   # plateau persists, cut again
    assert state.lr == pytest.approx(0.01)


# ------------------------------------------------------------ train() loop

def synth_examples(n=6, size=16, seed=3):
    cfg = SynthConfig(width=size, height=size, n_frames=n, n_objects=1,
                      object_size=4, seed=seed)
    pairs = data.synth_sequence(cfg)
    return training.examples_from_pairs(pairs)


def test_example_shape_mismatch_is_rejected():
    frame = np.zeros((3, 8, 8), dtype=np.float32)
    labels = labels_of(np.zeros((8, 4)))
    with pytest.raises(ShapeError, match="example 0"):
        TrainingExample(frame, labels, 0)


def test_config_defaults_and_validation():
    assert TrainConfig(n_frames=50).epochs == 60
    assert TrainConfig(n_frames=200).epochs == 50
    assert TrainConfig(n_frames=50, epochs=5).epochs == 5
    with pytest.raises(TypeError, match="val_split"):  # training.VAL_SPLIT
        TrainConfig(val_split=1.0)
    for bad in (0.0, -1e-4, math.nan):
        with pytest.raises(ValueError, match="lr must be positive"):
            TrainConfig(lr=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            TrainConfig(epochs=bad)
    with pytest.raises(TypeError, match="plateau_patience"):  # PlateauSchedule's
        TrainConfig(plateau_patience=0)
    with pytest.raises(TypeError, match="batch"):  # batch size 1 only
        TrainConfig(batch=2)


def test_training_needs_five_examples():
    cfg = TrainConfig(epochs=1)
    m = model.build_model(seed=0)
    with pytest.raises(ValueError, match="at least 5"):
        train(cfg, synth_examples(n=4), m)


def test_history_shape_and_checkpoint_is_argmin():
    cfg = TrainConfig(epochs=3, seed=11)
    m = model.build_model(seed=1)
    m, hist = train(cfg, synth_examples(), m)
    assert len(hist.train_loss) == 3
    assert len(hist.val_loss) == 3
    assert len(hist.lr) == 3
    assert hist.checkpoint_epoch == int(np.argmin(hist.val_loss))
    assert all(math.isfinite(v) for v in hist.train_loss + hist.val_loss)
    assert hist.lr[0] == cfg.lr
    for prev, cur in zip(hist.lr, hist.lr[1:]):
        assert cur == prev or cur == pytest.approx(prev * 0.1)


def test_training_is_deterministic_under_a_seed():
    runs = []
    for _ in range(2):
        m = model.build_model(seed=2)
        m, hist = train(TrainConfig(epochs=2, seed=5), synth_examples(), m)
        runs.append((hist, m))
    h1, m1 = runs[0]
    h2, m2 = runs[1]
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.lr == h2.lr
    for name in m1.layers:
        assert np.array_equal(m1[name].weights, m2[name].weights)
        assert np.array_equal(m1[name].bias, m2[name].bias)


def test_training_on_unaligned_frames_matches_the_padded_frames():
    # 58x62 crops of a 64x64 scene, against the same crops reflect-padded to
    # 60x64 with their labels padded by void: the same loss pixels, in the
    # same order, so the same weights and history
    crops = [(f[:, 3:61, 1:63], labels_of(g.raw[3:61, 1:63]))
             for f, g in data.synth_sequence(SynthConfig(n_frames=5, seed=3))]
    padded = []
    for frame, labels in crops:
        raw = np.full((60, 64), data.CODE_OUTSIDE_ROI, dtype=np.uint8)
        raw[:58, :62] = labels.raw
        padded.append((data.pad_to_multiple_of_4(frame)[0], labels_of(raw)))
    runs = [train(TrainConfig(epochs=2, seed=6), training.examples_from_pairs(pairs),
                  model.build_model(seed=2))
            for pairs in (crops, padded)]
    (m1, h1), (m2, h2) = runs
    assert (h1.train_loss, h1.val_loss, h1.lr, h1.checkpoint_epoch) == \
        (h2.train_loss, h2.val_loss, h2.lr, h2.checkpoint_epoch)
    for name in m1.layers:
        assert np.array_equal(m1[name].weights, m2[name].weights)
        assert np.array_equal(m1[name].bias, m2[name].bias)


def test_frozen_encoder_blocks_never_move():
    m = model.build_model(seed=4)
    before = {p.name: (p.weights.copy(), p.bias.copy())
              for p in m.layers.values() if not p.trainable}
    assert before  # blocks 1..3 exist
    m, _ = train(TrainConfig(epochs=2, seed=1), synth_examples(), m)
    for name, (w, b) in before.items():
        assert np.array_equal(m[name].weights, w)
        assert np.array_equal(m[name].bias, b)


def test_training_peak_memory():
    # at 64x64 the f32 parameter-sized buffers dominate: the accumulators,
    # the best snapshot and one step's gradients, 26 MB each.  Measured
    # 96.2 MB (numpy 2.4); the bound adds a 5 MB margin.  A fresh snapshot
    # at every checkpoint, built while the old one is held, would take the
    # peak to 104.5 MB; keeping the last step's gradients through the next
    # step, and whole-array RMSProp temporaries, to 130.4 MB.
    pairs = data.synth_sequence(SynthConfig(n_frames=10, seed=4))
    examples = training.examples_from_pairs(pairs)
    m = model.build_model(seed=4)
    peak = numpy_peak(lambda: train(TrainConfig(n_frames=10, epochs=3, seed=4), examples, m))
    assert peak < 96.2e6 + 5e6


def test_training_step_peak_memory_at_320x240():
    # forward, loss and backward on a frozen trunk, as train() runs a step.
    # Every convolution pass, backward included, builds its patch columns
    # one band of about 8 MiB at a time; the tape of the trainable layers
    # is most of the rest.  Block 4's ReLUs test the dropout output that
    # the next conv's ctx holds, not an array of their own.  Measured
    # 241.9 MB (numpy 2.4, f32); the bound adds a 10 MB margin.  Each ReLU
    # keeping its own output took it to 267.7 MB, and whole-frame column
    # matrices in block 4's and dec.b8.t5x5's backward to 526.4 MB.
    m = model.build_model(seed=4)
    rng = np.random.default_rng(4)
    frame = rng.uniform(0, 255, (3, 240, 320)).astype(np.float32)
    labels = labels_of(rng.choice([0, 255], size=(240, 320)))
    trunk = model.frozen_trunk(m, training.build_pyramid(frame))
    w_fg, w_bg = training.class_weights(labels)

    def step():
        tape = []
        probs = model.forward(m, trunk, training=True, rng=np.random.default_rng(0), tape=tape)
        _, grad = training.weighted_bce(probs, labels, w_fg, w_bg)
        return model.backward(m, tape, grad)

    assert numpy_peak(step) < 241.9e6 + 10e6


def test_model_ends_at_the_checkpoint_not_the_last_epoch():
    m = model.build_model(seed=6)
    m, hist = train(TrainConfig(epochs=3, seed=2), synth_examples(), m)
    # rebuild identically, replay only up to the checkpoint epoch
    m2 = model.build_model(seed=6)
    replay = TrainConfig(epochs=hist.checkpoint_epoch + 1, seed=2)
    m2, hist2 = train(replay, synth_examples(), m2)
    assert hist2.val_loss == hist.val_loss[:hist.checkpoint_epoch + 1]
    for name in m.layers:
        assert np.array_equal(m[name].weights, m2[name].weights)


def test_checkpoint_and_plateau_keep_their_own_best(monkeypatch):
    # a gain below min_delta (1e-4) is a checkpoint but a stale plateau
    # epoch; a tie with the best is neither
    scripted = iter([1.0, 0.99995, 0.99995])
    monkeypatch.setattr(training, "_epoch_val_loss", lambda *a: next(scripted))
    seen = []

    def progress(state):
        opt = state.optimizer
        seen.append((state.checkpoint_epoch, opt.wait, opt.plateau_best))

    train(TrainConfig(epochs=3, seed=0), synth_examples(), model.build_model(seed=0),
          progress=progress)
    assert seen == [(0, 0, 1.0), (1, 1, 1.0), (1, 2, 1.0)]


def test_progress_sees_the_state_train_returns_one_epoch_at_a_time():
    calls = []
    _, state = train(TrainConfig(epochs=3, seed=0), synth_examples(),
                     model.build_model(seed=0),
                     progress=lambda s: calls.append(
                         (s, len(s.train_loss), len(s.val_loss), len(s.lr),
                          s.train_loss[-1], s.val_loss[-1], s.lr[-1])))
    assert len(calls) == 3 and all(c[0] is state for c in calls)
    assert [c[1:4] for c in calls] == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    assert [c[4:] for c in calls] == list(zip(state.train_loss, state.val_loss, state.lr))


def test_all_void_example_aborts_with_context():
    pairs = data.synth_sequence(SynthConfig(width=16, height=16, n_frames=6,
                                            n_objects=1, object_size=4, seed=0))
    voided = [(f, labels_of(np.full_like(l.raw, 170)) if i == 4 else l)
              for i, (f, l) in enumerate(pairs)]
    m = model.build_model(seed=0)
    epochs = []
    # found before epoch 0, whichever split the frame would have landed in
    with pytest.raises(ValueError, match=r"^frame 4: no supervised"):
        train(TrainConfig(epochs=1, seed=0), training.examples_from_pairs(voided),
              m, progress=lambda *a: epochs.append(a))
    assert epochs == []


def test_numeric_failure_names_epoch_step_frame_and_layer():
    # at lr 1e30 the first update leaves block 4's weights near 3e30, and the
    # next step's forward overflows in the GEMM of a layer it names
    examples = synth_examples()
    m = model.build_model(seed=0)
    with pytest.raises(NonFiniteError) as caught, np.errstate(over="ignore",
                                                               invalid="ignore"):
        train(TrainConfig(epochs=3, lr=1e30, seed=0), examples, m)
    frames = "|".join(str(ex.frame_index) for ex in examples)
    layers = "|".join(re.escape(d.name) for d in model.ALL_DEFS)
    assert re.fullmatch(rf"epoch 1 step [2-5] \(frame ({frames})\): ({layers}) on a "
                        rf"\d+x\d+x\d+ input: t?conv2d: non-finite values in result",
                        str(caught.value))


def test_non_finite_frame_names_its_frame():
    # the frozen trunk runs once per frame before epoch 1, outside the step
    # loop, so its own prefix names the frame
    examples = synth_examples()
    examples[3].frame[1, 5, 7] = np.nan
    with pytest.raises(NonFiniteError, match=r"^frame 3: enc\.b1\.c1 on a "
                                             r"3x16x16 input: conv2d: non-finite"):
        train(TrainConfig(epochs=1, seed=0), examples, model.build_model(seed=0))
