"""Scene-specific training: frame selection, class-weighted cross entropy,
RMSProp with a reduce-on-plateau schedule, and best-checkpoint selection.

Losses ignore void pixels entirely; per-frame class weights rebalance the
foreground/background imbalance of each training frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LabelMask, as_map
from .kernels import CHUNK, NonFiniteError, ShapeError
from .model import ModelParams, backward, forward, frozen_trunk, get_state, set_state
from .pyramid import build_pyramid

PROB_CLIP = 1e-7
RHO = 0.9          # RMSProp decay of the squared-gradient average
EPSILON = 1e-8     # RMSProp denominator guard
VAL_SPLIT = 0.20   # share of the examples held out for validation


def _check_frame_count(n):
    # at least one frame to validate on and four to train on
    if n < 5:
        raise ValueError(f"need at least 5 training frames for a "
                         f"{VAL_SPLIT:.0%} validation split, got {n}")


@dataclass
class TrainingExample:
    frame: np.ndarray      # (3, H, W) raw RGB values
    labels: LabelMask
    frame_index: int

    def __post_init__(self):
        if self.frame.shape[-2:] != self.labels.shape:
            raise ShapeError(f"example {self.frame_index}: frame "
                             f"{self.frame.shape[-2:]} vs labels {self.labels.shape}")


@dataclass
class TrainConfig:
    n_frames: int = 50
    epochs: int | None = None   # 60 up to 50 frames, 50 beyond
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        _check_frame_count(self.n_frames)
        if self.epochs is None:
            self.epochs = 60 if self.n_frames <= 50 else 50
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


@dataclass
class OptimizerState:
    acc: dict            # layer name -> [acc_weights, acc_bias]
    lr: float
    wait: int = 0        # epochs since the last plateau-relevant improvement
    plateau_best: float = math.inf   # best val loss by PlateauSchedule's min_delta


@dataclass
class TrainState:    # what crosses an epoch boundary
    rng: np.random.Generator
    val_ids: list
    train_ids: list
    prepared: list       # _prepare's tuple per example
    optimizer: OptimizerState
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    checkpoint_epoch: int = -1
    best_state: dict | None = None   # the weights of checkpoint_epoch


# ------------------------------------------------------------ frame selection

def select_frames(total, n, seed):
    """Pick n of total frame indices by seeded uniform sampling without
    replacement."""
    if n > total:
        raise ValueError(f"cannot select {n} frames from {total}")
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(total, size=n, replace=False)]


def read_manifest(path, total):
    """Manual-selection manifest: one 0-based frame index of total per
    line, each at most once, # comments allowed; the indices in file order."""
    indices = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if not line.isdecimal():
                raise ValueError(f"{path}:{lineno}: expected a 0-based frame "
                                 f"index, got {line!r}")
            indices.append(int(line))
    if not indices:
        raise ValueError(f"{path}: manifest selects no frames")
    dupes = sorted({i for i in indices if indices.count(i) > 1})
    if dupes:
        raise ValueError(f"{path}: duplicate frame indices {dupes}")
    bad = [i for i in indices if i >= total]
    if bad:
        raise ValueError(f"{path}: frame indices out of range [0, {total}): {bad}")
    return indices


# -------------------------------------------------------------------- loss

def class_weights(labels: LabelMask):
    """Balanced per-frame weights n/(2*n_fg), n/(2*n_bg) over valid pixels."""
    n_fg, n_bg = labels.counts()
    if n_fg == 0 or n_bg == 0:
        return 1.0, 1.0
    n = n_fg + n_bg
    return n / (2.0 * n_fg), n / (2.0 * n_bg)


def weighted_bce(probs, labels: LabelMask, w_fg, w_bg):
    """Class-weighted binary cross entropy over valid pixels.

    Returns (loss, grad) where grad is dLoss/dprobs, zero at void pixels and
    zero where the clip to [1e-7, 1-1e-7] is active.
    """
    probs = np.asarray(probs)
    p2 = as_map(probs, "weighted_bce", labels.shape)
    valid = labels.valid
    m = int(valid.sum())
    if m == 0:
        raise ValueError("weighted_bce: no supervised pixels (all void)")
    y = labels.foreground
    inside = (p2 >= PROB_CLIP) & (p2 <= 1.0 - PROB_CLIP)
    p = np.clip(p2, PROB_CLIP, 1.0 - PROB_CLIP)
    w = np.where(y, w_fg, w_bg)
    terms = np.where(y, np.log(p), np.log1p(-p))
    loss = -float(np.sum(w[valid] * terms[valid])) / m
    grad2 = np.where(y, -w / p, w / (1.0 - p)) / m
    grad2 = np.where(valid & inside, grad2, 0.0).astype(probs.dtype)
    return loss, grad2.reshape(probs.shape)


# --------------------------------------------------------------- optimizer

def init_optimizer(model: ModelParams, lr) -> OptimizerState:
    acc = {p.name: [np.zeros_like(p.weights), np.zeros_like(p.bias)]
           for p in model.trainable_layers()}
    return OptimizerState(acc=acc, lr=lr)


def rmsprop_step(model: ModelParams, grads, state: OptimizerState):
    """In-place update: a <- rho*a + (1-rho)*g^2; w <- w - lr*g/(sqrt(a)+eps),
    with rho = RHO and eps = EPSILON.

    L2 layers add l2*w to the weight gradient first; biases carry no penalty.
    Frozen layers never appear in grads.  A step that raises changes nothing.
    Each tensor is updated through 1-D views of its C-contiguous weights and
    accumulator (as build_model, load_weights, set_state and init_optimizer
    make them), CHUNK elements at a time, so the temporaries stay in cache.
    """
    for name, (gw, gb) in grads.items():
        if not model[name].trainable:
            raise ValueError(f"gradient supplied for frozen layer {name}")
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise NonFiniteError(f"rmsprop_step: non-finite gradient for {name}")
    for name, (gw, gb) in grads.items():
        p = model[name]
        acc_w, acc_b = state.acc[name]
        _rmsprop_chunks(p.weights, gw, acc_w, p.l2, state.lr)
        _rmsprop_chunks(p.bias, gb, acc_b, 0.0, state.lr)


def _rmsprop_chunks(w, g, a, l2, lr):
    """rmsprop_step's update of one tensor, in the whole-array formula's
    order of operations, so where w, g and a share a dtype every element
    rounds as it would there; the temporaries live in one scratch."""
    w, g, a = w.reshape(-1), g.reshape(-1), a.reshape(-1)
    scratch = np.empty((3, min(CHUNK, w.size)), np.result_type(w, g))
    for i in range(0, w.size, CHUNK):
        wc, gc, ac = w[i:i + CHUNK], g[i:i + CHUNK], a[i:i + CHUNK]
        t, u, v = scratch[:, :wc.size]
        if l2 > 0.0:
            gc = np.add(gc, np.multiply(l2, wc, out=t), out=t)
        ac *= RHO
        ac += np.multiply(np.multiply(1.0 - RHO, gc, out=u), gc, out=u)
        np.add(np.sqrt(ac, out=v), EPSILON, out=v)
        wc -= np.divide(np.multiply(lr, gc, out=u), v, out=u)


@dataclass
class PlateauSchedule:
    """Reduce-on-plateau: cut lr by `factor` after `patience` epochs without
    a val-loss improvement of at least `min_delta`."""

    patience: int = 6
    factor: float = 0.1
    min_delta: float = 1e-4

    def observe(self, state: OptimizerState, val_loss):
        """Call once per epoch; returns True when the lr was reduced."""
        if val_loss < state.plateau_best - self.min_delta:
            state.plateau_best = val_loss
            state.wait = 0
            return False
        state.wait += 1
        if state.wait >= self.patience:
            state.lr *= self.factor
            state.wait = 0
            return True
        return False


# ------------------------------------------------------------ training loop

def _prepare(model: ModelParams, example: TrainingExample):
    """(frozen trunk, labels, w_fg, w_bg); the trunk replaces the pyramid."""
    labels = example.labels
    if not labels.valid.any():
        raise ValueError(f"frame {example.frame_index}: no supervised pixels (all void)")
    try:
        trunk = frozen_trunk(model, build_pyramid(example.frame))
    except NonFiniteError as e:
        raise NonFiniteError(f"frame {example.frame_index}: {e}") from e
    w_fg, w_bg = class_weights(labels)
    return trunk, labels, w_fg, w_bg


def _train_step(model, prepared, rng, state):
    """Forward, loss, backward and update on one prepared example; returns
    the loss.  Its tape and gradients die with the call, before the next
    step builds its own."""
    trunk, labels, w_fg, w_bg = prepared
    tape = []
    probs = forward(model, trunk, training=True, rng=rng, tape=tape)
    loss, grad = weighted_bce(probs, labels, w_fg, w_bg)
    rmsprop_step(model, backward(model, tape, grad), state)
    return loss


def _epoch_val_loss(model, prepared, val_ids):
    total = 0.0
    for i in val_ids:
        trunk, labels, w_fg, w_bg = prepared[i]
        probs = forward(model, trunk)
        loss, _ = weighted_bce(probs, labels, w_fg, w_bg)
        total += loss
    return total / len(val_ids)


def run_epoch(model: ModelParams, examples, state: TrainState):
    """One epoch: reshuffle, step per training frame, validate, checkpoint on
    any strict improvement and let PlateauSchedule observe the val loss."""
    epoch = len(state.val_loss)
    epoch_loss = 0.0
    try:
        # phase 2 shuffle: visit order within the epoch
        for step, i in enumerate(state.rng.permutation(state.train_ids)):
            where = f"step {step + 1} (frame {examples[i].frame_index})"
            epoch_loss += _train_step(model, state.prepared[i], state.rng, state.optimizer)
        where = "validation"
        val_loss = _epoch_val_loss(model, state.prepared, state.val_ids)
    except NonFiniteError as e:
        raise NonFiniteError(f"epoch {epoch + 1} {where}: {e}") from e
    # checkpoint on any strict improvement so the saved epoch is the
    # argmin; the plateau counter uses min_delta separately
    if val_loss < min(state.val_loss, default=math.inf):
        state.best_state = get_state(model, state.best_state)  # in place after the first
        state.checkpoint_epoch = epoch
    state.train_loss.append(epoch_loss / max(1, len(state.train_ids)))
    state.val_loss.append(val_loss)
    state.lr.append(state.optimizer.lr)
    PlateauSchedule().observe(state.optimizer, val_loss)


def train(config: TrainConfig, examples, model: ModelParams, progress=None):
    """Shuffle/split once, then run_epoch config.epochs times.

    progress, when given, is called as progress(state) after each epoch with
    the TrainState that train returns, its lists one entry per epoch so far.
    Returns (model restored to the best checkpoint, that TrainState).  A
    NonFiniteError is re-raised naming its epoch, step and frame, or only its
    frame when the frozen trunk raises it before epoch 1.
    """
    _check_frame_count(len(examples))
    rng = np.random.default_rng(config.seed)
    # phase 1 shuffle: who lands in the validation split
    order = [int(i) for i in rng.permutation(len(examples))]
    n_val = max(1, int(len(examples) * VAL_SPLIT))
    state = TrainState(rng, order[:n_val], order[n_val:],
                       [_prepare(model, ex) for ex in examples],
                       init_optimizer(model, config.lr))
    for _ in range(config.epochs):
        run_epoch(model, examples, state)
        if progress is not None:
            progress(state)
    if state.best_state is not None:
        set_state(model, state.best_state)
    return model, state


def examples_from_pairs(pairs, indices=None):
    """Wrap (frame, LabelMask) pairs, a list or a dict by frame index;
    indices selects a subset."""
    if indices is None:
        indices = range(len(pairs))
    return [TrainingExample(pairs[i][0], pairs[i][1], i) for i in indices]
