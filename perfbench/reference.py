"""Checkers for the benchmark, written from the definitions.

Nothing here imports fgseg: the network, the pyramid, the loss, the
confusion counts and the change-detection metrics are re-derived from their
formulas, and the netpbm files are parsed by a reader of our own.  Every
``check_*`` function returns a list of problems; an empty list accepts.
"""

import csv
import math

import numpy as np

# ------------------------------------------------------------- architecture

# VGG-16 blocks 1-4 with pools 3 and 4 removed: (name, pool after).  Every
# layer is a 3x3 stride-1 'same' convolution followed by ReLU; channel counts
# come from the weight shapes.
ENCODER = (("enc.b1.c1", False), ("enc.b1.c2", True),
           ("enc.b2.c1", False), ("enc.b2.c2", True),
           ("enc.b3.c1", False), ("enc.b3.c2", False), ("enc.b3.c3", False),
           ("enc.b4.c1", False), ("enc.b4.c2", False), ("enc.b4.c3", False))

# Transposed convolutions: (name, stride).  Stride-2 layers double H and W
# (padding (k-1)/2, output padding 1); the last layer ends in a sigmoid.
DECODER = (("dec.b5.t1x1a", 1), ("dec.b5.t3x3", 1), ("dec.b5.t1x1b", 1),
           ("dec.b6.t1x1a", 1), ("dec.b6.t5x5", 2), ("dec.b6.t1x1b", 1),
           ("dec.b7.t1x1a", 1), ("dec.b7.t3x3", 1), ("dec.b7.t1x1b", 1),
           ("dec.b8.t5x5", 2), ("dec.b9.t1x1", 1))

PYRAMID_SIGMA = 2.0 / 3.0          # downscale 2, sigma = downscale / 3
PYRAMID_RADIUS = math.ceil(4.0 * PYRAMID_SIGMA)
PROB_CLIP = 1e-7

VOID_CODES = (85, 170)
FG_CODE = 255
BG_CODES = (0, 50)


# --------------------------------------------------------------- primitives

def correlate(xp, w, b):
    """'Valid' cross-correlation as a sum of shifted windows.

    xp: (C_in, H + k - 1, W + k - 1) already padded, w: (C_out, C_in, k, k).
    """
    c_out, c_in, k, _ = w.shape
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    y = np.zeros((c_out, ho * wo), dtype=xp.dtype)
    for a in range(k):
        for c in range(k):
            y += w[:, :, a, c] @ xp[:, a:a + ho, c:c + wo].reshape(c_in, ho * wo)
    return (y + b[:, None]).reshape(c_out, ho, wo)


def conv_same(x, w, b):
    """Stride-1 'same' convolution: zero padding (k-1)/2, then correlate."""
    p = (w.shape[2] - 1) // 2
    return correlate(np.pad(x, ((0, 0), (p, p), (p, p))), w, b)


def tconv(x, w, b, stride):
    """Transposed convolution by zero stuffing then a direct convolution.

    x: (C_in, h, w), w: (C_in, C_out, k, k).  Padding is (k-1)/2 and the
    output padding is stride-1, so stride 2 exactly doubles H and W.
    """
    c_in, h, wd = x.shape
    k = w.shape[2]
    pad = (k - 1) // 2
    sh, sw = (h - 1) * stride + 1, (wd - 1) * stride + 1
    lo, hi = k - 1 - pad, k - 1 - pad + stride - 1
    stuffed = np.zeros((c_in, sh + lo + hi, sw + lo + hi), dtype=x.dtype)
    stuffed[:, lo:lo + sh:stride, lo:lo + sw:stride] = x
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return correlate(stuffed, flipped, b)


def relu(x):
    return np.maximum(x, 0)


def maxpool2(x):
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).max(axis=(2, 4))


def upsample(x, factor):
    return x.repeat(factor, axis=1).repeat(factor, axis=2)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-np.logaddexp(0.0, -x))


def gaussian_taps():
    t = np.arange(-PYRAMID_RADIUS, PYRAMID_RADIUS + 1, dtype=np.float64)
    taps = np.exp(-(t * t) / (2.0 * PYRAMID_SIGMA ** 2))
    return taps / taps.sum()


def _reflect_index(n, radius):
    """Source index of each padded sample, mirrored about the edge samples."""
    i = np.arange(-radius, n + radius)
    i = np.abs(i)
    return np.where(i >= n, 2 * (n - 1) - i, i)


def blur(img):
    """Separable Gaussian blur with reflect borders, in float64."""
    taps = gaussian_taps()
    r = PYRAMID_RADIUS
    out = np.asarray(img, dtype=np.float64)
    for axis in (2, 1):
        n = out.shape[axis]
        padded = np.take(out, _reflect_index(n, r), axis=axis)
        acc = np.zeros_like(out)
        for t, k in enumerate(taps):
            acc += k * np.take(padded, np.arange(t, t + n), axis=axis)
        out = acc
    return out


def pyramid(frame):
    """(3, H, W) -> three scales, each the blurred previous one decimated by 2."""
    i0 = np.asarray(frame, dtype=np.float64)
    i1 = blur(i0)[:, ::2, ::2]
    i2 = blur(i1)[:, ::2, ::2]
    return i0, i1, i2


def forward(weights, frame, dtype=np.float32):
    """Probability map (H, W) of the triplet network, from the definitions.

    weights: {layer name: (w, b)}; frame: (3, H, W) raw 0..255 values with
    H and W divisible by 16.  Convolutions run in `dtype`, the pyramid and
    the sigmoid in float64.
    """
    h, w = frame.shape[1:]
    if h % 16 or w % 16:
        raise ValueError(f"reference forward needs extents divisible by 16, got {h}x{w}")
    feats = []
    for s, image in enumerate(pyramid(frame)):
        x = image.astype(dtype)
        for name, pool in ENCODER:
            wt, bias = weights[name]
            x = relu(conv_same(x, wt.astype(dtype), bias.astype(dtype)))
            if pool:
                x = maxpool2(x)
        feats.append(upsample(x, 2 ** s))
    x = np.concatenate(feats, axis=0)
    for name, stride in DECODER:
        wt, bias = weights[name]
        x = tconv(x, wt.astype(dtype), bias.astype(dtype), stride)
        if name != DECODER[-1][0]:
            x = relu(x)
    return sigmoid(x[0])


# --------------------------------------------------------------------- loss

def bce(probs, raw):
    """Class-weighted binary cross entropy over the valid pixels of one frame.

    Weights are n/(2 n_fg) and n/(2 n_bg) over valid pixels (1 and 1 when a
    class is absent); probabilities are clipped to [1e-7, 1 - 1e-7].
    """
    fg = raw == FG_CODE
    bg = np.isin(raw, BG_CODES)
    n_fg, n_bg = int(fg.sum()), int(bg.sum())
    n = n_fg + n_bg
    w_fg, w_bg = (n / (2.0 * n_fg), n / (2.0 * n_bg)) if n_fg and n_bg else (1.0, 1.0)
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    total = w_fg * np.log(p[fg]).sum() + w_bg * np.log1p(-p[bg]).sum()
    return -float(total) / n


# ---------------------------------------------------------- counts, metrics

def labels_in_roi(raw, roi):
    """Ground truth with pixels outside the spatial ROI made void."""
    if roi is None:
        return raw
    out = raw.copy()
    out[~roi] = VOID_CODES[0]
    return out


def counts(pred, raw):
    """(tp, fp, fn, tn) of a boolean prediction; void codes are skipped."""
    fg = raw == FG_CODE
    bg = np.isin(raw, BG_CODES)
    return (int(np.count_nonzero(pred & fg)), int(np.count_nonzero(pred & bg)),
            int(np.count_nonzero(~pred & fg)), int(np.count_nonzero(~pred & bg)))


def _div(num, den):
    return num / den if den else 0.0


def metrics(c):
    """The eight change-detection figures of counts c, in the CSV column order
    Recall, Specificity, FPR, FNR, PWC, Precision, F-Measure, MCC; 0/0 is 0."""
    tp, fp, fn, tn = c
    recall = _div(tp, tp + fn)
    precision = _div(tp, tp + fp)
    mcc_den = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fn) * (tn + fp))
    return (recall, _div(tn, tn + fp), _div(fp, fp + tn), _div(fn, tp + fn),
            100.0 * _div(fp + fn, tp + fp + fn + tn), precision,
            _div(2.0 * precision * recall, precision + recall),
            _div(float(tp) * tn - float(fp) * fn, mcc_den))


def mean_rows(rows):
    return tuple(sum(col) / len(rows) for col in zip(*rows))


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ------------------------------------------------------------------ files

def read_netpbm(path):
    """Binary P5/P6 reader: (H, W) or (H, W, 3), uint8 or uint16."""
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":
            pos = buf.index(b"\n", pos)
            continue
        end = pos
        while not buf[end:end + 1].isspace():
            end += 1
        tokens.append(buf[pos:end])
        pos = end
    magic, width, height, maxval = tokens[0], *map(int, tokens[1:])
    channels = {b"P5": 1, b"P6": 3}[magic]
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    n = width * height * channels
    data = np.frombuffer(buf, dtype=dtype, count=n, offset=pos + 1)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return data.reshape(shape).astype(np.uint16 if maxval > 255 else np.uint8)


def read_frame(path):
    """PPM frame as (3, H, W) float values 0..255."""
    return read_netpbm(path).transpose(2, 0, 1).astype(np.float64)


def read_csv_rows(path):
    """{row name: the eight figures} from an evaluate/sweep CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: tuple(float(v) for v in r[1:]) for r in rows[1:]}


# ----------------------------------------------------------------- checkers

def check_probs_match(got, want, tol, what="probability map"):
    """Program probabilities against the reference forward, |diff| <= tol."""
    err = float(np.max(np.abs(np.asarray(got, np.float64) - want)))
    if err > tol:
        return [f"{what}: max |program - reference| = {err:.3g} > {tol:.3g}"]
    return []


def check_mask_against_probs(mask, q, threshold, what="mask"):
    """mask (bool) must be 16-bit map q above threshold, except within one
    quantisation step of the threshold, where either answer is accepted."""
    if mask.shape != q.shape:
        return [f"{what}: shape {mask.shape} vs probability map {q.shape}"]
    p = q.astype(np.float64) / 65535.0
    decided = np.abs(p - threshold) > 1.0 / 65535.0
    wrong = int(np.count_nonzero((mask != (p > threshold)) & decided))
    if wrong:
        return [f"{what}: {wrong} pixels disagree with the probability map"]
    return []


def check_rows(got, want, tol=1.5e-6, what="rows"):
    """Printed CSV figures (6 decimals) against ours, row by row."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{what}: rows {sorted(got)} != expected {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        diff = max(abs(a - b) for a, b in zip(got[name], want[name]))
        if diff > tol:
            problems.append(f"{what} {name}: off by {diff:.3g}: "
                            f"{got[name]} vs {tuple(round(v, 6) for v in want[name])}")
    return problems


def check_recall_non_increasing(recalls, what="sweep"):
    bad = [i for i in range(1, len(recalls)) if recalls[i] > recalls[i - 1]]
    return [f"{what}: recall rises at thresholds {bad}"] if bad else []
