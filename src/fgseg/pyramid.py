"""Three-scale Gaussian pyramid over raw RGB frames.

Pixel values are used as-is (0..255, no normalization); the only processing
is blur-then-decimate with a small separable kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import pad_to_multiple
from .kernels import ShapeError

# Each level halves the one above, the factor the decoder's 2**scale
# upsampling assumes; sigma follows the downscale/3 rule and the kernel is
# truncated at ceil(4 * sigma) = 3 samples either side.
SIGMA = 2.0 / 3.0
RADIUS = 3


@dataclass(frozen=True)
class PyramidTriple:
    i0: np.ndarray  # (3, H, W), the untouched input
    i1: np.ndarray  # (3, H'/2, W'/2), H' and W' rounded up to multiples of 4
    i2: np.ndarray  # (3, H'/4, W'/4)

    @property
    def scales(self):
        return (self.i0, self.i1, self.i2)


def gaussian_taps():
    """1-D Gaussian kernel of SIGMA, truncated at +-RADIUS, normalized to sum 1."""
    t = np.arange(-RADIUS, RADIUS + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * SIGMA * SIGMA))
    return k / k.sum()


def _blur_axis(x, taps, axis):
    # reflect borders: mirror about the edge sample, matching numpy 'reflect'
    n = x.shape[axis]
    if n == 1:
        return x.copy()  # taps sum to 1 over a single repeated sample
    radius = len(taps) // 2
    pad = [(0, 0)] * x.ndim
    pad[axis] = (radius, radius)
    xp = np.pad(x, pad, mode="reflect")
    out = np.zeros_like(x)
    idx = [slice(None)] * x.ndim
    for t, k in enumerate(taps):
        idx[axis] = slice(t, t + n)
        out += k.astype(x.dtype) * xp[tuple(idx)]
    return out


def gaussian_blur(image):
    """Separable per-channel blur with reflect borders; shape preserved.  A
    convex combination, so unchecked: enc.b1.c1 reports a non-finite frame."""
    image = np.asarray(image)
    if image.ndim != 3:
        raise ShapeError(f"gaussian_blur: expected (C, H, W), got {image.shape}")
    if not np.issubdtype(image.dtype, np.floating):
        image = image.astype(np.float32)
    taps = gaussian_taps()
    out = _blur_axis(image, taps, axis=2)
    return _blur_axis(out, taps, axis=1)


def build_pyramid(image) -> PyramidTriple:
    """Recursive blur+decimate; keeps even-indexed samples at each level.
    The frame is blurred reflect-padded to multiples of 4, so both halvings
    are exact; i0 stays the frame as given."""
    image = np.asarray(image)
    if image.ndim != 3:
        raise ShapeError(f"build_pyramid: expected (C, H, W), got {image.shape}")
    if not np.issubdtype(image.dtype, np.floating):
        image = image.astype(np.float32)
    i1 = gaussian_blur(pad_to_multiple(image, 4))[:, ::2, ::2]
    i2 = gaussian_blur(i1)[:, ::2, ::2]
    return PyramidTriple(image, i1, i2)
