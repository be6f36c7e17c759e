"""Dataset ingestion, label semantics, padding, synthetic scenes, mask output.

Directory layout follows the change-detection convention:

    <sequence>/input/in%06d.<ext>        video frames (1-based numbering)
    <sequence>/groundtruth/gt%06d.<ext>  label images
    <sequence>/temporalROI.txt           optional "first last" frame pair
    <sequence>/ROI.<ext>                 optional spatial region-of-interest

Ground-truth gray codes: 0 background, 50 shadow (supervised and scored as
background), 85 outside the region of interest, 170 unknown/object boundary,
255 foreground.  85 and 170 are void: excluded from loss and metrics.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import ShapeError
from .netpbm import atomic_write, read_netpbm, write_pgm, write_ppm

CODE_BACKGROUND = 0
CODE_SHADOW = 50
CODE_OUTSIDE_ROI = 85
CODE_UNKNOWN = 170
CODE_FOREGROUND = 255

VALID_CODES = (CODE_BACKGROUND, CODE_SHADOW, CODE_OUTSIDE_ROI,
               CODE_UNKNOWN, CODE_FOREGROUND)


# ----------------------------------------------------------------- label mask

@dataclass(frozen=True)
class LabelMask:
    """Per-pixel supervision decoded from the raw gray codes.

    The raw code image is retained; foreground/background/valid views are
    derived.  Shadow counts as background everywhere.
    """

    raw: np.ndarray  # (H, W) uint8

    @property
    def shape(self):
        return self.raw.shape

    @property
    def foreground(self):
        return self.raw == CODE_FOREGROUND

    @property
    def background(self):
        return (self.raw == CODE_BACKGROUND) | (self.raw == CODE_SHADOW)

    @property
    def valid(self):
        return self.foreground | self.background

    def counts(self):
        """(n_fg, n_bg) over valid pixels."""
        return int(self.foreground.sum()), int(self.background.sum())


def decode_label(gt_image) -> LabelMask:
    """Validate the gray codes of a single-channel 8-bit image."""
    arr = np.asarray(gt_image)
    if arr.ndim != 2:
        raise ShapeError(f"decode_label: expected (H, W) grayscale, got {arr.shape}")
    arr = arr.astype(np.uint8)
    # deleting the valid bytes leaves exactly the invalid ones, with no
    # per-pixel index or mask array
    unknown = arr.tobytes().translate(None, bytes(VALID_CODES))
    if unknown:
        bad = sorted(set(unknown))
        raise ValueError(f"decode_label: unrecognized gray codes {bad}, "
                         f"expected subset of {list(VALID_CODES)}")
    return LabelMask(arr)


# -------------------------------------------------------------- image readers

# extension -> decoder(path) -> uint8 array
_READERS = {"pgm": read_netpbm, "ppm": read_netpbm}

try:  # optional decoder for the dataset's jpg/png/bmp files
    from PIL import Image as _PILImage

    def _pil_reader(path):
        with _PILImage.open(path) as im:
            if im.mode not in ("L", "RGB"):
                im = im.convert("RGB" if im.mode not in ("1", "I;16") else "L")
            return np.asarray(im)

    _READERS.update(dict.fromkeys(("png", "jpg", "jpeg", "bmp"), _pil_reader))
except ImportError:
    pass


def load_image(path):
    path = Path(path)
    ext = path.suffix.lower().lstrip(".")
    reader = _READERS.get(ext)
    if reader is None:
        raise ValueError(f"{path}: no reader for '.{ext}' "
                         f"(available: {sorted(_READERS)})")
    return reader(path)


def to_tensor(img):
    """uint8 (H,W) or (H,W,3) image -> float32 (3,H,W), raw 0..255 values."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = np.stack([img] * 3)
    elif img.ndim == 3 and img.shape[2] == 3:
        img = img.transpose(2, 0, 1)
    else:
        raise ShapeError(f"to_tensor: expected (H,W) or (H,W,3), got {img.shape}")
    return np.ascontiguousarray(img, dtype=np.float32)


# ----------------------------------------------------------------- sequences

@dataclass
class SequenceHandle:
    root: Path
    frame_paths: list
    gt_paths: list
    roi: np.ndarray | None = None          # (H, W) bool, True inside
    temporal_roi: tuple | None = None      # (first, last), 1-based like filenames

    def __len__(self):
        return len(self.frame_paths)


def _parse_temporal_roi(path):
    text = path.read_text().split()
    if len(text) != 2:
        raise ValueError(f"{path}: expected two integers, got {text!r}")
    try:
        first, last = int(text[0]), int(text[1])
    except ValueError:
        raise ValueError(f"{path}: expected two integers, got {text!r}") from None
    if first > last:
        raise ValueError(f"{path}: first frame {first} after last {last}")
    return first, last


def load_sequence(root) -> SequenceHandle:
    root = Path(root)
    frames_dir = root / "input"
    gt_dir = root / "groundtruth"
    for d in (frames_dir, gt_dir):
        if not d.is_dir():
            raise FileNotFoundError(f"missing sequence directory: {d}")
    frame_paths = sorted(p for p in frames_dir.iterdir() if p.is_file())
    gt_paths = sorted(p for p in gt_dir.iterdir() if p.is_file())
    if not frame_paths:
        raise ValueError(f"{frames_dir}: no frames found")
    if len(frame_paths) != len(gt_paths):
        raise ValueError(f"{root}: {len(frame_paths)} frames but "
                         f"{len(gt_paths)} ground-truth images")
    roi = None
    for cand in sorted(root.glob("ROI.*")):
        ext = cand.suffix.lower().lstrip(".")
        if ext in _READERS:
            roi = read_mask(cand)
            break
    temporal = None
    troi = root / "temporalROI.txt"
    if troi.is_file():
        temporal = _parse_temporal_roi(troi)
    return SequenceHandle(root, frame_paths, gt_paths, roi, temporal)


def read_frame(handle: SequenceHandle, index):
    return to_tensor(load_image(handle.frame_paths[index]))


def read_labels(handle: SequenceHandle, index) -> LabelMask:
    img = load_image(handle.gt_paths[index])
    if img.ndim == 3:
        img = img[:, :, 0]
    raw = img.astype(np.uint8)  # a fresh copy, so the ROI can mask it in place
    if handle.roi is not None:
        if handle.roi.shape != raw.shape:
            raise ShapeError(f"{handle.gt_paths[index]}: ROI {handle.roi.shape} "
                             f"does not match labels {raw.shape}")
        raw[~handle.roi] = CODE_OUTSIDE_ROI
    return decode_label(raw)


def temporal_range(handle: SequenceHandle):
    """0-based [start, stop) index range honoring the temporal ROI."""
    if handle.temporal_roi is None:
        return 0, len(handle)
    first, last = handle.temporal_roi
    start = max(first - 1, 0)
    stop = min(last, len(handle))
    if start >= stop:
        raise ValueError(f"{handle.root}: temporal ROI {handle.temporal_roi} "
                         f"selects no frames out of {len(handle)}")
    return start, stop


# ------------------------------------------------------------------- padding

def pad_to_multiple(image, multiple):
    """Reflect-pad bottom/right so H and W divide by `multiple`.

    Returns (padded, (H, W)) with the original extents for crop_back.
    """
    image = np.asarray(image)
    h, w = image.shape[-2:]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return image, (h, w)
    pad = [(0, 0)] * (image.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(image, pad, mode="reflect"), (h, w)


# the benchmark's traced segment probe (perfbench/tracing.py) pads and crops
# a frame with these two; model.forward does both itself
def pad_to_multiple_of_4(image):
    return pad_to_multiple(image, 4)


def crop_back(arr, extents):
    h, w = extents
    return arr[..., :h, :w]


# ----------------------------------------------------------- synthetic scenes

@dataclass
class SynthConfig:
    width: int = 64
    height: int = 64
    n_frames: int = 60
    n_objects: int = 2
    object_size: int = 10
    speed: float = 2.0
    noise: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.object_size < 2:
            raise ValueError(f"object_size must be >= 2, got {self.object_size}")
        if self.object_size + 2 > min(self.width, self.height):
            raise ValueError(f"object_size {self.object_size} does not fit in "
                             f"{self.width}x{self.height}")
        if self.n_frames < 1 or self.n_objects < 1:
            raise ValueError("need at least one frame and one object")


def _object_mask(shape_kind, size, h, w, top, left):
    mask = np.zeros((h, w), dtype=bool)
    if shape_kind == "rect":
        mask[top:top + size, left:left + size] = True
    else:  # disk inscribed in the size x size bounding box
        r = size / 2.0
        yy, xx = np.mgrid[0:size, 0:size]
        disk = (yy - (size - 1) / 2.0) ** 2 + (xx - (size - 1) / 2.0) ** 2 <= r * r
        mask[top:top + size, left:left + size] = disk
    return mask


def _dilate8(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    out[1:, 1:] |= mask[:-1, :-1]
    out[1:, :-1] |= mask[:-1, 1:]
    out[:-1, 1:] |= mask[1:, :-1]
    out[:-1, :-1] |= mask[1:, 1:]
    return out


def synth_frames(config: SynthConfig):
    """Moving bright objects over a textured background.

    Yields (frame float32 (3,H,W), LabelMask) for each of the scene's
    frames, drawn as it is asked for.  Ground truth marks object pixels
    foreground with a 1-px unknown halo around them.
    """
    rng = np.random.default_rng(config.seed)
    h, w, size = config.height, config.width, config.object_size
    base = 40.0 + 50.0 * np.linspace(0, 1, w)[None, :] * np.ones((h, 1))
    base = base + rng.uniform(-8.0, 8.0, size=(h, w))
    tint = rng.uniform(-12.0, 12.0, size=3)

    kinds = ["rect" if i % 2 == 0 else "disk" for i in range(config.n_objects)]
    colors = [rng.uniform(170.0, 250.0, size=3) for _ in range(config.n_objects)]
    pos = [rng.uniform([0, 0], [h - size, w - size]) for _ in range(config.n_objects)]
    angles = rng.uniform(0, 2 * math.pi, size=config.n_objects)
    vel = [config.speed * np.array([math.sin(a), math.cos(a)]) for a in angles]

    for _ in range(config.n_frames):
        frame = np.empty((3, h, w), dtype=np.float32)
        for c in range(3):
            frame[c] = base + tint[c]
        if config.noise > 0:
            frame += rng.normal(0.0, config.noise, size=(3, h, w)).astype(np.float32)

        fg = np.zeros((h, w), dtype=bool)
        for i in range(config.n_objects):
            top, left = int(round(pos[i][0])), int(round(pos[i][1]))
            mask = _object_mask(kinds[i], size, h, w, top, left)
            fg |= mask
            for c in range(3):
                frame[c][mask] = colors[i][c]
            # bounce off the walls, keeping the object fully inside
            for axis, limit in ((0, h - size), (1, w - size)):
                pos[i][axis] += vel[i][axis]
                if pos[i][axis] < 0:
                    pos[i][axis] = -pos[i][axis]
                    vel[i][axis] = -vel[i][axis]
                elif pos[i][axis] > limit:
                    pos[i][axis] = 2 * limit - pos[i][axis]
                    vel[i][axis] = -vel[i][axis]

        raw = np.zeros((h, w), dtype=np.uint8)
        raw[_dilate8(fg) & ~fg] = CODE_UNKNOWN
        raw[fg] = CODE_FOREGROUND
        np.clip(frame, 0.0, 255.0, out=frame)
        yield frame, LabelMask(raw)


def synth_sequence(config: SynthConfig):
    """The list of synth_frames(config)."""
    return list(synth_frames(config))


def write_synth_dataset(config: SynthConfig, root):
    """Materialize a synthetic scene in the standard sequence layout."""
    root = Path(root)
    for i, (frame, labels) in enumerate(synth_frames(config), start=1):
        rgb = np.rint(frame.transpose(1, 2, 0)).clip(0, 255).astype(np.uint8)
        write_ppm(root / "input" / f"in{i:06d}.ppm", rgb)
        write_pgm(root / "groundtruth" / f"gt{i:06d}.pgm", labels.raw)
    with atomic_write(root / "temporalROI.txt", "w") as fh:
        fh.write(f"1 {config.n_frames}\n")
    write_pgm(root / "ROI.pgm", np.full((config.height, config.width), 255, np.uint8))
    return root


# ------------------------------------------------------------------- outputs

def as_map(values, caller, shape=None):
    """A per-pixel map is (H, W) or (1, H, W); returns it as (H, W), which
    must equal shape (the labels' shape) when one is given."""
    values = np.asarray(values)
    if values.ndim == 3 and values.shape[0] == 1:
        values = values[0]
    if values.ndim != 2:
        raise ShapeError(f"{caller}: expected (H, W) or (1, H, W), got {values.shape}")
    if shape is not None and values.shape != shape:
        raise ShapeError(f"{caller}: map {values.shape} vs labels {shape}")
    return values


def check_threshold(threshold):
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def write_mask(probs, threshold, path):
    """Binarize strictly above threshold and write an 8-bit PGM."""
    check_threshold(threshold)
    probs = as_map(probs, "write_mask")
    mask = np.where(probs > threshold, 255, 0).astype(np.uint8)
    write_pgm(path, mask)
    return mask


def write_prob_map(probs, path):
    """Dump probabilities as a 16-bit PGM scaled to 0..65535."""
    probs = as_map(probs, "write_prob_map")
    scaled = np.rint(np.clip(probs, 0.0, 1.0) * 65535.0).astype(np.uint16)
    write_pgm(path, scaled)


def read_prob_map(path):
    arr = read_netpbm(path)
    if arr.dtype != np.uint16:
        raise ValueError(f"{path}: probability dumps are 16-bit PGM")
    probs = arr.astype(np.float32)
    probs /= 65535.0  # in place: the same float32 division, one array
    return probs


def read_mask(path):
    arr = load_image(path)
    if arr.ndim == 3:
        arr = arr[:, :, 0]
    return arr > 127
