import re

import numpy as np
import pytest

from fgseg import data
from fgseg.data import (
    CODE_FOREGROUND,
    CODE_OUTSIDE_ROI,
    CODE_UNKNOWN,
    SynthConfig,
    crop_back,
    decode_label,
    load_sequence,
    pad_to_multiple_of_4,
    read_frame,
    read_labels,
    synth_sequence,
    temporal_range,
    to_tensor,
    write_mask,
    write_prob_map,
    read_prob_map,
    write_synth_dataset,
)
from fgseg.kernels import ShapeError
from fgseg.netpbm import atomic_write, read_netpbm, write_pgm, write_ppm
from memory import numpy_peak


# netpbm codecs ---------------------------------------------------------

def test_pgm_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(40)
    img = rng.integers(0, 256, size=(9, 13), dtype=np.uint8)
    p = tmp_path / "x.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_netpbm(p), img)


def test_pgm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(41)
    # a 13- and a 14-byte header: the raster starts unaligned, then aligned
    for shape in ((5, 7), (5, 16)):
        img = rng.integers(0, 65536, size=shape, dtype=np.uint16)
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        back = read_netpbm(p)
        assert back.dtype == np.uint16
        assert np.array_equal(back, img)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(42)
    img = rng.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
    p = tmp_path / "x.ppm"
    write_ppm(p, img)
    assert np.array_equal(read_netpbm(p), img)


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    p = tmp_path / "a.pgm"
    old = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(p, old)
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_write(p) as fh:
            fh.write(b"P5\n4 3\n255\n")
            raise RuntimeError("midway")
    with pytest.raises(ValueError, match="dtype"):
        write_pgm(p, old.astype(np.float32))
    assert np.array_equal(read_netpbm(p), old)
    assert [q.name for q in tmp_path.iterdir()] == ["a.pgm"]


def test_atomic_write_makes_the_missing_directories(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    write_pgm(tmp_path / "a" / "b" / "x.pgm", img)
    assert np.array_equal(read_netpbm(tmp_path / "a" / "b" / "x.pgm"), img)
    with atomic_write(tmp_path / "a" / "c.txt", "w") as fh:   # an existing one too
        fh.write("text")
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "c.txt"]
    (tmp_path / "f").write_bytes(b"x")
    with pytest.raises(FileExistsError):   # a file where a directory must be
        write_pgm(tmp_path / "f" / "x.pgm", img)
    assert (tmp_path / "f").read_bytes() == b"x"


def test_netpbm_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # magic\n# a comment line\n2 # width\n 2\n255\n\x01\x02\x03\x04")
    img = read_netpbm(p)
    assert np.array_equal(img, np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_netpbm_truncated_and_bad_magic(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_netpbm(p)
    p.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00")
    with pytest.raises(ValueError, match=re.escape("truncated raster (3 of 8 bytes)")):
        read_netpbm(p)
    p.write_bytes(b"P5\n2 2\n255")
    with pytest.raises(ValueError, match=re.escape("truncated raster (0 of 4 bytes)")):
        read_netpbm(p)
    p.write_bytes(b"P3\n1 1\n255\n0")
    with pytest.raises(ValueError, match="magic"):
        read_netpbm(p)


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(43)
    img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, img)
    write_pgm(b, read_netpbm(a))
    assert a.read_bytes() == b.read_bytes()


# labels ----------------------------------------------------------------

def test_decode_all_foreground():
    m = decode_label(np.full((4, 4), 255, dtype=np.uint8))
    assert m.foreground.all() and m.valid.all()


def test_decode_code_semantics():
    raw = np.array([[0, 50, 85], [170, 255, 0]], dtype=np.uint8)
    m = decode_label(raw)
    assert m.background[0, 0] and m.background[0, 1]  # shadow folds into bg
    assert not m.valid[0, 2] and not m.valid[1, 0]    # both void codes
    assert m.foreground[1, 1]
    assert m.counts() == (1, 3)


def test_decode_rejects_unknown_codes():
    raw = np.array([[0, 99]], dtype=np.uint8)
    with pytest.raises(ValueError, match="99"):
        decode_label(raw)


def test_decode_accepts_exactly_the_valid_codes():
    for code in range(256):
        raw = np.array([[0, code], [255, 85]], dtype=np.uint8)
        if code in data.VALID_CODES:
            assert np.array_equal(decode_label(raw).raw, raw)
        else:
            with pytest.raises(ValueError, match=rf"codes \[{code}\],"):
                decode_label(raw)


def test_decode_lists_every_bad_code_once():
    raw = np.array([[0, 254, 50], [1, 170, 254], [255, 1, 85]], dtype=np.uint8)
    with pytest.raises(ValueError) as caught:
        decode_label(raw)
    assert str(caught.value) == ("decode_label: unrecognized gray codes [1, 254], "
                                 "expected subset of [0, 50, 85, 170, 255]")


def test_label_roundtrip_identity():
    raw = np.array([[0, 50, 85, 170, 255]], dtype=np.uint8)
    m = decode_label(raw)
    assert np.array_equal(m.raw, raw)
    again = decode_label(m.raw)
    assert np.array_equal(again.raw, m.raw)


# tensors and padding ---------------------------------------------------

def test_to_tensor_gray_replicates_channels():
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    t = to_tensor(img)
    assert t.shape == (3, 2, 3) and t.dtype == np.float32
    assert np.array_equal(t[0], t[2])


def test_to_tensor_color_is_channel_major():
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[:, :, 1] = 200
    t = to_tensor(img)
    assert t.shape == (3, 2, 3)
    assert np.all(t[1] == 200.0) and np.all(t[0] == 0.0)


def test_pad_already_aligned_is_identity():
    img = np.zeros((3, 240, 320), dtype=np.float32)
    padded, extents = pad_to_multiple_of_4(img)
    assert padded.shape == img.shape and extents == (240, 320)


def test_pad_and_crop_roundtrip():
    rng = np.random.default_rng(44)
    img = rng.uniform(0, 255, size=(3, 240, 321)).astype(np.float32)
    padded, extents = pad_to_multiple_of_4(img)
    assert padded.shape == (3, 240, 324)
    assert np.array_equal(crop_back(padded, extents), img)
    # reflected columns mirror the interior, not repeat the edge
    assert np.array_equal(padded[:, :, 321], img[:, :, 319])


# synthetic scenes ------------------------------------------------------

def test_synth_static_object_constant_frames():
    cfg = SynthConfig(n_frames=4, n_objects=1, speed=0.0, noise=0.0, seed=5)
    frames = synth_sequence(cfg)
    f0, g0 = frames[0]
    for f, g in frames[1:]:
        assert np.array_equal(f, f0)
        assert np.array_equal(g.raw, g0.raw)


def test_synth_same_seed_identical():
    cfg = SynthConfig(n_frames=3, seed=9)
    a = synth_sequence(cfg)
    b = synth_sequence(cfg)
    for (fa, ga), (fb, gb) in zip(a, b):
        assert np.array_equal(fa, fb) and np.array_equal(ga.raw, gb.raw)


def test_synth_rect_pixel_count_matches_area():
    cfg = SynthConfig(n_frames=6, n_objects=1, object_size=10, seed=3)
    for frame, labels in synth_sequence(cfg):
        assert int(labels.foreground.sum()) == 100
        # halo is the 8-neighborhood ring: recompute it from the mask
        fg = labels.foreground
        ring = data._dilate8(fg) & ~fg
        assert np.array_equal(labels.raw == CODE_UNKNOWN, ring)
        assert frame.shape == (3, 64, 64)
        assert frame.min() >= 0.0 and frame.max() <= 255.0


def test_synth_config_validation():
    frame, labels = synth_sequence(SynthConfig(width=30, height=22, n_frames=1))[0]
    assert frame.shape == (3, 22, 30) and labels.shape == (22, 30)
    with pytest.raises(ValueError, match="object_size"):
        SynthConfig(object_size=1)
    with pytest.raises(ValueError, match="fit"):
        SynthConfig(width=16, height=16, object_size=15)


# sequence loading ------------------------------------------------------

def test_synth_dataset_roundtrip(tmp_path):
    cfg = SynthConfig(n_frames=10, seed=1)
    root = write_synth_dataset(cfg, tmp_path / "scene")
    handle = load_sequence(root)
    assert len(handle) == 10
    assert handle.temporal_roi == (1, 10)
    assert handle.roi is not None and handle.roi.all()
    assert temporal_range(handle) == (0, 10)

    frames = synth_sequence(cfg)
    f0 = read_frame(handle, 0)
    assert f0.shape == (3, 64, 64)
    # ppm stores rounded uint8, so compare against the rounded original
    assert np.array_equal(f0, np.rint(frames[0][0]).astype(np.float32))
    g0 = read_labels(handle, 0)
    assert np.array_equal(g0.raw, frames[0][1].raw)


def test_write_synth_dataset_holds_one_frame_at_a_time(tmp_path):
    # each frame is drawn, written and dropped before the next: the whole
    # sequence, held as a list, took 0.9 MB more per 320x240 frame.  A first
    # call allocates 0.8 MB of one-off state, so one frame is written first.
    write_synth_dataset(SynthConfig(width=16, height=16, n_frames=1, seed=2), tmp_path / "1")
    peaks = [numpy_peak(lambda: write_synth_dataset(
                 SynthConfig(width=320, height=240, n_frames=n, seed=2), tmp_path / str(n)))
             for n in (4, 16)]
    assert abs(peaks[1] - peaks[0]) < 1e6
    assert len(load_sequence(tmp_path / "16")) == 16


def test_load_sequence_missing_groundtruth(tmp_path):
    (tmp_path / "seq" / "input").mkdir(parents=True)
    with pytest.raises(FileNotFoundError, match="groundtruth"):
        load_sequence(tmp_path / "seq")


def test_load_sequence_count_mismatch(tmp_path):
    root = write_synth_dataset(SynthConfig(n_frames=3, seed=0), tmp_path / "s")
    (root / "groundtruth" / "gt000003.pgm").unlink()
    with pytest.raises(ValueError, match="3 frames but 2"):
        load_sequence(root)


def test_temporal_roi_parse(tmp_path):
    root = write_synth_dataset(SynthConfig(n_frames=5, seed=0), tmp_path / "s")
    (root / "temporalROI.txt").write_text("470 1700\n")
    assert load_sequence(root).temporal_roi == (470, 1700)
    (root / "temporalROI.txt").write_text("x y\n")
    with pytest.raises(ValueError, match="two integers"):
        load_sequence(root)


def test_roi_mask_forces_void(tmp_path):
    root = write_synth_dataset(SynthConfig(n_frames=2, seed=2), tmp_path / "s")
    roi = np.full((64, 64), 255, dtype=np.uint8)
    roi[:, 32:] = 0
    write_pgm(root / "ROI.pgm", roi)
    handle = load_sequence(root)
    labels = read_labels(handle, 0)
    assert (labels.raw[:, 32:] == CODE_OUTSIDE_ROI).all()
    assert not labels.valid[:, 32:].any()


def test_unknown_extension_reports_readers(tmp_path):
    p = tmp_path / "f.xyz"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="no reader"):
        data.load_image(p)


# outputs ---------------------------------------------------------------

def test_write_mask_strict_threshold(tmp_path):
    p_hi = np.full((1, 4, 4), 0.81, dtype=np.float32)
    m = write_mask(p_hi, 0.8, tmp_path / "hi.pgm")
    assert np.all(m == 255)
    p_eq = np.full((1, 4, 4), 0.8, dtype=np.float32)
    m = write_mask(p_eq, 0.8, tmp_path / "eq.pgm")
    assert np.all(m == 0)


def test_write_mask_readback(tmp_path):
    rng = np.random.default_rng(45)
    probs = rng.uniform(0, 1, size=(1, 8, 8)).astype(np.float32)
    path = tmp_path / "m.pgm"
    m = write_mask(probs, 0.5, path)
    assert np.array_equal(read_netpbm(path), m)
    assert np.array_equal(data.read_mask(path), m > 127)


def test_write_mask_threshold_validated(tmp_path):
    with pytest.raises(ValueError, match="threshold"):
        write_mask(np.zeros((1, 2, 2)), 1.0, tmp_path / "x.pgm")


def test_prob_map_roundtrip(tmp_path):
    rng = np.random.default_rng(46)
    probs = rng.uniform(0, 1, size=(1, 6, 6)).astype(np.float32)
    path = tmp_path / "p.pgm"
    write_prob_map(probs, path)
    back = read_prob_map(path)
    assert back.shape == (6, 6)
    assert np.max(np.abs(back - probs[0])) <= 0.5 / 65535.0 + 1e-9
    # a map is (H, W) or (1, H, W); a second channel is an error, not dropped
    two = np.concatenate([probs, probs])
    with pytest.raises(ShapeError, match="write_prob_map"):
        write_prob_map(two, tmp_path / "two.pgm")
    with pytest.raises(ShapeError, match="write_mask"):
        write_mask(two, 0.5, tmp_path / "two.pgm")
    assert not (tmp_path / "two.pgm").exists()


def test_read_prob_map_matches_plain_division_on_every_code(tmp_path):
    path = tmp_path / "all.pgm"
    write_pgm(path, np.arange(65536, dtype=np.uint16).reshape(256, 256))
    plain = read_netpbm(path).astype(np.float32) / 65535.0
    got = read_prob_map(path)
    assert got.dtype == np.float32
    assert got.tobytes() == plain.tobytes()
