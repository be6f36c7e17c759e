"""Each checker in reference.py accepts fgseg's output on a tiny input and
rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_reference.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fgseg import data, kernels, metrics, model, netpbm, pyramid, training  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def tiny():
    rng = np.random.default_rng(7)
    net = model.build_model(seed=3)
    net["dec.b9.t1x1"].weights *= wl.OUTPUT_GAIN
    frame = rng.integers(0, 256, size=(3, 16, 16)).astype(np.float32)
    probs = model.forward(net, pyramid.build_pyramid(frame))[0]
    weights = {n: (p.weights, p.bias) for n, p in net.layers.items()}
    return frame, weights, probs


def labels(rng, shape):
    return rng.choice(np.array([0, 50, 85, 170, 255], np.uint8), size=shape,
                      p=[0.5, 0.1, 0.05, 0.05, 0.3])


def test_forward_accepts_the_program_and_rejects_a_perturbed_weight(tiny):
    frame, weights, probs = tiny
    assert 0.05 < probs.min() and probs.max() < 0.95 and probs.std() > 0.01
    assert ref.check_probs_match(probs, ref.forward(weights, frame), wl.FORWARD_TOL) == []
    w, b = weights["enc.b3.c2"]
    w = w.copy()
    w[0, 0, 1, 1] += 0.05
    bad = dict(weights, **{"enc.b3.c2": (w, b)})
    assert ref.check_probs_match(probs, ref.forward(bad, frame), wl.FORWARD_TOL)


def test_pyramid_and_convolutions_match_the_kernels():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (3, 16, 12)).astype(np.float32)
    pyr = pyramid.build_pyramid(img)
    for got, want in zip(pyr.scales, ref.pyramid(img)):
        np.testing.assert_allclose(got, want, atol=1e-3)
    x = rng.standard_normal((4, 6, 5))
    w = rng.standard_normal((7, 4, 3, 3))
    b = rng.standard_normal(7)
    y, _ = kernels.conv2d_forward(x, w, b, kernels.ConvSpec.same(3, 4, 7))
    np.testing.assert_allclose(y, ref.conv_same(x, w, b), atol=1e-12)
    wt = rng.standard_normal((4, 7, 5, 5))
    for spec, stride in ((kernels.ConvSpec.same(5, 4, 7), 1),
                         (kernels.ConvSpec.upscale2x(5, 4, 7), 2)):
        y, _ = kernels.tconv2d_forward(x, wt, b, spec)
        np.testing.assert_allclose(y, ref.tconv(x, wt, b, stride), atol=1e-12)


def test_bce_accepts_the_program_and_rejects_a_flipped_label():
    rng = np.random.default_rng(2)
    raw = labels(rng, (8, 8))
    p = rng.uniform(0, 1, (1, 8, 8))
    p[0, 0, :3] = (0.0, 1.0, 1e-9)           # clipped pixels
    lm = data.LabelMask(raw)
    loss, _ = training.weighted_bce(p, lm, *training.class_weights(lm))
    assert ref.bce(p[0], raw) == pytest.approx(loss, rel=1e-12)
    flipped = raw.copy()
    flipped[tuple(np.argwhere(raw == 255)[0])] = 0
    assert ref.bce(p[0], flipped) != pytest.approx(loss, rel=1e-6)


def test_mask_checker_accepts_written_files_and_rejects_a_flipped_pixel(tmp_path):
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, (12, 10)).astype(np.float32)
    p[0, :4] = (0.8, np.nextafter(np.float32(0.8), 1), 0.8 + 0.4 / 65535, 0.8 - 0.4 / 65535)
    data.write_mask(p, 0.8, tmp_path / "bin.pgm")
    data.write_prob_map(p, tmp_path / "prob.pgm")
    mask = ref.read_netpbm(tmp_path / "bin.pgm") > 127
    q = ref.read_netpbm(tmp_path / "prob.pgm")
    assert ref.check_mask_against_probs(mask, q, 0.8) == []
    far = np.argwhere(np.abs(p - 0.8) > 0.1)[0]
    mask[tuple(far)] = ~mask[tuple(far)]
    assert ref.check_mask_against_probs(mask, q, 0.8)


def test_counts_and_metrics_match_the_program_and_reject_an_off_by_one_count():
    rng = np.random.default_rng(4)
    raw = labels(rng, (9, 7))
    pred = rng.uniform(size=raw.shape) > 0.5
    c = metrics.accumulate(pred, data.LabelMask(raw))
    mine = ref.counts(pred, raw)
    assert mine == (c.tp, c.fp, c.fn, c.tn)
    got = {"v": metrics.compute_metrics(c).as_row()}
    assert ref.check_rows(got, {"v": ref.metrics(mine)}, tol=1e-12) == []
    for k in range(4):
        off = list(mine)
        off[k] += 1
        assert ref.check_rows(got, {"v": ref.metrics(tuple(off))})


def test_integer_sweep_rule_matches_the_program_on_quantised_maps(tmp_path):
    rng = np.random.default_rng(5)
    raw = labels(rng, (6, 8))
    q = rng.integers(0, 65536, size=raw.shape).astype(np.uint16)
    q.flat[:4] = (13107, 13108, 26214, 39321)  # exactly 0.2, 0.4, 0.6
    netpbm.write_pgm(tmp_path / "prob.pgm", q)
    probs = data.read_prob_map(tmp_path / "prob.pgm")
    sweep = metrics.threshold_sweep([probs], [data.LabelMask(raw)], wl.SWEEP_THRESHOLDS)
    qi = ref.read_netpbm(tmp_path / "prob.pgm").astype(np.int64)
    mine = [ref.counts(10 * qi > round(10 * t) * 65535, raw) for t in wl.SWEEP_THRESHOLDS]
    assert mine == [(c.tp, c.fp, c.fn, c.tn) for c in sweep.counts]
    recalls = [r.recall for r in sweep.reports]
    assert ref.check_recall_non_increasing(recalls) == []
    assert ref.check_recall_non_increasing(recalls[:2] + [recalls[0] + 0.1])


def test_netpbm_reader_reads_what_the_program_writes(tmp_path):
    rng = np.random.default_rng(6)
    gray8 = rng.integers(0, 256, (5, 7)).astype(np.uint8)
    gray16 = rng.integers(0, 65536, (5, 7)).astype(np.uint16)
    rgb = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
    netpbm.write_pgm(tmp_path / "a.pgm", gray8)
    netpbm.write_pgm(tmp_path / "b.pgm", gray16)
    netpbm.write_ppm(tmp_path / "c.ppm", rgb)
    (tmp_path / "d.pgm").write_bytes(b"P5\n# comment\n7 5\n255\n" + gray8.tobytes())
    for name, want in (("a.pgm", gray8), ("b.pgm", gray16), ("c.ppm", rgb), ("d.pgm", gray8)):
        got = ref.read_netpbm(tmp_path / name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
