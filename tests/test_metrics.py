import io

import numpy as np
import pytest

import oracles
from fgseg.data import LabelMask
from fgseg.kernels import ShapeError
from fgseg.metrics import (
    METRIC_COLUMNS,
    ConfusionCounts,
    accumulate,
    aggregate,
    compute_metrics,
    emit_csv,
    format_table,
    threshold_sweep,
)


def random_labels(rng, shape, p_void=0.2, p_fg=0.3):
    codes = np.full(shape, 0, dtype=np.uint8)
    u = rng.uniform(size=shape)
    codes[u < p_fg] = 255
    v = rng.uniform(size=shape)
    codes[v < p_void / 2] = 85
    codes[(v >= p_void / 2) & (v < p_void)] = 170
    return LabelMask(codes)


# confusion counting -----------------------------------------------------

def test_perfect_prediction_counts():
    codes = np.zeros((10, 10), dtype=np.uint8)
    codes[:3, :] = 255  # 30 foreground pixels
    labels = LabelMask(codes)
    counts = accumulate(labels.foreground, labels)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (30, 0, 0, 70)


def test_all_void_counts_nothing():
    labels = LabelMask(np.full((6, 6), 85, dtype=np.uint8))
    counts = accumulate(np.ones((6, 6), dtype=bool), labels)
    assert counts == ConfusionCounts(0, 0, 0, 0)


def test_accumulate_matches_loop_oracle():
    rng = np.random.default_rng(50)
    for _ in range(50):
        labels = random_labels(rng, (16, 16))
        pred = rng.uniform(size=(16, 16)) > 0.5
        counts = accumulate(pred, labels)
        ref = oracles.confusion_loops(pred, labels.foreground, labels.valid)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == ref


def test_accumulate_shape_mismatch():
    labels = LabelMask(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ShapeError, match="accumulate"):
        accumulate(np.zeros((4, 5), dtype=bool), labels)


def test_counts_merge_is_concatenation():
    rng = np.random.default_rng(51)
    la = random_labels(rng, (8, 8))
    lb = random_labels(rng, (8, 8))
    pa = rng.uniform(size=(8, 8)) > 0.5
    pb = rng.uniform(size=(8, 8)) > 0.5
    merged = accumulate(pa, la) + accumulate(pb, lb)
    cat_labels = LabelMask(np.concatenate([la.raw, lb.raw], axis=0))
    cat_pred = np.concatenate([pa, pb], axis=0)
    assert merged == accumulate(cat_pred, cat_labels)


def test_counts_reject_negative():
    with pytest.raises(ValueError, match="negative"):
        ConfusionCounts(-1, 0, 0, 0)


# metric formulas --------------------------------------------------------

def test_hand_case_2_1_1_6():
    r = compute_metrics(ConfusionCounts(2, 1, 1, 6))
    assert r.precision == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.recall == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.f_measure == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.pwc == pytest.approx(20.0, abs=1e-12)
    assert r.mcc == pytest.approx(11.0 / 21.0, abs=1e-12)
    assert r.specificity == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert r.fpr == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert r.fnr == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert r.degenerate == ()


def test_perfect_scores():
    r = compute_metrics(ConfusionCounts(30, 0, 0, 70))
    assert r.f_measure == 1.0 and r.mcc == 1.0 and r.pwc == 0.0


def test_empty_foreground_goes_degenerate_not_nan():
    r = compute_metrics(ConfusionCounts(0, 0, 0, 100))
    assert r.f_measure == 0.0 and "F-Measure" in r.degenerate
    assert r.mcc == 0.0 and "MCC" in r.degenerate
    assert r.recall == 0.0 and "Recall" in r.degenerate
    assert r.precision == 0.0 and "Precision" in r.degenerate
    assert r.specificity == 1.0


def test_metrics_match_direct_formulas():
    rng = np.random.default_rng(52)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, size=4))
        r = compute_metrics(ConfusionCounts(tp, fp, fn, tn))
        assert abs(r.f_measure - oracles.fmeasure_direct(tp, fp, fn)) < 1e-12
        assert abs(r.pwc - oracles.pwc_direct(tp, fp, fn, tn)) < 1e-12
        assert abs(r.mcc - oracles.mcc_direct(tp, fp, fn, tn)) < 1e-12


def test_metric_ranges_on_random_counts():
    rng = np.random.default_rng(53)
    for _ in range(200):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 1000, size=4))
        r = compute_metrics(ConfusionCounts(tp, fp, fn, tn))
        for v in (r.recall, r.specificity, r.fpr, r.fnr, r.precision, r.f_measure):
            assert 0.0 <= v <= 1.0
        assert 0.0 <= r.pwc <= 100.0
        assert -1.0 <= r.mcc <= 1.0


# threshold sweep ---------------------------------------------------------

def test_sweep_count_monotonicity():
    rng = np.random.default_rng(54)
    probs = [rng.uniform(size=(16, 16)).astype(np.float32) for _ in range(5)]
    labels = [random_labels(rng, (16, 16)) for _ in range(5)]
    sweep = threshold_sweep(probs, labels, [t / 10 for t in range(1, 10)])
    for a, b in zip(sweep.counts, sweep.counts[1:]):
        assert b.tp <= a.tp and b.fp <= a.fp
        assert b.tn >= a.tn and b.fn >= a.fn


def test_sweep_on_hard_probabilities_is_flat():
    rng = np.random.default_rng(55)
    probs = [(rng.uniform(size=(8, 8)) > 0.5).astype(np.float32)]
    labels = [random_labels(rng, (8, 8))]
    sweep = threshold_sweep(probs, labels, [0.1, 0.5, 0.9])
    assert sweep.reports[0] == sweep.reports[1] == sweep.reports[2]


def test_sweep_finds_best_threshold():
    # one fg pixel at p=0.85, one bg pixel at p=0.75: only t in (0.75, 0.85)
    # separates them perfectly
    probs = [np.array([[0.85, 0.75]], dtype=np.float32)]
    labels = [LabelMask(np.array([[255, 0]], dtype=np.uint8))]
    sweep = threshold_sweep(probs, labels, [0.5, 0.8, 0.9])
    assert sweep.best_threshold == pytest.approx(0.8)
    assert sweep.best_f == 1.0


def test_sweep_matches_per_threshold_accumulate():
    # The sweep gathers each frame's labelled pixels once for all thresholds;
    # the plain path binarises every frame at every threshold.
    rng = np.random.default_rng(56)
    thresholds = [0.1, 0.25, 0.5, 0.8, 0.9]
    codes = np.array([0, 50, 85, 170, 255], dtype=np.uint8)
    for dtype in (np.float32, np.float64):
        probs, labels = [], []
        for k, shape in enumerate([(7, 9), (12, 5), (16, 16), (3, 20)]):
            p = rng.uniform(size=shape).astype(dtype)
            raw = rng.choice(codes, size=shape)
            # a tie at every threshold, in the map's own dtype, on both a
            # foreground and a background pixel; then a NaN and every code
            p.flat[:10] = np.repeat(np.array(thresholds, dtype=dtype), 2)
            raw.flat[:10] = [255, 0] * 5
            p.flat[10] = np.nan
            raw.flat[-5:] = codes
            probs.append(p[None] if k % 2 else p)
            labels.append(LabelMask(raw))
        sweep = threshold_sweep(probs, labels, thresholds)
        for t, c in zip(thresholds, sweep.counts):
            plain = sum((accumulate(p > t, lab)
                         for p, lab in zip(probs, labels)), ConfusionCounts())
            assert c == plain, (dtype, t)


def test_sweep_validation():
    probs = [np.zeros((2, 2), dtype=np.float32)]
    labels = [LabelMask(np.zeros((2, 2), dtype=np.uint8))]
    with pytest.raises(ValueError, match="label masks"):
        threshold_sweep(probs, [], [0.5])
    with pytest.raises(ValueError, match="strictly increasing"):
        threshold_sweep(probs, labels, [0.5, 0.5])
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        threshold_sweep(probs, labels, [0.0, 0.5])
    with pytest.raises(ShapeError, match="threshold_sweep"):
        threshold_sweep([np.zeros((2, 3), dtype=np.float32)], labels, [0.5])


def test_sweep_over_generators_matches_lists():
    rng = np.random.default_rng(57)
    probs = [rng.uniform(size=(9, 7)).astype(np.float32) for _ in range(4)]
    labels = [random_labels(rng, (9, 7)) for _ in range(4)]
    thresholds = [0.2, 0.5, 0.7]
    plain = threshold_sweep(probs, labels, thresholds)
    streamed = threshold_sweep(iter(probs), (lab for lab in labels), thresholds)
    assert streamed == plain
    for n_maps, n_masks in ((4, 3), (2, 4), (0, 1)):
        for maps, masks in ((probs[:n_maps], labels[:n_masks]),
                            (iter(probs[:n_maps]), iter(labels[:n_masks]))):
            with pytest.raises(ValueError, match=f"^threshold_sweep: {n_maps} "
                               f"probability maps but {n_masks} label masks$"):
                threshold_sweep(maps, masks, thresholds)


# aggregation -------------------------------------------------------------

def test_single_video_equal_at_all_levels():
    r = compute_metrics(ConfusionCounts(2, 1, 1, 6))
    cats, overall = aggregate({"cat": {"vid": r}})
    assert cats["cat"] == r
    assert overall == r


def test_category_mean_of_two_videos():
    ra = compute_metrics(ConfusionCounts(10, 0, 0, 10))   # F = 1.0
    rb = compute_metrics(ConfusionCounts(5, 5, 0, 10))    # F = 2/3
    cats, overall = aggregate({"c": {"a": ra, "b": rb}})
    assert cats["c"].f_measure == pytest.approx((1.0 + 2 / 3) / 2)
    assert overall.f_measure == cats["c"].f_measure


def test_aggregate_order_invariance():
    rng = np.random.default_rng(56)
    reports = [compute_metrics(ConfusionCounts(*map(int, rng.integers(1, 50, 4))))
               for _ in range(4)]
    fwd = aggregate({"c": {f"v{i}": r for i, r in enumerate(reports)}})
    rev = aggregate({"c": {f"v{i}": r for i, r in reversed(list(enumerate(reports)))}})
    assert fwd[1].f_measure == pytest.approx(rev[1].f_measure, abs=1e-15)
    assert fwd[1].mcc == pytest.approx(rev[1].mcc, abs=1e-15)


def test_aggregate_two_level_weighting():
    # category means first, then mean of categories: a lone video in its own
    # category weighs as much as three videos sharing one
    one = compute_metrics(ConfusionCounts(10, 0, 0, 10))          # F=1
    three = [compute_metrics(ConfusionCounts(0, 5, 5, 10))] * 3   # F=0 flagged
    _, overall = aggregate({"solo": {"v": one},
                            "trio": {f"v{i}": r for i, r in enumerate(three)}})
    assert overall.f_measure == pytest.approx(0.5)


def test_aggregate_empty_category_rejected():
    with pytest.raises(ValueError, match="no videos"):
        aggregate({"c": {}})
    with pytest.raises(ValueError, match="no categories"):
        aggregate({})


# emission ----------------------------------------------------------------

def test_csv_columns_and_roundtrip():
    r = compute_metrics(ConfusionCounts(2, 1, 1, 6))
    buf = io.StringIO()
    emit_csv([("overall", r)], buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "Name," + ",".join(METRIC_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "overall"
    assert float(cells[7]) == pytest.approx(r.f_measure, abs=1e-6)
    assert float(cells[8]) == pytest.approx(r.mcc, abs=1e-6)


def test_table_formatting():
    r = compute_metrics(ConfusionCounts(30, 0, 0, 70))
    table = format_table([("video1", r), ("overall", r)])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].split()[:3] == ["Name", "Recall", "Specificity"]
    assert "video1" in lines[2] and "overall" in lines[3]
