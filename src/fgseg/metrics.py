"""Confusion counting with void exclusion, the change-detection metric set,
threshold sweeps, and two-level category aggregation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import LabelMask, as_map, check_threshold

METRIC_COLUMNS = ("Recall", "Specificity", "FPR", "FNR", "PWC",
                  "Precision", "F-Measure", "MCC")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError(f"negative confusion count: {self}")

    def __add__(self, other):
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    recall: float
    specificity: float
    fpr: float
    fnr: float
    pwc: float
    precision: float
    f_measure: float
    mcc: float
    degenerate: tuple = ()  # names of metrics whose denominator was 0

    def as_row(self):
        """Values in the external column order."""
        return (self.recall, self.specificity, self.fpr, self.fnr,
                self.pwc, self.precision, self.f_measure, self.mcc)


def accumulate(pred, labels: LabelMask) -> ConfusionCounts:
    """Count a binary prediction against ground truth, skipping void pixels."""
    pred = as_map(pred, "accumulate", labels.shape).astype(bool, copy=False)
    fg, bg = labels.foreground, labels.background
    tp, fp = int(np.count_nonzero(pred & fg)), int(np.count_nonzero(pred & bg))
    return ConfusionCounts(tp, fp, int(np.count_nonzero(fg)) - tp,
                           int(np.count_nonzero(bg)) - fp)


def _ratio(num, den, name, degenerate):
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def compute_metrics(c: ConfusionCounts) -> MetricsReport:
    degenerate = []
    recall = _ratio(c.tp, c.tp + c.fn, "Recall", degenerate)
    specificity = _ratio(c.tn, c.tn + c.fp, "Specificity", degenerate)
    fpr = _ratio(c.fp, c.fp + c.tn, "FPR", degenerate)
    fnr = _ratio(c.fn, c.tp + c.fn, "FNR", degenerate)
    pwc = 100.0 * _ratio(c.fp + c.fn, c.total, "PWC", degenerate)
    precision = _ratio(c.tp, c.tp + c.fp, "Precision", degenerate)
    f_measure = _ratio(2.0 * precision * recall, precision + recall,
                       "F-Measure", degenerate)
    mcc_den = math.sqrt(float(c.tp + c.fp) * float(c.tp + c.fn)
                        * float(c.tn + c.fn) * float(c.tn + c.fp))
    if mcc_den == 0.0:
        degenerate.append("MCC")
        mcc = 0.0
    else:
        mcc = (float(c.tp) * c.tn - float(c.fp) * c.fn) / mcc_den
    return MetricsReport(recall, specificity, fpr, fnr, pwc, precision,
                         f_measure, mcc, tuple(degenerate))


# ------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepResult:
    thresholds: tuple
    counts: tuple    # ConfusionCounts per threshold
    reports: tuple   # MetricsReport per threshold
    best_threshold: float
    best_f: float


def threshold_sweep(prob_maps, label_masks, thresholds) -> SweepResult:
    """Binarize at each threshold, pool counts over all frames, report.

    prob_maps and label_masks are any iterables, generators included; the
    sweep takes one frame of each at a time and drops it before the next.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise ValueError("threshold_sweep: no thresholds")
    for a, b in zip(thresholds, thresholds[1:]):
        if b <= a:
            raise ValueError(f"thresholds must be strictly increasing, "
                             f"got {a} then {b}")
    for t in thresholds:
        check_threshold(t)
    hits = np.zeros((len(thresholds), 2), dtype=np.int64)  # (tp, fp) per t
    n_fg = n_bg = n_maps = n_masks = 0
    masks = iter(label_masks)
    for probs in prob_maps:
        n_maps += 1
        labels = next(masks, None)
        if labels is None:
            continue  # out of masks: count the maps left, for the error below
        n_masks += 1
        p = as_map(probs, "threshold_sweep", labels.shape)
        pf, pb = p[labels.foreground], p[labels.background]  # once, for all t
        hits += [(np.count_nonzero(pf > t), np.count_nonzero(pb > t))
                 for t in thresholds]
        n_fg, n_bg = n_fg + pf.size, n_bg + pb.size
        del probs, labels, p, pf, pb  # freed before the next frame is read
    n_masks += sum(1 for _ in masks)
    if n_maps != n_masks:
        raise ValueError(f"threshold_sweep: {n_maps} probability maps "
                         f"but {n_masks} label masks")
    counts = [ConfusionCounts(tp, fp, n_fg - tp, n_bg - fp)
              for tp, fp in hits.tolist()]
    reports = [compute_metrics(c) for c in counts]
    best = int(np.argmax([r.f_measure for r in reports]))
    return SweepResult(tuple(thresholds), tuple(counts), tuple(reports),
                       thresholds[best], reports[best].f_measure)


# -------------------------------------------------------------- aggregation

def _mean_report(reports):
    vals = {}
    flagged = []
    for f in fields(MetricsReport):
        if f.name == "degenerate":
            continue
        vals[f.name] = sum(getattr(r, f.name) for r in reports) / len(reports)
    for r in reports:
        flagged.extend(r.degenerate)
    return MetricsReport(degenerate=tuple(dict.fromkeys(flagged)), **vals)


def aggregate(category_reports):
    """Two-level unweighted averaging: videos -> category -> overall.

    category_reports: {category: {video: MetricsReport}}.
    Returns ({category: MetricsReport}, overall MetricsReport).
    """
    if not category_reports:
        raise ValueError("aggregate: no categories")
    per_category = {}
    for cat, videos in category_reports.items():
        if not videos:
            raise ValueError(f"aggregate: category {cat!r} has no videos")
        per_category[cat] = _mean_report(list(videos.values()))
    overall = _mean_report(list(per_category.values()))
    return per_category, overall


# ----------------------------------------------------------------- emission

def emit_csv(rows, fh):
    """rows: iterable of (name, MetricsReport); fh: writable text file."""
    writer = csv.writer(fh)
    writer.writerow(("Name",) + tuple(METRIC_COLUMNS))
    for name, report in rows:
        writer.writerow((name,) + tuple(f"{v:.6f}" for v in report.as_row()))


def format_table(rows):
    """Aligned plain-text table over the same row structure as emit_csv."""
    header = ("Name",) + tuple(METRIC_COLUMNS)
    body = [(str(name),) + tuple(f"{v:.4f}" for v in report.as_row())
            for name, report in rows]
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
