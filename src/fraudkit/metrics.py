"""Confusion-matrix accounting and the four evaluation metrics.

Positive = fraud = label 1. Undefined metrics (empty denominator) are
carried as None and rendered "undef"; they are never coerced to 0.
The one exception is F1 with precision = recall = 0, whose limit is 0.
"""

from dataclasses import asdict, dataclass

import numpy as np

from fraudkit.base import check_labels


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    support_pos: int
    support_neg: int

    def to_dict(self):
        return asdict(self)


def format_metric(value):
    return "undef" if value is None else repr(float(value))


def confusion(y_true, y_pred):
    y_true = check_labels(y_true, name="y_true")
    y_pred = check_labels(y_pred, name="y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} vs {y_pred.shape[0]}")
    if y_true.size < 1:
        raise ValueError("need at least one label")
    return ConfusionMatrix(
        tp=int(np.count_nonzero((y_true == 1) & (y_pred == 1))),
        tn=int(np.count_nonzero((y_true == 0) & (y_pred == 0))),
        fp=int(np.count_nonzero((y_true == 0) & (y_pred == 1))),
        fn=int(np.count_nonzero((y_true == 1) & (y_pred == 0))),
    )


def compute_metrics(cm):
    if cm.total < 1:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tn + cm.tp) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision == 0.0 and recall == 0.0:
        f1 = 0.0  # limit of the harmonic mean
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        support_pos=cm.tp + cm.fn,
        support_neg=cm.tn + cm.fp,
    )


def evaluate_predictions(y_true, y_pred):
    return compute_metrics(confusion(y_true, y_pred))
