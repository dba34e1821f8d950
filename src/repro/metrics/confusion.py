"""Confusion-matrix metrics: Precision, Recall, F1, Accuracy (§III-C).

The paper evaluates at sample level: a true positive is a sample both the
tool and the manual evaluation call vulnerable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class ConfusionMatrix:
    """Sample-level confusion counts."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name, value in (("tp", self.tp), ("fp", self.fp), ("tn", self.tn), ("fn", self.fn)):
            if value < 0:
                raise ValueError(f"negative count {name}={value}")

    # ------------------------------------------------------------ algebra

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    @property
    def total(self) -> int:
        """Total number of classified samples."""
        return self.tp + self.fp + self.tn + self.fn

    # ------------------------------------------------------------ metrics

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0.0 when undefined."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 0.0 when undefined."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        """(TP + TN) / total; 0.0 when empty."""
        return (self.tp + self.tn) / self.total if self.total else 0.0


def from_verdicts(pairs: Iterable[Tuple[bool, bool]]) -> ConfusionMatrix:
    """Build a matrix from ``(truth, predicted)`` verdict pairs."""
    tp = fp = tn = fn = 0
    for truth, predicted in pairs:
        if truth and predicted:
            tp += 1
        elif truth and not predicted:
            fn += 1
        elif not truth and predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
