"""A constructive calibration paradox.

Per-group recalibration can improve every group's expected calibration
error while making the pooled ECE strictly worse. This module builds a
minimal witness out of two record populations, B and B-prime:

* the baseline model assigns one shared confidence v_i per bin i to both
  populations, but B's accuracy in the bin is v_i + r while B-prime's is
  v_i - r. Each population alone has ECE |r|, yet pooled the residuals
  cancel exactly and the union ECE is 0;
* the group-wise model halves each group's residual magnitude to |r| / 2
  with the opposite sign (confidences shift to accuracy + r / 2, which
  cannot change correctness, mimicking a recalibration that preserves the
  argmax). Both groups improve: |r| / 2 < |r|. But the shifted residuals
  no longer cancel, so the union ECE becomes |r| / 2 > 0.

Populations are realized with ``per_bin`` records per bin and integral
correct-counts, which requires 2 * per_bin * residual to be an integer;
the per-bin confidence v_i is placed inside bin i wherever the accuracy
bounds allow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import RecordSet
from .errors import UsageError
from .metrics import BinStrategy, ece


@dataclass(frozen=True)
class CounterexampleSpec:
    bins: int = 3
    residual: float = 0.2
    per_bin: int = 100


@dataclass(frozen=True)
class Counterexample:
    spec: CounterexampleSpec
    baseline_b: RecordSet
    baseline_b_prime: RecordSet
    groupwise_b: RecordSet
    groupwise_b_prime: RecordSet
    bin_confidence: np.ndarray  # (bins,) shared baseline confidence per bin


def _records(confidences: list[float], corrects: list[int], per_bin: int) -> RecordSet:
    conf = np.repeat(np.asarray(confidences, dtype=np.float64), per_bin)
    predicted = np.zeros(conf.shape[0], dtype=np.int64)
    actual = np.ones(conf.shape[0], dtype=np.int64)
    for i, k in enumerate(corrects):
        actual[i * per_bin : i * per_bin + k] = 0
    return RecordSet(conf, predicted, actual)


def build_counterexample(spec: CounterexampleSpec = CounterexampleSpec()) -> Counterexample:
    """Realize the two populations for both models as concrete records.

    Raises :class:`~relikit.errors.UsageError` when the parameters admit
    no exact realization (zero residual, non-integral correct counts, or
    a residual too large for some bin).
    """
    m, r, c = spec.bins, spec.residual, spec.per_bin
    if m < 1:
        raise UsageError(f"bin count must be >= 1, got {m}")
    if c < 1:
        raise UsageError(f"per-bin population must be >= 1, got {c}")
    if r == 0.0:
        raise UsageError("residual must be non-zero: the paradox needs miscalibration to cancel")
    if not np.isfinite(r) or abs(r) >= 0.5:
        raise UsageError(f"residual must lie in (-0.5, 0.5) excluding 0, got {r}")
    two_cr = 2.0 * c * r
    if abs(two_cr - round(two_cr)) > 1e-9:
        raise UsageError(
            f"2 * per_bin * residual = {two_cr} must be an integer so correct counts are whole"
        )
    two_cr = int(round(two_cr))

    bin_conf = np.empty(m)
    correct_b, correct_bp = [], []
    group_conf_b, group_conf_bp = [], []
    for i in range(m):
        lo, hi = i / m, (i + 1) / m
        # v must keep both accuracies v +- r and both shifted confidences
        # acc + r/2 inside [0, 1], and v itself inside bin i
        vmin = max(lo, r, -r, -1.5 * r)
        vmax = min(hi, 1.0 - r, 1.0 + r, 1.0 - 1.5 * r)
        target = np.clip((lo + hi) / 2.0, vmin, vmax)
        base = int(round(2 * c * target))
        if (base - two_cr) % 2 != 0:
            base += 1
        chosen = None
        for offset in range(0, 4 * m + 2 * c, 2):
            for s in (base - offset, base + offset) if offset else (base,):
                v = s / (2.0 * c)
                k_b = (s + two_cr) // 2
                k_bp = (s - two_cr) // 2
                if not (0 <= k_b <= c and 0 <= k_bp <= c):
                    continue
                if min(k_b / c + r / 2.0, k_bp / c + r / 2.0) < 0.0:
                    continue
                if max(k_b / c + r / 2.0, k_bp / c + r / 2.0) > 1.0:
                    continue
                if min(np.floor(v * m), m - 1) != i:
                    continue
                chosen = (v, k_b, k_bp)
                break
            if chosen:
                break
        if chosen is None:
            raise UsageError(
                f"residual {r} with {m} bins and {c} records per bin is not realizable in bin {i}"
            )
        v, k_b, k_bp = chosen
        bin_conf[i] = v
        correct_b.append(k_b)
        correct_bp.append(k_bp)
        group_conf_b.append(k_b / c + r / 2.0)
        group_conf_bp.append(k_bp / c + r / 2.0)

    return Counterexample(
        spec=spec,
        baseline_b=_records(list(bin_conf), correct_b, c),
        baseline_b_prime=_records(list(bin_conf), correct_bp, c),
        groupwise_b=_records(group_conf_b, correct_b, c),
        groupwise_b_prime=_records(group_conf_bp, correct_bp, c),
        bin_confidence=bin_conf,
    )


def evaluate_counterexample(ce: Counterexample) -> dict:
    """Compute the six ECE values and the two paradox inequalities."""
    m = ce.spec.bins
    union_baseline = RecordSet.concat([ce.baseline_b, ce.baseline_b_prime])
    union_groupwise = RecordSet.concat([ce.groupwise_b, ce.groupwise_b_prime])
    values = {
        "baseline": {
            "b": ece(ce.baseline_b, m, BinStrategy.EQUAL_WIDTH),
            "b_prime": ece(ce.baseline_b_prime, m, BinStrategy.EQUAL_WIDTH),
            "union": ece(union_baseline, m, BinStrategy.EQUAL_WIDTH),
        },
        "groupwise": {
            "b": ece(ce.groupwise_b, m, BinStrategy.EQUAL_WIDTH),
            "b_prime": ece(ce.groupwise_b_prime, m, BinStrategy.EQUAL_WIDTH),
            "union": ece(union_groupwise, m, BinStrategy.EQUAL_WIDTH),
        },
    }
    values["groups_improve"] = bool(
        values["groupwise"]["b"] < values["baseline"]["b"]
        and values["groupwise"]["b_prime"] < values["baseline"]["b_prime"]
    )
    values["union_regresses"] = bool(values["groupwise"]["union"] > values["baseline"]["union"])
    return values
