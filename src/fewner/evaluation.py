"""Span-level scoring and energy/carbon accounting.

Scoring is exact-match micro/macro F1: a predicted span counts as a true
positive only when its (start, end, type) triple matches a gold span
one-to-one within the same sentence.  Matching is multiset intersection, so
duplicate predictions of the same gold span count once as TP and once as FP.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from typing import Iterable

from .corpus import AnnotatedSentence, EntitySpan
from .decode import PredictionSet
from .errors import ConfigError, DataError


def span_match_counts(
    predicted: Iterable[EntitySpan], gold: Iterable[EntitySpan]
) -> tuple[int, int, int]:
    """(tp, fp, fn) under exact (start, end, type) one-to-one matching.

    Each prediction takes one of the gold triples still unmatched, so the
    counts are those of multiset intersection.
    """
    unmatched: dict[tuple[int, int, str], int] = {}
    n_gold = 0
    for s in gold:
        key = (s.start, s.end, s.type)
        unmatched[key] = unmatched.get(key, 0) + 1
        n_gold += 1
    tp = fp = 0
    for s in predicted:
        key = (s.start, s.end, s.type)
        left = unmatched.get(key)
        if left:
            unmatched[key] = left - 1
            tp += 1
        else:
            fp += 1
    return tp, fp, n_gold - tp


def f1_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, f1); empty denominators score zero."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class TypeScore:
    type_id: str
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[1]

    @property
    def f1(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[2]


@dataclass
class EvalReport:
    per_type: dict[str, TypeScore]
    n_sentences: int
    timestamp: str | None = None

    @property
    def micro_counts(self) -> tuple[int, int, int]:
        tp = sum(s.tp for s in self.per_type.values())
        fp = sum(s.fp for s in self.per_type.values())
        fn = sum(s.fn for s in self.per_type.values())
        return tp, fp, fn

    @property
    def micro_precision(self) -> float:
        return f1_from_counts(*self.micro_counts)[0]

    @property
    def micro_recall(self) -> float:
        return f1_from_counts(*self.micro_counts)[1]

    @property
    def micro_f1(self) -> float:
        return f1_from_counts(*self.micro_counts)[2]

    @property
    def macro_f1(self) -> float:
        if not self.per_type:
            return 0.0
        return sum(s.f1 for s in self.per_type.values()) / len(self.per_type)

    def _rows(self, micro_label: str = "micro") -> list[tuple[str, TypeScore]]:
        """(label, score) of each type in id order, labelled by its id, then
        of the micro row, whose counts are the per-type counts summed."""
        micro = TypeScore("micro", *self.micro_counts)
        return [*sorted(self.per_type.items()), (micro_label, micro)]

    def to_json(self) -> str:
        def row(s: TypeScore) -> dict:
            return {
                "tp": s.tp, "fp": s.fp, "fn": s.fn,
                "precision": s.precision, "recall": s.recall, "f1": s.f1,
            }

        *per_type, (_, micro) = self._rows()
        payload = {
            "n_sentences": self.n_sentences,
            "timestamp": self.timestamp,
            "micro": row(micro),
            "macro_f1": self.macro_f1,
            "per_type": {tid: row(s) for tid, s in per_type},
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "tp", "fp", "fn", "precision", "recall", "f1", "n_sentences"])
        writer.writerows(
            [
                label, s.tp, s.fp, s.fn, f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}",
                self.n_sentences,
            ]
            for label, s in self._rows()
        )
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            "| type | tp | fp | fn | precision | recall | f1 |",
            "| --- | ---: | ---: | ---: | ---: | ---: | ---: |",
            *(
                f"| {label} | {s.tp} | {s.fp} | {s.fn} | {s.precision:.4f} | {s.recall:.4f} |"
                f" {s.f1:.4f} |"
                for label, s in self._rows("**micro**")
            ),
            "",
            f"macro F1: {self.macro_f1:.4f} over {len(self.per_type)} types,",
            f"{self.n_sentences} sentences.",
        ]
        return "\n".join(lines)


def score(
    predictions: PredictionSet,
    gold_sentences: list[AnnotatedSentence],
    entity_types: list[str] | None = None,
) -> EvalReport:
    """Score predictions against gold sentences.

    entity_types fixes the scored type set (types without predictions or
    gold still get a zero row); by default it is every type seen in either
    side.  Predictions for unknown sentence ids are an error, not silently
    dropped.
    """
    by_id = {s.id: s for s in gold_sentences}
    unknown = [sid for sid in predictions.spans if sid not in by_id]
    if unknown:
        raise DataError(f"predictions reference unknown sentence ids: {sorted(unknown)}")
    if entity_types is None:
        seen: set[str] = set()
        for s in gold_sentences:
            seen.update(sp.type for sp in s.spans)
        for per_type in predictions.spans.values():
            seen.update(per_type)
        entity_types = sorted(seen)
    per_type: dict[str, TypeScore] = {}
    for tid in entity_types:
        tp = fp = fn = 0
        for s in gold_sentences:
            dtp, dfp, dfn = span_match_counts(
                predictions.spans_for(s.id, tid), s.spans_of(tid)
            )
            tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
        per_type[tid] = TypeScore(tid, tp, fp, fn)
    return EvalReport(per_type=per_type, n_sentences=len(gold_sentences))


# ---------------------------------------------------------------------------
# Carbon accounting


@dataclass(frozen=True)
class HardwareProfile:
    """Power draw of the serving hardware."""

    device_power_w: float = 300.0
    usage_factor: float = 1.0
    memory_gb: float = 64.0
    memory_w_per_gb: float = 0.3725

    def mean_power_w(self) -> float:
        return self.device_power_w * self.usage_factor + self.memory_gb * self.memory_w_per_gb


@dataclass(frozen=True)
class GridProfile:
    """Data-center overhead and grid carbon intensity."""

    pue: float = 1.67
    carbon_intensity_g_per_kwh: float = 475.0


@dataclass(frozen=True)
class CarbonEstimate:
    runtime_h: float
    energy_kwh: float
    adjusted_energy_kwh: float
    co2e_g: float

    def to_dict(self) -> dict[str, float]:
        return {
            "runtime_h": self.runtime_h,
            "energy_kwh": self.energy_kwh,
            "adjusted_energy_kwh": self.adjusted_energy_kwh,
            "co2e_g": self.co2e_g,
        }


def estimate_carbon(
    runtime_h: float,
    hardware: HardwareProfile | None = None,
    grid: GridProfile | None = None,
) -> CarbonEstimate:
    """CO2-equivalent grams for a run of the given wall-clock duration.

    energy = hours * (device W * usage + memory GB * W/GB) / 1000, scaled by
    the data-center PUE, then multiplied by the grid intensity in g/kWh.
    Raises ConfigError for a negative or non-finite runtime or profile value.
    """
    hardware = hardware or HardwareProfile()
    grid = grid or GridProfile()
    for name, value in {"runtime_h": runtime_h, **asdict(hardware), **asdict(grid)}.items():
        if not 0 <= value < float("inf"):
            raise ConfigError(f"{name} must be finite and non-negative, got {value}")
    energy_kwh = runtime_h * hardware.mean_power_w() / 1000.0
    adjusted_kwh = energy_kwh * grid.pue
    co2e_g = adjusted_kwh * grid.carbon_intensity_g_per_kwh
    return CarbonEstimate(
        runtime_h=runtime_h,
        energy_kwh=energy_kwh,
        adjusted_energy_kwh=adjusted_kwh,
        co2e_g=co2e_g,
    )
