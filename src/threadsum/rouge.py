"""ROUGE-1/2/L/SU4 with clipped multiset overlap.

Tokenization is lowercase alphanumeric runs, no stemming or stopword removal,
so scores are comparable run-to-run but not certified against the reference
toolkit.  SU4 counts in-text skip-bigrams with at most four tokens between
the pair members, combined with unigrams in one multiset; there is no
begin-of-sentence pairing.
"""

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

_TOKEN_RE = re.compile(r"[0-9a-z]+")

METRIC_NAMES = ("rouge_1", "rouge_2", "rouge_l", "rouge_su4")


def rouge_tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, cand_total: float, ref_total: float) -> "RougeScore":
        p = overlap / cand_total if cand_total > 0 else 0.0
        r = overlap / ref_total if ref_total > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f)

    def as_dict(self) -> Dict[str, float]:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


def _clipped_overlap(cand: Counter, ref: Counter) -> int:
    return sum(min(count, ref[gram]) for gram, count in cand.items())


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    if n < 1:
        raise ValueError("n-gram order must be >= 1")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    return RougeScore.from_counts(_clipped_overlap(cand, ref),
                                  sum(cand.values()), sum(ref.values()))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # single-row dynamic program
    if not a or not b:
        return 0
    row = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, start=1):
            cur = row[j]
            row[j] = prev + 1 if x == y else max(row[j], row[j - 1])
            prev = cur
    return row[-1]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    lcs = _lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


def _skip_units(tokens: Sequence[str], max_gap: int = 4) -> Counter:
    """Unigrams plus skip-bigrams with at most max_gap tokens in between."""
    units = Counter((t,) for t in tokens)
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_gap + 2, len(tokens))):
            units[(tokens[i], tokens[j])] += 1
    return units


def rouge_su4(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    cand = _skip_units(candidate)
    ref = _skip_units(reference)
    return RougeScore.from_counts(_clipped_overlap(cand, ref),
                                  sum(cand.values()), sum(ref.values()))


def score_pair(candidate_text: str, reference_text: str) -> Dict[str, RougeScore]:
    cand = rouge_tokenize(candidate_text)
    ref = rouge_tokenize(reference_text)
    return {
        "rouge_1": rouge_n(cand, ref, 1),
        "rouge_2": rouge_n(cand, ref, 2),
        "rouge_l": rouge_l(cand, ref),
        "rouge_su4": rouge_su4(cand, ref),
    }


def evaluate_pairs(pairs: Sequence[Tuple[str, str]]) -> dict:
    """Per-example and mean P/R/F for all four metrics over (cand, ref) texts."""
    if not pairs:
        raise ValueError("nothing to evaluate")
    examples = []
    for cand, ref in pairs:
        scores = score_pair(cand, ref)
        examples.append({name: s.as_dict() for name, s in scores.items()})
    mean = {}
    for name in METRIC_NAMES:
        mean[name] = {
            comp: sum(e[name][comp] for e in examples) / len(examples)
            for comp in ("precision", "recall", "f1")
        }
    return {"count": len(examples), "mean": mean, "examples": examples}
