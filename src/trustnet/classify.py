"""Publisher scoring, coverage accounting, and the depth-one tree classifier."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .ingest import Corpus, KnowledgeBase, Label, fold_sum
from .voters import VoterProfile


@dataclass
class PublisherScore:
    domain: str
    score: float
    n_voters: int
    kb_label: Label


@dataclass
class CoverageReport:
    """Distinct publishers reached by the voter set, split by trust label."""

    covered: dict[Label, int]
    universe: dict[Label, int]

    def percentage(self, level: Label) -> float:
        if self.universe[level] == 0:
            return 0.0
        return 100.0 * self.covered[level] / self.universe[level]


@dataclass(frozen=True)
class Stump:
    """Single-threshold classifier: scores on one side predict T."""

    threshold: float
    high_is_trustworthy: bool

    def predict(self, score: float) -> Label:
        high = score >= self.threshold
        if high == self.high_is_trustworthy:
            return Label.T
        return Label.N


@dataclass
class FoldResult:
    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def balanced_accuracy(self) -> float:
        tpr = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        tnr = self.tn / (self.tn + self.fp) if self.tn + self.fp else 0.0
        return (tpr + tnr) / 2.0


@dataclass
class CvReport:
    folds: int
    results: list[FoldResult] = field(default_factory=list)
    baseline: float = 0.5

    @property
    def balanced_accuracies(self) -> list[float]:
        return [r.balanced_accuracy for r in self.results]

    @property
    def mean_balanced_accuracy(self) -> float:
        accs = self.balanced_accuracies
        return fold_sum(accs) / len(accs)

    @property
    def std_balanced_accuracy(self) -> float:
        accs = self.balanced_accuracies
        mean = self.mean_balanced_accuracy
        return (fold_sum((a - mean) ** 2 for a in accs) / len(accs)) ** 0.5


def publisher_scores(
    voters: list[VoterProfile], corpus: Corpus, kb: KnowledgeBase
) -> list[PublisherScore]:
    """Mean voter value per publisher, one unweighted vote per voter.

    A voter votes on every publisher they shared at least one corpus article
    of, independent of the strategy that produced their value. Voters without
    a defined value are ignored; publishers nobody votes on are omitted.
    A publisher's votes add in ascending user-id order, starting from 0.0,
    whatever the order of ``voters``.
    """
    return vote_columns(voters, np.ones((len(voters), 1), dtype=bool), corpus, kb)[0][0]


def labeled_samples(scores: list[PublisherScore]) -> list[tuple[float, Label]]:
    """(score, label) of each scored publisher the knowledge base labels T or N."""
    return [(s.score, s.kb_label) for s in scores if s.kb_label is not Label.UNC]


def coverage(
    voters: list[VoterProfile], corpus: Corpus, kb: KnowledgeBase
) -> CoverageReport:
    """Publisher coverage of the voter set, against the corpus universe."""
    return vote_columns(voters, np.ones((len(voters), 1), dtype=bool), corpus, kb)[0][1]


def vote_columns(
    voters: list[VoterProfile], select: np.ndarray, corpus: Corpus, kb: KnowledgeBase
) -> list[tuple[list[PublisherScore], CoverageReport]]:
    """Per column j, ``publisher_scores`` and ``coverage`` of the voters with ``select[:, j]`` set.

    With Bᵀ the corpus's publisher × user matrix, one product each
    gives every column's vote sums, vote counts and reached publishers.
    """
    bt = corpus.publisher_users
    rows = np.array([corpus.user_row[v.user_id] for v in voters], dtype=np.int64)
    chosen = np.zeros((len(corpus.users), select.shape[1]), dtype=bool)
    chosen[rows] = select
    value = np.zeros(len(corpus.users))
    value[rows] = np.array([v.value for v in voters], dtype=float)  # None is nan
    votes = chosen & ~np.isnan(value)[:, None]
    sums = (bt @ (votes * np.nan_to_num(value)[:, None])).T.tolist()
    counts = (bt @ votes).T.tolist()
    labels = [kb.label(p) for p in corpus.publishers]
    levels = np.array([[label is level for level in Label] for label in labels], dtype=np.int64)
    covered = ((bt @ chosen > 0).T.astype(np.int64) @ levels).tolist()
    universe = levels.sum(axis=0).tolist()
    return [
        ([PublisherScore(p, s / n, n, label)
          for p, s, n, label in zip(corpus.publishers, col_sums, col_counts, labels) if n],
         CoverageReport(dict(zip(Label, col_covered)), dict(zip(Label, universe))))
        for col_sums, col_counts, col_covered in zip(sums, counts, covered)
    ]


def fit_stump(samples: list[tuple[float, Label]]) -> Stump:
    """Best single split by weighted Gini impurity.

    Candidate thresholds are midpoints of consecutive distinct sorted scores;
    ties resolve to the smallest threshold. With a single distinct score
    there is nothing to separate: the threshold sits at that score and the
    side polarity follows the overall majority.
    """
    if not samples:
        raise ValueError("no samples")
    labels = {label for _, label in samples}
    if labels - {Label.T, Label.N}:
        raise ValueError("samples must be labeled T or N")
    if len(labels) < 2:
        raise ValueError("both classes must be present")
    ordered = sorted(samples, key=lambda sample: sample[0])
    keys = [s for s, _ in ordered]
    # t_below[k]: T labels among the k lowest scores
    t_below = [0]
    for _, label in ordered:
        t_below.append(t_below[-1] + (label is Label.T))
    n = len(samples)
    n_t = t_below[-1]
    scores = sorted(set(keys))
    if len(scores) == 1:
        return Stump(threshold=scores[0], high_is_trustworthy=n_t * 2 >= n)
    best_t, best_k, best_gini = None, 0, float("inf")
    for a, b in zip(scores, scores[1:]):
        t = (a + b) / 2.0
        k = bisect_left(keys, t)  # the samples with score < t
        gini = (k * _gini(t_below[k], k) + (n - k) * _gini(n_t - t_below[k], n - k)) / n
        if gini < best_gini - 1e-12:
            best_gini, best_t, best_k = gini, t, k
    assert best_t is not None
    high_t = n_t - t_below[best_k]
    high_n = n - best_k - high_t
    if high_t != high_n:
        high_is_t = high_t > high_n
    else:
        # right side tied: let the left side's majority decide the other pole
        high_is_t = t_below[best_k] * 2 <= best_k
    return Stump(threshold=best_t, high_is_trustworthy=high_is_t)


def _gini(n_t: int, n: int) -> float:
    """Gini impurity of ``n`` labels of which ``n_t`` are T."""
    if not n:
        return 0.0
    f_t = n_t / n
    return 1.0 - f_t * f_t - (1.0 - f_t) * (1.0 - f_t)


def stratified_folds(
    samples: list[tuple[float, Label]], folds: int, seed: int
) -> list[list[int]]:
    """Deterministic stratified fold assignment (indices per fold)."""
    rng = random.Random(seed)
    by_label: dict[Label, list[int]] = defaultdict(list)
    for i, (_, label) in enumerate(samples):
        by_label[label].append(i)
    fold_indices: list[list[int]] = [[] for _ in range(folds)]
    for label in sorted(by_label, key=lambda l: l.value):
        idx = by_label[label][:]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            fold_indices[pos % folds].append(i)
    return fold_indices


def stratified_cv(
    samples: list[tuple[float, Label]], folds: int = 10, seed: int = 0
) -> CvReport:
    """Stratified k-fold evaluation of the stump; folds shrink to the
    minority class count when needed."""
    n_t = sum(1 for _, l in samples if l is Label.T)
    n_n = len(samples) - n_t
    minority = min(n_t, n_n)
    if minority < 2:
        raise ValueError("each class needs at least 2 samples")
    folds = min(folds, minority)
    report = CvReport(folds=folds)
    for fold in stratified_folds(samples, folds, seed):
        held_out = set(fold)
        stump = fit_stump([s for i, s in enumerate(samples) if i not in held_out])
        # (label is T, prediction is T) per held-out sample
        counts = Counter((label is Label.T, stump.predict(score) is Label.T)
                         for score, label in (samples[i] for i in fold))
        report.results.append(FoldResult(tp=counts[True, True], fn=counts[True, False],
                                         tn=counts[False, False], fp=counts[False, True]))
    return report


@dataclass
class WorthyEntry:
    domain: str
    score: float
    n_voters: int
    predicted: Label | None


def worthy_list(scores: list[PublisherScore], stump: Stump | None) -> list[WorthyEntry]:
    """Unclassified publishers ranked for annotation priority.

    Most-voted first, then lowest score first; predictions come from ``stump``,
    fit on all labeled publishers (None if a stump cannot be fit).
    """
    entries = [
        WorthyEntry(
            domain=s.domain,
            score=s.score,
            n_voters=s.n_voters,
            predicted=stump.predict(s.score) if stump else None,
        )
        for s in scores
        if s.kb_label is Label.UNC
    ]
    entries.sort(key=lambda e: (-e.n_voters, e.score, e.domain))
    return entries
