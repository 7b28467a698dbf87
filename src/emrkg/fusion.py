"""TF-IDF entity normalization and graph fusion.

Entity names are vectorized over character n-grams (orders 1 and 2 by
default): clinical Chinese names are short and unsegmented, so word-level
terms would mostly be singletons. Term weight is raw frequency times
log(|D|/df); a term found in every document therefore weighs zero. Only
terms absent from the whole corpus get the smoothed weight
log(|D|/(1+df)) + 1, which keeps query vectors finite without disturbing
corpus-term weights.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from emrkg.errors import DataError
from emrkg.graph import KnowledgeGraph, normalize_name

log = logging.getLogger(__name__)

DEFAULT_NGRAM_ORDERS: tuple[int, ...] = (1, 2)
DEFAULT_THRESHOLD = 0.8


class EmptyDocument(DataError):
    """A document (entity name) produced no terms."""


class EmptyCatalog(DataError):
    """Cannot build an index over zero names."""


class DanglingAlignment(DataError):
    """Alignment target has no node in the graph."""


def ngrams(name: str, orders: tuple[int, ...] = DEFAULT_NGRAM_ORDERS) -> list[str]:
    """Character n-grams of every requested order, with multiplicity."""
    terms: list[str] = []
    for n in orders:
        terms.extend(name[i : i + n] for i in range(len(name) - n + 1))
    return terms


@dataclass(frozen=True)
class TfIdfIndex:
    names: tuple[str, ...]
    vocabulary: dict[str, int]  # term -> column
    idf: np.ndarray  # (V,)
    doc_vectors: np.ndarray  # (N, V), rows L2-normalized unless zero
    orders: tuple[int, ...]
    uniform: bool  # degenerate corpus: every defined IDF was 0
    zero_rows: tuple[int, ...]


@dataclass(frozen=True)
class Alignment:
    source: str
    target: str | None
    similarity: float
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if (self.target is not None) != (self.similarity >= self.threshold):
            raise DataError("alignment target presence must match the threshold test")


def build_index(
    kb_names: list[str], orders: tuple[int, ...] = DEFAULT_NGRAM_ORDERS
) -> TfIdfIndex:
    """TF-IDF vectors for every KB name, L2-normalized, with a sorted
    (hence deterministic) n-gram vocabulary. A corpus whose every IDF is
    zero (e.g. a single name) falls back to uniform weights so cosine
    similarity stays defined."""
    if not kb_names:
        raise EmptyCatalog("cannot build an index over zero names")
    docs = []
    for name in kb_names:
        terms = ngrams(name, orders)
        if not terms:
            raise EmptyDocument(f"name {name!r} yields no terms for orders {orders}")
        docs.append(terms)

    vocabulary = {term: col for col, term in enumerate(sorted({t for d in docs for t in d}))}
    n_docs = len(docs)
    df = np.zeros(len(vocabulary))
    for doc in docs:
        for term in set(doc):
            df[vocabulary[term]] += 1
    idf = np.log(n_docs / df)

    uniform = bool(np.all(idf == 0.0))
    weights = np.ones_like(idf) if uniform else idf

    matrix = np.zeros((n_docs, len(vocabulary)))
    for row, doc in enumerate(docs):
        counts = Counter(doc)
        for term, count in counts.items():
            col = vocabulary[term]
            matrix[row, col] = (count / len(doc)) * weights[col]
    norms = np.linalg.norm(matrix, axis=1)
    zero_rows = tuple(int(i) for i in np.flatnonzero(norms == 0.0))
    nonzero = norms > 0.0
    matrix[nonzero] /= norms[nonzero, None]

    return TfIdfIndex(
        names=tuple(kb_names),
        vocabulary=vocabulary,
        idf=idf,
        doc_vectors=matrix,
        orders=tuple(orders),
        uniform=uniform,
        zero_rows=zero_rows,
    )


def _query_weights(index: TfIdfIndex, terms: list[str]) -> tuple[np.ndarray, float]:
    """Weighted query vector restricted to index columns, plus the squared
    norm mass of terms outside the vocabulary (they overlap nothing but
    still count toward the query norm)."""
    seen = np.zeros(len(index.vocabulary))
    unseen_sq = 0.0
    length = len(terms)
    n_docs = len(index.names)
    for term, count in Counter(terms).items():
        tf = count / length
        col = index.vocabulary.get(term)
        if col is not None:
            weight = 1.0 if index.uniform else index.idf[col]
            seen[col] = tf * weight
        else:
            weight = 1.0 if index.uniform else math.log(n_docs / 1) + 1.0
            unseen_sq += (tf * weight) ** 2
    return seen, unseen_sq


def align(query: str, index: TfIdfIndex, threshold: float = DEFAULT_THRESHOLD) -> Alignment:
    """Best cosine match over the index, accepted iff similarity >=
    threshold; exact ties resolve to the lexicographically smallest name."""
    terms = ngrams(query, index.orders)
    if not terms:
        return Alignment(query, None, 0.0, threshold)
    seen, unseen_sq = _query_weights(index, terms)
    norm = math.sqrt(float(seen @ seen) + unseen_sq)
    if norm == 0.0:
        return Alignment(query, None, 0.0, threshold)
    sims = index.doc_vectors @ (seen / norm)
    best = float(sims.max())
    best = min(1.0, max(0.0, best))
    name = min(index.names[i] for i in np.flatnonzero(sims == sims.max()))
    if best >= threshold:
        return Alignment(query, name, best, threshold)
    return Alignment(query, None, best, threshold)


@dataclass(frozen=True)
class FusionReport:
    merged: tuple[tuple[str, str, float], ...]  # (source, target, similarity)
    unmatched: tuple[str, ...]  # below-threshold sources, retained in graph
    skipped: tuple[str, ...]  # sources with no node (e.g. already fused)


def fuse(
    graph: KnowledgeGraph, alignments: list[Alignment], label: str = "Disease"
) -> FusionReport:
    """Merge each matched source node into its canonical KB node.

    Incident triples are re-pointed (duplicates collapse), the source node
    is removed, and the original surface is recorded in the canonical
    node's ``aliases`` attribute. Unmatched sources stay in the graph.
    Re-running with the same alignments is a no-op: merged sources no
    longer resolve and are reported as skipped.
    """
    merged: list[tuple[str, str, float]] = []
    unmatched: list[str] = []
    skipped: list[str] = []
    for alignment in alignments:
        if alignment.target is None:
            unmatched.append(alignment.source)
            continue
        canonical = graph.find_node(label, alignment.target)
        if canonical is None:
            raise DanglingAlignment(
                f"target {alignment.target!r} ({label}) not in graph"
            )
        source = graph.find_node(label, alignment.source)
        if source is None:
            skipped.append(alignment.source)
            continue
        if source.id != canonical.id:
            graph.merge_node_into(source.id, canonical.id)
            aliases = canonical.attributes.setdefault("aliases", [])
            if source.name not in aliases:
                aliases.append(source.name)
                aliases.sort()
        merged.append((alignment.source, alignment.target, alignment.similarity))
    return FusionReport(tuple(merged), tuple(unmatched), tuple(skipped))
