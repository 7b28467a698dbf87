"""TF-IDF entity normalization and graph fusion.

Entity names are vectorized over character n-grams (orders 1 and 2 by
default): clinical Chinese names are short and unsegmented, so word-level
terms would mostly be singletons. Term weight is raw frequency times
log(|D|/df); a term found in every document therefore weighs zero. Only
terms absent from the whole corpus get the smoothed weight
log(|D|/(1+df)) + 1, which keeps query vectors finite without disturbing
corpus-term weights.

The index is term-major, an inverted index in the manner of Manning et
al., *Introduction to Information Retrieval*, ch. 6-7. For every vocabulary
term it keeps the KB rows that contain the term and their L2-normalized
weights, in flat (nnz,) arrays grouped by term; each term also has
precomputed views of its rows and of its weights times its term weight.
``align`` gathers the postings of the query terms found in the vocabulary
and sums them into the full similarity vector with one ``np.bincount``: its
cost follows the postings the query touches, not the N x V size of a dense
matrix.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from emrkg.errors import ConfigError, DataError, is_real
from emrkg.graph import KnowledgeGraph, normalize_name

log = logging.getLogger(__name__)

DEFAULT_NGRAM_ORDERS: tuple[int, ...] = (1, 2)
DEFAULT_THRESHOLD = 0.8


@dataclass(frozen=True)
class FusionConfig:
    threshold: float = DEFAULT_THRESHOLD
    ngram_orders: tuple[int, ...] = DEFAULT_NGRAM_ORDERS

    def __post_init__(self) -> None:
        if not (is_real(self.threshold) and 0 < self.threshold <= 1):
            raise ConfigError(f"fusion.threshold must be in (0, 1], got {self.threshold!r}")
        orders = self.ngram_orders
        if not (isinstance(orders, (list, tuple)) and orders
                and all(type(n) is int and n >= 1 for n in orders)):
            raise ConfigError(f"fusion.ngram_orders must be a non-empty list of ints >= 1: {orders!r}")
        object.__setattr__(self, "ngram_orders", tuple(orders))


class EmptyDocument(DataError):
    """A document (entity name) produced no terms."""


class EmptyCatalog(DataError):
    """Cannot build an index over zero names."""


class DanglingAlignment(DataError):
    """Alignment target has no node in the graph."""


def ngrams(name: str, orders: tuple[int, ...] = DEFAULT_NGRAM_ORDERS) -> list[str]:
    """Character n-grams of every requested order, with multiplicity."""
    return [name[i : i + n] for n in orders for i in range(len(name) - n + 1)]


@dataclass(frozen=True)
class TfIdfIndex:
    names: tuple[str, ...]
    vocabulary: dict[str, int]  # term -> column
    idf: np.ndarray  # (V,)
    doc_ids: np.ndarray  # (nnz,) row of each posting, grouped by column
    doc_vectors: np.ndarray  # (nnz,) posting weights; rows L2-normalized unless zero
    # term -> (term weight, rows, row weights times term weight), the last
    # two as views of flat (nnz,) arrays in column order
    postings: dict[str, tuple[float, np.ndarray, np.ndarray]]
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
    """Inverted TF-IDF index over the KB names, rows L2-normalized, with a
    sorted (hence deterministic) n-gram vocabulary. A corpus whose every
    IDF is zero (e.g. a single name) falls back to uniform weights so
    cosine similarity stays defined."""
    if not kb_names:
        raise EmptyCatalog("cannot build an index over zero names")
    counts = []
    for name in kb_names:
        terms = ngrams(name, orders)
        if not terms:
            raise EmptyDocument(f"name {name!r} yields no terms for orders {orders}")
        counts.append((len(terms), Counter(terms)))

    vocabulary = {term: col for col, term in enumerate(sorted({t for _, c in counts for t in c}))}
    n_docs = len(counts)
    rows = np.repeat(np.arange(n_docs), [len(c) for _, c in counts])
    cols = np.array([vocabulary[t] for _, c in counts for t in c], dtype=np.intp)
    tf = np.array([n / length for length, c in counts for n in c.values()])
    df = np.bincount(cols, minlength=len(vocabulary))
    idf = np.log(n_docs / df)

    uniform = bool(np.all(idf == 0.0))
    weights = np.ones_like(idf) if uniform else idf
    values = tf * weights[cols]
    norms = np.sqrt(np.bincount(rows, values * values, minlength=n_docs))
    zero_rows = tuple(np.flatnonzero(norms == 0.0).tolist())
    values /= np.where(norms > 0.0, norms, 1.0)[rows]  # a zero row stays zero

    order = np.argsort(cols, kind="stable")  # rows stay ascending within a term
    doc_ids, doc_vectors = rows[order], values[order]
    # the postings carry row weight times term weight, so that a query only
    # has to count its terms (see align)
    scaled = doc_vectors * weights[cols[order]]
    bounds = np.concatenate(([0], np.cumsum(df))).tolist()
    term_weights = weights.tolist()
    postings = {
        term: (term_weights[col], doc_ids[bounds[col] : bounds[col + 1]],
               scaled[bounds[col] : bounds[col + 1]])
        for term, col in vocabulary.items()
    }
    return TfIdfIndex(
        names=tuple(kb_names),
        vocabulary=vocabulary,
        idf=idf,
        doc_ids=doc_ids,
        doc_vectors=doc_vectors,
        postings=postings,
        orders=tuple(orders),
        uniform=uniform,
        zero_rows=zero_rows,
    )


def align(query: str, index: TfIdfIndex, threshold: float = DEFAULT_THRESHOLD) -> Alignment:
    """Best cosine match over the index, accepted iff similarity >=
    threshold; exact ties resolve to the lexicographically smallest name.
    Query terms outside the vocabulary overlap no name but still count
    toward the query norm. A query with no weight (no terms, or only terms
    found in every name) scores 0 against every name."""
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"alignment threshold must be in [0, 1], got {threshold}")
    # raw counts stand in for the query's tf: its 1/len(terms) cancels in
    # the cosine, and a term's weight is already in its scaled postings
    unseen = 1.0 if index.uniform else math.log(len(index.names)) + 1.0
    rows, scaled = [], []
    norm_sq = 0.0
    for term, count in Counter(ngrams(query, index.orders)).items():
        posting = index.postings.get(term)
        weight = count * (unseen if posting is None else posting[0])
        norm_sq += weight * weight
        if posting is not None:
            rows += [posting[1]] * count
            scaled += [posting[2]] * count
    norm = math.sqrt(norm_sq)
    if rows and norm > 0.0:
        sims = np.bincount(
            np.concatenate(rows), np.concatenate(scaled), minlength=len(index.names)
        ) / norm
    else:  # no weight, or no n-gram in common with any name: every name ties at 0
        sims = np.zeros(len(index.names))
    best = min(1.0, max(0.0, float(sims.max())))
    if best < threshold:
        return Alignment(query, None, best, threshold)
    name = min(index.names[i] for i in np.flatnonzero(sims == sims.max()))
    return Alignment(query, name, best, threshold)


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
            aliases = canonical.attributes.get("aliases", [])
            if type(aliases) is not list or not all(type(a) is str for a in aliases):
                raise DataError(
                    f"{label} node {canonical.name!r}: aliases must be a list of strings"
                )
            graph.merge_node_into(source.id, canonical.id)
            if source.name not in aliases:
                aliases.append(source.name)
                aliases.sort()
            canonical.attributes["aliases"] = aliases
        merged.append((alignment.source, alignment.target, alignment.similarity))
    return FusionReport(tuple(merged), tuple(unmatched), tuple(skipped))
