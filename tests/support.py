"""Helpers that only the tests use.

Unlike :mod:`tests.oracles`, these may import from the modules they help
check: ``encode`` runs the package's batched inference on one sentence,
the gradient check differentiates the package's own CRF loss, and the
graph helpers add edges through the graph's own check and insert and read
its endpoint indexes.
"""

from __future__ import annotations

import math

import numpy as np

from emrkg.errors import DataError
from emrkg.fusion import TfIdfIndex
from emrkg.graph import KnowledgeGraph, Triple, _check_endpoints
from emrkg.kb import DiseaseEntry
from emrkg.tagger.crf import nll_with_grad
from emrkg.tagger.model import TaggerModel, _batch_emissions, _input_tables, sentence_loss_and_grads
from tests.oracles import emissions_by_indices


# One name per character that ``str.splitlines`` breaks a line at and a
# "\n"-only reader does not.
SEPARATOR_NAMES = tuple(f"肝{ch}癌" for ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")


# -- TF-IDF --------------------------------------------------------------


def term_frequency(term: str, doc_terms: list[str]) -> float:
    """Occurrences of ``term`` divided by document length."""
    if not doc_terms:
        raise DataError("term frequency over an empty document")
    return doc_terms.count(term) / len(doc_terms)


def inverse_document_frequency(term: str, corpus: list[list[str]]) -> float:
    """log(|D| / df) for corpus terms; log(|D| / (1 + df)) + 1 when the
    term appears nowhere (df = 0), so unseen terms stay finite."""
    if not corpus:
        raise DataError("IDF over an empty corpus")
    df = sum(1 for doc in corpus if term in doc)
    if df == 0:
        return math.log(len(corpus) / (1 + df)) + 1.0
    return math.log(len(corpus) / df)


def dense_doc_vectors(index: TfIdfIndex) -> np.ndarray:
    """The (N, V) document matrix that the index's flat postings encode:
    they are grouped by column, one run of ``len(rows)`` per term."""
    by_column = sorted(index.vocabulary, key=index.vocabulary.get)
    rows = [index.postings[t][1] for t in by_column]
    cols = np.repeat(np.arange(len(by_column)), [len(r) for r in rows])
    dense = np.zeros((len(index.names), len(index.vocabulary)))
    dense[np.concatenate(rows), cols] = index.doc_vectors
    return dense


def zero_rows(index: TfIdfIndex) -> list[str]:
    """The names whose index row is zero: every term of theirs is in every
    name, so has IDF 0."""
    norms = np.linalg.norm(dense_doc_vectors(index), axis=1)
    return [index.names[row] for row in np.flatnonzero(norms == 0.0)]


# -- knowledge base ------------------------------------------------------


def kb_to_triples(entries: list[DiseaseEntry]) -> list[tuple[str, str, str]]:
    """One (head name, relation, tail name) per relation instance,
    in entry order. Attribute fields stay on the disease node."""
    return [
        (entry.name, rel, target)
        for entry in entries
        for rel, target in entry.relations
    ]


# -- tagger --------------------------------------------------------------


def encode(model: TaggerModel, chars: str) -> np.ndarray:
    """Per-character emission scores, shape (len(chars), |tags|), through
    the batched inference path."""
    if len(chars) == 0:
        raise DataError("cannot encode an empty sentence")
    emissions, _ = _batch_emissions(model, _input_tables(model), [chars])
    return emissions[0]


def sentence_loss(model: TaggerModel, indices: np.ndarray, tag_indices: np.ndarray) -> float:
    """NLL only, over the reference LSTM's emissions; used by
    finite-difference checks."""
    if len(indices) == 0:
        raise DataError("cannot score an empty sentence")
    emissions = emissions_by_indices(model, indices)
    return nll_with_grad(emissions, model.params["transitions"], tag_indices)[0]


def gradient_check(
    model: TaggerModel,
    encoded: list[tuple[np.ndarray, np.ndarray]],
    epsilon: float = 1e-4,
) -> float:
    """Max deviation between analytic and central finite-difference
    gradients of the summed loss over ``encoded`` (index, tag-index) pairs.

    Deviation is |analytic - numeric| / max(1, |analytic|, |numeric|), so
    large gradients are compared relatively and near-zero ones absolutely
    (a pure ratio would amplify finite-difference roundoff). Entries fixed
    at -inf (forbidden transitions) are skipped.
    """
    analytic = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    for indices, tag_indices in encoded:
        _, grads = sentence_loss_and_grads(model, indices, tag_indices)
        for name in analytic:
            analytic[name] += grads[name]

    def total_loss() -> float:
        return sum(sentence_loss(model, i, t) for i, t in encoded)

    worst = 0.0
    for name, arr in model.params.items():
        grad = analytic[name]
        iterator = np.nditer(arr, flags=["multi_index"])
        while not iterator.finished:
            index = iterator.multi_index
            if name == "transitions" and not model.allowed[index]:
                iterator.iternext()
                continue
            original = arr[index]
            arr[index] = original + epsilon
            plus = total_loss()
            arr[index] = original - epsilon
            minus = total_loss()
            arr[index] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            deviation = abs(numeric - grad[index]) / max(1.0, abs(numeric), abs(grad[index]))
            worst = max(worst, deviation)
            iterator.iternext()
    return worst


# -- graph ---------------------------------------------------------------


def add_triple(graph: KnowledgeGraph, head: int, relation: str, tail: int) -> bool:
    """Add one edge after the endpoint check a graph-file triple gets; an
    edge the schema does not admit, or whose endpoint is not in the graph,
    raises that check's message. Re-adding an existing triple is a no-op.
    Returns True if the triple was new."""
    _check_endpoints(graph.nodes, head, relation, tail)
    return graph._insert_triple(head, relation, tail)


def triples_from(graph: KnowledgeGraph, node_id: int) -> list[Triple]:
    """The head index's triples for ``node_id``."""
    return list(graph._by_head.get(node_id, {}))


def triples_to(graph: KnowledgeGraph, node_id: int) -> list[Triple]:
    """The tail index's triples for ``node_id``."""
    return list(graph._by_tail.get(node_id, {}))


def graph_state(graph: KnowledgeGraph):
    """Everything a graph holds, in its insertion orders; an endpoint index
    entry with no triples counts as no entry."""
    return (list(graph.nodes.items()), list(graph._by_key.items()), graph.triples,
            [(k, list(v)) for k, v in graph._by_head.items() if v],
            [(k, list(v)) for k, v in graph._by_tail.items() if v], graph._next_id)
