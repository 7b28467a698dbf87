"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: explicit path
enumeration, dictionary-backed vectors, linear scans. The optimized code
under test must agree with these, not the other way round, so nothing in
this module may import from the modules it checks (except plain data
types, exception types and the name normalizer, which is checked against
``normalize_name_by_loop`` here).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
from collections import Counter

import numpy as np

from emrkg.corpus import EntitySpan
from emrkg.errors import DataError
from emrkg.graph import KnowledgeGraph, Node, Triple, normalize_name
from emrkg.schema import GRAPH_LABELS, RELATION_ENDPOINTS, SPAN_TYPE_TO_RELATION


# -- standoff spans and segmentation ----------------------------------------


def first_fit_spans(
    spans: list[EntitySpan],
) -> tuple[list[EntitySpan], list[tuple[EntitySpan, EntitySpan]]]:
    """Keep each span unless it overlaps an earlier kept one, scanning every
    kept span; returns the kept spans and (dropped, first clash) pairs."""
    accepted: list[EntitySpan] = []
    dropped: list[tuple[EntitySpan, EntitySpan]] = []
    for span in spans:
        clash = next((a for a in accepted if span.start < a.end and a.start < span.end), None)
        if clash is None:
            accepted.append(span)
        else:
            dropped.append((span, clash))
    return accepted, dropped


def segment_by_scan(
    doc_id: str, text: str, spans: list[EntitySpan], max_len: int
) -> list[tuple[str, tuple[str, ...]]]:
    """Sentence split and hard wrap that asks every span, at every position,
    whether the position lies strictly inside it; returns each sentence's
    ``(chars, tags)``, every tag found by a scan of the spans."""
    for later, span in enumerate(spans):
        for earlier in spans[:later]:
            if span.start < earlier.end and earlier.start < span.end:
                raise DataError(f"{doc_id}: spans {earlier.id} and {span.id} overlap")

    def inside_span(pos: int) -> EntitySpan | None:
        for s in spans:
            if s.start < pos < s.end:
                return s
        return None

    def tag(pos: int) -> str:
        for s in spans:
            if s.start == pos:
                return "B-" + s.label
            if s.start < pos < s.end:
                return "I-" + s.label
        return "O"

    sentences: list[tuple[int, int]] = []
    start = 0
    for i, ch in enumerate(text):
        if ch == "\n" and inside_span(i) is None and inside_span(i + 1) is None:
            sentences.append((start, i))
            start = i + 1
        elif ch in "。！？；" and inside_span(i + 1) is None:
            sentences.append((start, i + 1))
            start = i + 1
    sentences.append((start, len(text)))

    segments: list[tuple[str, tuple[str, ...]]] = []
    mapped = 0
    for sent_start, sent_end in sentences:
        pos = sent_start
        while pos < sent_end:
            cut = min(pos + max_len, sent_end)
            blocker = inside_span(cut)
            if blocker is not None:
                if blocker.start <= pos:
                    raise DataError(
                        f"{doc_id}: entity {blocker.id} ({blocker.end - blocker.start} chars) "
                        f"exceeds max_len {max_len}"
                    )
                cut = blocker.start
            if text[pos:cut]:
                segments.append((text[pos:cut], tuple(tag(p) for p in range(pos, cut))))
                mapped += sum(1 for s in spans if s.start >= pos and s.end <= cut)
            pos = cut

    if mapped != len(spans):
        raise DataError(f"{doc_id}: {len(spans) - mapped} span(s) lost during segmentation")
    return segments


# -- CRF ---------------------------------------------------------------


def enumerate_paths(
    emissions: np.ndarray, transitions: np.ndarray
) -> tuple[float, float, tuple[int, ...]]:
    """Score every tag path explicitly.

    ``transitions`` is (K+2, K+2) with the virtual start row at index K and
    stop column at K+1. Returns (log-partition, best score, best path);
    ties on the best score keep the first path in lexicographic order.
    """
    length, k = emissions.shape
    start, stop = k, k + 1
    scores = []
    paths = []
    for path in itertools.product(range(k), repeat=length):
        score = transitions[start, path[0]] + emissions[0, path[0]]
        for t in range(1, length):
            score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
        score += transitions[path[-1], stop]
        scores.append(score)
        paths.append(path)
    arr = np.asarray(scores)
    log_z = float(np.logaddexp.reduce(arr))
    best = int(np.argmax(arr))
    return log_z, float(arr[best]), paths[best]


def path_score(emissions: np.ndarray, transitions: np.ndarray, path) -> float:
    """Score of one explicit tag path, start and stop transitions included."""
    k = emissions.shape[1]
    score = transitions[k, path[0]] + emissions[0, path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1], path[t]] + emissions[t, path[t]]
    return float(score + transitions[path[-1], k + 1])


def viterbi_by_sentence(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """One sentence's best path by the step-at-a-time Viterbi recursion;
    ties keep the lowest tag index."""
    length, k = emissions.shape
    start, stop = k, k + 1
    inner = transitions[:k, :k]
    score = transitions[start, :k] + emissions[0]
    backptr = np.empty((length, k), dtype=np.intp)
    for i in range(1, length):
        candidates = score[:, None] + inner
        backptr[i] = np.argmax(candidates, axis=0)
        score = emissions[i] + np.max(candidates, axis=0)
    score = score + transitions[:k, stop]
    path = np.empty(length, dtype=np.intp)
    path[-1] = int(np.argmax(score))
    for i in range(length - 1, 0, -1):
        path[i - 1] = backptr[i, path[i]]
    return path


# -- tagger inference --------------------------------------------------------


def _lstm_by_step(w: np.ndarray, u: np.ndarray, b: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Hidden states of one direction, one character at a time."""
    h = u.shape[1]

    def sigmoid(x: np.ndarray) -> np.ndarray:
        return np.exp(-np.logaddexp(0.0, -x))

    h_t, c_t = np.zeros(h), np.zeros(h)
    states = np.zeros((len(inputs), h))
    for t, x in enumerate(inputs):
        a = w @ x + u @ h_t + b
        c_t = sigmoid(a[h : 2 * h]) * c_t + sigmoid(a[:h]) * np.tanh(a[2 * h : 3 * h])
        h_t = sigmoid(a[3 * h :]) * np.tanh(c_t)
        states[t] = h_t
    return states


def emissions_by_indices(model, indices) -> np.ndarray:
    """Emission scores (len(indices), K) of one sentence of vocabulary
    indices, from the model's arrays."""
    p = model.params
    inputs = p["embedding"][indices]
    forward = _lstm_by_step(p["fw.w"], p["fw.u"], p["fw.b"], inputs)
    backward = _lstm_by_step(p["bw.w"], p["bw.u"], p["bw.b"], inputs[::-1])[::-1]
    return np.concatenate([forward, backward], axis=1) @ p["proj_w"] + p["proj_b"]


def emissions_by_sentence(model, chars: str) -> np.ndarray:
    """Emission scores (len(chars), K) of one sentence: unknown characters
    read the ``<unk>`` row."""
    unk = model.vocab.index["<unk>"]
    return emissions_by_indices(model, [model.vocab.index.get(ch, unk) for ch in chars])


def predict_by_sentence(model, texts: list[str]) -> list[tuple[str, ...]]:
    """Tags of each text, one sentence and one Viterbi at a time."""
    return [
        tuple(model.tagset.tags[k] for k in viterbi_by_sentence(
            emissions_by_sentence(model, text), model.params["transitions"]
        ))
        for text in texts
    ]


# -- TF-IDF --------------------------------------------------------------


def char_ngrams(name: str, orders: tuple[int, ...] = (1, 2)) -> list[str]:
    terms = []
    for n in orders:
        for i in range(len(name) - n + 1):
            terms.append(name[i : i + n])
    return terms


def _weight_fn(docs: list[list[str]]):
    """IDF weighting over a document list: log(N/df) when the term occurs,
    the smoothed log(N/1)+1 when it does not, all-ones when every defined
    IDF is zero (degenerate corpus)."""
    n_docs = len(docs)
    df = Counter()
    for doc in docs:
        df.update(set(doc))
    uniform = all(math.log(n_docs / count) == 0.0 for count in df.values())

    def weight(term: str) -> float:
        if uniform:
            return 1.0
        count = df.get(term, 0)
        if count == 0:
            return math.log(n_docs / 1) + 1.0
        return math.log(n_docs / count)

    return weight


def _vector(terms: list[str], weight) -> dict[str, float]:
    counts = Counter(terms)
    vec = {t: (c / len(terms)) * weight(t) for t, c in counts.items()}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    if norm > 0.0:
        vec = {t: v / norm for t, v in vec.items()}
    return vec


def tfidf_vectors(
    names: list[str], orders: tuple[int, ...] = (1, 2)
) -> list[dict[str, float]]:
    """L2-normalized TF-IDF vector per name, as plain term->weight dicts."""
    docs = [char_ngrams(name, orders) for name in names]
    weight = _weight_fn(docs)
    return [_vector(doc, weight) for doc in docs]


def cosine_align(
    query: str,
    names: list[str],
    orders: tuple[int, ...] = (1, 2),
    threshold: float = 0.8,
) -> tuple[str | None, float]:
    """Exhaustive cosine argmax with a lexicographic tie-break; the match is
    kept only when similarity >= threshold."""
    docs = [char_ngrams(name, orders) for name in names]
    weight = _weight_fn(docs)
    doc_vectors = [_vector(doc, weight) for doc in docs]
    q_terms = char_ngrams(query, orders)
    if not q_terms:
        return None, 0.0
    q_vec = _vector(q_terms, weight)
    if not any(q_vec.values()):
        return None, 0.0
    best_sim = -math.inf
    best_names: list[str] = []
    for name, vec in zip(names, doc_vectors):
        sim = sum(q_vec.get(term, 0.0) * value for term, value in vec.items())
        if sim > best_sim:
            best_sim, best_names = sim, [name]
        elif sim == best_sim:
            best_names.append(name)
    best_sim = min(1.0, max(0.0, best_sim))
    name = min(best_names)
    return (name if best_sim >= threshold else None), best_sim


# -- graph ---------------------------------------------------------------


def pattern_scan(
    graph: KnowledgeGraph, head_label: str, head_name: str, relation: str
) -> list[Node]:
    """Brute-force pattern query: linear scan over nodes and triples."""
    wanted = normalize_name(head_name)
    heads = {
        node.id
        for node in graph.nodes.values()
        if node.label == head_label and normalize_name(node.name) == wanted
    }
    tails = {t.tail for t in graph.triples if t.relation == relation and t.head in heads}
    return sorted((graph.nodes[i] for i in tails), key=lambda n: (n.name, n.id))


def _strings(value):
    """Every string and key in a decoded JSON value, in document order."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


def _triple_problem(nodes: dict[int, Node], triple: Triple) -> str | None:
    """What is wrong with the triple's endpoints, or None."""
    for end in (triple.head, triple.tail):
        if end not in nodes:
            return f"triple endpoint id {end} not in graph"
    head, tail = nodes[triple.head].label, nodes[triple.tail].label
    if triple.relation not in RELATION_ENDPOINTS:
        return f"unknown relation type {triple.relation!r}"
    if (head, tail) not in RELATION_ENDPOINTS[triple.relation]:
        return f"{triple.relation} does not admit {head} -> {tail}"
    return None


def graph_records_by_line(path) -> list[Node | Triple]:
    """The records of a ``graph/1`` file as a load keeps them (its nodes in
    file order, then its triples in file order), each line read on its own
    and decoded with ``json.loads``, and each triple checked against the
    nodes of the lines before it. Every fault raises the package's
    DataError for it, with its message."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line[:-1] if line.endswith("\n") else line for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        header = json.loads(lines[0]) if lines else None
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict) or header.get("schema") != "graph/1":
        found = repr(lines[0][:80]) if lines else "an empty file"
        raise DataError(
            f'{path}: line 1: expected the header {{"schema": "graph/1"}}, got {found}')
    nodes: dict[int, Node] = {}
    keys: set[tuple[str, str]] = set()
    triples: list[Triple] = []
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"{path}: line {lineno}"
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: truncated or invalid record: {exc.msg}") from exc
        except RecursionError as exc:
            raise DataError(f"{where}: truncated or invalid record: nested too deeply") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{where}: record is not a JSON object")
        for text in _strings(obj):
            if any(0xD800 <= ord(ch) <= 0xDFFF for ch in text):
                raise DataError(f"{where}: lone surrogate in the string {text[:40]!r}")
        kind = obj.get("kind")
        if kind == "triple":
            head, relation, tail = obj.get("head"), obj.get("relation"), obj.get("tail")
            if type(head) is not int or type(tail) is not int or type(relation) is not str:
                raise DataError(f"{where}: malformed triple record")
            triple = Triple(head, relation, tail)
            problem = _triple_problem(nodes, triple)
            if problem is not None:
                raise DataError(f"{where}: {problem}")
            triples.append(triple)
        elif kind == "node":
            node_id, label, name = obj.get("id"), obj.get("label"), obj.get("name")
            attributes = obj.get("attributes", {})
            if (type(node_id) is not int or type(name) is not str or not name.strip()
                    or type(attributes) is not dict):
                raise DataError(f"{where}: malformed node record")
            if label not in GRAPH_LABELS:
                raise DataError(f"{where}: unknown label {label!r}")
            key = (label, normalize_name_by_loop(name))
            if key in keys or node_id in nodes:
                raise DataError(f"{where}: duplicate node {key!r}")
            keys.add(key)
            nodes[node_id] = Node(node_id, label, name, attributes)
        else:
            raise DataError(f"{where}: unknown record kind {kind!r}")
    return list(nodes.values()) + triples


def normalize_name_by_loop(name: str) -> str:
    """Trim, then fold each full-width ASCII form (U+FF01..U+FF5E) and the
    ideographic space (U+3000) to half width, one character at a time."""
    out = []
    for ch in name.strip():
        code = ord(ch)
        if 0xFF01 <= code <= 0xFF5E:
            out.append(chr(code - 0xFEE0))
        elif code == 0x3000:
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def _node_key(graph: KnowledgeGraph, node_id: int) -> tuple[str, str]:
    node = graph.nodes[node_id]
    return (node.label, normalize_name_by_loop(node.name))


def canonical_nodes(graph: KnowledgeGraph) -> list[Node]:
    """Nodes by (label, normalized name)."""
    return sorted(graph.nodes.values(), key=lambda n: _node_key(graph, n.id))


def canonical_triples(graph: KnowledgeGraph) -> list[Triple]:
    """Triples by (head key, relation, tail key), each node key recomputed
    for every triple that names it."""
    return sorted(
        graph.triples,
        key=lambda t: (_node_key(graph, t.head), t.relation, _node_key(graph, t.tail)),
    )


def _cypher_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_cypher_literal(v) for v in value) + "]"
    raise DataError(f"unsupported attribute value type {type(value).__name__}")


def _relation_identifier(relation: str) -> str:
    return re.sub(r"(?<=.)([A-Z])", r"_\1", relation).upper()


def cypher_by_sort(graph: KnowledgeGraph) -> str:
    """The Cypher export text, nodes and triples in the sorted orders above."""
    lines = []
    for node in canonical_nodes(graph):
        props = [("name", node.name)] + sorted(node.attributes.items())
        rendered = ", ".join(f"{k}: {_cypher_literal(v)}" for k, v in props)
        lines.append(f"MERGE (n:{node.label} {{{rendered}}});")
    for triple in canonical_triples(graph):
        head, tail = graph.nodes[triple.head], graph.nodes[triple.tail]
        lines.append(
            f"MATCH (a:{head.label} {{name: {_cypher_literal(head.name)}}}), "
            f"(b:{tail.label} {{name: {_cypher_literal(tail.name)}}}) "
            f"MERGE (a)-[:{_relation_identifier(triple.relation)}]->(b);"
        )
    return "".join(line + "\n" for line in lines)


def csv_by_sort(graph: KnowledgeGraph) -> tuple[str, str]:
    """The nodes.csv and rels.csv texts, ids renumbered in node order."""
    nodes = canonical_nodes(graph)
    export_id = {node.id: i for i, node in enumerate(nodes, start=1)}
    node_rows = [["id", "label", "name", "attributes"]] + [
        [export_id[n.id], n.label, n.name,
         json.dumps(dict(sorted(n.attributes.items())), ensure_ascii=False)]
        for n in nodes
    ]
    rel_rows = [["head", "relation", "tail"]] + [
        [export_id[t.head], t.relation, export_id[t.tail]] for t in canonical_triples(graph)
    ]
    return _csv_text(node_rows), _csv_text(rel_rows)


def _csv_text(rows) -> str:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


# -- graph writers, one record at a time -----------------------------------
#
# The package inserts nodes and triples, writes node lines, ranks the
# export order and renders both exports in tuned loops. These are the
# versions they replaced, each record going through the general path.


def add_patient_record_by_upserts(
    graph: KnowledgeGraph, patient_name: str, entities: list[tuple[str, str]],
    attributes: dict | None = None,
) -> int:
    """One node upsert and one triple insert per mention, as
    ``upsert_node`` and ``add_triple`` did them before they were tuned."""
    patient_id = _upsert_node(graph, "Patient", patient_name, attributes)
    for label, surface in entities:
        relation = SPAN_TYPE_TO_RELATION.get(label)
        if relation is None:
            raise DataError(f"no patient relation for entity type {label!r}")
        _add_triple(graph, patient_id, relation, _upsert_node(graph, label, surface))
    return patient_id


def _upsert_node(
    graph: KnowledgeGraph, label: str, name: str, attributes: dict | None = None,
) -> int:
    if label not in GRAPH_LABELS:
        raise DataError(f"unknown node label {label!r}")
    if not name.strip():
        raise DataError("node name must be non-empty")
    key = (label, normalize_name(name))
    node_id = graph._by_key.get(key)
    if node_id is None:
        node_id = graph._next_id
        graph._next_id += 1
        graph.nodes[node_id] = Node(node_id, label, name, dict(attributes or {}))
        graph._by_key[key] = node_id
    elif attributes:
        graph.nodes[node_id].attributes.update(attributes)
    return node_id


def kb_into_graph_by_upserts(graph: KnowledgeGraph, entries) -> int:
    """One node upsert and one checked triple insert per relation target of
    each KB entry, as ``kb_into_graph`` made them before it took its edge
    types from the schema. Returns the number of triples added."""
    added = 0
    for entry in entries:
        attributes = {key: getattr(entry, key) for key in
                      ("description", "prevention", "cure_time", "cause") if getattr(entry, key)}
        if entry.treatments:
            attributes["treatments"] = list(entry.treatments)
        head = _upsert_node(graph, "Disease", entry.name, attributes)
        for relation, target in entry.relations:
            tail_label = RELATION_ENDPOINTS[relation][0][1]
            added += _add_triple(graph, head, relation, _upsert_node(graph, tail_label, target))
    return added


def _add_triple(graph: KnowledgeGraph, head: int, relation: str, tail: int) -> bool:
    nodes = graph.nodes
    if head not in nodes or tail not in nodes:
        raise DataError(f"triple endpoint id {head if head not in nodes else tail} not in graph")
    head_label, tail_label = nodes[head].label, nodes[tail].label
    if relation not in RELATION_ENDPOINTS:
        raise DataError(f"unknown relation type {relation!r}")
    if (head_label, tail_label) not in RELATION_ENDPOINTS[relation]:
        raise DataError(f"{relation} does not admit {head_label} -> {tail_label}")
    triple = Triple(head, relation, tail)
    if triple in graph._triples:
        return False
    graph._triples[triple] = None
    graph._by_head.setdefault(head, {})[triple] = None
    graph._by_tail.setdefault(tail, {})[triple] = None
    return True


def _record_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def graph_file_by_records(graph: KnowledgeGraph) -> str:
    """The text ``save_graph`` writes for ``graph``: the header, its nodes
    by id, then its triples in insertion order, each record a dict encoded
    whole."""
    nodes = [_record_line({"kind": "node", "id": n.id, "label": n.label, "name": n.name,
                           "attributes": n.attributes})
             for _, n in sorted(graph.nodes.items())]
    triples = [_record_line({"kind": "triple", "head": t.head, "relation": t.relation,
                             "tail": t.tail}) for t in graph.triples]
    return _record_line({"schema": "graph/1"}) + "".join(nodes + triples)


def canonical_order_by_key(nodes, triples) -> tuple[list[Node], dict[int, int], list[Triple]]:
    """The export order as nodes sorted by key, each id's 1-based rank among
    them, and the triples sorted by (rank of head, relation, rank of tail)."""
    nodes = sorted(nodes, key=lambda n: (n.label, normalize_name_by_loop(n.name)))
    rank = {node.id: i for i, node in enumerate(nodes, start=1)}
    return nodes, rank, sorted(triples, key=lambda t: (rank[t.head], t.relation, rank[t.tail]))


def cypher_by_rank(nodes: list[Node], triples: list[Triple]) -> str:
    """The Cypher export of an order from ``canonical_order_by_key``: each
    node's properties its name, then its sorted attributes, and each
    triple's patterns looked up by node id. A node with an attribute called
    name, or with an unsupported value, raises the package's message, which
    names the node's label and name."""
    statements, match = [], {}
    for node in nodes:
        where = f"node {node.label} {node.name!r}"
        if "name" in node.attributes:
            raise DataError(f"{where}: attribute 'name' clashes with the node's name")
        props = [("name", node.name)] + sorted(node.attributes.items())
        try:
            rendered = ", ".join(f"{k}: {_cypher_literal(v)}" for k, v in props)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        statements.append(f"MERGE (n:{node.label} {{{rendered}}});\n")
        match[node.id] = f"{node.label} {{name: {_cypher_literal(node.name)}}}"
    for head, relation, tail in triples:
        statements.append(f"MATCH (a:{match[head]}), (b:{match[tail]}) "
                          f"MERGE (a)-[:{_relation_identifier(relation)}]->(b);\n")
    return "".join(statements)


def csv_by_rank(nodes: list[Node], rank: dict[int, int], triples: list[Triple]) -> tuple[str, str]:
    """The nodes.csv and rels.csv texts of an order from
    ``canonical_order_by_key``, written row by row with ``csv.writer``."""
    node_rows = [["id", "label", "name", "attributes"]] + [
        [rank[n.id], n.label, n.name,
         json.dumps(dict(sorted(n.attributes.items())), ensure_ascii=False)]
        for n in nodes
    ]
    rel_rows = [["head", "relation", "tail"]] + [
        [rank[head], relation, rank[tail]] for head, relation, tail in triples
    ]
    return _csv_text(node_rows), _csv_text(rel_rows)
