"""Linear-chain CRF: gold-path score, negative log-likelihood with its
gradients, and Viterbi over a right-padded batch of sentences.

Scores use a (K+2)x(K+2) transition matrix over K real tags plus two
virtual positions, START = K and STOP = K+1:

    score(y) = T[START, y_0] + sum_i E[i, y_i]
             + sum_{i>0} T[y_{i-1}, y_i] + T[y_{L-1}, STOP]

Entries may be -inf to forbid transitions outright; all log-sum-exp
reductions subtract the per-slice maximum so scores stay finite.
"""

from __future__ import annotations

from emrkg._np import np
from emrkg.errors import DataError


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted log-sum-exp; slices that are all -inf stay -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isneginf(m), 0.0, m)
    s = np.sum(np.exp(a - safe), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(s) + np.squeeze(safe, axis=axis)


def _check(emissions: np.ndarray, transitions: np.ndarray) -> tuple[int, int]:
    *_, length, num_tags = emissions.shape
    if length == 0:
        raise DataError("emission matrix has zero rows")
    if transitions.shape != (num_tags + 2, num_tags + 2):
        raise ValueError(
            f"transitions shape {transitions.shape} does not match {num_tags} tags (+2 virtual)"
        )
    return length, num_tags


def gold_score(emissions: np.ndarray, transitions: np.ndarray, tags: np.ndarray) -> float:
    length, num_tags = _check(emissions, transitions)
    tags = np.asarray(tags, dtype=np.intp)
    if tags.shape != (length,) or tags.min() < 0 or tags.max() >= num_tags:
        raise DataError(f"gold tags invalid for length {length}, {num_tags} tags")
    start, stop = num_tags, num_tags + 1
    score = transitions[start, tags[0]] + emissions[np.arange(length), tags].sum()
    score += transitions[tags[:-1], tags[1:]].sum()
    score += transitions[tags[-1], stop]
    return float(score)


def nll_with_grad(
    emissions: np.ndarray, transitions: np.ndarray, tags: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood of the gold path, log Z - gold_score, with
    log Z (the log-partition) from the forward algorithm; plus analytic
    gradients w.r.t. emissions and transitions.

    d nll / d E[i,k] = P(y_i = k) - 1{gold_i = k}
    d nll / d T[j,k] = expected transition count - gold transition count,
    including the virtual START row and STOP column. Forbidden (-inf)
    entries receive zero gradient.
    """
    gold = gold_score(emissions, transitions, tags)
    length, num_tags = emissions.shape
    tags = np.asarray(tags, dtype=np.intp)
    start, stop = num_tags, num_tags + 1
    inner = transitions[:num_tags, :num_tags]

    alpha = np.empty((length, num_tags))
    alpha[0] = transitions[start, :num_tags] + emissions[0]
    for i in range(1, length):
        alpha[i] = emissions[i] + logsumexp(alpha[i - 1][:, None] + inner, axis=0)
    log_z = float(logsumexp(alpha[-1] + transitions[:num_tags, stop], axis=0))

    beta = np.empty((length, num_tags))
    beta[-1] = transitions[:num_tags, stop]
    for i in range(length - 2, -1, -1):
        beta[i] = logsumexp(inner + (emissions[i + 1] + beta[i + 1])[None, :], axis=1)

    with np.errstate(invalid="ignore"):
        marginals = np.exp(alpha + beta - log_z)
    marginals[~np.isfinite(marginals)] = 0.0

    d_emissions = marginals.copy()
    d_emissions[np.arange(length), tags] -= 1.0

    d_transitions = np.zeros_like(transitions)
    for i in range(length - 1):
        pair = alpha[i][:, None] + inner + (emissions[i + 1] + beta[i + 1])[None, :] - log_z
        with np.errstate(invalid="ignore"):
            expected = np.exp(pair)
        expected[~np.isfinite(expected)] = 0.0
        d_transitions[:num_tags, :num_tags] += expected
    d_transitions[start, :num_tags] += marginals[0]
    d_transitions[:num_tags, stop] += marginals[-1]

    d_transitions[start, tags[0]] -= 1.0
    np.add.at(d_transitions, (tags[:-1], tags[1:]), -1.0)
    d_transitions[tags[-1], stop] -= 1.0

    return log_z - gold, d_emissions, d_transitions


def viterbi(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray
) -> list[list[int]]:
    """Highest-scoring tag path of each row of a (B, L, K) batch (argmax
    ties resolve to the lowest index), scoring only the row's first
    ``lengths[b]`` steps, so whatever follows them in the row is ignored.

    Scores and back-pointers are kept step-major, (L, B, K). Each step
    scores its candidates as [row, to, from] against the transposed inner
    transitions, takes each best ``from`` with one argmax over the last
    axis, and reads the maximum by a gather at that argmax.
    """
    length, num_tags = _check(emissions, transitions)
    batch = emissions.shape[0]
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or np.any(lengths > length):
        raise ValueError(f"lengths {lengths} do not fit emissions of shape {emissions.shape}")
    if np.any(lengths < 1):
        raise DataError("a row of the emission batch has zero length")
    start, stop = num_tags, num_tags + 1
    inner_t = np.ascontiguousarray(transitions[:num_tags, :num_tags].T)  # [to, from]

    scores = np.empty((length, batch, num_tags))
    backptr = np.empty((length, batch, num_tags), dtype=np.intp)
    scores[0] = transitions[start, :num_tags] + emissions[:, 0]
    # flat offset of each (row, to) slice of the candidates, so that one
    # gather at the argmax reads the maximum
    offsets = np.arange(0, batch * num_tags * num_tags, num_tags).reshape(batch, num_tags)
    for i in range(1, length):
        candidates = scores[i - 1, :, None, :] + inner_t  # [row, to, from]
        best = np.argmax(candidates, axis=2, out=backptr[i])
        np.add(emissions[:, i], candidates.reshape(-1)[offsets + best], out=scores[i])
    rows = np.arange(batch)
    last = np.argmax(scores[lengths - 1, rows] + transitions[:num_tags, stop], axis=1)

    # Past a row's last step its pointers keep the tag, so that walking
    # back from the batch's end reaches that step at the row's best last tag.
    backptr[np.arange(length)[:, None] >= lengths] = np.arange(num_tags)
    row_offsets = rows * num_tags
    paths = np.empty((length, batch), dtype=np.intp)
    paths[-1] = tag = last
    for i in range(length - 1, 0, -1):
        paths[i - 1] = tag = backptr[i].reshape(-1)[row_offsets + tag]
    return [path[:n] for path, n in zip(paths.T.tolist(), lengths.tolist())]
