"""Single-direction LSTM forward pass and backpropagation through time.

Gate pre-activations are stacked as a = W x_t + U h_{t-1} + b with row
blocks [input, forget, cell, output], each of size ``hidden``:

    i = sigmoid(a_i)  f = sigmoid(a_f)  g = tanh(a_g)  o = sigmoid(a_o)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Training runs one sentence at a time: :func:`lstm_forward` keeps every
step's gates and cells, and :func:`lstm_backward` consumes d(loss)/d(h_t)
for every step and returns parameter gradients plus d(loss)/d(x_t).

Inference runs a batch of right-padded index rows through
:func:`lstm_states`, which keeps only the hidden states, step-major, so
each step reads and writes contiguous blocks. Padding sits after each
row's last character, so it never feeds a step that matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from emrkg._np import np


@dataclass
class LstmParams:
    w: np.ndarray  # (4h, d_in)
    u: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)

    @property
    def hidden(self) -> int:
        return self.u.shape[1]


@dataclass
class LstmCache:
    inputs: np.ndarray  # (L, d_in)
    gates: np.ndarray  # (L, 4h) post-activation [i | f | g | o]
    cells: np.ndarray  # (L, h)
    tanh_cells: np.ndarray  # (L, h)
    hidden_states: np.ndarray  # (L, h)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(params: LstmParams, inputs: np.ndarray) -> LstmCache:
    length = inputs.shape[0]
    h = params.hidden
    gates = np.empty((length, 4 * h))
    cells = np.empty((length, h))
    tanh_cells = np.empty((length, h))
    hidden_states = np.empty((length, h))

    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    pre_all = inputs @ params.w.T + params.b
    for t in range(length):
        a = pre_all[t] + params.u @ h_prev
        i = _sigmoid(a[:h])
        f = _sigmoid(a[h : 2 * h])
        g = np.tanh(a[2 * h : 3 * h])
        o = _sigmoid(a[3 * h :])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_t = o * tc
        gates[t, :h], gates[t, h : 2 * h] = i, f
        gates[t, 2 * h : 3 * h], gates[t, 3 * h :] = g, o
        cells[t], tanh_cells[t], hidden_states[t] = c, tc, h_t
        h_prev, c_prev = h_t, c
    return LstmCache(inputs, gates, cells, tanh_cells, hidden_states)


def lstm_states(params: LstmParams, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Hidden states (L, B, h) of right-padded index rows (B, L), with no cache.

    ``table`` is ``embedding @ w.T + b``, shape (V, 4h): each step gathers
    its rows instead of embedding the whole batch. All four gates come from
    one tanh, since sigmoid(x) = tanh(x/2)/2 + 1/2. The halving is folded
    into the gathered table and into ``u.T`` once per call; scaling by 0.5
    or 1 is exact, so the gates are bit for bit those of scaling each step.
    """
    batch, length = indices.shape
    h = params.hidden
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = 1.0 - scale
    table = table * scale
    u_t = params.u.T * scale
    steps = np.ascontiguousarray(indices.T)
    states = np.empty((length, batch, h))
    h_prev = np.zeros((batch, h))
    c = np.zeros((batch, h))
    for t in range(length):
        a = table.take(steps[t], axis=0)
        a += h_prev @ u_t
        gates = np.tanh(a, out=a)
        gates *= scale
        gates += shift
        c *= gates[:, h : 2 * h]
        c += gates[:, :h] * gates[:, 2 * h : 3 * h]
        h_prev = np.multiply(gates[:, 3 * h :], np.tanh(c), out=states[t])
    return states


def lstm_backward(
    params: LstmParams, cache: LstmCache, d_hidden: np.ndarray
) -> tuple[LstmParams, np.ndarray]:
    length = cache.inputs.shape[0]
    h = params.hidden
    d_w = np.zeros_like(params.w)
    d_u = np.zeros_like(params.u)
    d_b = np.zeros_like(params.b)
    d_inputs = np.empty_like(cache.inputs)

    dh_rec = np.zeros(h)
    dc_rec = np.zeros(h)
    for t in range(length - 1, -1, -1):
        i = cache.gates[t, :h]
        f = cache.gates[t, h : 2 * h]
        g = cache.gates[t, 2 * h : 3 * h]
        o = cache.gates[t, 3 * h :]
        tc = cache.tanh_cells[t]
        c_prev = cache.cells[t - 1] if t > 0 else np.zeros(h)
        h_prev = cache.hidden_states[t - 1] if t > 0 else np.zeros(h)

        dh = d_hidden[t] + dh_rec
        dc = dh * o * (1.0 - tc * tc) + dc_rec
        da = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ]
        )
        d_w += np.outer(da, cache.inputs[t])
        d_u += np.outer(da, h_prev)
        d_b += da
        d_inputs[t] = params.w.T @ da
        dh_rec = params.u.T @ da
        dc_rec = dc * f
    return LstmParams(d_w, d_u, d_b), d_inputs
