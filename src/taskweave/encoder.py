"""Small feed-forward embedding network with exact analytic gradients.

Forward pass: affine layers with tanh between them, a linear output layer,
then row-wise L2 normalization onto the unit sphere. All arithmetic is
float64 so finite-difference checks are clean. The training kernel
``accumulate`` runs one forward pass per optimizer step and hands its cache to
the backward pass, which adds the gradient into a shape-congruent buffer; one
Adam step (decoupled weight decay) consumes the summed buffer and zeroes it.

Every kernel takes either one batch, ``(n, d)`` rows with ``(n,)`` ids, or a
stack of B equally sized batches, ``(B, n, d)`` with ``(B, n)`` ids; one
batch is the B = 1 case of the same code. Stacked batches never mix: every
matrix product is a batched matmul, one BLAS product per batch; the other
arithmetic is row-wise; the triplet mining and its scatter stay inside each
batch; and the backward pass adds each batch's gradient into the buffer on
its own, in batch order. So a stacked call gives, bit for bit, what one call
per batch would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError

CHECKPOINT_VERSION = 1

# Rows whose pre-normalization norm falls below this floor are normalized
# after nudging toward the first basis vector, keeping the map finite.
NORM_FLOOR = 1e-8


@dataclass
class EncoderParams:
    """Per-layer (weight, bias) pairs; weights are (fan_in, fan_out)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def validate(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ContractError("weights and biases must be non-empty and congruent")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ContractError(f"layer {i}: bias shape must be (fan_out,)")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ContractError(f"layer {i}: fan_in does not chain from layer {i - 1}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError("non-finite parameter entries", layer=i)

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def ravel(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])


def init_params(layer_dims: list[int], rng: np.random.Generator) -> EncoderParams:
    """Gaussian init scaled by 1/sqrt(fan_in); zero biases."""
    if len(layer_dims) < 2:
        raise ContractError("need at least an input and an output dimension")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return EncoderParams(weights=weights, biases=biases)


@dataclass
class GradBuffer:
    """Parameter-shaped gradient accumulator."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    accumulation_count: int = 0

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "GradBuffer":
        return cls(
            weights=[np.zeros_like(w) for w in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
        )

    def zero(self) -> None:
        for w in self.weights:
            w[:] = 0.0
        for b in self.biases:
            b[:] = 0.0
        self.accumulation_count = 0

    def ravel(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])


@dataclass
class OptimState:
    """Adam moments plus hyperparameters (decoupled weight decay)."""

    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0
    learning_rate: float = 3e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 1e-6

    @classmethod
    def for_params(cls, params: EncoderParams, **hyper) -> "OptimState":
        return cls(
            m_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_weights=[np.zeros_like(w) for w in params.weights],
            v_biases=[np.zeros_like(b) for b in params.biases],
            **hyper,
        )


@dataclass
class ForwardCache:
    """What one forward pass leaves for the backward pass, each as a
    ``(B, n, ·)`` stack: every layer's input (``hiddens[i]`` feeds layer
    ``i``; the last entry is the raw output) and the pre-normalization row
    norms; plus the unit-norm embeddings in the shape the input had."""

    hiddens: list[np.ndarray]
    embeddings: np.ndarray
    norms: np.ndarray


def _as_stack(array: np.ndarray, trailing: int) -> np.ndarray:
    """``array`` with a leading batch axis: a single batch becomes B = 1."""
    return array[None] if array.ndim == trailing else array


def _forward(params: EncoderParams, inputs: np.ndarray) -> ForwardCache:
    """Forward pass through every layer, then row-wise projection to the unit
    sphere. Rows whose norm falls below NORM_FLOOR are nudged along the first
    basis vector before normalizing."""
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != params.input_dim:
        raise ContractError(
            f"input width {inputs.shape[-1]} does not match ambient dim {params.input_dim}"
        )
    h = _as_stack(np.asarray(inputs, dtype=np.float64), 2)
    hiddens = [h]
    n_layers = params.n_layers
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # A batched matmul: each batch gets its own (n, fan_in) product, the
        # very BLAS call a lone batch makes. Flattening the stack into B·n
        # rows would not be bit-identical, since BLAS picks its kernel and
        # row tiling by the row count.
        z = h @ w + b
        if not np.isfinite(z).all():
            raise NumericError("non-finite activations", layer=i)
        h = np.tanh(z) if i < n_layers - 1 else z
        hiddens.append(h)
    norms = np.linalg.norm(h, axis=2)
    low = norms < NORM_FLOOR
    if low.any():
        h = h.copy()
        h[low, 0] += NORM_FLOOR
        norms = np.linalg.norm(h, axis=2)
    embeddings = (h / norms[:, :, None]).reshape(inputs.shape[:-1] + (params.output_dim,))
    return ForwardCache(hiddens=hiddens, embeddings=embeddings, norms=norms)


def embed(params: EncoderParams, inputs: np.ndarray) -> np.ndarray:
    """Forward pass followed by row-wise L2 normalization."""
    return _forward(params, inputs).embeddings


def _pairwise_euclidean(embeddings: np.ndarray) -> np.ndarray:
    """Per-batch Euclidean distance matrices of a ``(B, n, e)`` stack."""
    gram = embeddings @ embeddings.transpose(0, 2, 1)
    sq = np.diagonal(gram, axis1=1, axis2=2)
    d2 = sq[:, :, None] - 2.0 * gram + sq[:, None, :]
    np.maximum(d2, 0.0, out=d2)
    diag = np.arange(d2.shape[1])
    d2[:, diag, diag] = 0.0
    return np.sqrt(d2)


def hardest_distances(embeddings: np.ndarray, ids: np.ndarray):
    """Per-anchor hardest positive/negative distances and their indices.

    Ties break toward the lowest index. Every id must occur at least twice
    in its batch. Indices count rows within the anchor's own batch; the
    outputs have the shape of ``ids``.
    """
    ids = np.asarray(ids)
    if ids.shape != embeddings.shape[:-1]:
        raise ContractError("ids must align with embedding rows")
    stack = _as_stack(ids, 1)
    n = stack.shape[1]
    same = stack[:, :, None] == stack[:, None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    if not pos_mask.any(axis=2).all():
        raise ContractError("every id in the batch must occur at least twice")
    dist = _pairwise_euclidean(_as_stack(embeddings, 2))
    pos_idx = np.where(pos_mask, dist, -np.inf).argmax(axis=2).ravel()
    neg_idx = np.where(same, np.inf, dist).argmin(axis=2).ravel()
    anchor_rows = dist.reshape(-1, n)
    anchors = np.arange(anchor_rows.shape[0])
    d_pos, d_neg = anchor_rows[anchors, pos_idx], anchor_rows[anchors, neg_idx]
    return tuple(a.reshape(ids.shape) for a in (d_pos, d_neg, pos_idx, neg_idx))


def batch_hard_triplet(
    embeddings: np.ndarray, ids: np.ndarray, margin: float
) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-hard triplet loss and its exact subgradient.

    Per anchor, the farthest same-id row is the positive and the nearest
    different-id row the negative (Euclidean distances); the loss is the mean
    hinge max(0, d_pos - d_neg + margin). At the hinge kink the active-side
    derivative is used; coincident pairs contribute zero direction. A stack
    of B batches gives an array of B losses, each batch's mean over its own
    anchors.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    d_pos, d_neg, pos_idx, neg_idx = hardest_distances(embeddings, ids)
    n, n_dims = embeddings.shape[-2:]
    violation = d_pos - d_neg + margin
    loss = np.maximum(violation, 0.0).mean(axis=-1)
    # Anchors flattened batch-major; p and q are offset to their batch's rows.
    active = np.flatnonzero(violation >= 0.0)
    first_row = active - active % n
    p = pos_idx.ravel()[active] + first_row
    q = neg_idx.ravel()[active] + first_row
    dp, dn = d_pos.ravel()[active], d_neg.ravel()[active]
    rows_in = embeddings.reshape(-1, n_dims)
    u = (rows_in[active] - rows_in[p]) / np.where(dp > 0.0, dp, 1.0)[:, None]
    v = (rows_in[active] - rows_in[q]) / np.where(dn > 0.0, dn, 1.0)[:, None]
    # Per active anchor, in anchor order: a gains u, p loses u, a loses v,
    # q gains v. One weighted bincount over (row, column) cells replays
    # exactly that sequence of float additions, each cell summed from +0.0
    # in order of appearance; batches occupy disjoint rows, so each batch
    # sees only its own. Slots with a zero distance are dropped rather than
    # added as zeros, which would turn a -0.0 entry into +0.0.
    rows = np.stack([active, p, active, q], axis=1).ravel()
    values = np.stack([u, -u, -v, v], axis=1).reshape(-1, n_dims)
    keep = np.repeat(np.stack([dp > 0.0, dn > 0.0], axis=1), 2, axis=1).ravel()
    cells = rows[keep, None] * n_dims + np.arange(n_dims)
    grad = np.bincount(cells.ravel(), weights=values[keep].ravel(), minlength=rows_in.size)
    # With nothing kept, bincount returns integer zeros.
    grad = grad.astype(np.float64, copy=False) / n
    return (float(loss) if loss.ndim == 0 else loss), grad.reshape(embeddings.shape)


def backward(
    params: EncoderParams,
    cache: ForwardCache,
    grad_embeddings: np.ndarray,
    buffer: GradBuffer,
) -> None:
    """Accumulate the exact parameter gradient of loss(normalize(forward(x)))
    into ``buffer`` given the loss gradient w.r.t. the unit-norm embeddings
    and the forward pass that produced them. Each stacked batch's weight and
    bias gradient is added on its own, in batch order, and counts as one
    accumulated gradient."""
    embeddings, hiddens = cache.embeddings, cache.hiddens
    if grad_embeddings.shape != embeddings.shape:
        raise ContractError(
            f"grad_embeddings shape {grad_embeddings.shape} does not match output {embeddings.shape}"
        )
    y = _as_stack(embeddings, 2)
    grad_y = _as_stack(grad_embeddings, 2)
    # Jacobian of x/||x|| is (I - y y^T)/||x||, applied per row.
    inner = np.einsum("bij,bij->bi", grad_y, y)
    g = (grad_y - inner[:, :, None] * y) / cache.norms[:, :, None]
    n_layers = params.n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            g = g * (1.0 - hiddens[i + 1] ** 2)
        weight_grads = hiddens[i].transpose(0, 2, 1) @ g
        for weight_grad, bias_grad in zip(weight_grads, g.sum(axis=1)):
            buffer.weights[i] += weight_grad
            buffer.biases[i] += bias_grad
        if i > 0:
            g = g @ params.weights[i].T
    buffer.accumulation_count += y.shape[0]


def accumulate(
    params: EncoderParams,
    inputs: np.ndarray,
    ids: np.ndarray,
    margin: float,
    buffer: GradBuffer,
) -> float | np.ndarray:
    """The training kernel: one forward pass, the batch-hard triplet loss on
    its embeddings, and the backward pass into ``buffer``. Returns the loss,
    one per batch for a ``(B, n, d)`` stack."""
    cache = _forward(params, inputs)
    loss, grad_embeddings = batch_hard_triplet(cache.embeddings, ids, margin)
    backward(params, cache, grad_embeddings, buffer)
    return loss


def adam_step(params: EncoderParams, buffer: GradBuffer, state: OptimState) -> None:
    """One bias-corrected Adam update from the summed buffer, plus decoupled
    weight decay; zeroes the buffer. Accumulated gradients are used as their
    sum, not their mean."""
    if buffer.accumulation_count < 1:
        raise ContractError("adam_step requires at least one accumulated gradient")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    groups = (
        (params.weights, buffer.weights, state.m_weights, state.v_weights),
        (params.biases, buffer.biases, state.m_biases, state.v_biases),
    )
    for values, grads, ms, vs in groups:
        for value, grad, m, v in zip(values, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            update = state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
            if state.weight_decay:
                update = update + state.learning_rate * state.weight_decay * value
            value -= update
            if not np.isfinite(value).all():
                raise NumericError("non-finite parameters after optimizer step")
    buffer.zero()


def save_checkpoint(params: EncoderParams, out, rel: str) -> None:
    """Versioned binary checkpoint, written through the artifact writer
    ``out`` (an ``experiments.RunResult``) to ``rel``; round trip is
    bit-exact."""
    arrays = {"version": np.array([CHECKPOINT_VERSION]), "n_layers": np.array([params.n_layers])}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    out.npz(rel, arrays)


def load_checkpoint(path) -> EncoderParams:
    with np.load(path) as data:
        version = int(data["version"][0])
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"unsupported checkpoint version {version}")
        n_layers = int(data["n_layers"][0])
        params = EncoderParams(
            weights=[data[f"w{i}"] for i in range(n_layers)],
            biases=[data[f"b{i}"] for i in range(n_layers)],
        )
    params.validate()
    return params
