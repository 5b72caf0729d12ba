"""Small feed-forward embedding network with exact analytic gradients.

Forward pass: affine layers with tanh between them, a linear output layer,
then row-wise L2 normalization onto the unit sphere. All arithmetic is
float64 so finite-difference checks are clean. The training kernel
``accumulate`` runs one forward pass per optimizer step and hands its cache to
the backward pass, which adds the gradient into a buffer; one Adam step
(decoupled weight decay) consumes the summed buffer and zeroes it.
Parameters, buffer and Adam moments each live in one flat float64 arena of
one layout, so the step's elementwise work is one pass over each arena. Only
the parameters also keep a view per layer, which the forward pass reads.

Every kernel takes either one batch, ``(n, d)`` rows with ``(n,)`` ids, or a
stack of B equally sized batches, ``(B, n, d)`` with ``(B, n)`` ids; one
batch is the B = 1 case of the same code. Stacked batches never mix: every
matrix product is a batched matmul, one BLAS product per batch; the other
arithmetic is row-wise; the triplet mining and its scatter stay inside each
batch; and the backward pass adds each batch's gradient into the buffer on
its own, in batch order. So a stacked call gives, bit for bit, what one call
per batch would. ``embed`` keeps no cache for a backward pass, and it runs
``(N, d)`` rows in blocks of a fixed row count, so the single batch it
matches bit for bit is the B = 1 stack ``x[None]``.
"""

from __future__ import annotations

import math
import zipfile
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, ValidationError
from .metrics import padded_blocks

CHECKPOINT_VERSION = 1

# Rows whose pre-normalization norm falls below this floor are normalized
# after nudging toward the first basis vector, keeping the map finite.
NORM_FLOOR = 1e-8


def _carve(arena: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive pieces of ``arena``'s last axis, each piece in
    the next of ``shapes``; leading axes are kept, so a ``(B, size)`` arena
    gives one ``(B, *shape)`` view per piece."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(arena[..., start:stop].reshape(arena.shape[:-1] + shape))
        start = stop
    return views


@dataclass
class EncoderParams:
    """Per-layer (weight, bias) pairs; weights are (fan_in, fan_out).

    The arrays are copied, when built, into one float64 arena, ``flat``: the
    weights in layer order, then the biases. Each ``weights[i]`` and
    ``biases[i]`` is a view of it, so in-place changes to either side show
    on the other.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in [*self.weights, *self.biases]]
        self.flat = np.empty(sum(a.size for a in arrays))
        views = _carve(self.flat, [a.shape for a in arrays])
        for view, array in zip(views, arrays):
            view[...] = array
        self.weights, self.biases = views[: len(self.weights)], views[len(self.weights) :]

    def __reduce__(self):
        # A pickled or deep-copied one is rebuilt through the constructor,
        # so it owns its own arena again.
        return type(self), (self.weights, self.biases)

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
        return EncoderParams(weights=self.weights, biases=self.biases)


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
    """Gradient accumulator: one float64 arena, ``flat``, in the layout of
    :class:`EncoderParams`."""

    flat: np.ndarray
    accumulation_count: int = 0

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "GradBuffer":
        return cls(np.zeros_like(params.flat))

    def zero(self) -> None:
        self.flat.fill(0.0)
        self.accumulation_count = 0


@dataclass
class OptimState:
    """Adam moments plus hyperparameters (decoupled weight decay), the
    latter those of ``config.OptimizerConfig``. Each moment, ``m`` and
    ``v``, is one float64 arena in the layout of :class:`EncoderParams`."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    weight_decay: float
    step: int = 0

    @classmethod
    def for_params(cls, params: EncoderParams, **hyper) -> "OptimState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), **hyper)


@dataclass
class ForwardCache:
    """What one forward pass leaves for the backward pass, each as a
    ``(B, n, ·)`` stack: every layer's input (``hiddens[i]`` feeds layer
    ``i``; the last entry is the raw output) and the pre-normalization row
    norms; plus the unit-norm embeddings in the shape the input had."""

    hiddens: list[np.ndarray]
    embeddings: np.ndarray
    norms: np.ndarray


def _row_norms(h: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(h, axis=2)`` bit for bit (the very reduction numpy
    makes), without its argument checks and conjugate copy."""
    return np.sqrt(np.add.reduce(h * h, axis=2))


def _as_stack(array: np.ndarray, trailing: int) -> np.ndarray:
    """``array`` with a leading batch axis: a single batch becomes B = 1."""
    return array[None] if array.ndim == trailing else array


def _checked_width(params: EncoderParams, inputs: np.ndarray) -> None:
    if inputs.ndim not in (2, 3) or inputs.shape[-1] != params.input_dim:
        raise ContractError(
            f"input width {inputs.shape[-1]} does not match ambient dim {params.input_dim}"
        )


def _layers(params: EncoderParams, h: np.ndarray) -> Iterator[np.ndarray]:
    """Each layer's output for the ``(B, n, fan_in)`` stack ``h``, in layer
    order: the affine map, then tanh (in place) on every layer but the last.
    Each is computed when the next is asked for."""
    n_layers = params.n_layers
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        # A batched matmul: each batch gets its own (n, fan_in) product, the
        # very BLAS call a lone batch makes. Flattening the stack into B·n
        # rows would not be bit-identical, since BLAS picks its kernel and
        # row tiling by the row count.
        z = h @ w
        z += b
        if not np.isfinite(z).all():
            raise NumericError("non-finite activations", layer=i)
        h = np.tanh(z, out=z) if i < n_layers - 1 else z
        yield h


def _unit_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the raw output stack ``h`` projected to the unit sphere,
    and their norms. Rows whose norm falls below NORM_FLOOR are nudged along
    the first basis vector (in a copy) before normalizing."""
    norms = _row_norms(h)
    low = norms < NORM_FLOOR
    if low.any():
        h = h.copy()
        h[low, 0] += NORM_FLOOR
        norms = _row_norms(h)
    return h / norms[:, :, None], norms


def _forward(params: EncoderParams, inputs: np.ndarray) -> ForwardCache:
    """Forward pass through every layer, then row-wise projection to the unit
    sphere, keeping what the backward pass reads."""
    _checked_width(params, inputs)
    h = _as_stack(np.asarray(inputs, dtype=np.float64), 2)
    hiddens = [h, *_layers(params, h)]
    embeddings, norms = _unit_rows(hiddens[-1])
    embeddings = embeddings.reshape(inputs.shape[:-1] + (params.output_dim,))
    return ForwardCache(hiddens=hiddens, embeddings=embeddings, norms=norms)


def _embed_stack(params: EncoderParams, h: np.ndarray) -> np.ndarray:
    """The unit-norm embeddings of the ``(B, n, d)`` stack ``h``, by the
    arithmetic of :func:`_forward`, holding one or two layers' outputs at a
    time instead of a cache."""
    for h in _layers(params, h):
        pass  # each layer's output replaces the one before
    return _unit_rows(h)[0]


# Rows per zero-padded block of a 2-D ``embed``: every block's products have
# this many rows, so a row's embedding does not depend on the rows beside it.
EMBED_ROWS = 256


def embed(params: EncoderParams, inputs: np.ndarray) -> np.ndarray:
    """Forward pass followed by row-wise L2 normalization, keeping no
    activations for a backward pass.

    A ``(B, n, d)`` stack runs as it is, one product per batch, as the
    training kernel runs it. ``(N, d)`` rows run in the padded blocks of
    exactly ``EMBED_ROWS`` rows of :func:`~taskweave.metrics.padded_blocks`:
    each row's embedding has the same bits alone, shuffled or among any other
    rows, and the memory taken is the result and a few blocks, whatever N."""
    _checked_width(params, inputs)
    if inputs.ndim == 3:
        return _embed_stack(params, np.asarray(inputs, dtype=np.float64))
    out = np.empty((inputs.shape[0], params.output_dim))
    for lo, hi, block in padded_blocks(inputs, EMBED_ROWS):
        out[lo:hi] = _embed_stack(params, block[None])[0, : hi - lo]
    return out


def _pairwise_euclidean(embeddings: np.ndarray) -> np.ndarray:
    """Per-batch Euclidean distance matrices of a ``(B, n, e)`` stack:
    ``sqrt(max(sq_i - 2 gram_ij + sq_j, 0))`` added left to right, with a
    zero diagonal, computed in one buffer."""
    gram = embeddings @ embeddings.transpose(0, 2, 1)
    sq = np.diagonal(gram, axis1=1, axis2=2)
    d2 = np.multiply(gram, 2.0)
    np.subtract(sq[:, :, None], d2, out=d2)
    d2 += sq[:, None, :]
    np.maximum(d2, 0.0, out=d2)
    d2.reshape(d2.shape[0], -1)[:, :: d2.shape[1] + 1] = 0.0
    return np.sqrt(d2, out=d2)


def id_masks(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(B, n, n)`` same-id and positive (same id, other row) masks of
    a ``(B, n)`` id stack, one batch being B = 1. Built once per step, they
    serve its loss pass and its accuracy pass.

    Raises ContractError unless every id occurs at least twice in its batch
    and every batch holds at least two ids: without a second id, no row is
    a negative.
    """
    stack = _as_stack(np.asarray(ids), 1)
    same = stack[:, :, None] == stack[:, None, :]
    positive = same.copy()
    positive.reshape(stack.shape[0], -1)[:, :: stack.shape[1] + 1] = False
    if not positive.any(axis=2).all():
        raise ContractError("every id in the batch must occur at least twice")
    if same[:, 0].all(axis=1).any():
        raise ContractError("every batch must hold at least two ids")
    return same, positive


def hardest_distances(embeddings: np.ndarray, ids: np.ndarray, masks=None):
    """Per-anchor hardest positive/negative distances and their indices.

    Ties break toward the lowest index. Every id must occur at least twice
    in its batch, and every batch must hold two ids. Indices count rows
    within the anchor's own batch; the outputs have the shape of ``ids``.
    ``masks`` is ``id_masks(ids)`` when the caller has it already.
    """
    ids = np.asarray(ids)
    if ids.shape != embeddings.shape[:-1]:
        raise ContractError("ids must align with embedding rows")
    same, positive = id_masks(ids) if masks is None else masks
    n = same.shape[1]
    dist = _pairwise_euclidean(_as_stack(embeddings, 2))
    pos_idx = np.where(positive, dist, -np.inf).argmax(axis=2).ravel()
    neg_idx = np.where(same, np.inf, dist).argmin(axis=2).ravel()
    # Each anchor's own row of the flattened distance matrices.
    row_start = np.arange(0, dist.size, n)
    d_pos, d_neg = dist.take(row_start + pos_idx), dist.take(row_start + neg_idx)
    return tuple(a.reshape(ids.shape) for a in (d_pos, d_neg, pos_idx, neg_idx))


def batch_hard_triplet(
    embeddings: np.ndarray, ids: np.ndarray, margin: float, masks=None
) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-hard triplet loss and its exact subgradient.

    Per anchor, the farthest same-id row is the positive and the nearest
    different-id row the negative (Euclidean distances); the loss is the mean
    hinge max(0, d_pos - d_neg + margin). At the hinge kink the active-side
    derivative is used; coincident pairs contribute zero direction. A stack
    of B batches gives an array of B losses, each batch's mean over its own
    anchors. ``masks`` is passed on to :func:`hardest_distances`.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    d_pos, d_neg, pos_idx, neg_idx = hardest_distances(embeddings, ids, masks)
    n, n_dims = embeddings.shape[-2:]
    violation = d_pos - d_neg + margin
    # The hinge mean as ``ndarray.mean`` takes it: a sum, then one division.
    loss = np.add.reduce(np.maximum(violation, 0.0), axis=-1) / n
    # Anchors flattened batch-major; p and q are offset to their batch's rows.
    active = np.flatnonzero(violation >= 0.0)
    first_row = active - active % n
    p = pos_idx.ravel()[active] + first_row
    q = neg_idx.ravel()[active] + first_row
    dp, dn = d_pos.ravel()[active], d_neg.ravel()[active]
    rows_in = embeddings.reshape(-1, n_dims)
    anchor_in = rows_in[active]
    pos_far, neg_far = dp > 0.0, dn > 0.0
    all_far = pos_far.all() and neg_far.all()
    # A coincident pair has no direction: it divides by 1.0 and is dropped.
    u = anchor_in - rows_in[p]
    u /= (dp if all_far else np.where(pos_far, dp, 1.0))[:, None]
    v = anchor_in - rows_in[q]
    v /= (dn if all_far else np.where(neg_far, dn, 1.0))[:, None]
    # Per active anchor, in anchor order: a gains u, p loses u, a loses v,
    # q gains v. One weighted bincount over (row, column) cells replays
    # exactly that sequence of float additions, each cell summed from +0.0
    # in order of appearance; batches occupy disjoint rows, so each batch
    # sees only its own.
    rows = np.array([active, p, active, q]).T
    values = np.concatenate([u, -u, -v, v], axis=1).reshape(active.size, 4, n_dims)
    if not all_far:
        # Slots with a zero distance are dropped rather than added as zeros,
        # which would turn a -0.0 entry into +0.0.
        keep = np.array([pos_far, pos_far, neg_far, neg_far]).T
        rows, values = rows[keep], values[keep]
    cells = np.arange(rows_in.size).reshape(-1, n_dims)[rows]
    grad = np.bincount(cells.ravel(), weights=values.ravel(), minlength=rows_in.size)
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
    and the forward pass that produced them. Each stacked batch's gradient
    is laid out as one row in the buffer's arena layout and added to the
    arena on its own, in batch order, and counts as one accumulated
    gradient; every entry thus sums its batches in the order a loop of
    per-layer, per-batch adds would."""
    embeddings, hiddens = cache.embeddings, cache.hiddens
    if grad_embeddings.shape != embeddings.shape:
        raise ContractError(
            f"grad_embeddings shape {grad_embeddings.shape} does not match output {embeddings.shape}"
        )
    y = _as_stack(embeddings, 2)
    grad_y = _as_stack(grad_embeddings, 2)
    # Jacobian of x/||x|| is (I - y y^T)/||x||, applied per row.
    inner = np.einsum("bij,bij->bi", grad_y, y)
    g = inner[:, :, None] * y
    np.subtract(grad_y, g, out=g)
    g /= cache.norms[:, :, None]
    n_layers = params.n_layers
    rows = np.empty((y.shape[0], buffer.flat.size))
    views = _carve(rows, [a.shape for a in params.weights + params.biases])
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            # g * (1 - h**2), the product taken in the other order.
            slope = np.square(hiddens[i + 1])
            np.subtract(1.0, slope, out=slope)
            slope *= g
            g = slope
        np.matmul(hiddens[i].transpose(0, 2, 1), g, out=views[i])
        np.add.reduce(g, axis=1, out=views[n_layers + i])
        if i > 0:
            g = g @ params.weights[i].T
    for row in rows:
        buffer.flat += row
    buffer.accumulation_count += y.shape[0]


def accumulate(
    params: EncoderParams,
    inputs: np.ndarray,
    ids: np.ndarray,
    margin: float,
    buffer: GradBuffer,
    masks=None,
) -> float | np.ndarray:
    """The training kernel: one forward pass, the batch-hard triplet loss on
    its embeddings, and the backward pass into ``buffer``. Returns the loss,
    one per batch for a ``(B, n, d)`` stack. ``masks`` is ``id_masks(ids)``
    when the caller has it already."""
    cache = _forward(params, inputs)
    loss, grad_embeddings = batch_hard_triplet(cache.embeddings, ids, margin, masks)
    backward(params, cache, grad_embeddings, buffer)
    return loss


def adam_step(params: EncoderParams, buffer: GradBuffer, state: OptimState) -> None:
    """One bias-corrected Adam update from the summed buffer, plus decoupled
    weight decay; zeroes the buffer. Accumulated gradients are used as their
    sum, not their mean. The update is elementwise, so one pass over the
    packed arenas gives every entry the bits a per-layer pass would."""
    if buffer.accumulation_count < 1:
        raise ContractError("adam_step requires at least one accumulated gradient")
    value, grad, m, v = params.flat, buffer.flat, state.m, state.v
    if not value.shape == grad.shape == m.shape == v.shape:
        raise ContractError("parameters, gradient buffer and moments must share one layout")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    # lr * (m / bias1) / (sqrt(v / bias2) + eps) [+ lr * wd * value], each
    # operation the same as written out, done in place.
    work = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += work
    np.square(grad, out=work)
    work *= 1.0 - b2
    v *= b2
    v += work
    update = np.divide(m, bias1)
    update *= state.learning_rate
    np.divide(v, bias2, out=work)
    np.sqrt(work, out=work)
    work += state.epsilon
    update /= work
    if state.weight_decay:
        np.multiply(value, state.learning_rate * state.weight_decay, out=work)
        update += work
    value -= update
    if not np.isfinite(value).all():
        raise NumericError("non-finite parameters after optimizer step")
    buffer.zero()


def save_checkpoint(params: EncoderParams, out, rel: str) -> None:
    """Versioned binary checkpoint, written through the artifact writer
    ``out`` (an ``artifacts.RunResult``) to ``rel``; round trip is
    bit-exact."""
    arrays = {"version": np.array([CHECKPOINT_VERSION]), "n_layers": np.array([params.n_layers])}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    out.npz(rel, arrays)


def load_checkpoint(path) -> EncoderParams:
    """The parameters :func:`save_checkpoint` wrote to ``path``. A file that
    is not such a checkpoint raises ValidationError naming ``path``."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValidationError(f"checkpoint {path} is one array, not an npz checkpoint")
        with data:
            version = int(data["version"][0])
            if version != CHECKPOINT_VERSION:
                raise ValidationError(f"checkpoint {path}: unsupported version {version}")
            n_layers = int(data["n_layers"][0])
            params = EncoderParams(
                weights=[data[f"w{i}"] for i in range(n_layers)],
                biases=[data[f"b{i}"] for i in range(n_layers)],
            )
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path}: {exc.args[0]}") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"checkpoint {path} is not an npz checkpoint: {exc}") from None
    params.validate()
    return params
