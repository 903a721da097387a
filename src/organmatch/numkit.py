"""Deterministic numerical kernels.

Small dense feed-forward networks with hand-derived backpropagation, Adam,
Lloyd k-means, diagonal-covariance Gaussian mixture EM and the closed-form KL
divergence of diagonal Gaussians.

All randomness flows through Philox counter-based generators keyed by
(seed, component name), so identical seeds reproduce bit-identical results
across runs and platforms.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

VAR_FLOOR = 1e-6

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

KMEANS_MAX_ITER, KMEANS_TOL = 100, 1e-10
GMM_MAX_ITER, GMM_TOL = 100, 1e-8  # the tolerance is relative to the log-likelihood

# Rows per block of every batch-inference pass. Blocks start at multiples of
# this power of two, so each row meets the BLAS kernels' row unrolling where
# a whole-batch product would, and the blocks give the whole batch's bits
# for the layer widths the default TrainConfig builds (the tests pin this).
# Not for every width: with OpenBLAS 0.3.31, a tall batch mapped from 16 or
# more inputs to 2-4 outputs takes another kernel than a 4,096-row block.
ROW_BLOCK = 4096


class DimensionMismatchError(ValueError):
    pass


class InsufficientDataError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    pass


def map_row_blocks(fn, batch: np.ndarray) -> np.ndarray:
    """``fn(batch)`` for a row-wise ``fn`` (row i of its output depends on row
    i of its input alone), evaluated ``ROW_BLOCK`` rows at a time into one
    preallocated output, so only one block's temporaries are alive at once.
    A one-row product takes another BLAS path (gemv or dot) than the rows of
    a larger one, so a one-row remainder joins the block before it; a
    zero-row ``batch`` is passed to ``fn`` as it is."""
    n = len(batch)
    edges = [*range(0, max(n - 1, 1), ROW_BLOCK), n]
    out = None
    for start, stop in zip(edges, edges[1:]):
        part = fn(batch[start:stop])
        if out is None:
            out = np.empty((n, *part.shape[1:]), dtype=part.dtype)
        out[start:stop] = part
    return out


def rng_stream(seed: int, *names) -> np.random.Generator:
    """Philox generator keyed by SHA-256 of (seed, names).

    Independent consumers derive independent streams from one root seed;
    adding a consumer never perturbs another consumer's draws.
    """
    tag = "/".join(str(n) for n in names) + "#" + str(int(seed))
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Dense feed-forward networks: ReLU on every layer but the last, which is
# linear, so a one-layer net is a linear map
# ---------------------------------------------------------------------------


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)

    def __post_init__(self):
        if self.weight.dtype != np.float64 or self.bias.dtype != np.float64:
            raise TypeError("a layer's weight and bias must be float64, "
                            f"not {self.weight.dtype} and {self.bias.dtype}")
        if self.weight.ndim != 2 or self.bias.shape != self.weight.shape[1:]:
            raise DimensionMismatchError(
                f"weight {self.weight.shape} and bias {self.bias.shape} disagree")


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers or any(a.weight.shape[1] != b.weight.shape[0]
                                  for a, b in zip(self.layers, self.layers[1:])):
            raise DimensionMismatchError("layers are missing or do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]


def init_dense_net(dims: list[int], rng: np.random.Generator) -> DenseNet:
    """Glorot-uniform initialisation: weights uniform in +-sqrt(6/(fan_in+fan_out)),
    biases zero."""
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(Layer(weight, np.zeros(fan_out)))
    return DenseNet(layers)


def _forward(net: DenseNet, batch: np.ndarray, cache: list | None) -> np.ndarray:
    """The one forward loop: per layer ``z = a @ W; z += b``, which has the
    bits of ``a @ W + b``, then ReLU in place but on the last layer. With a
    ``cache`` list it appends each layer's input, then the output."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"batch has shape {batch.shape}, net expects (*, {net.input_dim})"
        )
    a = batch
    for i, layer in enumerate(net.layers):
        if cache is not None:
            cache.append(a)
        a = a @ layer.weight
        a += layer.bias
        if i < len(net.layers) - 1:
            np.maximum(a, 0.0, out=a)
    if cache is not None:
        cache.append(a)
    return a


def mlp_forward(net: DenseNet, batch: np.ndarray):
    """Forward pass; returns (outputs, cache) with cache sufficient for backprop."""
    cache = []
    return _forward(net, batch, cache), cache


def mlp_predict(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """Forward pass without a backprop cache, ``ROW_BLOCK`` rows at a time,
    with ``mlp_forward``'s bits for the layer widths in use (see
    ``ROW_BLOCK``); for inference, where beside the (rows, output) result
    only a few (ROW_BLOCK, width) arrays are alive."""
    return map_row_blocks(lambda rows: _forward(net, rows, None), np.asarray(batch, dtype=float))


def mlp_backward(net: DenseNet, cache, upstream_grad: np.ndarray):
    """Exact chain-rule gradients.

    Returns (param_grads, input_grad); param_grads is ordered like
    ``net.parameters()``.
    """
    upstream_grad = np.asarray(upstream_grad, dtype=float)
    if len(cache) != len(net.layers) + 1:
        raise DimensionMismatchError("cache does not match net depth")
    if upstream_grad.shape != cache[-1].shape:
        raise DimensionMismatchError(
            f"upstream grad shape {upstream_grad.shape} != output shape {cache[-1].shape}"
        )
    grads: list[np.ndarray] = []
    delta = upstream_grad
    for i in reversed(range(len(net.layers))):
        grads.append(delta.sum(axis=0))  # bias
        grads.append(cache[i].T @ delta)  # weight
        delta = delta @ net.layers[i].weight.T
        if i:  # back through the ReLU that gave this input: max(z, 0) > 0 exactly when z > 0
            delta *= cache[i] > 0.0
    grads.reverse()
    return grads, delta


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, lr: float):
    """In-place Adam update (beta1=0.9, beta2=0.999, eps=1e-8)."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatchError("params/grads/state lengths disagree")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError("non-finite gradient in Adam step")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


class Adam:
    """Adam over every weight and bias of ``nets``, stepped as one flat buffer.

    Each ``Layer.weight``/``bias`` is rebound to a view into the C-contiguous
    float64 ``buffer``, laid out in ``net.parameters()`` order net after net,
    so one in-place ``adam_step`` on the buffer updates every layer. ``what``
    names the loss in the error a non-finite loss raises.
    """

    def __init__(self, nets: list[DenseNet], lr: float, what: str):
        self.buffer = np.concatenate([p for net in nets for p in net.parameters()], axis=None,
                                     dtype=float)
        offset = 0
        for layer in [layer for net in nets for layer in net.layers]:
            for name in ("weight", "bias"):
                old = getattr(layer, name)
                setattr(layer, name, self.buffer[offset:offset + old.size].reshape(old.shape))
                offset += old.size
        self.lr, self.what, self.state = lr, what, AdamState()

    def step(self, loss: float, grads: list[np.ndarray]) -> None:
        """One Adam step on ``grads``, ordered like the bound parameters."""
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"{self.what} loss diverged; try a lower learning rate")
        adam_step([self.buffer], [np.concatenate(grads, axis=None)], self.state, self.lr)


def minibatches(n: int, batch_size: int, rng: np.random.Generator):
    """Index arrays of one shuffled pass over ``n`` rows, ``batch_size`` at a time."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    idx = rng.integers(n)
    centers[0] = points[idx]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def kmeans_fit(points: np.ndarray, k: int, rng: np.random.Generator, n_init: int = 1):
    """Lloyd's algorithm with k-means++ seeding.

    Empty-cluster repair: the point farthest from its assigned center becomes
    the new center. With ``n_init > 1`` the algorithm is restarted from fresh
    seedings and the run with the lowest final inertia wins.
    Returns (centers, labels, inertia_history).
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if n_init > 1:  # min keeps the first of equally good runs
        return min((kmeans_fit(points, k, rng) for _ in range(n_init)), key=lambda out: out[2][-1])
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise InsufficientDataError(f"k={k} exceeds number of points n={n}")
    centers = _kmeans_pp_init(points, k, rng)
    history = []
    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        assigned_d2 = d2[np.arange(n), labels]
        for j in range(k):
            if not np.any(labels == j):
                far = int(np.argmax(assigned_d2))
                centers[j] = points[far]
                labels[far] = j
                assigned_d2[far] = 0.0
        history.append(float(assigned_d2.sum()))
        new_centers = np.vstack([points[labels == j].mean(axis=0) for j in range(k)])
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    history.append(float(d2[np.arange(n), labels].sum()))
    return centers, labels, history


def kl_diag(mean_p: np.ndarray, var_p: np.ndarray, mean_q: np.ndarray,
            var_q: np.ndarray) -> float:
    """KL(p || q) for diagonal Gaussians given by their mean and variance
    arrays, summed over dimensions."""
    if not np.shape(mean_p) == np.shape(var_p) == np.shape(mean_q) == np.shape(var_q):
        raise DimensionMismatchError("the means and variances of p and q differ in shape")
    return float(np.sum(0.5 * (np.log(var_q / var_p) + var_p / var_q
                               + (mean_p - mean_q) ** 2 / var_q - 1.0)))


def _gmm_log_prob(points: np.ndarray, weights: np.ndarray, means: np.ndarray,
                  variances: np.ndarray) -> np.ndarray:
    """(n, K) log of each weighted diagonal-Gaussian component's density at each point."""
    return (-0.5 * np.sum((points[:, None, :] - means[None]) ** 2 / variances[None], axis=2)
            - 0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)[None, :]
            + np.log(weights)[None, :])


def gmm_em_fit(points: np.ndarray, k: int, rng: np.random.Generator):
    """EM for a diagonal-covariance Gaussian mixture.

    Initialised from k-means. Degenerate variances are floored (with a
    warning). Returns (weights, means, variances, responsibilities,
    loglik_history); row j of the (K, d) means and variances is component j.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if k > n:
        raise InsufficientDataError(f"k={k} exceeds number of points n={n}")
    centers, labels, _ = kmeans_fit(points, k, rng)
    means = centers.copy()
    variances = np.empty((k, d))
    weights = np.empty(k)
    for j in range(k):
        members = points[labels == j]
        weights[j] = max(len(members), 1) / n
        variances[j] = members.var(axis=0) if len(members) > 1 else np.ones(d)
    weights /= weights.sum()
    if np.any(variances < VAR_FLOOR):
        warnings.warn("variance floored in GMM initialisation")
    variances = np.maximum(variances, VAR_FLOOR)

    history = []
    resp = np.full((n, k), 1.0 / k)
    for _ in range(GMM_MAX_ITER):
        # E-step: log responsibilities
        log_prob = _gmm_log_prob(points, weights, means, variances)
        norm = np.logaddexp.reduce(log_prob, axis=1)
        history.append(float(norm.sum()))
        resp = np.exp(log_prob - norm[:, None])
        # M-step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ points) / nk[:, None]
        variances = (resp.T @ (points ** 2)) / nk[:, None] - means ** 2
        if np.any(variances < VAR_FLOOR):
            warnings.warn("variance floored in GMM M-step")
        variances = np.maximum(variances, VAR_FLOOR)
        if len(history) > 1 and abs(history[-1] - history[-2]) < GMM_TOL * (1 + abs(history[-2])):
            break
    return weights, means, variances, resp, history
