"""Matching-representation model.

Three jointly trained parts:

* a donor-type map ``T``: autoencoder-pretrained encoder plus K cluster
  centers, refined with a deep-embedded-clustering (DEC) self-training loss;
* a recipient encoder ``Phi`` whose output distribution is pushed to be the
  same across donor-type-conditioned subpopulations (diagonal-Gaussian KL);
* a K-headed predictor ``f`` producing one survival-time estimate per donor
  type.

The combined objective is ``L = L_f + alpha * L_DEC + beta * L_Phi``. All
gradients are hand-derived and validated against finite differences.
Learned donor-type labels are 0-based throughout this module.

A ``DonorClusterer`` is the one type of a donor map: the joint model's DEC
map, and the k-means, EM or standalone DEC map of a decoupled baseline,
which ``fit_clusterer`` fits. Every cluster model is a ``MatchRepModel``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import numkit
from .datamodel import (ConfigError, IngestionError, Normalization, check_field_kinds,
                        normalization_from_dict)
from .numkit import (
    Adam,
    DenseNet,
    DimensionMismatchError,
    Layer,
    TrainingDivergedError,
    gmm_em_fit,
    init_dense_net,
    kmeans_fit,
    map_row_blocks,
    minibatches,
    mlp_backward,
    mlp_forward,
    mlp_predict,
    rng_stream,
)

T_CLAMP = 1e-12
# Exponent of the Student's t kernel of the DEC soft assignment (one degree
# of freedom, Xie et al. 2016).
DEC_EXPONENT = -0.5


class DeadClusterError(RuntimeError):
    def __init__(self, cluster: int):
        super().__init__(f"cluster {cluster} has zero total soft assignment")
        self.cluster = cluster


@dataclass(frozen=True)
class TrainConfig:
    k: int = 3
    alpha: float = 0.1
    # L_f is in squared-day units (~1e4 on the synthetic preset) while the
    # rep-loss KL is O(1); beta's default puts the two gradients on a
    # comparable footing so the invariance term actually binds.
    beta: float = 100.0
    learning_rate: float = 1e-3
    batch_size: int = 128
    pretrain_epochs: int = 50
    joint_epochs: int = 200
    rep_dim: int = 8  # d', output dimension of Phi
    embed_dim: int = 8  # donor embedding dimension
    hidden: int = 32
    min_cluster_count: int = 8
    # A cluster must end training with at least this fraction of the donors
    # to stay active; DEC merging routinely leaves residual clusters holding
    # a few stragglers whose prediction head never saw meaningful data.
    min_cluster_frac: float = 0.01
    # Donor-map refinement schedule. The DEC term is minimized with plain SGD
    # (step alpha) because Adam's per-parameter normalization erases the loss
    # scale and with it the self-training dynamics that let ambiguous
    # clusters merge. A reconstruction anchor (Adam) and a small embedding
    # norm-decay keep the SGD refinement from collapsing or rescaling the
    # embedding; refinement halts once hard assignments stabilize.
    embed_decay: float = 0.004
    dec_min_epochs: int = 5
    dec_stop_tol: float = 0.005  # stop when < this fraction of labels change per epoch
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if min(self.batch_size, self.hidden, self.rep_dim, self.embed_dim) < 1:
            raise ConfigError("batch_size, hidden, rep_dim and embed_dim must be >= 1")
        if not all(0.0 <= v < np.inf for v in (self.alpha, self.beta, self.embed_decay)):
            raise ConfigError("alpha, beta and embed_decay must be nonnegative and finite")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if min(self.pretrain_epochs, self.joint_epochs, self.dec_min_epochs) < 0:
            raise ConfigError("pretrain_epochs, joint_epochs and dec_min_epochs must be >= 0")
        if not 0.0 <= self.dec_stop_tol <= 1.0:
            raise ConfigError("dec_stop_tol must be in [0, 1]")
        if not 0.0 <= self.min_cluster_frac < 1.0:
            raise ConfigError("min_cluster_frac must be in [0, 1)")


CLUSTERERS = ("kmeans", "em", "dec")


@dataclass
class DonorClusterer:
    """The donor-type map ``T`` of a cluster model: K ``centers`` and, by
    ``kind``, nothing more (k-means), the ``weights`` and ``variances`` of an
    EM mixture whose means the centers are, or the ``encoder`` of a DEC map
    whose centers lie in its embedding, with the ``decoder`` of the
    autoencoder it was pretrained in (the joint model's, or a standalone
    DEC's). Its arrays are float64."""

    kind: str
    centers: np.ndarray  # (K, width): the donors' width, or the embedding's for dec
    weights: np.ndarray | None = None  # em
    variances: np.ndarray | None = None  # em
    encoder: DenseNet | None = None  # dec
    decoder: DenseNet | None = None  # dec

    def __post_init__(self):
        if any(a is not None and getattr(a, "dtype", None) != np.float64
               for a in (self.centers, self.weights, self.variances)):
            raise TypeError("a clusterer's centers, weights and variances must be float64 arrays")
        shape, enc, dec = np.shape(self.centers), self.encoder, self.decoder
        em = self.kind == "em"
        fits = (self.kind in CLUSTERERS and len(shape) == 2 and shape[0] >= 1
                and ((np.shape(self.weights), np.shape(self.variances)) == (shape[:1], shape)
                     if em else self.weights is None and self.variances is None)
                and ((enc is not None and dec is not None and shape[1] == enc.output_dim
                      and (dec.input_dim, dec.output_dim) == (enc.output_dim, enc.input_dim))
                     if self.kind == "dec" else enc is None and dec is None))
        if not fits:
            raise ValueError(f"a {self.kind!r} clusterer's fields do not fit its kind "
                             f"and its centers of shape {shape}")
        if em and np.any(self.variances < numkit.VAR_FLOOR * (1 - 1e-12)):
            raise ValueError("an EM variance is below the floor")

    @property
    def input_dim(self) -> int:
        """The width of the donor features the clusterer reads."""
        return self.encoder.input_dim if self.kind == "dec" else self.centers.shape[1]

    def scores(self, donors: np.ndarray) -> np.ndarray:
        """(n, K) donor scores, highest at a donor's cluster: the negative
        squared distance to each k-means center, each EM component's weighted
        log-density, or the DEC soft assignment of the encoded donors, one
        block of ``numkit.ROW_BLOCK`` donors at a time."""
        donors = np.atleast_2d(np.asarray(donors, dtype=float))
        if self.kind == "dec":
            return map_row_blocks(lambda rows: soft_assign(mlp_predict(self.encoder, rows),
                                                           self.centers), donors)
        if self.kind == "kmeans":
            return map_row_blocks(lambda rows: -np.sum(
                (rows[:, None, :] - self.centers[None]) ** 2, axis=2), donors)
        return map_row_blocks(lambda rows: numkit._gmm_log_prob(
            rows, self.weights, self.centers, self.variances), donors)


@dataclass
class MultiHeadPredictor:
    """K heads over Phi's output, or over the features for a model without Phi.

    Heads operate in standardized outcome units internally; predictions are
    mapped back to days via (outcome_mean, outcome_scale), 0 and 1 for linear heads.
    """

    heads: list[DenseNet]
    outcome_mean: float
    outcome_scale: float

    def input_width(self) -> int | None:
        """The one width that every head reads, each giving one number; None
        when there is no head, the heads read different widths or one gives
        other than one number."""
        widths = {h.input_dim for h in self.heads}
        if len(widths) != 1 or any(h.output_dim != 1 for h in self.heads):
            return None
        return widths.pop()


@dataclass
class MatchRepModel:
    """A cluster model: a donor clusterer ``T``, a recipient encoder ``Phi``
    (None: the heads read the recipients themselves) and one head per cluster.

    The joint model (``name`` "matchrep") trains the three together; a
    decoupled baseline (``name`` its spec's) fits them one after another.
    """

    name: str
    config: TrainConfig
    clusterer: DonorClusterer
    phi: DenseNet | None
    predictor: MultiHeadPredictor
    # The (K,) bool mask of ``active_clusters``. DEC merging can leave a
    # residual cluster holding a handful of points; its head never saw
    # enough data to be meaningful, so assignment is restricted to active
    # clusters.
    active: np.ndarray

    def __post_init__(self):
        k, width = self.config.k, self.predictor.input_width()
        if (len(self.clusterer.centers) != k or len(self.predictor.heads) != k or width is None
                or (self.phi is not None and width != self.phi.output_dim)
                or not isinstance(self.active, np.ndarray) or self.active.dtype != bool
                or self.active.shape != (k,)):
            raise DimensionMismatchError(
                f"the clusterer, heads or active mask do not fit {k} donor types")

    def input_widths(self) -> tuple[int, int]:
        """The (recipient, donor) feature widths the model reads."""
        return ((self.predictor.input_width() if self.phi is None else self.phi.input_dim),
                self.clusterer.input_dim)

    def predict_potentials(self, recipients: np.ndarray) -> np.ndarray:
        """(n, K) matrix of predicted survival days, one column per donor type."""
        return predict_heads(self.phi, self.predictor, np.atleast_2d(recipients))

    def donor_labels(self, donors: np.ndarray) -> np.ndarray:
        """0-based donor types: the clusterer's best-scoring active cluster."""
        return donor_type_batch(self, donors)[0]


# ---------------------------------------------------------------------------
# DEC soft assignment and loss
# ---------------------------------------------------------------------------


def soft_assign(embeds: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """t_ij = (1 + ||d_i - mu_j||^2)^DEC_EXPONENT, row-normalized."""
    embeds = np.asarray(embeds, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if embeds.shape[1] != centers.shape[1]:
        raise DimensionMismatchError("embedding/center dimensions disagree")
    d2 = np.sum((embeds[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    s = (1.0 + d2) ** DEC_EXPONENT
    return s / s.sum(axis=1, keepdims=True)


def target_distribution(t: np.ndarray) -> np.ndarray:
    """Sharpened target p_ij = (t_ij^2 / f_j) / sum_j (t_ij^2 / f_j), f_j = sum_i t_ij."""
    f = t.sum(axis=0)
    dead = np.nonzero(f <= 0.0)[0]
    if dead.size:
        raise DeadClusterError(int(dead[0]))
    w = (t * t) / f
    return w / w.sum(axis=1, keepdims=True)


def _dec_terms(p: np.ndarray, t_safe: np.ndarray) -> np.ndarray:
    """Elementwise p*log(p/t) of L_DEC = KL(P || T), with p clamped like t."""
    return p * np.log(np.maximum(p, T_CLAMP) / t_safe)


def dec_loss_and_grads(embeds: np.ndarray, centers: np.ndarray, p: np.ndarray):
    """KL(P || T) with gradients w.r.t. embeddings and centers.

    P is treated as a constant target. Returns (loss, d_embeds, d_centers).
    """
    diff = embeds[:, None, :] - centers[None, :, :]  # (n, K, e)
    d2 = np.sum(diff * diff, axis=2)
    s = (1.0 + d2) ** DEC_EXPONENT
    big_s = s.sum(axis=1, keepdims=True)
    t = s / big_s
    t_safe = np.maximum(t, T_CLAMP)
    loss = float(np.sum(_dec_terms(p, t_safe)))
    # dL/ds_ik = (1 - p_ik / t_ik) / S_i ; ds/dd = 2*exp*(1+d2)^(exp-1)*(d - mu)
    c = (1.0 - p / t_safe) / big_s
    g = c * (2.0 * DEC_EXPONENT) * (1.0 + d2) ** (DEC_EXPONENT - 1.0)  # (n, K)
    d_embeds = np.sum(g[:, :, None] * diff, axis=1)
    d_centers = -np.sum(g[:, :, None] * diff, axis=0)
    return loss, d_embeds, d_centers


# ---------------------------------------------------------------------------
# Representation (distribution-matching) loss
# ---------------------------------------------------------------------------


def _moments(x: np.ndarray):
    """Sample mean / (n-1) variance with floor; returns (mean, var, clamped
    mask, centered rows ``x - mean``)."""
    mean = x.mean(axis=0)
    centered = x - mean
    var = (centered * centered).sum(axis=0) / (x.shape[0] - 1)
    clamped = var < numkit.VAR_FLOOR
    return mean, np.where(clamped, numkit.VAR_FLOOR, var), clamped, centered


def rep_loss_and_grads(xprime: np.ndarray, labels: np.ndarray, k: int,
                       min_cluster_count: int = 8):
    """Sum over clusters of the diagonal-Gaussian KL(cluster || marginal) of
    the encoded recipients, the marginal being the whole batch.

    Clusters with fewer than ``min_cluster_count`` samples are skipped.
    Returns (loss, d_xprime, n_clusters_used).
    """
    n, d = xprime.shape
    grad = np.zeros_like(xprime)
    if n < max(min_cluster_count, 2):
        return 0.0, grad, 0
    mu_a, var_a, cl_a, centered_all = _moments(xprime)
    d_mu_a = np.zeros(d)
    d_var_a = np.zeros(d)
    loss = 0.0
    used = 0
    for c in range(k):
        members = np.nonzero(labels == c)[0]
        nc = members.size
        if nc < max(min_cluster_count, 2):
            continue
        used += 1
        mu_c, var_c, cl_c, centered = _moments(xprime[members])
        loss += numkit.kl_diag(mu_c, var_c, mu_a, var_a)
        delta = mu_c - mu_a
        d_mu_c = delta / var_a
        d_var_c = np.where(cl_c, 0.0, 0.5 * (1.0 / var_a - 1.0 / var_c))
        d_mu_a -= d_mu_c
        d_var_a += np.where(cl_a, 0.0, 0.5 * (1.0 / var_a - var_c / var_a ** 2
                                              - delta * delta / var_a ** 2))
        grad[members] += d_mu_c / nc + d_var_c * 2.0 * centered / (nc - 1)
    if used:
        grad += d_mu_a / n + d_var_a * 2.0 * centered_all / (n - 1)
    return loss, grad, used


# ---------------------------------------------------------------------------
# Factual loss
# ---------------------------------------------------------------------------


def factual_loss_and_grads(predictor: MultiHeadPredictor, xprime: np.ndarray,
                           outcomes: np.ndarray, labels: np.ndarray):
    """Mean squared error on the factual head, in day units.

    Returns (loss, head_grads per head aligned with head.parameters(),
    d_xprime).
    """
    n = xprime.shape[0]
    d_xprime = np.zeros_like(xprime)
    head_grads = []
    scale = predictor.outcome_scale
    loss = 0.0
    for c, head in enumerate(predictor.heads):
        members = np.nonzero(labels == c)[0]
        if members.size == 0:
            head_grads.append([np.zeros_like(p) for p in head.parameters()])
            continue
        out, cache = mlp_forward(head, xprime[members])
        pred = predictor.outcome_mean + scale * out[:, 0]
        err = pred - outcomes[members]
        loss += float(np.sum(err * err)) / n
        upstream = (2.0 * scale / n) * err[:, None]
        grads, d_in = mlp_backward(head, cache, upstream)
        head_grads.append(grads)
        d_xprime[members] = d_in
    return loss, head_grads, d_xprime


# ---------------------------------------------------------------------------
# The losses that train, each gradient-checked
# ---------------------------------------------------------------------------


def phi_heads_loss_and_grads(phi: DenseNet | None, predictor: MultiHeadPredictor,
                             recipients: np.ndarray, outcomes: np.ndarray,
                             labels: np.ndarray, beta: float, k: int,
                             min_cluster_count: int = 8):
    """L_f + beta*L_Phi for fixed 0-based donor-type labels.

    The heads read Phi's output of the rows ``recipients``, or the rows
    themselves when ``phi`` is None (as ``predict_heads`` does). The L_Phi
    term is skipped, and reported as 0.0, when ``beta == 0``. Returns
    (L_f, L_Phi, grads) with grads ordered like ``phi.parameters()`` (none
    without Phi) followed by each head's ``parameters()``.
    """
    xprime, cache = (recipients, None) if phi is None else mlp_forward(phi, recipients)
    l_f, head_grads, d_xprime = factual_loss_and_grads(predictor, xprime, outcomes, labels)
    l_rep = 0.0
    if beta != 0.0:
        l_rep, d_xp_rep, _ = rep_loss_and_grads(xprime, labels, k, min_cluster_count)
        d_xprime = d_xprime + beta * d_xp_rep
    grads = [] if phi is None else mlp_backward(phi, cache, d_xprime)[0]
    for hg in head_grads:
        grads.extend(hg)
    return l_f, l_rep, grads


def recon_loss_and_grads(encoder: DenseNet, decoder: DenseNet, x: np.ndarray):
    """The autoencoder's reconstruction MSE on ``x``; returns (loss, grads)
    with grads ordered like the encoder's then the decoder's parameters."""
    z, enc_cache = mlp_forward(encoder, x)
    recon, dec_cache = mlp_forward(decoder, z)
    err = recon - x
    dec_grads, d_z = mlp_backward(decoder, dec_cache, 2.0 * err / err.size)
    enc_grads, _ = mlp_backward(encoder, enc_cache, d_z)
    return float(np.mean(err * err)), enc_grads + dec_grads


def dec_refine_loss_and_grads(encoder: DenseNet, centers: np.ndarray, x: np.ndarray,
                              p_rows: np.ndarray, embed_decay: float, batch_share: float):
    """The batch L_DEC against the targets ``p_rows``, and the gradients of
    ``L_DEC + embed_decay * (mean ||e||^2 + batch_share * ||C||^2)`` over the
    batch embeddings ``e`` and the centers ``C``, ordered like the encoder's
    parameters followed by the centers."""
    embeds, cache = mlp_forward(encoder, x)
    loss, d_embeds, d_centers = dec_loss_and_grads(embeds, centers, p_rows)
    d_embeds = d_embeds + embed_decay * 2.0 * embeds / embeds.shape[0]
    d_centers = d_centers + embed_decay * 2.0 * centers * batch_share
    enc_grads, _ = mlp_backward(encoder, cache, d_embeds)
    return loss, enc_grads + [d_centers]


# ---------------------------------------------------------------------------
# Training phases
# ---------------------------------------------------------------------------


def pretrain_autoencoder(donors: np.ndarray,
                         config: TrainConfig) -> tuple[DonorClusterer, list[float]]:
    """Reconstruction-MSE pretraining of the donor autoencoder with Adam,
    then k-means of the encoded donors for the K centers.

    Returns the DEC clusterer and the epoch losses."""
    d_o = donors.shape[1]
    if len(np.unique(donors, axis=0)) < config.k:
        raise numkit.InsufficientDataError("need at least K distinct donors")
    h, e = config.hidden, config.embed_dim
    encoder = init_dense_net([d_o, h, h, e], ["relu", "relu", "identity"],
                             rng_stream(config.seed, "matchrep", "enc-init"))
    decoder = init_dense_net([e, h, h, d_o], ["relu", "relu", "identity"],
                             rng_stream(config.seed, "matchrep", "dec-init"))
    opt = Adam([encoder, decoder], config.learning_rate, "autoencoder")
    rng = rng_stream(config.seed, "matchrep", "pretrain-batches")
    n = donors.shape[0]
    losses = []
    for _ in range(config.pretrain_epochs):
        epoch_loss = 0.0
        for idx in minibatches(n, config.batch_size, rng):
            loss, grads = recon_loss_and_grads(encoder, decoder, donors[idx])
            opt.step(loss, grads)
            epoch_loss += loss * len(idx)
        losses.append(epoch_loss / n)
    centers, _, _ = kmeans_fit(mlp_predict(encoder, donors), config.k,
                               rng_stream(config.seed, "matchrep", "centers"))
    return DonorClusterer("dec", centers, encoder=encoder, decoder=decoder), losses


class _DecRefinement:
    """The refinement schedule of a DEC clusterer, in joint and standalone
    DEC training.

    ``start_epoch`` refreshes the target distribution while refining;
    ``step`` refines the map on one minibatch; ``end_epoch`` stops refinement
    once fewer than ``dec_stop_tol`` of the hard labels changed over the
    epoch. ``labels`` always holds the hard labels of the current map, and
    ``soft`` the full soft assignment they are taken from, which the next
    ``start_epoch`` reuses, as the map has not moved since. ``anchor`` is the
    reconstruction anchor's Adam over the map's encoder and decoder.

    Once refinement has stopped the map is frozen, so the per-donor L_DEC
    terms, against the frozen map's own target, are computed once, not per
    batch.
    """

    def __init__(self, clusterer: DonorClusterer, donors: np.ndarray, config: TrainConfig):
        self.clusterer = clusterer
        self.donors = donors
        self.config = config
        self.anchor = Adam([clusterer.encoder, clusterer.decoder], config.learning_rate,
                           "DEC refinement's reconstruction anchor")
        self.active = config.alpha > 0.0
        self.soft = clusterer.scores(donors)
        self.labels = np.argmax(self.soft, axis=1)
        self.p_full = None
        self.frozen_terms = None  # (n, K) L_DEC terms of the frozen map

    def start_epoch(self) -> None:
        if self.active:
            self.p_full = target_distribution(self.soft)
        elif self.frozen_terms is None:
            self.frozen_terms = _dec_terms(target_distribution(self.soft),
                                           np.maximum(self.soft, T_CLAMP))

    def step(self, idx: np.ndarray) -> float:
        """While refining, one Adam reconstruction-anchor step and one SGD step
        on L_DEC plus embedding norm-decay; returns the batch L_DEC (of the
        frozen map once refinement has stopped)."""
        if not self.active:
            return float(np.sum(self.frozen_terms[idx]))
        c, x = self.clusterer, self.donors[idx]
        self.anchor.step(*recon_loss_and_grads(c.encoder, c.decoder, x))
        loss, grads = dec_refine_loss_and_grads(c.encoder, c.centers, x, self.p_full[idx],
                                                self.config.embed_decay,
                                                x.shape[0] / len(self.donors))
        if not np.isfinite(loss):
            raise TrainingDivergedError("DEC loss diverged; try a lower alpha")
        for pm, g in zip(c.encoder.parameters() + [c.centers], grads):
            pm -= self.config.alpha * g
        return loss

    def batch_labels(self, idx: np.ndarray) -> np.ndarray:
        """Hard labels of the donors ``idx`` under the current map."""
        if not self.active:
            return self.labels[idx]
        return np.argmax(self.clusterer.scores(self.donors[idx]), axis=1)

    def end_epoch(self, epoch: int) -> None:
        if not self.active:
            return
        self.soft = self.clusterer.scores(self.donors)
        labels = np.argmax(self.soft, axis=1)
        changed = float(np.mean(labels != self.labels))
        self.labels = labels
        if epoch + 1 >= self.config.dec_min_epochs and changed < self.config.dec_stop_tol:
            self.active = False


def init_heads(width: int, n_heads: int, outcomes: np.ndarray, hidden: int,
               rng: np.random.Generator) -> MultiHeadPredictor:
    """``n_heads`` Glorot-initialised ``[width, hidden, hidden, 1]`` heads,
    drawn from ``rng`` in turn, predicting in units of the ``outcomes``'
    mean and standard deviation (at least one day)."""
    heads = [init_dense_net([width, hidden, hidden, 1], ["relu", "relu", "identity"], rng)
             for _ in range(n_heads)]
    return MultiHeadPredictor(heads=heads, outcome_mean=float(outcomes.mean()),
                              outcome_scale=float(max(outcomes.std(), 1.0)))


def init_phi_heads(d_r: int, outcomes: np.ndarray, config: TrainConfig,
                   namespace: str) -> tuple[DenseNet, MultiHeadPredictor, Adam]:
    """Glorot-initialised recipient encoder Phi and K heads, and the Adam
    that trains them (the ``opt`` of ``phi_heads_step``).

    ``namespace`` names the RNG streams (``phi-init``/``heads-init``), so each
    caller keeps draws of its own.
    """
    phi = init_dense_net([d_r, config.hidden, config.hidden, config.rep_dim],
                         ["relu", "relu", "identity"],
                         rng_stream(config.seed, namespace, "phi-init"))
    predictor = init_heads(config.rep_dim, config.k, outcomes, config.hidden,
                           rng_stream(config.seed, namespace, "heads-init"))
    return phi, predictor, Adam([phi, *predictor.heads], config.learning_rate, "Phi/heads")


def phi_heads_step(phi: DenseNet | None, predictor: MultiHeadPredictor, opt: Adam,
                   recipients: np.ndarray, outcomes: np.ndarray, labels: np.ndarray,
                   beta: float, config: TrainConfig) -> tuple[float, float]:
    """One Adam step on L_f + beta*L_Phi for fixed labels; returns (L_f, L_Phi)."""
    l_f, l_rep, grads = phi_heads_loss_and_grads(phi, predictor, recipients, outcomes, labels,
                                                 beta, config.k, config.min_cluster_count)
    opt.step(l_f + beta * l_rep, grads)
    return l_f, l_rep


def active_clusters(labels: np.ndarray, config: TrainConfig) -> np.ndarray:
    """The (K,) mask of the clusters that hold at least
    ``max(min_cluster_count, min_cluster_frac * n)`` of the ``n`` training
    donors' 0-based ``labels``; every cluster when none does."""
    counts = np.bincount(labels, minlength=config.k)
    active = counts >= max(config.min_cluster_count, config.min_cluster_frac * len(labels))
    return active if active.any() else np.ones(config.k, dtype=bool)


def train_joint(recipients: np.ndarray, donors: np.ndarray, outcomes: np.ndarray,
                config: TrainConfig):
    """Full training: autoencoder pretrain, center init, joint minibatch phase.

    The joint phase uses two optimizers per minibatch. The donor map follows
    the DEC refinement schedule (plain SGD on ``alpha * L_DEC`` with a
    reconstruction anchor, until the hard labels stabilize). The recipient
    encoder and heads take Adam steps on ``L_f + beta * L_Phi`` throughout.
    Returns (model, log) where log has one dict per joint epoch with the
    epoch-mean loss terms.
    """
    clusterer, _ = pretrain_autoencoder(donors, config)
    phi, predictor, phi_opt = init_phi_heads(recipients.shape[1], outcomes, config, "matchrep")
    refine = _DecRefinement(clusterer, donors, config)
    rng = rng_stream(config.seed, "matchrep", "joint-batches")
    n = len(outcomes)
    log = []
    for epoch in range(config.joint_epochs):
        refine.start_epoch()
        sums = {"L_f": 0.0, "L_DEC": 0.0, "L_Phi": 0.0}
        for idx in minibatches(n, config.batch_size, rng):
            # L_DEC comes as the batch's sum over donors, L_f and L_Phi as batch means.
            sums["L_DEC"] += refine.step(idx)
            l_f, l_rep = phi_heads_step(phi, predictor, phi_opt, recipients[idx], outcomes[idx],
                                        refine.batch_labels(idx), config.beta, config)
            sums["L_f"] += l_f * len(idx)
            sums["L_Phi"] += l_rep * len(idx)
        row = {"epoch": epoch, **{k: v / n for k, v in sums.items()}}
        row["total"] = (row["L_f"] + config.alpha * row["L_DEC"]
                        + config.beta * row["L_Phi"])
        row["dec_active"] = refine.active
        log.append(row)
        refine.end_epoch(epoch)
    return MatchRepModel(name="matchrep", config=config, clusterer=clusterer, phi=phi,
                         predictor=predictor, active=active_clusters(refine.labels, config)), log


def train_dec_standalone(donors: np.ndarray, config: TrainConfig) -> DonorClusterer:
    """DEC clustering of donors only (autoencoder pretrain, k-means centers,
    L_DEC refinement).

    Used by the decoupled ``dec`` baselines; follows the same refinement
    schedule as the joint phase. Returns the trained ``dec`` DonorClusterer.
    """
    clusterer, _ = pretrain_autoencoder(donors, config)
    refine = _DecRefinement(clusterer, donors, config)
    rng = rng_stream(config.seed, "matchrep", "dec-standalone-batches")
    for epoch in range(config.joint_epochs):
        if not refine.active:
            break
        refine.start_epoch()
        for idx in minibatches(len(donors), config.batch_size, rng):
            refine.step(idx)
        refine.end_epoch(epoch)
    return clusterer


def fit_clusterer(donors: np.ndarray, kind: str, config: TrainConfig) -> DonorClusterer:
    """The ``kind`` clusterer of ``donors`` with ``config.k`` clusters:
    k-means (best of 10 starts), an EM mixture or a standalone DEC map."""
    if kind == "kmeans":
        centers, _, _ = kmeans_fit(donors, config.k,
                                   rng_stream(config.seed, "baselines", "kmeans"), n_init=10)
        return DonorClusterer(kind, centers)
    if kind == "em":
        weights, means, variances, _, _ = gmm_em_fit(
            donors, config.k, rng_stream(config.seed, "baselines", "em"))
        return DonorClusterer(kind, means, weights, variances)
    if kind == "dec":
        return train_dec_standalone(donors, config)
    raise ValueError(f"unknown clusterer {kind!r}")


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def predict_heads(phi: DenseNet | None, predictor: MultiHeadPredictor,
                  x: np.ndarray) -> np.ndarray:
    """(n, K) predicted survival days, one column per head; the heads read
    Phi's output of the rows ``x``, or ``x`` itself when ``phi`` is None."""
    xprime = x if phi is None else mlp_predict(phi, x)
    preds = np.empty((xprime.shape[0], len(predictor.heads)))
    mean, scale = predictor.outcome_mean, predictor.outcome_scale
    for c, head in enumerate(predictor.heads):
        preds[:, c] = mean + scale * mlp_predict(head, xprime)[:, 0]
    return preds


def predict_potential_batch(model: MatchRepModel, recipients: np.ndarray) -> np.ndarray:
    """(n, K) matrix of predicted survival days, one column per donor type."""
    return model.predict_potentials(recipients)


def best_donor_types(model: MatchRepModel, scores: np.ndarray) -> np.ndarray:
    """0-based column of the highest score in each row of the (n, K)
    ``scores``, restricted to the ``model``'s active clusters. Every donor
    type a model infers, and every best type of its predictions, is this."""
    return np.argmax(np.where(model.active, scores, -np.inf), axis=1)


def donor_type_batch(model: MatchRepModel, donors: np.ndarray):
    """0-based hard donor-type labels and the clusterer's (n, K) scores (the
    soft assignment for a DEC clusterer)."""
    scores = model.clusterer.scores(donors)
    return best_donor_types(model, scores), scores


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


MODEL_FORMAT = "organmatch-model-v9"
_ARRAY_DTYPES = ("float64", "bool")
# The dataclasses a cluster-model file may hold; baselines extends the list.
_MODEL_TYPES = (Layer, DenseNet, TrainConfig, DonorClusterer, MultiHeadPredictor, MatchRepModel)


def _to_doc(obj):
    """JSON tree of a model: a dataclass becomes ``{"type": class name, <fields>}``,
    a float64 or bool array ``{"dtype", "array"}``; lists and scalars pass
    through."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.name not in _ARRAY_DTYPES:
            raise TypeError(f"cannot save a {obj.dtype} array")
        return {"dtype": obj.dtype.name, "array": obj.tolist()}
    if is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: _to_doc(getattr(obj, f.name)) for f in fields(obj)}}
    if isinstance(obj, list):
        return [_to_doc(v) for v in obj]
    return obj


def _from_doc(doc, types: dict[str, type]):
    """Inverse of ``_to_doc``. Builds only the dataclasses named in ``types``,
    from values of their fields' declared types, through their constructors,
    so their own checks run. Refuses a non-finite float, alone or in arrays."""
    if isinstance(doc, list):
        return [_from_doc(v, types) for v in doc]
    if not isinstance(doc, dict):
        if isinstance(doc, float) and not np.isfinite(doc):
            raise ValueError(f"non-finite number {doc}")
        return doc
    if "type" not in doc:
        if set(doc) != {"dtype", "array"} or doc["dtype"] not in _ARRAY_DTYPES:
            raise ValueError(f"not an array of {_ARRAY_DTYPES}: keys {sorted(doc)}")
        array = np.asarray(doc["array"], dtype=doc["dtype"])
        if not np.isfinite(array).all():
            raise ValueError("non-finite entry in a float array")
        return array
    cls = types.get(doc["type"])
    if cls is None:
        raise ValueError(f"unknown type {doc['type']!r}")
    names = {f.name for f in fields(cls)}
    if set(doc) - {"type"} != names:
        raise ValueError(f"{cls.__name__} needs fields {sorted(names)}, "
                         f"got {sorted(set(doc) - {'type'})}")
    values = {name: _from_doc(doc[name], types) for name in names}
    check_field_kinds(cls, values)
    return cls(**values)


def _save(model, path, **extra) -> None:
    """Write ``model`` in the one model-file format, with ``extra`` top-level keys."""
    doc = {"format": MODEL_FORMAT, "model": _to_doc(model), **extra}
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def _load(path, kind: type, types) -> tuple:
    """Read a ``kind`` model built from the dataclasses ``types``; returns
    (model, whole document). A malformed file raises IngestionError."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"not an {MODEL_FORMAT} file")
        if not isinstance(doc["model"], dict) or doc["model"].get("type") != kind.__name__:
            raise ValueError(f"does not hold a {kind.__name__}")
        return _from_doc(doc["model"], {t.__name__: t for t in types}), doc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise IngestionError(f"{path}: {exc!r}") from exc


def save_model(model: MatchRepModel, path, normalization: dict | None = None) -> None:
    """Write a cluster model with the feature normalization it was trained
    on; a baseline is written with none."""
    _save(model, path, normalization=normalization)


def load_model(path) -> MatchRepModel:
    return _load(path, MatchRepModel, _MODEL_TYPES)[0]


def load_model_and_normalization(path) -> tuple[MatchRepModel, Normalization]:
    """A cluster model and the feature normalization saved with it."""
    model, doc = _load(path, MatchRepModel, _MODEL_TYPES)
    try:
        norm = normalization_from_dict(doc["normalization"])
        d_r, d_o = model.input_widths()
        if norm.recipient_mean.shape != (d_r,) or norm.donor_mean.shape != (d_o,):
            raise ValueError("the statistics do not fit the model's input widths")
        return model, norm
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{path} lacks valid normalization statistics: {exc!r}") from exc
