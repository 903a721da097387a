"""Matching-representation model.

Three jointly trained parts:

* a donor-type map ``T``: autoencoder-pretrained encoder plus K cluster
  centers, refined with a deep-embedded-clustering (DEC) self-training loss;
* a recipient encoder ``Phi`` whose output distribution is pushed to be the
  same across donor-type-conditioned subpopulations (diagonal-Gaussian KL);
* a K-headed predictor ``f`` producing one survival-time estimate per donor
  type.

The combined objective is ``L = L_f + alpha * L_DEC + beta * L_Phi``. The
donor map reaches ``L_f`` and ``L_Phi`` only through its hard labels, so DEC
alone trains it (``_dec_epochs``), and it hands the Phi+heads loop
(``fit_phi_heads``) one label array per epoch. All gradients are
hand-derived and validated against finite differences.
Learned donor-type labels are 0-based throughout this module.

A ``DonorClusterer`` is the one type of a donor map: the joint model's DEC
map, and the k-means, EM or standalone DEC map of a decoupled baseline,
which ``fit_clusterer`` fits. Every cluster model is a ``MatchRepModel``.
"""

from __future__ import annotations

import copy
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

JOINT = "matchrep"  # the joint model's name
T_CLAMP = 1e-12
# The networks' sizes and steps. Code reads them when it runs, never as
# default arguments, so a test can shrink the networks by setting them.
LEARNING_RATE = 1e-3  # of every Adam that trains
HIDDEN = 32  # the width of each hidden layer of every network
REP_DIM = 8  # d', the output dimension of Phi
EMBED_DIM = 8  # the donor embedding dimension
MIN_CLUSTER_COUNT = 8  # the members a cluster needs to enter L_Phi and to stay active
# Exponent of the Student's t kernel of the DEC soft assignment (one degree
# of freedom, Xie et al. 2016).
DEC_EXPONENT = -0.5
# Donor-map refinement schedule. The DEC term is minimized with plain SGD
# (step DEC_STEP) because Adam's per-parameter normalization erases the loss
# scale and with it the self-training dynamics that let ambiguous clusters
# merge. A reconstruction anchor (Adam) and a small embedding norm-decay keep
# the SGD refinement from collapsing or rescaling the embedding; refinement
# halts once hard assignments stabilize: after at least DEC_MIN_EPOCHS
# epochs, at the first in which fewer than DEC_STOP_TOL of the labels change.
DEC_STEP = 0.1  # the paper's alpha
EMBED_DECAY = 0.004
DEC_MIN_EPOCHS = 5
DEC_STOP_TOL = 0.005
# A cluster must end training with at least this fraction of the donors to
# stay active; DEC merging routinely leaves residual clusters holding a few
# stragglers whose prediction head never saw meaningful data.
MIN_CLUSTER_FRAC = 0.01
# The keys of each row of ``train_joint``'s log, the columns of training_log.csv.
LOG_FIELDS = ("epoch", "L_f", "L_DEC", "L_Phi", "dec_active", "label_churn", "cluster_counts")


class DeadClusterError(RuntimeError):
    def __init__(self, cluster: int):
        super().__init__(f"cluster {cluster} has zero total soft assignment")
        self.cluster = cluster


@dataclass(frozen=True)
class TrainConfig:
    k: int = 3
    # L_f is in squared-day units (~1e4 on the synthetic preset) while the
    # rep-loss KL is O(1); beta's default puts the two gradients on a
    # comparable footing so the invariance term actually binds.
    beta: float = 100.0
    batch_size: int = 128
    pretrain_epochs: int = 50
    joint_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.beta < np.inf:
            raise ConfigError("beta must be nonnegative and finite")
        if min(self.pretrain_epochs, self.joint_epochs) < 0:
            raise ConfigError("pretrain_epochs and joint_epochs must be >= 0")


CLUSTERERS = ("kmeans", "em", "dec")


@dataclass
class DonorClusterer:
    """The donor-type map ``T`` of a cluster model: K ``centers`` and, by
    ``kind``, nothing more (k-means), the ``weights`` and ``variances`` of an
    EM mixture whose means the centers are, or the ``encoder`` of a DEC map
    whose centers lie in its embedding. Its arrays are float64."""

    kind: str
    centers: np.ndarray  # (K, width): the donors' width, or the embedding's for dec
    weights: np.ndarray | None = None  # em
    variances: np.ndarray | None = None  # em
    encoder: DenseNet | None = None  # dec

    def __post_init__(self):
        if any(a is not None and getattr(a, "dtype", None) != np.float64
               for a in (self.centers, self.weights, self.variances)):
            raise TypeError("a clusterer's centers, weights and variances must be float64 arrays")
        shape, enc = np.shape(self.centers), self.encoder
        em = self.kind == "em"
        fits = (self.kind in CLUSTERERS and len(shape) == 2 and shape[0] >= 1
                and ((np.shape(self.weights), np.shape(self.variances)) == (shape[:1], shape)
                     if em else self.weights is None and self.variances is None)
                and (enc is not None and shape[1] == enc.output_dim
                     if self.kind == "dec" else enc is None))
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

    def predict_potentials(self, recipients: np.ndarray) -> np.ndarray:
        """(n, K) matrix of predicted survival days, one column per donor type."""
        return predict_heads(self.phi, self.predictor, np.atleast_2d(recipients))

    def donor_labels(self, donors: np.ndarray) -> np.ndarray:
        """0-based donor types: the clusterer's best-scoring active cluster."""
        return donor_type_batch(self, donors)[0]

    def predict_pairs(self, recipients: np.ndarray, donors: np.ndarray) -> np.ndarray:
        """(n,) predicted days of each recipient with its row's donor: that donor's head."""
        return self.predict_potentials(recipients)[np.arange(len(recipients)),
                                                   self.donor_labels(donors)]

    def predict_types(self, recipients: np.ndarray, donors: np.ndarray):
        """The (n, K) predictions per donor type, each donor's type and each
        recipient's best type: the inputs of ``metrics.comparison_row``."""
        preds = self.predict_potentials(recipients)
        return preds, self.donor_labels(donors), best_donor_types(self, preds)

    def check_input_widths(self, path, d_r: int, d_o: int) -> None:
        """Raise IngestionError naming ``path``, the file the model was read
        from, unless it reads ``d_r`` recipient and ``d_o`` donor features."""
        got = (self.predictor.input_width() if self.phi is None else self.phi.input_dim,
               self.clusterer.input_dim)
        if got != (d_r, d_o):
            raise IngestionError(f"{path}: input widths {got}, the data has {(d_r, d_o)}")


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
                       min_cluster_count: int):
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
                             labels: np.ndarray, beta: float, k: int):
    """L_f + beta*L_Phi for fixed 0-based donor-type labels, L_Phi over the
    clusters of at least ``MIN_CLUSTER_COUNT`` rows.

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
        l_rep, d_xp_rep, _ = rep_loss_and_grads(xprime, labels, k, MIN_CLUSTER_COUNT)
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
                         config: TrainConfig) -> tuple[DonorClusterer, DenseNet]:
    """Reconstruction-MSE pretraining of the donor autoencoder with Adam,
    then k-means of the encoded donors for the K centers.

    Returns the DEC clusterer and the decoder only ``_dec_epochs`` reads."""
    d_o = donors.shape[1]
    if len(np.unique(donors, axis=0)) < config.k:
        raise numkit.InsufficientDataError("need at least K distinct donors")
    encoder = init_dense_net([d_o, HIDDEN, HIDDEN, EMBED_DIM], ["relu", "relu", "identity"],
                             rng_stream(config.seed, "matchrep", "enc-init"))
    decoder = init_dense_net([EMBED_DIM, HIDDEN, HIDDEN, d_o], ["relu", "relu", "identity"],
                             rng_stream(config.seed, "matchrep", "dec-init"))
    opt = Adam([encoder, decoder], LEARNING_RATE, "autoencoder")
    rng = rng_stream(config.seed, "matchrep", "pretrain-batches")
    for _ in range(config.pretrain_epochs):
        for idx in minibatches(donors.shape[0], config.batch_size, rng):
            opt.step(*recon_loss_and_grads(encoder, decoder, donors[idx]))
    centers, _, _ = kmeans_fit(mlp_predict(encoder, donors), config.k,
                               rng_stream(config.seed, "matchrep", "centers"))
    return DonorClusterer("dec", centers, encoder=encoder), decoder


def _dec_epochs(clusterer: DonorClusterer, decoder: DenseNet, donors: np.ndarray,
                config: TrainConfig, batches: str):
    """The one refinement schedule of a DEC clusterer and its pretrained
    ``decoder``: ``joint_epochs`` epochs, refining then frozen. Yields per
    epoch the (n,) label each donor had in its minibatch, the epoch's summed
    L_DEC, whether it refined, the share of donors whose full-pass label the
    epoch changed (its label churn) and the (K,) donor count of each
    full-pass label.

    A refining epoch refreshes the target, then per minibatch of the
    ``donors`` from the stream ``batches`` takes one Adam step of the
    reconstruction anchor and one SGD step on L_DEC plus embedding
    norm-decay, then labels every donor in one full pass. Refinement ends at
    the stop test (``DEC_MIN_EPOCHS``, ``DEC_STOP_TOL`` on the churn) or
    after ``joint_epochs``; the encoder then leaves the anchor's shared
    buffer, and every frozen epoch yields the same labels, the one L_DEC of
    the map against its own target, churn 0.0 and the same counts.
    """
    anchor = Adam([clusterer.encoder, decoder], LEARNING_RATE,
                  "DEC refinement's reconstruction anchor")
    rng = rng_stream(config.seed, batches)
    n = len(donors)
    soft = clusterer.scores(donors)  # of the current map, so reused until it moves
    labels = np.argmax(soft, axis=1)
    refined = 0
    while refined < config.joint_epochs:
        l_dec, p_full, batch_labels = 0.0, target_distribution(soft), np.empty_like(labels)
        for idx in minibatches(n, config.batch_size, rng):
            x = donors[idx]
            anchor.step(*recon_loss_and_grads(clusterer.encoder, decoder, x))
            loss, grads = dec_refine_loss_and_grads(clusterer.encoder, clusterer.centers, x,
                                                    p_full[idx], EMBED_DECAY, len(idx) / n)
            if not np.isfinite(loss):
                raise TrainingDivergedError("DEC loss diverged; try a lower DEC_STEP")
            for pm, g in zip(clusterer.encoder.parameters() + [clusterer.centers], grads):
                pm -= DEC_STEP * g
            l_dec += loss
            batch_labels[idx] = np.argmax(clusterer.scores(x), axis=1)
        refined += 1
        # the Phi epoch run at the yield never touches the map, so this pass may precede it
        soft = clusterer.scores(donors)
        new_labels = np.argmax(soft, axis=1)
        churn, labels = float(np.mean(new_labels != labels)), new_labels
        yield batch_labels, l_dec, True, churn, np.bincount(labels, minlength=config.k)
        if refined >= DEC_MIN_EPOCHS and churn < DEC_STOP_TOL:
            break
    clusterer.encoder = copy.deepcopy(clusterer.encoder)  # off the anchor's shared buffer
    l_dec = float(np.sum(_dec_terms(target_distribution(soft), np.maximum(soft, T_CLAMP))))
    counts = np.bincount(labels, minlength=config.k)
    for _ in range(refined, config.joint_epochs):
        yield labels, l_dec, False, 0.0, counts


def init_heads(width: int, n_heads: int, outcomes: np.ndarray,
               rng: np.random.Generator) -> MultiHeadPredictor:
    """``n_heads`` Glorot-initialised ``[width, HIDDEN, HIDDEN, 1]`` heads,
    drawn from ``rng`` in turn, predicting in units of the ``outcomes``'
    mean and standard deviation (at least one day)."""
    heads = [init_dense_net([width, HIDDEN, HIDDEN, 1], ["relu", "relu", "identity"], rng)
             for _ in range(n_heads)]
    return MultiHeadPredictor(heads=heads, outcome_mean=float(outcomes.mean()),
                              outcome_scale=float(max(outcomes.std(), 1.0)))


def init_phi_heads(d_r: int, outcomes: np.ndarray, config: TrainConfig,
                   namespace: str) -> tuple[DenseNet, MultiHeadPredictor, Adam]:
    """Glorot-initialised recipient encoder Phi and K heads, and the Adam
    that trains them (the ``opt`` of ``fit_phi_heads``).

    ``namespace`` names the RNG streams (``phi-init``/``heads-init``), so each
    caller keeps draws of its own.
    """
    phi = init_dense_net([d_r, HIDDEN, HIDDEN, REP_DIM], ["relu", "relu", "identity"],
                         rng_stream(config.seed, namespace, "phi-init"))
    predictor = init_heads(REP_DIM, config.k, outcomes,
                           rng_stream(config.seed, namespace, "heads-init"))
    return phi, predictor, Adam([phi, *predictor.heads], LEARNING_RATE, "Phi/heads")


def fit_phi_heads(phi: DenseNet | None, predictor: MultiHeadPredictor, opt: Adam,
                  x: np.ndarray, outcomes: np.ndarray, epoch_labels, beta: float,
                  config: TrainConfig, batches: str) -> list[tuple[float, float]]:
    """Train Phi (None: the heads read ``x`` itself) and the heads by Adam
    steps on L_f + beta*L_Phi, one epoch for each (n,) array of 0-based donor
    types in ``epoch_labels``, over minibatches drawn from the stream
    ``batches``. Returns each epoch's L_f and L_Phi, summed over its rows."""
    rng = rng_stream(config.seed, batches)
    sums = []
    for labels in epoch_labels:
        l_f_sum = l_rep_sum = 0.0
        for idx in minibatches(len(outcomes), config.batch_size, rng):
            l_f, l_rep, grads = phi_heads_loss_and_grads(phi, predictor, x[idx], outcomes[idx],
                                                         labels[idx], beta, config.k)
            opt.step(l_f + beta * l_rep, grads)
            l_f_sum += l_f * len(idx)
            l_rep_sum += l_rep * len(idx)
        sums.append((l_f_sum, l_rep_sum))
    return sums


def active_clusters(labels: np.ndarray, config: TrainConfig) -> np.ndarray:
    """The (K,) mask of the clusters that hold at least
    ``max(MIN_CLUSTER_COUNT, MIN_CLUSTER_FRAC * n)`` of the ``n`` training
    donors' 0-based ``labels``; every cluster when none does."""
    counts = np.bincount(labels, minlength=config.k)
    active = counts >= max(MIN_CLUSTER_COUNT, MIN_CLUSTER_FRAC * len(labels))
    return active if active.any() else np.ones(config.k, dtype=bool)


def train_joint(recipients: np.ndarray, donors: np.ndarray, outcomes: np.ndarray,
                config: TrainConfig):
    """Autoencoder pretrain and center init, then the joint epochs: DEC alone
    refines the donor map (``_dec_epochs``) and hands each epoch's labels to
    ``fit_phi_heads``, which steps Phi and the heads over the same
    minibatches. Returns (model, log), log holding one dict of the
    ``LOG_FIELDS`` per joint epoch: the epoch-mean loss terms, whether DEC
    refined the map, its label churn and its cluster counts joined by ";".
    """
    clusterer, decoder = pretrain_autoencoder(donors, config)
    phi, predictor, phi_opt = init_phi_heads(recipients.shape[1], outcomes, config, "matchrep")
    dec_log = []  # (L_DEC, refined, churn, counts) of each epoch

    def epoch_labels():
        for labels, *dec in _dec_epochs(clusterer, decoder, donors, config,
                                        "matchrep/joint-batches"):
            dec_log.append(dec)
            yield labels

    phi_log = fit_phi_heads(phi, predictor, phi_opt, recipients, outcomes, epoch_labels(),
                            config.beta, config, "matchrep/joint-batches")
    n = len(outcomes)
    log = [dict(zip(LOG_FIELDS, (epoch, l_f / n, l_dec / n, l_rep / n, refined, churn,
                                 ";".join(map(str, counts)))))
           for epoch, ((l_f, l_rep), (l_dec, refined, churn, counts))
           in enumerate(zip(phi_log, dec_log))]
    active = active_clusters(np.argmax(clusterer.scores(donors), axis=1), config)
    return MatchRepModel(name=JOINT, config=config, clusterer=clusterer, phi=phi,
                         predictor=predictor, active=active), log


def train_dec_standalone(donors: np.ndarray, config: TrainConfig) -> DonorClusterer:
    """DEC clustering of donors only (autoencoder pretrain, k-means centers,
    L_DEC refinement until it stops).

    Used by the decoupled ``dec`` baselines; follows the joint model's
    refinement schedule. Returns the trained ``dec`` DonorClusterer.
    """
    clusterer, decoder = pretrain_autoencoder(donors, config)
    for _, _, refined, _, _ in _dec_epochs(clusterer, decoder, donors, config,
                                           "matchrep/dec-standalone-batches"):
        if not refined:
            break
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
    Phi's output of the rows ``x``, or ``x`` itself when ``phi`` is None,
    one ``ROW_BLOCK`` of rows at a time."""
    mean, scale = predictor.outcome_mean, predictor.outcome_scale

    def block(rows):
        xprime = rows if phi is None else mlp_predict(phi, rows)
        return np.column_stack([mean + scale * mlp_predict(head, xprime)[:, 0]
                                for head in predictor.heads])

    return map_row_blocks(block, np.asarray(x, dtype=float))


predict_potential_batch = MatchRepModel.predict_potentials  # the name allocsim and perfbench call


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


MODEL_FORMAT = "organmatch-model-v13"
_ARRAY_DTYPES = ("float64", "bool")
# The dataclasses a model file may hold, by name; baselines adds the pair regressor's.
MODEL_TYPES = {t.__name__: t for t in (Layer, DenseNet, TrainConfig, DonorClusterer,
                                       MultiHeadPredictor, MatchRepModel)}


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


def _from_doc(doc):
    """Inverse of ``_to_doc``. Builds only the dataclasses in ``MODEL_TYPES``,
    from values of their fields' declared types, through their constructors,
    so their own checks run. Refuses a non-finite float, alone or in arrays."""
    if isinstance(doc, list):
        return [_from_doc(v) for v in doc]
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
    cls = MODEL_TYPES.get(doc["type"])
    if cls is None:
        raise ValueError(f"unknown type {doc['type']!r}")
    names = {f.name for f in fields(cls)}
    if set(doc) - {"type"} != names:
        raise ValueError(f"{cls.__name__} needs fields {sorted(names)}, "
                         f"got {sorted(set(doc) - {'type'})}")
    values = {name: _from_doc(doc[name]) for name in names}
    check_field_kinds(cls, values)
    return cls(**values)


def save_model(model, path, normalization: dict | None = None) -> None:
    """Write a model of any kind with the feature normalization it was
    trained on, which only the joint model's ``model.json`` carries."""
    doc = {"format": MODEL_FORMAT, "model": _to_doc(model), "normalization": normalization}
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def _load(path, kind: type) -> tuple:
    """(``kind`` model, whole document) of a file; a malformed one raises IngestionError."""
    try:
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"not an {MODEL_FORMAT} file")
        if not isinstance(doc["model"], dict) or doc["model"].get("type") != kind.__name__:
            raise ValueError(f"does not hold a {kind.__name__}")
        return _from_doc(doc["model"]), doc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise IngestionError(f"{path}: {exc!r}") from exc


def load_model(path, kind: type = MatchRepModel):
    """The ``kind`` model a model file holds; a malformed file, or one that
    holds another type, raises IngestionError."""
    return _load(path, kind)[0]


def load_model_and_normalization(path) -> tuple[MatchRepModel, Normalization]:
    """A cluster model and the feature normalization saved with it. Each is
    checked against the data it is used on, so each against the other."""
    model, doc = _load(path, MatchRepModel)
    try:
        return model, normalization_from_dict(doc["normalization"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"{path} lacks valid normalization statistics: {exc!r}") from exc
