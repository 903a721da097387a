"""Comparison models: decoupled clusterer/predictor pairs and pair regressors.

Cluster-predictor baselines first cluster donors (k-means, EM, or standalone
DEC, by ``matchrep.fit_clusterer``) and freeze the labels, then fit one
outcome predictor per cluster —
either a closed-form ridge-regularized linear head or a multi-head neural
network (optionally with the distribution-matching representation term).
Each is a ``matchrep.MatchRepModel``, the joint model's type, fitted one
part after another.
Pair regressors skip clustering entirely and regress the outcome on the
concatenated (recipient, donor) feature vector. Every fitted head but the
regression tree is a DenseNet in a ``matchrep.MultiHeadPredictor``, read by
``matchrep.predict_heads``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matchrep, numkit
from .datamodel import ConfigError, IngestionError
from .matchrep import MatchRepModel, MultiHeadPredictor, TrainConfig
from .numkit import Adam, DenseNet, Layer, minibatches, rng_stream

PREDICTORS = ("linear-per-head", "multihead-nn")
PAIR_KINDS = ("reg-nn", "reg-tree", "lasso", "ridge", "elasticnet")

RIDGE_PENALTY = 1e-3  # the linear heads'
PAIR_PENALTY, PAIR_L1_RATIO = 1.0, 0.5  # the linear pair regressors'
CD_DUALITY_GAP = 1e-6
CD_MAX_SWEEPS = 10000
TREE_MAX_DEPTH = 8
TREE_MIN_LEAF = 16


@dataclass(frozen=True)
class BaselineSpec:
    clusterer: str = "kmeans"
    predictor: str = "linear-per-head"
    with_rep: bool = False  # beta * L_Phi trains the multi-head NN too
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.clusterer not in matchrep.CLUSTERERS:
            raise ConfigError(f"clusterer must be one of {matchrep.CLUSTERERS}")
        if self.predictor not in PREDICTORS:
            raise ConfigError(f"predictor must be one of {PREDICTORS}")
        if self.with_rep and self.predictor != "multihead-nn":
            raise ConfigError(f"+rep needs the multihead-nn predictor; beta never enters "
                              f"a {self.predictor} head")

    @property
    def name(self) -> str:
        suffix = "+rep" if self.with_rep else ""
        return f"{self.clusterer}/{self.predictor}{suffix}"

    @classmethod
    def from_name(cls, name: str, train: TrainConfig) -> "BaselineSpec":
        """The spec of ``name`` (``<clusterer>/<predictor>[+rep]``, the
        inverse of ``.name``) training with ``train``."""
        base, plus, rep = name.partition("+")
        clusterer, slash, predictor = base.partition("/")
        if not slash or "/" in predictor or (plus and rep != "rep"):
            raise ConfigError(f"baseline {name!r} must look like 'kmeans/multihead-nn[+rep]'")
        return cls(clusterer=clusterer, predictor=predictor, with_rep=bool(plus), train=train)


# ---------------------------------------------------------------------------
# Cluster-predictor baselines
# ---------------------------------------------------------------------------


def _ridge_solve(x: np.ndarray, y: np.ndarray, penalty: float):
    """Closed-form ridge (w, b) with an unpenalized bias b; raises penalty if singular."""
    n, d = x.shape
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    lam = penalty
    for _ in range(40):
        a = xc.T @ xc + lam * n * np.eye(d)
        try:
            w = np.linalg.solve(a, xc.T @ yc)
            break
        except np.linalg.LinAlgError:
            warnings.warn("singular ridge system; penalty raised")
            lam *= 10.0
    else:
        raise numkit.TrainingDivergedError("ridge system unsolvable")
    b = y_mean - float(x_mean @ w)
    return w, b


def _linear_predictor(fits) -> MultiHeadPredictor:
    """The heads ``x @ w + b`` of the (w, b) ``fits``, each one identity Layer."""
    return MultiHeadPredictor(
        heads=[DenseNet([Layer(w.reshape(-1, 1), np.array([b]), "identity")]) for w, b in fits],
        outcome_mean=0.0, outcome_scale=1.0)


def _fit_ridge_heads(recipients, outcomes, labels, k) -> MultiHeadPredictor:
    fits = []
    for c in range(k):
        members = np.nonzero(labels == c)[0]
        if members.size < 2:
            warnings.warn(f"cluster {c} empty or singleton; falling back to global mean")
            fits.append((np.zeros(recipients.shape[1]), float(outcomes.mean())))
            continue
        fits.append(_ridge_solve(recipients[members], outcomes[members], RIDGE_PENALTY))
    return _linear_predictor(fits)


def _fit_heads(phi, predictor, opt, x, outcomes, labels, beta, cfg: TrainConfig, batches: str):
    """Train Phi (None: the heads read ``x`` itself) and the heads by
    ``cfg.joint_epochs`` epochs of ``matchrep.phi_heads_step`` on L_f +
    beta*L_Phi for the fixed ``labels``, the minibatches drawn from the
    stream ``baselines/<batches>``."""
    rng = rng_stream(cfg.seed, "baselines", batches)
    for _ in range(cfg.joint_epochs):
        for idx in minibatches(len(outcomes), cfg.batch_size, rng):
            matchrep.phi_heads_step(phi, predictor, opt, x[idx], outcomes[idx], labels[idx],
                                    beta, cfg)


def fit_cluster_predictor(recipients: np.ndarray, donors: np.ndarray,
                          outcomes: np.ndarray, spec: BaselineSpec) -> MatchRepModel:
    """Fit the donor clusterer, freeze its labels, then fit the predictor."""
    clusterer = matchrep.fit_clusterer(donors, spec.clusterer, spec.train)
    labels = np.argmax(clusterer.scores(donors), axis=1)
    if spec.predictor == "linear-per-head":
        phi, predictor = None, _fit_ridge_heads(recipients, outcomes, labels, spec.train.k)
    else:
        cfg = spec.train
        phi, predictor, opt = matchrep.init_phi_heads(recipients.shape[1], outcomes, cfg,
                                                      "baselines")
        _fit_heads(phi, predictor, opt, recipients, outcomes, labels,
                   cfg.beta if spec.with_rep else 0.0, cfg, "nn-batches")
    return MatchRepModel(name=spec.name, config=spec.train, clusterer=clusterer, phi=phi,
                         predictor=predictor, active=matchrep.active_clusters(labels, spec.train))


# ---------------------------------------------------------------------------
# Pair regressors
# ---------------------------------------------------------------------------


def _enet_cd(x: np.ndarray, y: np.ndarray, l1: float, l2: float):
    """Coordinate descent for (1/2n)||y - Xw - b||^2 + l1*||w||_1 + (l2/2)*||w||^2.

    The bias b is handled by centering. The l2 part is folded into an
    augmented lasso design so one duality-gap criterion covers both lasso
    and elastic net. Returns (w, b).
    """
    n, d = x.shape
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    if l2 > 0.0:
        xc = np.vstack([xc, np.sqrt(n * l2) * np.eye(d)])
        yc = np.concatenate([yc, np.zeros(d)])
    col_sq = np.sum(xc * xc, axis=0) / n
    w = np.zeros(d)
    resid = yc.copy()
    y_sq = float(yc @ yc)
    for _ in range(CD_MAX_SWEEPS):
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = float(xc[:, j] @ resid) / n + col_sq[j] * w[j]
            new = np.sign(rho) * max(abs(rho) - l1, 0.0) / col_sq[j]
            if new != w[j]:
                resid -= xc[:, j] * (new - w[j])
                w[j] = new
        # duality gap for the (augmented) lasso problem
        primal = float(resid @ resid) / (2 * n) + l1 * float(np.abs(w).sum())
        corr = np.abs(xc.T @ resid).max() / n if d else 0.0
        scale = min(1.0, l1 / corr) if corr > l1 else 1.0
        theta = scale * resid / n
        dual = float(theta @ yc) - n / 2 * float(theta @ theta)
        if primal - dual <= CD_DUALITY_GAP:
            break
    b = y_mean - float(x_mean @ w)
    return w, b


def _variance_reduction_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Best (feature, threshold) by squared-error reduction, or None."""
    n, d = x.shape
    best = None
    best_score = np.inf
    for j in range(d):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total_sum, total_sq = csum[-1], csq[-1]
        for i in range(min_leaf, n - min_leaf + 1):
            if i < n and xs[i - 1] == xs[i]:
                continue  # cannot split between equal values
            left_sum, left_sq = csum[i - 1], csq[i - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            sse = (left_sq - left_sum ** 2 / i) + (right_sq - right_sum ** 2 / (n - i))
            if sse < best_score - 1e-12:
                best_score = sse
                threshold = 0.5 * (xs[i - 1] + xs[i]) if i < n else xs[i - 1]
                best = (j, float(threshold))
    return best


@dataclass
class TreeNode:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("a tree node needs both children or neither")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def split_features(self) -> list[int]:
        """The feature of every split node, this one first."""
        return [] if self.is_leaf else [self.feature, *self.left.split_features(),
                                        *self.right.split_features()]


def _grow_tree(x, y, depth, max_depth, min_leaf):
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_leaf or np.ptp(y) == 0.0:
        return node
    split = _variance_reduction_split(x, y, min_leaf)
    if split is None:
        return node
    j, thr = split
    mask = x[:, j] <= thr
    node.feature, node.threshold = j, thr
    node.left = _grow_tree(x[mask], y[mask], depth + 1, max_depth, min_leaf)
    node.right = _grow_tree(x[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def _tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf or idx.size == 0:
            out[idx] = nd.value
            continue
        mask = x[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out


@dataclass
class PairRegressor:
    kind: str
    tree: TreeNode | None = None  # reg-tree
    predictor: MultiHeadPredictor | None = None  # one head over the pairs; the other kinds

    def __post_init__(self):
        fitted = self.tree if self.kind == "reg-tree" else self.predictor
        one_head = self.predictor is None or (len(self.predictor.heads) == 1
                                              and self.predictor.input_width() is not None)
        if self.kind not in PAIR_KINDS or fitted is None or not one_head:
            raise ValueError(f"a {self.kind!r} pair regressor lacks its fitted field or head")

    def predict(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
        if self.kind == "reg-tree":
            return _tree_predict(self.tree, pairs)
        return matchrep.predict_heads(None, self.predictor, pairs)[:, 0]


def fit_pair_regressor(recipients: np.ndarray, donors: np.ndarray, outcomes: np.ndarray,
                       kind: str, config: TrainConfig | None = None) -> PairRegressor:
    """Fit a direct (recipient, donor) -> outcome regressor."""
    if kind not in PAIR_KINDS:
        raise ValueError(f"kind must be one of {PAIR_KINDS}")
    pairs = np.hstack([recipients, donors])
    outcomes = np.asarray(outcomes, dtype=float)
    if kind == "reg-tree":
        tree = _grow_tree(pairs, outcomes, 0, TREE_MAX_DEPTH, TREE_MIN_LEAF)
        return PairRegressor(kind=kind, tree=tree)
    if kind == "reg-nn":  # one head over the pairs, the only donor type of a Phi-less model
        config = config or TrainConfig()
        predictor = matchrep.init_heads(pairs.shape[1], 1, outcomes, config.hidden,
                                        rng_stream(config.seed, "baselines", "regnn-init"))
        _fit_heads(None, predictor, Adam(predictor.heads, config.learning_rate, "reg-nn"), pairs,
                   outcomes, np.zeros(len(outcomes), dtype=int), 0.0, config, "regnn-batches")
        return PairRegressor(kind=kind, predictor=predictor)
    if kind == "ridge":
        fit = _ridge_solve(pairs, outcomes, PAIR_PENALTY)
    else:  # the lasso is the elastic net at an l1 ratio of 1
        l1_ratio = 1.0 if kind == "lasso" else PAIR_L1_RATIO
        fit = _enet_cd(pairs, outcomes, l1=PAIR_PENALTY * l1_ratio,
                       l2=PAIR_PENALTY * (1.0 - l1_ratio))
    return PairRegressor(kind=kind, predictor=_linear_predictor([fit]))


# ---------------------------------------------------------------------------
# Serialization: matchrep's one model-file codec
# ---------------------------------------------------------------------------

_MODEL_TYPES = matchrep._MODEL_TYPES + (TreeNode, PairRegressor)

# A cluster-predictor baseline is a MatchRepModel, saved with no normalization.
save_cluster_predictor = matchrep.save_model
load_cluster_predictor = matchrep.load_model


def save_pair_regressor(model: PairRegressor, path) -> None:
    matchrep._save(model, path)


def load_pair_regressor(path) -> PairRegressor:
    return matchrep._load(path, PairRegressor, _MODEL_TYPES)[0]


def check_input_widths(model, path, d_r: int, d_o: int) -> None:
    """Raise IngestionError naming ``path``, the file the cluster model or
    pair regressor ``model`` was read from, unless it takes ``d_r`` recipient
    and ``d_o`` donor features; a tree, unless it splits on those features
    only."""
    if isinstance(model, MatchRepModel):
        got, want = model.input_widths(), (d_r, d_o)
    elif model.kind == "reg-tree":
        features = model.tree.split_features()
        if any(not 0 <= f < d_r + d_o for f in features):
            raise IngestionError(f"{path}: split features {features}, the data has {d_r + d_o}")
        return
    else:
        got, want = model.predictor.input_width(), d_r + d_o
    if got != want:
        raise IngestionError(f"{path}: input widths {got}, the data has {want}")
