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
``matchrep.predict_heads``. ``fit_model`` fits every model kind by its name.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matchrep, numkit
from .datamodel import ConfigError, Dataset, IngestionError
from .matchrep import MatchRepModel, MultiHeadPredictor, TrainConfig
from .numkit import Adam, DenseNet, Layer, rng_stream

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
        matchrep.fit_phi_heads(phi, predictor, opt, recipients, outcomes,
                               itertools.repeat(labels, cfg.joint_epochs),
                               cfg.beta if spec.with_rep else 0.0, cfg, "baselines/nn-batches")
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

    name = property(lambda self: self.kind)  # as a cluster model's name

    def predict(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.atleast_2d(np.asarray(pairs, dtype=float))
        if self.kind == "reg-tree":
            return _tree_predict(self.tree, pairs)
        return matchrep.predict_heads(None, self.predictor, pairs)[:, 0]

    def predict_pairs(self, recipients: np.ndarray, donors: np.ndarray) -> np.ndarray:
        """(n,) predicted days of each recipient with its row's donor."""
        return self.predict(np.hstack([recipients, donors]))

    def predict_types(self, recipients: np.ndarray, donors: np.ndarray):
        """No donor types: one column of pair predictions, every label 0, no best types."""
        return (self.predict_pairs(recipients, donors)[:, None],
                np.zeros(len(recipients), dtype=int), None)

    def check_input_widths(self, path, d_r: int, d_o: int) -> None:
        """As ``MatchRepModel.check_input_widths``, for pairs of ``d_r + d_o``
        features; a tree is refused only if it splits on a feature beyond them."""
        width = d_r + d_o
        if self.tree is not None:
            features = self.tree.split_features()
            if any(not 0 <= f < width for f in features):
                raise IngestionError(f"{path}: split features {features}, the data has {width}")
        elif (got := self.predictor.input_width()) != width:
            raise IngestionError(f"{path}: input widths {got}, the data has {width}")


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
        predictor = matchrep.init_heads(pairs.shape[1], 1, outcomes,
                                        rng_stream(config.seed, "baselines", "regnn-init"))
        labels = np.zeros(len(outcomes), dtype=int)
        matchrep.fit_phi_heads(None, predictor, Adam(predictor.heads, matchrep.LEARNING_RATE,
                                                     "reg-nn"), pairs, outcomes,
                               itertools.repeat(labels, config.joint_epochs), 0.0, config,
                               "baselines/regnn-batches")
        return PairRegressor(kind=kind, predictor=predictor)
    if kind == "ridge":
        fit = _ridge_solve(pairs, outcomes, PAIR_PENALTY)
    else:  # the lasso is the elastic net at an l1 ratio of 1
        l1_ratio = 1.0 if kind == "lasso" else PAIR_L1_RATIO
        fit = _enet_cd(pairs, outcomes, l1=PAIR_PENALTY * l1_ratio,
                       l2=PAIR_PENALTY * (1.0 - l1_ratio))
    return PairRegressor(kind=kind, predictor=_linear_predictor([fit]))


# ---------------------------------------------------------------------------
# Every model kind
# ---------------------------------------------------------------------------


def fit_model(name: str, train: Dataset, config: TrainConfig):
    """Fit the joint model (``matchrep.JOINT``), a ``PAIR_KINDS`` pair regressor
    or a ``BaselineSpec``-named baseline on ``train`` with ``config``; returns
    (model, training log: the joint model's, None for any other). Each fit
    function is looked up when called, so a patched or traced one runs."""
    data = (train.recipients, train.donors, train.outcomes)
    if name == matchrep.JOINT:
        return matchrep.train_joint(*data, config)
    if name in PAIR_KINDS:
        return fit_pair_regressor(*data, name, config=config), None
    try:
        spec = BaselineSpec.from_name(name, config)
    except ConfigError as exc:
        raise ConfigError(f"model {name!r} is not {matchrep.JOINT!r}, a pair kind in "
                          f"{PAIR_KINDS} or a valid baseline: {exc}") from exc
    return fit_cluster_predictor(*data, spec), None


matchrep.MODEL_TYPES.update({t.__name__: t for t in (TreeNode, PairRegressor)})  # codec allow-list
# The old writers and readers, which the benchmark's workloads still call.
save_cluster_predictor = save_pair_regressor = matchrep.save_model
load_cluster_predictor = matchrep.load_model
load_pair_regressor = functools.partial(matchrep.load_model, kind=PairRegressor)
