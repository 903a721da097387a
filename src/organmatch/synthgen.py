"""Synthetic and semi-synthetic data generation.

The synthetic generative model: recipients come from a 2-component Gaussian
mixture (types m in {1, 2}), donors from a 3-component mixture (types k in
{1, 2, 3}); a biased matching table P(k|m) pairs them, and each recipient
draws a full potential-outcome vector (one survival time per donor type)
from per-(m, k) normals. The factual outcome is the potential at the
factually matched donor type, so the counterfactual oracle is exact.

For ingested real-world-shaped tables where no counterfactual ground truth
exists, :func:`semi_synthetic_outcomes` overwrites outcomes with a surrogate
model: donors are clustered into pseudo-types by k-means and each pseudo-type
response is a frozen random linear-softplus function of recipient features.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datamodel import ConfigError, Dataset
from .numkit import kmeans_fit, rng_stream

# The semi-synthetic outcome scale and normal untreated survival (mean, sd), in days.
SEMI_SCALE, SEMI_UNTREATED_MEAN, SEMI_UNTREATED_SD = 400.0, 400.0, 50.0


@dataclass(frozen=True)
class SyntheticConfig:
    n: int = 5000
    seed: int = 0
    recipient_type_weights: list[float] = field(default_factory=lambda: [0.5, 0.5])
    # match_table[m-1][k-1] = P(k | m)
    match_table: list[list[float]] = field(
        default_factory=lambda: [[0.6, 0.2, 0.2], [0.1, 0.7, 0.2]])
    recipient_means: list[list[float]] = field(
        default_factory=lambda: [[-2.0, 0.0], [2.0, 0.0]])
    recipient_vars: list[list[float]] = field(
        default_factory=lambda: [[1.0, 1.0], [1.0, 1.0]])
    donor_means: list[list[float]] = field(
        default_factory=lambda: [[-2.0, -2.0], [2.0, 2.0], [3.0, 1.0]])
    donor_vars: list[list[float]] = field(
        default_factory=lambda: [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    # outcome_means[m-1][k-1] = mean survival days; outcome_vars are variances
    outcome_means: list[list[float]] = field(
        default_factory=lambda: [[500.0, 1000.0, 1100.0], [100.0, 800.0, 900.0]])
    outcome_vars: list[list[float]] = field(
        default_factory=lambda: [[50.0, 100.0, 100.0], [10.0, 100.0, 100.0]])
    # Mean untreated survival per recipient type: exponential, truncated at 1
    # day. The memoryless law keeps a waitlisted recipient's expected
    # remaining survival independent of how long they have already waited,
    # which is what makes first-come-first-serve and benefit-first
    # allocation genuinely different policies.
    untreated_means: list[float] = field(default_factory=lambda: [400.0, 350.0])

    @property
    def n_recipient_types(self) -> int:
        return len(self.recipient_type_weights)

    @property
    def n_donor_types(self) -> int:
        return len(self.match_table[0])

    def _table(self, name: str, shape: tuple) -> np.ndarray:
        """Field ``name`` as an array of finite numbers of ``shape``; None
        stands for any extent of at least one."""
        try:
            table = np.asarray(getattr(self, name), dtype=float)
        except ValueError:
            raise ConfigError(f"{name} is not a table of numbers") from None
        if (table.ndim != len(shape) or 0 in table.shape or not np.all(np.isfinite(table))
                or any(want not in (None, got) for want, got in zip(shape, table.shape))):
            raise ConfigError(f"{name} must hold finite numbers in shape {shape}, "
                              f"not {table.shape}")
        return table

    def __post_init__(self):
        if self.n < 0:
            raise ConfigError("n must be >= 0")
        weights = self._table("recipient_type_weights", (None,))
        m = len(weights)
        match = self._table("match_table", (m, None))
        k = match.shape[1]
        if abs(weights.sum() - 1.0) > 1e-9 or weights.min() < 0:
            raise ConfigError("recipient_type_weights must be a probability vector")
        if np.any(np.abs(match.sum(axis=1) - 1.0) > 1e-9) or match.min() < 0:
            raise ConfigError("each match_table row must be a probability vector")
        r_shape = self._table("recipient_means", (m, None)).shape
        d_shape = self._table("donor_means", (k, None)).shape
        self._table("outcome_means", (m, k))
        for name, shape in (("recipient_vars", r_shape), ("donor_vars", d_shape),
                            ("outcome_vars", (m, k)), ("untreated_means", (m,))):
            if self._table(name, shape).min() <= 0:
                raise ConfigError(f"{name} must be positive")


def paper_preset(n: int = 5000, seed: int = 0) -> SyntheticConfig:
    """The default replication configuration (preset name ``paper-5.1``)."""
    return SyntheticConfig(n=n, seed=seed)


def sample_dataset(config: SyntheticConfig) -> Dataset:
    """Draw n recipient-donor pairs with full counterfactual ground truth."""
    rng = rng_stream(config.seed, "synthgen", "sample")
    n = config.n
    n_k = config.n_donor_types
    weights = np.asarray(config.recipient_type_weights)
    match = np.asarray(config.match_table)

    m_idx = rng.choice(config.n_recipient_types, size=n, p=weights)  # 0-based
    r_means = np.asarray(config.recipient_means)[m_idx]
    r_sds = np.sqrt(np.asarray(config.recipient_vars))[m_idx]
    recipients = rng.normal(r_means, r_sds)

    # k | m, then donor features from component k
    k_idx = np.empty(n, dtype=int)
    for m in range(config.n_recipient_types):
        mask = m_idx == m
        k_idx[mask] = rng.choice(n_k, size=int(mask.sum()), p=match[m])
    d_means = np.asarray(config.donor_means)[k_idx]
    d_sds = np.sqrt(np.asarray(config.donor_vars))[k_idx]
    donors = rng.normal(d_means, d_sds)

    out_means = np.asarray(config.outcome_means)[m_idx]  # (n, K)
    out_sds = np.sqrt(np.asarray(config.outcome_vars))[m_idx]
    potentials = rng.normal(out_means, out_sds)
    outcomes = potentials[np.arange(n), k_idx]

    untreated = np.maximum(rng.exponential(np.asarray(config.untreated_means)[m_idx]), 1.0)

    return Dataset(
        recipients=recipients,
        donors=donors,
        outcomes=outcomes,
        recipient_names=[f"x{i}" for i in range(recipients.shape[1])],
        donor_names=[f"x{i}" for i in range(donors.shape[1])],
        true_potentials=potentials,
        untreated_survival=untreated,
        true_recipient_type=m_idx + 1,
        true_donor_type=k_idx + 1,
    )


def semi_synthetic_outcomes(dataset: Dataset, k: int, seed: int,
                            noise_sd: float = 10.0) -> Dataset:
    """Surrogate outcome model for real-feature tables.

    Donors are clustered into ``k`` pseudo-types by k-means; pseudo-type j's
    potential outcome is softplus(w_j . x_r + b_j) * SEMI_SCALE days plus
    Gaussian noise, with (w_j, b_j) drawn once from the seed and frozen. The
    factual outcome is overwritten with the potential at the factual donor's
    pseudo-type, so the counterfactual oracle is exact by construction.
    """
    rng = rng_stream(seed, "synthgen", "semi")
    centers, labels, _ = kmeans_fit(dataset.donors, k, rng_stream(seed, "synthgen", "semi-kmeans"))
    d_r = dataset.d_r
    w = rng.normal(0.0, 1.0 / np.sqrt(max(d_r, 1)), size=(k, d_r))
    b = rng.normal(0.0, 0.5, size=k)
    z = dataset.recipients @ w.T + b  # (n, k)
    potentials = np.logaddexp(0.0, z) * SEMI_SCALE + rng.normal(0.0, noise_sd, size=z.shape)
    potentials = np.maximum(potentials, 1.0)
    outcomes = potentials[np.arange(len(dataset)), labels]
    untreated = np.maximum(rng.normal(SEMI_UNTREATED_MEAN, SEMI_UNTREATED_SD, size=len(z)), 1.0)
    return replace(dataset, outcomes=outcomes, true_potentials=potentials,
                   untreated_survival=untreated, true_recipient_type=None,
                   true_donor_type=labels + 1)
