"""Sequential donor-arrival allocation simulator.

Recipient i joins the waitlist at step i; its factually matched donor
arrives at step ``i + lag`` with an integer lag drawn uniformly from
``[0, lag_window]``. At every donor arrival the active policy selects one
waiting recipient (an empty waitlist discards the donor). Between steps each
waiting recipient's remaining untreated survival shrinks by
``days_per_step`` days; reaching zero is a waitlist death. Realized
post-transplant survival comes from the dataset's ground-truth potential of
the (recipient, donor true type) pair, so all policies are compared under
one outcome oracle.

Policies: ``real`` (replay the factual pairing), ``fcfs``, ``uf``
(utility-first: max predicted survival), ``bf`` (benefit-first: max
predicted survival gain over remaining untreated survival), and
model-guided ``matching-fcfs`` / ``matching-uf`` / ``matching-bf`` variants
that first restrict candidates to recipients whose predicted best donor
type equals the donor's type (falling back to the unrestricted rule when no
candidate matches). Ties are always broken by earliest arrival, then by
record index.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import matchrep
from .datamodel import Dataset
from .numkit import rng_stream

POLICIES = ("real", "fcfs", "uf", "bf", "matching-fcfs", "matching-uf", "matching-bf")


class PolicyConfigError(ValueError):
    pass


@dataclass
class SimConfig:
    lag_window: int = 50
    days_per_step: float = 5.0
    # Fraction of factual donors that actually arrive. A shortfall (< 1)
    # creates organ scarcity, the regime in which allocation policies
    # meaningfully trade off who is transplanted; with a full donor supply
    # nearly every recipient is eventually served under any policy and the
    # policies become statistically indistinguishable.
    donor_fraction: float = 0.6

    def validate(self) -> None:
        if self.lag_window < 0:
            raise PolicyConfigError("lag_window must be >= 0")
        if self.days_per_step <= 0:
            raise PolicyConfigError("days_per_step must be positive")
        if not 0.0 < self.donor_fraction <= 1.0:
            raise PolicyConfigError("donor_fraction must be in (0, 1]")


@dataclass
class EventStream:
    donor_arrivals: list[tuple[int, int]]  # (step, donor row id), step-ordered
    recipient_arrivals: list[tuple[int, int]]  # (step, recipient row id)
    factual_map: dict[int, int]  # donor row id -> recipient row id
    n: int


def build_stream(dataset: Dataset, config: SimConfig, seed: int) -> EventStream:
    """Recipient i arrives at step i; its factual donor at step i + lag."""
    config.validate()
    if not dataset.has_ground_truth:
        raise PolicyConfigError("simulation needs a ground-truth oracle dataset")
    n = len(dataset)
    rng = rng_stream(seed, "allocsim", "stream")
    lags = rng.integers(0, config.lag_window + 1, size=n)
    kept = rng.random(n) < config.donor_fraction
    donor_arrivals = sorted((int(i + lags[i]), i) for i in range(n) if kept[i])
    recipient_arrivals = [(i, i) for i in range(n)]
    return EventStream(donor_arrivals=donor_arrivals,
                       recipient_arrivals=recipient_arrivals,
                       factual_map={i: i for i in range(n) if kept[i]},
                       n=n)


@dataclass
class GuidedPolicy:
    """Precomputed model guidance: learned type per donor row and predicted
    best donor type per recipient row."""

    donor_types: np.ndarray  # (n,)
    best_types: np.ndarray  # (n,)


@dataclass
class LedgerRow:
    recipient_id: int
    arrival: int
    fate: str  # "transplanted" | "dead" | "waiting"
    step_of_fate: int
    donor_id: int  # -1 if none
    realized_survival: float | None
    benefit: float | None


@dataclass
class SimReport:
    policy: str
    n: int
    n_transplanted: int
    n_dead: int
    n_waiting: int
    death_rate: float
    avg_survival: float | None
    avg_benefit: float | None
    assigned_donor: np.ndarray = field(repr=False)  # (n,) donor row id or -1
    ledger: list[LedgerRow] = field(repr=False, default_factory=list)

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "n": self.n,
            "n_transplanted": self.n_transplanted,
            "n_dead": self.n_dead,
            "n_waiting": self.n_waiting,
            "death_rate": self.death_rate,
            "avg_survival": self.avg_survival,
            "avg_benefit": self.avg_benefit,
        }


def write_ledger_csv(report: SimReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["recipient_id", "arrival", "fate", "step_of_fate",
                         "donor_id", "realized_survival", "benefit"])
        for row in report.ledger:
            writer.writerow([row.recipient_id, row.arrival, row.fate, row.step_of_fate,
                             row.donor_id,
                             "" if row.realized_survival is None else repr(row.realized_survival),
                             "" if row.benefit is None else repr(row.benefit)])


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------


def oracle_mean_scorer(dataset: Dataset, outcome_means) -> "callable":
    """True-potential-mean scorer: score(i, donor) = E[y | m_i, k_donor]."""
    if dataset.true_recipient_type is None or dataset.true_donor_type is None:
        raise PolicyConfigError("oracle scorer needs true type labels")
    means = np.asarray(outcome_means, dtype=float)
    m0 = dataset.true_recipient_type - 1
    k0 = dataset.true_donor_type - 1

    def score(recipient_ids: np.ndarray, donor_id: int) -> np.ndarray:
        return means[m0[recipient_ids], k0[donor_id]]

    return score


def model_scorer(model: "matchrep.MatchRepModel", dataset: Dataset) -> "callable":
    """Scorer from a trained matching-representation model (precomputed)."""
    pred = matchrep.predict_potential_batch(model, dataset.recipients)
    donor_types, _ = matchrep.donor_type_batch(model, dataset.donors)

    def score(recipient_ids: np.ndarray, donor_id: int) -> np.ndarray:
        return pred[recipient_ids, donor_types[donor_id]]

    return score


def model_guide(model: "matchrep.MatchRepModel", dataset: Dataset) -> GuidedPolicy:
    donor_types, _ = matchrep.donor_type_batch(model, dataset.donors)
    best_types = matchrep.best_donor_type_batch(model, dataset.recipients)
    return GuidedPolicy(donor_types=donor_types, best_types=best_types)


# ---------------------------------------------------------------------------
# Policy selection and the simulation loop
# ---------------------------------------------------------------------------


def policy_select(policy: str, waiting_ids: np.ndarray, arrivals: np.ndarray,
                  remaining: np.ndarray, donor_id: int, scorer,
                  factual_map: dict[int, int] | None,
                  guide: GuidedPolicy | None):
    """Pick one waiting recipient row id, or None.

    ``waiting_ids``, ``arrivals``, ``remaining`` are aligned snapshots of the
    current waitlist.
    """
    if policy not in POLICIES:
        raise PolicyConfigError(f"unknown policy {policy!r}")
    if waiting_ids.size == 0:
        return None
    if policy == "real":
        if factual_map is None:
            raise PolicyConfigError("real policy needs a factual assignment map")
        partner = factual_map.get(donor_id)
        return partner if partner is not None and partner in set(waiting_ids.tolist()) else None

    inner = policy
    candidates = np.arange(waiting_ids.size)
    if policy.startswith("matching-"):
        if guide is None:
            raise PolicyConfigError("matching policies need model guidance")
        inner = policy.split("-", 1)[1]
        match = guide.best_types[waiting_ids] == guide.donor_types[donor_id]
        if np.any(match):
            candidates = np.nonzero(match)[0]

    if inner == "fcfs":
        key = np.lexsort((waiting_ids[candidates], arrivals[candidates]))
        return int(waiting_ids[candidates[key[0]]])
    if scorer is None:
        raise PolicyConfigError(f"policy {policy!r} needs a scorer")
    scores = np.asarray(scorer(waiting_ids[candidates], donor_id), dtype=float)
    if inner == "bf":
        scores = scores - remaining[candidates]
    # argmax with ties broken by earliest arrival then record index
    order = np.lexsort((waiting_ids[candidates], arrivals[candidates], -scores))
    return int(waiting_ids[candidates[order[0]]])


def run_policy(dataset: Dataset, stream: EventStream, policy: str, config: SimConfig,
               scorer=None, guide: GuidedPolicy | None = None) -> SimReport:
    """Process the stream under one policy and aggregate the report."""
    config.validate()
    if not dataset.has_ground_truth:
        raise PolicyConfigError("simulation needs a ground-truth oracle dataset")
    n = stream.n
    true_k0 = dataset.true_donor_type - 1

    remaining = dataset.untreated_survival.copy()
    arrival_step = np.array([step for step, _ in sorted(stream.recipient_arrivals,
                                                        key=lambda sr: sr[1])])
    status = np.full(n, "waiting", dtype=object)
    fate_step = np.full(n, -1)
    assigned_donor = np.full(n, -1)
    realized = np.full(n, np.nan)
    benefit = np.full(n, np.nan)

    donors_by_step: dict[int, list[int]] = {}
    for step, donor_id in stream.donor_arrivals:
        donors_by_step.setdefault(step, []).append(donor_id)
    recipients_by_step: dict[int, list[int]] = {}
    for step, rec_id in stream.recipient_arrivals:
        recipients_by_step.setdefault(step, []).append(rec_id)
    # no donor arrives: no allocation step runs and every recipient stays waiting
    last_step = max((step for step, _ in stream.donor_arrivals), default=-1)

    waiting: list[int] = []
    for step in range(last_step + 1):
        for rec_id in recipients_by_step.get(step, ()):
            waiting.append(rec_id)
        for donor_id in sorted(donors_by_step.get(step, ())):
            if not waiting:
                continue
            ids = np.array(waiting)
            chosen = policy_select(policy, ids, arrival_step[ids], remaining[ids],
                                   donor_id, scorer, stream.factual_map, guide)
            if chosen is None:
                continue
            waiting.remove(chosen)
            status[chosen] = "transplanted"
            fate_step[chosen] = step
            assigned_donor[chosen] = donor_id
            realized[chosen] = dataset.true_potentials[chosen, true_k0[donor_id]]
            benefit[chosen] = realized[chosen] - remaining[chosen]
        # advance the death clock
        still = []
        for rec_id in waiting:
            remaining[rec_id] -= config.days_per_step
            if remaining[rec_id] <= 0.0:
                status[rec_id] = "dead"
                fate_step[rec_id] = step
            else:
                still.append(rec_id)
        waiting = still

    transplanted = status == "transplanted"
    dead = status == "dead"
    ledger = [LedgerRow(
        recipient_id=i,
        arrival=int(arrival_step[i]),
        fate=str(status[i]),
        step_of_fate=int(fate_step[i]),
        donor_id=int(assigned_donor[i]),
        realized_survival=float(realized[i]) if transplanted[i] else None,
        benefit=float(benefit[i]) if transplanted[i] else None,
    ) for i in range(n)]
    n_t = int(transplanted.sum())
    return SimReport(
        policy=policy,
        n=n,
        n_transplanted=n_t,
        n_dead=int(dead.sum()),
        n_waiting=int(n - transplanted.sum() - dead.sum()),
        death_rate=float(dead.sum()) / n,
        avg_survival=float(realized[transplanted].mean()) if n_t else None,
        avg_benefit=float(benefit[transplanted].mean()) if n_t else None,
        assigned_donor=assigned_donor,
        ledger=ledger,
    )


def assigned_true_types(dataset: Dataset, report: SimReport) -> np.ndarray:
    """Per-recipient 1-based true type of the assigned donor, -1 if none."""
    out = np.full(report.n, -1)
    mask = report.assigned_donor >= 0
    out[mask] = dataset.true_donor_type[report.assigned_donor[mask]]
    return out
