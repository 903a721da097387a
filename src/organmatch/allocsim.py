"""Sequential donor-arrival allocation simulator.

Recipient i joins the waitlist at step i; its factually matched donor,
donor i, arrives at step ``i + lag`` with an integer lag drawn uniformly
from ``[0, lag_window]``. At every donor arrival the active policy selects
one waiting recipient (an empty waitlist discards the donor).

Death clock: ``t`` steps after arrival a waiting recipient with untreated
survival ``r`` has ``r − t·d`` days left, ``d = days_per_step``. For the
first ``t ≥ 1`` with ``r − t·d ≤ 0`` the recipient dies at the end of step
``arrival + t − 1`` (a donor arriving in that step can still save it).
Only donor arrivals are events: each recipient's death step is computed
once, before the first of them. For an integer-valued ``d`` (the default
5.0 included) ``r − t·d`` equals ``t`` repeated subtractions of ``d`` bit
for bit, because ``x − d`` is exact for ``d ≤ x < 2^53``; the same holds
for a dyadic ``d = m/2^e`` below ``2^(53−e)``. For other step sizes, such
as 0.3, the closed form rounds once where repeated subtraction drifts.

Realized post-transplant survival comes from the dataset's ground-truth
potential of the (recipient, donor true type) pair, so all policies are
compared under one outcome oracle. A report stores only the policy's
decisions; its summary, survival and benefit are read from them and that
oracle when asked.

Policies: ``real`` (replay the factual pairing), ``fcfs``, ``uf``
(utility-first: max predicted survival), ``bf`` (benefit-first: max
predicted survival gain over remaining untreated survival), and
model-guided ``matching-fcfs`` / ``matching-uf`` / ``matching-bf`` variants
that first restrict candidates to recipients whose predicted best donor
type equals the donor's type (falling back to the unrestricted rule when no
candidate matches). Ties go to the earliest arrival, the lowest record
index. ``real`` needs no waitlist: donor i can only go to recipient i, which
waits from step i to its death step, so the replay is computed from the
event arrays at once; the other six policies share one loop over the donor
arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import matchrep
from .datamodel import ConfigError, Dataset, IngestionError, write_table
from .numkit import rng_stream

INT32_MAX = int(np.iinfo(np.int32).max)  # the last step and row id a report can hold
POLICIES = ("real", "fcfs", "uf", "bf", "matching-fcfs", "matching-uf", "matching-bf")


@dataclass(frozen=True)
class SimConfig:
    lag_window: int = 50
    days_per_step: float = 5.0
    # Fraction of factual donors that actually arrive. A shortfall (< 1)
    # creates organ scarcity, the regime in which allocation policies
    # meaningfully trade off who is transplanted; with a full donor supply
    # nearly every recipient is eventually served under any policy and the
    # policies become statistically indistinguishable.
    donor_fraction: float = 0.6

    def __post_init__(self):
        if self.lag_window < 0:
            raise ConfigError("lag_window must be >= 0")
        if not 0.0 < self.days_per_step < np.inf:
            raise ConfigError("days_per_step must be positive and finite")
        if not 0.0 < self.donor_fraction <= 1.0:
            raise ConfigError("donor_fraction must be in (0, 1]")


@dataclass
class EventStream:
    """Recipient i arrives at step i; donor i is its factual partner."""

    donor_arrivals: np.ndarray  # (m, 2) int64 rows of (step, donor row id), step-ordered
    n: int

    def __post_init__(self):
        self.donor_arrivals = np.asarray(self.donor_arrivals, dtype=np.int64).reshape(-1, 2)


def build_stream(dataset: Dataset, config: SimConfig, seed: int) -> EventStream:
    """Recipient i arrives at step i; its factual donor at step i + lag.
    Arrivals are ordered by step, then by donor."""
    if not dataset.has_ground_truth:
        raise ConfigError("simulation needs a ground-truth oracle dataset")
    n = len(dataset)
    rng = rng_stream(seed, "allocsim", "stream")
    lags = rng.integers(0, config.lag_window + 1, size=n)
    donors = np.flatnonzero(rng.random(n) < config.donor_fraction)
    steps = donors + lags[donors]
    order = np.lexsort((donors, steps))
    return EventStream(donor_arrivals=np.column_stack((steps, donors))[order], n=n)


@dataclass(frozen=True)
class GuidedPolicy:
    """Precomputed model guidance: learned type per donor row and predicted
    best donor type per recipient row. ``prefers[t]``, built once here, is
    the (n,) bool row of the recipients whose best type is ``t``, for every
    type in either array; a donor type that no recipient prefers has an
    all-False row."""

    donor_types: np.ndarray  # (n,)
    best_types: np.ndarray  # (n,)
    prefers: np.ndarray = field(init=False, repr=False)  # (K, n) bool

    def __post_init__(self):
        k = max(np.max(self.donor_types, initial=-1), np.max(self.best_types, initial=-1)) + 1
        object.__setattr__(self, "prefers", np.arange(k)[:, None] == self.best_types)


@dataclass
class LedgerRow:
    """One ledger line, as ``SimReport.ledger`` builds it from the columns."""

    recipient_id: int
    fate: str  # "transplanted" | "dead" | "waiting"
    step_of_fate: int
    donor_id: int  # -1 if none
    realized_survival: float | None
    benefit: float | None
    arrival = property(lambda self: self.recipient_id)  # recipient i arrived at step i


LEDGER_FIELDS = tuple(f.name for f in fields(LedgerRow))  # the ledger CSV's columns
FATES = ("waiting", "dead", "transplanted")  # the codes of ``SimReport.fate``
# The summary of a report, in the order of ``summary()`` and of policy_table.csv's columns.
SUMMARY_FIELDS = ("policy", "n", "n_transplanted", "n_dead", "n_waiting", "death_rate",
                  "avg_survival", "avg_benefit")


@dataclass
class SimReport:
    """What one policy decided for each recipient (recipient i arrived at
    step i), and the summary read from those decisions. Survival and
    benefit are not stored: ``outcomes`` reads them from the dataset's
    ground truth, which the report references, not copies."""

    policy: str
    fate: np.ndarray = field(repr=False)  # (n,) int8 index into FATES
    fate_step: np.ndarray = field(repr=False)  # (n,) int32 step of the fate, -1 while waiting
    assigned_donor: np.ndarray = field(repr=False)  # (n,) int32 donor row id or -1
    dataset: Dataset = field(repr=False)  # the ground-truth oracle the policy ran against
    days_per_step: float = field(repr=False)

    # The summary, read from the decisions when asked: n and the counts are
    # ints, death_rate is a float, None when there is no recipient, and the
    # averages are floats, None when no one was transplanted.
    n = property(lambda self: self.fate.size)
    n_transplanted = property(lambda self: self._count("transplanted"))
    n_dead = property(lambda self: self._count("dead"))
    n_waiting = property(lambda self: self.n - self.n_transplanted - self.n_dead)
    death_rate = property(lambda self: float(self.n_dead) / self.n if self.n else None)
    avg_survival = property(lambda self: self._transplanted_mean(0))
    avg_benefit = property(lambda self: self._transplanted_mean(1))

    def _count(self, fate: str) -> int:
        return int(np.count_nonzero(self.fate == FATES.index(fate)))

    def _transplanted_mean(self, column: int) -> float | None:
        transplanted = self.assigned_donor >= 0
        return float(self.outcomes()[column][transplanted].mean()) if transplanted.any() else None

    def summary(self) -> dict:
        """The ``SUMMARY_FIELDS``, each read from the decisions."""
        return {name: getattr(self, name) for name in SUMMARY_FIELDS}

    def outcomes(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Realized survival and benefit of recipients ``lo`` to ``hi - 1``,
        NaN unless transplanted: recipient i with donor d_i lives
        ``true_potentials[i, true_donor_type[d_i] - 1]`` days, and its
        benefit is that minus the untreated days it had left when
        transplanted, ``untreated_survival[i] - (fate_step[i] - i) * days_per_step``."""
        truth = self.dataset
        donor = self.assigned_donor[lo:hi]
        realized = np.full(donor.size, np.nan)
        benefit = np.full(donor.size, np.nan)
        got = np.flatnonzero(donor >= 0)
        ids = lo + got
        realized[got] = truth.true_potentials[ids, truth.true_donor_type[donor[got]] - 1]
        benefit[got] = realized[got] - (truth.untreated_survival[ids]
                                        - (self.fate_step[lo:hi][got] - ids) * self.days_per_step)
        return realized, benefit

    def ledger_columns(self, lo: int, hi: int) -> list:
        """The ``LEDGER_FIELDS`` columns of recipients ``lo`` to ``hi - 1``;
        survival and benefit are masked unless the recipient was transplanted."""
        fate = self.fate[lo:hi]
        missing = fate != FATES.index("transplanted")
        realized, benefit = self.outcomes(lo, hi)
        return [np.arange(lo, hi), np.array(FATES, dtype=object)[fate], self.fate_step[lo:hi],
                self.assigned_donor[lo:hi], np.ma.masked_array(realized, missing),
                np.ma.masked_array(benefit, missing)]

    @property
    def ledger(self) -> list[LedgerRow]:
        """One row per recipient, built from ``ledger_columns`` on each access."""
        columns = [column.tolist() for column in self.ledger_columns(0, self.n)]
        return [LedgerRow(*row) for row in zip(*columns)]


def write_ledger_csv(report: SimReport, path) -> None:
    """One row per recipient, written from ``report.ledger_columns`` a block
    at a time; survival and benefit are empty unless transplanted."""
    write_table(path, LEDGER_FIELDS, report.n, report.ledger_columns)


# ---------------------------------------------------------------------------
# Scorers
# ---------------------------------------------------------------------------


def oracle_mean_scorer(dataset: Dataset, outcome_means) -> "callable":
    """True-potential-mean scorer: score(i, donor) = E[y | m_i, k_donor],
    read from a (K, n) table of every recipient's mean with each donor type,
    built once.

    A true type outside ``outcome_means``' (M, K) shape raises
    IngestionError naming its row."""
    if dataset.true_recipient_type is None or dataset.true_donor_type is None:
        raise ConfigError("oracle scorer needs true type labels")
    means = np.asarray(outcome_means, dtype=float)
    m0 = dataset.true_recipient_type - 1
    k0 = dataset.true_donor_type - 1
    for col, types0, count in (("true_recipient_type", m0, means.shape[0]),
                               ("true_donor_type", k0, means.shape[1])):
        bad = np.nonzero((types0 < 0) | (types0 >= count))[0]
        if bad.size:
            raise IngestionError(f"row {bad[0]}, column {col!r}: type {types0[bad[0]] + 1} "
                                 f"is outside the {count} types of outcome_means")

    table = means.T.take(m0, axis=1)  # (K, n), C-contiguous: each recipient's mean per donor type

    def score(recipient_ids: np.ndarray, donor_id: int) -> np.ndarray:
        return table[k0[donor_id]][recipient_ids]

    return score


def model_scorer_and_guide(model: "matchrep.MatchRepModel",
                           dataset: Dataset) -> tuple["callable", GuidedPolicy]:
    """The scorer and the guidance of a trained matching-representation
    model, from one inference: the potentials of every recipient row and the
    learned type of every donor row. The scorer reads a (K, n) table, the
    potentials transposed so that one donor type's scores are one row."""
    pred = matchrep.predict_potential_batch(model, dataset.recipients)
    donor_types = matchrep.donor_type_batch(model, dataset.donors)[0]
    guide = GuidedPolicy(donor_types=donor_types, best_types=matchrep.best_donor_types(model, pred))
    table = np.ascontiguousarray(pred.T)

    def score(recipient_ids: np.ndarray, donor_id: int) -> np.ndarray:
        return table[donor_types[donor_id]][recipient_ids]

    return score, guide


def model_scorer(model: "matchrep.MatchRepModel", dataset: Dataset) -> "callable":
    """Scorer from a trained matching-representation model (precomputed)."""
    return model_scorer_and_guide(model, dataset)[0]


def model_guide(model: "matchrep.MatchRepModel", dataset: Dataset) -> GuidedPolicy:
    return model_scorer_and_guide(model, dataset)[1]


# ---------------------------------------------------------------------------
# Policy selection and the simulation loop
# ---------------------------------------------------------------------------


def policy_select(rule: str, waiting_ids: np.ndarray, donor_id: int, scorer=None,
                  guide: GuidedPolicy | None = None, days_left=None):
    """The waiting recipient row id that donor ``donor_id`` goes to under
    ``rule``, one of "fcfs", "uf" and "bf".

    ``waiting_ids`` is the current, nonempty waitlist in arrival order
    (recipient i arrived at step i), so a tie goes to the earliest arrival.
    With a ``guide`` the candidates are first restricted to the recipients
    whose predicted best donor type is the donor's type, unless none is:
    one gather of the guide's ``prefers`` row for that type.
    ``scorer(ids, donor_id)`` predicts survival with the donor, and ``bf``
    subtracts ``days_left(ids)``, the untreated survival the candidates have
    left. A NaN score never wins over a number.
    """
    if guide is not None:
        matched = waiting_ids[guide.prefers[guide.donor_types[donor_id]][waiting_ids]]
        if matched.size:
            waiting_ids = matched
    if rule == "fcfs":
        return waiting_ids[0]
    scores = np.asarray(scorer(waiting_ids, donor_id), dtype=float)
    if rule == "bf":
        scores = scores - days_left(waiting_ids)
    best = scores.argmax()  # the first maximum, unless a NaN comes first
    if math.isnan(scores[best]):
        numbers = np.flatnonzero(~np.isnan(scores))
        best = numbers[scores[numbers].argmax()] if numbers.size else 0
    return waiting_ids[best]


def death_steps(untreated: np.ndarray, days_per_step: float, last_step: int) -> np.ndarray:
    """Per recipient, the step at whose end it dies untransplanted: arrival
    + t − 1 for the first t ≥ 1 with ``untreated − t·days_per_step ≤ 0``.
    Any step after ``last_step`` stands for "outlives the stream"."""
    d = days_per_step
    # ceil(r / d) is off by at most one from that t; one step each way fixes it
    t = np.clip(np.ceil(untreated / d), 1, last_step + 2)
    t += untreated - t * d > 0
    t -= (t > 1) & (untreated - (t - 1) * d <= 0)
    return np.arange(untreated.size) + t.astype(np.int64) - 1


def check_policy(policy: str, scorer=None, guide: GuidedPolicy | None = None) -> None:
    """Raise ConfigError for an unknown policy or one without its
    scorer or guide."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if scorer is None and policy.endswith(("uf", "bf")):
        raise ConfigError(f"policy {policy!r} needs a scorer (an oracle or a model)")
    if guide is None and policy.startswith("matching-"):
        raise ConfigError(f"policy {policy!r} needs model guidance")


def run_policy(dataset: Dataset, stream: EventStream, policy: str, config: SimConfig,
               scorer=None, guide: GuidedPolicy | None = None) -> SimReport:
    """Process the stream under one policy and report its decisions. An unknown
    policy, or one without its scorer or guide, raises ConfigError at once."""
    if not dataset.has_ground_truth:
        raise ConfigError("simulation needs a ground-truth oracle dataset")
    check_policy(policy, scorer, guide)
    n, d = stream.n, config.days_per_step
    untreated = dataset.untreated_survival
    steps, donors = stream.donor_arrivals.T
    # no donor arrives: no allocation step runs and every recipient stays waiting
    last_step = int(steps[-1]) if steps.size else -1
    if max(n, last_step) > INT32_MAX:
        raise ConfigError(f"a stream of {n} recipients whose last donor arrives at step "
                          f"{last_step} does not fit the report's int32 columns")
    dies = death_steps(untreated, d, last_step)
    fate_step = np.full(n, -1, dtype=np.int32)
    assigned_donor = np.full(n, -1, dtype=np.int32)

    if policy == "real":
        # recipient i waits from step i to step dies[i] for its one donor, i,
        # and takes the first listing of donor i inside that window
        in_window = (steps >= donors) & (dies[donors] >= steps)
        got, first = np.unique(donors[in_window], return_index=True)
        fate_step[got] = steps[in_window][first]
        assigned_donor[got] = got
    else:
        rule = policy.removeprefix("matching-")
        guide = guide if rule != policy else None
        until = dies.copy()  # -1 once transplanted: the next death check drops it
        ids = np.arange(n)  # recipient i arrives at step i
        waiting = ids[:0]  # in arrival order
        joined = 0
        # bf's clock, built once: it reads the loop's current step when called
        days_left = (lambda c: untreated[c] - (step - c) * d) if rule == "bf" else None
        # One policy_select call per event, and one scorer call within it,
        # though either could be inlined: perfbench counts both calls.
        for step, donor_id in zip(steps.tolist(), donors.tolist()):
            if step >= joined:
                waiting = np.concatenate((waiting, ids[joined:step + 1]))
                joined = step + 1
            waiting = waiting[until[waiting] >= step]
            if not waiting.size:
                continue
            chosen = policy_select(rule, waiting, donor_id, scorer, guide, days_left)
            until[chosen] = -1
            fate_step[chosen] = step
            assigned_donor[chosen] = donor_id

    transplanted = assigned_donor >= 0
    dead = ~transplanted & (dies <= last_step)
    fate_step[dead] = dies[dead]
    return SimReport(policy=policy, fate=(dead + 2 * transplanted).astype(np.int8),
                     fate_step=fate_step, assigned_donor=assigned_donor, dataset=dataset,
                     days_per_step=d)


def assigned_true_types(dataset: Dataset, report: SimReport) -> np.ndarray:
    """Per-recipient 1-based true type of the assigned donor, -1 if none."""
    out = np.full(report.n, -1)
    mask = report.assigned_donor >= 0
    out[mask] = dataset.true_donor_type[report.assigned_donor[mask]]
    return out
