"""Allocation-simulator tests with hand-built waitlist fixtures."""

import csv
import os
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from organmatch.allocsim import (
    FATES,
    LEDGER_FIELDS,
    POLICIES,
    EventStream,
    GuidedPolicy,
    SimConfig,
    SimReport,
    assigned_true_types,
    build_stream,
    death_steps,
    model_guide,
    oracle_mean_scorer,
    policy_select,
    run_policy,
    write_ledger_csv,
)
from organmatch.datamodel import ConfigError, Dataset
from organmatch.synthgen import paper_preset, sample_dataset
from organmatch.numkit import ROW_BLOCK, rng_stream


def _oracle_dataset(n=6, k=2, seed=0, untreated=None):
    rng = rng_stream(seed, "sim-fixture")
    potentials = rng.uniform(200, 1200, size=(n, k))
    donor_types = rng.integers(1, k + 1, size=n)
    return Dataset(
        recipients=rng.normal(size=(n, 2)),
        donors=rng.normal(size=(n, 2)),
        outcomes=potentials[np.arange(n), donor_types - 1],
        recipient_names=["x0", "x1"],
        donor_names=["x0", "x1"],
        true_potentials=potentials,
        untreated_survival=(np.full(n, 1e6) if untreated is None
                            else np.asarray(untreated, dtype=float)),
        true_recipient_type=rng.integers(1, 3, size=n),
        true_donor_type=donor_types,
    )


# ---------------------------------------------------------------------------
# configuration and stream construction
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(lag_window=-1)
    with pytest.raises(ConfigError):
        SimConfig(days_per_step=0.0)
    with pytest.raises(ConfigError):
        SimConfig(donor_fraction=0.0)
    for days in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            SimConfig(days_per_step=days)
    SimConfig()


def test_stream_full_supply_has_2n_events():
    ds = _oracle_dataset(n=40)
    stream = build_stream(ds, SimConfig(donor_fraction=1.0), seed=0)
    # 40 recipient arrivals (recipient i at step i) and every factual donor
    assert stream.n == 40
    assert sorted(donor_id for _, donor_id in stream.donor_arrivals) == list(range(40))


def test_stream_deterministic_and_fraction_applied():
    ds = _oracle_dataset(n=200)
    config = SimConfig(donor_fraction=0.6)
    a = build_stream(ds, config, seed=3)
    b = build_stream(ds, config, seed=3)
    assert np.array_equal(a.donor_arrivals, b.donor_arrivals)
    assert 0.45 < len(a.donor_arrivals) / 200 < 0.75


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), lag_window=st.integers(0, 60),
       fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 16))
def test_stream_rows_are_the_sorted_step_donor_pairs(n, lag_window, fraction, seed):
    config = SimConfig(lag_window=lag_window, donor_fraction=fraction)
    stream = build_stream(_oracle_dataset(n=n), config, seed=seed)
    rng = rng_stream(seed, "allocsim", "stream")  # the draws build_stream makes
    lags = rng.integers(0, config.lag_window + 1, size=n)
    kept = rng.random(n) < config.donor_fraction
    reference = sorted((int(i + lags[i]), i) for i in range(n) if kept[i])
    assert stream.donor_arrivals.dtype == np.int64
    assert stream.donor_arrivals.shape == (len(reference), 2)
    assert list(map(tuple, stream.donor_arrivals.tolist())) == reference


def test_stream_requires_ground_truth():
    ds = _oracle_dataset()
    ds.true_potentials = None
    with pytest.raises(ConfigError):
        build_stream(ds, SimConfig(), seed=0)


def test_donor_lag_within_window():
    ds = _oracle_dataset(n=100)
    stream = build_stream(ds, SimConfig(lag_window=7, donor_fraction=1.0), seed=1)
    for step, donor_id in stream.donor_arrivals:
        assert donor_id <= step <= donor_id + 7


# ---------------------------------------------------------------------------
# policy selection on hand snapshots
# ---------------------------------------------------------------------------

WAITING = np.array([0, 1])


def _scorer(values):
    table = np.asarray(values, dtype=float)

    def score(recipient_ids, donor_id):
        return table[recipient_ids]

    return score


def test_fcfs_picks_earliest_arrival():
    assert policy_select("fcfs", WAITING, donor_id=0) == 0


def test_uf_picks_highest_predicted_survival():
    chosen = policy_select("uf", WAITING, donor_id=0, scorer=_scorer([1000.0, 900.0]))
    assert chosen == 0


def test_bf_picks_highest_benefit():
    # benefits: 1000-950=50 vs 900-100=800
    chosen = policy_select("bf", WAITING, donor_id=0, scorer=_scorer([1000.0, 900.0]),
                           days_left=lambda ids: np.array([950.0, 100.0])[ids])
    assert chosen == 1


def test_ties_go_to_the_lowest_record_index():
    # recipient i arrives at step i, so the lowest index is the earliest arrival
    waiting = np.array([2, 5, 7])
    for policy in ("fcfs", "uf", "bf"):
        assert policy_select(policy, waiting, 0, _scorer(np.ones(8)),
                             days_left=lambda ids: np.zeros(len(ids))) == 2
    assert policy_select("uf", waiting, 0, _scorer([0, 0, 1, 0, 0, 3, 0, 3])) == 5


def test_a_nan_score_never_wins_over_a_number():
    nan = float("nan")
    waiting = np.array([0, 1, 2, 3])
    assert policy_select("uf", waiting, 0, _scorer([nan, 1.0, nan, 1.0])) == 1
    assert policy_select("uf", waiting, 0, _scorer([nan] * 4)) == 0


def test_real_policy_waits_for_factual_partner():
    # donor i's factual partner is recipient i: at step 1 donor 1 goes to
    # recipient 1, not to recipient 0, and donor 2 finds its partner not
    # yet arrived and is discarded
    ds = _oracle_dataset(n=3)
    stream = EventStream(donor_arrivals=[(1, 1), (1, 2)], n=3)
    report = run_policy(ds, stream, "real", SimConfig())
    assert report.assigned_donor.tolist() == [-1, 1, -1]
    assert report.fate_step.tolist() == [-1, 1, -1]


def test_matching_policy_restricts_to_type_match():
    guide = GuidedPolicy(donor_types=np.array([1, 0, 0, 0, 0, 0]),
                         best_types=np.array([0, 1]))
    # donor 0 has learned type 1; only recipient 1 wants type 1
    chosen = policy_select("uf", WAITING, donor_id=0, scorer=_scorer([1000.0, 900.0]),
                           guide=guide)
    assert chosen == 1


def test_matching_policy_falls_back_when_no_match():
    guide = GuidedPolicy(donor_types=np.array([1, 0]),
                         best_types=np.array([0, 0]))
    chosen = policy_select("uf", WAITING, donor_id=0, scorer=_scorer([1000.0, 900.0]),
                           guide=guide)
    assert chosen == 0  # unrestricted utility-first


def test_run_policy_error_paths():
    ds = _oracle_dataset(n=4)
    guide = GuidedPolicy(donor_types=np.zeros(4, dtype=int), best_types=np.zeros(4, dtype=int))
    scorer = _scorer(np.zeros(4))
    # the checks run before the loop: they fire on an empty donor stream too
    for stream in (build_stream(ds, SimConfig(), seed=0), EventStream(donor_arrivals=[], n=4)):
        for policy, kwargs in [("greedy", {"scorer": scorer, "guide": guide}),
                               ("uf", {}), ("bf", {"guide": guide}),
                               ("matching-uf", {"guide": guide}), ("matching-bf", {"guide": guide}),
                               ("matching-fcfs", {"scorer": scorer}),
                               ("matching-uf", {"scorer": scorer})]:
            with pytest.raises(ConfigError):
                run_policy(ds, stream, policy, SimConfig(), **kwargs)
        for policy in ("real", "fcfs"):
            run_policy(ds, stream, policy, SimConfig())


# ---------------------------------------------------------------------------
# full simulation runs
# ---------------------------------------------------------------------------


def test_real_policy_replays_factual_outcomes():
    ds = _oracle_dataset(n=30)
    config = SimConfig(lag_window=0, donor_fraction=1.0)
    stream = build_stream(ds, config, seed=0)
    report = run_policy(ds, stream, "real", config)
    assert report.n_transplanted == 30 and report.n_dead == 0
    assert report.avg_survival == pytest.approx(float(ds.outcomes.mean()))
    np.testing.assert_array_equal(report.assigned_donor, np.arange(30))


def test_death_clock_kills_short_survivors():
    # recipients 0, 1, 2 arrive at steps 0, 1, 2 with 12 days each
    ds = _oracle_dataset(n=3, untreated=[12.0, 12.0, 12.0])
    config = SimConfig(lag_window=0, days_per_step=5.0, donor_fraction=1.0)
    # the stream ends at step 1, before recipient 1's clock runs out and
    # before recipient 2 arrives
    report = run_policy(ds, EventStream(donor_arrivals=[(1, 0)], n=3), "fcfs", config)
    assert [(row.fate, row.step_of_fate) for row in report.ledger] == [
        ("transplanted", 1), ("waiting", -1), ("waiting", -1)]
    # donors at steps 0 and 1 save recipients 0 and 1; recipient 2's clock
    # reads 12 - 3·5 <= 0 three steps after it arrives, so it dies at the
    # end of step 4, before the last donor arrives at step 9
    long_stream = EventStream(donor_arrivals=[(0, 0), (1, 1), (9, 2)], n=3)
    report2 = run_policy(ds, stream=long_stream, policy="fcfs", config=config)
    assert [(row.fate, row.step_of_fate) for row in report2.ledger] == [
        ("transplanted", 0), ("transplanted", 1), ("dead", 4)]


def test_death_clock_is_closed_form_at_a_non_dyadic_step():
    # 3.0 - 10·0.3 is 0.0, so the recipient dies at the end of its tenth
    # step (step 9); ten repeated subtractions of 0.3 would leave 3.3e-16
    # days and keep it alive one step longer
    ds = _oracle_dataset(n=1, untreated=[3.0])
    config = SimConfig(days_per_step=0.3)
    # 0.9 - 3·0.3 is 1.1e-16 > 0 although 0.9 / 0.3 rounds to 3.0, so a
    # recipient arriving at step 1 with 0.9 days dies at the end of step 4
    assert death_steps(np.array([3.0, 0.9]), 0.3, last_step=20).tolist() == [9, 4]
    late = run_policy(ds, EventStream(donor_arrivals=[(10, 0)], n=1), "fcfs", config)
    assert [(row.fate, row.step_of_fate) for row in late.ledger] == [("dead", 9)]
    in_time = run_policy(ds, EventStream(donor_arrivals=[(9, 0)], n=1), "fcfs", config)
    row = in_time.ledger[0]
    assert (row.fate, row.step_of_fate) == ("transplanted", 9)
    assert row.benefit == row.realized_survival - (3.0 - 9 * 0.3)


def test_uf_beats_fcfs_on_average_survival():
    ds = _oracle_dataset(n=300, seed=5)
    config = SimConfig(donor_fraction=0.5)
    stream = build_stream(ds, config, seed=7)
    scorer = oracle_mean_scorer(
        ds, outcome_means=[[500.0, 1000.0], [100.0, 800.0]])

    def true_scorer(recipient_ids, donor_id):
        return ds.true_potentials[recipient_ids, ds.true_donor_type[donor_id] - 1]

    uf = run_policy(ds, stream, "uf", config, scorer=true_scorer)
    fcfs = run_policy(ds, stream, "fcfs", config)
    assert uf.avg_survival > fcfs.avg_survival


def test_summary_fields_consistent():
    ds = _oracle_dataset(n=50, seed=2)
    config = SimConfig(donor_fraction=0.7)
    stream = build_stream(ds, config, seed=1)
    report = run_policy(ds, stream, "fcfs", config)
    summary = report.summary()
    assert summary["n_transplanted"] + summary["n_dead"] + summary["n_waiting"] == 50
    assert summary["death_rate"] == pytest.approx(summary["n_dead"] / 50)
    assert summary["policy"] == "fcfs"


def test_assigned_true_types():
    ds = _oracle_dataset(n=20, seed=3)
    config = SimConfig(donor_fraction=1.0, lag_window=0)
    stream = build_stream(ds, config, seed=0)
    report = run_policy(ds, stream, "real", config)
    types = assigned_true_types(ds, report)
    np.testing.assert_array_equal(types, ds.true_donor_type)


def test_write_ledger_csv(tmp_path):
    ds = _oracle_dataset(n=10, seed=4)
    config = SimConfig(donor_fraction=1.0)
    stream = build_stream(ds, config, seed=0)
    report = run_policy(ds, stream, "fcfs", config)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "recipient_id,fate,step_of_fate,donor_id,realized_survival,benefit"
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(10)]


# the infinite benefit of ``_ledger_report`` is an overflow, which NumPy warns of
OVERFLOW = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def _ledger_report(n: int, seed: int) -> SimReport:
    """A report of ``n`` recipients in every fate, read against a dataset
    whose ground truth gives its transplanted ones a survival of 1e308, a
    benefit that overflows to infinity and a -0.0 benefit."""
    rng = rng_stream(seed, "ledger-report")
    k = 3
    fate = rng.integers(0, len(FATES), size=n).astype(np.int8)
    got = fate == FATES.index("transplanted")
    fate_step = np.where(fate == FATES.index("waiting"), -1,
                         rng.integers(0, 2 * n + 1, size=n)).astype(np.int32)
    assigned_donor = np.where(got, rng.permutation(n), -1).astype(np.int32)
    potentials = rng.uniform(0, 3000, size=(n, k))
    donor_types = rng.integers(1, k + 1, size=n)
    untreated = rng.uniform(0, 3000, size=n)
    edge = np.flatnonzero(got)[:3]
    cell = lambda i: (i, donor_types[assigned_donor[i]] - 1)  # recipient i's realized cell
    if edge.size > 0:  # 1e308 days with the donor, -1e308 left without it: an infinite benefit
        potentials[cell(edge[0])], untreated[edge[0]] = 1e308, -1e308
    if edge.size > 2:  # -0.0 days with the donor, 0.0 left without it: a -0.0 benefit
        i = edge[2]
        potentials[cell(i)], untreated[i], fate_step[i] = -0.0, 0.0, i
    ds = Dataset(recipients=np.zeros((n, 0)), donors=np.zeros((n, 0)), outcomes=np.zeros(n),
                 recipient_names=[], donor_names=[], true_potentials=potentials,
                 untreated_survival=untreated, true_donor_type=donor_types)
    return SimReport(policy="fcfs", fate=fate, fate_step=fate_step,
                     assigned_donor=assigned_donor, dataset=ds, days_per_step=5.0)


def _reference_ledger_bytes(report: SimReport, path) -> bytes:
    """The ledger as csv.writer writes it from each recipient's cells."""
    realized, benefit = report.outcomes()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_FIELDS)
        for i in range(report.n):
            got = FATES[report.fate[i]] == "transplanted"
            writer.writerow([i, FATES[report.fate[i]], int(report.fate_step[i]),
                             int(report.assigned_donor[i]),
                             float(realized[i]) if got else None,
                             float(benefit[i]) if got else None])
    return Path(path).read_bytes()


@OVERFLOW
@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_ledger_csv_is_the_bytes_csv_writer_writes(tmp_path, n):
    report = _ledger_report(n, seed=n)
    write_ledger_csv(report, tmp_path / "ledger.csv")
    assert (tmp_path / "ledger.csv").read_bytes() == _reference_ledger_bytes(
        report, tmp_path / "reference.csv")
    if n > ROW_BLOCK:  # every fate, and a transplanted 1e308, inf and -0.0
        text = (tmp_path / "ledger.csv").read_bytes().decode()
        assert all(f",{fate}," in text for fate in FATES)
        assert ",1e+308," in text and ",inf\r\n" in text and ",-0.0\r\n" in text


def test_simulated_ledgers_are_the_bytes_csv_writer_writes(tmp_path):
    ds = sample_dataset(paper_preset(n=ROW_BLOCK + 7, seed=3))
    config = SimConfig()
    stream = build_stream(ds, config, seed=3)
    for policy in ("real", "fcfs"):
        report = run_policy(ds, stream, policy, config)
        write_ledger_csv(report, tmp_path / "ledger.csv")
        assert (tmp_path / "ledger.csv").read_bytes() == _reference_ledger_bytes(
            report, tmp_path / "reference.csv")


@OVERFLOW
def test_write_ledger_csv_memory_does_not_grow_with_the_rows():
    peaks = {}
    for n in (50_000, 200_000):
        report = _ledger_report(n, seed=1)
        write_ledger_csv(report, os.devnull)  # first-call allocations are not the writer's
        tracemalloc.start()
        try:
            write_ledger_csv(report, os.devnull)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a writer that formats whole columns at once peaks at 4.8 MB here, 19 MB at 200,000 rows
    assert peaks[50_000] <= 3_000_000 and peaks[200_000] <= 3_000_000, peaks
    assert peaks[200_000] <= peaks[50_000] + 256 * 1024, peaks


@OVERFLOW
@pytest.mark.parametrize("n", [0, 1, 2 * ROW_BLOCK + 3])
def test_outcome_blocks_are_the_full_columns(n):
    report = _ledger_report(n, seed=n)
    full = report.outcomes()
    assert all(v.shape == (n,) and v.dtype == np.float64 for v in full)
    for size in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1):
        cuts = [0, *range(0, n, size), n, n]  # an empty block at each end
        blocks = [report.outcomes(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        for column, whole in enumerate(full):
            # bit for bit: NaN, inf and -0.0 included
            assert np.concatenate([b[column] for b in blocks]).tobytes() == whole.tobytes()
    got = report.fate == FATES.index("transplanted")
    assert np.isnan(full[0][~got]).all() and np.isnan(full[1][~got]).all()
    if n > ROW_BLOCK:
        assert (full[0][got] == 1e308).any() and np.isinf(full[1][got]).any()
        assert any(str(v) == "-0.0" for v in full[1][got])


def test_a_step_or_row_beyond_int32_is_refused_before_any_column():
    ds = _oracle_dataset(n=2, untreated=[1e12, 1e12])  # outlives every step below
    for stream in (EventStream(donor_arrivals=[(0, 0), (2 ** 31, 1)], n=2),
                   EventStream(donor_arrivals=[], n=2 ** 31)):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="int32"):
                run_policy(ds, stream, "fcfs", SimConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
    # the largest step that fits is run
    fits = EventStream(donor_arrivals=[(0, 0), (2 ** 31 - 1, 1)], n=2)
    report = run_policy(ds, fits, "fcfs", SimConfig())
    assert report.fate_step.tolist() == [0, 2 ** 31 - 1]


@OVERFLOW
def test_ledger_rows_are_built_from_the_columns():
    rng = rng_stream(8, "ledger-rows")
    ds = _oracle_dataset(n=40, seed=8, untreated=rng.uniform(1, 300, size=40))
    config = SimConfig(lag_window=5, donor_fraction=0.5)
    report = run_policy(ds, build_stream(ds, config, seed=2), "fcfs", config)
    assert list(report.summary()) == ["policy", "n", "n_transplanted", "n_dead", "n_waiting",
                                      "death_rate", "avg_survival", "avg_benefit"]
    assert sorted({row.fate for row in report.ledger}) == sorted(FATES)
    # and reports whose transplanted cells hold a survival of 1e308, an
    # infinite benefit and a -0.0 benefit, at the edges of the row count
    for report in (report, *(_ledger_report(n, seed=n) for n in (0, 1, ROW_BLOCK + 1))):
        ledger = report.ledger
        realized, benefit = report.outcomes()
        assert len(ledger) == report.n
        for i, row in enumerate(ledger):
            got = row.fate == "transplanted"
            # the cells' Python types as the ledger file writes them: None is an empty cell
            assert [type(v) for v in astuple(row)] == [int, str, int, int] + [
                float if got else type(None)] * 2
            assert astuple(row)[:4] == (i, FATES[report.fate[i]], report.fate_step[i],
                                        report.assigned_donor[i])
            assert row.arrival == row.recipient_id  # recipient i arrived at step i
            if got:  # bit for bit: NaN, inf and -0.0 included
                assert (np.array([row.realized_survival, row.benefit]).tobytes()
                        == np.array([realized[i], benefit[i]]).tobytes())
            else:
                assert np.isnan(realized[i]) and np.isnan(benefit[i])
        assert repr(report.ledger) == repr(ledger)  # built alike on every access


def test_a_report_retains_its_columns_and_no_row_objects():
    ds = sample_dataset(paper_preset(n=20_000, seed=1))
    config = SimConfig()
    stream = build_stream(ds, config, seed=1)
    run_policy(ds, stream, "fcfs", config)  # first-call allocations are not the report's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_policy(ds, stream, "fcfs", config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the policy's decisions are its own columns; the ground truth is the dataset's
    decisions = (report.fate, report.fate_step, report.assigned_donor)
    assert [v.dtype for v in decisions] == [np.int8, np.int32, np.int32]
    assert report.dataset is ds
    columns = sum(v.nbytes for v in decisions)
    # a LedgerRow per recipient would retain some 290 bytes a row more
    assert columns <= retained < columns + 16 * 1024


def test_no_donor_arrival_leaves_every_recipient_waiting():
    preset = paper_preset(n=12, seed=0)
    ds = sample_dataset(preset)
    config = SimConfig(donor_fraction=0.01)
    stream = build_stream(ds, config, seed=3)
    assert stream.donor_arrivals.shape == (0, 2)
    guide = GuidedPolicy(donor_types=np.zeros(12, dtype=int),
                         best_types=np.zeros(12, dtype=int))
    scorer = oracle_mean_scorer(ds, preset.outcome_means)
    for policy in POLICIES:
        report = run_policy(ds, stream, policy, config, scorer=scorer, guide=guide)
        assert report.n_waiting == 12 and report.n_transplanted == 0
        assert [row.fate for row in report.ledger] == ["waiting"] * 12


def test_all_policies_run_with_model_guidance():
    from organmatch.matchrep import TrainConfig, train_joint

    rng = rng_stream(11, "sim-model")
    n = 120
    ds = _oracle_dataset(n=n, seed=6)
    model, _ = train_joint(ds.recipients, ds.donors, ds.outcomes,
                           TrainConfig(k=2, hidden=8, rep_dim=4, embed_dim=4,
                                       pretrain_epochs=5, joint_epochs=10,
                                       batch_size=32, min_cluster_count=4))
    from organmatch.allocsim import model_scorer

    scorer = model_scorer(model, ds)
    guide = model_guide(model, ds)
    config = SimConfig(donor_fraction=0.8)
    stream = build_stream(ds, config, seed=2)
    for policy in POLICIES:
        report = run_policy(ds, stream, policy, config, scorer=scorer, guide=guide)
        assert report.n == n
        assert 0 <= report.n_transplanted <= len(stream.donor_arrivals)


# ---------------------------------------------------------------------------
# properties of every policy on random waitlists
# ---------------------------------------------------------------------------


@st.composite
def _simulations(draw):
    """A random oracle dataset, stream and guidance; tiny donor fractions
    make streams in which no donor arrives."""
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    config = SimConfig(lag_window=draw(st.integers(0, 8)),
                       donor_fraction=draw(st.one_of(st.floats(1e-3, 1e-2),
                                                     st.floats(0.05, 1.0))))
    rng = rng_stream(seed, "sim-property")
    donor_types = rng.integers(1, k + 1, size=n)
    potentials = rng.uniform(1, 1000, size=(n, k))
    ds = Dataset(
        recipients=np.zeros((n, 1)), donors=np.zeros((n, 1)),
        outcomes=potentials[np.arange(n), donor_types - 1],
        recipient_names=["x"], donor_names=["x"],
        true_potentials=potentials,
        untreated_survival=rng.uniform(1, 60, size=n),  # deaths within a few steps
        true_recipient_type=rng.integers(1, 3, size=n),
        true_donor_type=donor_types,
    )
    scorer = oracle_mean_scorer(ds, rng.uniform(100, 1000, size=(2, k)))
    guide = GuidedPolicy(donor_types=rng.integers(0, k, size=n),
                         best_types=rng.integers(0, k, size=n))
    stream = build_stream(ds, config, seed=draw(st.integers(0, 2 ** 16)))
    return ds, stream, config, scorer, guide


@settings(max_examples=60, deadline=None)
@given(_simulations())
def test_every_policy_keeps_the_waitlist_invariants(sim):
    ds, stream, config, scorer, guide = sim
    n = len(ds)
    donor_step = {donor_id: step for step, donor_id in stream.donor_arrivals}
    for policy in POLICIES:
        report = run_policy(ds, stream, policy, config, scorer=scorer, guide=guide)
        ledger = report.ledger
        assert [row.recipient_id for row in ledger] == list(range(n))  # one fate each
        fates = [row.fate for row in ledger]
        assert set(fates) <= {"transplanted", "dead", "waiting"}
        assert (fates.count("transplanted"), fates.count("dead"), fates.count("waiting")) \
            == (report.n_transplanted, report.n_dead, report.n_waiting)
        assert report.n_transplanted + report.n_dead + report.n_waiting == n
        used = [row.donor_id for row in ledger if row.fate == "transplanted"]
        assert len(set(used)) == len(used)  # each donor at most once
        for row in ledger:
            assert (row.donor_id >= 0) == (row.fate == "transplanted")
            if row.fate == "waiting":
                assert row.step_of_fate == -1
                continue
            assert row.step_of_fate >= row.arrival
            if row.fate == "transplanted":
                assert row.step_of_fate == donor_step[row.donor_id]  # never before it arrives
                if policy == "real":
                    assert row.donor_id == row.recipient_id  # the factual pairing
        np.testing.assert_array_equal(report.assigned_donor, [row.donor_id for row in ledger])


def _reference_choice(policy, waiting, donor_id, remaining, scorer, guide):
    """The recipient that ``policy`` gives donor ``donor_id``, or None, from
    the waiting recipient ids by the plain rules: the factual partner for
    ``real``; for the ``matching-*`` policies only the recipients whose best
    type is the donor's type, unless none is; then the lowest id for
    ``fcfs`` and the highest score, then the lowest id, for ``uf``/``bf``."""
    if policy == "real":
        return donor_id if donor_id in waiting else None
    rule = policy.removeprefix("matching-")
    candidates = list(waiting)
    if rule != policy:
        wanted = guide.donor_types[donor_id]
        candidates = [i for i in candidates if guide.best_types[i] == wanted] or candidates
    if rule == "fcfs":
        return min(candidates)
    scores = {i: float(scorer(np.array([i]), donor_id)[0]) for i in candidates}
    if rule == "bf":
        scores = {i: score - remaining[i] for i, score in scores.items()}
    best = max(scores.values())
    return min(i for i, score in scores.items() if score == best)


def _stepwise_reference(ds, stream, policy, config, scorer, guide):
    """The per-step simulator that ``run_policy`` replaced: every step from
    0 to the last donor arrival admits recipient ``step``, offers that
    step's donors, then subtracts ``days_per_step`` from every waiting
    recipient's remaining survival and removes those at or below zero.
    Returns its report, the realized survival and benefit it recorded as
    it went and the summary it counted from them."""
    n = stream.n
    true_k0 = ds.true_donor_type - 1
    remaining = ds.untreated_survival.copy()
    status = np.full(n, "waiting", dtype=object)
    fate_step = np.full(n, -1)
    assigned_donor = np.full(n, -1)
    realized = np.full(n, np.nan)
    benefit = np.full(n, np.nan)
    donors_by_step: dict[int, list[int]] = {}
    for step, donor_id in stream.donor_arrivals:
        donors_by_step.setdefault(step, []).append(donor_id)
    last_step = max((step for step, _ in stream.donor_arrivals), default=-1)
    waiting: list[int] = []
    for step in range(last_step + 1):
        if step < n:
            waiting.append(step)
        for donor_id in sorted(donors_by_step.get(step, ())):
            if not waiting:
                continue
            chosen = _reference_choice(policy, waiting, donor_id, remaining, scorer, guide)
            if chosen is None:
                continue
            waiting.remove(chosen)
            status[chosen] = "transplanted"
            fate_step[chosen] = step
            assigned_donor[chosen] = donor_id
            realized[chosen] = ds.true_potentials[chosen, true_k0[donor_id]]
            benefit[chosen] = realized[chosen] - remaining[chosen]
        still = []
        for rec_id in waiting:
            remaining[rec_id] -= config.days_per_step
            if remaining[rec_id] <= 0.0:
                status[rec_id] = "dead"
                fate_step[rec_id] = step
            else:
                still.append(rec_id)
        waiting = still

    transplanted, dead = status == "transplanted", status == "dead"
    n_t, n_dead = int(transplanted.sum()), int(dead.sum())
    summary = {"policy": policy, "n": n, "n_transplanted": n_t, "n_dead": n_dead,
               "n_waiting": n - n_t - n_dead, "death_rate": float(n_dead) / n,
               "avg_survival": float(realized[transplanted].mean()) if n_t else None,
               "avg_benefit": float(benefit[transplanted].mean()) if n_t else None}
    report = SimReport(policy=policy,
                       fate=np.array([FATES.index(s) for s in status], dtype=np.int8),
                       fate_step=fate_step.astype(np.int32),
                       assigned_donor=assigned_donor.astype(np.int32),
                       dataset=ds, days_per_step=config.days_per_step)
    return report, realized, benefit, summary


@st.composite
def _clock_simulations(draw):
    """Streams (empty ones and hand-made ones that list a donor twice or
    before its partner joins included) against untreated survivals that
    hit the death clock's edges: zero, negative and exact multiples of the
    step size, for integer-valued and dyadic step sizes."""
    n = draw(st.integers(1, 25))
    k = draw(st.integers(1, 3))
    d = draw(st.sampled_from([1.0, 2.5, 5.0, 7.0, 30.0]))
    untreated = draw(st.lists(st.one_of(st.floats(-50.0, 200.0),
                                        st.integers(-3, 40).map(lambda m: m * d)),
                              min_size=n, max_size=n))
    config = SimConfig(lag_window=draw(st.integers(0, 8)), days_per_step=d,
                       donor_fraction=draw(st.floats(0.05, 1.0)))
    rng = rng_stream(draw(st.integers(0, 2 ** 16)), "sim-clock-property")
    donor_types = rng.integers(1, k + 1, size=n)
    potentials = rng.uniform(1, 1000, size=(n, k))
    ds = Dataset(
        recipients=np.zeros((n, 1)), donors=np.zeros((n, 1)),
        outcomes=potentials[np.arange(n), donor_types - 1],
        recipient_names=["x"], donor_names=["x"],
        true_potentials=potentials,
        untreated_survival=np.array(untreated, dtype=float),
        true_recipient_type=rng.integers(1, 3, size=n),
        true_donor_type=donor_types,
    )
    scorer = oracle_mean_scorer(ds, rng.uniform(100, 1000, size=(2, k)))
    guide = GuidedPolicy(donor_types=rng.integers(0, k, size=n),
                         best_types=rng.integers(0, k, size=n))
    stream = build_stream(ds, config, seed=draw(st.integers(0, 2 ** 16)))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        stream = EventStream(donor_arrivals=[], n=n)
    elif kind <= 3:
        # by hand: a donor listed twice, or arriving before its partner joins
        events = draw(st.lists(st.tuples(st.integers(0, n + 8), st.integers(0, n - 1)),
                               min_size=1, max_size=2 * n))
        stream = EventStream(donor_arrivals=sorted(events + events[:draw(st.integers(0, 2))]),
                             n=n)
    return ds, stream, config, scorer, guide


@settings(max_examples=80, deadline=None)
@given(_clock_simulations())
def test_event_loop_matches_the_stepwise_reference(sim):
    ds, stream, config, scorer, guide = sim
    with tempfile.TemporaryDirectory() as tmp:
        for policy in POLICIES:
            report = run_policy(ds, stream, policy, config, scorer=scorer, guide=guide)
            reference, realized, benefit, summary = _stepwise_reference(
                ds, stream, policy, config, scorer, guide)
            outcomes = report.outcomes()
            assert outcomes[0].tobytes() == realized.tobytes(), policy
            assert outcomes[1].tobytes() == benefit.tobytes(), policy
            # fresh files: rewriting a nonempty file can stall on a flush
            paths = Path(tmp, f"event-{policy}.csv"), Path(tmp, f"stepwise-{policy}.csv")
            write_ledger_csv(report, paths[0])
            write_ledger_csv(reference, paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes(), policy
            assert repr(report.summary()) == repr(summary)
            np.testing.assert_array_equal(report.assigned_donor, reference.assigned_donor)
