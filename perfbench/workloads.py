"""The three benchmark workloads: set-up, timed body, checks and quality.

Each body makes the same public library calls that the ``organmatch``
CLI makes for the corresponding step, so the CLI itself is not timed on its
own. Every workload produces or consumes one model and reports the same
quality metrics for it, so a speed-up that changes behaviour shows:

* ``ari``: adjusted Rand index between learned donor types and the
  coarsened true types (type 1 against the merged, heavily overlapping
  types 2 and 3);
* ``aodt``: best-donor-type accuracy in the learned label space;
* ``eps_f``: factual mean squared error in days squared;
* ``guided_survival_ratio``: average survival under ``matching-uf`` divided
  by that under ``real``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from organmatch import allocsim, baselines, datamodel, matchrep, metrics, synthgen

CLUSTER_SPECS = ("kmeans/multihead-nn", "em/multihead-nn", "kmeans/linear-per-head",
                 "em/linear-per-head", "dec/linear-per-head")
PAIR_KINDS = ("ridge", "lasso", "elasticnet", "reg-tree", "reg-nn")


@dataclass(frozen=True)
class Size:
    n: int  # rows of the training preset
    sim_n: int  # rows of the simulated donor/recipient stream
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    fixture: dict = field(default_factory=dict)  # TrainConfig overrides, simulate model


FULL = Size(n=5000, sim_n=50000, fixture={"joint_epochs": 30})
# Same code paths at a size that runs in about a second; used for the
# warm-up before timing and by the harness self-test.
TINY = Size(n=400, sim_n=2000, train={"pretrain_epochs": 2, "joint_epochs": 4},
            fixture={"pretrain_epochs": 2, "joint_epochs": 3})


class Checks:
    """Correctness checks that count failures instead of raising."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def value(self, name: str, compute):
        """A quality value; a non-finite or failing one is a failed check."""
        self.attempted += 1
        try:
            val = float(compute())
        except (ArithmeticError, ValueError, TypeError, KeyError, IndexError) as exc:
            self.failed.append(f"{name}: {exc!r}")
            return None
        if not np.isfinite(val):
            self.failed.append(f"{name}: {val}")
            return None
        return val

    def predictions(self, name, preds, n, k=None) -> None:
        shape = (n,) if k is None else (n, k)
        preds = np.asarray(preds)
        self.expect(f"{name}: shape {preds.shape} != {shape}", preds.shape == shape)
        self.expect(f"{name}: non-finite prediction", bool(np.all(np.isfinite(preds))))

    def labels(self, name, labels, n, k) -> None:
        labels = np.asarray(labels)
        self.expect(f"{name}: labels not an int vector of length {n}",
                    labels.shape == (n,) and labels.dtype.kind in "iu")
        self.expect(f"{name}: label outside [0, {k})",
                    bool(np.all((labels >= 0) & (labels < k))))

    def identical(self, name, a, b) -> None:
        self.expect(f"{name}: differs after save/load", np.array_equal(a, b))

    def simulation(self, policy, report, stream) -> None:
        n = stream.n
        ledger = report.ledger
        ids = np.array([row.recipient_id for row in ledger])
        fates = [row.fate for row in ledger]
        self.expect(f"{policy}: one fate per recipient",
                    len(ledger) == n and np.array_equal(np.sort(ids), np.arange(n))
                    and set(fates) <= {"transplanted", "dead", "waiting"})
        used = report.assigned_donor[report.assigned_donor >= 0]
        arrived = {donor for _, donor in stream.donor_arrivals}
        self.expect(f"{policy}: donor used more than once or never arrived",
                    len(np.unique(used)) == len(used) and set(used.tolist()) <= arrived)
        counts = [fates.count(f) for f in ("transplanted", "dead", "waiting")]
        self.expect(f"{policy}: transplanted + dead + waiting != n",
                    counts == [report.n_transplanted, report.n_dead, report.n_waiting]
                    and sum(counts) == n)
        self.expect(f"{policy}: fate before arrival",
                    all(row.step_of_fate >= row.arrival for row in ledger if row.fate != "waiting"))


def adjusted_rand(a, b) -> float:
    """Adjusted Rand index between two label vectors."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    pairs = lambda x: x * (x - 1) / 2.0
    sum_ij = pairs(table).sum()
    sum_a = pairs(table.sum(axis=1)).sum()
    sum_b = pairs(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / pairs(len(ai))
    top = 0.5 * (sum_a + sum_b)
    return 1.0 if top == expected else float((sum_ij - expected) / (top - expected))


def coarse_types(dataset) -> np.ndarray:
    return (dataset.true_donor_type > 1).astype(int)


def guided_ratio(dataset, stream_seed, scorer, guide) -> float:
    """matching-uf over real average survival on one stream of ``dataset``."""
    config = allocsim.SimConfig()
    stream = allocsim.build_stream(dataset, config, seed=stream_seed)
    real = allocsim.run_policy(dataset, stream, "real", config)
    guided = allocsim.run_policy(dataset, stream, "matching-uf", config,
                                 scorer=scorer, guide=guide)
    return guided.avg_survival / real.avg_survival


def masked(preds, active):
    return preds if active is None else np.where(active, preds, -np.inf)


def _preset(n, seed):
    dataset = synthgen.sample_dataset(synthgen.paper_preset(n=n, seed=seed))
    indices = datamodel.split(dataset, seed=seed)
    normed = datamodel.normalize_fit_transform(dataset, indices)
    return {"normed": normed, "indices": indices,
            "train": normed.subset(indices.train), "val": normed.subset(indices.validation)}


class Workload:
    name = ""
    operations = 0  # fits or policy runs in one body
    setup_repeats = 7  # setup_s is the median of this many set-ups

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def config(self, **overrides) -> matchrep.TrainConfig:
        return matchrep.TrainConfig(seed=self.seed, **{**self.size.train, **overrides})

    def setup(self, untraced) -> dict:
        raise NotImplementedError

    def body(self, state: dict) -> dict:
        raise NotImplementedError

    def evaluate(self, state: dict, out: dict, checks: Checks) -> dict:
        raise NotImplementedError

    def layer_metrics(self, state: dict, out: dict, tracer) -> dict:
        """Per-layer values read from the body's outputs rather than spans."""
        return {}

    def trace_checks(self, values: dict, checks: Checks) -> None:
        """Checks on the per-layer values that the layers this workload
        bypasses saw no calls."""


class TrainPreset(Workload):
    name = "train-preset"
    operations = 1

    def setup(self, untraced):
        return _preset(self.size.n, self.seed)

    def body(self, state):
        train, val = state["train"], state["val"]
        model, log = matchrep.train_joint(train.recipients, train.donors, train.outcomes,
                                          self.config())
        preds = matchrep.predict_potential_batch(model, val.recipients)
        labels, _ = matchrep.donor_type_batch(model, val.donors)
        path = self.workdir / "model.json"
        matchrep.save_model(model, path, normalization=datamodel.normalization_to_dict(
            state["normed"].normalization))
        loaded = matchrep.load_model(path)
        return {"model": model, "log": log, "preds": preds, "labels": labels, "loaded": loaded}

    def evaluate(self, state, out, checks):
        normed, val, model = state["normed"], state["val"], out["model"]
        k = model.config.k
        checks.predictions("held-out predictions", out["preds"], len(val), k)
        checks.labels("held-out donor types", out["labels"], len(val), k)
        checks.identical("held-out predictions",
                         matchrep.predict_potential_batch(out["loaded"], val.recipients),
                         out["preds"])
        checks.identical("held-out donor types",
                         matchrep.donor_type_batch(out["loaded"], val.donors)[0], out["labels"])
        all_labels, _ = matchrep.donor_type_batch(model, normed.donors)
        checks.labels("donor types", all_labels, len(normed), k)
        return {
            "ari": checks.value("ari", lambda: adjusted_rand(all_labels, coarse_types(normed))),
            "aodt": checks.value("aodt", lambda: metrics.aodt_learned_space(
                masked(out["preds"], model.active), val.true_potentials,
                val.true_donor_type, out["labels"])),
            "eps_f": checks.value("eps_f", lambda: metrics.eps_factual(
                out["preds"], out["labels"], val.outcomes)),
            "guided_survival_ratio": checks.value("guided_survival_ratio", lambda: guided_ratio(
                normed, self.seed, allocsim.model_scorer(model, normed),
                allocsim.model_guide(model, normed))),
        }

    def layer_metrics(self, state, out, tracer):
        log = out["log"]
        active = sum(bool(row["dec_active"]) for row in log)
        n, batch = len(state["train"]), out["model"].config.batch_size
        joint_calls = tracer.calls("matchrep.dec_loss_and_grads", within="matchrep.train_joint")
        return {
            "matchrep.dec_active_epochs": active,
            # every joint epoch evaluates L_DEC once per batch; only the
            # batches of DEC-active epochs feed a donor-map update
            "matchrep.donor_map_useful_frac": active * -(-n // batch) / joint_calls,
            "matchrep.model_bytes": (self.workdir / "model.json").stat().st_size,
        }


class BaselinesPreset(Workload):
    name = "baselines-preset"
    operations = len(CLUSTER_SPECS) + len(PAIR_KINDS)

    def setup(self, untraced):
        return _preset(self.size.n, self.seed)

    def body(self, state):
        train = state["train"]
        cluster = {}
        for spec_name in CLUSTER_SPECS:
            clusterer, predictor = spec_name.split("/")
            spec = baselines.BaselineSpec(clusterer=clusterer, predictor=predictor,
                                          train=self.config())
            cluster[spec_name] = baselines.fit_cluster_predictor(
                train.recipients, train.donors, train.outcomes, spec)
        pair = {kind: baselines.fit_pair_regressor(train.recipients, train.donors,
                                                   train.outcomes, kind, config=self.config())
                for kind in PAIR_KINDS}
        return {"cluster": cluster, "pair": pair}

    def evaluate(self, state, out, checks):
        normed, val = state["normed"], state["val"]
        k = self.config().k
        scored = {}
        for spec_name, model in out["cluster"].items():
            preds = model.predict_potentials(val.recipients)
            labels = model.donor_labels(val.donors)
            checks.predictions(spec_name, preds, len(val), k)
            checks.labels(spec_name, labels, len(val), k)
            path = self.workdir / "baseline.json"
            baselines.save_cluster_predictor(model, path)
            loaded = baselines.load_cluster_predictor(path)
            checks.identical(spec_name, loaded.predict_potentials(val.recipients), preds)
            checks.identical(spec_name, loaded.donor_labels(val.donors), labels)
            eps = checks.value(f"{spec_name} eps_f",
                               lambda: metrics.eps_factual(preds, labels, val.outcomes))
            scored[spec_name] = (np.inf if eps is None else eps, preds, labels)
        pairs = np.hstack([val.recipients, val.donors])
        for kind, regressor in out["pair"].items():
            preds = regressor.predict(pairs)
            checks.predictions(kind, preds, len(val))
            path = self.workdir / "pair.json"
            baselines.save_pair_regressor(regressor, path)
            checks.identical(kind, baselines.load_pair_regressor(path).predict(pairs), preds)

        best = min(scored, key=lambda name: scored[name][0])
        eps, preds, labels = scored[best]
        model = out["cluster"][best]
        donor_types = model.donor_labels(normed.donors)
        all_preds = model.predict_potentials(normed.recipients)
        guide = allocsim.GuidedPolicy(donor_types=donor_types,
                                      best_types=np.argmax(all_preds, axis=1))

        def scorer(recipient_ids, donor_id):
            return all_preds[recipient_ids, donor_types[donor_id]]

        return {
            "ari": checks.value("ari", lambda: adjusted_rand(donor_types, coarse_types(normed))),
            "aodt": checks.value("aodt", lambda: metrics.aodt_learned_space(
                preds, val.true_potentials, val.true_donor_type, labels)),
            "eps_f": checks.value("eps_f", lambda: eps),
            "guided_survival_ratio": checks.value("guided_survival_ratio", lambda: guided_ratio(
                normed, self.seed, scorer, guide)),
        }

    def trace_checks(self, values, checks):
        checks.expect("L_DEC evaluated outside standalone DEC",
                      values["matchrep.dec_loss_and_grads.calls_outside_standalone"] == 0)


class Simulate50k(Workload):
    name = "simulate-50k"
    operations = len(allocsim.POLICIES)
    setup_repeats = 3

    def setup(self, untraced):
        config = synthgen.paper_preset(n=self.size.sim_n, seed=self.seed)
        dataset = synthgen.sample_dataset(config)
        paths = {name: self.workdir / name for name in ("dataset.csv", "ground_truth.csv",
                                                         "model.json")}
        datamodel.write_csv(dataset, paths["dataset.csv"])
        datamodel.write_ground_truth_csv(dataset, paths["ground_truth.csv"])
        # The model stands in for one trained earlier; its training is the
        # subject of train-preset, so it is timed in setup_s but not traced.
        with untraced():
            prep = _preset(self.size.n, self.seed)
            train = prep["train"]
            model, _ = matchrep.train_joint(train.recipients, train.donors, train.outcomes,
                                            self.config(**self.size.fixture))
        matchrep.save_model(model, paths["model.json"], normalization=datamodel.normalization_to_dict(
            prep["normed"].normalization))
        schema = datamodel.SchemaConfig(
            recipient_columns=[f"r_{c}" for c in dataset.recipient_names],
            donor_columns=[f"d_{c}" for c in dataset.donor_names],
            outcome_column="outcome")
        return {"paths": paths, "schema": schema, "model": model,
                "outcome_means": config.outcome_means}

    def body(self, state):
        paths = state["paths"]
        dataset = datamodel.load_csv(paths["dataset.csv"], state["schema"])
        dataset = datamodel.attach_ground_truth_csv(dataset, paths["ground_truth.csv"])
        model = matchrep.load_model(paths["model.json"])
        doc = json.loads(paths["model.json"].read_text())
        normed = datamodel.apply_normalization(
            dataset, datamodel.normalization_from_dict(doc["normalization"]))
        model_sc = allocsim.model_scorer(model, normed)
        guide = allocsim.model_guide(model, normed)
        oracle = allocsim.oracle_mean_scorer(dataset, state["outcome_means"])
        config = allocsim.SimConfig()
        stream = allocsim.build_stream(dataset, config, seed=self.seed)
        reports = {}
        for policy in allocsim.POLICIES:
            kwargs = {}
            if policy in ("uf", "bf"):
                kwargs["scorer"] = oracle
            elif policy.startswith("matching-"):
                kwargs = {"scorer": model_sc, "guide": guide}
            reports[policy] = allocsim.run_policy(dataset, stream, policy, config, **kwargs)
            allocsim.write_ledger_csv(reports[policy], self.workdir / f"ledger_{policy}.csv")
        real_types = allocsim.assigned_true_types(dataset, reports["real"])
        flipped = {policy: metrics.flipped_ratio(
            real_types, allocsim.assigned_true_types(dataset, reports[policy]))
            for policy in allocsim.POLICIES if policy != "real"}
        return {"dataset": dataset, "normed": normed, "model": model, "guide": guide,
                "stream": stream, "reports": reports, "flipped": flipped}

    def evaluate(self, state, out, checks):
        normed, model, guide, reports = out["normed"], out["model"], out["guide"], out["reports"]
        n, k = len(normed), model.config.k
        preds = matchrep.predict_potential_batch(model, normed.recipients)
        checks.predictions("predictions", preds, n, k)
        checks.labels("donor types", guide.donor_types, n, k)
        checks.labels("best donor types", guide.best_types, n, k)
        checks.identical("predictions",
                         matchrep.predict_potential_batch(state["model"], normed.recipients), preds)
        checks.identical("donor types",
                         matchrep.donor_type_batch(state["model"], normed.donors)[0],
                         guide.donor_types)
        for policy, report in reports.items():
            checks.simulation(policy, report, out["stream"])
        for policy, ratio in out["flipped"].items():
            checks.expect(f"{policy}: flipped ratio outside [0, 1]",
                          ratio is not None and 0.0 <= ratio <= 1.0)
        return {
            "ari": checks.value("ari", lambda: adjusted_rand(guide.donor_types,
                                                             coarse_types(normed))),
            "aodt": checks.value("aodt", lambda: metrics.aodt_learned_space(
                masked(preds, model.active), normed.true_potentials, normed.true_donor_type,
                guide.donor_types)),
            "eps_f": checks.value("eps_f", lambda: metrics.eps_factual(
                preds, guide.donor_types, normed.outcomes)),
            "guided_survival_ratio": checks.value("guided_survival_ratio", lambda: (
                reports["matching-uf"].avg_survival / reports["real"].avg_survival)),
        }

    def layer_metrics(self, state, out, tracer):
        arrived = len(out["stream"].donor_arrivals)
        values = {f"allocsim.donor_use_frac.{policy}": report.n_transplanted / arrived
                  for policy, report in out["reports"].items()}
        values["matchrep.model_bytes"] = state["paths"]["model.json"].stat().st_size
        return values

    def trace_checks(self, values, checks):
        checks.expect("Adam step taken while simulating",
                      values.get("numkit.adam_step.calls", 0) == 0)


WORKLOADS = {w.name: w for w in (TrainPreset, BaselinesPreset, Simulate50k)}
