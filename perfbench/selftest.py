"""Harness self-test at a tiny size, from the repository root:

    python3 perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit on every workload, that every per-layer metric reads non-zero on at
least one workload (a misspelt span name would read zero everywhere), that
an injected NaN prediction is counted as a failed check without crashing
the run, and that two traced runs of one seed emit identical counts.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import sys
import traceback

import run

SEED = 3
COUNT_SUFFIXES = (".calls", ".rows", ".flops", "matchrep.dec_active_epochs")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    modules = run.import_program()
    import numpy as np
    import workloads
    from organmatch import matchrep

    workdir = run.WORKDIR / "selftest"
    problems = []

    def once(name, trace):
        values, checks, _, operations = run.measure(
            modules, name, SEED, 0.0, trace, workloads.TINY, workdir=workdir)
        return run.result(spec, values, checks, operations, trace)

    nonzero = set()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            res = once(name, trace)
            emitted = {m: v["unit"] for m, v in res["metrics"].items()}
            if emitted != listed:
                problems.append(f"{name} trace={trace:d}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(emitted.items()) ^ set(listed.items()))}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace:d}: a correctness check failed")
            if trace:
                nonzero |= {m for m, v in res["metrics"].items() if v["value"]}
                counts = {m: v["value"] for m, v in res["metrics"].items()
                          if m.endswith(COUNT_SUFFIXES)}
                again = once(name, trace)["metrics"]
                differ = [m for m, v in counts.items() if again[m]["value"] != v]
                if differ:
                    problems.append(f"{name}: counts differ between two runs of seed {SEED}: {differ}")
    never = [m["name"] for m in spec["per_layer"] if m["name"] not in nonzero]
    if never:
        problems.append(f"per-layer metrics that read zero on every workload: {never}")

    original = matchrep.predict_potential_batch

    def poisoned(model, recipients):
        preds = original(model, recipients)
        preds[0, 0] = np.nan
        return preds

    matchrep.predict_potential_batch = poisoned
    try:
        res = once("train-preset", False)
        if res["correct"] or not res["failed"]:
            problems.append("an injected NaN prediction was not counted as a failed check")
    except Exception:  # the point of the test is that the run does not raise
        problems.append("an injected NaN prediction crashed the run:\n" + traceback.format_exc())
    finally:
        matchrep.predict_potential_batch = original

    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
