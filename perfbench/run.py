"""organmatch benchmark: one workload, one seed, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-preset --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run sets the workload up several times (``setup_s``
is the median), runs a small warm-up of the same code, then repeats the
timed body until ``--seconds`` have passed (``body_s`` is the median), and
checks and scores the last body's outputs; both times are scaled to a
reference machine speed (see REFERENCE_S). With ``--trace 1`` it also sets
up and runs the body once more with every public function of the library
wrapped, and reports per-layer numbers instead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are the ones listed
in ``BENCHMARK.json``. Scratch files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before NumPy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer  # noqa: E402

# Times are reported at a reference machine speed. The machine the benchmark
# was defined on shares its cores and moves between speed phases: a fixed
# loop reads about 0.105 s in a fast phase and about 0.165 s in a slow one,
# and the same train-preset body 10.8 s or 16.5 s, in phases that last from
# seconds to minutes. So a run times a fixed reference loop three times
# before and after the set-ups and after every body, and multiplies each
# median wall time by REFERENCE_S over the mean of those timings. The loop
# shares no code with the program, so a change to the program moves a
# scaled time as it moves the wall time, while a phase the run falls into
# slows the loop and the program alike.
REFERENCE_S = 0.13

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
LAYERS = ("numkit", "datamodel", "synthgen", "matchrep", "baselines", "metrics", "allocsim")


def import_program():
    """Import organmatch from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import organmatch

    if Path(organmatch.__file__).resolve().parent != src / "organmatch":
        raise ImportError(f"organmatch imported from {organmatch.__file__}, not {src}")
    return [importlib.import_module(f"organmatch.{layer}") for layer in LAYERS]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "seed": seed}


def reference_times() -> list[float]:
    """Three timings of a fixed loop with the program's mix of small NumPy
    products and Python-level list, dict and sorting work, sharing no code
    with the program."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.normal(size=(128, 8)), rng.normal(size=(8, 32)), rng.normal(size=(32, 32))
    keys = rng.normal(size=40)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(2500):
            h = np.maximum(x @ w1, 0.0)
            g = (h @ w2 > 0.0) * 1.0
            h.T @ g, g @ w2.T
            waiting = list(range(40))
            np.lexsort((np.array(waiting), -keys))
            seen = {}
            for i in waiting:
                seen[i] = seen.get(i - 1, 0) + 1
        times.append(perf_counter() - t0)
    return times


def _median_body(workload, state, seconds, references):
    """Repeat the body until ``seconds`` have passed, at least once, timing
    the reference loop after each; return (wall times, last outputs)."""
    times, out = [], None
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        out = None  # free the previous outputs before collecting
        gc.collect()
        t0 = perf_counter()
        out = workload.body(state)
        times.append(perf_counter() - t0)
        references += reference_times()
    return times, out


def measure(modules, name, seed, seconds, trace, size, warmup=None, workdir=WORKDIR):
    """Run one workload; return (values, checks, details, operations).

    ``modules`` are the program's modules, wrapped when ``trace`` is set;
    ``operations`` counts the fits and policy runs of every body run. The
    workload's scratch files are removed afterwards.
    """
    import workloads
    from organmatch.matchrep import DeadClusterError
    from organmatch.numkit import InsufficientDataError, TrainingDivergedError

    # per process, so that two runs at once do not share scratch files
    dirs = (workdir / f"{name}-{os.getpid()}", workdir / f"{name}-{os.getpid()}-warmup")
    try:
        workload = workloads.WORKLOADS[name](size, seed, dirs[0])
        small = workloads.WORKLOADS[name](warmup, seed, dirs[1]) if warmup else None
        return _run(workload, small, modules, seconds, trace,
                    workdir / f"{name}-{seed}.trace.jsonl")
    except (TrainingDivergedError, DeadClusterError, InsufficientDataError) as exc:
        # a fit the program gives up on is a failed operation, not a crash
        traceback.print_exc()
        checks = workloads.Checks()
        checks.expect(f"{name} seed {seed}: {exc!r}", False)
        return {}, checks, {"error": repr(exc)}, workload.operations
    finally:
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)


def _run(workload, small, modules, seconds, trace, trace_path):
    from workloads import Checks

    checks = Checks()
    setup_times, references = [], reference_times()
    for _ in range(1 if trace else workload.setup_repeats):
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(contextlib.nullcontext)
        setup_times.append(perf_counter() - t0)
    references += reference_times()
    if small is not None:
        small.body(small.setup(contextlib.nullcontext))

    times, out = _median_body(workload, state, seconds, references)
    quality = workload.evaluate(state, out, checks)
    wall_s = statistics.median(times)
    details = {"setup_times": setup_times, "body_times": times,
               "reference_times": references, "quality": quality}
    if not trace:
        speed = REFERENCE_S / statistics.mean(references)
        values = {"setup_s": statistics.median(setup_times) * speed,
                  "body_s": wall_s * speed,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **quality}
        return values, checks, details, workload.operations * len(times)

    out = state = None
    gc.collect()
    tracer = Tracer()
    with tracer.installed(modules):
        tracer.run_id = "setup"
        state = workload.setup(tracer.paused)
        gc.collect()
        tracer.run_id = "body"
        t0 = perf_counter()
        out = workload.body(state)
        traced_s = perf_counter() - t0
    stats = tracer.stats()
    values = {**stats, **workload.layer_metrics(state, out, tracer)}
    values["matchrep.dec_loss_and_grads.calls_outside_standalone"] = tracer.calls(
        "matchrep.dec_loss_and_grads", outside="matchrep.train_dec_standalone")
    select_calls = stats.get("allocsim.policy_select.calls", 0)
    values["allocsim.waitlist_len.mean"] = (
        stats["allocsim.policy_select.rows"] / select_calls if select_calls else 0.0)
    values["metrics.self_s"] = sum(v for k, v in stats.items()
                                   if k.startswith("metrics.") and k.endswith(".self_s"))
    values["trace.overhead_frac"] = traced_s / wall_s - 1.0
    # Self times partition the traced spans, so in the body they must add up
    # to the untraced body wall time within the tracing overhead, plus a
    # small allowance for the benchmark's own code between library calls.
    self_times = tracer.self_times()
    own = sum(t for t, run in zip(self_times, tracer.runs) if run == "body")
    checks.expect("body self times do not add up to the body wall time",
                  abs(own - wall_s) <= abs(traced_s - wall_s) + 0.05 * wall_s)
    checks.expect("negative self time", min(self_times, default=0.0) >= -1e-6)
    workload.trace_checks(values, checks)
    tracer.write(trace_path)
    details["traced_body_s"] = traced_s
    return values, checks, details, workload.operations * (len(times) + 1)


def result(spec, values, checks, operations, trace) -> dict:
    """The final JSON object, with the metrics ``BENCHMARK.json`` lists."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    # layers a workload never reaches read zero
    metrics = {m["name"]: {"value": values.get(m["name"], 0 if trace and values else None),
                           "unit": m["unit"]} for m in listed}
    correct = not checks.failed and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": checks.attempted + operations,
            "failed": len(checks.failed), "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        modules = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 3
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    values, checks, details, operations = measure(
        modules, args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.FULL, warmup=workloads.TINY)
    res = result(spec, values, checks, operations, bool(args.trace))
    record = {"workload": args.workload, "trace": args.trace, "env": env, **details, **res}
    (WORKDIR / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    for key, val in details.items():
        print(f"{key} {json.dumps(val)}")
    for failure in checks.failed:
        print("FAILED CHECK " + failure)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
