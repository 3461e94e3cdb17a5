"""End-to-end benchmark of the greedwork reproduction, one workload a run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-fast --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it, ``perfbench-record
{...}``, carries the run's stamp (versions, core count, kernel and
solver mode), output digests and the figures the metrics summarise;
the same record is written under ``.perfbench/results/``.

A run that prints a result exits 0, whether or not its checks passed
(``correct`` says which); ``--workload all`` exits 1 when any
workload's checks failed.  The benchmark exits 2, printing no result,
when it refuses to run: a ``GREEDWORK_*`` override in the environment,
no program source, or C kernels that do not build.  See
``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time includes every import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORK = os.path.join(CHECKOUT, ".perfbench")
WORKLOADS = ("paper-fast", "sweep-cold", "sweep-warm")

#: Set-ups per run: this process's own and fresh-process repeats; the
#: run reports their median.
SETUP_SAMPLES = 3


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_specs(trace: int):
    """``(name, unit)`` of every metric a run prints, from BENCHMARK.json."""
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def probe_setup(args) -> dict:
    """Time one set-up in a fresh interpreter."""
    import workloads

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GREEDWORK_")}
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(command, cwd=CHECKOUT, env=env, timeout=150,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode == 2:
        refuse("a set-up probe refused to run")
    if proc.returncode != 0:
        raise workloads.CheckFailed(
            f"a set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        proc = subprocess.run(command, cwd=CHECKOUT, capture_output=True,
                              text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<36} {metric['value']:<14.6g} {metric['unit']}")
        if not result["correct"]:
            status = 1
    return status


def stamp(args) -> dict:
    import numpy

    from repro.numerics import instrumentation
    from repro.sim import kernels
    from repro.sim.runner import ENGINE_VERSION
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "engine_version": ENGINE_VERSION,
        "kernels_available": kernels.kernels_available(),
        "solver_mode": instrumentation.mode(),
    }


def main(argv=None) -> int:
    args = parse(argv)
    if not args.setup_probe:
        overrides = sorted(k for k in os.environ
                           if k.startswith("GREEDWORK_"))
        if overrides:
            refuse(f"{', '.join(overrides)} set in the environment; each "
                   f"changes which code path is measured")
    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        refuse(f"no program source under {src}")
    if args.workload == "all":
        return run_all(args)
    # Everything the program writes stays inside the checkout: its
    # state directories per pass, and compiler temporaries.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    sys.path.insert(0, src)

    import workloads

    root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        try:
            state = workloads.setup(args.workload, args.seed, root)
            setup_raw = time.perf_counter() - STARTED
            speed = workloads.reference_s()
            setup = {"setup_s": workloads.scaled(setup_raw, speed, speed),
                     "setup_raw_s": setup_raw, "cold": state.get("cold")}
            if args.setup_probe:
                print(json.dumps(setup))
                return 0
            if args.trace:
                out = workloads.traced(
                    args.workload, args.seed, state, root,
                    os.path.join(WORK, "traces",
                                 f"{args.workload}-seed{args.seed}.npz"))
            else:
                probes = [probe_setup(args)
                          for _ in range(SETUP_SAMPLES - 1)]
                samples = [setup] + probes
                colds = {sample["cold"] for sample in samples}
                if len(colds) != 1:
                    raise workloads.CheckFailed(
                        f"cold fills differ across processes: {colds}")
                out = workloads.measure(args.workload, args.seed,
                                        args.seconds, state, root)
                out["metrics"]["setup_s"] = statistics.median(
                    sample["setup_s"] for sample in samples)
                for key in ("setup_s", "setup_raw_s"):
                    out["record"][key] = [sample[key] for sample in samples]
        except workloads.Refused as exc:
            refuse(str(exc))
        except workloads.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            if args.setup_probe:
                return 1
            out = {"metrics": {}, "attempted": 1, "failed": 1,
                   "record": {"check_failed": str(exc)}}
    finally:
        shutil.rmtree(root, ignore_errors=True)

    correct = out["failed"] == 0 and "check_failed" not in out["record"]
    if out["failed"]:
        print(f"perfbench: {out['failed']} of {out['attempted']} "
              f"operations failed: {out['record'].get('failures')}",
              file=sys.stderr)
    flipped = out["record"].get("seed_dependent_fails")
    if flipped:
        print(f"perfbench: FAIL at seed {args.seed} but PASS at the "
              f"reference seed, counted in target_met_frac only: "
              f"{flipped}", file=sys.stderr)
    metrics = {}
    for name, unit in metric_specs(args.trace):
        if name in out["metrics"]:
            metrics[name] = {"value": out["metrics"][name], "unit": unit}
        elif correct:
            print(f"perfbench: metric {name} was not measured",
                  file=sys.stderr)
            correct = False
    record = {"stamp": stamp(args), **out["record"]}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print("perfbench-record " + json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
