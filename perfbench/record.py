"""Record the reference outputs and the baseline of the benchmark.

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline [--seeds 1-10] [--seconds S] [--workloads a,b]

``reference`` runs each workload once at ``REFERENCE_SEED`` and writes the
key numbers of its outputs to ``reference.json``; workloads without random
input are recorded for every seed.  ``baseline`` runs ``run.py`` once per
workload and seed, then one traced run per workload, and writes
``baseline.json``: the environment, the median and quartiles of every
end-to-end metric with its spread (quartile distance over median), and the
traced self-time share of each layer.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import summarize  # noqa: E402
from run import Runner  # noqa: E402
from workloads import SEEDLESS, WORKLOADS  # noqa: E402

REFERENCE_SEED = 1


def record_reference() -> None:
    reference = {}
    for workload in WORKLOADS:
        work = ROOT / ".perfbench_work" / f"reference-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            runner = Runner(workload, REFERENCE_SEED, work, time.monotonic() + 600)
            runner.invoke(traced=False)
            if runner.failed:
                raise SystemExit(f"{workload}: {runner.failures}")
            reference[workload] = {
                "seed": None if workload in SEEDLESS else REFERENCE_SEED,
                "values": summarize(runner.command, work / "out"),
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "load": "one CLI process at a time, started back to back by run.py; every "
                "workload config sets jobs=1; Python threads per process are recorded "
                "per workload, and BLAS adds blas_threads",
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def record_baseline(seeds: list[int], seconds: float, workloads: list[str]) -> None:
    path = HERE / "baseline.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc["environment"] = environment()
    doc["run_seconds"] = seconds
    doc["seeds"] = seeds
    results = doc.setdefault("workloads", {})
    for workload in workloads:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        metrics = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        traced = bench(workload, seeds[0], seconds, 1)["metrics"]
        total = traced["trace.run_s"]["value"]
        shares = {name[: -len(".self_s")]: round(m["value"] / total, 4)
                  for name, m in traced.items() if name.endswith(".self_s") and m["value"] > 0}
        results[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "traced_self_time_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "traced_run_s": total,
            "python_threads": traced["cli.python_threads"]["value"],
        }
        for name, m in metrics.items():
            print(f"{workload:<18} {name:<12} median {m['median']:.4f} spread {m['spread']:.4f}")
        path.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        first, last = (int(s) for s in args.seeds.split("-"))
        record_baseline(list(range(first, last + 1)), args.seconds, args.workloads.split(","))
    return 0


if __name__ == "__main__":
    sys.exit(main())
