"""idslab benchmark: timed CLI invocations of one workload, checked and summarized.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports idslab from its
``src`` directory.  Each invocation is a fresh process (users pay imports
and field calibration on every run), started back to back from this one
process with ``jobs=1``.  With ``--trace 0`` the end-to-end metrics are the
medians over the invocations that fit in ``--seconds``: ``run_s`` (command
body), ``setup_s`` (process start until the config is validated) and
``peak_rss_mb``.  With ``--trace 1`` the size ladder runs first, then
untraced and traced invocations alternate; the per-layer metrics are medians
over the traced ones and ``trace.overhead_ratio`` compares the two kinds.
Every invocation's outputs are checked; ``failed / attempted`` is the error
rate.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a run must end within 180 s whatever --seconds asks for
HARD_LIMIT_S = 170.0


class Runner:
    """Invocations of one workload's CLI command, with their checks."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.command, build = WORKLOADS[workload]
        self.config = build(seed)
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.hard_deadline = deadline
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.hard_deadline - time.monotonic())
        with open(self.work / "log.txt", "w") as log:
            return subprocess.run(
                [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=ROOT, timeout=timeout,
            )

    def invoke(self, traced: bool) -> dict | None:
        """One checked CLI invocation and its timings (None if it never finished).

        An invocation whose exit status or outputs fail a check counts as
        failed but keeps its timings: the command still did its work.
        """
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        spans = self.work / "spans.json"
        args = [str(HERE / "child.py"), str(SRC), self.command, str(self.config_path),
                str(out), str(result)] + ([str(spans)] if traced else [])
        self.attempted += 1
        start = time.monotonic()
        try:
            proc = self._child(args)
        except subprocess.TimeoutExpired:
            self._fail(["invocation timed out"])
            return None
        if proc.returncode != 0 or not result.is_file():
            self._fail([f"child exited {proc.returncode}: {self._log_tail()}"])
            return None
        record = json.loads(result.read_text())
        record["setup_s"] = record["ready"] - start
        if traced:
            record["layers"] = layer_metrics(json.loads(spans.read_text()))
        if record["status"] != 0:
            self._fail([f"idslab {self.command} exited {record['status']}: {self._log_tail()}"])
        else:
            problems = check_outputs(self.workload, self.command, self.config, self.seed, out)
            if problems:
                self._fail(problems)
        return record

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(problems)

    def ladder(self) -> dict[str, float]:
        result = self.work / "ladder.json"
        proc = self._child([str(HERE / "ladder.py"), str(SRC), str(self.seed), str(result)])
        if proc.returncode != 0:
            raise RuntimeError(f"size ladder failed: {self._log_tail()}")
        return json.loads(result.read_text())

    def _log_tail(self) -> str:
        lines = (self.work / "log.txt").read_text().strip().splitlines()
        return lines[-1] if lines else "(no output)"


def _repeat(step, deadline: float) -> None:
    """step() at least once, then again while the last duration still fits."""
    while True:
        start = time.monotonic()
        step()
        now = time.monotonic()
        if now + (now - start) > deadline:
            return


def measure(runner: Runner, trace: bool, deadline: float) -> dict[str, float]:
    if not trace:
        records = []
        _repeat(lambda: records.append(runner.invoke(traced=False)), deadline)
        records = [r for r in records if r is not None]
        if not records:
            return {}
        return {key: statistics.median(r[key] for r in records)
                for key in ("run_s", "setup_s", "peak_rss_mb")}

    metrics = runner.ladder()
    plain, traced = [], []

    def pair():
        plain.append(runner.invoke(traced=False))
        traced.append(runner.invoke(traced=True))

    _repeat(pair, deadline)
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    if not (plain and traced):
        return metrics
    for key in traced[0]["layers"]:
        metrics[key] = statistics.median(r["layers"][key] for r in traced)
    metrics["cli.python_threads"] = max(r["python_threads"] for r in plain + traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain)
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "idslab" / "__init__.py").is_file():
        print(f"benchmark: no idslab sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    begin = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work, begin + HARD_LIMIT_S)
        deadline = begin + min(args.seconds, HARD_LIMIT_S - 30.0)
        metrics = measure(runner, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for problem in runner.failures:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark: no measurement for {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {runner.attempted} invocations, "
          f"{runner.failed} failed (error_rate {runner.failed / runner.attempted:.4g})")
    for m in wanted:
        print(f"{m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
