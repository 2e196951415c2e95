"""Self-test of the benchmark's tracer and output checks on tiny configs.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  It checks that

* the traced ``spectral.eigvals.calls`` equals the count expected from the
  config: one solve per alphabet symbol to fit K, plus one per distinct
  pattern class among the volumes and the frequency-table entries;
* nested spans (``discretize`` entering ``lattice_model``) count one
  assembly, self times add up to the root span, and ``uninstall`` restores
  the original functions;
* ``check_outputs`` accepts fresh outputs of ``ids``, ``ssf`` and ``random``
  and rejects each deliberately corrupted copy, including a reference
  mismatch.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import CHECKERBOARD  # noqa: E402

from idslab import cli, spectral  # noqa: E402
from idslab.config import (  # noqa: E402
    build_coloring,
    build_library,
    build_sequence,
    validate_config,
)
from idslab.lattice import exact_frequency_table  # noqa: E402

WORK = HERE.parent / ".perfbench_work" / "selftest"

IDS = {
    "dimension": 1, "backend": "lattice",
    "coloring": {"kind": "periodic-word", "word": "aab"},
    "sequence": {"kind": "cubes", "sides": [5, 8]}, "M_list": [1, 2],
}
SSF = {
    "dimension": 2, "backend": "continuum", "resolution": 4, "coloring": CHECKERBOARD,
    "window": {"lo": 0.0, "hi": 60.0, "p": 2.0},
    "ssf": {"cells": 3, "count": 30, "powers": [1, 2], "young_trials": 5},
}
RANDOM = {
    "dimension": 1, "backend": "lattice", "seed": 3,
    "random": {"samples": 40, "truncation_radius": 8, "lambda_points": 21,
               "omegas": [1, 2], "compare_volumes": [8, 32]},
}


def run(command: str, raw: dict, out: Path, tracer: Tracer | None = None) -> float:
    """Run one CLI command body on a config; seconds spent inside the root span."""
    cfg = validate_config(raw)
    out.mkdir(parents=True)
    root = ["", -1, 0.0, 0.0]
    if tracer is None:
        status = cli.COMMANDS[command](cfg, out)
    else:
        tracer.install()
        try:
            with tracer.span("cli") as root:
                status = cli.COMMANDS[command](cfg, out)
        finally:
            tracer.uninstall()
    if status != 0:
        raise SystemExit(f"idslab {command} exited {status} on the self-test config")
    return root[3] - root[2]


def expected_eigensolves(raw: dict) -> int:
    cfg = validate_config(raw)
    coloring = build_coloring(cfg)
    classes = {coloring.restrict(U).canonical() for U in build_sequence(cfg)}
    for M in cfg.M_list:
        classes |= {P.canonical() for P in exact_frequency_table(coloring, M).entries}
    return len(build_library(cfg).symbols) + len(classes)


def test_tracer(failures: list[str]) -> None:
    original = spectral.eigenvalues
    tracer = Tracer()
    root_s = run("ids", IDS, WORK / "traced", tracer)
    m = layer_metrics({"run_s": root_s, "counts": tracer.counts, "spans": tracer.spans})
    want = expected_eigensolves(IDS)
    if m["spectral.eigvals.calls"] != want:
        failures.append(f"traced spectral.eigvals.calls {m['spectral.eigvals.calls']} != {want}")
    # every eigensolve assembles one matrix; the calibration pair assembles one more
    if m["operators.assemble.calls"] != want + 1:
        failures.append(f"operators.assemble.calls {m['operators.assemble.calls']} != {want + 1}")
    if m["ergodic.cache.misses"] != m["ergodic.evaluate_pattern.calls"]:
        failures.append("every pattern lookup of a fresh field should miss the cache")
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    if abs(self_total - root_s) > 1e-6:
        failures.append(f"self times sum to {self_total}, root span lasted {root_s}")
    if spectral.eigenvalues is not original or cli.eigenvalues is not original:
        failures.append("uninstall did not restore spectral.eigenvalues")


def _corrupt_csv_value(path: Path, delta: float) -> None:
    lines = path.read_text().splitlines()
    x, y = lines[-1].split(",")
    lines[-1] = f"{x},{float(y) + delta!r}"
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _reverse_csv_values(path: Path) -> None:
    lines = path.read_text().splitlines()
    head, rows = lines[:2], [line.split(",") for line in lines[2:]]
    values = [r[1] for r in rows][::-1]
    path.write_text("\n".join(head + [f"{r[0]},{v},{r[2]}" for r, v in zip(rows, values)]) + "\n")


CORRUPTIONS = {
    "ids": [
        ("non-integer count", lambda out: _corrupt_csv_value(out / "direct_route_j8.csv", 0.3 / 8)),
        ("missing (j, M) row", lambda out: _edit_json(
            out / "ids_report.json", lambda d: d["route_distances"].pop())),
    ],
    "ssf": [
        ("failed L^p bound", lambda out: _edit_json(
            out / "ssf_report.json", lambda d: d["lp_bounds"]["p1"].update(holds=False))),
        ("truncated singular values", lambda out: (out / "singular_values.csv").write_text(
            "\n".join((out / "singular_values.csv").read_text().splitlines()[:-1]) + "\n")),
    ],
    "random": [
        ("decreasing MC mean", lambda out: _reverse_csv_values(out / "mc_estimate.csv")),
        ("seed disagreement", lambda out: _edit_json(
            out / "random_report.json",
            lambda d: d["two_seed_agreement"].update(agree_within_3se=False))),
    ],
}


def test_checks(failures: list[str]) -> None:
    configs = {"ids": IDS, "ssf": SSF, "random": RANDOM}
    for command, raw in configs.items():
        fresh = WORK / command
        run(command, raw, fresh)
        found = checks.check_outputs("selftest", command, raw, 0, fresh)
        if found:
            failures.append(f"fresh {command} outputs rejected: {found}")
        for label, corrupt in CORRUPTIONS[command]:
            copy = WORK / f"{command}-corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(fresh, copy)
            corrupt(copy)
            if not checks.check_outputs("selftest", command, raw, 0, copy):
                failures.append(f"corrupted {command} output ({label}) was accepted")

    # reference comparison: the recorded summary passes, a moved number fails
    out = WORK / "ids"
    summary = checks.summarize("ids", out)
    reference = WORK / "reference.json"
    saved = checks.REFERENCE
    checks.REFERENCE = reference
    try:
        reference.write_text(json.dumps({"selftest": {"seed": None, "values": summary}}))
        if checks.check_outputs("selftest", "ids", IDS, 0, out):
            failures.append("outputs rejected against their own reference")
        moved = dict(summary, fitted_K=summary["fitted_K"] * (1 + 1e-4))
        reference.write_text(json.dumps({"selftest": {"seed": None, "values": moved}}))
        if not checks.check_outputs("selftest", "ids", IDS, 0, out):
            failures.append("a moved reference number was accepted")
    finally:
        checks.REFERENCE = saved


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    failures: list[str] = []
    try:
        test_tracer(failures)
        test_checks(failures)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
