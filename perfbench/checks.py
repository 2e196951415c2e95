"""Output checks for one CLI invocation.

``check_outputs`` returns the list of failed checks (empty when all hold).
It checks invariants that hold for any seed and, where ``reference.json``
has an entry for the workload and seed, compares key numbers against the
values recorded for that seed: integer counts exactly, floats to ``RTOL``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
RTOL = 1e-7


def _read_csv(path: Path) -> list[tuple[float, ...]]:
    """Numeric rows of a CLI CSV file: '#' comment lines and the header skipped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _is_integer(x: float, tol: float = 1e-6) -> bool:
    return abs(x - round(x)) <= tol


def _nondecreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def summarize(command: str, out: Path) -> dict:
    """Key numbers of one invocation's outputs, for the reference comparison."""
    if command == "ids":
        report = json.loads((out / "ids_report.json").read_text())
        summary = {"fitted_K": report["fitted_K"], "boundary_scale": report["boundary_scale"]}
        for vol in report["volumes"]:
            rows = _read_csv(out / f"direct_route_j{vol}.csv")
            summary[f"count_j{vol}"] = round(rows[-1][1] * vol)
        for row in report["route_distances"]:
            summary[f"distance_j{row['j']}_M{row['M']}"] = row["distance"]
        return summary
    if command == "ssf":
        report = json.loads((out / "ssf_report.json").read_text())
        xi = _read_csv(out / "xi.csv")
        mu = _read_csv(out / "singular_values.csv")
        summary = {
            "xi_at_T": round(xi[-1][1]),
            "xi_jumps": len(xi) - 1,
            "singular_values": len(mu),
            "mu_1": mu[0][1],
            "c_hat": report["decay_fit"]["c_hat"],
        }
        for key, bound in report["lp_bounds"].items():
            summary[f"direct_integral_{key}"] = bound["direct_integral"]
            summary[f"hs_bound_{key}"] = bound["hs_bound"]
        return summary
    if command == "random":
        report = json.loads((out / "random_report.json").read_text())
        mc = _read_csv(out / "mc_estimate.csv")
        summary = {
            "lambda_points": len(mc),
            "mean_sum": sum(row[1] for row in mc),
            "max_abs_difference": report["two_seed_agreement"]["max_abs_difference"],
        }
        distances = report["per_omega_distances"]["distances"]
        for omega, row in zip(report["per_omega_distances"]["omegas"], distances):
            for vol, dist in zip(report["per_omega_distances"]["volumes"], row):
                summary[f"distance_w{omega}_j{vol}"] = dist
        return summary
    raise ValueError(f"no checks for command {command!r}")


def _invariants(command: str, config: dict, out: Path) -> list[str]:
    failures = []
    if command == "ids":
        report = json.loads((out / "ids_report.json").read_text())
        d = config["dimension"]
        volumes = [s**d for s in config["sequence"]["sides"]]
        if report["volumes"] != volumes:
            failures.append(f"ids_report volumes {report['volumes']} != {volumes}")
        for vol in volumes:
            values = [v for _, v in _read_csv(out / f"direct_route_j{vol}.csv")]
            if not all(_is_integer(v * vol) for v in values):
                failures.append(f"direct_route_j{vol}.csv: value times volume is not an integer")
            if not _nondecreasing(values):
                failures.append(f"direct_route_j{vol}.csv: counting function decreases")
        pairs = sorted((row["j"], row["M"]) for row in report["route_distances"])
        expected = sorted((j, M) for j in volumes for M in config["M_list"])
        if pairs != expected:
            failures.append("ids_report route_distances do not cover every (j, M) pair once")
        for row in report["route_distances"]:
            if not row["distance"] <= row["bound"]:
                failures.append(f"two-route distance exceeds its bound at j={row['j']}, M={row['M']}")
        for M in config["M_list"]:
            if not (out / f"pattern_route_M{M}.csv").is_file():
                failures.append(f"pattern_route_M{M}.csv missing")
    elif command == "ssf":
        report = json.loads((out / "ssf_report.json").read_text())
        for key, bound in report["lp_bounds"].items():
            if not (bound["holds"] and bound["direct_integral"] <= bound["hs_bound"]):
                failures.append(f"ssf_report lp_bounds {key} does not hold")
        young = report["young_trials"]
        if young["passed"] != young["total"] or young["total"] != config["ssf"]["young_trials"]:
            failures.append("ssf_report young_trials did not all pass")
        xi = [v for _, v in _read_csv(out / "xi.csv")]
        if not all(_is_integer(v, 1e-9) and v >= 0 for v in xi):
            failures.append("xi.csv: shift function is not a nonnegative integer staircase")
        mu = [v for _, v in _read_csv(out / "singular_values.csv")]
        if len(mu) != config["ssf"]["count"] or not _nondecreasing(mu[::-1]) or mu[-1] < 0:
            failures.append("singular_values.csv: not the requested count of descending values")
    elif command == "random":
        report = json.loads((out / "random_report.json").read_text())
        mc = _read_csv(out / "mc_estimate.csv")
        means = [row[1] for row in mc]
        if len(mc) != config["random"]["lambda_points"]:
            failures.append("mc_estimate.csv: wrong number of lambda points")
        if not _nondecreasing(means) or not all(0.0 <= m <= 1.0 + 1e-12 for m in means):
            failures.append("mc_estimate.csv: mean is not a distribution function in [0, 1]")
        if not report["two_seed_agreement"]["agree_within_3se"]:
            failures.append("random_report: two-seed agreement is false")
    return failures


def _reference_mismatches(workload: str, seed: int, summary: dict) -> list[str]:
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return []
    failures = []
    for key, want in entry["values"].items():
        got = summary.get(key)
        if isinstance(want, int):
            ok = got == want
        else:
            ok = got is not None and math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-12)
        if not ok:
            failures.append(f"reference {key}: got {got!r}, recorded {want!r}")
    return failures


def check_outputs(workload: str, command: str, config: dict, seed: int, out: Path) -> list[str]:
    """Every failed check of one invocation's outputs (empty when correct)."""
    try:
        failures = _invariants(command, config, out)
        if not failures:
            failures = _reference_mismatches(workload, seed, summarize(command, out))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        failures = [f"unreadable output: {type(e).__name__}: {e}"]
    return failures
