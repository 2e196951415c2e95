"""Batch driver: experiment configuration, orchestration, and report emission.

Subcommands: patterns, ids, ssf, weyl, random, verify.  Every run writes
its artifacts plus a manifest under the output directory; reruns with the
same config and seed produce byte-identical data files (the manifest's
timestamp is the single exception).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    build_coloring,
    build_library,
    build_model,
    build_sequence,
    build_window,
    check_prototypes,
    config_to_json,
    load_config,
)
from .ergodic import AlmostAdditiveField, VanHoveError, two_route_experiment
from .lattice import PeriodicColoring, cube, frequency_tables
from .montecarlo import SiteDistribution, random_ids_experiment
from .operators import (
    Facet,
    OperatorSpec,
    add_facet_dirichlet,
    discretize,
    matrix_dimension,
    spec_digest,
)
from .spectral import NumericalFailure, eigenvalues
from .ssf import facet_experiment, fit_decay, weyl_check


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def write_manifest(
    out: Path, command: str, cfg: ExperimentConfig, outputs: list[str], pools: dict | None = None
) -> None:
    """manifest.json: the command, its config and outputs, each pooled stage's
    in_workers record (workers, OpenBLAS thread counts before the pin) and the time."""
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "config": json.loads(config_to_json(cfg)),
        "outputs": sorted(outputs),
        "pools": pools or {},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json(out / "manifest.json", manifest)


def _check_exp_hi(window) -> None:
    """ConfigError unless exp(hi), the factor of the heat-semigroup bound, is a float."""
    try:
        math.exp(window.sup)
    except OverflowError:
        raise ConfigError(
            f"config.window.hi: exp(hi) overflows a float at hi = {window.sup!r}, "
            "and the heat-semigroup bound multiplies by it"
        ) from None


def _check_cap(cfg: ExperimentConfig, key: str, boxes) -> int:
    """The largest dimension of the operators on boxes (tuples of cell sides),
    checked against config.<key>.

    Each command calls this before it builds any domain: matrix_cap bounds the
    operators whose eigenvalues are counted, dense_cap those that get a full
    eigendecomposition.
    """
    dim = max(matrix_dimension(sides, cfg.backend, cfg.resolution) for sides in boxes)
    cap = getattr(cfg, key)
    if dim > cap:
        raise ConfigError(f"config.{key}: matrix dimension {dim} exceeds the cap {cap}")
    return dim


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_patterns(cfg: ExperimentConfig, out: Path) -> int:
    coloring = build_coloring(cfg)
    tables = frequency_tables(coloring, cfg.M_list, build_sequence(cfg)[-1])
    outputs = []
    for M, table in sorted(tables.items()):
        name = f"frequencies_M{M}.json"
        (out / name).write_text(table.to_json() + "\n")
        outputs.append(name)
        total = table.total()
        print(f"M={M}: {len(table.entries)} pattern classes, total frequency {float(total):.6f}"
              + (" (exact)" if table.exact else " (estimated)"))
        if table.exact and total != 1:
            raise NumericalFailure(f"exact frequency table for M={M} does not sum to 1")
    write_manifest(out, "patterns", cfg, outputs)
    return 0


def cmd_ids(cfg: ExperimentConfig, out: Path) -> int:
    coloring, library = build_model(cfg)
    window = build_window(cfg)
    _check_exp_hi(window)
    d, last = cfg.dimension, cfg.sequence["sides"][-1]
    if not isinstance(coloring, PeriodicColoring) and max(cfg.M_list) > last:
        raise ConfigError(f"config.M_list: M = {max(cfg.M_list)} exceeds the last box side "
                          f"{last}, whose windows estimate the frequency table")
    _check_cap(cfg, "matrix_cap", [(s,) * d for s in [*cfg.sequence["sides"], *cfg.M_list]])
    # the calibration pair on the cells 0 and e_1
    _check_cap(cfg, "dense_cap", [(2,) + (1,) * (d - 1)])
    sequence = build_sequence(cfg)
    field = AlmostAdditiveField(coloring, library, window, backend=cfg.backend)
    try:
        report = two_route_experiment(field, sequence, cfg.M_list)
    except VanHoveError as e:
        raise ConfigError(f"config.sequence.sides: {e}") from None

    outputs = []
    for vol, f in zip(report.volumes, report.direct_normalized):
        name = f"direct_route_j{vol}.csv"
        (out / name).write_text(f.to_csv(window=window, scale=1.0 / vol))
        outputs.append(name)
    for M, f in sorted(report.pattern_route_values.items()):
        name = f"pattern_route_M{M}.csv"
        (out / name).write_text(f.to_csv(window=window))
        outputs.append(name)

    for row in report.route_distances:
        if row["distance"] > row["bound"]:
            raise NumericalFailure(
                f"two-route distance exceeds the fitted error bound at j={row['j']}, M={row['M']}"
            )
    write_json(out / "ids_report.json", report.to_json_dict())
    outputs.append("ids_report.json")
    print(report.summary_table())
    write_manifest(out, "ids", cfg, outputs)
    return 0


def cmd_ssf(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.backend != "continuum":
        raise ConfigError("config.backend: ssf facet experiments need the continuum backend")
    coloring, library = build_model(cfg)
    window = build_window(cfg)
    _check_exp_hi(window)
    d = cfg.dimension
    cells, count, trials = cfg.ssf["cells"], cfg.ssf["count"], cfg.ssf["young_trials"]
    powers = [float(p) for p in cfg.ssf["powers"]]

    dim = _check_cap(cfg, "dense_cap", [(cells,) * d])
    if count > dim:
        raise ConfigError(f"config.ssf.count: {count} exceeds the matrix dimension {dim}")

    specA = OperatorSpec(
        Q=cube(cells, d), coloring=coloring, library=library,
        backend="continuum", resolution=cfg.resolution,
    )
    anchor = tuple(cells // 2 if i == 0 else 0 for i in range(d))
    specB = add_facet_dirichlet(specA, Facet(anchor=anchor, axis=0))
    exp = facet_experiment(
        specA, specB, window, powers, np.random.default_rng(cfg.seed), trials, count=count,
    )
    shift, series = exp.shift, exp.series
    if not shift.is_nonnegative():
        raise NumericalFailure("facet spectral shift is not nonnegative")
    try:
        fit = fit_decay(series, d=d)
    except ValueError as e:  # too few singular values above the floor
        raise NumericalFailure(str(e)) from e
    if fit.c_hat <= 0:
        raise NumericalFailure("fitted singular-value decay rate is not positive")
    if not fit.envelope_ok:
        raise NumericalFailure("one-sided singular-value envelope fails")

    bounds = {}
    for p, (direct, bnd) in exp.bounds.items():
        bounds[f"p{p:g}"] = {
            "direct_integral": direct,
            "hs_bound": bnd.value,
            "tail_ok": bnd.tail_ok,
            "holds": direct <= bnd.value,
        }
        if direct > bnd.value:
            raise NumericalFailure(f"heat-semigroup bound fails at p={p:g}")
    young_ok = exp.young_passed
    if young_ok != trials:
        raise NumericalFailure("Young-inequality spot checks failed")

    outputs = ["xi.csv", "singular_values.csv", "ssf_report.json"]
    (out / "xi.csv").write_text(shift.xi.to_csv(window=window))
    mu_lines = ["n,mu"] + [f"{i + 1},{float(m)!r}" for i, m in enumerate(series.mu)]
    (out / "singular_values.csv").write_text("\n".join(mu_lines) + "\n")
    write_json(out / "ssf_report.json", {
        "cells": cells,
        "resolution": cfg.resolution,
        "dimension": d,
        "spec_digests": {"full": spec_digest(specA), "restricted": spec_digest(specB)},
        "series_source": series.source,
        "decay_fit": {
            "c_hat": fit.c_hat, "C2_hat": fit.C2_hat, "C2_covered": fit.C2_covered,
            "max_residual": fit.max_residual, "points_used": fit.points_used,
            "envelope_ok": fit.envelope_ok,
        },
        "lp_bounds": bounds,
        "young_trials": {"passed": young_ok, "total": trials},
    })
    print(f"facet experiment: c_hat={fit.c_hat:.4f}, envelope ok, "
          f"{sum(b['holds'] for b in bounds.values())} L^p bounds hold, young {young_ok}/{trials}")
    write_manifest(out, "ssf", cfg, outputs)
    return 0


def cmd_weyl(cfg: ExperimentConfig, out: Path) -> int:
    coloring, library = build_model(cfg)
    window = build_window(cfg)
    delta = float(cfg.constants["delta"])
    C1 = float(cfg.constants["C1"])
    _check_cap(cfg, "matrix_cap", [(s,) * cfg.dimension for s in cfg.sequence["sides"]])
    sequence = build_sequence(cfg)
    rows = []
    for Q in sequence:
        spec = OperatorSpec(
            Q=Q, coloring=coloring, library=library,
            backend=cfg.backend, resolution=cfg.resolution,
        )
        eigs = eigenvalues(discretize(spec), ceiling=window.sup)
        margin = weyl_check(eigs, volume=float(len(Q)), delta=delta, C1=C1, d=cfg.dimension)
        rows.append({
            "volume": len(Q),
            "eigenvalues_below_T": int(len(eigs)),
            "margin": margin,
        })
        print(f"#Q={len(Q)}: {len(eigs)} eigenvalues <= {window.sup}, margin {margin:.4f}")
    write_json(out / "weyl_report.json", {
        "delta": delta, "C1": C1, "T": window.sup, "rows": rows,
    })
    write_manifest(out, "weyl", cfg, ["weyl_report.json"])
    return 0


def cmd_random(cfg: ExperimentConfig, out: Path) -> int:
    library = build_library(cfg)
    window = build_window(cfg)
    rnd = cfg.random
    weights = {str(k): float(v) for k, v in rnd["weights"].items()}
    check_prototypes(weights, library, "config.random.weights")
    symbols = tuple(sorted(weights))
    dist = SiteDistribution(symbols=symbols, weights=tuple(weights[s] for s in symbols), seed=cfg.seed)
    samples, R = rnd["samples"], rnd["truncation_radius"]
    grid = np.linspace(window.lo, window.hi, rnd["lambda_points"])
    d = cfg.dimension
    _check_cap(cfg, "matrix_cap", [(j,) * d for j in rnd["compare_volumes"]])
    _check_cap(cfg, "dense_cap", [(2 * R + 1,) * d, (4 * R + 1,) * d])
    exp = random_ids_experiment(
        dist, cfg.seed + 1, library, window, grid, samples, R,
        omegas=rnd["omegas"], volumes=rnd["compare_volumes"], backend=cfg.backend,
    )
    if np.any(np.diff(exp.estimate.mean) < -1e-12):
        raise NumericalFailure("Monte Carlo mean is not nondecreasing")
    (out / "mc_estimate.csv").write_text(exp.estimate.to_csv())
    comparison = exp.comparison

    write_json(out / "random_report.json", {
        "samples": samples,
        "truncation_radius": R,
        "two_seed_agreement": {
            "agree_within_3se": exp.seeds_agree,
            "max_abs_difference": exp.max_abs_difference,
        },
        "per_omega_distances": {
            "omegas": list(comparison.omegas),
            "volumes": list(comparison.volumes),
            "distances": comparison.distances,
            "decreased": comparison.decreased(),
        },
        "truncation": {
            "semigroup_diagnostic": exp.semigroup_diagnostic,
            "projector_estimate_change_on_R_doubling": exp.projector_change,
        },
    })
    print(f"MC: S={samples}, R={R}; two-seed agreement: {exp.seeds_agree}; "
          f"per-omega decrease: {comparison.decreased()}; "
          f"semigroup truncation diagnostic: {exp.semigroup_diagnostic:.3e}")
    if not exp.seeds_agree:
        raise NumericalFailure(
            "independent-seed Monte Carlo estimates disagree beyond the Bonferroni threshold"
        )
    write_manifest(out, "random", cfg, ["mc_estimate.csv", "random_report.json"],
                   pools={"montecarlo.estimates": exp.pool})
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    from .acceptance import run_all

    results = run_all()
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width}}  status  seconds")
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        print(f"{r.name:<{width}}  {status:<6}  {r.runtime_seconds:7.1f}")
    # wall-clock numbers stay on stdout so the report reruns byte-identically
    write_json(out / "acceptance_report.json", [
        {"index": r.index, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ])
    write_manifest(out, "verify", cfg, ["acceptance_report.json"])
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


COMMANDS = {
    "patterns": cmd_patterns,
    "ids": cmd_ids,
    "ssf": cmd_ssf,
    "weyl": cmd_weyl,
    "random": cmd_random,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idslab",
        description="Finite-volume approximation laboratory for integrated densities of states",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
