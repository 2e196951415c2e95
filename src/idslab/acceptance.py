"""The acceptance suite: one callable per criterion, consolidated runner.

Each criterion is a pure function returning a CriterionResult whose details
are fully deterministic (fixed seeds, exact arithmetic where the checks are
exact), so `verify` reruns emit byte-identical reports.  Wall-clock numbers
are printed but never serialized.
"""

from __future__ import annotations

import functools
import math
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from .ergodic import AlmostAdditiveField, additivity_defect, two_route_experiment
from .lattice import (
    Pattern,
    PeriodicColoring,
    RandomColoring,
    boundary,
    bounding_box,
    cube,
    cube_sequence,
    enumerate_window_patterns,
    exact_frequency_table,
    occurrences,
    periodic_word,
    site_set,
)
from .montecarlo import (
    SiteDistribution,
    compare_random_ids,
    pastur_shubin_mc,
    random_ids_experiment,
)
from .operators import (
    Facet,
    OperatorSpec,
    PrototypeLibrary,
    add_facet_dirichlet,
    discretize,
)
from .spectral import EnergyWindow, eigenvalues
from .ssf import (
    FacetExperiment,
    PowerGauge,
    facet_experiment,
    fit_decay,
    legendre,
    legendre_grid_sup,
    weyl_check,
)

MASTER_SEED = 20260810
# random colorings, windows and patterns that criterion 1 checks against the oracles
ORACLE_INSTANCES = 200


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0


def _criterion(index: int, name: str, limit: float):
    """Make a body that returns (passed, details) into criterion index: the
    body is timed, and the criterion passes when the body passed within
    limit seconds."""

    def wrap(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body()
            dt = time.perf_counter() - t0
            return CriterionResult(
                index=index, name=name, passed=passed and dt < limit, details=details, runtime_seconds=dt
            )

        return criterion

    return wrap


# ---------------------------------------------------------------------------
# independent brute-force oracles (criterion 1)
# ---------------------------------------------------------------------------

def _oracle_occurrences(P: Pattern, Pp: Pattern) -> int:
    """Scan every translate inside an enlarged bounding window."""
    loP, hiP = bounding_box(P.domain)
    loQ, hiQ = bounding_box(Pp.domain)
    d = len(loP)
    table = dict(zip(Pp.sites, Pp.symbols))
    count = 0
    for x in product(*(range(loQ[i] - hiP[i] - 1, hiQ[i] - loP[i] + 2) for i in range(d))):
        match = True
        for s, sym in zip(P.sites, P.symbols):
            if table.get(tuple(si + xi for si, xi in zip(s, x))) != sym:
                match = False
                break
        if match:
            count += 1
    return count


def _oracle_window_tally(C, U, M) -> dict[tuple, int]:
    """Window-pattern tally built from scratch: explicit min-corner shifting."""
    d = len(next(iter(U)))
    lo, hi = bounding_box(U)
    color = dict(zip(U, C.colors(U)))  # one batch; a set iterates in one order
    tally: dict[tuple, int] = {}
    for x in product(*(range(lo[i] - 1, hi[i] + 2) for i in range(d))):
        cells = list(product(*(range(x[i], x[i] + M) for i in range(d))))
        if all(tuple(c) in U for c in cells):
            key = tuple(sorted(
                (tuple(ci - xi for ci, xi in zip(c, x)), color[tuple(c)])
                for c in cells
            ))
            tally[key] = tally.get(key, 0) + 1
    return tally


def _tally_to_oracle_key(tally) -> dict[tuple, int]:
    out = {}
    for P, k in tally.items():
        c = P.canonical()
        out[tuple(zip(c.sites, c.symbols))] = k
    return out


def _random_coloring_for(rng: random.Random, d: int):
    roll = rng.randrange(3)
    if roll == 0:
        return RandomColoring(
            seed=rng.getrandbits(48), symbols=("a", "b"), weights=(0.5, 0.5), dim=d
        )
    if roll == 1:
        return RandomColoring(
            seed=rng.getrandbits(48), symbols=("a", "b", "c"),
            weights=(0.25, 0.25, 0.5), dim=d,
        )
    if d == 1:
        return periodic_word(rng.choice(["ab", "aab", "abc", "abca"]))
    period = (rng.choice([2, 3]), rng.choice([2, 3]))
    syms = ["a", "b", "c"]
    cell = {
        s: syms[rng.randrange(3)]
        for s in product(range(period[0]), range(period[1]))
    }
    return PeriodicColoring(period=period, cell=cell)


@_criterion(1, "pattern oracle equivalence", 10.0)
def criterion_1_pattern_oracles():
    rng = random.Random(MASTER_SEED)
    mismatches = 0
    for k in range(ORACLE_INSTANCES):
        d = 1 + (k % 2)
        C = _random_coloring_for(rng, d)
        side = rng.randint(3, 18 if d == 2 else 120)
        box = list(product(*(range(side) for _ in range(d))))
        size = rng.randint(2, min(400, len(box)))
        Q = frozenset(rng.sample(box, size))
        M = rng.randint(1, 3)
        Pp = C.restrict(Q)
        got = _tally_to_oracle_key(enumerate_window_patterns(Pp, M))
        want = _oracle_window_tally(C, Q, M)
        if got != want:
            mismatches += 1
        small = frozenset(rng.sample(sorted(Q), min(len(Q), rng.randint(1, 5))))
        P = C.restrict(small)
        if occurrences(P, Pp) != _oracle_occurrences(P, Pp):
            mismatches += 1
    return mismatches == 0, {"instances": ORACLE_INSTANCES, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# criterion 2: frequency exactness and convergence rate
# ---------------------------------------------------------------------------

def _acceptance_colorings():
    return {
        "word-ab": periodic_word("ab"),
        "word-aab": periodic_word("aab"),
        "word-abca": periodic_word("abca"),
        "checker-2x2": PeriodicColoring(
            period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"}
        ),
        "stripes-3x2": PeriodicColoring(
            period=(3, 2), cell={
                (0, 0): "a", (1, 0): "b", (2, 0): "a",
                (0, 1): "b", (1, 1): "a", (2, 1): "b",
            }
        ),
    }


def fit_frequency_rate_constant(
    deficit_at_fit: Fraction, per_period: Fraction, boundary_at_fit: int, d: int, fit_side: int
) -> Fraction:
    """K_P from the fit volume: doubled count deficit plus a one-period
    occurrence allowance for window-phase oscillation (scaled by the fit
    side in d=2 where the straddle count grows with the perimeter)."""
    allowance = per_period * (1 if d == 1 else fit_side)
    return Fraction(2) * (deficit_at_fit + allowance) / boundary_at_fit


@_criterion(2, "frequency exactness and rate", 30.0)
def criterion_2_frequencies():
    fit_j = 8
    sums_exact = True
    violations = 0
    checked = 0
    for name, C in _acceptance_colorings().items():
        d = C.dimension
        js = list(range(8, 65)) if d == 1 else [8, 9, 12, 13, 16, 17, 24, 25, 32, 33, 48, 49, 63, 64]
        cubes = {j: C.restrict(cube(j, d)) for j in js}
        for M in (1, 2, 3):
            table = exact_frequency_table(C, M)
            if table.total() != 1:
                sums_exact = False
            tallies = {j: enumerate_window_patterns(cubes[j], M) for j in js}
            bounds_count = {j: len(boundary(cube(j, d), M)) for j in js}
            for P, nu in table.entries.items():
                def deficit(j):
                    occ = tallies[j].get(P, 0)
                    return abs(Fraction(occ) - nu * Fraction(j**d))

                K_P = fit_frequency_rate_constant(
                    deficit(fit_j), nu * C.cell_volume, bounds_count[fit_j], d, fit_j
                )
                for j in js:
                    checked += 1
                    if deficit(j) / Fraction(j**d) > K_P * Fraction(bounds_count[j], j**d):
                        violations += 1
    return sums_exact and violations == 0, {
        "colorings": 5, "checked_rate_instances": checked,
        "rate_violations": violations, "exact_sums_equal_one": sums_exact,
    }


# ---------------------------------------------------------------------------
# criterion 3: Weyl-law sanity in d=1
# ---------------------------------------------------------------------------

@_criterion(3, "Weyl-law sanity (d=1)", 60.0)
def criterion_3_weyl():
    L, n = 64, 16
    T = math.pi**2
    lib = PrototypeLibrary.zero(["a"], n, 1)
    spec = OperatorSpec(
        Q=cube(L, 1), coloring=periodic_word("a"), library=lib,
        backend="continuum", resolution=n,
    )
    eigs = eigenvalues(discretize(spec), ceiling=T)
    dev = abs(len(eigs) / L - math.sqrt(T) / math.pi)
    for k, E in enumerate(eigs):
        smooth = math.sqrt(E) / math.pi
        dev = max(dev, abs(k / L - smooth), abs((k + 1) / L - smooth))
    margin = weyl_check(eigs, volume=float(L), delta=0.0, C1=0.0, d=1)
    return dev < 0.05 and margin >= 0.0, {
        "sup_deviation": dev, "weyl_margin": margin, "eigenvalues_below_T": int(len(eigs)),
    }


# ---------------------------------------------------------------------------
# criterion 4: almost-additivity on 30 partitions
# ---------------------------------------------------------------------------

def _bipartition_1d(L, cut):
    return [frozenset((i,) for i in range(cut)), frozenset((i,) for i in range(cut, L))]


def _blocks_1d(L, w):
    return [frozenset((i,) for i in range(s, min(s + w, L))) for s in range(0, L, w)]


def _partition_suite():
    lib1 = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 1)
    f_lat1 = AlmostAdditiveField(
        periodic_word("ab"), lib1, EnergyWindow(0.0, 4.5, 2.0), backend="lattice"
    )
    suite = []
    for cut in (2, 4, 8, 12, 14):
        suite.append((f_lat1, _bipartition_1d(16, cut)))
    # random disjoint unions (seeded): shuffled split of C_16 and a random
    # subset of a larger box split in two
    rng = random.Random(MASTER_SEED)
    shuffled = sorted(cube(16, 1))
    rng.shuffle(shuffled)
    suite.append((f_lat1, [
        frozenset(shuffled[:5]), frozenset(shuffled[5:11]), frozenset(shuffled[11:]),
    ]))
    scattered = rng.sample(sorted(cube(20, 1)), 12)
    suite.append((f_lat1, [frozenset(scattered[:6]), frozenset(scattered[6:])]))
    suite.append((f_lat1, _blocks_1d(16, 1)))
    suite.append((f_lat1, _blocks_1d(16, 2)))
    suite.append((f_lat1, _blocks_1d(16, 4)))
    suite.append((f_lat1, [
        site_set([(i,) for i in range(6)]),
        site_set([(i,) for i in range(6, 11)]),
        site_set([(i,) for i in range(11, 16)]),
    ]))
    suite.append((f_lat1, [
        frozenset((i,) for i in range(0, 16, 2)),
        frozenset((i,) for i in range(1, 16, 2)),
    ]))

    chk = PeriodicColoring(
        period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"}
    )
    lib2 = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 2)
    f_lat2 = AlmostAdditiveField(chk, lib2, EnergyWindow(0.0, 9.0, 2.0), backend="lattice")
    Q4 = cube(4, 2)
    suite.append((f_lat2, [frozenset({s}) for s in sorted(Q4)]))
    suite.append((f_lat2, [frozenset(s for s in Q4 if s[0] < 2),
                           frozenset(s for s in Q4 if s[0] >= 2)]))
    suite.append((f_lat2, [frozenset(s for s in Q4 if s[1] < 2),
                           frozenset(s for s in Q4 if s[1] >= 2)]))
    suite.append((f_lat2, [
        frozenset(s for s in Q4 if (s[0] < 2) == a and (s[1] < 2) == b)
        for a in (True, False) for b in (True, False)
    ]))
    suite.append((f_lat2, [frozenset(s for s in Q4 if s[1] == r) for r in range(4)]))
    suite.append((f_lat2, [frozenset(s for s in Q4 if s[0] == c) for c in range(4)]))
    suite.append((f_lat2, [
        frozenset(s for s in Q4 if (s[0] // 2, s[1] // 2) == (a, b))
        for a in (0, 1) for b in (0, 1)
    ]))
    suite.append((f_lat2, [
        frozenset(s for s in Q4 if (s[0] + s[1]) % 2 == 0),
        frozenset(s for s in Q4 if (s[0] + s[1]) % 2 == 1),
    ]))

    f_con1 = AlmostAdditiveField(
        periodic_word("ab"), lib1, EnergyWindow(0.0, 10.0, 2.0), backend="continuum"
    )
    suite.append((f_con1, _bipartition_1d(8, 4)))
    suite.append((f_con1, _bipartition_1d(8, 2)))
    suite.append((f_con1, _blocks_1d(8, 1)))
    suite.append((f_con1, _blocks_1d(8, 2)))
    suite.append((f_con1, [site_set([(0,), (1,), (2,)]),
                           site_set([(i,) for i in range(3, 8)])]))

    const2 = PeriodicColoring(period=(1, 1), cell={(0, 0): "a"})
    lib2c = PrototypeLibrary.constant_potentials({"a": 0.0}, 6, 2)
    f_con2 = AlmostAdditiveField(const2, lib2c, EnergyWindow(0.0, 60.0, 2.0), backend="continuum")
    Q3 = cube(3, 2)
    suite.append((f_con2, [frozenset({s}) for s in sorted(Q3)]))
    suite.append((f_con2, [frozenset(s for s in Q3 if s[0] == c) for c in range(3)]))
    suite.append((f_con2, [frozenset(s for s in Q3 if s[1] == r) for r in range(3)]))
    suite.append((f_con2, [frozenset({(1, 1)}), frozenset(s for s in Q3 if s != (1, 1))]))
    suite.append((f_con2, [frozenset(s for s in Q3 if s[0] < 1),
                           frozenset(s for s in Q3 if s[0] >= 1)]))
    return suite


@_criterion(4, "almost-additivity defect vs budget", 300.0)
def criterion_4_almost_additivity():
    suite = _partition_suite()
    violations = 0
    min_ratio = math.inf
    for fld, parts in suite:
        defect, budget = additivity_defect(fld, parts)
        if defect > budget:
            violations += 1
        min_ratio = min(min_ratio, budget / defect if defect > 0 else math.inf)
    return violations == 0 and len(suite) == 30, {
        "partitions": len(suite), "violations": violations, "min_budget_over_defect": min_ratio,
    }


# ---------------------------------------------------------------------------
# criteria 5 and 6: singular-value decay and Legendre/HS bounds
# ---------------------------------------------------------------------------

def _facet_pairs():
    chk = PeriodicColoring(
        period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"}
    )
    const = lambda d: PeriodicColoring(period=(1,) * d, cell={(0,) * d: "a"})
    plans = [
        ("d1-zero-8c-n8", 1, const(1), {"a": 0.0}, 8, 8, (4,), EnergyWindow(0.0, 10.0, 2.0)),
        ("d1-alloy-8c-n8", 1, periodic_word("ab"), {"a": 0.0, "b": 1.0}, 8, 8, (4,), EnergyWindow(0.0, 10.0, 2.0)),
        ("d1-zero-16c-n16", 1, const(1), {"a": 0.0}, 16, 16, (8,), EnergyWindow(0.0, 10.0, 2.0)),
        ("d2-zero-3c-n8", 2, const(2), {"a": 0.0}, 3, 8, (1, 0), EnergyWindow(0.0, 60.0, 2.0)),
        ("d2-checker-3c-n8", 2, chk, {"a": 0.0, "b": 1.0}, 3, 8, (1, 0), EnergyWindow(0.0, 60.0, 2.0)),
        ("d2-zero-4c-n6", 2, const(2), {"a": 0.0}, 4, 6, (2, 0), EnergyWindow(0.0, 60.0, 2.0)),
    ]
    for name, d, C, vals, cells, n, anchor, window in plans:
        lib = PrototypeLibrary.constant_potentials(vals, n, d)
        specA = OperatorSpec(
            Q=cube(cells, d), coloring=C, library=lib,
            backend="continuum", resolution=n,
        )
        specB = add_facet_dirichlet(specA, Facet(anchor=anchor, axis=0))
        yield name, d, specA, specB, window


FACET_YOUNG_TRIALS = 100


@functools.cache
def _facet_experiments() -> tuple[tuple[str, int, FacetExperiment], ...]:
    """The facet pairs' experiments, solved once for criteria 5 and 6.

    One generator seeded with MASTER_SEED draws the Young trials of every
    pair in turn.
    """
    rng = np.random.default_rng(MASTER_SEED)
    return tuple(
        (name, d, facet_experiment(specA, specB, window, (1.0, 2.0, 3.0), rng, FACET_YOUNG_TRIALS))
        for name, d, specA, specB, window in _facet_pairs()
    )


@_criterion(5, "singular-value decay of facet heat differences", 600.0)
def criterion_5_singular_value_decay():
    rows = []
    ok = True
    for name, d, exp in _facet_experiments():
        fit = fit_decay(exp.series, d=d)
        good = fit.c_hat > 0 and fit.envelope_ok
        ok = ok and good
        rows.append({
            "experiment": name, "dimension": d,
            "points_above_floor": fit.points_used,
            "c_hat": fit.c_hat, "C2_covered": fit.C2_covered,
            "envelope_ok": fit.envelope_ok,
        })
    return ok, {"experiments": rows}


@_criterion(6, "Legendre/Young spectral-shift bounds", 120.0)
def criterion_6_legendre_bounds():
    all_hold = True
    young_failures = 0
    pair_rows = []
    for name, _d, exp in _facet_experiments():
        row = {"experiment": name}
        for p, (direct, bound) in exp.bounds.items():
            row[f"p{p:g}"] = {"direct": direct, "bound": bound.value}
            if direct > bound.value:
                all_hold = False
        young_failures += FACET_YOUNG_TRIALS - exp.young_passed
        pair_rows.append(row)
    legendre_dev = 0.0
    for q in (0.5, 1.0, 2.0):
        G = legendre(PowerGauge(q + 1.0))
        for y in (0.25, 1.0, 2.0, 3.5):
            oracle = legendre_grid_sup(PowerGauge(q + 1.0), y, x_max=8.0, samples=2_000_001)
            legendre_dev = max(legendre_dev, abs(float(G(y)) - oracle))
    return all_hold and young_failures == 0 and legendre_dev < 1e-6, {
        "pairs": pair_rows, "young_failures": young_failures,
        "legendre_closed_form_vs_grid_sup": legendre_dev,
    }


# ---------------------------------------------------------------------------
# criterion 7: two-route consistency
# ---------------------------------------------------------------------------

@_criterion(7, "two-route consistency with error bound", 300.0)
def criterion_7_two_routes():
    window = EnergyWindow(0.0, 4.5, p=2.0)
    coloring = periodic_word("ab")
    # deep binary alloy: the b-sublattice band sits far above the window
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 10.0}, 8, 1)
    fld = AlmostAdditiveField(coloring, lib, window, backend="lattice")
    tables = {M: exact_frequency_table(coloring, M) for M in range(1, 7)}
    sequence = cube_sequence([8, 16, 32, 64, 128, 256], 1)
    report = two_route_experiment(fld, sequence, tables)
    bound_violations = sum(
        1 for row in report.route_distances if row["distance"] > row["bound"]
    )
    final = [
        row["distance"] for row in report.route_distances
        if row["j"] == 256 and row["M"] == 6
    ][0]
    return bound_violations == 0 and final < 0.05, {
        "pairs_checked": len(report.route_distances),
        "bound_violations": bound_violations,
        "distance_j256_M6": final,
        "fitted_K": report.fitted_K,
        "fitted_D": report.fitted_D,
    }


# ---------------------------------------------------------------------------
# criterion 8: random IDS
# ---------------------------------------------------------------------------

@_criterion(8, "random IDS: point mass, seed agreement, self-averaging, truncation", 900.0)
def criterion_8_random():
    window = EnergyWindow(0.0, 5.0, p=2.0)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 1)
    grid = np.linspace(0.0, 5.0, 201)

    # point mass reproduces the deterministic pipeline exactly
    point = SiteDistribution.point_mass("a", seed=MASTER_SEED)
    pm_multi = pastur_shubin_mc(point, lib, grid, samples=4, truncation_radius=8)
    pm_single = pastur_shubin_mc(point, lib, grid, samples=1, truncation_radius=8)
    point_exact = bool(
        np.array_equal(pm_multi.mean, pm_single.mean) and np.all(pm_multi.stderr == 0.0)
    )
    ref_pm = pastur_shubin_mc(point, lib, grid, samples=1, truncation_radius=24)
    cmp_pm = compare_random_ids(point, lib, window, ref_pm, volumes=[8, 32], omegas=[0, 1, 2])
    point_exact = point_exact and bool(
        np.all(cmp_pm.distances == cmp_pm.distances[0])
    )

    # Bernoulli(1/2), two independent seeds, S=200, R=32; the truncation
    # check asserts the localized semigroup trace error below 1e-3, while the
    # sharp-projector estimate's change under R-doubling provably oscillates
    # at O(1/R) and is reported, not asserted.
    exp = random_ids_experiment(
        SiteDistribution.bernoulli("a", "b", seed=1001), 2002, lib, window, grid,
        samples=200, R=32, omegas=[40, 41, 42, 43, 44], volumes=[32, 256],
    )
    per_omega_decrease = exp.comparison.decreased()
    truncation_ok = exp.semigroup_diagnostic < 1e-3
    return bool(point_exact and exp.seeds_agree and per_omega_decrease and truncation_ok), {
        "point_mass_exact": point_exact,
        "two_seed_agreement": exp.seeds_agree,
        "per_omega_distances": exp.comparison.distances,
        "per_omega_decrease": per_omega_decrease,
        "semigroup_truncation_diagnostic": exp.semigroup_diagnostic,
        "projector_estimate_change_on_R_doubling": exp.projector_change,
    }


# ---------------------------------------------------------------------------
# criterion 9: determinism of CLI artifacts
# ---------------------------------------------------------------------------

def _small_config():
    from .config import ExperimentConfig

    cfg = ExperimentConfig()
    cfg.sequence = {"kind": "cubes", "sides": [4, 8]}
    cfg.M_list = [1, 2]
    cfg.random = {
        "weights": {"a": 0.5, "b": 0.5}, "samples": 10, "truncation_radius": 6,
        "lambda_points": 21, "omegas": [0, 1], "compare_volumes": [8, 16],
    }
    cfg.seed = MASTER_SEED
    return cfg


def _run_cli_commands(target: Path) -> dict[str, bytes]:
    from .cli import cmd_ids, cmd_patterns, cmd_random, cmd_weyl

    cfg = _small_config()
    data: dict[str, bytes] = {}
    for name, fn in [
        ("patterns", cmd_patterns), ("ids", cmd_ids),
        ("weyl", cmd_weyl), ("random", cmd_random),
    ]:
        sub = target / name
        sub.mkdir(parents=True, exist_ok=True)
        rc = fn(cfg, sub)
        if rc != 0:
            raise RuntimeError(f"{name} exited with {rc}")
        for f in sorted(sub.iterdir()):
            if f.name != "manifest.json":
                data[f"{name}/{f.name}"] = f.read_bytes()
    return data


@_criterion(9, "byte-identical reruns of CLI data files", math.inf)
def criterion_9_determinism():
    import contextlib
    import io

    tmp = Path(tempfile.mkdtemp(prefix="idslab-determinism-"))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_a = _run_cli_commands(tmp / "a")
            run_b = _run_cli_commands(tmp / "b")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    same_names = set(run_a) == set(run_b)
    diffs = [k for k in run_a if same_names and run_a[k] != run_b[k]]
    return same_names and not diffs, {"files_compared": len(run_a), "differing": diffs}


ALL_CRITERIA = [
    criterion_1_pattern_oracles,
    criterion_2_frequencies,
    criterion_3_weyl,
    criterion_4_almost_additivity,
    criterion_5_singular_value_decay,
    criterion_6_legendre_bounds,
    criterion_7_two_routes,
    criterion_8_random,
    criterion_9_determinism,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
