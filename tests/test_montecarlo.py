"""Random colorings, localized traces, Monte Carlo estimates, truncation."""

import multiprocessing
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from idslab import lattice, montecarlo, operators, spectral
from idslab.lattice import _site_hashes, cube, iid_codes
from idslab.montecarlo import (
    McEstimate,
    SiteDistribution,
    centered_box,
    compare_random_ids,
    estimates_agree,
    localized_counting,
    mc_step_function,
    pastur_shubin_mc,
    random_ids_experiment,
    sample_coloring,
    semigroup_truncation_diagnostic,
)
from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, discretize
from idslab.spectral import EnergyWindow, NumericalFailure
from oracles import _site_hash, pattern_from_word, per_sample_mc

LIB_A = PrototypeLibrary.constant_potentials({"a": 0.0}, 4, 1)
LIB_AB = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 1)


def analytic_lattice_ids(lam):
    x = 1.0 - lam / 2.0
    return np.where(x >= 1, 0.0, np.where(x <= -1, 1.0, np.arccos(np.clip(x, -1, 1)) / np.pi))


# ---------------------------------------------------------------------------
# distributions and sampling
# ---------------------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        SiteDistribution(symbols=("a", "b"), weights=(0.6, 0.6), seed=0)
    d = SiteDistribution.bernoulli("a", "b", 0.5, seed=7)
    assert d.weights == (0.5, 0.5)


def test_point_mass_constant_coloring():
    dist = SiteDistribution.point_mass("a", seed=3)
    C = sample_coloring(dist, 0, d=1)
    assert {C.color((x,)) for x in range(-10, 10)} == {"a"}


def test_sample_determinism_and_distinct_indices():
    dist = SiteDistribution.bernoulli("a", "b", seed=11)
    c1 = sample_coloring(dist, 4, d=1)
    c2 = sample_coloring(dist, 4, d=1)
    window = [(x,) for x in range(50)]
    assert [c1.color(s) for s in window] == [c2.color(s) for s in window]
    c3 = sample_coloring(dist, 5, d=1)
    assert [c1.color(s) for s in window] != [c3.color(s) for s in window]


@pytest.mark.parametrize(
    "seed, index, expected",
    [
        (0, 0, 1041621211125469266),
        (7, 3, 3405383674353699258),
        (-1, 12, 18109932358293821849),
        (2**63 + 5, 1, 6170373840279617265),
        (123456789, -4, 3871575879335537974),
    ],
)
def test_sample_seed_is_pinned_site_hash(seed, index, expected):
    # values of the blake2b "<qq" child seed that earlier samples were drawn with
    assert _site_hash(seed, (index,)) == expected
    assert sample_coloring(SiteDistribution.point_mass("a", seed), index, d=1).seed == expected


@pytest.mark.parametrize("sites", [[[-3], [0], [5], [2**62]], [[1, 2], [-5, 3]], [[0, 0, -1]]])
def test_site_hashes_match_site_hash_site_by_site(sites):
    # negative and >= 2**63 seeds pin the shared key mask, d = 1..3 the "<q{d}q" packing
    seeds = [0, 7, -1, 2**63 + 5, 2**64 - 1, np.uint64(2**64 - 3)]
    got = _site_hashes(seeds, np.array(sites))
    assert got.dtype == np.uint64 and got.shape == (len(seeds), len(sites))
    assert got.tolist() == [[_site_hash(int(seed), tuple(x)) for x in sites] for seed in seeds]
    # iid_codes draws each site's symbol from that site's hash
    weights = (0.2, 0.5, 0.3)
    assert iid_codes(seeds, weights, np.array(sites)).tolist() == [
        [_first_exceeding(weights, _site_hash(int(seed), tuple(x)) / 2.0**64) for x in sites]
        for seed in seeds
    ]


def _first_exceeding(weights, u):
    # the i.i.d. rule site by site: a running weight loop
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k
    return len(weights) - 1


@pytest.mark.parametrize("weights", [(0.2, 0.5, 0.3), (0.6, 0.0, 0.4), (0.1,) * 10, (1.0,)])
def test_symbol_codes_follow_the_running_weight_rule(weights, monkeypatch):
    running = np.cumsum(weights)
    assert running[-1] <= 1.0  # for (0.1,) * 10 the float sum is 1 - 2**-53
    u = np.concatenate([
        [0.0, 1.0 - 2.0**-53, 1.0], running, np.nextafter(running, 0.0), np.nextafter(running, 1.0),
        np.random.default_rng(0).random(200),
    ])
    u = u[u <= 1.0]
    # the hashes that iid_codes divides by 2^64 to get these uniforms (2^64 - 1 rounds to 1)
    hashes = np.array([min(int(x * 2.0**64), 2**64 - 1) for x in u], dtype=np.uint64)
    monkeypatch.setattr(lattice, "_site_hashes", lambda seeds, sites: hashes[None])
    u = hashes / 2.0**64
    assert iid_codes([0], weights, np.zeros((len(u), 1)))[0].tolist() == [
        _first_exceeding(weights, x) for x in u
    ]


def test_symbol_frequency_binomial():
    dist = SiteDistribution.bernoulli("a", "b", seed=2)
    C = sample_coloring(dist, 0, d=1)
    hits = sum(C.color((x,)) == "a" for x in range(10_000))
    se = np.sqrt(0.25 / 10_000)
    assert abs(hits / 10_000 - 0.5) < 3 * se


def test_window_pattern_homogeneity():
    """P(pattern 'ab' at the origin) = 1/4 under Bernoulli(1/2)."""
    dist = SiteDistribution.bernoulli("a", "b", seed=9)
    S = 4000
    target = pattern_from_word("ab")
    hits = 0
    for s in range(S):
        C = sample_coloring(dist, s, d=1)
        if C.restrict(cube(2, 1)) == target:
            hits += 1
    se = np.sqrt(0.25 * 0.75 / S)
    assert abs(hits / S - 0.25) < 3 * se


# ---------------------------------------------------------------------------
# localized traces
# ---------------------------------------------------------------------------

def test_localized_traces_tile_to_full_count():
    """Summing the per-cell localized mass over all cells gives N(lambda)."""
    from idslab.operators import discretize, grid_points
    from idslab.spectral import eigensystem

    dist = SiteDistribution.bernoulli("a", "b", seed=5)
    C = sample_coloring(dist, 0, d=1)
    Q = centered_box(3, 1)
    for backend, lib, res in [("lattice", LIB_AB, 4), ("continuum", LIB_AB, 4)]:
        spec = OperatorSpec(Q=Q, coloring=C, library=lib, backend=backend, resolution=res)
        H = discretize(spec)
        w, U = eigensystem(H)
        lam = 3.0
        if backend == "lattice":
            owners = sorted(Q)
            groups = {t: [i] for i, t in enumerate(owners)}
        else:
            pts = grid_points(spec)
            groups = {}
            for i, p in enumerate(pts):
                groups.setdefault(tuple(c // res for c in p), []).append(i)
        total = 0.0
        for sel in groups.values():
            mass = np.sum(np.abs(U[sel, :]) ** 2, axis=0)
            total += float(np.sum(mass[w <= lam]))
        assert total == pytest.approx(float(np.sum(w <= lam)))


def test_centered_box_validation():
    assert len(centered_box(2, 1)) == 5
    assert len(centered_box(1, 2)) == 9
    with pytest.raises(ValueError):
        centered_box(0, 1)


# ---------------------------------------------------------------------------
# Monte Carlo estimates
# ---------------------------------------------------------------------------

def test_point_mass_estimate_matches_band_ids():
    dist = SiteDistribution.point_mass("a")
    grid = np.linspace(0.05, 3.95, 40)
    est = pastur_shubin_mc(dist, LIB_A, grid, samples=1, truncation_radius=48)
    dev = np.max(np.abs(est.mean - analytic_lattice_ids(grid)))
    assert dev < 0.02
    assert np.all(est.stderr == 0.0)


def test_estimate_zero_below_spectrum():
    dist = SiteDistribution.point_mass("a")
    est = pastur_shubin_mc(dist, LIB_A, [-1.0, -0.5], samples=3, truncation_radius=4)
    assert np.all(est.mean == 0.0)


def test_estimate_mean_nondecreasing():
    dist = SiteDistribution.bernoulli("a", "b", seed=20)
    grid = np.linspace(0.0, 5.0, 21)
    est = pastur_shubin_mc(dist, LIB_AB, grid, samples=25, truncation_radius=6)
    assert np.all(np.diff(est.mean) >= -1e-14)


def test_two_seed_sets_agree_within_stderr():
    grid = np.linspace(0.2, 4.8, 12)
    ests = []
    for seed in (101, 202):
        dist = SiteDistribution.bernoulli("a", "b", seed=seed)
        ests.append(
            pastur_shubin_mc(dist, LIB_AB, grid, samples=120, truncation_radius=8)
        )
    assert estimates_agree(*ests)


@pytest.mark.parametrize("z, agree", [(4.05, True), (4.07, False)])
def test_agreement_threshold_is_bonferroni_over_the_grid(z, agree):
    # z* = Phi^-1(1 - 0.01 / 402) = 4.057 at K = 201; one point at z combined se
    grid = np.linspace(0.0, 1.0, 201)
    half = np.full(201, np.sqrt(0.5))  # two such stderrs combine to 1
    mean = np.zeros(201)
    shifted = mean.copy()
    shifted[100] = z
    a = McEstimate(grid, mean, half, 2, 1)
    assert estimates_agree(a, McEstimate(grid, shifted, half, 2, 1)) is agree


@pytest.mark.parametrize("other", [[5.0, 6.0], [0.0, 0.5, 1.0]])
def test_agreement_needs_one_lambda_grid(other):
    a = McEstimate(np.array([0.0, 1.0]), np.zeros(2), np.full(2, 0.1), 2, 1)
    b = McEstimate(np.array(other), np.zeros(len(other)), np.full(len(other), 0.1), 2, 1)
    with pytest.raises(ValueError, match="different lambda grids"):
        estimates_agree(a, b)


def test_a_real_shift_still_disagrees():
    # the random-mc-1d benchmark size, weight 0.5 against 0.6 on symbol a
    grid = np.linspace(0.0, 4.5, 201)
    a, b = (
        pastur_shubin_mc(SiteDistribution(("a", "b"), (p, 1.0 - p), seed), LIB_AB, grid, 800, 48)
        for p, seed in ((0.5, 1), (0.6, 2))
    )
    assert not estimates_agree(a, b)


def test_mc_csv_deterministic():
    dist = SiteDistribution.point_mass("a")
    est1 = pastur_shubin_mc(dist, LIB_A, [1.0, 2.0], samples=2, truncation_radius=3)
    est2 = pastur_shubin_mc(dist, LIB_A, [1.0, 2.0], samples=2, truncation_radius=3)
    assert est1.to_csv() == est2.to_csv()
    header = est1.to_csv().splitlines()[0]
    assert header.startswith("# samples=2 R=3 seed=")


# ---------------------------------------------------------------------------
# one Monte Carlo path: every sample coloured at once, filled and solved in groups
# ---------------------------------------------------------------------------

LIB_ABC = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0, "c": -0.75}, 4, 1)
LIB_TEN = PrototypeLibrary.constant_potentials({s: 0.3 * i for i, s in enumerate("abcdefghij")}, 4, 1)
LIB_AB2 = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 2)
LIB_AB3 = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 3)
DIST_AB = SiteDistribution.bernoulli("a", "b", seed=3)


def _sampled_library(n, d, magnetic):
    """Prototypes a and b of varying samples on the n^d cell grid, with a vector potential
    when magnetic, so that the continuum fill reads every sample's own cell place."""
    rng = np.random.default_rng(0)
    shape = (n,) * d
    return PrototypeLibrary(
        Prototype(sym, rng.uniform(-1.0, 2.0, shape),
                  tuple(rng.uniform(-3.0, 3.0, shape) if magnetic else np.zeros(shape) for _ in range(d)))
        for sym in "ab"
    )


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
@pytest.mark.parametrize(
    "symbols, weights, library, samples, R, backend",
    [
        (("a", "b", "c"), (0.2, 0.5, 0.3), LIB_ABC, 40, 6, "lattice"),
        (("a", "b", "c"), (0.6, 0.0, 0.4), LIB_ABC, 40, 6, "lattice"),
        (tuple("abcdefghij"), (0.1,) * 10, LIB_TEN, 40, 6, "lattice"),
        (("a", "b"), (0.5, 0.5), LIB_AB, 1, 6, "lattice"),
        (("a", "b"), (0.3, 0.7), LIB_AB, 40, 1, "lattice"),
        (("a", "b"), (0.3, 0.7), LIB_AB2, 12, 2, "lattice"),
        (("a", "b"), (0.3, 0.7), LIB_AB3, 6, 1, "lattice"),
        (("a", "b"), (0.3, 0.7), _sampled_library(4, 1, False), 12, 2, "continuum"),
        (("a", "b"), (0.3, 0.7), _sampled_library(3, 2, False), 4, 1, "continuum"),
        (("a", "b"), (0.3, 0.7), _sampled_library(4, 1, True), 12, 2, "continuum"),
        (("a", "b"), (0.3, 0.7), _sampled_library(3, 2, True), 4, 1, "continuum"),
    ],
    ids=[
        "unequal", "zero-weight", "ten-tenths", "one-sample", "R=1", "lattice-2d", "lattice-3d",
        "continuum-1d", "continuum-2d", "magnetic-1d", "magnetic-2d",
    ],
)
def test_chain_estimate_matches_per_sample_loop_bitwise(
    seed, symbols, weights, library, samples, R, backend
):
    dist = SiteDistribution(symbols, weights, seed)
    est = pastur_shubin_mc(dist, library, np.linspace(-0.5, 5.5, 31), samples, R, backend)
    mean, stderr = per_sample_mc(dist, library, est.lambda_grid, samples, R, backend)
    assert np.array_equal(est.mean, mean) and np.array_equal(est.stderr, stderr)
    assert est.to_csv() == McEstimate(est.lambda_grid, mean, stderr, samples, R, est.source).to_csv()
    if samples == 1:
        assert np.all(est.stderr == 0.0)


def test_magnetic_estimates_solve_complex_bands(monkeypatch):
    # the Peierls phases make the bands complex, so every sample reaches zhetrd
    calls = Counter()
    solve = scipy.linalg.lapack.zhetrd

    def counted(*args, **kwargs):
        calls["zhetrd"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zhetrd", counted)
    dist = SiteDistribution(("a", "b"), (0.3, 0.7), 5)
    for d in (1, 2):
        pastur_shubin_mc(dist, _sampled_library(3, d, True), [0.5, 5.5], 2, 1, "continuum")
    assert calls == Counter(zhetrd=4)


def _count_per_sample_calls(monkeypatch):
    """Count the fills, solves, mass kernels and color draws of a Monte Carlo estimate."""
    calls = Counter()
    targets = [
        (montecarlo, "coded_bands"), (montecarlo, "eigensystem"),
        (montecarlo, "eigenvalues"), (montecarlo, "tridiagonal_masses"),
        (lattice.RandomColoring, "color"), (lattice.RandomColoring, "colors"),
    ]
    for owner, name in targets:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_chain_estimate_assembles_and_draws_nothing_per_sample(monkeypatch):
    calls = _count_per_sample_calls(monkeypatch)
    dist = SiteDistribution.bernoulli("a", "b", seed=3)
    pastur_shubin_mc(dist, LIB_AB, np.linspace(0.0, 5.0, 11), samples=5, truncation_radius=4)
    # the group's eigenvalues alone in one call, and its origin masses in one kernel call
    assert calls == Counter(coded_bands=1, eigenvalues=1, tridiagonal_masses=1)


@pytest.mark.parametrize("d, backend", [(1, "lattice"), (2, "lattice"), (1, "continuum"), (2, "continuum")])
def test_every_estimate_fills_once_per_group_and_draws_no_color(monkeypatch, d, backend):
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 3, d)
    samples, R = 7, 1
    n, width = discretize(OperatorSpec(centered_box(R, d), sample_coloring(DIST_AB, 0, d), lib,
                                       backend, resolution=3)).shape
    # groups of two samples: four fills for seven samples
    monkeypatch.setattr(montecarlo, "GROUP_BAND_ENTRIES", 2 * n * width + 1)
    calls = _count_per_sample_calls(monkeypatch)
    # the grid's top is no eigenvalue of these integer models (see the tie test below)
    est = pastur_shubin_mc(DIST_AB, lib, np.linspace(0.0, 4.5, 10), samples, R, backend=backend)
    # d=1 bands are chains: one eigenvalues call and one mass kernel per group
    solves = (Counter(eigenvalues=4, tridiagonal_masses=4) if d == 1
              else Counter(eigensystem=samples))
    assert calls == Counter(coded_bands=4) + solves
    monkeypatch.undo()
    mean, stderr = per_sample_mc(DIST_AB, lib, est.lambda_grid, samples, R, backend)
    assert np.array_equal(est.mean, mean) and np.array_equal(est.stderr, stderr)


@pytest.mark.parametrize("d, backend, bound", [(1, "lattice", 40), (2, "lattice", 200), (1, "continuum", 100)])
def test_certified_groups_cover_every_sample_once_within_the_bound(monkeypatch, d, backend, bound):
    seen = []
    certify = montecarlo.certified_below

    def spy(bands, eigs, ceiling):
        seen.append(np.array(bands))
        return certify(bands, eigs, ceiling)

    monkeypatch.setattr(montecarlo, "GROUP_BAND_ENTRIES", bound)
    monkeypatch.setattr(montecarlo, "certified_below", spy)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 3, d)
    samples, R = 9, 2
    pastur_shubin_mc(DIST_AB, lib, [0.5, 4.25], samples, R, backend=backend)
    assert len(seen) > 1 and all(bands.size <= bound for bands in seen)
    box = centered_box(R, d)
    each = [
        discretize(OperatorSpec(box, sample_coloring(DIST_AB, s, d), lib, backend, resolution=3))
        for s in range(samples)
    ]
    assert np.concatenate(seen).tobytes() == np.stack(each).tobytes()


@pytest.mark.parametrize("samples, R, groups", [(800, 48, 10), (200, 32, 2)],
                         ids=["random-mc-1d", "criterion-8"])
def test_the_benchmark_and_criterion_8_estimates_group_by_the_band_bound(monkeypatch, samples, R, groups):
    # GROUP_BAND_ENTRIES // (N x 2) chains per group: 84 of N = 97, 126 of N = 65
    calls = _count_per_sample_calls(monkeypatch)
    pastur_shubin_mc(DIST_AB, LIB_AB, np.linspace(0.0, 4.5, 201), samples, R)
    assert calls == Counter(coded_bands=groups, eigenvalues=groups, tridiagonal_masses=groups)


def test_each_chain_group_is_checked_once_by_each_solver(monkeypatch):
    # eigenvalues and certified_below each check the group's stack once; 126 chains of N = 65 per group
    check, checked = spectral._checked, []
    monkeypatch.setattr(spectral, "_checked", lambda B: checked.append(np.shape(B)) or check(B))
    pastur_shubin_mc(DIST_AB, LIB_AB, np.linspace(0.0, 4.5, 201), 200, 32)
    assert checked == [(126, 65, 2)] * 2 + [(74, 65, 2)] * 2


def test_estimate_memory_does_not_grow_with_the_sample_count():
    """Samples are filled, solved and certified in bounded groups, so a d=2
    estimate at S=400 peaks no higher than at S=100 plus a 2 MiB margin.  The
    arrays that do grow with S (the codes, 169 per sample, and the rows, 201
    per sample) take about 1.3 MiB more at S=400; a single group of 400 bands
    would add over 10 MiB."""
    grid = np.linspace(0.0, 8.5, 201)
    pastur_shubin_mc(DIST_AB, LIB_AB2, grid, 2, 1)  # imports and caches outside the trace
    peaks = []
    for samples in (100, 400):
        tracemalloc.start()
        try:
            pastur_shubin_mc(DIST_AB, LIB_AB2, grid, samples, 6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * 2**20


@pytest.mark.parametrize("d, backend", [(1, "lattice"), (2, "lattice"), (1, "continuum")])
def test_an_empty_lambda_grid_is_refused(d, backend):
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, d)
    with pytest.raises(ValueError, match="lambda grid is empty"):
        pastur_shubin_mc(DIST_AB, lib, [], 2, 1, backend=backend)
    with pytest.raises(ValueError, match="lambda grid is empty"):
        semigroup_truncation_diagnostic(sample_coloring(DIST_AB, 0, d), lib, 1, [], backend)


@pytest.mark.parametrize("d", [1, 2])
def test_overflowing_cell_means_are_refused_on_both_paths(d):
    # the prototype refuses them, so no estimate meets one, on any backend or in any d
    with pytest.raises(ValueError, match="non-finite cell mean"):
        PrototypeLibrary.constant_potentials({"a": 1e308, "b": 1e308}, 4, d)


def test_a_ceiling_on_an_eigenvalue_of_an_integer_lattice_model_is_certified():
    # sample 3 of this estimate has the exact eigenvalue 5 and four diagonal entries 5
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 3, 2)
    pastur_shubin_mc(DIST_AB, lib, np.linspace(0.0, 5.0, 11), 7, 1)


def test_every_chain_row_is_certified_by_a_sturm_count(monkeypatch):
    seen, sturm = [], []
    certify, count = spectral.certified_below, spectral.tridiagonal_counts

    def spy(bands, eigs, ceiling):
        seen.append((bands.shape, np.shape(eigs), ceiling))
        return certify(bands, eigs, ceiling)

    def counted(diagonals, offdiagonals, shifts):
        sturm.append((diagonals.shape, offdiagonals.shape, tuple(shifts)))
        return count(diagonals, offdiagonals, shifts)

    monkeypatch.setattr(montecarlo, "certified_below", spy)
    monkeypatch.setattr(spectral, "tridiagonal_counts", counted)
    dist = SiteDistribution.bernoulli("a", "b", seed=4)
    pastur_shubin_mc(dist, LIB_AB, [0.5, 2.5, 4.25], samples=7, truncation_radius=3)
    assert seen == [((7, 7, 2), (7, 7), 4.25)]
    assert sturm == [((7, 7), (7, 6), (4.25,) * 7)]


@pytest.mark.parametrize("shift, fails", [(1e-8, True), (5e-10, False)])
def test_chain_masses_must_sum_to_the_origin_points(monkeypatch, shift, fails):
    # groups of four samples of N = 9; the second group's second row is sample 5
    monkeypatch.setattr(montecarlo, "GROUP_BAND_ENTRIES", 4 * 9 * 2)
    masses, calls = montecarlo.tridiagonal_masses, []

    def skewed(*args):
        out = masses(*args)
        calls.append(len(out))
        if len(calls) == 2:
            out[1, -1] += shift
        return out

    monkeypatch.setattr(montecarlo, "tridiagonal_masses", skewed)
    grid = np.linspace(0.0, 4.5, 10)
    if fails:
        with pytest.raises(NumericalFailure, match="sample 5: .* origin cell sum to"):
            pastur_shubin_mc(DIST_AB, LIB_AB, grid, 7, 4)
    else:
        pastur_shubin_mc(DIST_AB, LIB_AB, grid, 7, 4)
    assert calls == [4, 3]


def test_eigenvector_masses_must_sum_to_the_origin_points(monkeypatch):
    # d=2 groups take their masses from the eigenvectors, under the same check as chains
    solve, calls = montecarlo.eigensystem, []

    def skewed(B):
        w, U = solve(B)
        calls.append(len(B))
        return w, U * (1.0 + 1e-8) if len(calls) == 3 else U

    monkeypatch.setattr(montecarlo, "eigensystem", skewed)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 3, 2)
    with pytest.raises(NumericalFailure, match="sample 2: .* origin cell sum to"):
        pastur_shubin_mc(DIST_AB, lib, np.linspace(0.0, 4.5, 10), 4, 1)
    assert len(calls) == 4  # the group is solved, then certified, then checked


def test_chains_cut_by_a_facet_keep_the_eigensystem(monkeypatch):
    # the facet's grid point is deleted, so one off-diagonal of the chain is zero
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 3, 1)
    spec = OperatorSpec(centered_box(2, 1), sample_coloring(DIST_AB, 0, 1), lib, "continuum", 3)
    cut = operators.add_facet_dirichlet(spec, operators.Facet(anchor=(1,), axis=0))
    calls = _count_per_sample_calls(monkeypatch)
    counts = localized_counting(cut, np.linspace(0.0, 40.0, 9))
    assert calls == Counter(coded_bands=1, eigensystem=1, colors=1)  # its five cells in one batch
    assert counts[-1] == pytest.approx(3.0)  # every eigenvalue is below 40: the origin's three points


def test_chain_estimate_memory_is_no_higher_than_with_eigenvectors():
    """The random-mc-1d estimate (S=800, R=48) holds eigenvalues, masses and
    the mass kernel's temporaries of one group of GROUP_BAND_ENTRIES band
    entries at a time.  Its traced peak stays at or below 4 MiB (measured
    3.2 MiB), under the 5.67 MiB of the per-sample eigenvector solves it
    replaced and the 5.53 MiB of the single group of 2**18 entries."""
    grid = np.linspace(0.0, 4.5, 201)
    pastur_shubin_mc(DIST_AB, LIB_AB, grid, 2, 1)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        pastur_shubin_mc(DIST_AB, LIB_AB, grid, 800, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_chain_estimate_with_a_wrong_count_fails(monkeypatch):
    solve = scipy.linalg.lapack.dsbevd

    def shifted(*args, **kwargs):
        w, *rest = solve(*args, **kwargs)
        return (w + 0.5, *rest)  # one row's count below the ceiling now disagrees

    monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", shifted)
    dist = SiteDistribution.bernoulli("a", "b", seed=4)
    with pytest.raises(NumericalFailure, match=r"inertia of H - T\*I"):
        pastur_shubin_mc(dist, LIB_AB, [0.5, 2.5], samples=4, truncation_radius=3)


@pytest.mark.parametrize("d, backend, solver", [(2, "lattice", "dstevd"), (1, "continuum", "dsbevd")])
def test_per_sample_estimate_with_a_wrong_count_fails(monkeypatch, d, backend, solver):
    solve = getattr(scipy.linalg.lapack, solver)

    def shifted(*args, **kwargs):
        w, *rest = solve(*args, **kwargs)
        return (w + 0.5, *rest)  # the count below the grid's top now disagrees

    monkeypatch.setattr(scipy.linalg.lapack, solver, shifted)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, d)
    dist = SiteDistribution.bernoulli("a", "b", seed=4)
    with pytest.raises(NumericalFailure, match=r"inertia of H - T\*I"):
        pastur_shubin_mc(dist, lib, [0.5, 2.5], samples=2, truncation_radius=2, backend=backend)


# ---------------------------------------------------------------------------
# truncation diagnostics
# ---------------------------------------------------------------------------

def test_semigroup_truncation_diagnostic_tiny_and_decaying():
    dist = SiteDistribution.point_mass("a")
    C = sample_coloring(dist, 0, d=1)
    grid = np.linspace(0.2, 3.8, 19)
    d1, _ = semigroup_truncation_diagnostic(C, LIB_A, 1, grid)
    d2, _ = semigroup_truncation_diagnostic(C, LIB_A, 2, grid)
    d8, _ = semigroup_truncation_diagnostic(C, LIB_A, 8, grid)
    assert d2 < d1
    assert d8 < 1e-12  # round-trip heat-kernel decay saturates machine precision


def test_an_eigenvalue_on_a_grid_point_counts_whichever_side_it_is_computed(monkeypatch):
    # the free chain of N = 65 sites has the exact eigenvalues 1, 2 and 3, all points of the grid
    point = SiteDistribution.point_mass("a")
    grid = np.linspace(0.0, 4.0, 5)
    means = [pastur_shubin_mc(point, LIB_A, grid, samples=1, truncation_radius=32).mean]
    solve = scipy.linalg.lapack.dsbevd
    for direction in (-np.inf, np.inf):
        def nudged(*args, _to=direction, **kwargs):
            w, *rest = solve(*args, **kwargs)
            return (np.nextafter(w, _to), *rest)  # one ulp below or above

        monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", nudged)
        means.append(pastur_shubin_mc(point, LIB_A, grid, samples=1, truncation_radius=32).mean)
    # an ulp of the eigenvalues moves the masses in their last bits; a tie counted on the
    # wrong side would move the mean by the eigenvector's origin mass, 1/33 at lambda = 2
    assert np.allclose(means[1:], means[0], rtol=0, atol=1e-12)


def test_projector_estimate_R_change_is_order_one_over_R():
    """The sharp-projector estimate moves like 1/R under doubling (staircase)."""
    dist = SiteDistribution.point_mass("a")
    grid = np.linspace(0.2, 3.8, 19)
    e1 = pastur_shubin_mc(dist, LIB_A, grid, samples=1, truncation_radius=16)
    e2 = pastur_shubin_mc(dist, LIB_A, grid, samples=1, truncation_radius=32)
    change = np.max(np.abs(e1.mean - e2.mean))
    assert change < 3.0 / 17.0  # staircase envelope
    assert change > 1e-3  # and genuinely not semigroup-small
    # the truncation pair reads the same change off its own eigensystems
    _, pair_change = semigroup_truncation_diagnostic(
        sample_coloring(dist, 0, d=1), LIB_A, 16, grid
    )
    assert pair_change == change


# ---------------------------------------------------------------------------
# per-sample comparison
# ---------------------------------------------------------------------------

def test_compare_point_mass_reduces_to_deterministic():
    from idslab.ergodic import AlmostAdditiveField
    from idslab.spectral import lp_distance

    window = EnergyWindow(0.0, 4.5, p=2.0)
    dist = SiteDistribution.point_mass("a")
    grid = np.linspace(0.0, 4.5, 40)
    ref = pastur_shubin_mc(dist, LIB_A, grid, samples=1, truncation_radius=24)
    report = compare_random_ids(
        dist, LIB_A, window, ref, volumes=[8, 32], omegas=[0, 1]
    )
    # degenerate randomness: both sampled colorings are the constant one
    assert np.allclose(report.distances[0], report.distances[1])
    # and they match an explicitly deterministic pipeline
    field = AlmostAdditiveField(sample_coloring(dist, 0, 1), LIB_A, window, backend="lattice")
    expect = lp_distance(
        field.evaluate(cube(8, 1)).scale(1 / 8), mc_step_function(ref), window
    )
    assert report.distances[0][0] == pytest.approx(expect)


def test_compare_bernoulli_distance_decreases():
    window = EnergyWindow(0.0, 5.0, p=2.0)
    dist = SiteDistribution.bernoulli("a", "b", seed=77)
    grid = np.linspace(0.0, 5.0, 26)
    ref = pastur_shubin_mc(dist, LIB_AB, grid, samples=60, truncation_radius=12)
    report = compare_random_ids(
        dist, LIB_AB, window, ref, volumes=[16, 128], omegas=[0, 1, 2]
    )
    assert report.decreased()


# ---------------------------------------------------------------------------
# the estimate and its twin in forked workers
# ---------------------------------------------------------------------------

def _small_experiment():
    return random_ids_experiment(
        SiteDistribution.bernoulli("a", "b", seed=5), 6, LIB_AB, EnergyWindow(0.0, 4.5),
        np.linspace(0.0, 4.5, 31), samples=40, R=6, omegas=[0], volumes=[4, 8],
    )


def test_estimates_are_bitwise_equal_with_one_worker_and_with_two(monkeypatch):
    runs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        runs[len(cpus)] = exp = _small_experiment()
        assert exp.pool["workers"] == len(cpus)
    for one, two in ((runs[1].estimate, runs[2].estimate), (runs[1].twin, runs[2].twin)):
        assert one.mean.tobytes() == two.mean.tobytes()
        assert one.stderr.tobytes() == two.stderr.tobytes()
        assert one.to_csv() == two.to_csv()
    assert runs[1].estimate.to_csv() != runs[1].twin.to_csv()


def test_workers_leave_no_child_and_the_openblas_thread_counts_as_they_were(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = {name: get() for name, (get, _) in spectral._openblas().items()}
    exp = _small_experiment()
    assert exp.pool == {"workers": 2, "openblas": before}
    assert multiprocessing.active_children() == []
    assert {name: get() for name, (get, _) in spectral._openblas().items()} == before


def test_an_exception_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fails(seed):
        if seed == 2:
            raise NumericalFailure(f"sample 3 of seed {seed}")
        return seed

    with pytest.raises(NumericalFailure, match="^sample 3 of seed 2$"):
        spectral.in_workers(fails, {"one": (1,), "two": (2,)})
    assert multiprocessing.active_children() == []
    assert spectral.in_workers(fails, {"one": (1,), "three": (3,)}) == (
        [1, 3], {"workers": 2, "openblas": {n: g() for n, (g, _) in spectral._openblas().items()}}
    )


def test_workers_run_openblas_on_one_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def counts():
        return {name: get() for name, (get, _) in spectral._openblas().items()}

    results, record = spectral.in_workers(counts, {"one": (), "two": ()})
    assert results == [{name: 1 for name in record["openblas"]}] * 2
    assert counts() == record["openblas"]
