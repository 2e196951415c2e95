"""Almost-additive engine: defects vs budgets, two routes, error bounds."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from idslab import ergodic
from idslab.ergodic import (
    AlmostAdditiveField,
    BoundaryTerm,
    additivity_defect,
    calibrate_boundary_scale,
    direct_route,
    error_bound_additive,
    pattern_route,
    two_route_experiment,
)
from idslab.lattice import (
    PeriodicColoring,
    RandomColoring,
    WindowColoring,
    cube,
    cube_sequence,
    estimated_frequency_table,
    exact_frequency_table,
    periodic_word,
    site_set,
)
from idslab.operators import PrototypeLibrary
from idslab.spectral import EnergyWindow, lp_distance, lp_norm
from oracles import pattern_from_word

I045 = EnergyWindow(0.0, 4.5, p=2.0)
LIB_AB = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 1)
LIB_A = PrototypeLibrary.constant_potentials({"a": 0.0}, 8, 1)


def lattice_field(coloring=None, lib=None, window=I045):
    return AlmostAdditiveField(
        coloring or periodic_word("ab"), lib or LIB_AB, window, backend="lattice"
    )


def analytic_lattice_ids(lam, vbar=0.0):
    """Band distribution of the 1-d chain: arccos(1 - (lam - vbar)/2) / pi."""
    x = 1.0 - (lam - vbar) / 2.0
    return np.where(x >= 1, 0.0, np.where(x <= -1, 1.0, np.arccos(np.clip(x, -1, 1)) / np.pi))


# ---------------------------------------------------------------------------
# field construction and invariance
# ---------------------------------------------------------------------------

def test_field_invariance_under_pattern_preserving_translation():
    field = lattice_field()
    Q = site_set([(0,), (1,), (2,)])
    Qx = site_set([(2,), (3,), (4,)])  # period-2 coloring: same pattern
    f1, f2 = field.evaluate(Q), field.evaluate(Qx)
    assert f1 == f2


def test_field_two_singletons_vs_pair():
    field = lattice_field(coloring=periodic_word("a"), lib=LIB_A)
    pair = field.evaluate(cube(2, 1))  # spectra {1, 3}
    single = field.evaluate(site_set([(0,)]))  # spectrum {2}
    assert list(pair.breakpoints) == [1.0, 3.0]
    assert list(single.breakpoints) == [2.0]
    defect, budget = additivity_defect(field, [site_set([(0,)]), site_set([(1,)])])
    # |F({0,1}) - 2 F({0})| = 1 exactly on [1,2) and [2,3)
    assert defect == pytest.approx(math.sqrt(2.0))
    assert defect <= budget


def test_single_cell_norm_below_K():
    field = lattice_field()
    for sym, site in [("a", (0,)), ("b", (1,))]:
        norm = lp_norm(field.evaluate(site_set([site])), I045)
        assert norm <= field.K + 1e-12


def test_boundary_term_properties():
    b = BoundaryTerm(scale=2.0, dimension=1)
    Q = cube(6, 1)
    assert b(Q) == b(frozenset((s[0] + 5,) for s in Q))  # translation invariance
    assert b(Q) <= b.D * len(Q)
    ratios = [b(cube(j, 1)) / j for j in (4, 8, 16, 32)]
    assert all(y < x for x, y in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# additivity defect
# ---------------------------------------------------------------------------

def test_defect_zero_for_separated_lattice_sets():
    field = lattice_field()
    parts = [site_set([(0,), (1,)]), site_set([(5,), (6,)])]
    defect, budget = additivity_defect(field, parts)
    assert defect == 0.0
    assert budget > 0


def test_defect_trivial_partition():
    field = lattice_field()
    defect, _ = additivity_defect(field, [cube(4, 1)])
    assert defect == 0.0


def test_defect_rejects_overlap():
    field = lattice_field()
    with pytest.raises(ValueError):
        additivity_defect(field, [cube(2, 1), site_set([(1,), (2,)])])


def test_defect_continuum_bipartition_equals_facet_ssf_norm():
    from idslab.operators import Facet, OperatorSpec, add_facet_dirichlet
    from idslab.ssf import spectral_shift

    window = EnergyWindow(0.0, 10.0, p=2.0)
    lib = PrototypeLibrary.zero(["a"], 8, 1)
    field = AlmostAdditiveField(periodic_word("a"), lib, window, backend="continuum")
    parts = [site_set([(0,), (1,)]), site_set([(2,), (3,)])]
    defect, budget = additivity_defect(field, parts)
    specA = OperatorSpec(Q=cube(4, 1), coloring=periodic_word("a"), library=lib,
                         backend="continuum", resolution=8)
    specB = add_facet_dirichlet(specA, Facet(anchor=(2,), axis=0))
    shift = spectral_shift(specA, specB, window)
    assert defect == pytest.approx(
        lp_norm(shift.xi, window), abs=1e-5
    )
    assert defect <= budget


@pytest.mark.parametrize("backend,resolution,window", [
    ("lattice", 8, I045),
    ("continuum", 6, EnergyWindow(0.0, 12.0, p=2.0)),
])
def test_defect_below_budget_on_partition_families_1d(backend, resolution, window):
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, resolution, 1)
    field = AlmostAdditiveField(periodic_word("ab"), lib, window, backend=backend)
    L = 8
    partitions = [
        [cube(4, 1), frozenset(((i + 4,) for i in range(4)))],
        [site_set([(i,)]) for i in range(L)],
        [site_set([(0,), (1,), (2,)]), site_set([(3,), (4,)]), site_set([(5,), (6,), (7,)])],
    ]
    for parts in partitions:
        defect, budget = additivity_defect(field, parts)
        assert defect <= budget


def test_defect_below_budget_2d_lattice():
    C = PeriodicColoring(period=(2, 2), cell={
        (0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"
    })
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 2)
    field = AlmostAdditiveField(C, lib, EnergyWindow(0.0, 9.0, p=2.0), backend="lattice")
    Q = cube(4, 2)
    checkerboard = [frozenset({s}) for s in sorted(Q)]
    halves = [
        frozenset(s for s in Q if s[0] < 2),
        frozenset(s for s in Q if s[0] >= 2),
    ]
    for parts in (checkerboard, halves):
        defect, budget = additivity_defect(field, parts)
        assert defect <= budget


# ---------------------------------------------------------------------------
# direct route
# ---------------------------------------------------------------------------

def test_direct_route_constant_coloring_converges_to_band_ids():
    field = lattice_field(coloring=periodic_word("a"), lib=LIB_A)
    sequence = cube_sequence([8, 16, 32, 64], 1)
    route = direct_route(field, [field.coloring.restrict(U) for U in sequence])
    d = route.consecutive_distances
    assert all(y <= 1.5 * x for x, y in zip(d, d[1:]))
    last = route.normalized[-1]
    grid = np.linspace(0.1, 3.9, 77)
    dev = np.max(np.abs(last(grid) - analytic_lattice_ids(grid)))
    assert dev < 0.05


def test_direct_route_single_element():
    field = lattice_field()
    route = direct_route(field, [field.coloring.restrict(cube(4, 1))])
    assert len(route.normalized) == 1
    assert route.consecutive_distances == ()


def test_direct_route_rejects_non_van_hove():
    field = lattice_field()
    with pytest.raises(ValueError):
        direct_route(field, [field.coloring.restrict(cube(4, 1))] * 3)


# ---------------------------------------------------------------------------
# pattern route
# ---------------------------------------------------------------------------

def test_pattern_route_constant_coloring_is_normalized_cube():
    field = lattice_field(coloring=periodic_word("a"), lib=LIB_A)
    for M in (1, 2, 3):
        table = exact_frequency_table(periodic_word("a"), M)
        route = pattern_route(field, table)
        direct = field.evaluate(cube(M, 1)).scale(1.0 / M)
        assert lp_distance(route, direct, I045) == 0.0


def test_pattern_route_period2_average():
    field = lattice_field()
    table = exact_frequency_table(periodic_word("ab"), 2)
    route = pattern_route(field, table)
    fa = field.evaluate_pattern(pattern_from_word("ab"))
    fb = field.evaluate_pattern(pattern_from_word("ba"))
    grid = np.linspace(0.0, 4.5, 91)
    expect = (fa(grid) + fb(grid)) / 4.0
    assert np.allclose(route(grid), expect)


def test_pattern_route_zero_frequency_ignored():
    from fractions import Fraction

    from idslab.lattice import FrequencyTable

    field = lattice_field()
    table = exact_frequency_table(periodic_word("ab"), 2)
    entries = dict(table.entries)
    entries[pattern_from_word("aa")] = Fraction(0)
    padded = FrequencyTable(M=2, entries=entries, exact=True)
    assert pattern_route(field, padded) == pattern_route(field, table)


def test_pattern_route_cache_equivalence():
    shared = lattice_field()
    table = exact_frequency_table(periodic_word("ab"), 3)
    route = pattern_route(shared, table)
    # a cached class function equals the same class computed by a fresh field
    for P in table.entries:
        assert shared.evaluate_pattern(P) == lattice_field().evaluate_pattern(P)
    assert pattern_route(shared, table) == route


def test_pattern_route_solves_each_class_once_and_factors_once_per_band_shape(monkeypatch):
    calls = Counter()

    def count(owner, name):
        def counted(*args, _fn=getattr(owner, name), **kwargs):
            calls[name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(ergodic, "discretize")
    count(ergodic, "eigenvalues")
    count(scipy.sparse.linalg, "splu")
    coloring = RandomColoring(seed=3, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 2)
    tables = [estimated_frequency_table(coloring.restrict(cube(12, 2)), M) for M in (2, 3)]
    field = AlmostAdditiveField(coloring, lib, I045, backend="lattice")
    for table in tables:
        calls.clear()
        pattern_route(field, table)
        k = len(table.entries)
        assert k > 2 and calls == Counter(discretize=k, eigenvalues=k, splu=1)
    # classes of two band shapes in one call: one factorization per shape
    fresh = AlmostAdditiveField(coloring, lib, I045, backend="lattice")
    calls.clear()
    classes = [P for table in tables for P in table.entries]
    assert fresh.evaluate_patterns(classes) == [field.evaluate_pattern(P) for P in classes]
    assert calls == Counter(discretize=len(classes), eigenvalues=len(classes), splu=2)


def test_large_classes_are_sliced_and_agree_with_the_batched_certificate(monkeypatch):
    from idslab import spectral

    # the direct route's continuum cubes: side 4 at resolution 8 is a band
    # of N = 961 rows and width 32, with 30 eigenvalues <= 30
    coloring = PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b",
                                                     (0, 1): "b", (1, 1): "a"})
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 2)
    window = EnergyWindow(0.0, 30.0, p=2.0)
    patterns = [coloring.restrict(cube(side, 2)) for side in (4, 2, 1)]

    def field():
        return AlmostAdditiveField(coloring, lib, window, backend="continuum")

    sliced = []
    solve = spectral._sliced
    monkeypatch.setattr(spectral, "_sliced", lambda *a: sliced.append(solve(*a)) or sliced[-1])
    got = field().evaluate_patterns(patterns)
    assert len(sliced) == 1 and len(sliced[0]) == 30
    monkeypatch.setattr(ergodic, "large_band", lambda ab: False)  # every class batched
    want = field().evaluate_patterns(patterns)
    assert len(sliced) == 1
    for f, g in zip(got, want):
        assert np.array_equal(f.values, g.values)
        assert np.allclose(f.breakpoints, g.breakpoints, rtol=1e-10, atol=0)


def test_continuum_class_is_counted_without_a_dense_matrix():
    import tracemalloc

    # side 6 at resolution 8: N = 47^2 = 2,209 rows, whose dense matrix alone
    # takes 37 MiB, against 0.8 MiB for the band of width 48
    coloring = PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b",
                                                     (0, 1): "b", (1, 1): "a"})
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 2)
    field = AlmostAdditiveField(coloring, lib, EnergyWindow(0.0, 60.0, p=2.0), backend="continuum")
    tracemalloc.start()
    try:
        field.evaluate(cube(6, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1), st.integers(1, 2),
    st.sampled_from(["lattice", "continuum"]),
)
def test_periodic_coloring_and_its_window_give_the_same_fields(p1, p2, seed, M, backend):
    rng = np.random.default_rng(seed)
    periodic = PeriodicColoring(
        period=(p1, p2), cell={x: str(rng.choice(["a", "b", "c"])) for x in np.ndindex(p1, p2)}
    )
    U = cube(6, 2)  # holds every M-window class: side >= period + M - 1
    written = WindowColoring(window={x: periodic.color(x) for x in U}, background="a", dim=2)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0, "c": 2.5}, 2, 2)
    window = EnergyWindow(0.0, 40.0, p=2.0)

    def field(coloring):
        return AlmostAdditiveField(coloring, lib, window, backend=backend)

    table = estimated_frequency_table(periodic.restrict(U), M)
    assert table.entries == estimated_frequency_table(written.restrict(U), M).entries
    assert set(table.entries) == set(exact_frequency_table(periodic, M).entries)
    fp, fw = field(periodic), field(written)
    classes = sorted(table.entries, key=lambda P: P.key())
    batched = fp.evaluate_patterns(classes)
    assert batched == fw.evaluate_patterns(classes)
    assert batched == [field(periodic).evaluate_pattern(P) for P in classes]
    assert pattern_route(fp, table) == pattern_route(fw, table)
    assert fp.evaluate(U) == fw.evaluate(U)


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def test_error_bound_additive_form():
    got = error_bound_additive(
        M=2, boundary_ratio=0.25, freq_deviation_sum=0.1, b_of_CM=3.0, K=2.0, D=1.5, d=1
    )
    assert got == pytest.approx(2 * 3.0 / 2 + 3.5 * 0.25 + 2.0 * 0.1)


def test_cross_route_distance_below_field_bound():
    field = lattice_field()
    report = two_route_experiment(field, cube_sequence([8, 16, 32], 1), (1, 2, 3))
    assert report.route_distances
    for row in report.route_distances:
        assert row["distance"] <= row["bound"]


def test_two_route_report_serializes():
    field = lattice_field()
    report = two_route_experiment(field, cube_sequence([4, 8], 1), [1])
    obj = report.to_json_dict()
    assert obj["fitted_K"] > 0 and obj["fitted_D"] > 0
    table = report.summary_table()
    assert table.splitlines()[0].startswith("j\tM")


def test_two_route_experiment_colors_each_member_once(monkeypatch):
    from idslab import lattice

    coloring = RandomColoring(seed=5, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 2)
    sequence = cube_sequence([4, 6, 8], 2)
    field = AlmostAdditiveField(coloring, lib, I045, backend="lattice")
    digests = []
    hashes = lattice._site_hashes

    def counted(seeds, sites):
        out = hashes(seeds, sites)
        digests.append(out.size)
        return out

    monkeypatch.setattr(lattice, "_site_hashes", counted)
    two_route_experiment(field, sequence, (1, 2, 3))
    # every member's sites once, for the direct route, every M's tally and the
    # tables estimated from the last member, and the two cells of the calibration pair
    assert sum(digests) == sum(len(U) for U in sequence) + 2


def test_calibration_positive_for_both_backends():
    s_lat = calibrate_boundary_scale(periodic_word("ab"), LIB_AB, I045, "lattice")
    lib_c = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 6, 1)
    s_con = calibrate_boundary_scale(
        periodic_word("ab"), lib_c, EnergyWindow(0.0, 12.0, p=2.0), "continuum"
    )
    assert s_lat > 0 and s_con > 0


CHECKER = PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"})


@pytest.mark.parametrize("coloring", [periodic_word("ab"), CHECKER], ids=["d1", "d2"])
def test_lattice_calibration_pair_is_the_dense_pair_bitwise(coloring):
    from idslab.operators import lattice_model
    from idslab.ssf import semigroup_difference_singular_values

    d = coloring.dimension
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, d)
    HA = lattice_model(coloring, frozenset({(0,) * d, (1,) + (0,) * (d - 1)}), lib)
    HB = HA.copy()
    HB[0, 1] = HB[1, 0] = 0.0  # the bond between the two cells is cut
    want = semigroup_difference_singular_values(HA, HB)
    assert ergodic.calibration_pair(coloring, lib, "lattice").mu.tobytes() == want.tobytes()


@pytest.mark.parametrize("coloring, a_value", [
    (periodic_word("ab"), None), (CHECKER, None), (CHECKER, [0.3, -0.2]),
], ids=["d1", "d2", "d2-magnetic"])
def test_continuum_calibration_pair_is_the_facet_pair_bitwise(coloring, a_value):
    from idslab.operators import (
        Facet, OperatorSpec, Prototype, add_facet_dirichlet, discretize, grid_embedding,
    )
    from idslab.ssf import semigroup_difference_singular_values
    from oracles import dense

    d, n = coloring.dimension, 4
    lib = PrototypeLibrary([Prototype.constant("a", 0.0, n, d, a_value),
                            Prototype.constant("b", 1.0, n, d)])
    e1 = (1,) + (0,) * (d - 1)
    specA = OperatorSpec(Q=frozenset({(0,) * d, e1}), coloring=coloring, library=lib,
                         backend="continuum", resolution=n)
    specB = add_facet_dirichlet(specA, Facet(anchor=e1, axis=0))
    want = semigroup_difference_singular_values(
        dense(discretize(specA)), dense(discretize(specB)), embed=grid_embedding(specA, specB)
    )
    assert ergodic.calibration_pair(coloring, lib, "continuum").mu.tobytes() == want.tobytes()
