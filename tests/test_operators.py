"""Hamiltonian assembly: tiling, Dirichlet bookkeeping, Peierls phases."""

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idslab.ergodic
import idslab.montecarlo
import idslab.ssf
from idslab.ergodic import AlmostAdditiveField
from idslab.lattice import (
    Coloring,
    Pattern,
    PeriodicColoring,
    RandomColoring,
    WindowColoring,
    cube,
    periodic_word,
    site_set,
)
from idslab.montecarlo import localized_counting
from idslab.operators import (
    Facet,
    OperatorSpec,
    Prototype,
    PrototypeLibrary,
    add_facet_dirichlet,
    coded_bands,
    discretize,
    facet_within,
    grid_embedding,
    grid_points,
    lattice_model,
    matrix_dimension,
)
from idslab.spectral import EnergyWindow, assert_hermitian, eigensystem, eigenvalues, lower_band
from idslab.ssf import semigroup_difference_singular_values, spectral_shift
from oracles import dense, dirichlet_chain_eigenvalues

N = 8
LIB01 = PrototypeLibrary.constant_potentials({"a": 1.0, "b": 0.0}, N, 1)
LIB0 = PrototypeLibrary.zero(["a"], N, 1)


def two_cell_spec(n=N, coloring=None, lib=None):
    return OperatorSpec(
        Q=cube(2, 1),
        coloring=coloring or periodic_word("a"),
        library=lib or PrototypeLibrary.zero(["a"], n, 1),
        backend="continuum",
        resolution=n,
    )


# ---------------------------------------------------------------------------
# prototypes and field tiling
# ---------------------------------------------------------------------------

def test_prototype_validation():
    with pytest.raises(ValueError):
        Prototype("x", np.array([[0.0, 1.0]]), (np.zeros((1, 2)),))  # non-cubic
    with pytest.raises(ValueError):
        Prototype("x", np.array([np.inf, 0.0]), (np.zeros(2),))
    p = Prototype.constant("a", 2.5, 4, 2)
    assert p.cell_mean_v == 2.5 and p.resolution == 4 and p.dimension == 2


def test_library_json_round_trip():
    lib = PrototypeLibrary.constant_potentials({"a": 1.0, "b": 0.0}, 3, 1)
    again = PrototypeLibrary.from_json(
        '{"a": {"v": [1.0, 1.0, 1.0], "a": [[0.0, 0.0, 0.0]]}, "b": {"v": [0.0, 0.0, 0.0]}}'
    )
    assert again.symbols == ("a", "b")
    for sym in again.symbols:
        assert np.array_equal(again[sym].v, lib[sym].v)
        assert np.array_equal(again[sym].a[0], lib[sym].a[0])


def _assembled_potential(coloring, Q, lib):
    """V at every grid point the assembled matrix acts on: its diagonal minus 2d/h^2."""
    spec = OperatorSpec(
        Q=Q, coloring=coloring, library=lib,
        backend="continuum", resolution=lib.resolution,
    )
    H = dense(discretize(spec))
    V = np.diag(H).real - 2.0 * spec.dimension * spec.resolution**2
    return H, dict(zip(grid_points(spec), V.tolist()))


def test_assemble_fields_zero():
    H, V = _assembled_potential(periodic_word("a"), cube(3, 1), LIB0)
    assert all(v == 0.0 for v in V.values())
    # A = 0: real links of weight -1/h^2
    assert H.dtype == np.float64
    assert np.array_equal(np.diag(H, 1), np.full(len(V) - 1, -float(N**2)))
    assert len(V) == 3 * N - 1


def test_assemble_fields_period2_tiling():
    _, V = _assembled_potential(periodic_word("ab"), cube(2, 1), LIB01)
    # half-open ownership: grid point N (the shared face) belongs to cell 1
    assert V[(N,)] == 0.0 and V[(N - 1,)] == 1.0
    for p, v in V.items():
        cell = p[0] // N
        assert v == (1.0 if cell % 2 == 0 else 0.0)


def test_assemble_fields_single_cell_identity():
    rng = np.random.default_rng(0)
    proto = Prototype("a", rng.uniform(size=(4, 4)), (np.zeros((4, 4)), np.zeros((4, 4))))
    lib = PrototypeLibrary([proto])
    C = PeriodicColoring(period=(1, 1), cell={(0, 0): "a"})
    _, V = _assembled_potential(C, site_set([(0, 0)]), lib)
    assert len(V) == 9
    for (i, j), v in V.items():
        # grid point (i, j) samples local index (i, j) of the cell it owns
        assert v == pytest.approx(proto.v[i, j], abs=1e-13)


def test_missing_prototype_rejected():
    spec = OperatorSpec(
        Q=cube(2, 1), coloring=periodic_word("ab"),
        library=PrototypeLibrary.constant_potentials({"a": 0.0}, N, 1),
        backend="continuum", resolution=N,
    )
    with pytest.raises(KeyError):
        discretize(spec)


# ---------------------------------------------------------------------------
# continuum discretization
# ---------------------------------------------------------------------------

def test_fd_laplacian_matches_analytic_spectrum():
    L, n = 10, 8
    spec = OperatorSpec(
        Q=cube(L, 1), coloring=periodic_word("a"),
        library=PrototypeLibrary.zero(["a"], n, 1),
        backend="continuum", resolution=n,
    )
    B = discretize(spec)
    assert B.shape == (n * L - 1, 2)  # the diagonal and one off-diagonal
    got = eigenvalues(B)
    assert np.allclose(got, np.sort(dirichlet_chain_eigenvalues(L, n)), atol=1e-8)


def test_zero_vector_potential_gives_real_matrix():
    H = dense(discretize(two_cell_spec()))
    assert H.dtype == np.float64
    assert_hermitian(H)


def test_constant_gauge_invariance_1d():
    n = 16
    lib_a = PrototypeLibrary([Prototype.constant("a", 0.0, n, 1, a_value=[0.7])])
    lib_0 = PrototypeLibrary.zero(["a"], n, 1)
    spec_a = OperatorSpec(Q=cube(3, 1), coloring=periodic_word("a"),
                          library=lib_a, backend="continuum", resolution=n)
    spec_0 = OperatorSpec(Q=cube(3, 1), coloring=periodic_word("a"),
                          library=lib_0, backend="continuum", resolution=n)
    Ha, H0 = dense(discretize(spec_a)), dense(discretize(spec_0))
    assert np.iscomplexobj(Ha)
    assert_hermitian(Ha)
    ea, e0 = np.linalg.eigvalsh(Ha), np.linalg.eigvalsh(H0)
    assert np.max(np.abs(ea - e0) / np.abs(e0)) < 1e-8


def test_gauge_oracle_diagonal_conjugation():
    """Independent check: conjugating by the exact phase diagonal reproduces H."""
    n = 8
    lib_a = PrototypeLibrary([Prototype.constant("a", 0.0, n, 1, a_value=[0.5])])
    spec = OperatorSpec(Q=cube(2, 1), coloring=periodic_word("a"),
                        library=lib_a, backend="continuum", resolution=n)
    Ha = dense(discretize(spec))
    H0 = dense(discretize(two_cell_spec(n=n)))
    h = 1.0 / n
    pts = grid_points(spec)
    phases = np.exp(1j * 0.5 * h * np.array([p[0] for p in pts]))
    D = np.diag(phases)
    assert np.allclose(D @ H0 @ D.conj().T, Ha, atol=1e-12)


def test_translation_invariance_of_assembly():
    C = periodic_word("ab")
    lib = LIB01
    specs = []
    for shift in (0, 2):
        Q = site_set([(shift,), (shift + 1,)])
        specs.append(OperatorSpec(Q=Q, coloring=C, library=lib,
                                  backend="continuum", resolution=N))
    B0, B1 = discretize(specs[0]), discretize(specs[1])
    assert np.array_equal(B0, B1)
    e0, e1 = np.linalg.eigvalsh(dense(B0)), np.linalg.eigvalsh(dense(B1))
    assert np.max(np.abs(e0 - e1)) < 1e-10


def test_minimal_single_cell_geometry():
    # one cell at the coarsest resolution: exactly one interior point
    spec = OperatorSpec(
        Q=cube(1, 1), coloring=periodic_word("a"),
        library=PrototypeLibrary.zero(["a"], 2, 1),
        backend="continuum", resolution=2,
    )
    H = discretize(spec)
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(2 * 1 * 4)  # 2d/h^2 with h = 1/2


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------

def test_facet_split_blocks_1d():
    spec = two_cell_spec()
    split = add_facet_dirichlet(spec, Facet(anchor=(1,), axis=0))
    H = dense(discretize(split))
    assert H.shape == (2 * N - 2, 2 * N - 2)
    # independent single-cell assemblies
    single = OperatorSpec(
        Q=cube(1, 1), coloring=periodic_word("a"),
        library=PrototypeLibrary.zero(["a"], N, 1), backend="continuum", resolution=N,
    )
    Hs = dense(discretize(single))
    expected = np.sort(np.concatenate([np.linalg.eigvalsh(Hs)] * 2))
    assert np.allclose(np.linalg.eigvalsh(H), expected, atol=1e-10)


def test_outer_facet_is_noop():
    spec = two_cell_spec()
    outer = add_facet_dirichlet(spec, Facet(anchor=(0,), axis=0))
    assert np.array_equal(discretize(outer), discretize(spec))


def test_facet_outside_rejected():
    spec = two_cell_spec()
    with pytest.raises(ValueError):
        add_facet_dirichlet(spec, Facet(anchor=(5,), axis=0))
    assert facet_within(Facet(anchor=(2,), axis=0), spec.Q)  # face of cell 1


def test_all_internal_facets_of_c2_2d():
    n = 4
    lib = PrototypeLibrary.zero(["a"], n, 2)
    C = periodic_word("a")

    class Const2(Coloring):
        dimension = 2
        alphabet = ("a",)

        def color(self, s):
            return "a"

        def restrict(self, Q):
            import idslab.lattice as lat

            sites = tuple(sorted(Q))
            return lat.Pattern(sites, tuple("a" for _ in sites))

    spec = OperatorSpec(Q=cube(2, 2), coloring=Const2(), library=lib,
                        backend="continuum", resolution=n)
    # the four facets shared by two cells of the 2x2 cube
    facets = [Facet(anchor=(1, 0), axis=0), Facet(anchor=(1, 1), axis=0),
              Facet(anchor=(0, 1), axis=1), Facet(anchor=(1, 1), axis=1)]
    for f in facets:
        spec = add_facet_dirichlet(spec, f)
    H = dense(discretize(spec))
    assert H.shape == (4 * (n - 1) ** 2, 4 * (n - 1) ** 2)
    single = OperatorSpec(Q=cube(1, 2), coloring=Const2(), library=lib,
                          backend="continuum", resolution=n)
    cell_eigs = np.linalg.eigvalsh(dense(discretize(single)))
    expected = np.sort(np.concatenate([cell_eigs] * 4))
    assert np.allclose(np.linalg.eigvalsh(H), expected, atol=1e-10)


def test_dirichlet_monotonicity():
    spec = two_cell_spec(n=12)
    split = add_facet_dirichlet(spec, Facet(anchor=(1,), axis=0))
    e1 = np.linalg.eigvalsh(dense(discretize(spec)))
    e2 = np.linalg.eigvalsh(dense(discretize(split)))
    assert np.all(e2 - e1[: len(e2)] >= -1e-10)


# ---------------------------------------------------------------------------
# lattice backend
# ---------------------------------------------------------------------------

def test_lattice_single_site():
    H = lattice_model(periodic_word("a"), cube(1, 1), LIB0)
    assert np.array_equal(H, [[2.0]])


def test_lattice_two_sites():
    H = lattice_model(periodic_word("a"), cube(2, 1), LIB0)
    assert np.array_equal(H, [[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(np.linalg.eigvalsh(H), [1.0, 3.0])


def test_lattice_potential_shift():
    lib0 = PrototypeLibrary.constant_potentials({"a": 0.0}, 2, 1)
    lib3 = PrototypeLibrary.constant_potentials({"a": 3.0}, 2, 1)
    C = periodic_word("a")
    e0 = np.linalg.eigvalsh(lattice_model(C, cube(5, 1), lib0))
    e3 = np.linalg.eigvalsh(lattice_model(C, cube(5, 1), lib3))
    assert np.allclose(e3, e0 + 3.0)


def test_lattice_2d_neighbors():
    lib = PrototypeLibrary.zero(["a"], 2, 2)
    H = lattice_model(PeriodicColoring(period=(1, 1), cell={(0, 0): "a"}), cube(2, 2), lib)
    assert H.shape == (4, 4)
    assert np.all(np.diag(H) == 4.0)
    assert np.sum(H == -1.0) == 8  # 4 edges, both directions


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 3),
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3), st.sampled_from("ab"),
                    min_size=1, max_size=30),
    st.sampled_from(sorted(permutations(range(3)))),
    st.tuples(*[st.sampled_from((-1, 1))] * 3),
)
def test_lattice_spectrum_invariant_under_window_symmetries(d, marks, perm, signs):
    """Reflecting a window coloring or permuting its axes, together with Q,
    relabels the sites of the lattice model and keeps its spectrum."""
    perm = [p for p in perm if p < d]

    def g(x):
        return tuple(signs[i] * x[perm[i]] for i in range(d))

    window = {x[:d]: sym for x, sym in marks.items()}
    Q = frozenset(window)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0, "c": 2.5}, 2, d)
    H = lattice_model(WindowColoring(window=window, background="c", dim=d), Q, lib)
    gH = lattice_model(
        WindowColoring(window={g(x): sym for x, sym in window.items()}, background="c", dim=d),
        frozenset(map(g, Q)), lib,
    )
    tol = 1e-12 * max(1.0, np.linalg.norm(H, 2))
    assert np.max(np.abs(np.linalg.eigvalsh(gH) - np.linalg.eigvalsh(H))) <= tol


def _dict_loop_lattice_model(Q, library, color_of):
    """Reference assembly: one dict lookup per site and axis."""
    d = len(next(iter(Q)))
    pts = sorted(Q)
    index = {p: i for i, p in enumerate(pts)}
    H = np.zeros((len(pts), len(pts)))
    for p, i in index.items():
        H[i, i] = 2.0 * d + library[color_of(p)].cell_mean_v
        for j in range(d):
            q = tuple(c + (1 if k == j else 0) for k, c in enumerate(p))
            iq = index.get(q)
            if iq is not None:
                H[i, iq] = -1.0
                H[iq, i] = -1.0
    return H


def _scattered_sites(d, seed):
    """Non-box site set with gaps and negative coordinates."""
    rng = np.random.default_rng(seed)
    return site_set(rng.integers(-5, 6, size=(int(rng.integers(1, 80)), d)).tolist())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "Q_of",
    [lambda d: cube(1, d), lambda d: cube(4, d)]
    + [lambda d, s=s: _scattered_sites(d, s) for s in range(6)],
    ids=["single", "cube"] + [f"scattered-{s}" for s in range(6)],
)
def test_lattice_model_matches_dict_loop_bitwise(d, Q_of):
    lib = PrototypeLibrary.constant_potentials({"a": 0.3, "b": -1.7, "c": 2.0 / 3.0}, 2, d)
    C = RandomColoring(seed=5, symbols=("a", "b", "c"), weights=(0.2, 0.3, 0.5), dim=d)
    Q = Q_of(d)
    H = lattice_model(C, Q, lib)
    oracle = _dict_loop_lattice_model(Q, lib, C.color)
    assert H.tobytes() == oracle.tobytes()
    B = discretize(OperatorSpec(Q=Q, coloring=C, library=lib, backend="lattice"))
    assert B.tobytes() == lower_band(oracle).tobytes()


def test_lattice_model_pattern_domain_matches_dict_loop_bitwise():
    lib = PrototypeLibrary.constant_potentials({"a": 0.3, "b": -1.7}, 2, 2)
    sites = sorted(_scattered_sites(2, 7))
    P = Pattern(tuple(sites), tuple("ab"[(x * 3 + y) % 2] for x, y in sites))
    spec = OperatorSpec(Q=P.domain, coloring=P, library=lib, backend="lattice")
    H = lattice_model(P, P.domain, lib)
    oracle = _dict_loop_lattice_model(P.domain, lib, P.color)
    assert H.tobytes() == oracle.tobytes()
    B = discretize(spec)
    assert B.tobytes() == lower_band(oracle).tobytes()


# ---------------------------------------------------------------------------
# continuum assembly against the point-by-point reference
# ---------------------------------------------------------------------------

def _set_loop_grid_points(spec):
    """Reference grid points: every cell's closed grid, each owner checked in Q."""
    Q, n = spec.Q, spec.resolution
    d = len(next(iter(Q)))
    candidates = set()
    for t in Q:
        for local in product(range(n + 1), repeat=d):
            candidates.add(tuple(t[i] * n + local[i] for i in range(d)))
    interior = []
    for p in candidates:
        owner_options = []
        for i in range(d):
            q, r = divmod(p[i], n)
            owner_options.append([q - 1, q] if r == 0 else [q])
        if all(tuple(owner) in Q for owner in product(*owner_options)):
            interior.append(p)
    removed = set()
    for f in spec.removed_facets:
        axes = [
            [f.anchor[i] * n] if i == f.axis
            else range(f.anchor[i] * n, (f.anchor[i] + 1) * n + 1)
            for i in range(d)
        ]
        removed.update(product(*axes))
    return [p for p in sorted(interior) if p not in removed]


def _dict_loop_discretize(spec):
    """Reference continuum assembly: one dict and one colour lookup per point and link."""
    d, n = spec.dimension, spec.resolution
    h = 1.0 / n
    index = {p: i for i, p in enumerate(_set_loop_grid_points(spec))}

    def sample(p, component):
        proto = spec.library[spec.coloring.color(tuple(c // n for c in p))]
        local = tuple(c % n for c in p)
        return float((proto.v if component is None else proto.a[component])[local])

    magnetic = spec.library.has_magnetic
    H = np.zeros((len(index), len(index)), dtype=complex if magnetic else float)
    inv_h2 = 1.0 / h**2
    for p, i in index.items():
        H[i, i] = 2.0 * d * inv_h2 + sample(p, None)
        for j in range(d):
            q = tuple(c + (1 if k == j else 0) for k, c in enumerate(p))
            iq = index.get(q)
            if iq is None:
                continue
            w = -inv_h2 * np.exp(-1j * h * sample(p, j)) if magnetic else -inv_h2
            H[i, iq] = w
            H[iq, i] = np.conjugate(w)
    return H


def _random_library(d, n, magnetic, seed):
    rng = np.random.default_rng(seed)
    zero = np.zeros((n,) * d)
    return PrototypeLibrary(
        Prototype(s, rng.normal(size=(n,) * d),
                  tuple(rng.normal(size=(n,) * d) if magnetic else zero for _ in range(d)))
        for s in "abc"
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "Q_of",
    [lambda d: cube(3 if d < 3 else 2, d)]
    + [lambda d, s=s: _scattered_sites(d, s) for s in range(2)],
    ids=["cube", "scattered-0", "scattered-1"],
)
def test_discretize_matches_dict_loop_bitwise(d, n, Q_of):
    Q = Q_of(d)
    C = RandomColoring(seed=11, symbols=("a", "b", "c"), weights=(0.3, 0.3, 0.4), dim=d)
    for magnetic, facet in product([False, True], repeat=2):
        spec = OperatorSpec(Q=Q, coloring=C, library=_random_library(d, n, magnetic, n),
                            backend="continuum", resolution=n)
        if facet:
            spec = add_facet_dirichlet(spec, Facet(anchor=sorted(Q)[len(Q) // 2], axis=d - 1))
        assert grid_points(spec) == _set_loop_grid_points(spec)
        B = discretize(spec)
        oracle = _dict_loop_discretize(spec)
        assert B.dtype == (np.complex128 if magnetic else np.float64)
        assert B.tobytes() == lower_band(oracle).tobytes()
        # N * (w + 1) numbers, w the largest offset of a nonzero of the oracle
        rows, cols = np.nonzero(oracle)
        assert B.nbytes == len(oracle) * (1 + int(np.max(rows - cols))) * B.itemsize


@pytest.mark.parametrize("backend", ["lattice", "continuum"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sides", [(1,), (5,), (2, 1), (3, 3), (2, 1, 1), (2, 2, 2)])
def test_matrix_dimension_matches_assembly(sides, backend, n):
    d = len(sides)
    spec = OperatorSpec(Q=site_set(product(*(range(s) for s in sides))),
                        coloring=PeriodicColoring(period=(1,) * d, cell={(0,) * d: "a"}),
                        library=PrototypeLibrary.zero(["a"], n, d),
                        backend=backend, resolution=n)
    assert matrix_dimension(sides, backend, n) == discretize(spec).shape[0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_grid_embedding_matches_point_lookup(d, seed):
    Q = _scattered_sites(d, seed)
    cells = sorted(Q)
    spec = OperatorSpec(Q=Q, coloring=PeriodicColoring(period=(1,) * d, cell={(0,) * d: "a"}),
                        library=PrototypeLibrary.zero(["a"], 3, d),
                        backend="continuum", resolution=3)
    spec = add_facet_dirichlet(spec, Facet(anchor=cells[0], axis=0))
    finer = spec
    for k, cell in enumerate(cells[1::3]):
        finer = add_facet_dirichlet(finer, Facet(anchor=cell, axis=k % d))
    pos = {p: i for i, p in enumerate(grid_points(spec))}
    assert grid_embedding(spec, finer).tolist() == [pos[p] for p in grid_points(finer)]


def _non_finite(B):
    B[0, -1] = np.nan
    return B


def _complex_diagonal(B):
    B = B.astype(complex)
    B[0, 0] += 0.5j
    return B


def test_consumers_reject_non_hermitian_assembly():
    """Assembly does not check its band; every solver its bands reach does.

    Lower band storage holds no upper triangle, so a skewed pair
    H[i, k] != conj(H[k, i]) has no band form.  What a band can hold wrong
    is a non-finite entry or a diagonal entry off the real axis.
    """
    window = EnergyWindow(0.0, 4.5)
    box = OperatorSpec(Q=site_set([(-1,), (0,), (1,)]), coloring=periodic_word("ab"),
                       library=LIB01, backend="lattice")
    specA = two_cell_spec()
    specB = add_facet_dirichlet(specA, Facet(anchor=(1,), axis=0))
    for corrupt in (_non_finite, _complex_diagonal):

        def corrupted(spec):
            return corrupt(discretize(spec))

        def corrupted_fill(spec, geometry, codes):
            return np.stack([corrupt(B) for B in coded_bands(spec, geometry, codes)])

        with pytest.MonkeyPatch.context() as mp:
            for module in (idslab.ergodic, idslab.ssf):
                mp.setattr(module, "discretize", corrupted)
            mp.setattr(idslab.montecarlo, "coded_bands", corrupted_fill)
            field = AlmostAdditiveField(periodic_word("ab"), LIB01, window)
            with pytest.raises(ValueError, match="finite|real"):
                field.evaluate(cube(4, 1))
            with pytest.raises(ValueError, match="finite|real"):
                localized_counting(box, np.linspace(0.0, 4.5, 5))
            with pytest.raises(ValueError, match="finite|real"):
                spectral_shift(specA, specB, EnergyWindow(0.0, 100.0))
            with pytest.raises(ValueError, match="finite|real"):
                eigensystem(corrupted(specA))
    # a dense matrix enters through lower_band, which checks it Hermitian
    H = lattice_model(periodic_word("ab"), cube(4, 1), LIB01)
    skewed = H.copy()
    skewed[0, 1] += 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        lower_band(skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        semigroup_difference_singular_values(H, skewed)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**31 - 1), st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 2)),
        min_size=1, max_size=5, unique=True,
    ),
)
def test_dirichlet_facets_never_raise_the_counting_function_2d(seed, magnetic, facets):
    # each facet deletes grid points: H_B is a principal submatrix of H_A,
    # and interlacing gives N(lambda, H_B) <= N(lambda, H_A) at every lambda
    from idslab.spectral import counting_function, subtract

    n = 4
    rng = np.random.default_rng(seed)
    a = tuple(rng.normal(size=(2, n, n))) if magnetic else (np.zeros((n, n)),) * 2
    lib = PrototypeLibrary([Prototype(s, rng.uniform(0.0, 5.0, size=(n, n)), a) for s in "ab"])
    coloring = PeriodicColoring(period=(2, 2), cell={x: str(rng.choice(["a", "b"]))
                                                     for x in np.ndindex(2, 2)})
    specA = OperatorSpec(Q=cube(3, 2), coloring=coloring, library=lib,
                         backend="continuum", resolution=n)
    specB = specA
    for axis, i, j in facets:
        specB = add_facet_dirichlet(specB, Facet(anchor=(i, j) if axis == 0 else (j, i), axis=axis))
    window = EnergyWindow(0.0, 80.0, p=2.0)
    FA, FB = (counting_function(eigenvalues(discretize(s), window.sup), window)
              for s in (specA, specB))
    assert np.all(subtract(FA, FB).values >= 0)


def _checkerboard_2d(n, rng, a=None):
    """A 3 x 3 checkerboard cube at resolution n with random potentials, and A = a or 0."""
    zero = (np.zeros((n, n)),) * 2
    lib = PrototypeLibrary([
        Prototype(s, rng.uniform(0.0, 5.0, size=(n, n)), zero if a is None else a) for s in "ab"
    ])
    coloring = PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"})
    return OperatorSpec(Q=cube(3, 2), coloring=coloring, library=lib, backend="continuum", resolution=n)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 4]))
def test_pure_gauge_leaves_the_spectrum_unchanged_2d(seed, n):
    # h A_j(p) = chi((p + e_j) mod n) - chi(p) on every prototype: a link leaving
    # a cell samples A at its tail, so every cell must share one cell-periodic chi
    # for the phases to telescope into the diagonal conjugation by exp(i chi)
    chi = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(n, n))
    a = tuple(n * (np.roll(chi, -1, axis=j) - chi) for j in range(2))
    H0 = dense(discretize(_checkerboard_2d(n, np.random.default_rng(seed + 1))))
    HA = dense(discretize(_checkerboard_2d(n, np.random.default_rng(seed + 1), a)))
    assert np.iscomplexobj(HA) and np.abs(HA.imag).max() > 0.1
    e0, eA = np.linalg.eigvalsh(H0), np.linalg.eigvalsh(HA)
    assert np.max(np.abs(eA - e0)) < 1e-10 * np.max(np.abs(e0))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 4]))
def test_diamagnetic_inequality_holds_entrywise_2d(seed, n):
    # |exp(-H_A)| <= exp(-H_0) for any vector potential A (Kato's inequality)
    a = tuple(np.random.default_rng(seed).normal(scale=3.0, size=(2, n, n)))
    H0 = dense(discretize(_checkerboard_2d(n, np.random.default_rng(seed + 1))))
    HA = dense(discretize(_checkerboard_2d(n, np.random.default_rng(seed + 1), a)))
    S0, SA = ((U * np.exp(-w)) @ U.conj().T for w, U in map(np.linalg.eigh, (H0, HA)))
    assert np.all(S0 >= -1e-14 * S0.max())
    assert np.all(np.abs(SA) <= S0 + 1e-12 * S0.max())
    assert np.max(S0 - np.abs(SA)) > 1e-3 * S0.max()  # A is no pure gauge: the bound is strict
