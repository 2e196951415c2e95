"""Step functions, counting functions, exact L^p arithmetic, eigen backends."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from idslab import spectral
from idslab.cli import main
from idslab.spectral import (
    EnergyWindow,
    NumericalFailure,
    StepFunction,
    count_below_by_inertia,
    counting_function,
    eigensystem,
    eigenvalues,
    integrate_product,
    linear_combination,
    lower_band,
    lp_distance,
    tridiagonal_counts,
)
from oracles import dense, dirichlet_chain_eigenvalues

I04 = EnergyWindow(0.0, 4.0, p=2.0)


def random_step_function(rng, max_breaks=6, lo=-1.0, hi=5.0):
    k = rng.integers(0, max_breaks)
    bp = np.sort(rng.uniform(lo, hi, size=k))
    bp = np.unique(bp)
    values = rng.uniform(-3, 3, size=len(bp) + 1)
    return StepFunction(bp, values)


# ---------------------------------------------------------------------------
# step function basics
# ---------------------------------------------------------------------------

def test_right_continuity_convention():
    f = StepFunction([1.0, 3.0], [0.0, 1.0, 2.0])
    assert f(0.999) == 0.0
    assert f(1.0) == 1.0
    assert f(2.9999) == 1.0
    assert f(3.0) == 2.0


def test_validation():
    with pytest.raises(ValueError):
        StepFunction([2.0, 1.0], [0, 1, 2])
    with pytest.raises(ValueError):
        StepFunction([1.0], [0.0])
    with pytest.raises(ValueError):
        StepFunction([np.inf], [0.0, 1.0])


def test_counting_function_basic():
    f = counting_function([1.0, 3.0], I04)
    assert f(0.5) == 0 and f(1.0) == 1 and f(2.0) == 1 and f(3.5) == 2
    assert f.is_counting_like()


def test_counting_function_empty_and_below():
    f = counting_function([10.0, 12.0], I04)
    assert np.all(f.values == 0)
    g = counting_function([-2.0, -1.0, 1.0], I04)
    assert g.values[0] == 2  # base value counts eigenvalues below the window


def test_counting_function_multiplicity():
    f = counting_function([2.0, 2.0, 3.5], I04)
    assert f(1.9) == 0 and f(2.0) == 2 and f(3.5) == 3


def test_scale():
    f = counting_function([1.0, 3.0], I04)
    g = f.scale(0.5)
    assert np.array_equal(g.breakpoints, f.breakpoints)
    assert g(3.0) == 1.0
    assert f.scale(1.0) == f
    with pytest.raises(ValueError):
        f.scale(0.0)


# ---------------------------------------------------------------------------
# exact L^p arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 1000.0, 1100.0, 1e6])
def test_lp_distance_at_large_p_neither_underflows_nor_overflows(p):
    # |f|^p underflows at p = 1100 (0.5^1100 < 2^-1074), |2^1000 f|^p overflows at every p here
    f = StepFunction([1.0, 4.5], [0.0, 0.5, 0.0])
    window = EnergyWindow(0.0, 5.0, p)
    assert lp_distance(f, StepFunction.constant(0.0), window) == 0.5 * 3.5 ** (1 / p)
    big = lp_distance(f.scale(2.0**1000), StepFunction.constant(0.0), window)
    assert big == pytest.approx(2.0**999 * 3.5 ** (1 / p), rel=1e-15)
    assert lp_distance(f, f, window) == 0.0


def test_lp_distance_trivial_and_unit_box():
    f = counting_function([1.0, 3.0], I04)
    assert lp_distance(f, f, I04) == 0.0
    box = StepFunction([0.0, 1.0], [0.0, 1.0, 0.0])
    zero = StepFunction.constant(0.0)
    assert lp_distance(box, zero, EnergyWindow(0.0, 2.0, p=2.0)) == pytest.approx(1.0)


def test_lp_distance_hand_integration():
    # |f-g| = 2 on an interval of length 0.5, p = 3: (8 * 0.5)^(1/3)
    f = StepFunction([1.0, 1.5], [0.0, 2.0, 0.0])
    zero = StepFunction.constant(0.0)
    got = lp_distance(f, zero, EnergyWindow(0.0, 2.0, p=3.0))
    assert got == pytest.approx(4.0 ** (1.0 / 3.0))


def test_lp_homogeneity_of_scale():
    f = counting_function([0.5, 1.5, 2.5], I04)
    zero = StepFunction.constant(0.0)
    base = lp_distance(f, zero, I04)
    assert lp_distance(f.scale(0.25), zero, I04) == pytest.approx(0.25 * base)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1.0, 2.0, 3.0]))
def test_lp_triangle_inequality(seed, p):
    rng = np.random.default_rng(seed)
    w = EnergyWindow(-1.0, 5.0, p=p)
    f, g, h = (random_step_function(rng) for _ in range(3))
    assert lp_distance(f, h, w) <= lp_distance(f, g, w) + lp_distance(g, h, w) + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_linear_combination_pointwise(seed):
    rng = np.random.default_rng(seed)
    f, g = random_step_function(rng), random_step_function(rng)
    combo = linear_combination([f, g], [2.0, -1.5])
    for x in rng.uniform(-2, 6, size=20):
        assert combo(x) == pytest.approx(2.0 * f(x) - 1.5 * g(x))


def test_integrate_product_exact():
    f = StepFunction([1.0], [1.0, 3.0])
    g = StepFunction([2.0], [2.0, 5.0])
    # on [0,4]: f*g = 2 on [0,1), 6 on [1,2), 15 on [2,4]
    got = integrate_product(f, g, I04)
    assert got == pytest.approx(2.0 + 6.0 + 30.0)


def test_csv_serialization_deterministic():
    f = counting_function([1.0, 3.0], I04)
    a = f.to_csv(window=I04, scale=0.5)
    b = f.to_csv(window=I04, scale=0.5)
    assert a == b
    assert a.splitlines()[0].startswith("# interval=0.0:4.0")
    assert a.splitlines()[2] == "-inf,0.0"


# ---------------------------------------------------------------------------
# eigenvalue backends
# ---------------------------------------------------------------------------

def test_eigenvalues_examples():
    assert np.allclose(eigenvalues(np.array([[2.0]]), 10.0), [2.0])
    two = np.array([[2.0, -1.0], [2.0, 0.0]])  # the band of [[2, -1], [-1, 2]]
    assert np.allclose(eigenvalues(two, 10.0), [1.0, 3.0])
    assert len(eigenvalues(two, 2.0)) == 1
    assert lower_band(np.array([[2.0, -1.0], [-1.0, 2.0]])).tobytes() == two.tobytes()


def _chain(n):
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def test_eigenvalues_reject_nonfinite_and_nonhermitian():
    stray = _chain(6)
    stray[0, 5] = 1.0  # outside the tridiagonal band, no mirror entry
    skew = _chain(5)
    skew[1, 0] = -0.5  # real tridiagonal, one off-diagonal pair unequal
    nonhermitian = [
        np.array([[0.0, 1.0], [0.0, 0.0]]),  # non-Hermitian band
        stray,
        np.diag([1.0 + 1e-6j, 2.0, 3.0]),
        skew,
    ]
    # a dense matrix enters through lower_band, which checks it
    with pytest.raises(ValueError, match="finite"):
        lower_band(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    for H in nonhermitian:
        with pytest.raises(ValueError, match="not Hermitian"):
            lower_band(H)
    # a band has no upper triangle, so what it can hold wrong is a non-finite
    # entry or a non-real diagonal
    bad = {
        "nan": np.array([[np.nan, -1.0], [1.0, 0.0]]),
        "inf": np.array([[1.0, -np.inf], [1.0, 0.0]]),
        "complex diagonal": np.array([[1.0 + 1e-6j, 0.5j], [2.0, 0.0]]),
    }
    for name, B in bad.items():
        with pytest.raises(ValueError, match="finite|real"):
            eigenvalues(B)
        with pytest.raises(ValueError, match="finite|real"):
            eigenvalues(B, 1.0)
        with pytest.raises(ValueError, match="finite|real"):
            spectral.certified_below([B], [np.zeros(2)], 1.0)


def test_eigensystem_rejects_nonfinite():
    full = np.ones((3, 3))
    full[0, 1] = np.nan
    chain = lower_band(_chain(4))
    chain[2, 1] = -np.inf
    for B in (full, chain):
        with pytest.raises(ValueError, match="finite"):
            eigensystem(B)
    with pytest.raises(ValueError, match="real"):
        eigensystem(np.array([[0.5 + 0.1j]]))


def _random_banded(n, bw, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(np.tril(rng.normal(size=(n, n)), bw), -bw)
    return (A + A.T) / 2


def _magnetic_2d():
    from idslab.lattice import PeriodicColoring, cube
    from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, discretize

    rng = np.random.default_rng(11)
    n = 4
    proto = Prototype("a", rng.uniform(size=(n, n)), tuple(rng.normal(size=(2, n, n))))
    spec = OperatorSpec(
        Q=cube(3, 2), coloring=PeriodicColoring(period=(1, 1), cell={(0, 0): "a"}),
        library=PrototypeLibrary([proto]), backend="continuum", resolution=n,
    )
    B = discretize(spec)
    assert np.iscomplexobj(B)
    return dense(B)


@pytest.mark.parametrize(
    "H",
    [
        _random_banded(40, 5, 1),
        _chain(50),
        _random_banded(30, 29, 2),
        _magnetic_2d(),
    ],
    ids=["banded", "tridiagonal", "full", "magnetic-2d"],
)
def test_banded_solve_matches_dense(H):
    full = np.linalg.eigvalsh(H)
    got = eigenvalues(lower_band(H))
    assert len(got) == len(full)
    assert np.max(np.abs(got - full)) <= 1e-10 * max(1.0, np.linalg.norm(H, 2))
    T = float(np.median(full)) + 1e-3
    assert len(eigenvalues(lower_band(H), T)) == count_below_by_inertia(H, T)


def _random_lattice(Q):
    from idslab.lattice import RandomColoring, dimension_of
    from idslab.operators import PrototypeLibrary, lattice_model

    d = dimension_of(Q)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.3}, 2, d)
    C = RandomColoring(seed=4, symbols=("a", "b"), weights=(0.5, 0.5), dim=d)
    return lattice_model(C, Q, lib)


def _magnetic_1d():
    from idslab.lattice import cube, periodic_word
    from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, discretize

    n = 6
    lib = PrototypeLibrary([Prototype.constant("a", 0.5, n, 1, a_value=[0.7])])
    spec = OperatorSpec(Q=cube(3, 1), coloring=periodic_word("a"), library=lib,
                        backend="continuum", resolution=n)
    B = discretize(spec)
    assert np.iscomplexobj(B)
    return dense(B)


@pytest.mark.parametrize(
    "H",
    [
        _random_lattice(frozenset((i,) for i in range(-20, 21))),
        _random_lattice(frozenset((i,) for i in [-9, -8, -7, -3, 0, 1, 5, 6])),
        np.array([[1.5]]),
        np.array([[1.0, -0.5], [-0.5, 3.0]]),
        np.diag([3.0, -1.0, 2.0, 2.0]),
    ],
    ids=["lattice-chain", "disconnected", "N=1", "N=2", "diagonal"],
)
def test_eigensystem_tridiagonal_matches_dense(H):
    w, U = eigensystem(lower_band(H))
    tol = 1e-12 * max(1.0, np.linalg.norm(H, 2))
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(H))) <= tol
    assert np.max(np.abs((U * w) @ U.T - H)) <= tol
    assert np.max(np.abs(U.T @ U - np.eye(len(H)))) <= 1e-12


def test_tridiagonal_eigensystem_names_a_lapack_failure(monkeypatch):
    # a chain's eigenvectors come from the one dense solver as well
    def failing(d, e, compute_v=1):
        return np.zeros(len(d)), np.eye(len(d)), 1

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
    with pytest.raises(NumericalFailure, match="dstevd failed with info=1 on a matrix of order 5"):
        eigensystem(lower_band(_chain(5)))


@pytest.mark.parametrize("name", ["dsbevd", "zhbevd"])
def test_eigenvalues_names_a_lapack_failure(monkeypatch, name):
    def failing(ab, compute_v=1, lower=0, overwrite_ab=1):
        return np.zeros(ab.shape[1]), np.zeros((1, 1)), 3

    monkeypatch.setattr(scipy.linalg.lapack, name, failing)
    B = lower_band(_magnetic_1d() if name == "zhbevd" else _chain(5))
    with pytest.raises(NumericalFailure, match=f"{name} failed with info=3 on a band matrix of order {len(B)}"):
        eigenvalues(B)


def _random_chains(rng, rows, n):
    # integer-valued diagonals and shifts make exact ties and zero pivots likely
    D = rng.integers(-2, 3, size=(rows, n)).astype(float)
    return D, rng.choice([-1.0, -0.5, 0.0, 1.0], size=n - 1)


@pytest.mark.parametrize("seed", range(4))
def test_tridiagonal_counts_match_dense_spectra(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 30):
        D, e = _random_chains(rng, 25, n)
        shifts = rng.integers(-3, 4, size=25) + rng.choice([0.0, 0.25], size=25)
        counts = tridiagonal_counts(D, e, shifts)
        for row, shift, count in zip(D, shifts, counts):
            w = np.linalg.eigvalsh(np.diag(row) + np.diag(e, 1) + np.diag(e, -1))
            if np.all(np.abs(w - shift) > 1e-9):
                assert count == np.count_nonzero(w <= shift)
            else:  # a tie: the count lies between the counts on either side
                assert np.count_nonzero(w < shift - 1e-9) <= count <= np.count_nonzero(w <= shift + 1e-9)


def test_tridiagonal_counts_take_zero_pivots():
    # the path graph on 3 sites has eigenvalue 0 and a zero first pivot at shift 0
    assert tridiagonal_counts(np.zeros((1, 3)), np.ones(2), 0.0).tolist() == [2]
    assert tridiagonal_counts(np.zeros((1, 3)), np.zeros(2), 0.0).tolist() == [3]
    assert tridiagonal_counts(np.zeros((2, 1)), np.zeros(0), [-1.0, 0.0]).tolist() == [0, 1]


def _integer_chains(rng, k, n, complex_):
    # integer diagonals and integer |e|^2 make exact ties and zero pivots likely;
    # the phases +-1 and +-1j keep |e| exact
    D = rng.integers(-2, 3, size=(k, n)).astype(float)
    E = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(k, n - 1))
    if complex_:
        E = E * rng.choice([1.0, -1.0, 1j, -1j], size=E.shape)
    return D, E


def _chain_stack(D, E):
    """The (k, 2, n) lower band storage of the tridiagonal matrices of diagonals D, off-diagonals E."""
    k, n = D.shape
    ab = np.zeros((k, 2, n), dtype=np.result_type(D, E))
    ab[:, 0], ab[:, 1, : n - 1] = D, E
    return ab


def _sturm_equals_trusted_sparse(ab, shifts):
    """Assert tridiagonal_counts equals every count _sparse_inertia trusts on the
    stack ab at shifts; the number of trusted counts."""
    sturm = tridiagonal_counts(ab[:, 0].real, ab[:, 1, : ab.shape[2] - 1], shifts)
    sparse = spectral._sparse_inertia(ab, shifts)
    trusted = [i for i, c in enumerate(sparse) if c is not None]
    assert [int(sturm[i]) for i in trusted] == [sparse[i] for i in trusted]
    return len(trusted)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 12), st.booleans())
def test_sturm_counts_equal_trusted_sparse_counts(seed, k, n, complex_):
    rng = np.random.default_rng(seed)
    D, E = _integer_chains(rng, k, n, complex_)
    shifts = rng.integers(-4, 5, size=k) + rng.choice([0.0, 0.5], size=k)
    _sturm_equals_trusted_sparse(_chain_stack(D, E), shifts)


def _chain_band(backend, side, magnetic=False):
    """The band of a d=1 cube under a random 2-colouring: integer lattice
    potentials, or random continuum prototypes on a 5-point cell grid."""
    from idslab.lattice import RandomColoring, cube
    from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, discretize

    rng = np.random.default_rng(19)
    if backend == "lattice":
        lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 2, 1)
    else:
        lib = PrototypeLibrary([
            Prototype(s, rng.uniform(0.0, 5.0, size=5), (rng.normal(size=5) if magnetic else np.zeros(5),))
            for s in "ab"
        ])
    coloring = RandomColoring(seed=2, symbols=("a", "b"), weights=(0.5, 0.5), dim=1)
    spec = OperatorSpec(
        Q=cube(side, 1), coloring=coloring, library=lib, backend=backend,
        resolution=lib.resolution,
    )
    return discretize(spec)


@pytest.mark.parametrize(
    "backend, magnetic", [("lattice", False), ("continuum", False), ("continuum", True)],
)
def test_sturm_counts_equal_trusted_sparse_counts_on_chain_bands(backend, magnetic):
    for side in (2, 5, 16, 40):
        B = _chain_band(backend, side, magnetic)
        assert B.shape[1] == 2 and np.iscomplexobj(B) == magnetic
        w = np.linalg.eigvalsh(dense(B))
        # integer and half-integer shifts across the spectrum, and its computed eigenvalues
        grid = np.arange(np.floor(w[0]) - 1, np.ceil(w[-1]) + 1, 0.5)
        shifts = np.concatenate([grid[:: max(1, len(grid) // 40)], w[:: max(1, len(w) // 20)]])
        ab = np.broadcast_to(spectral._checked(B)[0], (len(shifts), *B.T.shape))
        assert _sturm_equals_trusted_sparse(ab, shifts) >= len(shifts) // 4


def test_complex_chains_are_sturm_counted():
    rng = np.random.default_rng(5)
    D, E = _integer_chains(rng, 30, 9, complex_=True)
    # the characteristic polynomials have integer coefficients, so no
    # eigenvalue is a half-integer
    shifts = rng.integers(-4, 5, size=30) + 0.5
    counts = tridiagonal_counts(D, E, shifts)
    for d, e, shift, count in zip(D, E, shifts, counts):
        H = np.diag(d).astype(complex) + np.diag(e, -1) + np.diag(e.conj(), 1)
        assert count == count_below_by_inertia(H, shift)
    # a magnetic d=1 continuum band, with ceilings between and on its eigenvalues
    B = _chain_band("continuum", 8, magnetic=True)
    H, n = dense(B), len(B)
    w = np.linalg.eigvalsh(H)

    def counts(shifts):  # B's Sturm counts at each shift
        k = len(shifts)
        return tridiagonal_counts(
            np.broadcast_to(B[:, 0].real, (k, n)), np.broadcast_to(B[: n - 1, 1], (k, n - 1)), shifts
        ).tolist()

    mid = (w[:-1] + w[1:]) / 2
    assert counts(mid) == [count_below_by_inertia(H, T) for T in mid] == list(range(1, n))
    delta = spectral.CEILING_TIE_RTOL * max(1.0, np.max(np.abs(B)))
    for k in (0, n // 3, n - 1):
        T = float(w[k])
        lo, tie, hi = counts([T - delta, T, T + delta])
        assert (lo, hi) == (k, k + 1)
        assert (lo, hi) == (count_below_by_inertia(H, T - delta), count_below_by_inertia(H, T + delta))
        assert tie in (k, k + 1)
        [below], widths = spectral.certified_below([B], [w], T)
        assert len(below) == k + 1 and widths.tolist() == [delta]


@pytest.mark.parametrize("ceiling", [0.5, np.inf])
def test_certified_below_returns_the_tie_width_of_every_band(ceiling):
    # bands of two shapes, one with entries above 1 and one below; an infinite ceiling certifies nothing
    rng = np.random.default_rng(3)
    Hs = [np.triu(np.tril(rng.uniform(-s, s, (n, n)), w), -w) for n, w, s in ((6, 1, 3), (4, 2, 0.25), (6, 1, 3))]
    bands = [spectral.lower_band(H + H.T) for H in Hs]
    eigs = [np.linalg.eigvalsh(H + H.T) for H in Hs]
    below, widths = spectral.certified_below(bands, eigs, ceiling)
    assert [len(x) for x in below] == [np.count_nonzero(w <= ceiling) for w in eigs]
    assert widths.tolist() == [spectral.CEILING_TIE_RTOL * max(1.0, np.max(np.abs(B))) for B in bands]


def test_certified_below_brackets_chain_ties_and_flags_a_wrong_count(monkeypatch):
    D, e = _random_chains(np.random.default_rng(7), 40, 12)
    bands = np.zeros((40, 12, 2))
    bands[:, :, 0], bands[:, :11, 1] = D, e
    eigs = np.array([_dstevd(row, e)[0] for row in D])
    sturm = _spy(monkeypatch, spectral, "tridiagonal_counts")
    sparse = _spy(monkeypatch, spectral, "_sparse_inertia")
    for T in (-1.0, 0.0, 0.5, 2.0):  # the integer ceilings hit exact eigenvalues
        spectral.certified_below(bands, eigs, T)
    wrong = eigs.copy()
    wrong[3] += 0.5
    with pytest.raises(NumericalFailure, match=r"matrix 3: .* inertia of H - T\*I"):
        spectral.certified_below(bands, wrong, 0.5)
    # an eigenvalue just below T, computed just above it, is a tie as well
    delta = spectral.CEILING_TIE_RTOL * max(1.0, np.max(np.abs(bands[0])))
    T = eigs[0, 5] + delta / 4
    above = eigs.copy()
    above[0, 5] = T + delta / 2
    assert len(spectral.certified_below(bands, above, T)[0][0]) == 5
    assert len(sturm) == 6 and not sparse  # every count is a Sturm count


def _ab_chain(n):
    from idslab.lattice import cube, periodic_word
    from idslab.operators import PrototypeLibrary, lattice_model

    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 2, 1)
    return lattice_model(periodic_word("ab"), cube(n, 1), lib)


def _ab_square(side):
    from idslab.lattice import RandomColoring, cube
    from idslab.operators import PrototypeLibrary, lattice_model

    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 2, 2)
    coloring = RandomColoring(seed=0, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    return lattice_model(coloring, cube(side, 2), lib)


def _sparse_pentadiagonal():
    # as few nonzeros as a tridiagonal matrix, but a band of two off-diagonals
    H = _chain(12)
    H[0, 2] = H[2, 0] = -0.5
    H[5, 6] = H[6, 5] = 0.0
    return H


@pytest.mark.parametrize(
    "H",
    [_random_lattice(frozenset(np.ndindex(5, 5))), _magnetic_1d(), _sparse_pentadiagonal()],
    ids=["lattice-2d", "magnetic-1d", "sparse-pentadiagonal"],
)
def test_eigensystem_dense_path_unchanged(H):
    w, U = eigensystem(lower_band(H))
    w0, U0 = np.linalg.eigh(H)
    assert w.tobytes() == w0.tobytes() and U.tobytes() == U0.tobytes()


# dense-path inputs: the matrices above, and 1x1 and 2x2 complex ones (a 1x1
# array is both C- and F-contiguous)
DENSE = {
    "lattice-2d": _random_lattice(frozenset(np.ndindex(5, 5))),
    "magnetic-1d": _magnetic_1d(),
    "sparse-pentadiagonal": _sparse_pentadiagonal(),
    "complex-1x1": np.array([[0.5 + 0.0j]]),
    "complex-2x2": np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -2.0]]),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", list(DENSE))
def test_eigensystem_in_place_gives_numpys_bytes(monkeypatch, name, order):
    H = np.array(DENSE[name], order=order)
    before = H.tobytes()
    w0, U0 = np.linalg.eigh(H)
    lapack = "zhetrd" if np.iscomplexobj(H) else "dsytrd"
    solve, solved = getattr(scipy.linalg.lapack, lapack), []

    def spy(a, **kwargs):
        out = solve(a, **kwargs)
        solved.append((a, out[0]))
        return out

    monkeypatch.setattr(scipy.linalg.lapack, lapack, spy)
    B = lower_band(H)
    w, U = eigensystem(B)
    assert H.tobytes() == before and not np.shares_memory(U, B)
    assert w.tobytes() == w0.tobytes() and U.tobytes() == U0.tobytes()
    # the reflectors overwrite the one dense matrix, which eigensystem owns
    [(a, reflectors)] = solved
    assert a.flags.f_contiguous and np.shares_memory(reflectors, a)


@pytest.mark.parametrize("name", ["dsytrd", "zhetrd", "dstevd", "dormqr", "zunmqr"])
def test_eigensystem_names_a_lapack_failure(monkeypatch, name):
    # each of the three steps, for real and complex matrices
    solve = getattr(scipy.linalg.lapack, name)

    def failing(*args, **kwargs):
        *out, _ = solve(*args, **kwargs)
        return (*out, 2)

    monkeypatch.setattr(scipy.linalg.lapack, name, failing)
    H = DENSE["magnetic-1d" if name in ("zhetrd", "zunmqr") else "lattice-2d"]
    with pytest.raises(NumericalFailure, match=f"LAPACK {name} failed with info=2 on a matrix of order {len(H)}"):
        eigensystem(lower_band(H))


def _random_band(rng, n, complex_, width=4):
    """A random (n, min(n, width)) band with a real diagonal."""
    B = rng.normal(size=(n, min(n, width)))
    if complex_:
        B = B + 1j * rng.normal(size=B.shape)
        B[:, 0] = B[:, 0].real
    return B


# 25 is LAPACK's SMLSIZ: from order 26 on, dstedc divides and conquers
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 25, 26, 300])
def test_eigensystem_at_full_span_gives_numpys_bytes_on_random_bands(n, complex_):
    B = _random_band(np.random.default_rng(n), n, complex_)
    w, U = eigensystem(B)
    w0, U0 = np.linalg.eigh(dense(B))
    assert w.tobytes() == w0.tobytes() and U.flags.f_contiguous
    if complex_ and n <= 25:
        # zheevd rotates complex eigenvectors of T there (zsteqr), dstevd real ones, so
        # the zero imaginary parts of the first row, which Q leaves alone, may differ in sign
        assert not U[0].imag.any() and not U0[0].imag.any()
        assert U[0].real.tobytes() == U0[0].real.tobytes()
        U, U0 = U[1:], U0[1:]
    assert U.tobytes() == U0.tobytes()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 26, 70, 300])
def test_a_finite_span_keeps_the_lowest_eigenvectors(n, complex_):
    B = _random_band(np.random.default_rng(n), n, complex_)
    w, U = eigensystem(B)
    for span in (0.0, 1.0, 3.0, np.inf):
        ws, Us = eigensystem(B, span)
        kept = np.count_nonzero(w <= w[0] + span)
        assert ws.tobytes() == w.tobytes() and Us.shape == (n, kept) and Us.flags.f_contiguous
        # the BLAS kernels group the columns by their number, so the bits may differ
        assert np.max(np.abs(Us - U[:, :kept])) <= 1e-14


def test_fd_chain_spectrum_matches_analytic():
    # 1-d Dirichlet finite-difference Laplacian, L = 10 cells, h = 1/8
    from idslab.lattice import cube
    from idslab.operators import OperatorSpec, PrototypeLibrary, discretize

    L, n = 10, 8
    lib = PrototypeLibrary.zero(["a"], n, 1)
    from idslab.lattice import periodic_word

    spec = OperatorSpec(
        Q=cube(L, 1), coloring=periodic_word("a"), library=lib,
        backend="continuum", resolution=n,
    )
    eigs = eigenvalues(discretize(spec), ceiling=np.pi**2)
    analytic = dirichlet_chain_eigenvalues(L, n)
    analytic = analytic[analytic <= np.pi**2]
    assert np.allclose(eigs, analytic, atol=1e-8)


def test_inertia_cross_check_random_matrices():
    """counting_function at T agrees with the inertia of H - T*Id."""
    rng = np.random.default_rng(123)
    for _ in range(20):
        m = rng.integers(2, 12)
        A = rng.normal(size=(m, m))
        H = (A + A.T) / 2
        T = float(rng.uniform(-2, 2))
        window = EnergyWindow(-10.0, T + 1e-9, p=1.0)
        counted = counting_function(eigenvalues(lower_band(H), T), window)(T)
        assert counted == count_below_by_inertia(H, T)


@pytest.mark.parametrize(
    "H, T, dense_fallback",
    [
        (np.diag([0.0, 1.0, 2.0]), 1.0, False),  # ceiling exactly at an eigenvalue
        # zero pivot of H - T*I, which the Sturm count takes as -pivmin
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0, False),
        (_chain(30), 1.1, False),
        # integer ceiling on an integer potential
        (dense(_ab_chain(256)), 3.0, False),
        # on d=2 lattice bands SuperLU's ordering is unsymmetric at T = 4: the
        # sparse counts at T -/+ delta certify the side-4 cube; on the side-5
        # cube the one at T - delta is not trusted either, and the dense count decides
        (_ab_square(4), 4.0, False),
        (_ab_square(5), 4.0, True),
    ],
    ids=["ceiling-at-eigenvalue", "zero-pivot", "chain", "ab-chain", "ab-square", "ab-square-dense"],
)
def test_certified_count_matches_inertia(monkeypatch, H, T, dense_fallback):
    calls = []

    def spy(H, T):
        calls.append(T)
        return count_below_by_inertia(H, T)

    monkeypatch.setattr(spectral, "count_below_by_inertia", spy)
    assert len(eigenvalues(lower_band(H), T)) == count_below_by_inertia(H, T)
    assert bool(calls) == dense_fallback


def test_untrusted_sparse_counts_fall_back_to_dense(monkeypatch):
    # a pentadiagonal band: a tridiagonal one gets a Sturm count, which is always trusted
    H, T = _random_banded(30, 2, 4), 0.1
    calls = []

    def spy(H, T):
        calls.append(T)
        return count_below_by_inertia(H, T)

    monkeypatch.setattr(spectral, "_sparse_inertia", lambda ab, shifts: [None] * len(ab))
    monkeypatch.setattr(spectral, "count_below_by_inertia", spy)
    assert len(eigenvalues(lower_band(H), T)) == count_below_by_inertia(H, T)
    assert calls == [T]


def test_dropped_eigenvalue_fails_certification(monkeypatch, tmp_path):
    solve = scipy.linalg.lapack.dsbevd

    def drop_first(ab, **kwargs):
        w, *rest = solve(ab, **kwargs)
        return (w[1:], *rest)

    monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", drop_first)
    assert len(eigenvalues(lower_band(_chain(8)))) == 7  # no ceiling, nothing to certify
    with pytest.raises(NumericalFailure):
        eigenvalues(lower_band(_chain(8)), 2.0)
    default = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    cfg = json.loads(default.read_text())
    cfg.update(sequence={"kind": "cubes", "sides": [4]}, M_list=[1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["ids", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    # one eigenvalue of one class ("ab" of "ab" and "ba") goes missing in the
    # M=2 pattern route, whose two classes are certified by one Sturm count
    dropped, stacks = [], []

    def drop_in_first_pair(ab, **kwargs):
        w, *rest = solve(ab, **kwargs)
        if ab.shape[1] == 2 and not dropped:
            dropped.append(ab)
            return (w[1:], *rest)
        return (w, *rest)

    sturm = spectral.tridiagonal_counts

    def recorded(diagonals, offdiagonals, shifts):
        stacks.append(len(diagonals))
        return sturm(diagonals, offdiagonals, shifts)

    monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", drop_in_first_pair)
    monkeypatch.setattr(spectral, "tridiagonal_counts", recorded)
    cfg.update(M_list=[2])
    path.write_text(json.dumps(cfg))
    assert main(["ids", "--config", str(path), "--out", str(tmp_path / "out2")]) == 1
    assert len(dropped) == 1 and stacks[-1] == 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 12), st.integers(1, 4),
    st.booleans(),
)
def test_stacked_certificate_matches_dense_inertia(seed, k, n, width, complex_):
    rng = np.random.default_rng(seed)
    width = min(width, n)
    ab = rng.normal(size=(k, width, n))
    if complex_:
        ab = ab + 1j * rng.normal(size=ab.shape)
    for j in range(1, width):
        ab[:, j, n - j :] = 0.0
    T = float(rng.uniform(-2.0, 2.0))
    # block `tie` is diagonal with T as an exact eigenvalue
    tie = int(rng.integers(k))
    ab[tie] = 0.0
    ab[tie, 0] = rng.normal(size=n)
    ab[tie, 0, rng.integers(n)] = T
    if complex_:
        ab[:, 0] = ab[:, 0].real
    bands = [b.T for b in ab]
    eigs = [scipy.linalg.eigvals_banded(b, lower=True) for b in ab]
    stacks, denses, sturms = [], [], []
    sparse_inertia, sturm = spectral._sparse_inertia, spectral.tridiagonal_counts

    def sparse_spy(stack, shifts):
        stacks.append(stack)
        return sparse_inertia(stack, shifts)

    def dense_spy(H, T):
        denses.append(H)
        return count_below_by_inertia(H, T)

    def sturm_spy(diagonals, offdiagonals, shifts):
        sturms.append(diagonals)
        return sturm(diagonals, offdiagonals, shifts)

    full = [dense(B) for B in bands]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_sparse_inertia", sparse_spy)
        mp.setattr(spectral, "count_below_by_inertia", dense_spy)
        mp.setattr(spectral, "tridiagonal_counts", sturm_spy)
        below, _ = spectral.certified_below(bands, eigs, T)
    assert [len(x) for x in below] == [count_below_by_inertia(H, T) for H in full]
    if width <= 2:
        # one Sturm count holds every tridiagonal matrix, the tie one at T -/+ delta
        assert [len(D) for D in sturms] == [k + 1] and not stacks and not denses
        return
    # one factorization holds every block, the tie block at T -/+ delta; any
    # further factorization or dense count is of the tie block alone
    assert len(stacks[0]) == k + 1 and not sturms
    assert all(np.array_equal(b, ab[tie]) for stack in stacks[1:] for b in stack)
    assert all(np.array_equal(H, full[tie]) for H in denses)


# ---------------------------------------------------------------------------
# spectrum slicing
# ---------------------------------------------------------------------------

def _continuum_2d(seed, side, n, magnetic):
    from idslab.lattice import PeriodicColoring, cube
    from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, discretize

    rng = np.random.default_rng(seed)
    a = tuple(rng.normal(size=(2, n, n))) if magnetic else (np.zeros((n, n)),) * 2
    protos = [Prototype(s, rng.uniform(0.0, 5.0, size=(n, n)), a) for s in "ab"]
    spec = OperatorSpec(
        Q=cube(side, 2), library=PrototypeLibrary(protos), backend="continuum", resolution=n,
        coloring=PeriodicColoring(period=(2, 1), cell={(0, 0): "a", (1, 0): "b"}),
    )
    return discretize(spec)


def _slice_everything(mp):
    """Make eigenvalues() slice every finite ceiling, however small the band."""
    mp.setattr(spectral, "SLICE_MIN_WORK", 0)
    mp.setattr(spectral, "SLICE_MAX_SHARE", 1.0)


def _spy(mp, owner, name, edit=None):
    calls = []
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append(kwargs)
        return out if edit is None else edit(out, kwargs, len(calls))

    mp.setattr(owner, name, spy)
    return calls


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1), st.integers(2, 3), st.integers(3, 5), st.booleans(),
    st.floats(0.02, 0.3), st.integers(3, 40),
)
def test_sliced_solver_matches_banded(seed, side, n, magnetic, share, size):
    B = _continuum_2d(seed, side, n, magnetic)
    assert np.iscomplexobj(B) == magnetic
    H, band = dense(B), spectral._checked(B)
    full = scipy.linalg.eigvals_banded(band[0], lower=True)
    T = float(full[max(1, int(share * len(full)))]) + 1e-3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SLICE_SIZE", size)  # several slices on small matrices
        got = spectral._sliced(band, T, count_below_by_inertia(H, T))
    want = full[full <= T]
    assert got is not None and len(got) == len(want) == count_below_by_inertia(H, T)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_sliced_degenerate_eigenvalues():
    from idslab.lattice import cube, periodic_word
    from idslab.operators import OperatorSpec, PrototypeLibrary, discretize

    # a constant potential on a square: E_ij = E_ji exactly
    lib = PrototypeLibrary.constant_potentials({"a": 1.5}, 4, 2)
    B = discretize(OperatorSpec(Q=cube(3, 2), coloring=periodic_word("a"), library=lib,
                                backend="continuum", resolution=4))
    full = np.linalg.eigvalsh(dense(B))
    assert np.min(np.diff(full)) < 1e-9  # degenerate
    T = float(full[40]) + 1e-3
    with pytest.MonkeyPatch.context() as mp:
        _slice_everything(mp)
        mp.setattr(spectral, "SLICE_SIZE", 15)
        got = eigenvalues(B, T)
    want = full[full <= T]
    assert len(got) == len(want) == count_below_by_inertia(dense(B), T)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, T)


def test_sliced_ceiling_at_an_eigenvalue():
    from idslab.lattice import PeriodicColoring, cube
    from idslab.operators import PrototypeLibrary, lattice_model

    # 7x7 lattice Laplacian: 4 - 2cos(i pi/8) - 2cos(j pi/8) = 4 exactly when i + j = 8
    lib = PrototypeLibrary.zero(["a"], 2, 2)
    H = lattice_model(PeriodicColoring(period=(1, 1), cell={(0, 0): "a"}), cube(7, 2), lib)
    full = np.linalg.eigvalsh(H)
    T = 4.0
    delta = spectral.CEILING_TIE_RTOL * max(1.0, np.max(np.abs(H)))
    sure, loose = count_below_by_inertia(H, T - delta), count_below_by_inertia(H, T + delta)
    assert (sure, loose) == (21, 28)
    with pytest.MonkeyPatch.context() as mp:
        _slice_everything(mp)
        mp.setattr(spectral, "SLICE_SIZE", 12)
        got = eigenvalues(lower_band(H), T)
    assert sure <= len(got) <= loose
    assert np.max(np.abs(got[:sure] - full[:sure])) <= 1e-10 * T


def test_sliced_moves_an_untrusted_edge():
    from idslab.lattice import RandomColoring, cube
    from idslab.operators import PrototypeLibrary, lattice_model

    # integer potentials on a 15x15 lattice cube: 111 eigenvalues <= 4.5 in three
    # slices, whose inner edge at 3.0 has a count the sparse factorization does not trust
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 2, 2)
    coloring = RandomColoring(seed=1, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    band = spectral._checked(lower_band(lattice_model(coloring, cube(15, 2), lib)))
    T = 4.5
    [count] = spectral._sparse_inertia(band[0][None], [T])
    floor = spectral._gershgorin_floor(band[0]) - spectral.CEILING_TIE_RTOL * band[1]
    edge = np.linspace(floor, T, 4)[2]  # as _sliced cuts (floor, T]
    assert count == 111 and edge == pytest.approx(3.0)
    assert spectral._sparse_inertia(band[0][None], [edge]) == [None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SLICE_SIZE", 40)
        got = spectral._sliced(band, T, count)
    full = scipy.linalg.eigvals_banded(band[0], lower=True)
    want = full[full <= T]
    assert got is not None and len(got) == len(want) == count
    assert np.max(np.abs(got - want)) <= 1e-10


def test_large_band_at_a_tie_needs_no_dense_count():
    from idslab.lattice import RandomColoring, cube
    from idslab.operators import PrototypeLibrary, lattice_model

    # a 26x26 lattice cube (N * width = 676 * 27, a large band) whose ceiling is a
    # computed eigenvalue: the sparse count at T is not trusted, those at T -/+ delta are
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 2, 2)
    coloring = RandomColoring(seed=0, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    H = lattice_model(coloring, cube(26, 2), lib)
    assert spectral.large_band(lower_band(H))
    T = float(np.linalg.eigvalsh(H)[40])
    with pytest.MonkeyPatch.context() as mp:
        dense_counts = _spy(mp, spectral, "count_below_by_inertia")
        got = eigenvalues(lower_band(H), T)
    assert len(got) in (40, 41) and not dense_counts


@pytest.mark.parametrize("always", [False, True], ids=["retry", "fallback"])
def test_dropped_ritz_value_is_retried_or_falls_back(always):
    B = _continuum_2d(5, 3, 4, magnetic=False)
    full = np.linalg.eigvalsh(dense(B))
    T = float(full[30]) + 1e-3

    def drop_nearest_shift(w, kwargs, call):
        if not always and call > 1:
            return w
        return np.delete(w, np.argmin(np.abs(w - kwargs["sigma"])))

    import scipy.sparse.linalg

    with pytest.MonkeyPatch.context() as mp:
        _slice_everything(mp)
        mp.setattr(spectral, "SLICE_SIZE", 10)
        ritz = _spy(mp, scipy.sparse.linalg, "eigsh", drop_nearest_shift)
        banded = _spy(mp, scipy.linalg.lapack, "dsbevd")
        got = eigenvalues(B, T)
    assert len(got) == count_below_by_inertia(dense(B), T) == 31
    assert np.max(np.abs(got - full[:31])) <= 1e-10 * T
    slices = 4  # 31 eigenvalues, 10 per slice
    if always:  # both tries of the first slice fail: the banded solve takes over
        assert len(ritz) == 2 and len(banded) == 1
    else:  # the second try of the first slice succeeds
        assert len(ritz) == slices + 1 and not banded


def test_sliced_solves_repeat_bit_for_bit():
    B = _continuum_2d(9, 3, 5, magnetic=True)
    T = float(np.linalg.eigvalsh(dense(B))[60]) + 1e-3
    with pytest.MonkeyPatch.context() as mp:
        _slice_everything(mp)
        mp.setattr(spectral, "SLICE_SIZE", 25)
        first, second = eigenvalues(B, T), eigenvalues(B, T)
    assert len(first) == 61 and first.tobytes() == second.tobytes()


def test_inertia_cross_check_complex():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (A + A.conj().T) / 2
    exact = int(np.sum(np.linalg.eigvalsh(H) <= 0.3))
    assert count_below_by_inertia(H, 0.3) == exact


def test_weyl_consistency_1d():
    """Normalized counting of the zero-potential chain approaches sqrt(l)/pi."""
    from idslab.lattice import cube, periodic_word
    from idslab.operators import OperatorSpec, PrototypeLibrary, discretize

    L, n = 64, 16
    lib = PrototypeLibrary.zero(["a"], n, 1)
    spec = OperatorSpec(
        Q=cube(L, 1), coloring=periodic_word("a"), library=lib,
        backend="continuum", resolution=n,
    )
    T = np.pi**2
    eigs = eigenvalues(discretize(spec), ceiling=T)
    # sup deviation of the staircase vs the smooth curve over [0, T]:
    # extrema occur at jump points (both sides) and at the endpoints
    dev = 0.0
    for k, E in enumerate(eigs):
        smooth = np.sqrt(E) / np.pi
        dev = max(dev, abs(k / L - smooth), abs((k + 1) / L - smooth))
    dev = max(dev, abs(len(eigs) / L - np.sqrt(T) / np.pi))
    assert dev < 0.05


# ---------------------------------------------------------------------------
# origin masses of chains without eigenvectors (tridiagonal_masses)
# ---------------------------------------------------------------------------

def _reference_masses(d, e):
    """u_j(k)^2 of every unit eigenvector u_j (columns, ascending eigenvalues)
    of the chain d, e, from a 40-digit mpmath eigendecomposition."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n = len(d)
        T = mpmath.zeros(n, n)
        for k in range(n):
            T[k, k] = mpmath.mpf(float(d[k]))
        for k in range(n - 1):
            T[k, k + 1] = T[k + 1, k] = mpmath.mpf(float(e[k]))
        w, Q = mpmath.eigsy(T)
        order = sorted(range(n), key=lambda j: w[j])
        return np.array([[float(Q[k, j] ** 2) for j in order] for k in range(n)])


def _dstevd(d, e):
    """Eigenvalues and eigenvectors of the chain d, e by LAPACK dstevd, the reference solver."""
    # dstevd takes an off-diagonal of length max(n - 1, 1); it reads none at n = 1
    w, U, info = scipy.linalg.lapack.dstevd(d, e if len(d) > 1 else np.zeros(1), compute_v=1)
    assert info == 0
    return w, U


def _tridiagonal_band(d, e):
    """The (N, 2) band of the chain with diagonal d and off-diagonal e."""
    return np.column_stack([d, np.append(e, 0.0)])


def _assert_masses_as_accurate_as_dstevd(d, e, site_ranges):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    exact = _reference_masses(d, e)
    _, U = _dstevd(d, e)
    w = eigenvalues(_tridiagonal_band(d, e))
    for sites in site_ranges:
        reference = exact[sites].sum(axis=0)
        kernel = np.abs(spectral.tridiagonal_masses(d[None], e[None], w[None], sites)[0] - reference).max()
        lapack = np.abs((U[sites] ** 2).sum(axis=0) - reference).max()
        assert kernel <= max(1e-14, lapack), (sites, kernel, lapack)


def _dstein_spy(monkeypatch):
    """The eigenvalues of every dstein call that tridiagonal_masses makes."""
    calls, dstein = [], scipy.linalg.lapack.dstein

    def spy(d, e, w, *args):
        calls.append(np.array(w))
        return dstein(d, e, w, *args)

    monkeypatch.setattr(scipy.linalg.lapack, "dstein", spy)
    return calls


def test_masses_of_wilkinson_pairs():
    # W21+: its eigenvalues come in pairs as close as 7e-14, each pair's
    # eigenvectors split between the two ends of the chain
    n = 21
    d, e = np.abs(np.arange(n) - 10.0), np.ones(n - 1)
    _assert_masses_as_accurate_as_dstevd(
        d, e, [range(k, k + 1) for k in range(n)] + [range(8, 13), range(0, 4)]
    )
    # the entries the middle twist does not trust come from inverse iteration
    # (measured largest error 1.8e-4)
    exact = _reference_masses(d, e)
    w = eigenvalues(_tridiagonal_band(d, e))
    for k in range(n):
        masses = spectral.tridiagonal_masses(d[None], e[None], w[None], range(k, k + 1))[0]
        assert np.abs(masses - exact[k]).max() <= 1e-3, k


def test_masses_of_an_edge_localized_state(monkeypatch):
    # the state at the raised end has weight 4e-36 on the middle site, which
    # the vector twisted at the middle alone reads as 0.997
    n = 24
    d, e = np.zeros(n), np.ones(n - 1)
    d[0] = 30.0
    assert _reference_masses(d, e)[12, -1] < 1e-20
    _assert_masses_as_accurate_as_dstevd(d, e, [range(12, 13), range(20, 24)])
    # that state alone is left to inverse iteration: one call, one eigenvalue, the largest
    calls = _dstein_spy(monkeypatch)
    w = eigenvalues(_tridiagonal_band(d, e))
    spectral.tridiagonal_masses(d[None], e[None], w[None], range(12, 13))
    assert len(calls) == 1 and calls[0].tolist() == [w[-1]]


def test_masses_of_one_site_chains_need_no_inverse_iteration(monkeypatch):
    calls = _dstein_spy(monkeypatch)
    D = np.array([[0.0], [-2.5], [7.0]])
    masses = spectral.tridiagonal_masses(D, np.zeros((3, 0)), D.copy(), range(0, 1))
    assert masses.tolist() == [[1.0]] * 3
    assert calls == []


def test_masses_name_a_failed_inverse_iteration(monkeypatch):
    monkeypatch.setattr(
        scipy.linalg.lapack, "dstein", lambda d, e, w, *args: (np.zeros((len(d), len(w))), 1)
    )
    n = 24
    d, e = np.zeros(n), np.ones(n - 1)
    d[0] = 30.0
    w = eigenvalues(_tridiagonal_band(d, e))
    with pytest.raises(NumericalFailure, match="LAPACK dstein failed with info=1 on a matrix of order 24"):
        spectral.tridiagonal_masses(d[None], e[None], w[None], range(12, 13))


@pytest.mark.parametrize("seed", range(12))
def test_masses_of_random_integer_chains(seed):
    # integer entries make exact zero pivots and near-degenerate pairs likely
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    lo = int(rng.integers(0, n))
    sites = range(lo, int(rng.integers(lo, min(n, lo + 4))) + 1)
    d = rng.integers(-3, 4, n)
    e = rng.choice([-2, -1, 1, 2], n - 1)
    _assert_masses_as_accurate_as_dstevd(d, e, [sites, range(n // 2, n // 2 + 1)])


def test_masses_of_a_continuum_origin_cell():
    from idslab.lattice import periodic_word
    from idslab.montecarlo import centered_box
    from idslab.operators import OperatorSpec, Prototype, PrototypeLibrary, _cells, discretize

    rng = np.random.default_rng(3)
    lib = PrototypeLibrary(Prototype(s, rng.uniform(-1.0, 2.0, 6), (np.zeros(6),)) for s in "ab")
    spec = OperatorSpec(centered_box(1, 1), periodic_word("ab"), lib, "continuum", 6)
    B = discretize(spec)
    cells, owner, _, _ = _cells(spec)
    origin = np.flatnonzero(owner == cells.index((0,)))
    assert len(origin) == 6
    n = len(B)
    _assert_masses_as_accurate_as_dstevd(
        B[:, 0], B[: n - 1, 1], [range(origin[0], origin[-1] + 1)]
    )


def test_masses_are_computed_per_chain_bit_for_bit():
    rng = np.random.default_rng(5)
    D = rng.integers(0, 2, size=(30, 41)) + 2.0
    E = -np.ones((30, 40))
    W = np.array([eigenvalues(_tridiagonal_band(d, e)) for d, e in zip(D, E)])
    masses = spectral.tridiagonal_masses(D, E, W, range(20, 21))
    alone = [spectral.tridiagonal_masses(D[[i]], E[[i]], W[[i]], range(20, 21))[0] for i in range(30)]
    assert np.array_equal(masses, alone)
    assert np.allclose(masses.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_masses_refuse_a_reducible_chain_and_bad_sites():
    d, e = np.full((1, 5), 2.0), np.array([[-1.0, -1.0, 0.0, -1.0]])
    w = eigenvalues(_tridiagonal_band(d[0], e[0]))[None]
    with pytest.raises(ValueError, match="zero off-diagonal"):
        spectral.tridiagonal_masses(d, e, w, range(2, 3))
    e[0, 2] = -1.0
    for sites in (range(0), range(4, 6), range(0, 4, 2)):
        with pytest.raises(ValueError, match="sites"):
            spectral.tridiagonal_masses(d, e, w, sites)
    # one chain comes as a stack of one
    with pytest.raises(ValueError, match="not chains with eigenvalues"):
        spectral.tridiagonal_masses(d[0], e[0], w[0], range(2, 3))


def test_a_stack_of_bands_is_checked_once_and_solved_band_by_band(monkeypatch):
    check, checked = spectral._checked, []
    monkeypatch.setattr(spectral, "_checked", lambda B: checked.append(np.shape(B)) or check(B))
    rng = np.random.default_rng(5)
    for complex_ in (False, True):
        stack = np.array([_random_band(rng, 9, complex_, width=3) for _ in range(4)])
        one_by_one = np.array([eigenvalues(B) for B in stack])
        checked.clear()
        got = eigenvalues(stack)
        assert checked == [(4, 9, 3)] and got.shape == (4, 9)
        assert got.tobytes() == one_by_one.tobytes()
        with pytest.raises(ValueError, match="a stack of bands takes no finite ceiling"):
            eigenvalues(stack, 2.0)


def test_eigenvalues_alone_match_the_eigensystem():
    rng = np.random.default_rng(2)
    for n in (1, 2, 9):
        B = _tridiagonal_band(rng.normal(size=n), rng.normal(size=n - 1))
        assert np.allclose(eigenvalues(B), eigensystem(B)[0], rtol=0, atol=1e-13)


def test_eigenvalues_of_the_benchmark_chains_are_lapack_dsterf_bits(monkeypatch):
    # the chains of the random-mc-1d estimate at seed 1: S = 800 samples, R = 48
    from idslab import montecarlo
    from idslab.operators import PrototypeLibrary

    solve, chains = montecarlo.eigenvalues, []

    def spy(B):
        w = solve(B)
        chains.extend(zip(B.copy(), w))
        return w

    monkeypatch.setattr(montecarlo, "eigenvalues", spy)
    lib = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 4, 1)
    dist = montecarlo.SiteDistribution.bernoulli("a", "b", seed=1)
    montecarlo.pastur_shubin_mc(dist, lib, np.linspace(0.0, 4.5, 201), 800, 48)
    assert len(chains) == 800
    for B, w in chains:
        assert B.shape == (97, 2)
        reference, info = scipy.linalg.lapack.dsterf(B[:, 0], B[:96, 1])
        assert info == 0 and w.tobytes() == reference.tobytes()
