"""Spectral shift functions, singular-value decay, Legendre/Young bounds."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idslab import cli, ergodic, ssf
from idslab.acceptance import _facet_pairs
from idslab.lattice import PeriodicColoring, cube, periodic_word
from idslab.operators import (
    Facet,
    OperatorSpec,
    Prototype,
    PrototypeLibrary,
    add_facet_dirichlet,
    discretize,
    grid_embedding,
)
from idslab.spectral import EnergyWindow, StepFunction
from idslab.ssf import (
    PowerGauge,
    SingularValueSeries,
    facet_experiment,
    fit_decay,
    hs_bound,
    legendre,
    legendre_grid_sup,
    semigroup_difference_singular_values,
    spectral_shift,
    ssf_lp_integral,
    weyl_check,
    young_check,
)
from oracles import dense, dirichlet_chain_eigenvalues, svd_semigroup_difference_singular_values
from test_golden import SSF_CONFIG

I010 = EnergyWindow(0.0, 10.0, p=2.0)


def veff_singular_values(specA, specB, count=None):
    """Top singular values of a facet pair's semigroup difference, by the band path."""
    return ssf._facet_pair(specA, specB, np.inf, count)[2]


def interval_pair(cells=2, n=32, window=I010):
    """A on (0, cells), B with one Dirichlet facet in the middle."""
    lib = PrototypeLibrary.zero(["a"], n, 1)
    specA = OperatorSpec(Q=cube(cells, 1), coloring=periodic_word("a"),
                         library=lib, backend="continuum", resolution=n)
    specB = add_facet_dirichlet(specA, Facet(anchor=(cells // 2,), axis=0))
    return specA, specB


# ---------------------------------------------------------------------------
# spectral shift
# ---------------------------------------------------------------------------

def test_shift_of_identical_specs_is_zero():
    specA, _ = interval_pair()
    shift = spectral_shift(specA, specA, I010)
    assert np.all(shift.xi.values == 0)


def test_shift_interval_split_analytic():
    """xi = 1 exactly between the first eigenvalue of (0,2) and pi^2."""
    specA, specB = interval_pair(cells=2, n=32)
    shift = spectral_shift(specA, specB, I010)
    assert shift.is_nonnegative()
    # analytic check points: continuum eigenvalues (k pi / 2)^2 vs (k pi)^2
    lo = np.pi**2 / 4
    hi = np.pi**2
    assert shift.xi(lo * 1.02) == 1
    assert shift.xi(5.0) == 1
    assert shift.xi(hi - 0.05) == 1
    assert shift.xi(hi + 0.05) == 0
    assert shift.xi(lo * 0.9) == 0
    # FD jump locations approach the continuum ones
    bp = shift.xi.breakpoints
    assert abs(bp[0] - lo) < 0.01
    assert abs(bp[-1] - hi) < 0.01


def test_shift_unrelated_specs_rejected():
    specA, specB = interval_pair()
    with pytest.raises(ValueError):
        spectral_shift(specB, specA, I010)  # B is more restricted, not less


def test_shift_telescoping():
    """Sum of single-facet shifts along a chain equals the total shift."""
    n = 16
    lib = PrototypeLibrary.zero(["a"], n, 1)
    spec0 = OperatorSpec(Q=cube(4, 1), coloring=periodic_word("a"),
                         library=lib, backend="continuum", resolution=n)
    chain = [spec0]
    for anchor in [(1,), (2,), (3,)]:
        chain.append(add_facet_dirichlet(chain[-1], Facet(anchor=anchor, axis=0)))
    total = spectral_shift(chain[0], chain[-1], I010)
    partial = [
        spectral_shift(a, b, I010) for a, b in zip(chain, chain[1:])
    ]
    grid = np.linspace(0.0, 10.0, 101)
    summed = sum(p.xi(grid) for p in partial)
    assert np.array_equal(total.xi(grid), summed)


def test_shift_two_extra_facets_sum():
    specA, _ = interval_pair(cells=4, n=16)
    specB1 = add_facet_dirichlet(specA, Facet(anchor=(1,), axis=0))
    specB2 = add_facet_dirichlet(specB1, Facet(anchor=(3,), axis=0))
    total = spectral_shift(specA, specB2, I010)
    s1 = spectral_shift(specA, specB1, I010)
    s2 = spectral_shift(specB1, specB2, I010)
    grid = np.linspace(0.0, 10.0, 101)
    assert np.array_equal(total.xi(grid), s1.xi(grid) + s2.xi(grid))


# ---------------------------------------------------------------------------
# singular values of the semigroup difference
# ---------------------------------------------------------------------------

def test_veff_identical_specs_zero():
    specA, _ = interval_pair(n=8)
    mu = veff_singular_values(specA, specA).mu
    assert np.all(mu < 1e-14)


def test_veff_single_facet_positive_and_decaying():
    specA, specB = interval_pair(cells=2, n=16)
    series = veff_singular_values(specA, specB)
    assert series.mu[0] > 0
    assert series.mu[-1] < 1e-10
    assert np.all(np.diff(series.mu) <= 1e-12)


def test_veff_separated_facets_merge():
    n = 8
    lib = PrototypeLibrary.zero(["a"], n, 1)
    specA = OperatorSpec(Q=cube(24, 1), coloring=periodic_word("a"),
                         library=lib, backend="continuum", resolution=n)
    f1, f2 = Facet(anchor=(6,), axis=0), Facet(anchor=(18,), axis=0)
    both = add_facet_dirichlet(add_facet_dirichlet(specA, f1), f2)
    series_both = veff_singular_values(specA, both, count=20)
    s1 = veff_singular_values(specA, add_facet_dirichlet(specA, f1), count=20)
    s2 = veff_singular_values(specA, add_facet_dirichlet(specA, f2), count=20)
    merged = np.sort(np.concatenate([s1.mu, s2.mu]))[::-1][:20]
    assert np.allclose(series_both.mu, merged, atol=1e-6)


def _random_hermitian(rng, n, complex_):
    A = rng.uniform(-1.0, 1.0, (n, n))
    if complex_:
        A = A + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return (A + A.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.booleans(), st.booleans())
def test_veff_eigvalsh_matches_svd_oracle(seed, n, complex_, embedded):
    rng = np.random.default_rng(seed)
    HA = _random_hermitian(rng, n, complex_)
    embed = None
    HB = _random_hermitian(rng, n, complex_)
    if embedded:
        embed = np.flatnonzero(rng.random(n) < 0.7)
        if len(embed) == 0:
            embed = np.array([0])
        HB = HB[np.ix_(embed, embed)]
    oracle = svd_semigroup_difference_singular_values(HA, HB, embed=embed)
    mu = semigroup_difference_singular_values(HA, HB, embed=embed)
    assert mu.shape == oracle.shape
    assert np.max(np.abs(mu - oracle)) <= 1e-14 * max(1.0, oracle[0])


def test_semigroup_difference_keeps_its_arguments():
    """Its callers reuse HA and HB: the benchmark ladder, and tests that pin the band path to it."""
    _, _, specA, specB, _ = next(p for p in _facet_pairs() if p[0] == "d2-checker-3c-n8")
    pairs = [(dense(discretize(specA)), dense(discretize(specB)), grid_embedding(specA, specB))]
    rng = np.random.default_rng(3)
    for n in (1, 2, 6):
        for complex_ in (False, True):
            HA, HB = (_random_hermitian(rng, n, complex_) for _ in range(2))
            pairs += [(np.array(HA, order=o), np.array(HB, order=o), None) for o in "CF"]
    for HA, HB, embed in pairs:
        before = HA.tobytes(), HB.tobytes()
        semigroup_difference_singular_values(HA, HB, embed=embed)
        assert (HA.tobytes(), HB.tobytes()) == before


def _pair(name):
    return next(p for p in _facet_pairs() if p[0] == name)


def _svd_oracle(specA, specB):
    return svd_semigroup_difference_singular_values(
        dense(discretize(specA)), dense(discretize(specB)), embed=grid_embedding(specA, specB)
    )


def test_facet_decay_fit_matches_svd_oracle():
    """c_hat of the acceptance facet pairs with potentials is the SVD route's to 1e-7
    relative; the zero-potential pairs are checked against their exact values below."""
    for name, d, specA, specB, _window in _facet_pairs():
        if name in EXACT_VEFF:
            continue
        fit = fit_decay(veff_singular_values(specA, specB), d=d)
        fit_oracle = fit_decay(SingularValueSeries(mu=_svd_oracle(specA, specB)), d=d)
        assert fit.points_used == fit_oracle.points_used, name
        assert fit.c_hat == pytest.approx(fit_oracle.c_hat, rel=1e-7), name


# exact singular values of V_eff for the zero-potential facet pairs (tests/exact_veff.py)
EXACT_VEFF = json.loads((Path(__file__).parent / "data" / "exact_veff.json").read_text())["pairs"]
# the c_hat of each route's singular values lies within this of the exact c_hat
# (2.3e-7 at most, on d1-zero-16c-n16)
EXACT_C_HAT_RTOL = 1e-6
# each singular value lies within this multiple of eps ||H_A|| mu_1 of the exact one:
# the float64 eigenvalues of H_A and H_B are off by about eps ||H||, which moves
# e^-lambda by that times e^-lambda, in both routes alike (1.04 at most, on d2-zero-3c-n8)
EXACT_MU_ABS = 2.0
# and each one above the decay fit's floor within this relative distance (2.3e-5 at most)
EXACT_MU_RTOL = 1e-4


@pytest.mark.parametrize("name", sorted(EXACT_VEFF))
def test_zero_potential_facet_pairs_match_their_exact_singular_values(name):
    """The rank-k route and the dense SVD against singular values computed from the
    closed-form eigenpairs at 40 digits (tests/exact_veff.py)."""
    _, d, specA, specB, _window = _pair(name)
    exact = EXACT_VEFF[name]
    # the stored values are those at or above 1e-18; the rest are below it
    mu_exact = np.array(exact["mu"] + [0.0] * (exact["order"] - len(exact["mu"])))
    norm_HA = 4 * d * specA.resolution**2  # the Laplacian's spectrum lies in [0, 4 d n^2]
    above = mu_exact >= ssf.SINGULAR_VALUE_FLOOR
    routes = {"rank-k": veff_singular_values(specA, specB).mu, "svd": _svd_oracle(specA, specB)}
    for route, mu in routes.items():
        assert mu.shape == mu_exact.shape, route
        fit = fit_decay(SingularValueSeries(mu=mu), d=d)
        assert fit.points_used == exact["points_used"], route
        assert fit.c_hat == pytest.approx(exact["c_hat"], rel=EXACT_C_HAT_RTOL), route
        err = np.abs(mu - mu_exact)
        assert np.max(err) <= EXACT_MU_ABS * np.finfo(float).eps * norm_HA * mu_exact[0], route
        assert np.max(err[above] / mu_exact[above]) <= EXACT_MU_RTOL, route


# ---------------------------------------------------------------------------
# one solve per operator in facet_experiment
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch):
    """Count the assemblies, solves and inertia certificates made through the ssf module's names."""
    calls = Counter()
    for name in ("discretize", "eigensystem", "eigenvalues", "certified_below"):
        def counted(*args, _fn=getattr(ssf, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ssf, name, counted)
    return calls


def _assert_shift_matches_banded_route(shift, specA, specB, window):
    banded = spectral_shift(specA, specB, window)
    assert np.array_equal(shift.xi.values, banded.xi.values)
    assert np.allclose(shift.xi.breakpoints, banded.xi.breakpoints, rtol=0.0, atol=1e-9)


def test_facet_experiment_solves_each_operator_once(monkeypatch):
    for name, _d, specA, specB, window in _facet_pairs():
        calls = _count_calls(monkeypatch)
        exp = facet_experiment(specA, specB, window, (2.0,), np.random.default_rng(0), 3)
        assert calls == Counter(discretize=2, eigensystem=2, certified_below=2), name
        monkeypatch.undo()
        _assert_shift_matches_banded_route(exp.shift, specA, specB, window)


def test_cli_ssf_solves_each_operator_once(tmp_path, monkeypatch):
    seen = []

    def recorded(specA, specB, window, *args, **kwargs):
        calls = _count_calls(monkeypatch)
        exp = facet_experiment(specA, specB, window, *args, **kwargs)
        seen.append((specA, specB, window, exp.shift, calls))
        return exp

    monkeypatch.setattr(cli, "facet_experiment", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SSF_CONFIG))
    assert cli.main(["ssf", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    [(specA, specB, window, shift, calls)] = seen
    assert calls == Counter(discretize=2, eigensystem=2, certified_below=2)
    _assert_shift_matches_banded_route(shift, specA, specB, window)


# ---------------------------------------------------------------------------
# decay fit
# ---------------------------------------------------------------------------

def test_fit_decay_synthetic_exact_law():
    n = np.arange(1, 41)
    series = SingularValueSeries(mu=3.0 * np.exp(-0.7 * n))
    fit = fit_decay(series, d=1)
    assert fit.c_hat == pytest.approx(0.7, abs=1e-9)
    assert fit.C2_hat == pytest.approx(3.0, rel=1e-9)
    assert abs(fit.max_residual) < 1e-9
    assert fit.envelope_ok


def test_fit_decay_d2_scaling():
    n = np.arange(1, 200)
    series = SingularValueSeries(mu=2.0 * np.exp(-1.1 * np.sqrt(n)))
    fit = fit_decay(series, d=2)
    assert fit.c_hat == pytest.approx(1.1, abs=1e-9)
    assert fit.envelope_ok


def test_fit_decay_too_few_points():
    mu = np.concatenate([[1.0], np.zeros(30)])
    with pytest.raises(ValueError):
        fit_decay(SingularValueSeries(mu=mu), d=1)


def test_fit_decay_envelope_covers_noise():
    rng = np.random.default_rng(0)
    n = np.arange(1, 60)
    noise = np.exp(rng.normal(scale=0.2, size=len(n)))
    mu = np.sort(1.5 * np.exp(-0.5 * n) * noise)[::-1]
    fit = fit_decay(SingularValueSeries(mu=mu), d=1)
    assert fit.envelope_ok
    assert fit.c_hat > 0


# ---------------------------------------------------------------------------
# Legendre machinery
# ---------------------------------------------------------------------------

def test_legendre_power_law_closed_form():
    G = legendre(PowerGauge(2.0))  # F(x) = x^2
    ys = np.linspace(0.0, 5.0, 11)
    assert np.allclose(G(ys), ys**2 / 4.0)


def test_legendre_power_law_matches_grid_sup():
    F = PowerGauge(2.5)
    G = legendre(F)
    for y in [0.3, 1.0, 2.5, 4.0]:
        oracle = legendre_grid_sup(F, y, x_max=10.0, samples=2_000_001)
        assert abs(float(G(y)) - oracle) < 1e-6


def test_legendre_linear_gauge():
    """F(x) = x: the transform is 0 on [0, 1] and +inf beyond."""
    G = legendre(PowerGauge(1.0))
    assert np.array_equal(G(np.array([0.0, 0.5, 1.0, 1.5])), [0.0, 0.0, 0.0, np.inf])
    assert legendre_grid_sup(PowerGauge(1.0), 0.5, x_max=5.0) == 0.0


def test_fenchel_young_identity_grid():
    """F(x) + G(y) >= x y, equality on the subdifferential curve y = F'(x)."""
    q = 2.0
    F = PowerGauge(q + 1.0)
    G = legendre(F)
    xs = np.linspace(0.0, 3.0, 100)
    ys = np.linspace(0.0, 3.0, 100)
    FX = F(xs)[:, None]
    GY = np.asarray(G(ys))[None, :]
    XY = xs[:, None] * ys[None, :]
    assert np.min(FX + GY - XY) > -1e-12
    # subdifferential: y = (q+1) x^q
    x = np.linspace(0.01, 1.2, 40)
    y = (q + 1.0) * x**q
    gap = F(x) + np.asarray(G(y)) - x * y
    assert np.max(np.abs(gap)) < 1e-8


# ---------------------------------------------------------------------------
# integral bounds
# ---------------------------------------------------------------------------

def test_hs_bound_zero_series():
    series = SingularValueSeries(mu=np.zeros(5))
    assert hs_bound(series, PowerGauge(2.0), T=3.0).value == 0.0


def test_hs_bound_single_term():
    series = SingularValueSeries(mu=np.array([1.0]))
    got = hs_bound(series, PowerGauge(2.0), T=0.0)
    assert got.value == pytest.approx(1.0)


def test_norm_bound_at_large_p_is_the_exact_sum():
    # F(n) = n^p overflows from n = 3 on at p = 1000; the exact sum of phi(n) mu_n in integers
    mu = np.exp(-0.7 * np.arange(1, 41))
    window = EnergyWindow(0.0, 60.0, p=1000.0)
    exact = sum((n**1000 - (n - 1) ** 1000) * Fraction(m) for n, m in enumerate(mu, start=1))
    log_sum = math.log(exact.numerator) - math.log(exact.denominator)
    got = ssf.facet_ssf_norm_bound(SingularValueSeries(mu=mu), window)
    assert got == pytest.approx(math.exp((60.0 + log_sum) / 1000.0), rel=1e-12)
    # where F(n) does not overflow, the bound is taken as before
    series = SingularValueSeries(mu=mu)
    direct = hs_bound(series, PowerGauge(2.0), 60.0).value ** 0.5
    assert ssf.facet_ssf_norm_bound(series, EnergyWindow(0.0, 60.0, p=2.0)) == direct


@pytest.mark.parametrize("rate", [0.7, 40.0])
def test_hs_bound_at_large_p_is_infinite_with_an_exact_tail_verdict(rate):
    # at p = 1000 the terms n^p (1 - (1 - 1/n)^p) mu_n still grow at rate 0.7 and fall at rate 40
    mu = np.exp(-rate * np.arange(1, 41))
    got = hs_bound(SingularValueSeries(mu=mu), PowerGauge(1000.0), 60.0)
    assert got.value == math.inf and got.terms == 40
    exact = [(n**1000 - (n - 1) ** 1000) * Fraction(m) for n, m in enumerate(mu, start=1)]
    settled = exact[-1] <= Fraction(ssf.HS_TAIL_TOL) * sum(exact)
    decaying = all(b <= a for a, b in zip(exact[-5:], exact[-4:]))
    assert got.tail_ok is (settled or decaying) is (rate > 1.0)
    # where the sum is finite, the bound is the direct sum's
    series = SingularValueSeries(mu=mu)
    assert hs_bound(series, PowerGauge(3.0), 2.0).value == math.exp(2.0) * float(
        np.sum(np.diff(np.arange(41.0) ** 3.0) * mu)
    )


def test_semigroup_keeps_the_eigenvectors_it_can_see():
    """The eigenpairs beyond SEMIGROUP_SPAN carry weights e^-lambda below eps^2 ||exp(-H)||,
    so by Weyl's inequality no singular value of V_eff moves by more than 2 eps^2 ||exp(-H)||;
    the kept-span and full-span routes then differ by their rounding alone."""
    # a d=2 continuum pair whose spectra span about 500, far beyond SEMIGROUP_SPAN
    _, _, specA, specB, _ = _pair("d2-checker-3c-n8")
    assert ssf.SEMIGROUP_SPAN == pytest.approx(72.08, abs=0.01)
    bands = discretize(specA), discretize(specB)
    full = [ssf.eigensystem(B) for B in bands]
    kept = [ssf._solve_once(B, np.inf)[1] for B in bands]
    eps = np.finfo(float).eps
    norm = np.exp(-full[0][0][0])  # ||exp(-H_A)||, at least ||exp(-H_B)||
    for (w, U), (ws, Us), B in zip(full, kept, bands):
        k = Us.shape[1]
        assert np.array_equal(w, ws) and np.count_nonzero(w <= w[0] + ssf.SEMIGROUP_SPAN) == k < len(B) // 4
        assert np.exp(-w[k]) <= eps**2 * norm
    embed = grid_embedding(specA, specB)
    mu_full = ssf._difference_singular_values(*full, embed, None)
    mu_kept = ssf._difference_singular_values(*kept, embed, None)
    assert np.max(np.abs(mu_kept - mu_full)) <= 2 * eps**2 * norm + 1e-15 * norm


def _calibration_pair_operators(coloring, lib, backend):
    """The dense H_A, H_B and embedding of ergodic.calibration_pair, built independently."""
    d = coloring.dimension
    e1 = (1,) + (0,) * (d - 1)
    specA = OperatorSpec(Q=frozenset({(0,) * d, e1}), coloring=coloring, library=lib,
                         backend=backend, resolution=lib.resolution)
    HA = dense(discretize(specA))
    if backend == "lattice":
        HB = HA.copy()
        HB[0, 1] = HB[1, 0] = 0.0  # the bond between the two cells is cut
        return HA, HB, None
    specB = add_facet_dirichlet(specA, Facet(anchor=e1, axis=0))
    return HA, dense(discretize(specB)), grid_embedding(specA, specB)


CHECKER = PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"})


@pytest.mark.parametrize("coloring, a_value, backend", [
    (periodic_word("ab"), None, "continuum"), (CHECKER, None, "lattice"),
    (CHECKER, [0.3, -0.2], "continuum"),
], ids=["wide-R", "bond-cut", "magnetic"])
def test_calibration_pairs_match_svd_oracle(coloring, a_value, backend):
    """The rank-k step where k_A + k_B >= N (R is wide), without an embedding (the
    lattice bond cut), and on complex bands agrees with the dense SVD."""
    d, n = coloring.dimension, 4
    lib = PrototypeLibrary([Prototype.constant("a", 0.0, n, d, a_value),
                            Prototype.constant("b", 1.0, n, d)])
    HA, HB, embed = _calibration_pair_operators(coloring, lib, backend)
    (_, (_, UA)), (_, (_, UB)) = (ssf._solve_once(ssf.lower_band(H), np.inf) for H in (HA, HB))
    if a_value is None:
        assert UA.shape[1] + UB.shape[1] >= len(HA)
    else:
        assert np.iscomplexobj(HA) and np.iscomplexobj(UA)
    mu = ergodic.calibration_pair(coloring, lib, backend).mu
    oracle = svd_semigroup_difference_singular_values(HA, HB, embed=embed)
    assert mu.shape == oracle.shape
    assert np.max(np.abs(mu - oracle)) <= 1e-14 * max(1.0, oracle[0])


def test_difference_singular_values_form_no_square_matrix():
    """On d2-checker-3c-n8 (N = 529, k = 49 + 48) the rank-k step allocates less than one
    N x N float64 array at its peak."""
    _, _, specA, specB, _ = _pair("d2-checker-3c-n8")
    a, b = (ssf._solve_once(discretize(spec), np.inf)[1] for spec in (specA, specB))
    embed = grid_embedding(specA, specB)
    n = len(a[1])
    assert (n, a[1].shape[1], b[1].shape[1]) == (529, 49, 48)
    tracemalloc.start()
    try:
        ssf._difference_singular_values(a, b, embed, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_hs_bound_dominates_direct_integral():
    specA, specB = interval_pair(cells=2, n=24)
    series = veff_singular_values(specA, specB)
    shift = spectral_shift(specA, specB, I010)
    for p in (1.0, 2.0, 3.0):
        direct = ssf_lp_integral(shift, p)
        bound = hs_bound(series, PowerGauge(p), T=I010.sup).value
        assert direct <= bound
        assert direct > 0


def test_young_check_trivial_cases():
    specA, specB = interval_pair(cells=2, n=16)
    series = veff_singular_values(specA, specB)
    shift = spectral_shift(specA, specB, I010)
    zero = StepFunction.constant(0.0)
    lhs, rhs = young_check(zero, shift, PowerGauge(2.0), series)
    assert lhs == 0.0 and rhs >= 0.0
    trivial = spectral_shift(specA, specA, I010)
    lhs2, _ = young_check(zero.scale(1.0), trivial, PowerGauge(2.0), series)
    assert lhs2 == 0.0


def test_young_check_randomized():
    specA, specB = interval_pair(cells=2, n=16)
    series = veff_singular_values(specA, specB)
    shift = spectral_shift(specA, specB, I010)
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = rng.integers(1, 6)
        bp = np.unique(rng.uniform(0.0, 10.0, size=k))
        vals = rng.uniform(-2.0, 2.0, size=len(bp) + 1)
        h = StepFunction(bp, vals)
        lhs, rhs = young_check(h, shift, PowerGauge(2.0), series)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Weyl lower bound
# ---------------------------------------------------------------------------

def test_weyl_margin_analytic_interval():
    L = 5.0
    eigs = [(k * np.pi / L) ** 2 for k in range(1, 40)]
    margin = weyl_check(eigs, volume=L, delta=0.0, C1=0.0, d=1)
    assert margin > 0
    # the binding constant comparison: pi^2 vs 2 pi / e
    assert margin == pytest.approx(
        min((k * np.pi / L) ** 2 - (2 * np.pi / math.e) * (k / L) ** 2 for k in range(1, 40))
    )


def test_weyl_empty_spectrum_vacuous():
    assert weyl_check([], volume=2.0) == math.inf


def test_weyl_fd_restricted_below_ceiling():
    """Coarse FD spectra satisfy the bound once restricted to E_n <= T."""
    L, n = 8, 4
    eigs = np.sort(dirichlet_chain_eigenvalues(L, n))
    T = np.pi**2
    margin = weyl_check(eigs[eigs <= T], volume=float(L), delta=0.0, C1=0.0, d=1)
    assert margin > 0


def test_weyl_delta_validation():
    with pytest.raises(ValueError):
        weyl_check([1.0], volume=1.0, delta=1.5)


@pytest.mark.parametrize("delta", [1.5, -0.1])
def test_weyl_delta_is_checked_before_an_empty_spectrum(delta):
    with pytest.raises(ValueError, match="delta"):
        weyl_check([], volume=1.0, delta=delta)
