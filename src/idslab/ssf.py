"""Spectral shift functions of facet perturbations and their integral bounds.

A facet Dirichlet condition removes grid points, so the restricted operator
is a principal submatrix and interlacing makes the shift function a
nonnegative integer-valued step function.  The heat-semigroup difference
V_eff = exp(-H_restricted) - exp(-H) is the compact object whose singular
values control every integral bound here; its decay law is fitted, and
power gauges F(x) = x^p with their closed-form Legendre transforms (Young's
inequality) convert the singular values into bounds on integrals of the
shift function.

V_eff is Hermitian, so its singular values are the absolute values of its
eigenvalues: those of a problem of order k_A + k_B, from the k eigenpairs each
semigroup keeps (no SVD, no N x N matrix).  facet_experiment solves each of
its two operators once: the eigendecomposition that gives the eigenpairs also
gives the eigenvalues of the shift function, whose counts below the window
top are certified by Sylvester inertia as in spectral.eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import OperatorSpec, discretize, grid_embedding
from .spectral import (
    EnergyWindow,
    NumericalFailure,
    StepFunction,
    certified_below,
    counting_function,
    eigensystem,
    eigenvalues,
    integrate_product,
    integrate_transform,
    lower_band,
    subtract,
)

SINGULAR_VALUE_FLOOR = 1e-13
# shift breakpoints closer than this are merged
SHIFT_MERGE_TOL = 1e-8
# multiplicative slack of the fitted decay envelope
ENVELOPE_SLACK = 0.05
# a heat-semigroup bound's last term at or below this counts as settled
HS_TAIL_TOL = 1e-14
# exp(-H) keeps the eigenvectors within this of H's lowest eigenvalue: a dropped
# weight e^-lambda is below eps^2 * ||exp(-H)||, so by Weyl's inequality no
# singular value of V_eff moves by more than 2 eps^2 * ||exp(-H)||
SEMIGROUP_SPAN = -2.0 * math.log(np.finfo(float).eps)
# H's eigenvalues w, ascending, and the eigenvectors U of those within SEMIGROUP_SPAN
Eigenpairs = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SpectralShift:
    """xi(., B, A) = N(., A) - N(., B) with B the more restricted operator."""

    xi: StepFunction
    window: EnergyWindow

    def __post_init__(self):
        v = self.xi.values
        if np.any(np.abs(v - np.round(v)) > 1e-9):
            raise ValueError("spectral shift must have integer values")

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.xi.values >= -1e-12))


@dataclass(frozen=True)
class SingularValueSeries:
    """Decreasing singular values mu_n with provenance metadata."""

    mu: np.ndarray
    source: str = ""

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if np.any(mu < -1e-14):
            raise ValueError("singular values must be nonnegative")
        mu = np.clip(mu, 0.0, None)
        if np.any(np.diff(mu) > 1e-12 * max(1.0, float(mu[0]) if len(mu) else 1.0)):
            raise ValueError("singular values must be nonincreasing")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


def specs_facet_related(specA: OperatorSpec, specB: OperatorSpec) -> bool:
    """True iff specB is specA with additional Dirichlet facets."""
    same_family = (
        specA.Q == specB.Q
        and specA.backend == specB.backend
        and specA.resolution == specB.resolution
        and specA.coloring == specB.coloring
        and specA.library is specB.library
    )
    extra = set(specB.removed_facets) >= set(specA.removed_facets)
    return same_family and extra


def spectral_shift(
    specA: OperatorSpec, specB: OperatorSpec, window: EnergyWindow
) -> SpectralShift:
    """Counting-function difference N(., A) - N(., B) on the window (banded eigenvalues)."""
    if not specs_facet_related(specA, specB):
        raise ValueError("specB must be specA plus extra Dirichlet facets")
    return _shift(
        eigenvalues(discretize(specA), ceiling=window.sup),
        eigenvalues(discretize(specB), ceiling=window.sup),
        window,
    )


def _shift(eigs_a: np.ndarray, eigs_b: np.ndarray, window: EnergyWindow) -> SpectralShift:
    """The shift from the certified eigenvalues <= window.sup of A and of B.

    Jump locations that coincide analytically can split at machine
    precision in the two decompositions; breakpoint clusters within
    SHIFT_MERGE_TOL are merged so the shift keeps its exact integer staircase
    form.
    """
    na = counting_function(eigs_a, window)
    nb = counting_function(eigs_b, window)
    return SpectralShift(xi=subtract(na, nb).coalesce(SHIFT_MERGE_TOL), window=window)


def _difference_singular_values(
    a: Eigenpairs, b: Eigenpairs, embed: Sequence[int] | None, count: int | None
) -> np.ndarray:
    """Singular values of V_eff = exp(-H_B) - exp(-H_A), descending, from a = (w_A, U_A)
    and b = (w_B, U_B).  When H_B acts on a subset of H_A's index set, embed gives
    H_B's row/column positions inside H_A's indexing and exp(-H_B) counts as zero
    at the removed indices.  V_eff = W S W^H with W = [U_A, P U_B] (P places U_B's
    rows at embed) and S = diag(-e^-w_A, e^-w_B); with W = Q R, its nonzero
    eigenvalues are those of the Hermitian R S R^H, of order at most k_A + k_B.
    """
    (wa, Ua), (wb, Ub) = a, b
    n, ka = Ua.shape
    if embed is None and Ub.shape[0] != n:
        raise ValueError("need embedding indices when dimensions differ")
    if embed is not None and len(embed) != Ub.shape[0]:
        raise ValueError("embedding index count must match HB's dimension")
    W = np.zeros((n, ka + Ub.shape[1]), dtype=np.result_type(Ua, Ub))
    W[:, :ka] = Ua
    W[slice(None) if embed is None else np.asarray(embed, dtype=int), ka:] = Ub
    s = np.concatenate([-np.exp(-wa[:ka]), np.exp(-wb[: Ub.shape[1]])])
    R = np.linalg.qr(W, mode="r")
    mu = np.zeros(n)
    try:
        mu[: len(R)] = np.sort(np.abs(np.linalg.eigvalsh((R * s) @ R.conj().T)))[::-1]
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"np.linalg.eigvalsh failed ({e}) on R S R^H of order {len(R)}") from None
    return mu if count is None else mu[:count]


def semigroup_difference_singular_values(
    HA: np.ndarray,
    HB: np.ndarray,
    embed: Sequence[int] | None = None,
    count: int | None = None,
) -> np.ndarray:
    """Singular values of exp(-HB) - exp(-HA), descending.

    HA and HB are dense Hermitian matrices; their bands (lower_band, which
    checks them) are solved as a facet pair's are.  When HB
    acts on a subset of HA's index set, embed gives HB's row/column
    positions inside HA's indexing and the semigroup of HB is padded with
    zeros at the removed indices (the removed states are absent, which is
    the discrete counterpart of restriction to the slit domain).
    """
    _, a = _solve_once(lower_band(HA), np.inf)
    _, b = _solve_once(lower_band(HB), np.inf)
    return _difference_singular_values(a, b, embed, count)


def _solve_once(B: np.ndarray, ceiling: float) -> tuple[np.ndarray, Eigenpairs]:
    """Certified eigenvalues <= ceiling and the Eigenpairs of the band B, from one eigensystem."""
    w, U = eigensystem(B, SEMIGROUP_SPAN)
    [below], _ = certified_below([B], [w], ceiling)
    return below, (w, U)


def _facet_pair(
    specA: OperatorSpec,
    specB: OperatorSpec,
    ceiling: float,
    count: int | None,
) -> tuple[np.ndarray, np.ndarray, SingularValueSeries]:
    """Certified eigenvalues <= ceiling of A and of B, and V_eff's singular values.

    Each operator is assembled and solved once, B only after A is solved.
    """
    if not specs_facet_related(specA, specB):
        raise ValueError("specB must be specA plus extra Dirichlet facets")
    eigs_a, a = _solve_once(discretize(specA), ceiling)
    eigs_b, b = _solve_once(discretize(specB), ceiling)
    mu = _difference_singular_values(a, b, grid_embedding(specA, specB), count)
    src = (
        f"facets+{len(specB.removed_facets) - len(specA.removed_facets)}"
        f" dim={len(a[1])} n={specA.resolution}"
    )
    return eigs_a, eigs_b, SingularValueSeries(mu=mu, source=src)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log mu_n against -n^(1/d)."""

    c_hat: float
    C2_hat: float
    C2_covered: float
    max_residual: float
    points_used: int
    envelope_ok: bool


def fit_decay(series: SingularValueSeries, d: int) -> DecayFit:
    """Fit mu_n <= C2 exp(-c n^(1/d)) as a one-sided envelope.

    Log-linear least squares over values above SINGULAR_VALUE_FLOOR; the
    intercept is then inflated to cover the largest positive residual so the
    envelope (with the extra multiplicative slack) dominates every fitted point.
    """
    mu = series.mu[series.mu >= SINGULAR_VALUE_FLOOR]
    if len(mu) < 10:
        raise ValueError(
            f"need at least 10 singular values above {SINGULAR_VALUE_FLOOR}, got {len(mu)}"
        )
    n = np.arange(1, len(mu) + 1, dtype=float)
    x = n ** (1.0 / d)
    y = np.log(mu)
    slope, intercept = np.polyfit(x, y, 1)
    c_hat = -float(slope)
    C2_hat = float(np.exp(intercept))
    residuals = y - (intercept + slope * x)
    max_residual = float(np.max(residuals))
    C2_covered = C2_hat * math.exp(max(0.0, max_residual))
    envelope = (1.0 + ENVELOPE_SLACK) * C2_covered * np.exp(-c_hat * x)
    envelope_ok = bool(np.all(mu <= envelope))
    return DecayFit(
        c_hat=c_hat,
        C2_hat=C2_hat,
        C2_covered=C2_covered,
        max_residual=max_residual,
        points_used=int(len(mu)),
        envelope_ok=envelope_ok,
    )


# ---------------------------------------------------------------------------
# Power gauges and the Legendre transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerGauge:
    """F(x) = x^p with p >= 1 (the choice feeding the per-facet L^p bound)."""

    p: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")

    def __call__(self, x):
        return np.asarray(x, dtype=float) ** self.p


def legendre(F: PowerGauge) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form Legendre transform G(y) = sup_{x >= 0} (x y - F(x))."""
    if F.p == 1.0:
        # F(x) = x: transform is 0 on [0, 1], +inf beyond.
        def G1(y):
            return np.where(np.asarray(y, dtype=float) <= 1.0, 0.0, np.inf)

        return G1
    q = F.p - 1.0

    def Gp(y):
        y = np.asarray(y, dtype=float)
        return q * (y / (q + 1.0)) ** ((q + 1.0) / q)

    return Gp


def legendre_grid_sup(F: PowerGauge, y, x_max: float, samples: int = 200_001) -> float:
    """Brute-force sup_x (x y - F(x)) over a dense grid (independent oracle)."""
    xs = np.linspace(0.0, x_max, samples)
    return float(np.max(xs * y - np.asarray(F(xs), dtype=float)))


# ---------------------------------------------------------------------------
# Integral bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HsBound:
    """Value of exp(T) * sum_n phi(n) mu_n with a tail-convergence flag."""

    value: float
    tail_ok: bool
    terms: int


def _phi_mu(mu: np.ndarray, F: PowerGauge) -> tuple[np.ndarray, float, bool]:
    """The terms phi(n) mu_n of <phi, mu> (phi(n) = F(n) - F(n-1)), their sum, and whether
    both are logarithms: they are where F(n) = n^p overflows, as at large p, with
    log(phi(n) mu_n) = p log n + log(1 - (1 - 1/n)^p) + log mu_n.  Vanished
    singular values contribute nothing (0, or -inf as a logarithm) even when phi overflows.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = np.where(mu > 0, np.diff(F(np.arange(len(mu) + 1.0))) * mu, 0.0)
        total = float(np.sum(terms))
        if math.isfinite(total):
            return terms, total, False
        n = np.arange(1, len(mu) + 1)
        logs = F.p * np.log(n) + np.log(-np.expm1(F.p * np.log1p(-1.0 / n))) + np.log(mu)
    return logs, float(np.logaddexp.reduce(logs)), True


def hs_bound(series: SingularValueSeries, F: PowerGauge, T: float) -> HsBound:
    """Upper bound exp(T) <phi, mu> for the integral of F(|xi|) below T; +inf where it overflows."""
    mu = series.mu
    if len(mu) == 0:
        return HsBound(value=0.0, tail_ok=True, terms=0)
    terms, total, in_logs = _phi_mu(mu, F)
    # Divergence diagnostic: the partial sums have settled when the last
    # term is negligible or the terms are still decaying at the tail.
    negligible = math.log(HS_TAIL_TOL) + total if in_logs else max(HS_TAIL_TOL, HS_TAIL_TOL * abs(total))
    tail = terms[-min(5, len(terms)):]
    tail_ok = bool(terms[-1] <= negligible or np.all(tail[1:] <= tail[:-1]))
    value = math.inf if in_logs else float(math.exp(T) * total)
    return HsBound(value=value, tail_ok=tail_ok, terms=len(mu))


def ssf_lp_integral(shift: SpectralShift, p: float) -> float:
    """Direct integral over the window of |xi|^p (exact, piecewise)."""
    return integrate_transform(
        shift.xi, shift.window, lambda v: np.abs(v) ** p
    )


def facet_ssf_norm_bound(
    series: SingularValueSeries, window: EnergyWindow
) -> float:
    """Per-facet shift-norm constant (exp(T) <phi, mu>)^(1/p).

    Upper bound on the L^p(I) norm of any single facet's shift function,
    computed once per experiment from a designated single-facet pair; it is
    the scale entering the boundary term of the averaging engine.  Where
    F(n) = n^p overflows, as at large p, the sum is taken in logarithms.
    """
    p = window.p
    _, total, in_logs = _phi_mu(series.mu, PowerGauge(p))
    value = math.inf if in_logs else math.exp(window.sup) * total
    if math.isfinite(value):
        return float(value ** (1.0 / p))
    return math.exp((window.sup + (total if in_logs else math.log(total))) / p)


def young_check(
    h: StepFunction,
    shift: SpectralShift,
    F: PowerGauge,
    series: SingularValueSeries,
) -> tuple[float, float]:
    """(lhs, rhs) of the Young-type bound: integral of h*xi vs hs_bound + integral of G(|h|)."""
    window = shift.window
    lhs = integrate_product(h, shift.xi, window)
    G = legendre(F)
    g_term = integrate_transform(h, window, lambda v: np.asarray(G(np.abs(v))))
    rhs = hs_bound(series, F, window.sup).value + g_term
    return float(lhs), float(rhs)


def weyl_check(
    eigs: Sequence[float],
    volume: float,
    delta: float = 0.0,
    C1: float = 0.0,
    d: int = 1,
) -> float:
    """Worst margin of the Weyl-type lower bound over the listed eigenvalues.

    margin_n = E_n - (2 pi (1-delta) d / e) (n / volume)^(2/d) + C1; the
    minimum over n is returned, +inf for an empty list (vacuous bound).
    """
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    e = np.asarray(sorted(eigs), dtype=float)
    if len(e) == 0:
        return math.inf
    n = np.arange(1, len(e) + 1, dtype=float)
    lower = (2.0 * math.pi * (1.0 - delta) * d / math.e) * (n / volume) ** (2.0 / d)
    return float(np.min(e - lower + C1))


@dataclass(frozen=True)
class FacetExperiment:
    """A facet pair's shift function, semigroup singular values and integral bounds.

    bounds maps each exponent p to (direct integral of |xi|^p, its
    heat-semigroup bound); young_passed counts the Young-inequality trials
    that held.
    """

    shift: SpectralShift
    series: SingularValueSeries
    bounds: dict[float, tuple[float, HsBound]]
    young_passed: int


def facet_experiment(
    specA: OperatorSpec,
    specB: OperatorSpec,
    window: EnergyWindow,
    powers: Sequence[float],
    rng: np.random.Generator,
    trials: int,
    count: int | None = None,
) -> FacetExperiment:
    """L^p bounds and Young-inequality spot checks for one facet pair.

    Each trial draws a step function h with 1 to 5 random breakpoints in the
    window and values in [-2, 2] from rng, and checks the Young bound for
    F(x) = x^2 to within 1e-9.  Each operator is assembled and solved once:
    its eigendecomposition gives both its semigroup and its certified
    eigenvalues <= window.sup.
    """
    eigs_a, eigs_b, series = _facet_pair(specA, specB, window.sup, count)
    shift = _shift(eigs_a, eigs_b, window)
    bounds = {
        p: (ssf_lp_integral(shift, p), hs_bound(series, PowerGauge(p), T=window.sup))
        for p in powers
    }
    passed = 0
    for _ in range(trials):
        k = int(rng.integers(1, 6))
        bp = np.unique(rng.uniform(window.lo, window.hi, size=k))
        h = StepFunction(bp, rng.uniform(-2.0, 2.0, size=len(bp) + 1))
        lhs, rhs = young_check(h, shift, PowerGauge(2.0), series)
        if lhs <= rhs + 1e-9:
            passed += 1
    return FacetExperiment(shift=shift, series=series, bounds=bounds, young_passed=passed)
