"""Random colorings and Monte Carlo estimation of the trace-per-unit-volume IDS.

Randomness is i.i.d. per site (Bernoulli-type: each lattice site draws its
potential prototype independently), realized by counter-based site hashing
so that every sample is a bona fide deterministic coloring.  The localized
spectral trace over the origin cell is truncated to a centered box; the
truncation error is measured through the heat-semigroup localization
diagnostic rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .ergodic import AlmostAdditiveField
from .lattice import Coloring, RandomColoring, Site, check_weights, cube, iid_codes, iid_seeds
from .operators import (
    LATTICE,
    OperatorSpec,
    PrototypeLibrary,
    _band_width,
    _cells,
    coded_bands,
)
from .spectral import (
    EnergyWindow,
    NumericalFailure,
    StepFunction,
    certified_below,
    eigensystem,
    eigenvalues,
    lp_distance,
    tridiagonal_masses,
)

# family-wise false-alarm rate of the two-seed agreement test (estimates_agree)
TWO_SEED_ALPHA = 0.01
# the most band entries (samples x N x (w + 1)) filled, solved and certified as
# one group; it bounds every per-group temporary, the mass kernel's
# (samples x N) included
GROUP_BAND_ENTRIES = 2**14
# a sample's origin masses must sum to its number of origin points within this share of it
MASS_SUM_RTOL = 1e-9


@dataclass(frozen=True)
class SiteDistribution:
    """Probability weights over alphabet symbols plus a master seed."""

    symbols: tuple[str, ...]
    weights: tuple[float, ...]
    seed: int

    def __post_init__(self):
        check_weights(self.symbols, self.weights)

    @staticmethod
    def point_mass(symbol: str, seed: int = 0) -> "SiteDistribution":
        return SiteDistribution(symbols=(symbol,), weights=(1.0,), seed=seed)

    @staticmethod
    def bernoulli(a: str, b: str, p: float = 0.5, seed: int = 0) -> "SiteDistribution":
        return SiteDistribution(symbols=(a, b), weights=(p, 1.0 - p), seed=seed)


def sample_coloring(dist: SiteDistribution, sample_index: int, d: int) -> RandomColoring:
    """Deterministic coloring for one sample: pure function of (seed, index, site)."""
    return RandomColoring(
        seed=iid_seeds(dist.seed, [sample_index])[0],
        symbols=dist.symbols,
        weights=dist.weights,
        dim=d,
    )


def centered_box(R: int, d: int) -> frozenset[Site]:
    """Cube of side 2R+1 centered so the origin cell is interior for R >= 1."""
    if R < 1:
        raise ValueError(f"truncation radius must be >= 1, got {R}")
    return frozenset(product(range(-R, R + 1), repeat=d))


def _ceiling(lambda_grid: Sequence[float]) -> float:
    """The top of the lambda grid; ValueError if the grid is empty."""
    if not len(lambda_grid):
        raise ValueError("the lambda grid is empty")
    return float(np.max(lambda_grid))


def _chain_sites(bands: np.ndarray, origin: np.ndarray) -> range | None:
    """The origin's points as one index range when every band of the group is
    an irreducible real chain (width 2, no zero off-diagonal), else None."""
    # a zero off-diagonal cuts a chain: a facet or a gap in Q
    if np.iscomplexobj(bands) or bands.shape[2] != 2 or not len(origin) or not np.all(bands[:, :-1, 1]):
        return None
    sites = range(origin[0], origin[-1] + 1)
    return sites if len(sites) == len(origin) else None


def _origin_spectra(spec: OperatorSpec, geometry: tuple, codes: np.ndarray, ceiling: float):
    """Per row of codes (samples, cells of the geometry _cells(spec)), in order,
    the ascending eigenvalues of spec's Hamiltonian H under that coloring,
    each eigenvector's mass on the origin cell's points, and the tie width
    that certified_below used for H.  Each group of samples, its
    bands at most GROUP_BAND_ENTRIES entries, is filled (coded_bands); solved,
    irreducible real chains (_chain_sites) by one eigenvalues and one
    tridiagonal_masses call, others by eigensystem at its full span; certified by one
    certified_below call; and each sample's masses must sum to its number of
    origin points within MASS_SUM_RTOL of it.
    """
    cells, owner, _, links = geometry
    origin = np.flatnonzero(owner == cells.index((0,) * spec.dimension))
    group = max(1, GROUP_BAND_ENTRIES // (len(owner) * _band_width(links)))
    for start in range(0, len(codes), group):
        bands = coded_bands(spec, geometry, codes[start : start + group])
        sites = _chain_sites(bands, origin)
        if sites is None:
            eigs, masses = np.empty(bands.shape[:2]), np.empty(bands.shape[:2])
            for i, B in enumerate(bands):
                eigs[i], U = eigensystem(B)
                masses[i] = np.sum(np.abs(U[origin, :]) ** 2, axis=0)
        else:
            eigs = eigenvalues(bands)
            masses = tridiagonal_masses(bands[..., 0], bands[:, :-1, 1], eigs, sites)
        _, deltas = certified_below(bands, eigs, ceiling)
        sums = np.sum(masses, axis=1)
        bad = np.flatnonzero(~(np.abs(sums - len(origin)) <= MASS_SUM_RTOL * len(origin)))
        if len(bad):
            raise NumericalFailure(
                f"sample {start + bad[0]}: its eigenvectors' masses on the origin cell sum to "
                f"{sums[bad[0]]!r}, not to its {len(origin)} points"
            )
        yield from zip(eigs, masses, deltas)


def _own_spectrum(spec: OperatorSpec, lambda_grid: Sequence[float]) -> tuple[np.ndarray, ...]:
    """_origin_spectra of spec under its own coloring, certified below the grid's top."""
    ceiling = _ceiling(lambda_grid)
    geometry = _cells(spec)
    codes = spec.library.codes(spec.coloring.colors(geometry[0]))
    [spectrum] = _origin_spectra(spec, geometry, codes[None], ceiling)
    return spectrum


def _mass_below(w: np.ndarray, mass: np.ndarray, delta: float, lambda_grid: np.ndarray) -> np.ndarray:
    """Cumulative origin-cell mass of the eigenvalues up to each lambda; an eigenvalue
    within delta above lambda counts as below it, as in certified_below's tie rule."""
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    return cum[np.searchsorted(w, lambda_grid + delta, side="right")]


def localized_counting(spec: OperatorSpec, lambda_grid: np.ndarray) -> np.ndarray:
    """Tr[chi_{W_0} chi_{(-inf, lambda]}(H)] on the given energy grid.

    Eigenvector mass over the origin cell's half-open grid points; summing
    this quantity over all cells of Q tiles back to the full eigenvalue
    count, exactly.  The one sample of _origin_spectra under spec's
    coloring, so its count below the grid's top is certified.
    """
    return _mass_below(*_own_spectrum(spec, lambda_grid), lambda_grid)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean and standard error of the localized trace per lambda."""

    lambda_grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    samples: int
    truncation_radius: int
    source: str = ""

    def to_csv(self) -> str:
        lines = [
            f"# samples={self.samples} R={self.truncation_radius} {self.source}".rstrip(),
            "lambda,mean,stderr",
        ]
        for lam, m, s in zip(self.lambda_grid, self.mean, self.stderr):
            lines.append(f"{float(lam)!r},{float(m)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"


def pastur_shubin_mc(
    dist: SiteDistribution,
    library: PrototypeLibrary,
    lambda_grid: Sequence[float],
    samples: int,
    truncation_radius: int,
    backend: str = LATTICE,
) -> McEstimate:
    """Monte Carlo estimate of the trace-per-unit-volume distribution function.

    Each sample is the origin-cell-localized spectral mass on the lambda
    grid of the Hamiltonian on the centered box, under sample s's coloring
    (sample_coloring); the library fixes the dimension d and the cell grid.
    One path serves every backend and d: the box geometry is built once, one
    iid_codes call colors every sample, and
    _origin_spectra fills, solves and certifies them in groups, of which
    only each sample's row is kept.  Mean and standard error are taken
    across samples.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    grid = np.unique(np.asarray(lambda_grid, dtype=float))
    ceiling = _ceiling(grid)
    d = library.dimension
    box = centered_box(truncation_radius, d)
    spec = OperatorSpec(box, None, library, backend, library.resolution)
    geometry = _cells(spec)
    seeds = iid_seeds(dist.seed, range(samples))
    codes = library.codes(dist.symbols)[iid_codes(seeds, dist.weights, geometry[0])]
    rows = np.empty((samples, len(grid)))
    for s, spectrum in enumerate(_origin_spectra(spec, geometry, codes, ceiling)):
        rows[s] = _mass_below(*spectrum, grid)
    mean = np.mean(rows, axis=0)
    if samples > 1:
        stderr = np.std(rows, axis=0, ddof=1) / np.sqrt(samples)
    else:
        stderr = np.zeros_like(mean)
    weights = ",".join(f"{s}:{w!r}" for s, w in zip(dist.symbols, dist.weights))
    return McEstimate(
        lambda_grid=grid,
        mean=mean,
        stderr=stderr,
        samples=samples,
        truncation_radius=truncation_radius,
        source=f"seed={dist.seed} weights={weights} backend={backend} d={d}",
    )


def semigroup_truncation_diagnostic(
    coloring: Coloring,
    library: PrototypeLibrary,
    R: int,
    lambda_grid: Sequence[float],
    backend: str = LATTICE,
) -> tuple[float, float]:
    """Localized heat-trace and projector-estimate changes under doubling the truncation box.

    The first value, |Tr[chi_{W_0} exp(-H_{2R})] - Tr[chi_{W_0} exp(-H_R)]|,
    is the measured face of the localization step justifying box truncation;
    it decays like a Gaussian in R.  The second is the largest change of the
    localized counting on the lambda grid, which moves like 1/R.  Both come
    from one solve per radius (_own_spectrum): eigenvalues and
    tridiagonal_masses on an irreducible real chain, else one eigensystem.
    """
    heat, counts = [], []
    for radius in (R, 2 * R):
        box = centered_box(radius, library.dimension)
        spec = OperatorSpec(box, coloring, library, backend, library.resolution)
        w, mass, delta = _own_spectrum(spec, lambda_grid)
        heat.append(float(np.sum(np.exp(-w) * mass)))
        counts.append(_mass_below(w, mass, delta, lambda_grid))
    return abs(heat[1] - heat[0]), float(np.max(np.abs(counts[0] - counts[1])))


@dataclass(frozen=True)
class RandomIdsReport:
    """Per-sample direct-route distances against the Monte Carlo reference."""

    omegas: tuple[int, ...]
    volumes: tuple[int, ...]
    distances: np.ndarray  # shape (len(omegas), len(volumes))

    def decreased(self) -> bool:
        return bool(np.all(self.distances[:, -1] < self.distances[:, 0]))


def mc_step_function(estimate: McEstimate) -> StepFunction:
    """Right-continuous step interpolant of the Monte Carlo mean."""
    bp = estimate.lambda_grid
    values = np.concatenate([[0.0], estimate.mean])
    return StepFunction(bp, values)


def compare_random_ids(
    dist: SiteDistribution,
    library: PrototypeLibrary,
    window: EnergyWindow,
    reference: McEstimate,
    volumes: Sequence[int],
    omegas: Sequence[int],
    backend: str = LATTICE,
) -> RandomIdsReport:
    """Distances between per-sample normalized counting functions and the MC mean."""
    ref = mc_step_function(reference)
    d = library.dimension
    rows = []
    for omega in omegas:
        field = AlmostAdditiveField(sample_coloring(dist, omega, d), library, window, backend)
        dists = []
        for j in volumes:
            Q = cube(j, d)
            normalized = field.evaluate(Q).scale(1.0 / len(Q))
            dists.append(lp_distance(normalized, ref, window))
        rows.append(dists)
    return RandomIdsReport(
        omegas=tuple(int(o) for o in omegas),
        volumes=tuple(int(v) for v in volumes),
        distances=np.asarray(rows),
    )


def estimates_agree(a: McEstimate, b: McEstimate) -> bool:
    """Whether two independent estimates on one lambda grid agree at every grid point.

    Estimates on different grids raise ValueError.  Each point's mean
    difference must lie within z* combined standard errors, with the
    Bonferroni threshold z* = Phi^-1(1 - alpha / (2K)) over the grid's K
    points and alpha = TWO_SEED_ALPHA.  Under equal means, the chance that
    any point exceeds it is at most alpha (up to the normal approximation of
    each point), whatever the correlation between the points.  At K = 201
    and alpha = 0.01, z* = 4.06.
    """
    if not np.array_equal(a.lambda_grid, b.lambda_grid):
        raise ValueError("the estimates lie on different lambda grids")
    combined = np.sqrt(a.stderr**2 + b.stderr**2)
    z = NormalDist().inv_cdf(1.0 - TWO_SEED_ALPHA / (2 * len(a.lambda_grid)))
    return bool(np.all(np.abs(a.mean - b.mean) <= z * np.maximum(combined, 1e-12)))


@dataclass(frozen=True)
class RandomIdsExperiment:
    """Everything the random-IDS experiment measured, for the CLI and the acceptance suite."""

    estimate: McEstimate
    twin: McEstimate
    seeds_agree: bool
    max_abs_difference: float
    comparison: RandomIdsReport
    semigroup_diagnostic: float
    projector_change: float


def random_ids_experiment(
    dist: SiteDistribution,
    twin_seed: int,
    library: PrototypeLibrary,
    window: EnergyWindow,
    grid: Sequence[float],
    samples: int,
    R: int,
    omegas: Sequence[int],
    volumes: Sequence[int],
    backend: str = LATTICE,
) -> RandomIdsExperiment:
    """Monte Carlo IDS with an independent-seed twin, per-omega distances and truncation checks.

    The twin repeats the estimate with dist's weights under twin_seed; the
    seeds agree as estimates_agree decides.  The truncation pair runs the
    point mass on dist's first symbol at radii R and 2R.
    """
    estimate = pastur_shubin_mc(dist, library, grid, samples, R, backend)
    twin = pastur_shubin_mc(
        SiteDistribution(dist.symbols, dist.weights, twin_seed), library, grid, samples, R, backend
    )
    comparison = compare_random_ids(dist, library, window, estimate, volumes, omegas, backend)
    point = SiteDistribution.point_mass(dist.symbols[0], seed=dist.seed)
    sg_diag, projector_change = semigroup_truncation_diagnostic(
        sample_coloring(point, 0, library.dimension), library, R, grid, backend
    )
    return RandomIdsExperiment(
        estimate=estimate,
        twin=twin,
        seeds_agree=estimates_agree(estimate, twin),
        max_abs_difference=float(np.max(np.abs(estimate.mean - twin.mean))),
        comparison=comparison,
        semigroup_diagnostic=sg_diag,
        projector_change=projector_change,
    )
