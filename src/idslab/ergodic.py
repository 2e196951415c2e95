"""Almost-additive averaging engine for step-function-valued set functions.

The central object is the eigenvalue-counting field Q -> N(., H^Q) viewed
as an L^p(I)-valued set function.  It is invariant under translations that
preserve the coloring pattern and almost-additive with a boundary term
proportional to the inner combinatorial boundary, which feeds two
approximation routes to the same limit: normalized counting functions along
a van Hove sequence, and frequency-weighted averages over window pattern
classes.  The quantitative error bound combining both routes has one form,
the boundary-term one, evaluated with constants fitted from the field
itself: K from single cells, D and b(C_M) from one calibration pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import (
    Coloring,
    FrequencyTable,
    Pattern,
    Site,
    cube,
    enumerate_window_patterns,
    frequency_tables,
    inner_boundary,
    van_hove_ratios,
)
from .lattice import boundary as two_sided_boundary
from .operators import (
    CONTINUUM,
    LATTICE,
    Facet,
    OperatorSpec,
    PrototypeLibrary,
    add_facet_dirichlet,
    discretize,
    grid_embedding,
)
from .spectral import (
    EnergyWindow,
    StepFunction,
    certified_below,
    counting_function,
    eigenvalues,
    large_band,
    linear_combination,
    lp_distance,
    lp_norm,
)
from .ssf import (
    SingularValueSeries,
    _difference_singular_values,
    _solve_once,
    facet_ssf_norm_bound,
)

@dataclass(frozen=True)
class BoundaryTerm:
    """b(Q) = d * scale * #(inner 1-boundary of Q), with b(Q) <= D #Q.

    Translation invariant by construction; vanishes relative to volume along
    van Hove sequences because the inner boundary is contained in the
    two-sided one.
    """

    scale: float
    dimension: int

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"boundary scale must be positive, got {self.scale}")

    def __call__(self, Q: frozenset[Site]) -> float:
        return self.dimension * self.scale * len(inner_boundary(Q, 1))

    @property
    def D(self) -> float:
        return self.dimension * self.scale


class AlmostAdditiveField:
    """Eigenvalue-counting set function with caching keyed by pattern class.

    evaluate(Q) returns the unnormalized counting function of the operator
    assembled on Q from the field's coloring; evaluate_pattern(P) returns
    the class function on the canonical representative's domain, and
    evaluate_patterns(Ps) those of many classes at once.  All hit the same
    cache because invariance makes the representative immaterial.
    The boundary term and the uniform bound K are calibrated on first read,
    so a field that only measures distances never pays for them.
    """

    def __init__(
        self,
        coloring: Coloring,
        library: PrototypeLibrary,
        window: EnergyWindow,
        backend: str = LATTICE,
    ):
        self.coloring = coloring
        self.library = library
        self.window = window
        self.backend = backend
        self._cache: dict[Pattern, StepFunction] = {}

    @cached_property
    def boundary(self) -> BoundaryTerm:
        scale = calibrate_boundary_scale(self.coloring, self.library, self.window, self.backend)
        return BoundaryTerm(scale=scale, dimension=self.dimension)

    @cached_property
    def K(self) -> float:
        return fit_uniform_bound(self.coloring, self.library, self.window, self.backend)

    @property
    def dimension(self) -> int:
        return self.coloring.dimension

    def evaluate(self, Q: frozenset[Site]) -> StepFunction:
        if not Q:
            raise ValueError("cannot evaluate the field on the empty set")
        return self.evaluate_pattern(self.coloring.restrict(Q))

    __call__ = evaluate

    def evaluate_pattern(self, P: Pattern) -> StepFunction:
        return self.evaluate_patterns([P])[0]

    def evaluate_patterns(self, Ps: Sequence[Pattern]) -> list[StepFunction]:
        """The class functions of Ps, in order.

        Each class not yet cached is assembled and solved once.  A class on
        a large band (spectral.large_band) is solved up to the window's top and
        certified in its own solve, which may slice the spectrum.  The counts
        below the window's top of all other classes are certified together:
        classes that share a band shape share one factorization
        (spectral.certified_below).
        """
        T = self.window.sup
        classes = [P.canonical() for P in Ps]
        new = [P for P in dict.fromkeys(classes) if P not in self._cache]
        batch, bands, eigs = [], [], []
        for P in new:
            B = discretize(OperatorSpec(
                Q=P.domain, coloring=P, library=self.library,
                backend=self.backend, resolution=self.library.resolution,
            ))
            if large_band(B):
                self._cache[P] = counting_function(eigenvalues(B, T), self.window)
            else:
                batch.append(P)
                eigs.append(eigenvalues(B))
                bands.append(B)
        for P, below in zip(batch, certified_below(bands, eigs, T)[0]):
            self._cache[P] = counting_function(below, self.window)
        return [self._cache[P] for P in classes]


# ---------------------------------------------------------------------------
# Fitted constants
# ---------------------------------------------------------------------------

def calibration_pair(
    coloring: Coloring, library: PrototypeLibrary, backend: str
) -> SingularValueSeries:
    """Singular values of the designated single-facet/single-bond pair.

    The pair lives on the two cells at the origin and at e_1 of the field's
    own coloring; continuum: Dirichlet facet between them, lattice: the
    coupling bond between them is cut.  Both operators are solved as bands,
    as ssf's facet pairs are, the second one after the first.
    """
    d = coloring.dimension
    origin = (0,) * d
    e1 = tuple(1 if i == 0 else 0 for i in range(d))
    spec = OperatorSpec(
        Q=frozenset({origin, e1}), coloring=coloring, library=library,
        backend=backend, resolution=library.resolution,
    )
    band = discretize(spec)
    _, a = _solve_once(band, math.inf)
    if backend == CONTINUUM:
        specB = add_facet_dirichlet(spec, Facet(anchor=e1, axis=0))
        band, embed = discretize(specB), grid_embedding(spec, specB)
    else:
        # the bond from the origin (row 0) to e1 (row 1) is H[1, 0] = B[0, 1]
        band[0, 1], embed = 0.0, None
    _, b = _solve_once(band, math.inf)
    mu = _difference_singular_values(a, b, embed, None)
    return SingularValueSeries(mu=mu, source=f"calibration {backend} d={d}")


def calibrate_boundary_scale(
    coloring: Coloring, library: PrototypeLibrary, window: EnergyWindow, backend: str
) -> float:
    """C-tilde from one facet computation: (exp(T) <phi, mu>)^(1/p)."""
    series = calibration_pair(coloring, library, backend)
    return facet_ssf_norm_bound(series, window)


def fit_uniform_bound(
    coloring: Coloring, library: PrototypeLibrary, window: EnergyWindow, backend: str
) -> float:
    """K: the largest L^p(I) norm of a single colored cell's counting function."""
    d = coloring.dimension
    origin = (0,) * d
    norms = []
    for sym in library.symbols:
        cell = Pattern((origin,), (sym,))
        spec = OperatorSpec(
            Q=cell.domain, coloring=cell, library=library,
            backend=backend, resolution=library.resolution,
        )
        eigs = eigenvalues(discretize(spec), ceiling=window.sup)
        norms.append(lp_norm(counting_function(eigs, window), window))
    return max(norms)


# ---------------------------------------------------------------------------
# Almost-additivity measurement
# ---------------------------------------------------------------------------

def additivity_defect(
    field: AlmostAdditiveField, partition: Sequence[frozenset[Site]]
) -> tuple[float, float]:
    """(defect, budget) for one disjoint partition.

    defect = || F(union) - sum_k F(Q_k) ||_{L^p(I)}, budget = sum_k b(Q_k);
    almost-additivity asserts defect <= budget.
    """
    if not partition:
        raise ValueError("partition must contain at least one set")
    union: set[Site] = set()
    total = 0
    for Q in partition:
        union.update(Q)
        total += len(Q)
    if len(union) != total:
        raise ValueError("partition sets must be pairwise disjoint")
    F_union = field.evaluate(frozenset(union))
    F_sum = linear_combination(
        [field.evaluate(Q) for Q in partition], [1.0] * len(partition)
    )
    defect = lp_distance(F_union, F_sum, field.window)
    budget = float(sum(field.boundary(Q) for Q in partition))
    return defect, budget


# ---------------------------------------------------------------------------
# The two approximation routes
# ---------------------------------------------------------------------------

class VanHoveError(ValueError):
    """A sequence whose boundary/volume ratios do not decay."""


@dataclass(frozen=True)
class DirectRoute:
    """Normalized counting functions along a sequence plus Cauchy diagnostics."""

    volumes: tuple[int, ...]
    normalized: tuple[StepFunction, ...]
    consecutive_distances: tuple[float, ...]


def direct_route(field: AlmostAdditiveField, patterns: Sequence[Pattern]) -> DirectRoute:
    """F(P_j)/#D(P_j) for the field's restriction P_j to each member of a van Hove
    sequence; VanHoveError unless its last 1-boundary ratio is below its first."""
    if not patterns:
        raise ValueError("need a nonempty sequence")
    ratios = van_hove_ratios([P.domain for P in patterns], 1)
    if len(ratios) > 1 and ratios[-1] >= ratios[0]:
        raise VanHoveError(
            "sequence fails the van Hove sanity check: boundary/volume ratios do not decay"
        )
    normalized = [field.evaluate_pattern(P).scale(1.0 / len(P.sites)) for P in patterns]
    dists = tuple(
        lp_distance(a, b, field.window) for a, b in zip(normalized, normalized[1:])
    )
    return DirectRoute(
        volumes=tuple(len(P.sites) for P in patterns),
        normalized=tuple(normalized),
        consecutive_distances=dists,
    )


def pattern_route(
    field: AlmostAdditiveField, table: FrequencyTable
) -> StepFunction:
    """Frequency-weighted class average: sum_P nu_P F~(P) / #C_M."""
    if not table.entries:
        raise ValueError("frequency table is empty")
    cell_volume = len(cube(table.M, field.dimension))
    classes = [P for P in sorted(table.entries, key=lambda p: p.key()) if table.entries[P]]
    if not classes:
        return StepFunction.constant(0.0)
    weights = [float(table.entries[P]) / cell_volume for P in classes]
    return linear_combination(field.evaluate_patterns(classes), weights)


# ---------------------------------------------------------------------------
# Quantitative error bounds
# ---------------------------------------------------------------------------

def error_bound_additive(
    M: int,
    boundary_ratio: float,
    freq_deviation_sum: float,
    b_of_CM: float,
    K: float,
    D: float,
    d: int,
) -> float:
    """Three-term bound in the boundary-term parameterization.

    2 b(C_M)/M^d + (K + D) * boundary_ratio + K * freq_deviation_sum
    """
    if M <= 0 or min(boundary_ratio, freq_deviation_sum, b_of_CM, K, D) < 0:
        raise ValueError("inputs must be nonnegative")
    return 2.0 * b_of_CM / M**d + (K + D) * boundary_ratio + K * freq_deviation_sum


def field_error_bound(
    field: AlmostAdditiveField,
    M: int,
    boundary_ratio: float,
    freq_deviation_sum: float,
) -> float:
    """Boundary-term bound with the field's own fitted constants."""
    b_cm = field.boundary(cube(M, field.dimension))
    return error_bound_additive(
        M=M,
        boundary_ratio=boundary_ratio,
        freq_deviation_sum=freq_deviation_sum,
        b_of_CM=b_cm,
        K=field.K,
        D=field.boundary.D,
        d=field.dimension,
    )


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

@dataclass
class ErgodicReport:
    """Everything one two-route experiment produced, ready to serialize."""

    window: EnergyWindow
    volumes: list[int]
    direct_normalized: list[StepFunction]
    consecutive_distances: list[float]
    pattern_route_values: dict[int, StepFunction]
    route_distances: list[dict]
    fitted_K: float
    fitted_D: float
    boundary_scale: float

    def summary_table(self) -> str:
        lines = ["j\tM\tdistance\tbound\tbound/distance"]
        for row in self.route_distances:
            ratio = row["bound"] / row["distance"] if row["distance"] > 0 else float("inf")
            lines.append(
                f"{row['j']}\t{row['M']}\t{row['distance']:.6g}\t{row['bound']:.6g}\t{ratio:.3g}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "window": {"lo": self.window.lo, "hi": self.window.hi, "p": self.window.p},
            "volumes": self.volumes,
            "consecutive_distances": self.consecutive_distances,
            "route_distances": self.route_distances,
            "fitted_K": self.fitted_K,
            "fitted_D": self.fitted_D,
            "boundary_scale": self.boundary_scale,
        }


def two_route_experiment(
    field: AlmostAdditiveField,
    sequence: Sequence[frozenset[Site]],
    Ms: Iterable[int],
) -> ErgodicReport:
    """Run both routes and evaluate the error bound for every (j, M) pair.

    The pattern route of each window side M in Ms averages over the field's
    frequency table (lattice.frequency_tables, estimated from the last U_j
    unless the coloring is periodic); the bound for a pair (U_j, M) uses the
    two-sided M-boundary ratio of U_j and the summed frequency deviations
    measured on U_j.  Each U_j is restricted once; the direct route, the
    deviation tallies and an estimated table read that pattern.
    """
    patterns = [field.coloring.restrict(U) for U in sequence]
    route = direct_route(field, patterns)
    tables = frequency_tables(field.coloring, Ms, patterns[-1])
    pattern_values = {M: pattern_route(field, tables[M]) for M in tables}
    rows = []
    for U, P, normalized in zip(sequence, patterns, route.normalized):
        vol = len(U)
        for M, table in sorted(tables.items()):
            ratio = len(two_sided_boundary(U, M)) / vol
            tally = enumerate_window_patterns(P, M)
            dev = 0.0  # added in order, not by sum(): Python 3.12's sum() compensates
            for W in dict.fromkeys([*tally, *table.entries]):
                dev += abs(tally.get(W, 0) / vol - float(table.entries.get(W, 0)))
            dist = lp_distance(normalized, pattern_values[M], field.window)
            bound = field_error_bound(field, M, ratio, dev)
            rows.append(
                {
                    "j": vol,
                    "M": M,
                    "distance": dist,
                    "bound": bound,
                    "boundary_ratio": ratio,
                    "freq_deviation_sum": dev,
                }
            )
    return ErgodicReport(
        window=field.window,
        volumes=list(route.volumes),
        direct_normalized=list(route.normalized),
        consecutive_distances=list(route.consecutive_distances),
        pattern_route_values=pattern_values,
        route_distances=rows,
        fitted_K=field.K,
        fitted_D=field.boundary.D,
        boundary_scale=field.boundary.scale,
    )
