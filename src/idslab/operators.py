"""Finite-volume Hamiltonians on colored cell complexes.

Continuum backend: second-order central finite differences on the grid of
spacing h = 1/n inside W_Q, Dirichlet conditions by deleting boundary and
removed-facet grid points, magnetic coupling by Peierls link phases.
Lattice backend: graph Laplacian on Q with the cell-averaged potential,
used as a fast independent oracle for the averaging engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lattice import Coloring, Pattern, Site, dimension_of

CONTINUUM = "continuum"
LATTICE = "lattice"


@dataclass(frozen=True)
class Prototype:
    """Per-cell potential samples on the half-open unit-cell grid.

    v holds n^d electric-potential samples; a holds one n^d array per axis
    with vector-potential samples.  Supports live inside the unit cell by
    construction; all samples and the cell mean of v must be finite (bounded
    potentials only).
    """

    symbol: str
    v: np.ndarray
    a: tuple[np.ndarray, ...]

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        a = tuple(np.asarray(ai, dtype=float) for ai in self.a)
        if len(a) != v.ndim:
            raise ValueError("need one vector-potential component per axis")
        for ai in a:
            if ai.shape != v.shape:
                raise ValueError("vector-potential samples must match v's grid")
        if not np.all(np.isfinite(v)) or any(not np.all(np.isfinite(ai)) for ai in a):
            raise ValueError(f"prototype {self.symbol!r} has non-finite samples")
        if v.ndim == 0 or len(set(v.shape)) > 1:
            raise ValueError("unit-cell grid must be a cube with one or more axes")
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(v)) if v.size else math.nan
        if not math.isfinite(mean):
            raise ValueError(f"prototype {self.symbol!r} has a non-finite cell mean")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "a", a)
        # not a field: read once per site during assembly
        object.__setattr__(self, "_cell_mean_v", mean)

    @property
    def dimension(self) -> int:
        return self.v.ndim

    @property
    def resolution(self) -> int:
        return self.v.shape[0]

    @property
    def cell_mean_v(self) -> float:
        return self._cell_mean_v

    @property
    def has_magnetic(self) -> bool:
        return any(np.any(ai != 0) for ai in self.a)

    @staticmethod
    def constant(symbol: str, value: float, n: int, d: int, a_value: Sequence[float] | None = None) -> "Prototype":
        shape = (n,) * d
        a_value = a_value if a_value is not None else [0.0] * d
        return Prototype(
            symbol,
            np.full(shape, float(value)),
            tuple(np.full(shape, float(av)) for av in a_value),
        )


class PrototypeLibrary:
    """Registry mapping alphabet symbols to prototypes of one shared grid."""

    def __init__(self, prototypes: Iterable[Prototype]):
        self._by_symbol: dict[str, Prototype] = {}
        for p in prototypes:
            if p.symbol in self._by_symbol:
                raise ValueError(f"duplicate prototype symbol {p.symbol!r}")
            self._by_symbol[p.symbol] = p
        if not self._by_symbol:
            raise ValueError("prototype library is empty")
        dims = {p.dimension for p in self._by_symbol.values()}
        res = {p.resolution for p in self._by_symbol.values()}
        if len(dims) > 1 or len(res) > 1:
            raise ValueError("all prototypes must share dimension and resolution")

    @property
    def dimension(self) -> int:
        return next(iter(self._by_symbol.values())).dimension

    @property
    def resolution(self) -> int:
        return next(iter(self._by_symbol.values())).resolution

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_symbol))

    @property
    def has_magnetic(self) -> bool:
        return any(p.has_magnetic for p in self._by_symbol.values())

    def __getitem__(self, symbol: str) -> Prototype:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise KeyError(f"no prototype registered for symbol {symbol!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    def codes(self, symbols: Iterable[str]) -> np.ndarray:
        """Each symbol's code, its index in self.symbols (a KeyError as self[symbol] raises it)."""
        index = {s: k for k, s in enumerate(self.symbols)}
        return np.array([index[self[s].symbol] for s in symbols], dtype=np.intp)

    @staticmethod
    def constant_potentials(values: Mapping[str, float], n: int, d: int) -> "PrototypeLibrary":
        return PrototypeLibrary(
            Prototype.constant(sym, val, n, d) for sym, val in values.items()
        )

    @staticmethod
    def zero(alphabet: Sequence[str], n: int, d: int) -> "PrototypeLibrary":
        return PrototypeLibrary.constant_potentials({s: 0.0 for s in alphabet}, n, d)

    @staticmethod
    def from_json(text: str) -> "PrototypeLibrary":
        """Load {symbol: {"v": nested array, "a": [nested arrays]}} JSON."""
        obj = json.loads(text)
        protos = []
        for sym, entry in obj.items():
            v = np.asarray(entry["v"], dtype=float)
            a = entry.get("a")
            if a is None:
                a = [np.zeros_like(v) for _ in range(v.ndim)]
            protos.append(Prototype(sym, v, tuple(np.asarray(ai, dtype=float) for ai in a)))
        return PrototypeLibrary(protos)


@dataclass(frozen=True)
class Facet:
    """Unit (d-1)-square {y : y_axis = anchor_axis, y_i in [anchor_i, anchor_i + 1]}."""

    anchor: Site
    axis: int

    def __post_init__(self):
        if not 0 <= self.axis < len(self.anchor):
            raise ValueError(f"facet axis {self.axis} outside dimension {len(self.anchor)}")

    def adjacent_cells(self) -> tuple[Site, Site]:
        below = tuple(
            c - (1 if i == self.axis else 0) for i, c in enumerate(self.anchor)
        )
        return below, self.anchor


@dataclass(frozen=True)
class OperatorSpec:
    """Everything needed to assemble one finite-volume Hamiltonian.

    Only coloring.colors(cells) is read, for the cells of Q, so a Pattern on
    the domain Q serves as the coloring as well.
    """

    Q: frozenset[Site]
    coloring: Coloring | Pattern
    library: PrototypeLibrary
    backend: str = CONTINUUM
    resolution: int = 8
    removed_facets: tuple[Facet, ...] = field(default=())

    def __post_init__(self):
        if not self.Q:
            raise ValueError("Q must be nonempty")
        if self.backend not in (CONTINUUM, LATTICE):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == CONTINUUM:
            if self.resolution < 2:
                raise ValueError("continuum backend needs resolution >= 2")
            if self.library.resolution != self.resolution:
                raise ValueError(
                    f"prototype grid ({self.library.resolution}) does not match "
                    f"spec resolution ({self.resolution})"
                )
        d = dimension_of(self.Q)
        if self.library.dimension != d:
            raise ValueError("prototype dimension does not match Q")
        if self.backend == LATTICE and self.removed_facets:
            raise ValueError("removed facets apply to the continuum backend only")
        for f in self.removed_facets:
            if not facet_within(f, self.Q):
                raise ValueError(f"facet {f} lies outside W_Q")

    @property
    def dimension(self) -> int:
        return dimension_of(self.Q)


def facet_within(f: Facet, Q: frozenset[Site]) -> bool:
    """A facet lies within W_Q iff it is a face of at least one cell of Q."""
    below, above = f.adjacent_cells()
    return below in Q or above in Q


def add_facet_dirichlet(spec: OperatorSpec, S: Facet) -> OperatorSpec:
    """Spec with an extra Dirichlet facet (its grid points get deleted)."""
    if not facet_within(S, spec.Q):
        raise ValueError(f"facet {S} lies outside W_Q")
    return replace(spec, removed_facets=spec.removed_facets + (S,))


def _links(coords: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis j, the row pairs (i, k) with coords[k] = coords[i] + e_j.

    coords holds distinct points in lexicographic order.  Their row-major
    keys over the bounding box, padded by one layer above so that a +e_j
    neighbor never wraps, are then ascending, and searchsorted finds every
    neighbor.
    """
    n, d = coords.shape
    lo = coords.min(axis=0)
    shape = (coords.max(axis=0) - lo + 2).tolist()
    keys = np.ravel_multi_index(tuple((coords - lo).T), shape)
    links = []
    stride = 1
    for j in reversed(range(d)):
        target = keys + stride
        pos = np.minimum(np.searchsorted(keys, target), n - 1)
        linked = keys[pos] == target
        links.append((np.flatnonzero(linked), pos[linked]))
        stride *= shape[j]
    return links[::-1]


# ---------------------------------------------------------------------------
# Continuum finite-difference backend
# ---------------------------------------------------------------------------

def _interior_grid_points(Q: frozenset[Site], n: int) -> np.ndarray:
    """Grid indices interior to W_Q, lexicographically sorted, one row each.

    A point p is interior iff all 2^d cells floor((p - s)/n), s in {0,1}^d,
    touching it are in Q.  Its owner cell floor(p/n) is then in Q, so the
    candidates are the n^d points each cell of Q owns.
    """
    cells = np.array(sorted(Q), dtype=np.int64)
    d = cells.shape[1]
    # cells of Q marked over their bounding box, padded by one empty layer
    lo = cells.min(axis=0) - 1
    marked = np.zeros(tuple(cells.max(axis=0) - lo + 2), dtype=bool)
    marked[tuple((cells - lo).T)] = True
    owned = np.indices((n,) * d).reshape(d, -1).T
    pts = (cells[:, None, :] * n + owned).reshape(-1, d)
    interior = np.ones(len(pts), dtype=bool)
    for s in product((0, 1), repeat=d):
        interior &= marked[tuple(((pts - s) // n - lo).T)]
    pts = pts[interior]
    return pts[np.lexsort(pts.T[::-1])]


def _off_facets(pts: np.ndarray, facets: Iterable[Facet], n: int) -> np.ndarray:
    """Mask of the grid points (rows of pts) that lie on none of the closed facets."""
    keep = np.ones(len(pts), dtype=bool)
    for f in facets:
        # the closed facet: p_axis = anchor_axis n, anchor_i n <= p_i <= (anchor_i + 1) n
        corner = np.array(f.anchor) * n
        on = (pts >= corner) & (pts <= corner + n)
        on[:, f.axis] = pts[:, f.axis] == corner[f.axis]
        keep &= ~on.all(axis=1)
    return keep


def _grid_coords(spec: OperatorSpec) -> np.ndarray:
    """grid_points(spec) as an integer array, one row per point."""
    pts = _interior_grid_points(spec.Q, spec.resolution)
    return pts[_off_facets(pts, spec.removed_facets, spec.resolution)]


def grid_points(spec: OperatorSpec) -> list[Site]:
    """Index set the assembled matrix acts on (sorted, ready for bookkeeping)."""
    return list(map(tuple, _grid_coords(spec).tolist()))


def matrix_dimension(sides: Sequence[int], backend: str, resolution: int) -> int:
    """Dimension of discretize on a box of the given cell sides, without listing it.

    Lattice: one site per cell.  Continuum: the n*s - 1 interior grid points
    of each axis.
    """
    if backend == LATTICE:
        return math.prod(sides)
    return math.prod(resolution * s - 1 for s in sides)


def grid_embedding(spec: OperatorSpec, finer: OperatorSpec) -> np.ndarray:
    """Positions in grid_points(spec) of grid_points(finer), where finer is
    spec with additional Dirichlet facets (its grid is spec's minus their points)."""
    pts = _grid_coords(spec)
    return np.flatnonzero(_off_facets(pts, finer.removed_facets, spec.resolution))


def _band_width(links: list) -> int:
    """w + 1 for w the largest offset k - i of the links (i, k)."""
    return 1 + max((int(np.max(k - i, initial=0)) for i, k in links), default=0)


def _band(diagonal: np.ndarray, links: list, weights: list) -> np.ndarray:
    """The lower band of the Hermitian H with the given diagonal and H[i, k] =
    weights[j] on the links (i, k) of axis j: B[j, k] = H[j + k, j], of shape
    (N, w + 1) for w the largest offset k - i.  B.T is LAPACK's band storage.
    Leading axes of the diagonal and of the weights are leading axes of B.
    """
    shape = (*np.shape(diagonal), _band_width(links))
    B = np.zeros(shape, dtype=np.result_type(diagonal, *weights))
    B[..., 0] = diagonal
    for (i, k), weight in zip(links, weights):
        B[..., i, k - i] = np.conjugate(weight)
    return B


def _cells(spec: OperatorSpec) -> tuple[list[Site], np.ndarray, np.ndarray, list]:
    """The geometry of spec's Hamiltonian, read from its Q, backend, resolution
    and facets, never its coloring: the cells owning its points (sorted),
    each point's index among them and place in that cell, and the links
    (_links).  Lattice: one point per cell.  Continuum: the grid points
    (grid_points), each owned half-open by its cell p // n, at p % n.
    """
    if spec.backend == LATTICE:
        cells = sorted(spec.Q)
        coords = np.array(cells, dtype=np.int64)
        return cells, np.arange(len(coords)), np.zeros_like(coords), _links(coords)
    coords = _grid_coords(spec)
    if not len(coords):
        raise ValueError("degenerate geometry: no interior grid points remain")
    owner, local = np.divmod(coords, spec.resolution)
    cells, which = np.unique(owner, axis=0, return_inverse=True)
    return list(map(tuple, cells.tolist())), which.reshape(-1), local, _links(coords)


def coded_bands(spec: OperatorSpec, geometry: tuple, codes: np.ndarray) -> np.ndarray:
    """spec's Hamiltonian on the geometry (_cells) as its lower band (see _band),
    cell c colored library.symbols[codes[..., c]]; codes of shape (S, C) give
    the (S, N, w + 1) bands of S colorings.  Continuum: (2d/h^2 + V) on the
    diagonal, -exp(-i h A_j)/h^2 on links.  Lattice: 2d + vbar, and -1.
    Hermitian by construction; the solvers that consume it check its band.
    """
    _, owner, local, links = geometry
    d = local.shape[1]
    protos = [spec.library[s] for s in spec.library.symbols]
    point_codes = codes[..., owner]
    if spec.backend == LATTICE:
        levels = np.array([2.0 * d + p.cell_mean_v for p in protos])
        return _band(levels[point_codes], links, [-1.0] * d)
    # half-open ownership: grid point p samples its owner cell p // n at p % n
    at = (point_codes, *local.T)
    h = 1.0 / spec.resolution
    inv_h2 = 1.0 / h**2
    weights = [-inv_h2] * d
    if spec.library.has_magnetic:
        # Peierls phase: A_j sampled at the link tail, which shares
        # its half-open owner cell with the link midpoint.
        a = [np.stack([p.a[j] for p in protos])[at][..., i] for j, (i, _) in enumerate(links)]
        weights = [-inv_h2 * np.exp(-1j * h * aj) for aj in a]
    return _band(2.0 * d * inv_h2 + np.stack([p.v for p in protos])[at], links, weights)


def discretize(spec: OperatorSpec) -> np.ndarray:
    """The Hamiltonian of spec as its lower band: the geometry (_cells) filled
    (coded_bands) under spec's coloring.  Continuum: it acts on the interior
    grid points minus removed-facet points.  Lattice: see lattice_model.
    """
    geometry = _cells(spec)
    return coded_bands(spec, geometry, spec.library.codes(spec.coloring.colors(geometry[0])))


# ---------------------------------------------------------------------------
# Lattice (tight-binding) backend
# ---------------------------------------------------------------------------

def lattice_model(C: Coloring | Pattern, Q: frozenset[Site], library: PrototypeLibrary) -> np.ndarray:
    """Graph Laplacian on Q with site potential = cell mean of the prototype, as a dense matrix.

    Diagonal 2d + vbar(C(x)); off-diagonal -1 between nearest neighbors in
    Q.  Missing neighbors contribute nothing (lattice Dirichlet convention).
    Rows follow the lexicographic order of Q.  The band is discretize's.
    """
    B = discretize(OperatorSpec(Q=Q, coloring=C, library=library, backend=LATTICE))
    H = np.zeros((len(B), len(B)))
    for k, diagonal in enumerate(B.T):
        np.fill_diagonal(H[k:], diagonal[: len(B) - k])
        np.fill_diagonal(H[:, k:], diagonal[: len(B) - k])
    return H


def spec_digest(spec: OperatorSpec) -> str:
    """Short deterministic digest identifying an operator spec in reports."""
    import hashlib

    parts = [
        spec.backend,
        str(spec.resolution),
        repr(sorted(spec.Q)),
        repr(spec.coloring),
        repr([(f.anchor, f.axis) for f in spec.removed_facets]),
        ",".join(spec.library.symbols),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
