"""Eigenvalue extraction, counting functions, and exact L^p step-function arithmetic.

Counting functions and all differences handled by the averaging engine are
genuinely piecewise constant, so L^p(I) quantities are computed exactly by
breakpoint merging, never by quadrature.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class EnergyWindow:
    """Closed finite energy interval I with an integrability exponent p."""

    lo: float
    hi: float
    p: float = 2.0

    def __post_init__(self):
        if not -np.inf < self.lo < self.hi < np.inf:
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")
        if not 1 <= self.p < np.inf:
            raise ValueError(f"need 1 <= p < inf, got {self.p}")

    @property
    def sup(self) -> float:
        return self.hi


class StepFunction:
    """Right-continuous piecewise-constant function with finitely many jumps.

    values[k] is the value on [breakpoints[k-1], breakpoints[k]); values[0]
    is the base value on (-inf, breakpoints[0]).  Instances are immutable.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        va = np.asarray(values, dtype=float)
        if bp.ndim != 1 or va.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d")
        if len(va) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if len(bp) and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(va))):
            raise ValueError("breakpoints and values must be finite")
        bp.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", va)

    def __setattr__(self, *a):
        raise AttributeError("StepFunction is immutable")

    def __repr__(self):
        return f"StepFunction(breakpoints={self.breakpoints.tolist()}, values={self.values.tolist()})"

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.breakpoints, other.breakpoints) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.values.tobytes()))

    @staticmethod
    def constant(value: float) -> "StepFunction":
        return StepFunction([], [value])

    def __call__(self, x) -> np.ndarray | float:
        idx = np.searchsorted(self.breakpoints, x, side="right")
        return self.values[idx]

    def scale(self, factor: float) -> "StepFunction":
        if not factor > 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return StepFunction(self.breakpoints, self.values * factor)

    def coalesce(self, tol: float) -> "StepFunction":
        """Merge breakpoint clusters closer than tol into single jumps.

        Values on the dropped sub-tol segments are discarded; outside the
        clusters the function is unchanged.  Used to remove measure-zero
        spikes where analytically equal jump locations split at machine
        precision.
        """
        bp = self.breakpoints
        if len(bp) < 2:
            return self
        keep_bp: list[float] = [float(bp[0])]
        keep_val: list[float] = [float(self.values[0])]
        cluster_end_value = float(self.values[1])
        for i in range(1, len(bp)):
            if bp[i] - keep_bp[-1] <= tol:
                cluster_end_value = float(self.values[i + 1])
            else:
                keep_val.append(cluster_end_value)
                keep_bp.append(float(bp[i]))
                cluster_end_value = float(self.values[i + 1])
        keep_val.append(cluster_end_value)
        return StepFunction(keep_bp, keep_val)

    def is_counting_like(self) -> bool:
        """Nondecreasing, nonnegative, integer-valued: a counting function."""
        v = self.values
        return (
            bool(np.all(v >= 0))
            and bool(np.all(np.diff(v) >= 0))
            and bool(np.all(np.abs(v - np.round(v)) < 1e-9))
        )

    def to_csv(self, window: "EnergyWindow | None" = None, scale: float | None = None) -> str:
        """CSV serialization: metadata header, then (breakpoint, value) rows.

        The base value is written with breakpoint label '-inf'.
        """
        buf = io.StringIO()
        meta = []
        if window is not None:
            meta.append(f"interval={window.lo!r}:{window.hi!r}")
            meta.append(f"p={window.p!r}")
        if scale is not None:
            meta.append(f"scale={scale!r}")
        buf.write("# " + " ".join(meta) + "\n" if meta else "#\n")
        buf.write("breakpoint,value\n")
        buf.write(f"-inf,{float(self.values[0])!r}\n")
        for b, v in zip(self.breakpoints, self.values[1:]):
            buf.write(f"{float(b)!r},{float(v)!r}\n")
        return buf.getvalue()


def counting_function(eigs: Sequence[float], window: EnergyWindow) -> StepFunction:
    """lambda -> #{k : E_k <= lambda} restricted to the window.

    Jumps only at eigenvalues inside [lo, hi]; the base value counts the
    eigenvalues strictly below lo (needed by spectral-shift differences).
    """
    e = np.sort(np.asarray(eigs, dtype=float), kind="stable")
    if len(e) and not np.all(np.isfinite(e)):
        raise ValueError("eigenvalues must be finite")
    base = int(np.searchsorted(e, window.lo, side="left"))
    inside = e[(e >= window.lo) & (e <= window.hi)]
    bp, mult = np.unique(inside, return_counts=True)
    values = base + np.concatenate([[0], np.cumsum(mult)])
    out = StepFunction(bp, values.astype(float))
    if not out.is_counting_like():
        raise ValueError("constructed counting function violates its invariants")
    return out


def merge_breakpoints(functions: Sequence[StepFunction]) -> np.ndarray:
    if not functions:
        return np.asarray([], dtype=float)
    return np.unique(np.concatenate([f.breakpoints for f in functions]))


def _segment_values(f: StepFunction, merged: np.ndarray) -> np.ndarray:
    """Values of f on the len(merged)+1 segments cut by the merged breakpoints."""
    if len(merged) == 0:
        return f.values.copy()
    idx = np.searchsorted(f.breakpoints, merged, side="right")
    return f.values[np.concatenate([[0], idx])]


def linear_combination(
    functions: Sequence[StepFunction], coefficients: Sequence[float]
) -> StepFunction:
    """Exact pointwise sum(c_i * f_i) as a step function."""
    if len(functions) != len(coefficients):
        raise ValueError("functions and coefficients must be parallel")
    if not functions:
        return StepFunction.constant(0.0)
    merged = merge_breakpoints(functions)
    total = np.zeros(len(merged) + 1)
    for f, c in zip(functions, coefficients):
        total += c * _segment_values(f, merged)
    return StepFunction(merged, total)


def subtract(f: StepFunction, g: StepFunction) -> StepFunction:
    return linear_combination([f, g], [1.0, -1.0])


def _segments_in_window(
    breakpoints: np.ndarray, window: EnergyWindow
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment edges and left endpoints covering [lo, hi] split at breakpoints."""
    inner = breakpoints[(breakpoints > window.lo) & (breakpoints < window.hi)]
    edges = np.concatenate([[window.lo], inner, [window.hi]])
    lengths = np.diff(edges)
    lefts = edges[:-1]
    return edges, lefts, lengths


def integrate_transform(
    f: StepFunction, window: EnergyWindow, transform: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Exact integral over the window of transform(f(lambda)) d lambda."""
    _, lefts, lengths = _segments_in_window(f.breakpoints, window)
    vals = f(lefts)
    return float(np.sum(transform(vals) * lengths))


def integrate_product(f: StepFunction, g: StepFunction, window: EnergyWindow) -> float:
    """Exact integral over the window of f(lambda) g(lambda) d lambda."""
    merged = merge_breakpoints([f, g])
    _, lefts, lengths = _segments_in_window(merged, window)
    return float(np.sum(f(lefts) * g(lefts) * lengths))


def lp_distance(f: StepFunction, g: StepFunction, window: EnergyWindow) -> float:
    """Exact L^p(I) distance, computed by breakpoint merging; where |f - g|^p under-
    or overflows (large p), m times that of (f - g) / m, m = max |f - g| on I."""
    diff = subtract(f, g)
    p = window.p
    with np.errstate(over="ignore"):
        total = integrate_transform(diff, window, lambda v: np.abs(v) ** p)
    if np.finfo(float).tiny <= total < np.inf:
        return float(total ** (1.0 / p))
    _, lefts, _ = _segments_in_window(diff.breakpoints, window)
    peak = float(np.max(np.abs(diff(lefts)))) or 1.0  # f = g on I: any m gives 0
    return peak * integrate_transform(diff, window, lambda v: (np.abs(v) / peak) ** p) ** (1.0 / p)


def lp_norm(f: StepFunction, window: EnergyWindow) -> float:
    return lp_distance(f, StepFunction.constant(0.0), window)


# ---------------------------------------------------------------------------
# Eigenvalue backends
# ---------------------------------------------------------------------------

HERMITIAN_RTOL = 1e-12
# a computed eigenvalue this close to the ceiling (relative to max|H|) may
# fall on either side of it; the count is then bracketed by inertia counts
CEILING_TIE_RTOL = 1e-9
# LDL pivots of H - T*I smaller than this (relative to max(1, |T|)) are not
# trusted to carry the sign of the inertia
PIVOT_RTOL = 1e-10
# Spectrum slicing replaces the O(N^2 * width) banded solve of a finite
# ceiling where it was measured faster (BENCH_slicing.json): on bands with
# N * width >= SLICE_MIN_WORK and at most SLICE_MAX_SHARE * N * width
# eigenvalues below the ceiling
SLICE_MIN_WORK = 1 << 14
SLICE_MAX_SHARE = 2e-3
# eigenvalues per slice, and Ritz values sought beyond a slice's count
SLICE_SIZE = 200
SLICE_MARGIN = 5
# an inner slice edge whose count is not trusted (a pivot there is too small,
# as at round energies of integer lattice potentials) moves up once by this
# share of the slice width
SLICE_EDGE_SHIFT = 0.1
# tridiagonal_masses corrects the mass m of a twisted vector to first order,
# by dm * c, and trusts the correction while the second-order term it
# neglects, about (dm * c)^2 / m, is at most MASS_ATOL
MASS_ATOL = 1e-14


class NumericalFailure(RuntimeError):
    """A named invariant failed during an experiment run."""


def assert_hermitian(H: np.ndarray) -> None:
    # compared in row blocks so that no N x N temporary is allocated
    n = H.shape[0]
    step = max(1, (1 << 20) // max(n, 1))
    scale = 1.0
    dev = 0.0
    for i in range(0, n, step):
        rows = H[i : i + step]
        peak = float(np.max(np.abs(rows)))  # NaN compares False below, so check it here
        if not np.isfinite(peak):
            raise ValueError("matrix entries must be finite")
        scale = max(scale, peak)
        dev = max(dev, float(np.max(np.abs(rows - H[:, i : i + step].conj().T))))
    if dev > HERMITIAN_RTOL * scale:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev}")


def lower_band(H: np.ndarray) -> np.ndarray:
    """The band B of a dense Hermitian H, B[j, k] = H[j + k, j], of shape (N, w + 1).

    B.T is LAPACK's lower band storage.  The band is the narrowest one whose
    diagonals hold every nonzero of H: diagonals are kept, symmetrically
    about the main one, until their nonzeros add up to np.count_nonzero(H).
    H is checked by assert_hermitian first.
    """
    assert_hermitian(H)
    n, nnz = H.shape[0], np.count_nonzero(H)
    lower = [np.diagonal(H)]
    kept = np.count_nonzero(lower[0])
    while kept < nnz:
        k = len(lower)
        lower.append(np.diagonal(H, -k))
        kept += np.count_nonzero(lower[-1]) + np.count_nonzero(np.diagonal(H, k))
    B = np.zeros((n, len(lower)), dtype=H.dtype)
    for k, lo in enumerate(lower):
        B[: n - k, k] = lo
    return B


def _checked(B: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """B.T, which is LAPACK's lower band storage, and max(1, max|B|), for a band
    B[j, k] = H[j + k, j] of shape (N, w + 1); for a stack of bands of shape
    (m, N, w + 1), each band's storage and scale.  ValueError unless the
    entries are finite and each diagonal is real, to the tolerance of
    assert_hermitian.
    """
    B = np.asarray(B)
    if B.ndim not in (2, 3) or 0 in B.shape:
        raise ValueError(f"expected an (N, w + 1) band, got shape {B.shape}")
    peak = np.abs(B).max(axis=(-2, -1))  # NaN propagates, so check it here
    if not np.isfinite(peak).all():
        raise ValueError("band entries must be finite")
    scale = np.maximum(1.0, peak)
    if np.iscomplexobj(B) and np.any(np.max(np.abs(B[..., 0].imag), axis=-1) > HERMITIAN_RTOL * scale):
        raise ValueError("band diagonal must be real")
    return np.swapaxes(B, -2, -1), scale


def _shifted_blocks(ab: np.ndarray, shifts: np.ndarray):
    """The sparse block-diagonal matrix (CSC) of the band matrices ab[b] - shifts[b]*I."""
    import scipy.sparse  # imported here: only certified counts need it

    k, width, n = ab.shape
    # diagonal -j of the block-diagonal matrix: the zeros at the end of each
    # band row (j + k >= N) fill the gaps between blocks, and
    # the sparse matrix drops them; all-zero diagonals are left out
    offsets = [j for j in range(1, width) if np.any(ab[:, j])]
    lower = [(ab[:, 0].real - np.asarray(shifts, dtype=float)[:, None]).reshape(-1)]
    lower += [ab[:, j].reshape(-1)[: k * n - j] for j in offsets]
    return scipy.sparse.diags(
        lower + [lo.conj() for lo in lower[1:]],
        [0, *(-j for j in offsets), *offsets],
        format="csc",
    )


def _sparse_inertia(ab: np.ndarray, shifts: Sequence[float]) -> list[int | None]:
    """#{eigenvalues <= shifts[b]} of each band matrix ab[b] of a stack, or None.

    ab holds k lower bands of one shape.  The block-diagonal matrix of the
    blocks ab[b] - shifts[b]*I is factored once by a symmetric-mode sparse
    LU.  Elimination never mixes blocks, so on each block whose row and
    column orderings agree the factor is an LDL^H factorization, and its
    negative pivots count that block's eigenvalues below its shift.  A
    block's count is None when its orderings disagree or when one of its
    pivots is too small to trust its sign.  An exactly singular factor is
    split in halves until the singular block stands alone, with count None.
    """
    import scipy.sparse.linalg  # imported here: only certified counts need it

    k, _, n = ab.shape
    shifts = np.asarray(shifts, dtype=float)
    try:
        lu = scipy.sparse.linalg.splu(
            _shifted_blocks(ab, shifts), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular: a shift is an eigenvalue of a block
        if k == 1:
            return [None]
        half = k // 2
        return _sparse_inertia(ab[:half], shifts[:half]) + _sparse_inertia(ab[half:], shifts[half:])
    # perm_c[i] is the pivot position of row and column i
    pivots = lu.U.diagonal()[lu.perm_c].reshape(k, n)
    trusted = (lu.perm_r == lu.perm_c).reshape(k, n).all(axis=1) & (
        np.min(np.abs(pivots), axis=1) >= PIVOT_RTOL * np.maximum(1.0, np.abs(shifts))
    )
    counts = np.count_nonzero(pivots.real < 0, axis=1)
    return [int(c) if t else None for c, t in zip(counts, trusted)]


def _untrusted_count(ab: np.ndarray, T: float, delta: float) -> int:
    """#{eigenvalues <= T} of the band matrix ab when its sparse count at T is not trusted.

    Equal trusted sparse counts at T - delta and T + delta certify it: no
    eigenvalue lies in (T - delta, T + delta].  Otherwise the dense
    Bunch-Kaufman count_below_by_inertia decides.
    """
    [lo] = _sparse_inertia(ab[None], [T - delta])
    if lo is not None and [lo] == _sparse_inertia(ab[None], [T + delta]):
        return lo
    return count_below_by_inertia(_shifted_blocks(ab[None], [0.0]).toarray(), T)


def large_band(B: np.ndarray) -> bool:
    """Whether eigenvalues(B, ceiling) may slice the band B, certifying its own count.

    Callers that certify many small bands together (certified_below) pass
    the ceiling only for large bands.
    """
    return B.size >= SLICE_MIN_WORK


def _gershgorin_floor(ab: np.ndarray) -> float:
    """A lower bound of the spectrum of the Hermitian band matrix ab (Gershgorin discs)."""
    width, n = ab.shape
    radius = np.zeros(n)
    for k in range(1, width):
        offdiag = np.abs(ab[k, : n - k])  # H[j + k, j] for row j + k, its mirror for row j
        radius[k:] += offdiag
        radius[: n - k] += offdiag
    return float(np.min(ab[0].real - radius))


def _sliced(band: tuple[np.ndarray, float], T: float, count: int) -> np.ndarray | None:
    """The count eigenvalues <= T of a band matrix by spectrum slicing, or None.

    (g, T] is cut into equal slices for about SLICE_SIZE eigenvalues each,
    g a Gershgorin bound below the spectrum, and the inner edges are
    counted by one _sparse_inertia call.  Edges whose counts are not
    trusted move up by SLICE_EDGE_SHIFT of the slice width and are counted
    once more; None if one of them is still not trusted.  Each nonempty slice is solved by
    shift-invert Lanczos (ARPACK) about its midpoint, with a symmetric-mode
    sparse LU as the inverse and a fixed start vector.  A slice is accepted
    only when as many Ritz values lie in it as its inertia counts; it gets a
    second try with more Ritz values.  None when a slice still fails, a Ritz
    value on the wrong side of a slice edge included.
    """
    import scipy.sparse.linalg  # imported here: only sliced solves need it

    ab, scale = band
    width, n = ab.shape
    if count == 0:
        return np.zeros(0)
    delta = CEILING_TIE_RTOL * scale
    parts = -(-count // SLICE_SIZE)
    edges = np.linspace(_gershgorin_floor(ab) - delta, T, parts + 1)
    stack = np.broadcast_to(ab, (parts - 1, width, n))
    counts = [0, *(_sparse_inertia(stack, edges[1:-1]) if parts > 1 else []), count]
    moved = [i for i, c in enumerate(counts) if c is None]
    if moved:
        edges[moved] += SLICE_EDGE_SHIFT * (edges[1] - edges[0])
        for i, c in zip(moved, _sparse_inertia(stack[: len(moved)], edges[moved])):
            counts[i] = c
    if None in counts:
        return None
    H = _shifted_blocks(ab[None], [0.0])
    v0 = np.random.default_rng(0).standard_normal(n).astype(ab.dtype)  # reruns repeat bit for bit
    found: list[np.ndarray] = []
    for lo, hi, m in zip(edges, edges[1:], np.diff(counts)):
        if m == 0:
            continue
        mid = (lo + hi) / 2
        try:
            lu = scipy.sparse.linalg.splu(
                _shifted_blocks(ab[None], [mid]), permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True},
            )
        except RuntimeError:  # mid is an eigenvalue
            return None
        inverse = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=ab.dtype)
        for k in (m + SLICE_MARGIN, 2 * m + SLICE_MARGIN):
            if k > n - 2:
                return None
            try:
                w = np.sort(scipy.sparse.linalg.eigsh(
                    H, k=k, sigma=mid, OPinv=inverse, tol=0, v0=v0, return_eigenvectors=False,
                ))
            except scipy.sparse.linalg.ArpackError:
                continue
            inside = w[(w > lo) & (w <= hi)]
            if len(inside) == m:
                found.append(inside)
                break
        else:
            return None
    return np.concatenate(found)


def _lapack(name: str, matrix: str, *args, **kwargs) -> list:
    """The outputs of the LAPACK routine name but info; a nonzero info raises
    NumericalFailure naming the routine and matrix (say "a matrix of order 5")."""
    *out, info = getattr(scipy.linalg.lapack, name)(*args, **kwargs)
    if info != 0:
        raise NumericalFailure(f"LAPACK {name} failed with info={info} on {matrix}")
    return out


def eigenvalues(B: np.ndarray, ceiling: float = np.inf) -> np.ndarray:
    """All eigenvalues <= ceiling of the band B, sorted ascending with multiplicity;
    for a stack of bands of shape (m, N, w + 1), the (m, N) array of all eigenvalues.

    B is checked as _checked does, a stack at once.  A stack takes no finite
    ceiling (ValueError).  A finite ceiling certifies the count
    as certified_below does.  On a large band (large_band) the ceiling's count comes first,
    from one sparse factorization; when it is trusted and at most
    SLICE_MAX_SHARE * N * (w + 1), the eigenvalues come from spectrum
    slicing (_sliced).  Otherwise, or when a slice fails, LAPACK ?sbevd/?hbevd
    gives them, band by band (a nonzero info raises NumericalFailure), and certified_below
    applies its tie rule when the ceiling's count was not trusted.
    """
    ab, _ = band = _checked(B)
    T = float(ceiling)
    if ab.ndim == 3 and T != np.inf:
        raise ValueError(f"a stack of bands takes no finite ceiling, got {T}")
    count = None
    if np.isfinite(T) and large_band(ab):
        [count] = _sparse_inertia(ab[None], [T])  # None at a tie: the banded solve decides
        if count is not None and count <= SLICE_MAX_SHARE * ab.size:
            sliced = _sliced(band, T, count)
            if sliced is not None:
                return sliced
    name = "zhbevd" if np.iscomplexobj(ab) else "dsbevd"
    eigs = [_lapack(name, f"a band matrix of order {a.shape[1]}", a, compute_v=0, lower=1, overwrite_ab=0)[0]
            for a in (ab if ab.ndim == 3 else [ab])]
    if ab.ndim == 3 or T == np.inf:
        return np.array(eigs) if ab.ndim == 3 else eigs[0]
    [eigs] = eigs
    if count is not None and np.count_nonzero(eigs <= T) == count:
        return eigs[eigs <= T]  # certified by the count that chose the solver
    return certified_below([B], [eigs], T)[0][0]


def certified_below(
    bands: Sequence[np.ndarray], eigs: Sequence[np.ndarray], ceiling: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """For each matrix, its computed eigenvalues that are <= ceiling, in eigs' order,
    and the array of its tie widths delta_i.

    bands[i] is the band of H_i, checked as _checked does (bands may be one
    (m, N, w + 1) array), and eigs[i] holds the computed eigenvalues of H_i
    in ascending order, as the eigensolvers return them (eigs may be one
    (m, N) array).  A finite ceiling T certifies each count by Sylvester's
    law of inertia on H_i - T*I; when one of eigs[i] lies within delta_i =
    CEILING_TIE_RTOL * max(1, max|H_i|) of T, the count only has to lie
    between the counts at T - delta_i and T + delta_i.  The matrices of one
    band shape are counted together: tridiagonal ones (w <= 1) by the Sturm
    count tridiagonal_counts, which is always trusted, and wider ones by one
    sparse factorization (_sparse_inertia); a matrix whose count there is
    not trusted falls back to its own factorizations (_untrusted_count), and
    one whose count it rejects is counted again by count_below_by_inertia.
    A count that fails the certificate raises NumericalFailure.  The bands
    are checked and their tie widths returned at any ceiling; only a finite
    one is certified.
    """
    # eigs[i] is ascending: its first counts[i] eigenvalues are <= ceiling
    counts = [int(np.searchsorted(e, ceiling, side="right")) for e in eigs]
    below = [e[:c] for e, c in zip(eigs, counts)]
    T = float(ceiling)
    shapes = [np.shape(B) for B in bands]
    widths = np.empty(len(shapes))
    for shape in dict.fromkeys(shapes):
        n, width = shape
        members = [i for i, s in enumerate(shapes) if s == shape]
        # a single group takes bands as they are, so a band array is counted in place
        ab, scale = _checked(np.asarray(bands if len(members) == len(bands) else [bands[i] for i in members]))
        widths[members] = delta = CEILING_TIE_RTOL * scale
        if not np.isfinite(T):
            continue
        # a matrix with a computed eigenvalue within delta of T is counted
        # again, at T - delta and T + delta; only the eigenvalues next to T,
        # the last one <= T and the first one above it, are read
        computed = np.array([counts[i] for i in members])
        nearest = np.array([
            min(T - eigs[i][c - 1] if c else np.inf, eigs[i][c] - T if c < len(eigs[i]) else np.inf)
            for i, c in zip(members, computed)
        ])
        tied = np.flatnonzero(nearest <= delta)
        rows = np.concatenate([np.arange(len(members)), tied])
        shifts = np.concatenate([np.full(len(members), T), T + delta[tied]])
        shifts[tied] -= delta[tied]
        stack = ab[rows] if len(tied) else ab
        if width <= 2:
            offdiagonals = stack[:, 1, : n - 1] if width == 2 else np.zeros(n - 1)
            inertia = tridiagonal_counts(stack[:, 0].real, offdiagonals, shifts)
        else:
            inertia = [
                _untrusted_count(stack[r], s, delta[rows[r]]) if c is None else c
                for r, (c, s) in enumerate(zip(_sparse_inertia(stack, shifts), shifts))
            ]
        lo = np.asarray(inertia[: len(members)])
        hi = lo.copy()
        hi[tied] = inertia[len(members) :]
        bad = np.flatnonzero((computed < lo) | (computed > hi))
        if len(bad) and width > 2:
            # growth after a pivot of size delta can flip trusted sparse pivot signs
            # (T on an eigenvalue of an integer lattice model): recount densely
            for j in bad:
                H = _shifted_blocks(ab[j][None], [0.0]).toarray()
                lo[j] = count_below_by_inertia(H, shifts[j])
                hi[j] = count_below_by_inertia(H, T + delta[j]) if j in tied else lo[j]
            bad = np.flatnonzero((computed < lo) | (computed > hi))
        if len(bad):
            j = bad[0]
            raise NumericalFailure(
                f"matrix {members[j]}: {computed[j]} eigenvalues <= {T} computed, but the "
                f"inertia of H - T*I counts {lo[j] if lo[j] == hi[j] else f'{lo[j]} to {hi[j]}'}"
            )
    return below, widths


def _twist_half(a, b2, lam, r, lo, hi):
    """The entries k < r of the vector z twisted at r, z_r = 1, of a chain.

    a[k] is the diagonal and b2[k] the squared off-diagonal between k and
    k + 1; lam broadcasts against a[k].  The pivots x_k of the LDL^T
    factorization of H - lam*I from the top give z_k / z_(k+1) = -b_k / x_k
    for k < r.  Returns the pivot term b_(r-1)^2 / x_(r-1) of gamma_r, the
    sums of z_k^2 over k < r and over the sites lo..hi among them, and the
    lam-derivatives of both sums (a zero pivot leaves NaN).
    """
    q = p = s = ds = t = dt = 0.0
    for k in range(r):
        w = 1.0 / ((a[k] - lam) - q)
        q = b2[k] * w  # the next pivot's term
        rho2 = q * w  # (z_k / z_(k+1))^2
        p = rho2 * (p - 1.0)  # -the lam-derivative of q
        u = 2.0 * p * w  # -the lam-derivative of rho2
        one = 1.0 + s
        s, ds = rho2 * one, rho2 * ds - u * one
        if k >= lo:  # t and dt are zero until the sites begin
            inside = t + 1.0 if k <= hi else t
            t, dt = rho2 * inside, rho2 * dt - u * inside
    return q, s, ds, t, dt


def _twisted(a, b2, lam, lo, hi):
    """The mass m on the sites lo..hi of the unit vector twisted at their
    middle r, its lam-derivative dm, and the Rayleigh-quotient step
    c = gamma_r / |z|^2 of lam (_twist_half's arguments)."""
    n, r = len(a), (lo + hi) // 2
    qa, sa, dsa, ta, dta = _twist_half(a, b2, lam, r, lo, hi)
    qb, sb, dsb, tb, dtb = _twist_half(a[::-1], b2[::-1], lam, n - 1 - r, n - 1 - hi, n - 1 - lo)
    norm = 1.0 + sa + sb
    m = (1.0 + ta + tb) / norm
    dm = ((dta + dtb) - m * (dsa + dsb)) / norm
    return m, dm, ((a[r] - lam) - qa - qb) / norm


def tridiagonal_masses(
    diagonals: np.ndarray, offdiagonals: np.ndarray, eigenvalues: np.ndarray, sites: range
) -> np.ndarray:
    """sum over k in sites of u_j(k)^2, for each unit eigenvector u_j of each chain.

    Row i of diagonals (S, N) and offdiagonals (S, N - 1) is a real symmetric
    tridiagonal matrix T_i, eigenvalues (S, K) holds eigenvalues of T_i, as
    the function eigenvalues returns them, and sites is a contiguous range
    of indices.  An off-diagonal that is zero makes T_i reducible and raises
    ValueError.

    Most entries form no eigenvector.  The vector twisted at the middle of
    the sites is given by the pivots of the two LDL^T factorizations of
    T_i - lambda*I (Parlett & Dhillon, LAA 1997), and its mass and the
    mass's lambda-derivative are accumulated along them in O(N).  The mass
    is corrected to first order by the Rayleigh-quotient step of lambda: the
    rounding error of lambda alone moves the uncorrected mass by about 1e-11
    at eigenvalue pairs 1e-5 apart.
    Where the neglected second-order term exceeds MASS_ATOL, as for an
    eigenvector that is tiny at the sites, the eigenvectors of those
    eigenvalues are formed by LAPACK dstein (inverse iteration), one call per
    chain; a nonzero info raises NumericalFailure.  A chain's masses do not
    depend on the other chains, bit for bit.  The whole stack is twisted at
    once, in temporaries of the shape (S, K) of eigenvalues, so the caller
    bounds them by the stack it passes.
    """
    D, E, W = (np.asarray(x, dtype=float) for x in (diagonals, offdiagonals, eigenvalues))
    if D.ndim != 2 or W.ndim != 2 or len(W) != len(D) or E.shape != (len(D), max(D.shape[1] - 1, 0)):
        raise ValueError(f"shapes {D.shape}, {E.shape}, {W.shape} are not chains with eigenvalues")
    n = D.shape[1]
    if len(sites) == 0 or sites.step != 1 or sites[0] < 0 or sites[-1] >= n:
        raise ValueError(f"sites must be a nonempty contiguous range in [0, {n}), got {sites}")
    if np.any(E == 0):
        raise ValueError("a zero off-diagonal makes the chain reducible")
    lo, hi = sites[0], sites[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m, dm, c = _twisted(D.T[..., None], (E**2).T[..., None], W, lo, hi)
        out = m + dm * c
        trusted = ((dm * c) ** 2 <= MASS_ATOL * m) & np.isfinite(out)
    # dstein's blocks: one, the whole chain
    iblock, isplit = np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
    for row in np.flatnonzero(~trusted.all(axis=1)):
        # a one-site chain never gets here: its mass has dm = 0
        cols = ~trusted[row]
        [z] = _lapack("dstein", f"a matrix of order {n}", D[row], E[row], W[row, cols], iblock, isplit)
        out[row, cols] = np.sum(z[lo : hi + 1] ** 2, axis=0)
    return out


def tridiagonal_counts(
    diagonals: np.ndarray, offdiagonals: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """#{eigenvalues <= shifts[i]} of the Hermitian tridiagonal matrix of each row i of diagonals.

    Row i's matrix has the real diagonal diagonals[i] and the off-diagonal
    offdiagonals[i], real or complex; one off-diagonal may serve all rows.
    Sturm count, vectorised over the rows: the pivots of the LDL^H
    factorization of H - shift*I are x_0 = d_0 - shift and
    x_j = (d_j - shift) - |e_{j-1}|^2 / x_{j-1}, and the pivots <= 0 number
    the eigenvalues <= shift.  A pivot smaller in magnitude than
    pivmin = tiny * max(1, max |e|^2) is taken as -pivmin, as LAPACK's
    bisection (dlaebz) does, so no pivot divides by zero and every count is
    trusted.
    """
    D = np.asarray(diagonals, dtype=float)
    e2 = np.abs(offdiagonals) ** 2
    shifts = np.broadcast_to(np.asarray(shifts, dtype=float), D.shape[:1])
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
    counts = np.zeros(len(D), dtype=np.int64)
    for j in range(D.shape[1]):
        x = D[:, j] - shifts
        if j:
            x -= e2[..., j - 1] / pivot
        x[np.abs(x) < pivmin] = -pivmin
        counts += x < 0
        pivot = x
    return counts


def eigensystem(B: np.ndarray, span: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the band B, ascending, and the orthonormal eigenvectors of
    those within span of the lowest, as the columns of a Fortran-ordered array.

    B is checked as _checked does.  The steps and workspaces are LAPACK ?syevd's:
    the band fills a Fortran-ordered matrix owned here, which ?sytrd/?hetrd reduces
    in place to a real tridiagonal T = Q^H H Q; dstevd solves T; ?ormqr/?unmqr
    applies Q (its first row and column are e_1) to rows 2..N of the kept
    eigenvectors of T, as ?ormtr does.  At the full span the results are
    np.linalg.eigh's bit for bit, but for the sign of a zero imaginary part below
    order 26 (there ?heevd rotates complex vectors).  A finite span keeps the
    eigenvalues' bits, and the kept eigenvectors to rounding (BLAS kernels group
    columns by their number).  A nonzero info raises NumericalFailure.
    """
    _checked(B)
    n, width = B.shape
    H = np.zeros((n, n), dtype=B.dtype, order="F")
    for k in range(width):
        np.fill_diagonal(H[k:], B[: n - k, k])  # H[j + k, j] = B[j, k]
    # ?ormqr blocks by its workspace: ?syevd leaves ?ormtr n^2 + 4n + 1 doubles, ?heevd n
    trd, mqr, left = ("zhetrd", "zunmqr", n) if np.iscomplexobj(B) else ("dsytrd", "dormqr", n * n + 4 * n + 1)
    matrix = f"a matrix of order {n}"
    [lwork] = _lapack(trd + "_lwork", matrix, n, lower=1)
    _, d, e, tau = _lapack(trd, matrix, H, lower=1, lwork=int(lwork.real), overwrite_a=1)
    w, Z = _lapack("dstevd", matrix, d, e if n > 1 else np.zeros(1))
    U = np.asfortranarray(Z[:, : np.searchsorted(w, w[0] + span, side="right")], dtype=B.dtype)
    if n > 1:
        # the reflectors lie below H's diagonal: rows 2..N of its first N - 1 columns
        V = H.reshape(-1, order="F")[1 : n * n - n + 1].reshape(n, n - 1, order="F")
        [U[1:], _] = _lapack(mqr, matrix, "L", "N", V, tau, np.asfortranarray(U[1:]), left, overwrite_c=1)
    return w, U


def count_below_by_inertia(H: np.ndarray, T: float) -> int:
    """#{eigenvalues <= T} via the inertia of an LDL^T factorization.

    Independent shift-count cross-check for the dense decomposition; ties at
    exactly T are counted by nonpositivity of the block eigenvalues.
    """
    H = np.asarray(H)
    shifted = H - T * np.eye(H.shape[0], dtype=H.dtype)
    _, D, _ = scipy.linalg.ldl(shifted)
    count = 0
    i, m = 0, D.shape[0]
    while i < m:
        if i + 1 < m and (D[i, i + 1] != 0 or D[i + 1, i] != 0):
            block = D[i : i + 2, i : i + 2]
            block = (block + block.conj().T) / 2
            count += int(np.sum(np.linalg.eigvalsh(block) <= 0))
            i += 2
        else:
            if D[i, i].real <= 0:
                count += 1
            i += 1
    return count

