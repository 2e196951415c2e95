"""Lattice combinatorics: sites, cubes, boundaries, colorings, patterns, frequencies.

Sites are plain integer tuples, finite site sets are frozensets of such
tuples.  Boundaries and window tallies are computed on boolean masks and
integer symbol codes over a set's bounding box, so their cost scales with
the box volume; they return sites and patterns again.  Everything here is
exact integer / rational arithmetic; nothing touches floating point except
pseudorandom color draws.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Site = tuple[int, ...]


def site_set(sites: Iterable[Sequence[int]]) -> frozenset[Site]:
    """Normalize an iterable of coordinate sequences to a frozenset of sites."""
    out = frozenset(tuple(int(c) for c in s) for s in sites)
    if out:
        dims = {len(s) for s in out}
        if len(dims) > 1:
            raise ValueError(f"mixed dimensions in site set: {sorted(dims)}")
    return out


def dimension_of(sites: frozenset[Site]) -> int:
    if not sites:
        raise ValueError("empty site set has no dimension")
    return len(next(iter(sites)))


def cube(M: int, d: int) -> frozenset[Site]:
    """C_M: the cube {0 <= x_j <= M-1} in Z^d, cardinality M^d."""
    if M < 1:
        raise ValueError(f"cube side parameter must be >= 1, got {M}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return frozenset(product(range(M), repeat=d))


def bounding_box(sites: frozenset[Site]) -> tuple[Site, Site]:
    """Componentwise (min, max) corners of the set's bounding box."""
    d = dimension_of(sites)
    lo = tuple(min(s[i] for s in sites) for i in range(d))
    hi = tuple(max(s[i] for s in sites) for i in range(d))
    return lo, hi


def _site_mask(Q: Iterable[Site], pad: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Q marked in a boolean array over its bounding box padded by `pad`.

    Returns the mask, the coordinates of its index 0, and the index tuple
    of Q's sites in the order given.
    """
    coords = np.array(list(Q), dtype=np.int64)
    lo = coords.min(axis=0) - pad
    mask = np.zeros(tuple(coords.max(axis=0) - lo + pad + 1), dtype=bool)
    at = tuple((coords - lo).T)
    mask[at] = True
    return mask, lo, at


def _box_reduce(mask: np.ndarray, width: int, pad: int, reduce) -> np.ndarray:
    """reduce (np.any or np.all) of mask over each width^d box, one axis at a time.

    Each axis is first padded by `pad` empty layers on both sides, so with
    pad = (width - 1) / 2 the box is centered and the shape is kept; with
    pad = 0 the box is anchored at its low corner and only boxes inside the
    mask are taken.
    """
    for axis in range(mask.ndim):
        if pad:
            widths = [(0, 0)] * mask.ndim
            widths[axis] = (pad, pad)
            mask = np.pad(mask, widths)
        mask = reduce(sliding_window_view(mask, width, axis=axis), axis=-1)
    return mask


def _sites_of(mask: np.ndarray, lo: np.ndarray) -> frozenset[Site]:
    return frozenset(map(tuple, (np.argwhere(mask) + lo).tolist()))


def boundary(Q: frozenset[Site], M: int) -> frozenset[Site]:
    """Two-sided combinatorial M-boundary of Q in the Chebyshev metric.

    Sites of Q within distance M of the complement, together with sites of
    the complement within distance M of Q: the dilation of Q by the
    (2M+1)^d box minus its erosion.
    """
    if not Q:
        raise ValueError("boundary of the empty set is undefined")
    if M < 1:
        raise ValueError(f"boundary width must be >= 1, got {M}")
    mask, lo, _ = _site_mask(Q, M)
    dilation = _box_reduce(mask, 2 * M + 1, M, np.any)
    erosion = _box_reduce(mask, 2 * M + 1, M, np.all)
    return _sites_of(dilation & ~erosion, lo)


def inner_boundary(Q: frozenset[Site], M: int = 1) -> frozenset[Site]:
    """Sites of Q within Chebyshev distance M of the complement.

    This is the boundary notion entering the boundary term b(Q); it is
    always a subset of Q, so b(Q) <= D * #Q holds with D independent of Q.
    """
    if not Q:
        raise ValueError("boundary of the empty set is undefined")
    if M < 1:
        raise ValueError(f"boundary width must be >= 1, got {M}")
    mask, lo, _ = _site_mask(Q, 0)
    return _sites_of(mask & ~_box_reduce(mask, 2 * M + 1, M, np.all), lo)


def van_hove_ratios(sequence: Sequence[frozenset[Site]], M: int) -> list[Fraction]:
    """Boundary-to-volume ratios #boundary(U_j, M) / #U_j along a sequence.

    Each ratio is positive: a nonempty finite set has a nonempty boundary.
    """
    return [Fraction(len(boundary(U, M)), len(U)) for U in sequence]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """A finite lattice domain with an alphabet symbol at every domain site.

    Stored as the lexicographically sorted site tuple plus the parallel
    symbol tuple, which makes patterns hashable and cheap to compare.
    """

    sites: tuple[Site, ...]
    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.symbols):
            raise ValueError("sites and symbols must be parallel")
        if not self.sites:
            raise ValueError("pattern domain must be nonempty")
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError("pattern sites must be sorted and distinct")
        # not a field: eq, hash and repr use sites and symbols only
        object.__setattr__(self, "_color_of", dict(zip(self.sites, self.symbols)))

    @property
    def domain(self) -> frozenset[Site]:
        return frozenset(self.sites)

    @property
    def dimension(self) -> int:
        return len(self.sites[0])

    def color(self, site: Site) -> str:
        try:
            return self._color_of[site]
        except KeyError:
            raise KeyError(f"site {site} outside pattern domain") from None

    def colors(self, sites: Iterable[Site]) -> list[str]:
        return [self.color(s) for s in sites]

    def translated(self, x: Site) -> "Pattern":
        sites = tuple(tuple(s + dx for s, dx in zip(p, x)) for p in self.sites)
        return Pattern(sites, self.symbols)

    def canonical(self) -> "Pattern":
        """Representative of the translation class: bounding-box min corner at 0."""
        lo, _ = bounding_box(self.domain)
        return self.translated(tuple(-c for c in lo)) if any(lo) else self

    def key(self) -> str:
        """Deterministic string key for the canonical class (used in tables)."""
        c = self.canonical()
        return ";".join(
            ",".join(str(v) for v in s) + "=" + a for s, a in zip(c.sites, c.symbols)
        )


# ---------------------------------------------------------------------------
# Colorings
# ---------------------------------------------------------------------------

class Coloring:
    """Total map from Z^d to a finite alphabet, realized by a lazy generator."""

    alphabet: tuple[str, ...]
    dimension: int

    def color(self, site: Site) -> str:
        raise NotImplementedError

    def colors(self, sites: Iterable[Site]) -> list[str]:
        """The symbol at each site, in order; one call colors a whole batch."""
        return [self.color(s) for s in sites]

    def restrict(self, Q: frozenset[Site]) -> Pattern:
        """The coloring on Q, read by one colors call: the pattern that window
        tallies and field evaluations of Q take their symbols from."""
        if not Q:
            raise ValueError("cannot restrict to the empty set")
        sites = tuple(sorted(Q))
        return Pattern(sites, tuple(self.colors(sites)))


@dataclass(frozen=True)
class PeriodicColoring(Coloring):
    """Coloring invariant under translation by period * e_i for every axis."""

    period: tuple[int, ...]
    cell: Mapping[Site, str]
    alphabet: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if any(p < 1 for p in self.period):
            raise ValueError(f"period components must be >= 1, got {self.period}")
        # sizes first: the period cell is listed only when it can match cell
        if len(self.cell) != self.cell_volume or set(self.cell) != set(
            product(*(range(p) for p in self.period))
        ):
            raise ValueError("cell assignment must cover exactly one period cell")
        if not self.alphabet:
            object.__setattr__(self, "alphabet", tuple(sorted(set(self.cell.values()))))

    @property
    def dimension(self) -> int:
        return len(self.period)

    @property
    def cell_volume(self) -> int:
        return math.prod(self.period)

    def color(self, site: Site) -> str:
        return self.cell[tuple(c % p for c, p in zip(site, self.period))]


def periodic_word(word: str) -> PeriodicColoring:
    """1-d periodic coloring repeating the given word, e.g. 'ab'."""
    cell = {(i,): ch for i, ch in enumerate(word)}
    return PeriodicColoring(period=(len(word),), cell=cell)


@dataclass(frozen=True)
class WindowColoring(Coloring):
    """Explicit finite window with a declared background symbol elsewhere."""

    window: Mapping[Site, str]
    background: str
    dim: int
    alphabet: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not self.alphabet:
            syms = set(self.window.values()) | {self.background}
            object.__setattr__(self, "alphabet", tuple(sorted(syms)))

    @property
    def dimension(self) -> int:
        return self.dim

    def color(self, site: Site) -> str:
        return self.window.get(site, self.background)


# the hash key is packed as a signed 64-bit integer: its low 63 bits
_KEY_MASK = 0x7FFFFFFFFFFFFFFF


def _site_hashes(seeds: Sequence[int], sites: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hash of (seeds[i], sites[j]) at [i, j], as uint64, by blake2b.

    Counter-based: the same site always hashes to the same value, so
    overlapping windows and any evaluation order see a consistent coloring.
    Each message is the little-endian int64s "<q{d}q" of the masked seed and
    the site's d coordinates of the (M, d) integer site array; the messages
    of one seed are hashed at a time, so no more than M digests are held as
    Python objects.
    """
    sites = np.asarray(sites, dtype=np.int64)
    m, d = sites.shape
    msg = np.empty((m, 1 + d), dtype="<i8")
    msg[:, 1:] = sites
    out = np.empty((len(seeds), m), dtype="<u8")
    blake2b = hashlib.blake2b
    for row, seed in zip(out, seeds):
        msg[:, 0] = int(seed) & _KEY_MASK
        messages = msg.view(f"V{8 * (1 + d)}").ravel().tolist()  # one bytes object per site
        row[:] = np.frombuffer(
            b"".join([blake2b(buf, digest_size=8).digest() for buf in messages]), dtype="<u8"
        )
    return out


def iid_seeds(seed: int, indices: Iterable[int]) -> list[int]:
    """The seed of each indexed member of the i.i.d. family seeded by seed: the hash of (seed, (i,))."""
    return _site_hashes([seed], np.reshape(list(indices), (-1, 1)))[0].tolist()


def iid_codes(seeds: Sequence[int], weights: Sequence[float], sites) -> np.ndarray:
    """The i.i.d. coloring rule: the symbol index at sites[j] under seeds[i], at [i, j].

    Each (seed, site) hash over 2^64 is a uniform u in [0, 1]; its code is the
    first symbol whose running weight (a sequential float sum) exceeds u, else
    the last, which so takes the remainder of weights whose float sum is below 1.
    """
    u = _site_hashes(seeds, sites) / 2.0**64
    return np.minimum(np.searchsorted(np.cumsum(weights), u, side="right"), len(weights) - 1)


def check_weights(symbols: Sequence[str], weights: Sequence[float]) -> None:
    """ValueError unless weights are a probability vector parallel to symbols."""
    if len(symbols) != len(weights):
        raise ValueError("symbols and weights must be parallel")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")


@dataclass(frozen=True)
class RandomColoring(Coloring):
    """Seeded i.i.d. coloring; color at a site is a pure function of (seed, site) (iid_codes)."""

    seed: int
    symbols: tuple[str, ...]
    weights: tuple[float, ...]
    dim: int

    def __post_init__(self):
        check_weights(self.symbols, self.weights)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.symbols

    @property
    def dimension(self) -> int:
        return self.dim

    def color(self, site: Site) -> str:
        return self.colors([site])[0]

    def colors(self, sites: Iterable[Site]) -> list[str]:
        codes = iid_codes([self.seed], self.weights, np.reshape(list(sites), (-1, self.dim)))
        return [self.symbols[k] for k in codes[0].tolist()]


# ---------------------------------------------------------------------------
# Window enumeration and frequency tables
# ---------------------------------------------------------------------------

def enumerate_window_patterns(P: Pattern, M: int) -> Counter[Pattern]:
    """Tally canonical M-window patterns of P over all windows inside its domain.

    For every x with C_M + x contained in the domain, the canonicalized
    restriction of P to that window is counted once; the total tally equals
    the number of admissible x.  Classes appear in the order of their first
    window, windows taken in lexicographic order of x.
    """
    if M < 1:
        raise ValueError(f"window parameter must be >= 1, got {M}")
    mask, _, at = _site_mask(P.sites, 0)
    if min(mask.shape) < M:
        return Counter()
    d = mask.ndim
    # symbols numbered in the order first seen
    number: dict[str, int] = {}
    codes = np.zeros(mask.shape, dtype=np.int64)
    codes[at] = [number.setdefault(sym, len(number)) for sym in P.symbols]
    # anchors x in row-major order, each window's codes in sorted-offset order
    inside = _box_reduce(mask, M, 0, np.all)
    rows = sliding_window_view(codes, (M,) * d)[inside].reshape(-1, M**d)
    _, first, counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    symbols = list(number)
    offsets = tuple(sorted(cube(M, d)))
    tally: Counter[Pattern] = Counter()
    for i, k in zip(first[order].tolist(), counts[order].tolist()):
        tally[Pattern(offsets, tuple(symbols[c] for c in rows[i].tolist()))] = k
    return tally


@dataclass(frozen=True)
class FrequencyTable:
    """Frequencies of canonical M-window pattern classes.

    Exact tables hold rationals that sum to 1; estimated tables hold floats
    plus the window count they were measured from.
    """

    M: int
    entries: Mapping[Pattern, Fraction | float]
    exact: bool
    sample_windows: int = 0

    def __post_init__(self):
        for P, v in self.entries.items():
            if not (0 <= v <= 1):
                raise ValueError(f"frequency {v} for {P.key()} outside [0, 1]")

    def total(self):
        return sum(self.entries.values())

    def to_json_dict(self) -> dict:
        out: dict = {"M": self.M, "exact": self.exact, "entries": {}}
        if not self.exact:
            out["sample_windows"] = self.sample_windows
        for P in sorted(self.entries, key=lambda p: p.key()):
            v = self.entries[P]
            if isinstance(v, Fraction):
                out["entries"][P.key()] = {"num": v.numerator, "den": v.denominator}
            else:
                out["entries"][P.key()] = float(v)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def exact_frequency_table(C: PeriodicColoring, M: int) -> FrequencyTable:
    """Table of all M-window classes with nonzero frequency, exact rationals.

    The windows are those anchored in one period cell: the M-windows of the
    box of sides p_i + M - 1, tallied by enumerate_window_patterns.
    """
    box = frozenset(product(*(range(p + M - 1) for p in C.period)))
    tally = enumerate_window_patterns(C.restrict(box), M)
    entries = {P: Fraction(k, C.cell_volume) for P, k in tally.items()}
    return FrequencyTable(M=M, entries=entries, exact=True)


def estimated_frequency_table(P: Pattern, M: int) -> FrequencyTable:
    """Table estimated from one finite pattern P, normalized by #D(P) per the limit formula."""
    tally = enumerate_window_patterns(P, M)
    vol = len(P.sites)
    entries = {W: k / vol for W, k in tally.items()}
    return FrequencyTable(
        M=M, entries=entries, exact=False, sample_windows=sum(tally.values())
    )


def frequency_tables(
    coloring: Coloring, Ms: Iterable[int], region: Pattern | frozenset[Site]
) -> dict[int, FrequencyTable]:
    """The M-window table of coloring for each M in Ms: exact for a periodic
    coloring, else estimated from region, a Pattern of coloring or a site set
    that is restricted only then."""
    if isinstance(coloring, PeriodicColoring):
        return {M: exact_frequency_table(coloring, M) for M in Ms}
    P = region if isinstance(region, Pattern) else coloring.restrict(region)
    return {M: estimated_frequency_table(P, M) for M in Ms}


def cube_sequence(js: Sequence[int], d: int) -> list[frozenset[Site]]:
    """Van Hove sequence of cubes C_j for the given side parameters."""
    return [cube(j, d) for j in js]
