"""Independent computations the tests compare idslab's results against."""

import hashlib
import struct
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from idslab.lattice import Pattern, cube
from idslab.montecarlo import centered_box, localized_counting, sample_coloring
from idslab.operators import LATTICE, OperatorSpec
from idslab.spectral import eigensystem, lower_band


def dense(B: np.ndarray) -> np.ndarray:
    """The Hermitian matrix H of the lower band B, B[j, k] = H[j + k, j].

    The lower triangle and the diagonal hold B's entries as they are, the
    upper triangle their conjugates.
    """
    n, width = B.shape
    H = np.zeros((n, n), dtype=B.dtype)
    for k in range(width):
        j = np.arange(n - k)
        H[j, j + k] = np.conjugate(B[: n - k, k])
        H[j + k, j] = B[: n - k, k]
    return H


def _site_hash(seed: int, site) -> int:
    """The 64-bit blake2b hash of (seed, site), one site at a time: the bitwise
    reference for lattice._site_hashes.  The message packs the seed's low 63
    bits and the site's coordinates as little-endian int64s, "<q{d}q"."""
    buf = struct.pack(f"<q{len(site)}q", seed & (2**63 - 1), *site)
    return int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little")


def pattern_from_word(word: str) -> Pattern:
    """1-d pattern on {0..len-1} with symbols given by the word's characters."""
    return Pattern(tuple((i,) for i in range(len(word))), tuple(word))


def period_loop_frequencies(C, M: int) -> dict:
    """Exact M-window frequencies of a periodic coloring, one window per anchor x of a period cell.

    Each window is coloured site by site (C.color) and counted as a Pattern
    on the sorted offsets of C_M; classes appear in the order of their
    first anchor, anchors in lexicographic order.
    """
    d = C.dimension
    offsets = sorted(cube(M, d))
    tally = Counter()
    for x in product(*(range(p) for p in C.period)):
        window = Pattern(
            tuple(offsets),
            tuple(C.color(tuple(x[i] + o[i] for i in range(d))) for o in offsets),
        )
        tally[window] += 1
    return {P: Fraction(k, C.cell_volume) for P, k in tally.items()}


def per_sample_mc(dist, library, grid, samples, R, backend=LATTICE):
    """Mean and standard error of the localized counting over samples, one sample at a time.

    Each sample colours its own box (sample_coloring, RandomColoring.colors),
    assembles its operator on the centered box (discretize) and solves it
    through localized_counting, where pastur_shubin_mc colours all samples
    by one iid_codes call and fills and solves them in groups.
    """
    d = library.dimension
    box = centered_box(R, d)
    rows = np.vstack([
        localized_counting(
            OperatorSpec(
                Q=box, coloring=sample_coloring(dist, s, d), library=library,
                backend=backend, resolution=library.resolution,
            ),
            grid,
        )
        for s in range(samples)
    ])
    mean = np.mean(rows, axis=0)
    if samples > 1:
        return mean, np.std(rows, axis=0, ddof=1) / np.sqrt(samples)
    return mean, np.zeros_like(mean)


def dirichlet_chain_eigenvalues(num_cells: int, resolution: int) -> np.ndarray:
    """Analytic spectrum of the 1-d finite-difference Dirichlet Laplacian.

    Interval of length L = num_cells at spacing h = 1/resolution carries
    n*L - 1 interior points with eigenvalues (2/h^2)(1 - cos(k pi h / L)).
    """
    L, n = num_cells, resolution
    h = 1.0 / n
    k = np.arange(1, n * L)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h / L))


def svd_semigroup_difference_singular_values(HA, HB, embed=None, count=None) -> np.ndarray:
    """Singular values of exp(-HB) - exp(-HA) by a dense SVD, descending.

    HB's semigroup is padded with zeros outside its embed positions inside
    HA's indexing.  Both semigroups come from idslab's eigensystem, so only
    the route from V_eff to its singular values differs from idslab's.
    """
    ea = _semigroup(HA)
    eb = _semigroup(HB)
    if embed is not None:
        padded = np.zeros_like(ea)
        idx = np.asarray(embed, dtype=int)
        padded[np.ix_(idx, idx)] = eb
        eb = padded
    mu = np.linalg.svd(eb - ea, compute_uv=False)
    return mu if count is None else mu[:count]


def _semigroup(H):
    w, U = eigensystem(lower_band(H))
    return (U * np.exp(-w)) @ U.conj().T
