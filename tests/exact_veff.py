"""Exact singular values of V_eff = exp(-H_B) - exp(-H_A) for the zero-potential
facet pairs of acceptance._facet_pairs, and the c_hat of their decay fits.

    PYTHONPATH=src python tests/exact_veff.py

rewrites tests/data/exact_veff.json (a few minutes on one core).

H_A is the finite-difference Dirichlet Laplacian on a cube of L cells at
resolution n: its eigenpairs are products of sines, lambda = sum_i 2n^2 (1 -
cos(k_i pi / nL)) with vectors prod_i sqrt(2/nL) sin(k_i pi p_i / nL), written
here at DPS digits.  H_B deletes the grid points of one facet.  An eigenvector
of H_A that vanishes on those points is an eigenvector of H_B with the same
eigenvalue, so it cancels from V_eff exactly and is left out of both sides
("shared").  H_B's other eigenpairs are float64 ones of H_B projected off the
shared vectors, refined by Newton steps whose residuals are taken at DPS
digits (in d=1, where H_B is two intervals, they are checked against the
closed-form sines of the halves).  Eigenpairs up to SPAN above the lowest enter,
so the dropped part of V_eff has norm below e^-SPAN.  With W = [U_A, P U_B] and
S = diag(-e^-w_A, e^-w_B), the nonzero eigenvalues of V_eff = W S W^T are those
of R S R^T for the R of a QR of W, found by mpmath.eigsy.  The QR is taken
blockwise, as U_A is orthonormal, and by Householder reflections at DPS digits,
never through the Gram matrix W^T W: the subspaces of U_A and P U_B meet at
angles far below 1e-20.  Their absolute values, descending, are the singular values.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np
from mpmath import mp

from idslab.acceptance import _facet_pairs
from idslab.operators import _grid_coords, discretize, grid_embedding
from idslab.ssf import SingularValueSeries, fit_decay
from oracles import dense

DPS = 40
# eigenpairs within SPAN of H_A's lowest eigenvalue enter V_eff
SPAN = 80.0
# singular values at or above this are stored
STORE_FLOOR = 1e-18
OUT = Path(__file__).resolve().parent / "data" / "exact_veff.json"

mp.dps = DPS
to_mp = np.frompyfunc(mp.mpf, 1, 1)


def cube_eigenpairs(coords: np.ndarray, n: int, cells: int, top: float):
    """The eigenpairs of H_A with eigenvalue <= top, as (lambda, vector) in mp."""
    m = n * cells
    theta = [mp.pi * k / m for k in range(m)]
    lam1 = [2 * n**2 * (1 - mp.cos(t)) for t in theta]
    # sin(k pi p / m) for every k and every grid coordinate p, normalized
    sines = [[mp.sqrt(mpmath.mpf(2) / m) * mp.sin(t * p) for p in range(m)] for t in theta]
    d = coords.shape[1]
    pairs = []
    for ks in np.ndindex(*(m,) * d):
        if 0 in ks:
            continue
        lam = sum(lam1[k] for k in ks)
        if lam <= top:
            vec = np.ones(len(coords), dtype=object)
            for axis, k in enumerate(ks):
                vec = vec * np.array([sines[k][p] for p in coords[:, axis]], dtype=object)
            pairs.append((lam, vec))
    pairs.sort(key=lambda pair: pair[0])
    return pairs


def band_matvec(B: np.ndarray):
    """x -> H x at mp precision for the real lower band B of H."""
    n = len(B)
    diagonals = [(k, to_mp(B[: n - k, k])) for k in range(B.shape[1]) if np.any(B[:, k])]

    def apply(x):
        y = np.zeros(n, dtype=object)
        for k, b in diagonals:
            if k == 0:
                y = y + b * x
            else:
                y[k:] = y[k:] + b * x[: n - k]
                y[: n - k] = y[: n - k] + b * x[k:]
        return y

    return apply


def norm(x) -> mpmath.mpf:
    return mp.sqrt(np.dot(x, x))


def refine(apply, H: np.ndarray, x0: np.ndarray, Z: np.ndarray) -> tuple[mpmath.mpf, np.ndarray]:
    """An eigenpair of H orthogonal to the columns of Z (exact eigenvectors, mp),
    from the float64 guess x0: Newton steps on the bordered system
    [[H - lambda, X], [X^T, 0]] with X = [x, Z], residuals at mp precision."""
    x = to_mp(x0)
    scale = float(np.max(np.abs(H)))
    Zf = Z.astype(float)
    for _ in range(8):
        # the float64 correction keeps x off Z only to rounding
        x = x - Z @ (Z.T @ x)
        x = x / norm(x)
        Hx = apply(x)
        lam = np.dot(x, Hx)
        r = Hx - lam * x
        if norm(r) < mpmath.mpf(10) ** (6 - DPS) * scale:
            return lam, x
        X = np.column_stack([x.astype(float), Zf])
        J = np.block([[H - float(lam) * np.eye(len(H)), X], [X.T, np.zeros((X.shape[1],) * 2)]])
        delta = np.linalg.solve(J, np.concatenate([-r.astype(float), np.zeros(X.shape[1])]))
        x = x + to_mp(delta[: len(H)])
    raise RuntimeError("Newton refinement did not converge")


def exact_singular_values(specA, specB) -> np.ndarray:
    """V_eff's singular values, descending, for a zero-potential cube specA and specB,
    specA with one more Dirichlet facet."""
    n, cells = specA.resolution, max(c[0] for c in specA.Q) + 1
    coordsA = _grid_coords(specA)
    embed = grid_embedding(specA, specB)
    removed = np.setdiff1d(np.arange(len(coordsA)), embed)
    BA, BB = discretize(specA), discretize(specB)
    d = coordsA.shape[1]
    top = d * 2 * n**2 * (1 - mp.cos(mp.pi / (n * cells))) + SPAN
    # A's eigenpairs up to top, and the shared ones a little beyond (Newton's constraints)
    pairsA = cube_eigenpairs(coordsA, n, cells, top + 10)
    applyA = band_matvec(BA)
    for lam, u in pairsA:
        assert norm(applyA(u) - lam * u) < mpmath.mpf(10) ** (8 - DPS)
    shared = [max(abs(u[removed])) < mpmath.mpf(10) ** (5 - DPS) for _, u in pairsA]
    Z = np.column_stack([u[embed] for (_, u), s in zip(pairsA, shared) if s]).astype(object)
    keptA = [(lam, u) for (lam, u), s in zip(pairsA, shared) if lam <= top and not s]

    # H_B's eigenpairs off the shared vectors: float64 guesses, then Newton
    HB = dense(BB)
    Zf = Z.astype(float)
    P = np.eye(len(HB)) - Zf @ Zf.T
    w, V = np.linalg.eigh(P @ HB @ P)
    guesses = [V[:, j] for j in np.flatnonzero((w > 1e-6) & (w <= float(top) + 1.0))]
    applyB = band_matvec(BB)
    keptB = [pair for pair in (refine(applyB, HB, g, Z) for g in guesses) if pair[0] <= top]
    if d == 1:
        # H_B is two equal intervals: each eigenvalue of a half is shared once and kept once
        assert [2 * f.anchor[0] for f in specB.removed_facets] == [cells]
        m = n * cells // 2
        halves = [lam for lam in (2 * n**2 * (1 - mp.cos(mp.pi * k / m)) for k in range(1, m)) if lam <= top]
        assert len(halves) == len(keptB)
        for (lam, _), want in zip(sorted(keptB, key=lambda pair: pair[0]), halves):
            assert abs(lam - want) < mpmath.mpf(10) ** (10 - DPS)

    # W = [U_A, P U_B] = [U_A, Q_Y] [[I, C], [0, R_Y]] with C = U_A^T P U_B and
    # Q_Y R_Y the QR of Y = P U_B - U_A C (U_A is orthonormal)
    UA = np.column_stack([u for _, u in keptA])
    PUB = np.full((len(coordsA), len(keptB)), mpmath.mpf(0), dtype=object)
    PUB[embed] = np.column_stack([v for _, v in keptB])
    C = UA.T @ PUB
    ka, kb = C.shape
    R = np.full((ka + kb, ka + kb), mpmath.mpf(0), dtype=object)
    R[:ka, :ka] = np.diag([mpmath.mpf(1)] * ka)
    R[:ka, ka:] = C
    R[ka:, ka:] = r_factor(PUB - UA @ C)
    s = np.array([-mp.exp(-lam) for lam, _ in keptA] + [mp.exp(-lam) for lam, _ in keptB], dtype=object)
    eig = mp.eigsy(mp.matrix(((R * s) @ R.T).tolist()), eigvals_only=True)
    mu = sorted((abs(e) for e in eig), reverse=True)
    return np.array([float(m) for m in mu] + [0.0] * (len(coordsA) - len(mu)))


def r_factor(Y: np.ndarray) -> np.ndarray:
    """R of a Householder QR of the tall object array Y (Q is not formed)."""
    Y = Y.copy()
    k = Y.shape[1]
    for j in range(k):
        x = Y[j:, j]
        alpha = -norm(x) if x[0] >= 0 else norm(x)
        v = x.copy()
        v[0] -= alpha
        vv = np.dot(v, v)
        if vv:
            Y[j:, j:] -= np.outer(v, (v @ Y[j:, j:]) * (2 / vv))
    return np.triu(Y[:k])


def main():
    out = {}
    for name, d, specA, specB, _window in _facet_pairs():
        if "zero" not in name:
            continue
        mu = exact_singular_values(specA, specB)
        fit = fit_decay(SingularValueSeries(mu=mu), d=d)
        out[name] = {
            "dimension": d,
            "order": len(mu),
            "c_hat": fit.c_hat,
            "points_used": fit.points_used,
            "mu": [float(m) for m in mu[mu >= STORE_FLOOR]],
        }
        print(name, fit.c_hat, fit.points_used, flush=True)
    OUT.write_text(json.dumps({"dps": DPS, "span": SPAN, "pairs": out}, indent=1) + "\n")


if __name__ == "__main__":
    main()
