"""Size ladder: one call per layer at growing sizes, and the fitted log-log slope.

    python3 ladder.py <src> <seed> <result.json>

Each rung is timed as the fastest of a few repeats; the exponent is the
least-squares slope of log(seconds) against log(size), where size is the
site count (boundary) or the matrix dimension (everything else).
"""

import json
import sys
import time

REPEATS = 3


def _best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _slope(sizes, seconds) -> float:
    import numpy as np

    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def run(seed: int) -> dict[str, float]:
    from idslab.lattice import RandomColoring, boundary, cube
    from idslab.montecarlo import SiteDistribution, centered_box, localized_counting, sample_coloring
    from idslab.operators import OperatorSpec, PrototypeLibrary, discretize, lattice_model
    from idslab.config import build_coloring, validate_config
    from idslab.spectral import eigenvalues
    from idslab.ssf import semigroup_difference_singular_values

    from workloads import CHECKERBOARD

    metrics = {}

    sides = [16, 32, 48, 64]
    cubes = [cube(s, 2) for s in sides]
    metrics["lattice.boundary.exponent"] = _slope(
        [len(Q) for Q in cubes], [_best_time(lambda Q=Q: boundary(Q, 1)) for Q in cubes])

    library = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 2)
    checker = build_coloring(validate_config({"dimension": 2, "coloring": CHECKERBOARD}))
    specs = [
        OperatorSpec(Q=cube(s, 2), coloring=checker, library=library,
                     backend="continuum", resolution=8)
        for s in (2, 3, 4, 5)
    ]
    matrices = [discretize(spec) for spec in specs]
    dims = [H.shape[0] for H in matrices]
    metrics["operators.assemble.exponent"] = _slope(
        dims, [_best_time(lambda spec=spec: discretize(spec)) for spec in specs])
    metrics["spectral.eigvals.exponent"] = _slope(
        dims, [_best_time(lambda H=H: eigenvalues(H)) for H in matrices])

    random2d = RandomColoring(seed=seed, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    pairs = []
    for s in (8, 12, 16, 20):
        HA = lattice_model(random2d, cube(s, 2), library)
        HB = HA.copy()
        HB[0, 1] = HB[1, 0] = 0.0
        pairs.append((HA, HB))
    metrics["ssf.semigroup_svd.exponent"] = _slope(
        [HA.shape[0] for HA, _ in pairs],
        [_best_time(lambda p=p: semigroup_difference_singular_values(*p)) for p in pairs])

    chain_library = PrototypeLibrary.constant_potentials({"a": 0.0, "b": 1.0}, 8, 1)
    coloring = sample_coloring(SiteDistribution(("a", "b"), (0.5, 0.5), seed=seed), 0, 1)
    grid = [0.5 * k for k in range(10)]
    samples = [
        OperatorSpec(Q=centered_box(R, 1), coloring=coloring, library=chain_library,
                     backend="lattice")
        for R in (24, 48, 96, 192)
    ]
    metrics["montecarlo.sample.exponent"] = _slope(
        [len(spec.Q) for spec in samples],
        [_best_time(lambda spec=spec: localized_counting(spec, grid)) for spec in samples])
    return metrics


def main() -> int:
    src, seed, result = sys.argv[1:4]
    sys.path.insert(0, src)
    with open(result, "w") as fh:
        json.dump(run(int(seed)), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
