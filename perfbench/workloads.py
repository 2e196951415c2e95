"""Workload definitions: each maps a seed to one idslab CLI command and config.

The seed sets every random input of a workload (the i.i.d. coloring, the
Monte Carlo seed, the Young-trial generator); a workload without random
input ignores it.  The program receives only the generated config file.
"""

from __future__ import annotations

CONSTANT_AB = {"kind": "constant", "values": {"a": 0.0, "b": 1.0}}
CHECKERBOARD = {
    "kind": "periodic",
    "period": [2, 2],
    "cell": {"0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"},
}


# lattice combinatorics (boundaries, window enumeration) and ~530 small
# pattern eigensolves; the i.i.d. coloring makes ~505 distinct M=3 classes
def _ids_lattice_2d(seed: int) -> dict:
    return {
        "dimension": 2,
        "backend": "lattice",
        "prototypes": CONSTANT_AB,
        "coloring": {"kind": "random", "weights": {"a": 0.5, "b": 0.5}, "seed": seed},
        "sequence": {"kind": "cubes", "sides": [8, 16, 24, 32, 40, 48]},
        "window": {"lo": 0.0, "hi": 4.5, "p": 2.0},
        "M_list": [1, 2, 3],
        "seed": seed,
        "jobs": 1,
    }


# one dense eigensolve at N=3969 dominates; lattice work is about 1%
def _ids_continuum_2d(seed: int) -> dict:
    return {
        "dimension": 2,
        "backend": "continuum",
        "resolution": 8,
        "prototypes": CONSTANT_AB,
        "coloring": CHECKERBOARD,
        "sequence": {"kind": "cubes", "sides": [2, 4, 6, 8]},
        "window": {"lo": 0.0, "hi": 60.0, "p": 2.0},
        "M_list": [1, 2, 3],
        "jobs": 1,
    }


# ~1,600 tiny assemblies and eigensolves with eigenvectors, in place of one
# large one: per-call overhead shows here
def _random_mc_1d(seed: int) -> dict:
    return {
        "dimension": 1,
        "backend": "lattice",
        "prototypes": CONSTANT_AB,
        "window": {"lo": 0.0, "hi": 4.5, "p": 2.0},
        "seed": seed,
        "jobs": 1,
        "random": {
            "weights": {"a": 0.5, "b": 0.5},
            "samples": 800,
            "truncation_radius": 48,
            "lambda_points": 201,
        },
    }


# the only workload that exercises the ssf layer (semigroup SVD, shift)
def _ssf_continuum_2d(seed: int) -> dict:
    return {
        "dimension": 2,
        "backend": "continuum",
        "resolution": 8,
        "prototypes": CONSTANT_AB,
        "coloring": CHECKERBOARD,
        "window": {"lo": 0.0, "hi": 60.0, "p": 2.0},
        "seed": seed,
        "jobs": 1,
        "ssf": {"cells": 6, "count": 200, "powers": [1, 2, 3], "young_trials": 200},
    }


# workloads whose config does not depend on the seed
SEEDLESS = {"ids-continuum-2d"}

# name -> (CLI command, seed -> config)
WORKLOADS = {
    "ids-lattice-2d": ("ids", _ids_lattice_2d),
    "ids-continuum-2d": ("ids", _ids_continuum_2d),
    "random-mc-1d": ("random", _random_mc_1d),
    "ssf-continuum-2d": ("ssf", _ssf_continuum_2d),
}
