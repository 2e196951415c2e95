"""Golden hashes of the CLI data files: a refactor must leave every byte as it was.

The sha256 of each data file (everything but ``manifest.json``, whose
timestamp changes) was recorded before the experiment layer was shared
between the CLI and the acceptance suite.  The hashes depend on the
floating-point results of numpy and LAPACK, so a different BLAS build may
need them re-recorded; on one machine they must not move.  The ``ssf`` files
and the ``ids-random-2d`` report were re-recorded when the singular values of
the semigroup difference moved from a dense SVD to the absolute eigenvalues
of the Hermitian difference, and the shift function to the eigenvalues of
the same eigendecompositions (changes of a few ulps).  The ``random`` files
were re-recorded when the d=1 Monte Carlo estimates moved from eigenvector
solves to eigenvalues plus twisted-factorization origin masses (changes of
at most 7e-16).  The ``ssf`` ``singular_values.csv`` and ``ssf_report.json``
and the ``ids-random-2d`` report were re-recorded when V_eff's eigenvalues
moved from a dense eigvalsh of the N x N difference to a QR of the kept
eigenvectors and a problem of order k_A + k_B: the singular values moved by at
most 2.6e-3 relative, in the values near 1e-16; the decay fit by at most
2.1e-7 (C2_hat); the ids-random-2d bounds by at most 2.8e-16; xi.csv did not
move.  The two ``ids_report.json`` files were re-recorded when the unfitted
counting-form bound and its ``bound_counting_form`` key left each row; every
other byte of them stayed as it was.
"""

import hashlib
import json
from pathlib import Path

import pytest

from idslab.cli import main

DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.json"

SSF_CONFIG = {
    "dimension": 2,
    "backend": "continuum",
    "resolution": 4,
    "prototypes": {"kind": "constant", "values": {"a": 0.0, "b": 1.0}},
    "coloring": {
        "kind": "periodic", "period": [2, 2],
        "cell": {"0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"},
    },
    "window": {"lo": 0.0, "hi": 60.0, "p": 2.0},
    "ssf": {"cells": 3, "count": 30, "powers": [1, 2], "young_trials": 5},
}

# the d=2 i.i.d. path: estimated frequency tables and window tallies of a
# random coloring, whose tally order feeds freq_deviation_sum
IDS_RANDOM_2D_CONFIG = {
    "dimension": 2,
    "backend": "lattice",
    "prototypes": {"kind": "constant", "values": {"a": 0.0, "b": 1.0}},
    "coloring": {"kind": "random", "weights": {"a": 0.5, "b": 0.5}, "seed": 1},
    "sequence": {"kind": "cubes", "sides": [8, 16, 24]},
    "window": {"lo": 0.0, "hi": 4.5, "p": 2.0},
    "M_list": [1, 2, 3],
    "seed": 1,
}

# golden case -> (command, config written to a file; None for configs/default.json)
CASES = {
    "patterns": ("patterns", None),
    "ids": ("ids", None),
    "ids-random-2d": ("ids", IDS_RANDOM_2D_CONFIG),
    "weyl": ("weyl", None),
    "random": ("random", None),
    "ssf": ("ssf", SSF_CONFIG),
}

GOLDEN = {
    "patterns": {
        "frequencies_M1.json": "b68fab227cd0c61aabe2b6fd3b9846797aa2b60bfa6f0c528aa4c1d336cb8b57",
        "frequencies_M2.json": "bfa05e68ed164d48a45744fb9cb72f477b284bfa5fb2248cf964fff6e28c299a",
        "frequencies_M3.json": "9427a1278879cab6eef058244654395bf2013743200f9a555eef97ae880d5f83",
    },
    "ids": {
        "direct_route_j16.csv": "755b928ef461e274106bdc00d0705446cc1c2f242ccbf6a419b4900ed8562dec",
        "direct_route_j32.csv": "d1dfeeeac93d40fcd20d17f547f5dbd77ae062fd53c156b64bde96935e309e17",
        "direct_route_j64.csv": "c343595401afe1a9ac0b9629cb9cf4fe988364015bae9dab486d220733513d9f",
        "direct_route_j8.csv": "b2f14bf73c8d31d01ff5b600c3519d3a388f7cdd945ea92f952d5f698a95c849",
        "ids_report.json": "b3e9e98c5b7ee74dc3c6c0154f709d79d4497dfca702a268fc2cb20990aba60b",
        "pattern_route_M1.csv": "ef1d29cba6a06dc099e73f463971d807e7236ca47d066fd7739884ae61dcbba8",
        "pattern_route_M2.csv": "ddcad51715b08649c6c72fb2cd2d460cbebf1bcad5eb7f64e0f4cff371707380",
        "pattern_route_M3.csv": "05a3052a937a841024d6236bf07f08baabf8455de7a32f02c53da9ddd8ed5e1f",
    },
    "ids-random-2d": {
        "direct_route_j256.csv": "673dcfc58374625ecc9ac7bb4946dfa33d08b931a959c43eef29537232a20c5a",
        "direct_route_j576.csv": "111cb29d4509e7d13c1ca54dbc5aff5486188ae7fb59b752aeec77629a482981",
        "direct_route_j64.csv": "7f60b6cf30977c8e66d5ca41062e16411e4adafadda90ec1706c085517bbf026",
        "ids_report.json": "08c70ed9053f4aae2845fd92aea8af88fb8966884c10eab52f827ff114a177fe",
        "pattern_route_M1.csv": "ffd0e698d58660f0a9608980849038b6928c1d25d239e7a1df1e9b7c18d7da47",
        "pattern_route_M2.csv": "d901c89f4959121a5377d1a8baaaafdf5fc9937cc64f55cf44f32149efaa77db",
        "pattern_route_M3.csv": "e582b70c315b9517c0618c5b3c808d97203bcca7b63621118e651c6435fa213d",
    },
    "weyl": {
        "weyl_report.json": "f9e13c5f6509099dd3de78e39bd3f6fdfee58b632b75e16bd3ec884eb9640fc5",
    },
    "random": {
        "mc_estimate.csv": "02eab16bb42af75081e96c35b46d173917db68f3f279fd1b71015a9f4c81272c",
        "random_report.json": "d3022e44223f3048fa0d8ddbd595e8b0f4cbc9f4a9c4f7724bc1fea8ecff3aba",
    },
    "ssf": {
        "singular_values.csv": "e600268cd79e2edef0ab06e1913072fbb3695c621b2798756d723d947340d85b",
        "ssf_report.json": "681b323f346452ac87ab027d860a9ec42b6b85d0e1874c94a26b36e97115deeb",
        "xi.csv": "0e350698c1ff2c661ac56f16dfbdd9707823ea3b50e34a023819338842be40f3",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_data_files_match_golden_hashes(tmp_path, command):
    cli_command, raw = CASES[command]
    config = DEFAULT
    if raw is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([cli_command, "--config", str(config), "--out", str(out)]) == 0
    hashes = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir()) if f.name != "manifest.json"
    }
    assert hashes == GOLDEN[command]
