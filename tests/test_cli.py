"""CLI subcommands, config validation, artifact determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from idslab.cli import main
from idslab.config import (
    ConfigError,
    ExperimentConfig,
    build_coloring,
    build_library,
    load_config,
    validate_config,
)

DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.json"
DATA = Path(__file__).resolve().parent / "data"


def write_cfg(tmp_path, **overrides):
    cfg = json.loads(DEFAULT.read_text())
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_default_config_file_is_valid_and_complete():
    cfg = load_config(DEFAULT)
    # the shipped example lists every field explicitly
    raw = json.loads(DEFAULT.read_text())
    from dataclasses import fields

    assert set(raw) == {f.name for f in fields(ExperimentConfig)}
    assert cfg.backend == "lattice"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        validate_config({"bogus": 1})
    with pytest.raises(ConfigError, match="config.window"):
        validate_config({"window": {"lo": 0.0, "hi": 1.0, "nope": 2}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        validate_config({"dimension": 4})
    with pytest.raises(ConfigError):
        validate_config({"backend": "quantum"})
    with pytest.raises(ConfigError):
        validate_config({"M_list": []})
    with pytest.raises(ConfigError):
        validate_config({"window": {"lo": 2.0, "hi": 1.0}})
    with pytest.raises(ConfigError):
        validate_config({"constants": {"delta": 1.5}})
    for window in ({"lo": 0.0, "hi": float("inf")}, {"lo": float("nan"), "hi": 1.0}):
        with pytest.raises(ConfigError, match="config.window"):
            validate_config({"window": window})


@pytest.mark.parametrize("command, overrides, key", [
    ("ssf", {"backend": "continuum", "ssf": {"cells": "abc"}}, "config.ssf.cells"),
    ("ssf", {"backend": "continuum", "ssf": {"count": 5}}, "config.ssf.count"),
    ("random", {"random": {"samples": 0}}, "config.random.samples"),
    ("random", {"random": {"truncation_radius": 0}}, "config.random.truncation_radius"),
    ("random", {"random": {"lambda_points": "x"}}, "config.random.lambda_points"),
    ("random", {"random": {"weights": {"a": 0.7, "b": 0.7}}}, "config.random.weights"),
    ("ids", {"matrix_cap": 0}, "config.matrix_cap"),
    ("random", {"matrix_cap": 0}, "config.matrix_cap"),
    ("ids", {"coloring": {"kind": "periodic", "period": [2]}}, "config.coloring.cell"),
    ("ids", {"coloring": {"kind": "periodic-word"}}, "config.coloring.word"),
    ("ids", {"prototypes": {"kind": "constant"}}, "config.prototypes.values"),
    ("ids", {"prototypes": {"kind": "constant", "values": {"a": "x", "b": 1.0}}},
     "config.prototypes.values.a"),
    ("ids", {"coloring": {"kind": "periodic", "period": [2], "cell": "x"}}, "config.coloring.cell"),
    ("ids", {"coloring": {"kind": "constant", "symbol": "q"}}, "config.coloring.symbol"),
    ("random", {"random": {"weights": {"a": 0.5, "q": 0.5}}}, "config.random.weights"),
    ("ids", {"prototypes": {"kind": "file"}}, "config.prototypes.path"),
    ("ids", {"prototypes": {"kind": "file", "path": "no/such/prototypes.json"}},
     "config.prototypes.path"),
    # more singular values than the matrix dimension (3, and 121 on the golden operator)
    ("ssf", {"backend": "continuum", "resolution": 2, "ssf": {"cells": 2, "count": 10}},
     "config.ssf.count"),
    ("ssf", {"dimension": 2, "backend": "continuum", "resolution": 4,
             "coloring": {"kind": "periodic", "period": [2, 2],
                          "cell": {"0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"}},
             "window": {"lo": 0.0, "hi": 60.0, "p": 2.0}, "ssf": {"cells": 3, "count": 500}},
     "config.ssf.count"),
    # the paper's exponent is 1 <= p < inf
    ("ids", {"window": {"lo": 0.0, "hi": 4.5, "p": float("inf")}}, "config.window.p"),
    ("random", {"window": {"lo": 0.0, "hi": 4.5, "p": float("nan")}}, "config.window.p"),
    # exp(hi) of the heat-semigroup bound overflows
    ("ids", {"window": {"lo": 0.0, "hi": 710.0, "p": 2.0}}, "config.window.hi"),
    ("ssf", {"backend": "continuum", "window": {"lo": 0.0, "hi": 710.0, "p": 2.0}},
     "config.window.hi"),
    # not a van Hove sequence
    ("ids", {"sequence": {"kind": "cubes", "sides": [8, 8]}}, "config.sequence.sides"),
    ("ids", {"sequence": {"kind": "cubes", "sides": [16, 8]}}, "config.sequence.sides"),
    # an operator larger than the cap (at most dimension 64 in ids, 256 in random)
    ("ids", {"matrix_cap": 10}, "config.matrix_cap"),
    ("random", {"matrix_cap": 10}, "config.matrix_cap"),
    # the weyl cubes (up to 64), the ssf facet cube (63), the continuum ids
    # calibration pair (15) and the random boxes of sides 2R+1 = 7 and 4R+1 = 13
    ("weyl", {"matrix_cap": 10}, "config.matrix_cap"),
    ("ssf", {"backend": "continuum", "dense_cap": 10}, "config.dense_cap"),
    ("ids", {"backend": "continuum", "dense_cap": 10}, "config.dense_cap"),
    ("random", {"dense_cap": 5, "random": {"truncation_radius": 3, "compare_volumes": [4, 8]}},
     "config.dense_cap"),
    ("random", {"dense_cap": 10, "random": {"truncation_radius": 3, "compare_volumes": [4, 8]}},
     "config.dense_cap"),
    # empty lists of omegas or of compare volumes
    ("random", {"random": {"omegas": []}}, "config.random.omegas"),
    ("random", {"random": {"compare_volumes": []}}, "config.random.compare_volumes"),
    # a cell mean that overflows a float
    ("ids", {"prototypes": {"kind": "constant", "values": {"a": 1e308, "b": 1e308}}},
     "config.prototypes.values"),
    ("random", {"prototypes": {"kind": "constant", "values": {"a": 1e308, "b": 1e308}}},
     "config.prototypes.values"),
    # prototype files that hold no library
    *[("ids", {"prototypes": {"kind": "file", "path": str(DATA / name)}}, "config.prototypes.path")
      for name in ("prototypes_not_json.txt", "prototypes_non_numeric.json",
                   "prototypes_without_v.json", "prototypes_overflowing_mean.json")],
    ("ids", {"prototypes": {"kind": "zero", "alphabet": []}}, "config.prototypes.alphabet"),
    ("ids", {"prototypes": {"kind": "zero", "alphabet": 5}}, "config.prototypes.alphabet"),
    # sample_coloring packs each omega as a signed 64-bit integer
    ("random", {"random": {"omegas": [0, 2**63]}}, "config.random.omegas"),
    # non-finite exponents and constants
    ("ssf", {"backend": "continuum", "ssf": {"powers": [float("inf")]}}, "config.ssf.powers"),
    ("ssf", {"backend": "continuum", "ssf": {"powers": [2, float("nan")]}}, "config.ssf.powers"),
    ("ids", {"constants": {"C": float("nan")}}, "config.constants.C"),
    ("weyl", {"constants": {"C1": float("inf")}}, "config.constants.C1"),
    ("ids", {"constants": {"c_pd": 10**400}}, "config.constants.c_pd"),
    # an estimated table whose box holds no window of side M
    ("ids", {"coloring": {"kind": "random"}, "M_list": [1, 65]}, "config.M_list"),
    ("ids", {"coloring": {"kind": "window", "background": "a"}, "M_list": [1, 9],
             "sequence": {"kind": "cubes", "sides": [4, 8]}}, "config.M_list"),
    # the counting-form bound needs positive constants
    ("ids", {"constants": {"C": 0.0}}, "config.constants.C"),
    ("ids", {"constants": {"c_pd": 0}}, "config.constants.c_pd"),
])
def test_bad_inputs_exit_2_naming_their_key(tmp_path, capsys, command, overrides, key):
    raw = json.loads(DEFAULT.read_text())
    for name, val in overrides.items():
        # nested ssf/random entries replace single keys; other values replace wholesale
        raw[name] = {**raw[name], **val} if name in ("ssf", "random") else val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_ssf_at_a_large_power_reports_an_infinite_bound_that_holds(tmp_path, capsys):
    # the p = 1000 bound exp(T) <phi, mu> has a logarithm of about 3,099
    path = write_cfg(tmp_path, backend="continuum", resolution=4,
                     ssf={"cells": 6, "count": 23, "powers": [2, 1000]})
    assert main(["ssf", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "2 L^p bounds hold" in capsys.readouterr().out
    text = (tmp_path / "o" / "ssf_report.json").read_text()
    bounds = json.loads(text)["lp_bounds"]
    assert "NaN" not in text and bounds["p1000"]["hs_bound"] == float("inf")
    assert bounds["p1000"]["holds"] is True and bounds["p2"]["holds"] is True


def test_oversized_random_boxes_are_refused_before_any_is_listed(tmp_path):
    # the 401^3 truncation box would not fit in 2 GB of address space as a site set
    path = write_cfg(tmp_path, dimension=3, random={"truncation_radius": 100, "compare_volumes": [2]})
    child = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from idslab.cli import main; "
        f"sys.exit(main(['random', '--config', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert "config.dense_cap" in done.stderr and "Traceback" not in done.stderr


def test_a_period_too_large_to_list_is_refused_before_it_is_listed(tmp_path):
    # the 2**32 sites of this period cell would not fit in 2 GB of address space as a set
    path = write_cfg(tmp_path, dimension=2, coloring={
        "kind": "periodic", "period": [2**31, 2], "cell": {"0,0": "a", "1,0": "b"}})
    child = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from idslab.cli import main; "
        f"sys.exit(main(['patterns', '--config', {str(path)!r}, '--out', {str(tmp_path / 'o')!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2
    assert "config.coloring: cell assignment must cover exactly one period cell" in done.stderr
    assert "Traceback" not in done.stderr


def test_ssf_with_too_few_singular_values_above_the_floor_exits_1(tmp_path, capsys):
    # dimension 11 holds 11 values, but only 9 lie above the fit's floor
    path = write_cfg(tmp_path, backend="continuum", resolution=2,
                     ssf={"cells": 6, "count": 11})
    assert main(["ssf", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "singular values above" in err
    assert "Traceback" not in err


def test_ssf_names_a_failed_eigensystem_step(tmp_path, capsys, monkeypatch):
    # the facet cube's tridiagonal eigenproblem, the second step of eigensystem
    monkeypatch.setattr(
        scipy.linalg.lapack, "dstevd", lambda d, e, **kwargs: (d, np.eye(len(d)), 3)
    )
    path = write_cfg(tmp_path, backend="continuum", resolution=2, ssf={"cells": 6, "count": 10})
    assert main(["ssf", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: LAPACK dstevd failed with info=3 on a matrix of order" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    {"sequence": {"sides": [8, 16]}},
    {"dimension": 2, "backend": "continuum", "resolution": 4, "sequence": {"sides": [2, 4]},
     "coloring": {"kind": "periodic", "period": [2, 2],
                  "cell": {"0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"}},
     "window": {"hi": 60.0}},
], ids=["lattice-d1", "continuum-d2"])
def test_ids_at_a_large_p_reports_finite_numbers(tmp_path, capsys, overrides):
    # |N_1 - N_2|^p underflows and F(n) = n^p overflows at p = 1000
    path = write_cfg(tmp_path, window={"p": 1000.0, **overrides.pop("window", {})}, **overrides)
    assert main(["ids", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "ids_report.json").read_text())
    rows = report["route_distances"]
    assert all(0 < row["distance"] <= row["bound"] < np.inf for row in rows)


SMALL_RANDOM = {"samples": 6, "truncation_radius": 3, "lambda_points": 11,
                "omegas": [0], "compare_volumes": [4, 8]}


def test_random_names_a_failed_tridiagonal_solve(tmp_path, capsys, monkeypatch):
    # the d=1 estimates solve their chains for eigenvalues alone, as bands
    monkeypatch.setattr(
        scipy.linalg.lapack, "dsbevd",
        lambda ab, **kwargs: (np.zeros(ab.shape[1]), np.zeros((1, 1)), 1),
    )
    path = write_cfg(tmp_path, random=SMALL_RANDOM)
    assert main(["random", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: LAPACK dsbevd failed with info=1 on a band matrix of order 7" in err
    assert "Traceback" not in err


def test_random_names_a_failed_inverse_iteration(tmp_path, capsys, monkeypatch):
    # chain masses the twisted factorization does not trust come from dstein
    monkeypatch.setattr(
        scipy.linalg.lapack, "dstein", lambda d, e, w, *args: (np.zeros((len(d), len(w))), 1)
    )
    path = write_cfg(tmp_path, random=SMALL_RANDOM)
    assert main(["random", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: LAPACK dstein failed with info=1 on a matrix of order 7" in err
    assert "Traceback" not in err


def test_ssf_names_a_failed_eigenvalue_solve(tmp_path, capsys, monkeypatch):
    # the singular values of V_eff are the absolute values of its eigenvalues
    def failing(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    path = write_cfg(tmp_path, backend="continuum", resolution=2, ssf={"cells": 6, "count": 10})
    assert main(["ssf", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "numerical failure: np.linalg.eigvalsh failed (Eigenvalues did not converge)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, overrides", [
    # random reads neither the coloring (the default one needs dimension 1) nor its symbols
    ("random", {"dimension": 2, "coloring": None}),
    ("random", {"prototypes": {"kind": "constant", "values": {"x": 0.0, "y": 1.0}},
                "random": {"weights": {"x": 0.5, "y": 0.5}}}),
    # patterns never assembles, so the prototypes need not cover the coloring
    ("patterns", {"prototypes": {"kind": "constant", "values": {"x": 0.0}}}),
    # the library builder applies float() and str() to these
    ("ids", {"prototypes": {"kind": "constant", "values": {"a": "0.0", "b": "1.0"}}}),
    ("ids", {"prototypes": {"kind": "zero", "alphabet": "ab"}}),
])
def test_sections_a_command_does_not_read_are_not_refused(tmp_path, command, overrides):
    raw = {**json.loads(DEFAULT.read_text()), "sequence": {"kind": "cubes", "sides": [4, 8]},
           "M_list": [1], "random": SMALL_RANDOM}
    for name, val in overrides.items():
        if val is None:
            del raw[name]
        else:
            raw[name] = {**raw[name], **val} if name == "random" else val
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_missing_section_keys_take_their_defaults():
    cfg = validate_config({"window": {"hi": 3.0}, "ssf": {"cells": 4}})
    assert cfg.window == {"lo": 0.0, "hi": 3.0, "p": 2.0}
    assert cfg.ssf == {**ExperimentConfig().ssf, "cells": 4}
    assert cfg.random == ExperimentConfig().random


@pytest.mark.parametrize("command", ["ids", "weyl"])
def test_a_sequence_without_sides_takes_the_default_sides(tmp_path, command):
    raw = json.loads(DEFAULT.read_text())
    assert raw["sequence"]["sides"] == ExperimentConfig().sequence["sides"]
    outs = {}
    for tag, sequence in (("given", raw["sequence"]), ("default", {"kind": "cubes"})):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps({**raw, "sequence": sequence}))
        out = tmp_path / tag
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        outs[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    assert outs["default"] == outs["given"]


def test_json_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dimension": 1,\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_builders():
    cfg = validate_config({})
    coloring = build_coloring(cfg)
    assert coloring.color((0,)) == "a" and coloring.color((1,)) == "b"
    lib = build_library(cfg)
    assert lib.symbols == ("a", "b")
    cfg2 = validate_config({
        "dimension": 2,
        "coloring": {"kind": "periodic", "period": [2, 2], "cell": {
            "0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"}},
        "prototypes": {"kind": "zero", "alphabet": ["a", "b"]},
    })
    C = build_coloring(cfg2)
    assert C.color((0, 0)) == "a" and C.color((3, 2)) == "b"


def test_random_coloring_builder():
    cfg = validate_config({
        "coloring": {"kind": "random", "weights": {"a": 0.25, "b": 0.75}, "seed": 5}})
    C = build_coloring(cfg)
    assert C.symbols == ("a", "b") and C.weights == (0.25, 0.75)


def test_window_coloring_builder():
    cfg = validate_config({
        "coloring": {"kind": "window", "window": {"0": "x", "3": "x"}, "background": "a"},
        "prototypes": {"kind": "constant", "values": {"a": 0.0, "x": 2.0}},
    })
    C = build_coloring(cfg)
    assert C.color((0,)) == "x" and C.color((1,)) == "a" and C.color((99,)) == "a"


# ---------------------------------------------------------------------------
# subcommand round trips
# ---------------------------------------------------------------------------

def test_patterns_command_emits_exact_tables(tmp_path):
    out = tmp_path / "out"
    rc = main(["patterns", "--config", str(DEFAULT), "--out", str(out)])
    assert rc == 0
    obj = json.loads((out / "frequencies_M1.json").read_text())
    assert obj["exact"] is True
    assert obj["entries"] == {"0=a": {"num": 1, "den": 2}, "0=b": {"num": 1, "den": 2}}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "patterns"
    assert "timestamp" in manifest


def test_ids_command_small(tmp_path):
    cfg = write_cfg(tmp_path, sequence={"sides": [4, 8]}, M_list=[1, 2])
    out = tmp_path / "out"
    rc = main(["ids", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "ids_report.json").read_text())
    for row in report["route_distances"]:
        assert row["distance"] <= row["bound"]
        assert row["bound_counting_form"] > 0
    assert (out / "direct_route_j4.csv").exists()
    assert (out / "pattern_route_M2.csv").exists()


@pytest.mark.parametrize("overrides", [
    {},
    {"dimension": 2, "coloring": {"kind": "periodic", "period": [2, 2],
                                  "cell": {"0,0": "a", "1,0": "b", "0,1": "b", "1,1": "a"}}},
    {"backend": "continuum", "resolution": 4, "window": {"lo": 0.0, "hi": 10.0}},
], ids=["lattice-d1", "lattice-d2", "continuum-d1"])
def test_ids_builds_no_dense_matrix(tmp_path, monkeypatch, overrides):
    """The calibration pair is solved as bands: no dense lattice model, no band scan."""
    from idslab import operators, spectral

    def refuse(*args, **kwargs):
        raise AssertionError("the dense-matrix path was taken")

    for original in (operators.lattice_model, spectral.lower_band):
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "idslab"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    cfg = write_cfg(tmp_path, sequence={"sides": [2, 4]}, M_list=[1, 2], **overrides)
    assert main(["ids", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("window, status", [
    ({"lo": -1.0, "hi": 0.0}, 0),
    ({"lo": -3.0, "hi": -1.0}, 0),
    ({"lo": -5.0, "hi": -3.0}, 2),  # hi + constants.C < 0
])
def test_ids_windows_at_or_below_zero(tmp_path, capsys, window, status):
    cfg = write_cfg(tmp_path, window=window)
    out = tmp_path / "out"
    assert main(["ids", "--config", str(cfg), "--out", str(out)]) == status
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if status == 2:
        assert "config.window.hi" in err
        return
    report = json.loads((out / "ids_report.json").read_text())
    assert isinstance(report["fitted_K"], float)
    for row in report["route_distances"]:
        assert isinstance(row["bound_counting_form"], float)
        assert row["distance"] <= row["bound"]


def test_ids_rejects_empty_M_list(tmp_path):
    cfg = write_cfg(tmp_path, M_list=[])
    rc = main(["ids", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_ssf_command_requires_continuum(tmp_path):
    rc = main(["ssf", "--config", str(DEFAULT), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_ssf_command_small(tmp_path):
    cfg = write_cfg(
        tmp_path, backend="continuum", window={"lo": 0.0, "hi": 10.0},
        ssf={"cells": 8, "count": 40, "powers": [1, 2], "young_trials": 5},
    )
    out = tmp_path / "out"
    rc = main(["ssf", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "ssf_report.json").read_text())
    assert report["decay_fit"]["c_hat"] > 0
    assert report["lp_bounds"]["p1"]["holds"]
    assert (out / "xi.csv").read_text().splitlines()[1] == "breakpoint,value"


def test_weyl_command(tmp_path):
    cfg = write_cfg(tmp_path, sequence={"sides": [4, 8]})
    out = tmp_path / "out"
    rc = main(["weyl", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "weyl_report.json").read_text())
    assert all(row["margin"] > 0 for row in report["rows"])


def test_random_command_small(tmp_path):
    cfg = write_cfg(tmp_path, random={
        "samples": 8, "truncation_radius": 5, "lambda_points": 11,
        "omegas": [0, 1], "compare_volumes": [4, 8]})
    out = tmp_path / "out"
    rc = main(["random", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "random_report.json").read_text())
    assert report["two_seed_agreement"]["agree_within_3se"]
    assert report["truncation"]["semigroup_diagnostic"] < 1e-6
    assert (out / "mc_estimate.csv").exists()


def test_random_seed_21_of_the_monte_carlo_benchmark_config_agrees(tmp_path):
    # the random-mc-1d benchmark workload; its seeds 21 and 22 differ by more
    # than 3 combined standard errors at one of the 201 lambdas, which is no
    # evidence against equal means once the test accounts for all 201
    cfg = write_cfg(tmp_path, seed=21, window={"lo": 0.0, "hi": 4.5, "p": 2.0}, random={
        "weights": {"a": 0.5, "b": 0.5}, "samples": 800, "truncation_radius": 48,
        "lambda_points": 201})
    out = tmp_path / "out"
    assert main(["random", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "random_report.json").read_text())
    assert report["two_seed_agreement"]["agree_within_3se"]


def test_rerun_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, sequence={"sides": [4, 8]}, M_list=[1])
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({
            f.name: f.read_bytes() for f in sorted(out.iterdir())
            if f.name != "manifest.json"
        })
    assert outs[0] == outs[1]


def test_verify_command_passes_on_default_config(tmp_path):
    out = tmp_path / "verify"
    rc = main(["verify", "--config", str(DEFAULT), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "acceptance_report.json").read_text())
    assert len(report) == 9
    assert all(r["passed"] for r in report)


def test_seed_override_changes_random_outputs(tmp_path):
    cfg = write_cfg(tmp_path, random={
        "samples": 6, "truncation_radius": 4, "lambda_points": 11,
        "omegas": [0], "compare_volumes": [4, 8]})
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        assert main(["random", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
        texts.append((out / "mc_estimate.csv").read_text())
    assert texts[0] != texts[1]
