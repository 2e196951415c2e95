"""Experiment configuration: JSON schema, validation, object builders.

Configs are plain JSON; every field has a default and unknown keys are
rejected with the offending key path, so typos fail loudly before any
computation starts.  configs/default.json in the repository lists every
field explicitly with its default value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .lattice import (
    Coloring,
    PeriodicColoring,
    RandomColoring,
    WindowColoring,
    check_weights,
    cube_sequence,
    periodic_word,
)
from .operators import PrototypeLibrary
from .spectral import EnergyWindow

DEFAULT_MATRIX_CAP = 20_000
DEFAULT_DENSE_CAP = 3000


class ConfigError(ValueError):
    """Invalid configuration; message carries the JSON key path."""


def _require_keys(obj: Mapping, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _section(raw: Mapping, cfg: "ExperimentConfig", key: str) -> dict:
    """raw's nested section key: keys checked, missing ones filled from cfg's defaults."""
    given = _get(raw, key, dict, {}, "config")
    defaults = getattr(cfg, key)
    _require_keys(given, set(defaults), f"config.{key}")
    return {**defaults, **given}


def _check_int(section: Mapping, key: str, lo: int, path: str) -> None:
    val = section[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < lo:
        raise ConfigError(f"{path}.{key}: need an integer >= {lo}, got {val!r}")


def _check_weights(weights, path: str) -> None:
    if not isinstance(weights, dict):
        raise ConfigError(f"{path}: expected an object mapping symbols to weights")
    try:
        check_weights(list(weights), [float(w) for w in weights.values()])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None


# keys each coloring kind cannot do without
_COLORING_NEEDS = {"periodic-word": ("word",), "periodic": ("period", "cell"), "window": ("background",)}
# the key that holds each coloring kind's symbols
_COLORING_SYMBOLS = {
    "constant": "symbol", "periodic-word": "word", "periodic": "cell", "window": "window",
    "random": "weights",
}


def _finite(val, path: str) -> float:
    try:
        x = float(val)
    except (OverflowError, TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    return x


def _get(obj: Mapping, key: str, kind, default, path: str):
    if key not in obj:
        return default
    val = obj[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


@dataclass
class ExperimentConfig:
    """Validated experiment description with documented defaults."""

    dimension: int = 1
    backend: str = "lattice"
    resolution: int = 8
    prototypes: dict = field(default_factory=lambda: {
        "kind": "constant", "values": {"a": 0.0, "b": 1.0}})
    coloring: dict = field(default_factory=lambda: {
        "kind": "periodic-word", "word": "ab"})
    sequence: dict = field(default_factory=lambda: {
        "kind": "cubes", "sides": [8, 16, 32, 64]})
    window: dict = field(default_factory=lambda: {"lo": 0.0, "hi": 4.5, "p": 2.0})
    M_list: list = field(default_factory=lambda: [1, 2, 3])
    constants: dict = field(default_factory=lambda: {"C1": 0.0, "delta": 0.0})
    seed: int = 1234
    jobs: int = 1
    matrix_cap: int = DEFAULT_MATRIX_CAP
    dense_cap: int = DEFAULT_DENSE_CAP
    ssf: dict = field(default_factory=lambda: {
        "cells": 8, "count": 60, "powers": [1, 2, 3], "young_trials": 20})
    random: dict = field(default_factory=lambda: {
        "weights": {"a": 0.5, "b": 0.5}, "samples": 200, "truncation_radius": 32,
        "lambda_points": 201, "omegas": [40, 41, 42, 43, 44],
        "compare_volumes": [32, 256]})
    output_dir: str = "out"


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}


def validate_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Check types, ranges, and key names; return the validated config."""
    _require_keys(raw, _TOP_KEYS, "config")
    cfg = ExperimentConfig()

    cfg.dimension = _get(raw, "dimension", int, cfg.dimension, "config")
    if cfg.dimension not in (1, 2, 3):
        raise ConfigError(f"config.dimension: supported dimensions are 1, 2, 3; got {cfg.dimension}")
    cfg.backend = _get(raw, "backend", str, cfg.backend, "config")
    if cfg.backend not in ("lattice", "continuum"):
        raise ConfigError(f"config.backend: expected 'lattice' or 'continuum', got {cfg.backend!r}")
    cfg.resolution = _get(raw, "resolution", int, cfg.resolution, "config")
    if cfg.resolution < 2:
        raise ConfigError("config.resolution: must be >= 2")

    cfg.prototypes = dict(_get(raw, "prototypes", dict, cfg.prototypes, "config"))
    _require_keys(cfg.prototypes, {"kind", "values", "path", "alphabet"}, "config.prototypes")
    kind = cfg.prototypes.get("kind", "constant")
    if kind not in ("constant", "file", "zero"):
        raise ConfigError(f"config.prototypes.kind: unknown kind {kind!r}")

    cfg.coloring = dict(_get(raw, "coloring", dict, cfg.coloring, "config"))
    _require_keys(
        cfg.coloring,
        {"kind", "word", "period", "cell", "window", "background", "weights", "seed", "symbol"},
        "config.coloring",
    )
    kind = cfg.coloring.get("kind")
    if kind not in ("periodic-word", "periodic", "window", "random", "constant"):
        raise ConfigError(f"config.coloring.kind: unknown kind {kind!r}")
    for key in _COLORING_NEEDS.get(kind, ()):
        if key not in cfg.coloring:
            raise ConfigError(f"config.coloring.{key}: required for kind {kind!r}")
    if kind == "random" and "weights" in cfg.coloring:
        _check_weights(cfg.coloring["weights"], "config.coloring.weights")
    for key in ("cell", "window"):
        if not isinstance(cfg.coloring.get(key, {}), dict):
            raise ConfigError(f"config.coloring.{key}: expected an object mapping site keys to symbols")

    cfg.sequence = _section(raw, cfg, "sequence")
    if cfg.sequence["kind"] != "cubes":
        raise ConfigError("config.sequence.kind: only 'cubes' is supported")
    sides = cfg.sequence["sides"]
    if not (isinstance(sides, list) and sides and all(isinstance(s, int) and s >= 1 for s in sides)):
        raise ConfigError("config.sequence.sides: need a nonempty list of positive integers")

    cfg.window = _section(raw, cfg, "window")
    for key in ("lo", "hi", "p"):
        _finite(cfg.window[key], f"config.window.{key}")
    try:
        build_window(cfg)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config.window: {e}") from None

    cfg.M_list = _get(raw, "M_list", list, cfg.M_list, "config")
    if not cfg.M_list or not all(isinstance(m, int) and m >= 1 for m in cfg.M_list):
        raise ConfigError("config.M_list: need a nonempty list of positive integers")

    cfg.constants = _section(raw, cfg, "constants")
    for key, lo in (("C1", -1e30), ("delta", 0.0)):
        val = cfg.constants[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"config.constants.{key}: expected a number")
        _finite(val, f"config.constants.{key}")
        if val < lo:
            raise ConfigError(f"config.constants.{key}: must be >= {lo}")
    if cfg.constants["delta"] >= 1.0:
        raise ConfigError("config.constants.delta: must be < 1")

    cfg.seed = _get(raw, "seed", int, cfg.seed, "config")
    # jobs has no effect; it stays accepted while the benchmark workload configs set it
    cfg.jobs = _get(raw, "jobs", int, cfg.jobs, "config")
    if cfg.jobs < 1:
        raise ConfigError("config.jobs: must be >= 1")
    cfg.matrix_cap = _get(raw, "matrix_cap", int, cfg.matrix_cap, "config")
    cfg.dense_cap = _get(raw, "dense_cap", int, cfg.dense_cap, "config")
    for key in ("matrix_cap", "dense_cap"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"config.{key}: must be >= 1")

    cfg.ssf = _section(raw, cfg, "ssf")
    _check_int(cfg.ssf, "cells", 2, "config.ssf")  # one internal facet at least
    _check_int(cfg.ssf, "count", 10, "config.ssf")  # the decay fit needs 10 values
    _check_int(cfg.ssf, "young_trials", 0, "config.ssf")
    powers = cfg.ssf["powers"]
    if not isinstance(powers, list) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) and 1 <= p < math.inf for p in powers
    ):
        raise ConfigError(f"config.ssf.powers: need a list of finite numbers >= 1, got {powers!r}")

    cfg.random = _section(raw, cfg, "random")
    _check_weights(cfg.random["weights"], "config.random.weights")
    for key in ("samples", "truncation_radius", "lambda_points"):
        _check_int(cfg.random, key, 1, "config.random")
    for key, lo in (("omegas", 0), ("compare_volumes", 1)):
        val = cfg.random[key]
        if not (isinstance(val, list) and val):
            raise ConfigError(f"config.random.{key}: need a nonempty list")
        for i in range(len(val)):
            _check_int(val, i, lo, f"config.random.{key}")
    # sample_coloring hashes each omega as a signed 64-bit integer
    if max(cfg.random["omegas"]) >= 2**63:
        raise ConfigError("config.random.omegas: need integers below 2**63")

    cfg.output_dir = _get(raw, "output_dir", str, cfg.output_dir, "config")
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return validate_config(raw)


def config_to_json(cfg: ExperimentConfig) -> str:
    obj = {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)}
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _parse_site_key(key: str, d: int, path: str) -> tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != d:
        raise ConfigError(f"{path}: site key {key!r} does not have {d} coordinates")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{path}: site key {key!r} is not integer coordinates") from None


def build_coloring(cfg: ExperimentConfig) -> Coloring:
    try:
        return _coloring(cfg)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config.coloring: {e}") from None


def _coloring(cfg: ExperimentConfig) -> Coloring:
    spec = cfg.coloring
    kind = spec["kind"]
    d = cfg.dimension
    if kind == "constant":
        sym = str(spec.get("symbol", "a"))
        return PeriodicColoring(period=(1,) * d, cell={(0,) * d: sym})
    if kind == "periodic-word":
        if d != 1:
            raise ConfigError("config.coloring: periodic-word requires dimension 1")
        return periodic_word(str(spec["word"]))
    if kind == "periodic":
        period = tuple(int(p) for p in spec["period"])
        if len(period) != d:
            raise ConfigError("config.coloring.period: length must equal dimension")
        cell = {
            _parse_site_key(k, d, "config.coloring.cell"): str(v)
            for k, v in spec["cell"].items()
        }
        return PeriodicColoring(period=period, cell=cell)
    if kind == "window":
        window = {
            _parse_site_key(k, d, "config.coloring.window"): str(v)
            for k, v in spec.get("window", {}).items()
        }
        return WindowColoring(window=window, background=str(spec["background"]), dim=d)
    if kind == "random":
        weights = spec.get("weights", {"a": 0.5, "b": 0.5})
        symbols = tuple(sorted(weights))
        return RandomColoring(
            seed=int(spec.get("seed", cfg.seed)),
            symbols=symbols,
            weights=tuple(float(weights[s]) for s in symbols),
            dim=d,
        )
    raise ConfigError(f"config.coloring.kind: unknown kind {kind!r}")


def build_library(cfg: ExperimentConfig) -> PrototypeLibrary:
    """The prototype library; a relative prototypes.path resolves against the working directory."""
    spec = cfg.prototypes
    kind = spec.get("kind", "constant")
    if kind == "constant":
        values = spec.get("values")
        if not isinstance(values, dict):
            raise ConfigError("config.prototypes.values: kind 'constant' needs an object mapping symbols to numbers")
        values = {str(k): _finite(v, f"config.prototypes.values.{k}") for k, v in values.items()}
        try:
            return PrototypeLibrary.constant_potentials(values, cfg.resolution, cfg.dimension)
        except ValueError as e:  # a cell mean that overflows, or no symbol at all
            raise ConfigError(f"config.prototypes.values: {e}") from None
    if kind == "zero":
        alphabet = spec.get("alphabet", ["a"])
        if not (isinstance(alphabet, (list, str)) and alphabet):  # a string lists its characters
            raise ConfigError("config.prototypes.alphabet: kind 'zero' needs a nonempty list of symbols")
        return PrototypeLibrary.zero([str(s) for s in alphabet], cfg.resolution, cfg.dimension)
    if kind == "file":
        if "path" not in spec:
            raise ConfigError("config.prototypes.path: required for kind 'file'")
        try:
            lib = PrototypeLibrary.from_json(Path(spec["path"]).read_text())
        except OSError as e:
            raise ConfigError(f"config.prototypes.path: {e}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as e:  # JSONDecodeError included
            raise ConfigError(
                f"config.prototypes.path: {spec['path']} is not a prototype library: {e!r}"
            ) from None
        if lib.dimension != cfg.dimension:
            raise ConfigError(f"config.prototypes: file dimension {lib.dimension} != {cfg.dimension}")
        if cfg.backend == "continuum" and lib.resolution != cfg.resolution:
            raise ConfigError(
                f"config.prototypes: file resolution {lib.resolution} != {cfg.resolution}"
            )
        return lib
    raise ConfigError(f"config.prototypes.kind: unknown kind {kind!r}")


def check_prototypes(symbols, library: PrototypeLibrary, path: str) -> None:
    """ConfigError at path unless the library has a prototype for every symbol."""
    missing = sorted(set(symbols) - set(library.symbols))
    if missing:
        raise ConfigError(f"{path}: no prototype for symbols {missing}")


def build_model(cfg: ExperimentConfig) -> tuple[Coloring, PrototypeLibrary]:
    """The coloring and the prototype library, checked to fit each other."""
    coloring = build_coloring(cfg)
    library = build_library(cfg)
    kind = cfg.coloring["kind"]
    key = _COLORING_SYMBOLS[kind]
    if kind == "window" and str(cfg.coloring["background"]) not in library.symbols:
        key = "background"
    check_prototypes(coloring.alphabet, library, f"config.coloring.{key}")
    return coloring, library


def build_sequence(cfg: ExperimentConfig):
    return cube_sequence([int(s) for s in cfg.sequence["sides"]], cfg.dimension)


def build_window(cfg: ExperimentConfig) -> EnergyWindow:
    w = cfg.window
    return EnergyWindow(float(w["lo"]), float(w["hi"]), float(w["p"]))
