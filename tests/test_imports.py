"""Every import in src/idslab is used, every definition there is named by the
program, every parameter default there is overridden by some call, every
config field is read, every eigensolver is called only at its sites
(eigenvectors in spectral.eigensystem), every band is written by the
assembly fill, every dense matrix is turned into a band only where
it enters from outside, every eigenvalue count is certified through
spectral.certified_below, the program forks only in spectral.in_workers (no
linter is installed, so this test is the lint), and importing the CLI stays
cheap."""

import ast
import os
import re
import subprocess
import symtable
import sys
from dataclasses import fields
from pathlib import Path

from idslab.config import ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "idslab"
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent


def _used_below(table: symtable.SymbolTable, name: str) -> bool:
    """Whether a scope nested in table reads name without binding its own."""
    for child in table.get_children():
        try:
            sym = child.lookup(name)
        except KeyError:
            sym = None
        if sym is not None and not sym.is_global() and (
            sym.is_parameter() or (sym.is_local() and sym.is_assigned())
        ):
            continue
        if (sym is not None and sym.is_referenced()) or _used_below(child, name):
            return True
    return False


def _annotation_names(tree: ast.AST) -> set[str]:
    # symtable skips annotations under `from __future__ import annotations`
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {
        n.id for a in annotations if a is not None
        for n in ast.walk(a) if isinstance(n, ast.Name)
    }


def unused_imports(source: str, filename: str) -> list[str]:
    in_annotations = _annotation_names(ast.parse(source))
    unused = []

    def visit(table):
        for sym in table.get_symbols():
            name = sym.get_name()
            if (
                sym.is_imported() and name != "annotations"
                and not sym.is_referenced() and not _used_below(table, name)
                and name not in in_annotations
            ):
                unused.append(f"{filename}: {name} in {table.get_name()}")
        for child in table.get_children():
            visit(child)

    visit(symtable.symtable(source, filename, "exec"))
    return unused


def test_checker_flags_unused_and_shadowed_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Sequence\n"
        "from dataclasses import field\n"
        "def f(field, xs: Sequence):\n"
        "    import json\n"
        "    return field\n"
    )
    assert unused_imports(source, "m.py") == ["m.py: os in top", "m.py: field in top", "m.py: json in f"]


def test_src_has_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unused_imports(path.read_text(), path.name)
    assert found == []


def unreferenced_definitions(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Functions, classes and methods of the defining sources (dunders exempt) whose
    name appears in no reader outside the definition itself."""
    found = []
    for filename, source in defining.items():
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            texts = [text for other, text in readers.items() if other != filename]
            texts.append("\n".join(lines[:start] + lines[node.end_lineno:]))
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(text) for text in texts):
                found.append(f"{filename}: {name}")
    return found


def test_checker_flags_unreferenced_definitions():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    def unused():\n"
        "        return A.unused()\n"
        "def helper():\n"
        "    return 'm:named_in_a_string'\n"
        "def named_in_a_string():\n"
        "    pass\n"
    )
    readers = {"m.py": source, "n.py": "from m import A, helper\n"}
    assert unreferenced_definitions({"m.py": source}, readers) == ["m.py: unused"]


def test_src_has_no_unreferenced_definitions():
    src = {f"idslab/{p.name}": p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = {f"perfbench/{p.name}": p.read_text() for p in sorted(PERFBENCH.glob("*.py"))}
    assert unreferenced_definitions(src, {**src, **bench}) == []


def _calls_by_name(sources: dict[str, str]) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def unset_parameters(defining: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Parameters with a default, in the functions of the defining sources, that no
    call in the callers sets: by keyword, by position or through * or ** unpacking.
    A call matches every function of its name, and a call of a class is a call of
    its __init__; the self or cls of a method is never counted."""
    calls = _calls_by_name(callers)
    found = []
    for filename, source in defining.items():
        tree = ast.parse(source)
        owner = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner[fn] if isinstance(owner[fn], ast.ClassDef) else None
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if cls is not None and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(fn.args.defaults):] + [
                a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
            ]
            sites = calls.get(fn.name, [])
            if cls is not None and fn.name == "__init__":
                sites = sites + calls.get(cls.name, [])
            given = set()
            for call in sites:
                for i, arg in enumerate(call.args):
                    given.update(positional[i:] if isinstance(arg, ast.Starred) else positional[i:i + 1])
                for kw in call.keywords:
                    given.update(defaulted if kw.arg is None else [kw.arg])
            qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
            found += [f"{filename}: {qualname}({name})" for name in defaulted if name not in given]
    return found


def test_checker_flags_unset_parameters():
    source = (
        "class A:\n"
        "    def __init__(self, x=1, y=2):\n"
        "        pass\n"
        "    def m(self, p=0, q=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(u, v=0):\n"
        "        pass\n"
        "def f(a, b=1, *, c=2, d=3):\n"
        "    pass\n"
        "def g(a=0, b=0):\n"
        "    pass\n"
        "def h(a=0):\n"
        "    pass\n"
    )
    caller = (
        "A(5).m(1)\n"
        "A.s(1)\n"
        "f(0, c=1)\n"
        "g(*xs)\n"
        "h(**kw)\n"
    )
    assert sorted(unset_parameters({"m.py": source}, {"m.py": source, "n.py": caller})) == [
        "m.py: A.__init__(y)", "m.py: A.m(q)", "m.py: A.s(v)", "m.py: f(b)", "m.py: f(d)",
    ]


def test_every_parameter_default_is_overridden_somewhere():
    src = {f"idslab/{p.name}": p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = {
        f"{p.parent.name}/{p.name}": p.read_text()
        for folder in (PERFBENCH, TESTS) for p in sorted(folder.glob("*.py"))
    }
    assert unset_parameters(src, {**src, **others}) == []


# every eigensolver call, by the name of numpy's or scipy's function or of the
# LAPACK routine, and the only functions that make it: eigenvectors come from
# spectral.eigensystem alone, by ?syevd's three steps (the tridiagonal reduction,
# dstevd, and the back-transform), eigenvalues alone from the band solver, the
# spectrum slices, the inertia of 2x2 pivot blocks and V_eff, and eigenvectors
# of given eigenvalues by inverse iteration from the chain masses alone
DENSE_SOLVERS = re.compile(r"[sd]syevd|[cz]heevd")
EIGENVECTORS = re.compile(
    r"eigh|eig_banded|eigh_tridiagonal|[sd]syevd|[cz]heevd|[sd]stevd|[sd]sytrd|[cz]hetrd|[sd]ormqr|[cz]unmqr"
)
EIGENVALUES = re.compile(
    r"eigvals_banded|eigvalsh|eigvalsh_tridiagonal|eigsh|[sd]sterf|[sd]sbevd|[cz]hbevd"
)
INVERSE_ITERATION = re.compile(r"[sd]stein")
SOLVER_SITES = {
    EIGENVECTORS: {"spectral.py: eigensystem"},
    EIGENVALUES: {
        "spectral.py: eigenvalues", "spectral.py: _sliced", "spectral.py: count_below_by_inertia",
        "ssf.py: _difference_singular_values",
    },
    INVERSE_ITERATION: {"spectral.py: tridiagonal_masses"},
}


def _called(node: ast.AST) -> list[str]:
    """The name a call node calls, directly or through a string, as getattr takes it."""
    if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
        return [node.func.id if isinstance(node.func, ast.Name) else node.func.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _spelled(node: ast.AST) -> list[str]:
    """Every name a node spells: a variable, an attribute, each dotted part of an
    import, or a string."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    return [node.value] if isinstance(node, ast.Constant) and isinstance(node.value, str) else []


def _outside_sites(sources, names, allowed, names_of, verb) -> list[str]:
    found = []

    def visit(node, filename, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            where = f"{filename}: {inner}"
            if where not in allowed:
                found.extend(f"{where} {verb} {n}" for n in names_of(child) if names.fullmatch(n))
            visit(child, filename, inner)

    for filename, source in sources.items():
        visit(ast.parse(source), filename, "<module>")
    return found


def calls_outside(sources: dict[str, str], names: re.Pattern, allowed: set[str]) -> list[str]:
    """Calls of a function whose name fullmatches names, outside the functions
    named in allowed ("file: qualname").  A call names the function directly
    (np.linalg.eigh, scipy.linalg.eigh, lapack.dsyevd) or through a string, as
    getattr takes it."""
    return _outside_sites(sources, names, allowed, _called, "calls")


def names_outside(sources: dict[str, str], names: re.Pattern, allowed: set[str]) -> list[str]:
    """As calls_outside, for every mention of a name that fullmatches names: an
    import, a variable, an attribute or a string, called or not."""
    return _outside_sites(sources, names, allowed, _spelled, "names")


def test_checker_flags_dense_eigenvector_solves():
    source = (
        "import numpy as np, scipy.linalg\n"
        "from numpy.linalg import eigh\n"
        "W = np.linalg.eigh(np.eye(2))\n"
        "def solve(H):\n"
        "    name = 'zheevd' if np.iscomplexobj(H) else 'dsyevd'\n"
        "    return getattr(scipy.linalg.lapack, name)(H), np.linalg.eigh(H)\n"
        "def values(H):\n"
        "    return np.linalg.eigvalsh(H), scipy.linalg.eigvalsh(H)\n"
        "class Field:\n"
        "    def vectors(self, H):\n"
        "        return eigh(H), scipy.linalg.eigh(H), scipy.linalg.lapack.cheevd(H)\n"
        "def chain(d, e):\n"
        "    return scipy.linalg.lapack.dstevd(d, e), scipy.linalg.eigh_tridiagonal(d, e)\n"
        "def steps(H, C):\n"
        "    trd = 'zhetrd' if np.iscomplexobj(H) else 'dsytrd'\n"
        "    _, d, e, tau, _ = getattr(scipy.linalg.lapack, trd)(H)\n"
        "    return scipy.linalg.lapack.dormqr('L', 'N', H, tau, C, -1), lapack.cunmqr(H, tau, C)\n"
        "def unrelated(H):\n"
        "    return 'eigh is a word in this docstring'\n"
    )
    # the eigenvalue-only solvers (eigvalsh) are not counted
    assert calls_outside({"m.py": source}, EIGENVECTORS, {"m.py: solve"}) == [
        "m.py: <module> calls eigh",
        "m.py: Field.vectors calls eigh",
        "m.py: Field.vectors calls eigh",
        "m.py: Field.vectors calls cheevd",
        "m.py: chain calls dstevd",
        "m.py: chain calls eigh_tridiagonal",
        "m.py: steps calls zhetrd",
        "m.py: steps calls dsytrd",
        "m.py: steps calls dormqr",
        "m.py: steps calls cunmqr",
    ]


def test_one_dense_eigenvector_solve_site():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, EIGENVECTORS, SOLVER_SITES[EIGENVECTORS]) == []
    # eigensystem runs ?syevd's steps itself, so nothing calls ?syevd/?heevd
    assert calls_outside(sources, DENSE_SOLVERS, set()) == []


def test_checker_flags_eigenvalue_only_solves():
    sources = {
        "spectral.py": (
            "import numpy as np, scipy.linalg\n"
            "def eigenvalues(B):\n"
            "    name = 'zhbevd' if np.iscomplexobj(B) else 'dsbevd'\n"
            "    return getattr(scipy.linalg.lapack, name)(B.T, compute_v=0, lower=1)\n"
            "def chains(bands):\n"
            "    return [scipy.linalg.lapack.dsterf(B[:, 0], B[:-1, 1]) for B in bands]\n"
            "def banded(B):\n"
            "    return scipy.linalg.eigvals_banded(B.T, lower=True), np.linalg.eigvalsh(B)\n"
            "def vectors(H):\n"
            "    return np.linalg.eigh(H)\n"
            "def note():\n"
            "    return 'dsterf finds eigenvalues alone'\n"
        ),
        "ssf.py": (
            "def _difference_singular_values(ea, eb):\n"
            "    return np.linalg.eigvalsh(eb - ea)\n"
            "def shift(H):\n"
            "    return scipy.sparse.linalg.eigsh(H, k=3)\n"
        ),
    }
    # the eigenvector solvers (eigh) are not counted
    assert calls_outside(sources, EIGENVALUES, SOLVER_SITES[EIGENVALUES]) == [
        "spectral.py: chains calls dsterf",
        "spectral.py: banded calls eigvals_banded",
        "spectral.py: banded calls eigvalsh",
        "ssf.py: shift calls eigsh",
    ]


def test_eigenvalue_only_solves_have_their_sites():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, EIGENVALUES, SOLVER_SITES[EIGENVALUES]) == []


def test_checker_flags_inverse_iteration():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg.lapack import sstein\n"
        "def tridiagonal_masses(D, E, W, iblock, isplit):\n"
        "    return scipy.linalg.lapack.dstein(D[0], E[0], W[0], iblock, isplit)\n"
        "def vectors(d, e, w, iblock, isplit):\n"
        "    return getattr(scipy.linalg.lapack, 'dstein')(d, e, w, iblock, isplit)\n"
        "class Chain:\n"
        "    def vector(self, w):\n"
        "        return sstein(self.d, self.e, w, self.iblock, self.isplit)\n"
        "def note():\n"
        "    return 'dstein does inverse iteration'\n"
    )
    assert calls_outside(
        {"spectral.py": source}, INVERSE_ITERATION, SOLVER_SITES[INVERSE_ITERATION]
    ) == [
        "spectral.py: vectors calls dstein",
        "spectral.py: Chain.vector calls sstein",
    ]


def test_inverse_iteration_has_one_site():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, INVERSE_ITERATION, SOLVER_SITES[INVERSE_ITERATION]) == []


# the origin masses of chains are computed only by the Monte Carlo origin spectra
CHAIN_MASSES = re.compile("tridiagonal_masses")
CHAIN_MASS_SITES = {"montecarlo.py: _origin_spectra"}


def test_checker_flags_chain_mass_calls():
    source = (
        "def _origin_spectra(D, E, W, sites):\n"
        "    return tridiagonal_masses(D, E, W, sites)\n"
        "def localized_counting(D, E, W, sites):\n"
        "    return spectral.tridiagonal_masses(D, E, W, sites)\n"
        "def note():\n"
        "    return 'tridiagonal_masses sums eigenvector weights'\n"
    )
    assert calls_outside({"montecarlo.py": source}, CHAIN_MASSES, CHAIN_MASS_SITES) == [
        "montecarlo.py: localized_counting calls tridiagonal_masses",
    ]


def test_chain_masses_have_one_site():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, CHAIN_MASSES, CHAIN_MASS_SITES) == []


# every band is written by the one assembly fill
BAND_WRITE = re.compile("_band")


def test_checker_flags_band_writes():
    source = (
        "def coded_bands(spec, geometry, codes):\n"
        "    return _band(levels[codes], links, weights)\n"
        "def lattice_band(Q, library):\n"
        "    return _band(diagonal, _links(coords), [-1.0] * d)\n"
        "def width(links):\n"
        "    return _band_width(links), '_band writes the band'\n"
    )
    assert calls_outside({"operators.py": source}, BAND_WRITE, {"operators.py: coded_bands"}) == [
        "operators.py: lattice_band calls _band",
    ]


def test_bands_are_written_only_by_the_fill():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, BAND_WRITE, {"operators.py: coded_bands"}) == []


# assembly makes bands; a dense matrix is banded only where it enters from outside
BAND_CONVERSION = re.compile("lower_band")


def test_checker_flags_band_conversions():
    source = (
        "from spectral import lower_band, eigensystem\n"
        "import spectral\n"
        "def pair(HA, HB):\n"
        "    return eigensystem(lower_band(HA)), eigensystem(spectral.lower_band(HB))\n"
        "def count(spec):\n"
        "    return eigenvalues(lower_band(assemble_dense(spec)))\n"
        "def lower_banded(H):\n"
        "    return 'lower_band is named in this docstring'\n"
    )
    assert calls_outside({"m.py": source}, BAND_CONVERSION, {"m.py: pair"}) == [
        "m.py: count calls lower_band",
    ]


def test_dense_matrices_are_banded_only_where_they_enter():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    allowed = {"ssf.py: semigroup_difference_singular_values"}
    assert calls_outside(sources, BAND_CONVERSION, allowed) == []


# every eigenvalue count is certified in spectral.certified_below: the counting
# functions are called only by the certificate functions (and _sparse_inertia's
# own split of a singular factorization)
COUNT_CERTIFICATES = re.compile("tridiagonal_counts|_sparse_inertia|count_below_by_inertia")
CERTIFICATE_SITES = {
    f"spectral.py: {name}"
    for name in ("certified_below", "_untrusted_count", "eigenvalues", "_sliced", "_sparse_inertia")
}


def test_checker_flags_count_certificates():
    source = (
        "from spectral import tridiagonal_counts, count_below_by_inertia\n"
        "import spectral\n"
        "def certify(bands, eigs, T):\n"
        "    return tridiagonal_counts(bands, eigs, T), spectral._sparse_inertia(bands, [T])\n"
        "def chains(D, e, eigs, T):\n"
        "    return tridiagonal_counts(D, e, T) == [len(w) for w in eigs]\n"
        "class Check:\n"
        "    def dense(self, H, T):\n"
        "        return count_below_by_inertia(H, T), getattr(spectral, '_sparse_inertia')\n"
        "def note():\n"
        "    return 'tridiagonal_counts counts below T'\n"
    )
    assert calls_outside({"m.py": source}, COUNT_CERTIFICATES, {"m.py: certify"}) == [
        "m.py: chains calls tridiagonal_counts",
        "m.py: Check.dense calls count_below_by_inertia",
        "m.py: Check.dense calls _sparse_inertia",
    ]


def test_counts_are_certified_in_one_place():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, COUNT_CERTIFICATES, CERTIFICATE_SITES) == []


# the i.i.d. coloring hashes sites in lattice alone, so a change of hash stays in one module
SITE_HASHES = re.compile("_site_hashes")
SITE_HASH_SITES = {"lattice.py: iid_seeds", "lattice.py: iid_codes"}


def test_checker_flags_site_hash_calls():
    source = (
        "from lattice import _site_hashes\n"
        "import lattice\n"
        "def iid_codes(seeds, weights, sites):\n"
        "    return _site_hashes(seeds, sites)\n"
        "def sample_seeds(seed, count):\n"
        "    return lattice._site_hashes([seed], np.arange(count)[:, None])[0]\n"
        "def note():\n"
        "    return '_site_hashes hashes (seed, site)'\n"
    )
    assert calls_outside({"lattice.py": source}, SITE_HASHES, {"lattice.py: iid_codes"}) == [
        "lattice.py: sample_seeds calls _site_hashes",
    ]
    assert calls_outside({"montecarlo.py": source}, SITE_HASHES, SITE_HASH_SITES) == [
        "montecarlo.py: iid_codes calls _site_hashes",
        "montecarlo.py: sample_seeds calls _site_hashes",
    ]


def test_site_hashes_are_taken_only_in_lattice():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, SITE_HASHES, SITE_HASH_SITES) == []


# a region's colours are read once, by Coloring.restrict; window tallies and field
# evaluations read the Pattern it returns
COLOR_READS = re.compile("colors")
COLOR_READ_SITES = {
    "lattice.py: Coloring.restrict", "lattice.py: RandomColoring.color",
    "operators.py: discretize", "montecarlo.py: _own_spectrum",
    "acceptance.py: _oracle_window_tally",
}


def test_checker_flags_color_reads():
    source = (
        "class Coloring:\n"
        "    def restrict(self, Q):\n"
        "        return Pattern(sorted(Q), self.colors(sorted(Q)))\n"
        "def enumerate_window_patterns(C, U, M):\n"
        "    return tally(C.colors(list(U)), M)\n"
        "def route(field, U):\n"
        "    return getattr(field.coloring, 'colors')(U)\n"
        "def note():\n"
        "    return 'colors are read by restrict'\n"
    )
    assert calls_outside({"lattice.py": source}, COLOR_READS, COLOR_READ_SITES) == [
        "lattice.py: enumerate_window_patterns calls colors",
        "lattice.py: route calls colors",
    ]
    assert calls_outside({"ergodic.py": source}, COLOR_READS, COLOR_READ_SITES) == [
        "ergodic.py: Coloring.restrict calls colors",
        "ergodic.py: enumerate_window_patterns calls colors",
        "ergodic.py: route calls colors",
    ]


def test_regions_are_colored_only_by_restrict():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert calls_outside(sources, COLOR_READS, COLOR_READ_SITES) == []


# the program forks in one place: spectral.in_workers runs independent calls in
# forked workers, with BLAS pinned to one thread around the fork
FORKS = re.compile("ProcessPoolExecutor|BrokenProcessPool|multiprocessing|fork")
FORK_SITES = {"spectral.py: in_workers"}


def test_checker_flags_forks():
    source = (
        "import multiprocessing\n"
        "import os\n"
        "def in_workers(fn, tasks):\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return ProcessPoolExecutor(2, mp_context=multiprocessing.get_context('fork'))\n"
        "def solve_pair(a, b):\n"
        "    import concurrent.futures, multiprocessing.pool\n"
        "    pid = os.fork()\n"
        "    return concurrent.futures.ProcessPoolExecutor(2)\n"
        "class Pool:\n"
        "    method = 'fork'\n"
        "    def start(self):\n"
        "        from multiprocessing.pool import ThreadPool\n"
        "def note():\n"
        "    return 'multiprocessing forks in_workers alone'\n"
    )
    assert names_outside({"spectral.py": source}, FORKS, FORK_SITES) == [
        "spectral.py: <module> names multiprocessing",
        "spectral.py: solve_pair names multiprocessing",
        "spectral.py: solve_pair names fork",
        "spectral.py: solve_pair names ProcessPoolExecutor",
        "spectral.py: Pool names fork",
        "spectral.py: Pool.start names multiprocessing",
    ]


def test_the_program_forks_in_one_place():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert names_outside(sources, FORKS, FORK_SITES) == []


def _outside(node: ast.AST, skip: str):
    """node and its descendants, leaving out the functions named skip."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.FunctionDef) and child.name == skip):
            yield from _outside(child, skip)


def unread_config_fields(sources: dict[str, str], names: set[str]) -> set[str]:
    """The names read nowhere outside validate_config.  A read is a cfg.<name> load,
    or the name as a string given to getattr, directly or through a parameter of a
    function that hands that parameter to getattr."""
    nodes = [n for s in sources.values() for n in _outside(ast.parse(s), "validate_config")]
    via = {"getattr": 1}  # function name -> position of the argument getattr reads
    for fn in nodes:
        if isinstance(fn, ast.FunctionDef):
            params = [a.arg for a in fn.args.args]
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "getattr" and isinstance(call.args[1], ast.Name)
                        and call.args[1].id in params):
                    via[fn.name] = params.index(call.args[1].id)
    read = set()
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "cfg"):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            pos = via.get(node.func.id)
            if pos is not None and pos < len(node.args) and isinstance(node.args[pos], ast.Constant):
                read.add(node.args[pos].value)
    return names - read


def test_checker_flags_unread_config_fields():
    source = (
        "def validate_config(raw):\n"
        "    cfg.a, cfg.b = raw\n"
        "    return cfg.c\n"
        "def cap(cfg, key):\n"
        "    return getattr(cfg, key)\n"
        "def run(cfg):\n"
        "    return cfg.a + cap(cfg, 'b') + getattr(cfg, 'd')\n"
    )
    assert unread_config_fields({"m.py": source}, {"a", "b", "c", "d", "e"}) == {"c", "e"}


# jobs has no effect; it stays a field only because the benchmark workload
# configs set it, and validate_config refuses unknown keys
UNREAD_CONFIG_FIELDS = {"jobs"}


def test_every_config_field_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    names = {f.name for f in fields(ExperimentConfig)}
    assert unread_config_fields(sources, names) == UNREAD_CONFIG_FIELDS


def test_cli_import_skips_scipy_integrate_and_optimize():
    """Start-up cost: importing the CLI loads neither scipy.integrate nor scipy.optimize."""
    probe = (
        "import sys, idslab.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
