"""Lattice combinatorics against brute-force oracles."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idslab.lattice import (
    Pattern,
    PeriodicColoring,
    RandomColoring,
    WindowColoring,
    boundary,
    bounding_box,
    cube,
    cube_sequence,
    dimension_of,
    enumerate_window_patterns,
    estimated_frequency_table,
    exact_frequency_table,
    inner_boundary,
    occurrences,
    periodic_word,
    site_set,
    van_hove_ratios,
)
from oracles import pattern_from_word, period_loop_frequencies


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def chebyshev(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


def boundary_oracle(Q, M):
    """Scan the full bounding window extended by M and test both conditions."""
    d = len(next(iter(Q)))
    lo, hi = bounding_box(Q)
    window = product(*(range(lo[i] - M - 1, hi[i] + M + 2) for i in range(d)))
    out = set()
    for x in window:
        dist_to_Q = min(chebyshev(x, q) for q in Q)
        if x in Q:
            # distance to the complement: scan the Chebyshev ball
            ball = product(*(range(x[i] - M, x[i] + M + 1) for i in range(d)))
            if any(y not in Q for y in ball):
                out.add(x)
        elif dist_to_Q <= M:
            out.add(x)
    return frozenset(out)


def occurrences_oracle(P, Pp):
    """Exhaustive scan of every translate within an enlarged bounding window."""
    loP, hiP = bounding_box(P.domain)
    loQ, hiQ = bounding_box(Pp.domain)
    d = len(loP)
    big = dict(zip(Pp.sites, Pp.symbols))
    count = 0
    shifts = product(*(range(loQ[i] - hiP[i] - 1, hiQ[i] - loP[i] + 2) for i in range(d)))
    for x in shifts:
        ok = True
        for s, sym in zip(P.sites, P.symbols):
            t = tuple(sc + xc for sc, xc in zip(s, x))
            if t not in big or big[t] != sym:
                ok = False
                break
        if ok:
            count += 1
    return count


def _ball_offsets(M, d):
    return list(product(range(-M, M + 1), repeat=d))


def boundary_set_loop(Q, M):
    """The set-dilation boundary that the mask version replaced, kept as its oracle."""
    d = dimension_of(Q)
    offsets = _ball_offsets(M, d)
    dilation = {tuple(q[i] + o[i] for i in range(d)) for q in Q for o in offsets}
    return inner_boundary_set_loop(Q, M) | (dilation - Q)


def inner_boundary_set_loop(Q, M=1):
    d = dimension_of(Q)
    offsets = _ball_offsets(M, d)
    return frozenset(
        q for q in Q
        if any(tuple(q[i] + o[i] for i in range(d)) not in Q for o in offsets)
    )


def window_tally_scan(C, U, M):
    """The per-anchor scan that the array version replaced, kept as its oracle.

    Anchors run in lexicographic order and each class enters the Counter at
    its first window, so list(items()) fixes the order as well as the counts.
    """
    if not U:
        return Counter()
    d = dimension_of(U)
    offsets = sorted(cube(M, d))
    lo, hi = bounding_box(U)
    tally = Counter()
    ranges = [range(lo[i], hi[i] - M + 2) for i in range(d)]
    for x in product(*ranges):
        window = [tuple(x[i] + o[i] for i in range(d)) for o in offsets]
        if all(w in U for w in window):
            tally[tuple(C.color(w) for w in window)] += 1
    sites = tuple(offsets)
    return Counter({Pattern(sites, syms): k for syms, k in tally.items()})


def random_connectedish_set(rng, d, max_size):
    """Random subset of a moderate box (may be scattered)."""
    side = rng.randint(2, 8 if d == 2 else 30)
    box = list(product(*(range(side) for _ in range(d))))
    size = rng.randint(1, min(max_size, len(box)))
    return frozenset(tuple(s) for s in rng.sample(box, size))


# ---------------------------------------------------------------------------
# cube / boundary / van Hove
# ---------------------------------------------------------------------------

def test_cube_examples():
    assert cube(1, 3) == frozenset({(0, 0, 0)})
    assert len(cube(3, 2)) == 9
    assert cube(4, 1) == site_set([(0,), (1,), (2,), (3,)])
    with pytest.raises(ValueError):
        cube(0, 1)


def test_boundary_interval():
    Q = site_set([(0,), (1,), (2,)])
    assert boundary(Q, 1) == site_set([(-1,), (0,), (2,), (3,)])


def test_boundary_c3_2d():
    b = boundary(cube(3, 2), 1)
    inner = {s for s in b if s in cube(3, 2)}
    outer = b - cube(3, 2)
    assert len(inner) == 8 and len(outer) == 16 and len(b) == 24


def test_boundary_single_site():
    assert boundary(site_set([(0,)]), 1) == site_set([(-1,), (0,), (1,)])


def test_boundary_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.choice([1, 2])
        Q = random_connectedish_set(rng, d, 60)
        M = rng.choice([1, 2])
        assert boundary(Q, M) == boundary_oracle(Q, M)


def test_boundary_matches_oracle_up_to_400_sites():
    rng = random.Random(401)
    for _ in range(4):
        box = list(product(range(25), range(25)))
        Q = frozenset(rng.sample(box, 400))
        assert boundary(Q, 1) == boundary_oracle(Q, 1)


def test_boundary_rejects_empty_set_and_width_below_one():
    with pytest.raises(ValueError):
        boundary(frozenset(), 1)
    with pytest.raises(ValueError):
        boundary(cube(2, 2), 0)
    with pytest.raises(ValueError):
        inner_boundary(frozenset())
    with pytest.raises(ValueError):
        inner_boundary(cube(2, 2), 0)
    with pytest.raises(ValueError):
        enumerate_window_patterns(periodic_word("a").restrict(cube(2, 1)), 0)


# side of the sampling box per dimension, small enough for the set loops in d=3
_BOX_SIDE = {1: 40, 2: 12, 3: 6}


def _oracle_cases():
    """(Q, M) over d=1-3 and M=1-3: cubes, and scattered sets with gaps and
    negative coordinates (some a single site, some narrower than a window)."""
    rng = random.Random(2024)
    cases = []
    for d, M in product((1, 2, 3), (1, 2, 3)):
        cases.append((cube(rng.randint(1, 5), d), M))
        for _ in range(4):
            side = rng.randint(1, _BOX_SIDE[d])
            shift = [rng.randint(-9, 3) for _ in range(d)]
            box = [tuple(c + s for c, s in zip(x, shift)) for x in product(range(side), repeat=d)]
            cases.append((frozenset(rng.sample(box, rng.randint(1, len(box)))), M))
    return cases


def test_boundary_and_inner_boundary_match_set_loop():
    for Q, M in _oracle_cases():
        assert boundary(Q, M) == boundary_set_loop(Q, M)
        assert inner_boundary(Q, M) == inner_boundary_set_loop(Q, M)


def _coloring_cases(d, seed):
    cell = {x: "abc"[sum(x) % 3] for x in product(range(3), *[range(2)] * (d - 1))}
    return [
        PeriodicColoring(period=(3,) + (2,) * (d - 1), cell=cell),
        WindowColoring(
            window={(0,) * d: "x", (1,) + (-2,) * (d - 1): "y", (-3,) * d: "x"},
            background="b", dim=d,
        ),
        RandomColoring(seed=seed, symbols=("a", "b", "c"), weights=(0.2, 0.5, 0.3), dim=d),
    ]


def test_window_tally_matches_scan_in_order():
    empty = 0
    for k, (U, M) in enumerate(_oracle_cases()):
        for C in _coloring_cases(len(next(iter(U))), seed=k):
            got = enumerate_window_patterns(C.restrict(U), M)
            want = window_tally_scan(C, U, M)
            assert list(got.items()) == list(want.items())
            assert all(type(v) is int for v in got.values())
            empty += not got
    assert empty  # some U is narrower than its window


# lattice symmetries g: an axis permutation, then a sign per axis, then a shift
_symmetry = st.tuples(
    st.sampled_from(sorted(permutations(range(3)))),
    st.tuples(*[st.sampled_from((-1, 1))] * 3),
    st.tuples(*[st.integers(-20, 20)] * 3),
)


def _act(g, d, sites):
    perm, signs, shift = g
    perm = [p for p in perm if p < d]
    return frozenset(
        tuple(signs[i] * x[perm[i]] + shift[i] for i in range(d)) for x in sites
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.sets(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=40),
    _symmetry,
)
def test_boundaries_commute_with_lattice_symmetries(d, M, points, g):
    Q = frozenset(p[:d] for p in points)
    gQ = _act(g, d, Q)
    assert boundary(gQ, M) == _act(g, d, boundary(Q, M))
    assert inner_boundary(gQ, M) == _act(g, d, inner_boundary(Q, M))


def test_inner_boundary_subset():
    Q = cube(5, 2)
    assert inner_boundary(Q) <= Q
    assert len(inner_boundary(Q)) == 25 - 9


def test_van_hove_cubes_1d():
    seq = cube_sequence([2, 4, 8, 16], 1)
    ratios = van_hove_ratios(seq, 1)
    assert ratios == [Fraction(4, j) for j in (2, 4, 8, 16)]


def test_van_hove_cubes_2d_oracle_counts():
    seq = cube_sequence([3, 4, 6, 8], 2)
    ratios = van_hove_ratios(seq, 1)
    # exhaustive scan gives inner 4j-4, outer 4j+4, total 8j
    assert ratios == [Fraction(8 * j, j * j) for j in (3, 4, 6, 8)]


def test_van_hove_constant_sequence_not_monotone():
    seq = [cube(2, 1)] * 4
    ratios = van_hove_ratios(seq, 1)
    assert len(set(ratios)) == 1 and ratios[0] > 0


# ---------------------------------------------------------------------------
# colorings and restriction
# ---------------------------------------------------------------------------

def test_restrict_periodic_word():
    C = periodic_word("ab")
    P = C.restrict(site_set([(0,), (1,), (2,), (3,)]))
    assert P.symbols == ("a", "b", "a", "b")


def test_restrict_constant():
    C = periodic_word("a")
    P = C.restrict(cube(3, 1))
    assert set(P.symbols) == {"a"}


def test_restrict_window_background():
    C = WindowColoring(window={(0,): "x"}, background="b", dim=1)
    P = C.restrict(site_set([(5,), (6,)]))
    assert P.symbols == ("b", "b")


def test_periodic_coloring_periodicity():
    C = PeriodicColoring(period=(2, 3), cell={
        (x, y): "ab"[(x + y) % 2] for x in range(2) for y in range(3)
    })
    for site in [(0, 0), (1, 2), (-3, 7)]:
        shifted = (site[0] + 2, site[1] + 3)
        assert C.color(site) == C.color(shifted)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40),
    st.integers(0, 2**64 - 1),
)
def test_colors_match_color_site_by_site(sites, seed):
    random_coloring = RandomColoring(seed=seed, symbols=("a", "b", "c"), weights=(0.3, 0.0, 0.7), dim=2)
    colorings = [
        PeriodicColoring(period=(2, 3), cell={(x, y): "ab"[(x * y) % 2] for x in range(2) for y in range(3)}),
        WindowColoring(window={(0, 0): "x", (1, -1): "y"}, background="b", dim=2),
        random_coloring,
        # a pattern on [-4, 4]^2: sites outside it raise KeyError
        random_coloring.restrict(frozenset(product(range(-4, 5), repeat=2))),
    ]
    for C in colorings:
        try:
            want = [C.color(s) for s in sites]
        except KeyError:
            with pytest.raises(KeyError, match="outside pattern domain"):
                C.colors(sites)
        else:
            assert C.colors(sites) == want
    # the zero-weight symbol is never drawn
    assert "b" not in random_coloring.colors(sites)


def test_pattern_colors_refuse_a_site_outside_the_domain():
    P = pattern_from_word("ab")
    assert P.colors([(1,), (0,)]) == ["b", "a"]
    with pytest.raises(KeyError, match="outside pattern domain"):
        P.colors([(0,), (2,)])


def test_random_coloring_deterministic_and_total():
    C = RandomColoring(seed=42, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    v1 = [C.color((i, j)) for i in range(-5, 5) for j in range(-5, 5)]
    v2 = [C.color((i, j)) for i in range(-5, 5) for j in range(-5, 5)]
    assert v1 == v2
    assert set(v1) <= {"a", "b"}


def test_random_coloring_weight_validation():
    with pytest.raises(ValueError):
        RandomColoring(seed=1, symbols=("a", "b"), weights=(0.7, 0.7), dim=1)


# ---------------------------------------------------------------------------
# patterns, occurrences, enumeration
# ---------------------------------------------------------------------------

def test_pattern_canonical_translation():
    P = Pattern(((3,), (5,)), ("a", "b"))
    c = P.canonical()
    assert c.sites == ((0,), (2,))
    assert c.symbols == ("a", "b")
    # a pattern already at the origin is its own representative, not a copy
    assert c.canonical() is c


def test_occurrences_word_example():
    P = pattern_from_word("ab")
    Pp = pattern_from_word("ababab")
    assert occurrences(P, Pp) == 3


def test_occurrences_identity_and_too_big():
    P = pattern_from_word("abc")
    assert occurrences(P, P) == 1
    assert occurrences(pattern_from_word("abcd"), P) == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 1),
    st.data(),
)
def test_occurrences_translation_invariance(dim_choice, data):
    d = dim_choice + 1
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    C = RandomColoring(seed=rng.randint(0, 2**31), symbols=("a", "b"), weights=(0.5, 0.5), dim=d)
    P = C.restrict(cube(2, d))
    Pp = C.restrict(cube(4, d))
    x = tuple(rng.randint(-5, 5) for _ in range(d))
    assert occurrences(P, Pp) == occurrences(P.translated(x), Pp.translated(x))


def test_occurrences_matches_oracle_randomized():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.choice([1, 2])
        C = RandomColoring(
            seed=rng.randint(0, 2**31),
            symbols=("a", "b"),
            weights=(0.5, 0.5),
            dim=d,
        )
        P = C.restrict(random_connectedish_set(rng, d, 6))
        Pp = C.restrict(random_connectedish_set(rng, d, 50))
        assert occurrences(P, Pp) == occurrences_oracle(P, Pp)


def test_enumerate_window_patterns_word():
    C = periodic_word("ab")
    tally = enumerate_window_patterns(C.restrict(cube(6, 1)), 2)
    by_word = {"".join(p.symbols): k for p, k in tally.items()}
    assert by_word == {"ab": 3, "ba": 2}


def test_enumerate_constant_and_empty():
    C = periodic_word("a")
    tally = enumerate_window_patterns(C.restrict(cube(5, 1)), 1)
    assert sum(tally.values()) == 5 and len(tally) == 1
    assert enumerate_window_patterns(C.restrict(cube(2, 1)), 5) == {}


def test_enumerate_total_tally_formula():
    C = RandomColoring(seed=3, symbols=("a", "b"), weights=(0.5, 0.5), dim=2)
    for L, M in [(5, 2), (6, 3)]:
        tally = enumerate_window_patterns(C.restrict(cube(L, 2)), M)
        assert sum(tally.values()) == (L - M + 1) ** 2


# ---------------------------------------------------------------------------
# frequencies
# ---------------------------------------------------------------------------

def test_frequency_exact_examples():
    C = periodic_word("ab")
    assert exact_frequency_table(C, 1).entries[pattern_from_word("a")] == Fraction(1, 2)
    assert pattern_from_word("aa") not in exact_frequency_table(C, 2).entries
    const = periodic_word("a")
    assert exact_frequency_table(const, 3).entries == {const.restrict(cube(3, 1)): 1}


def test_exact_table_sums_to_one():
    for word in ["ab", "aab", "abca"]:
        C = periodic_word(word)
        for M in (1, 2, 3):
            table = exact_frequency_table(C, M)
            assert table.total() == 1
            assert all(isinstance(v, Fraction) for v in table.entries.values())


def test_exact_table_2d():
    C = PeriodicColoring(period=(2, 2), cell={
        (0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"
    })
    table = exact_frequency_table(C, 1)
    assert table.total() == 1
    assert set(table.entries.values()) == {Fraction(1, 2)}


PERIODIC_COLORINGS = [
    periodic_word("a"), periodic_word("ab"), periodic_word("aab"), periodic_word("abcab"),
    PeriodicColoring(period=(2, 2), cell={(0, 0): "a", (1, 0): "b", (0, 1): "b", (1, 1): "a"}),
    PeriodicColoring(period=(3, 2), cell={
        (0, 0): "b", (1, 0): "a", (2, 0): "a", (0, 1): "c", (1, 1): "a", (2, 1): "b"}),
    PeriodicColoring(period=(1, 3), cell={(0, 0): "a", (0, 1): "a", (0, 2): "b"}),
    PeriodicColoring(period=(2, 1, 2), cell={
        (0, 0, 0): "a", (1, 0, 0): "b", (0, 0, 1): "b", (1, 0, 1): "b"}),
]


@pytest.mark.parametrize("C", PERIODIC_COLORINGS)
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_exact_table_is_the_period_loop(C, M):
    entries = exact_frequency_table(C, M).entries
    # the same classes, rationals and order as one window per anchor of a period cell
    assert list(entries.items()) == list(period_loop_frequencies(C, M).items())
    assert all(type(v) is Fraction for v in entries.values())


def test_estimated_table_normalization_is_window_fraction():
    C = periodic_word("ab")
    table = estimated_frequency_table(C.restrict(cube(10, 1)), 2)
    # sum of occurrence ratios equals (#windows)/#U, approaching 1
    assert abs(float(table.total()) - 9 / 10) < 1e-12


def test_estimate_converges_to_exact():
    C = periodic_word("abc")
    P = pattern_from_word("ab")
    exact = exact_frequency_table(C, 2).entries[P]
    errors = [
        abs(estimated_frequency_table(C.restrict(U), 2).entries[P] - exact)
        for U in cube_sequence([9, 27, 81], 1)
    ]
    assert errors[-1] <= errors[0]
    assert errors[-1] < 0.02


def test_frequency_table_serialization_round_trip_keys():
    C = periodic_word("ab")
    table = exact_frequency_table(C, 2)
    obj = table.to_json_dict()
    assert obj["M"] == 2 and obj["exact"] is True
    assert set(obj["entries"]) == {"0=a;1=b", "0=b;1=a"}
    assert obj["entries"]["0=a;1=b"] == {"num": 1, "den": 2}

