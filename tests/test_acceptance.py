"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one criterion and prints a single pass/fail line with the
headline quantities, so a plain `pytest -s tests/test_acceptance.py` doubles
as the acceptance report.  The same functions back the `idslab verify`
subcommand.
"""

from idslab import acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    keys = {
        k: v
        for k, v in result.details.items()
        if isinstance(v, (int, float, bool, str))
    }
    print(f"[{status}] criterion {result.index}: {result.name} "
          f"({result.runtime_seconds:.1f}s) {keys}")
    return result


def test_criterion_1_pattern_oracle_equivalence():
    r = _report(acceptance.criterion_1_pattern_oracles())
    assert r.details["instances"] == 200
    assert r.details["mismatches"] == 0
    assert r.runtime_seconds < 10.0
    assert r.passed


def test_criterion_2_frequency_exactness_and_rate():
    r = _report(acceptance.criterion_2_frequencies())
    assert r.details["exact_sums_equal_one"]
    assert r.details["rate_violations"] == 0
    assert r.runtime_seconds < 30.0
    assert r.passed


def test_criterion_3_weyl_sanity():
    r = _report(acceptance.criterion_3_weyl())
    assert r.details["sup_deviation"] < 0.05
    assert r.details["weyl_margin"] >= 0.0
    assert r.runtime_seconds < 60.0
    assert r.passed


def test_criterion_4_almost_additivity():
    r = _report(acceptance.criterion_4_almost_additivity())
    assert r.details["partitions"] == 30
    assert r.details["violations"] == 0
    assert r.runtime_seconds < 300.0
    assert r.passed


def test_criterion_5_singular_value_decay():
    r = _report(acceptance.criterion_5_singular_value_decay())
    assert len(r.details["experiments"]) == 6
    for row in r.details["experiments"]:
        assert row["c_hat"] > 0, row
        assert row["envelope_ok"], row
        assert row["points_above_floor"] >= 10, row
    assert r.runtime_seconds < 600.0
    assert r.passed


def test_criterion_6_legendre_bounds():
    r = _report(acceptance.criterion_6_legendre_bounds())
    for row in r.details["pairs"]:
        for p in ("p1", "p2", "p3"):
            assert row[p]["direct"] <= row[p]["bound"], (row["experiment"], p)
    assert r.details["young_failures"] == 0
    assert r.details["legendre_closed_form_vs_grid_sup"] < 1e-6
    assert r.runtime_seconds < 120.0
    assert r.passed


def test_criterion_7_two_route_consistency():
    r = _report(acceptance.criterion_7_two_routes())
    assert r.details["pairs_checked"] == 36  # {8..256} doubling x M in 1..6
    assert r.details["bound_violations"] == 0
    assert r.details["distance_j256_M6"] < 0.05
    assert r.runtime_seconds < 300.0
    assert r.passed


def test_criterion_8_random_ids():
    r = _report(acceptance.criterion_8_random())
    assert r.details["point_mass_exact"]
    assert r.details["two_seed_agreement"]
    assert r.details["per_omega_decrease"]
    # localized semigroup truncation error: the quantity box truncation
    # actually controls
    assert r.details["semigroup_truncation_diagnostic"] < 1e-3
    # the sharp-projector estimate's R-doubling change is reported; it
    # oscillates at O(1/R) by an exact staircase argument
    assert 0.0 < r.details["projector_estimate_change_on_R_doubling"] < 3.0 / 33.0
    assert r.runtime_seconds < 900.0
    assert r.passed


def test_criterion_9_determinism():
    r = _report(acceptance.criterion_9_determinism())
    assert r.details["files_compared"] >= 10
    assert r.details["differing"] == []
    assert r.passed
