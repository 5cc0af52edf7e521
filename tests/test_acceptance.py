"""Acceptance gate: one test per quantitative criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline).

The MIPLIB 3.0 replications need the instance files under data/miplib3/
(see the README there); without them those cases are skipped with an
explanatory message and every property-based criterion still runs.
"""

import os
import time

import pytest

from liftproject.closure import ClosureConfig, gap_closed, gmi_rounds, optimize_closure
from liftproject.instances import load_optima, normalize, read_mps
from liftproject.verify import EnumerationDomain, check_validity, run_suite

from conftest import DATA_DIR, require_miplib

OPTIMA = load_optima(os.path.join(DATA_DIR, "reference_optima.txt"))

# Expected gap closed by the elementary closure (solver-independent
# published values), tolerance +-0.5 percentage points.
PE_EXPECTED = {
    "bell3a": 64.56,
    "egout": 93.85,
    "flugpl": 11.72,
    "p0033": 8.19,
    "lseu": 16.58,
    "mod008": 9.02,
    "vpm1": 31.42,
    "stein27": 0.0,
}

_memo: dict = {}


def _norm(name):
    key = ("nm", name)
    if key not in _memo:
        _memo[key] = normalize(read_mps(require_miplib(name)))
    return _memo[key]


def _run(name, mode, **cfg):
    key = (name, mode, tuple(sorted(cfg.items())))
    if key not in _memo:
        nm = _norm(name)
        config = ClosureConfig(mode=mode, **cfg)
        if mode == "gmi":
            _memo[key] = gmi_rounds(nm, config.rounds, cfg=config)
        else:
            _memo[key] = optimize_closure(nm, config)
    return _memo[key]


def _gap(report, name):
    return gap_closed(report.z_lp, report.z_cut, OPTIMA[name])


@pytest.mark.parametrize("name", sorted(PE_EXPECTED))
def test_criterion_1_pe_gap_reproduction(name):
    report = _run(name, "pe")
    gap = _gap(report, name)
    expected = PE_EXPECTED[name]
    print(
        f"ACCEPTANCE 1[{name}]: gap(Pe) = {gap:.2f}% "
        f"(expected {expected:.2f} +- 0.5) [{report.termination}]"
    )
    assert gap == pytest.approx(expected, abs=0.5)


def test_criterion_1_toy_sanity(t1):
    # always-on quantitative anchor: the toy closes its full gap with one cut
    report = optimize_closure(t1, ClosureConfig(mode="pe"))
    gap = gap_closed(report.z_lp, report.z_cut, OPTIMA["t1"])
    assert report.termination == "proved"
    assert gap == pytest.approx(100.0, abs=1e-6)
    assert report.cuts_active + report.cuts_parked == 1
    print("ACCEPTANCE 1[t1]: PASS - gap 100.00% with exactly one cut")


@pytest.mark.parametrize("name", sorted(PE_EXPECTED))
def test_criterion_2_pestar_dominates_pe(name):
    pe_gap = _gap(_run(name, "pe"), name)
    ps_gap = _gap(_run(name, "pestar"), name)
    print(
        f"ACCEPTANCE 2[{name}]: gap(PeStar) = {ps_gap:.2f}% >= "
        f"gap(Pe) - 0.5 = {pe_gap - 0.5:.2f}%"
    )
    assert ps_gap >= pe_gap - 0.5


def test_criterion_2_p0033_floor():
    gap = _gap(_run("p0033", "pestar"), "p0033")
    print(f"ACCEPTANCE 2[p0033 floor]: gap(PeStar) = {gap:.2f}% >= 50%")
    assert gap >= 50.0


def test_criterion_3_theorem3_suite():
    t0 = time.time()
    res = run_suite("theorem3", count=100, seed=20240001)
    elapsed = time.time() - t0
    print(
        f"ACCEPTANCE 3: theorem-3 oracle {res.passed}/{res.passed + res.failed} "
        f"pass, {res.skipped} window-skips, {elapsed:.1f}s"
    )
    assert res.failed == 0, res.failures[:3]
    assert res.passed > 0
    assert elapsed < 60.0


def test_criterion_4_theorem4_suite():
    t0 = time.time()
    res = run_suite("theorem4", count=100, seed=20240002)
    elapsed = time.time() - t0
    print(
        f"ACCEPTANCE 4: theorem-4 oracle {res.passed}/{res.passed + res.failed} "
        f"pass, {res.skipped} window-skips, {elapsed:.1f}s"
    )
    assert res.failed == 0, res.failures[:3]
    assert res.passed > 0
    assert elapsed < 60.0


def test_criterion_5_duality_suite():
    res = run_suite("duality", count=100, seed=20240003)
    print(
        f"ACCEPTANCE 5: duality {res.passed}/{res.passed + res.failed} pass "
        f"at 1e-7 relative tolerance"
    )
    assert res.failed == 0, res.failures[:3]
    assert res.passed >= 100


def test_criterion_6_proposition3_suite():
    res = run_suite("proposition3", count=50, seed=20240004)
    print(
        f"ACCEPTANCE 6: vertex separation {res.passed}/{res.passed + res.failed} "
        f"pass (y = f x within 1e-8, value within 1e-9)"
    )
    assert res.failed == 0, res.failures[:3]
    assert res.passed >= 50


def test_criterion_7_validity_by_enumeration(t1):
    res = run_suite("validity", count=12, seed=20240005)
    assert res.failed == 0, res.failures[:3]
    # and explicitly on the toy: its emitted cut against both lattice points
    report = optimize_closure(t1, ClosureConfig(mode="pestar"))
    rec = check_validity(t1, report.cut_rows, EnumerationDomain(caps=[1]))
    assert rec.passed
    print(
        f"ACCEPTANCE 7: validity-by-enumeration pass on {res.passed} random "
        f"instances and the toy corpus"
    )


@pytest.mark.parametrize("name", sorted(PE_EXPECTED))
def test_criterion_8_gmi_round_below_pestar(name):
    gmi_gap = _gap(_run(name, "gmi", rounds=1), name)
    ps_gap = _gap(_run(name, "pestar"), name)
    print(
        f"ACCEPTANCE 8[{name}]: gap(1 GMI round) = {gmi_gap:.2f}% <= "
        f"gap(PeStar) + 0.5 = {ps_gap + 0.5:.2f}%"
    )
    assert gmi_gap <= ps_gap + 0.5


def test_criterion_8_toy(t1):
    gmi = gmi_rounds(t1, 1)
    ps = optimize_closure(t1, ClosureConfig(mode="pestar"))
    g1 = gap_closed(gmi.z_lp, gmi.z_cut, OPTIMA["t1"])
    g2 = gap_closed(ps.z_lp, ps.z_cut, OPTIMA["t1"])
    assert g1 <= g2 + 0.5
    print(f"ACCEPTANCE 8[t1]: PASS - {g1:.2f}% <= {g2:.2f}% + 0.5")


def test_criterion_9_out_of_scope_note():
    # Not reproducible at desk scale, by design: full-benchmark averages,
    # pivot-count tables, CPU timings and the external-method comparisons.
    # Criteria 3-8 (properties) and 1-2 (small instances) stand in.
    print(
        "ACCEPTANCE 9: full-benchmark averages, timing tables and "
        "external-solver comparisons are documented as out of scope"
    )
