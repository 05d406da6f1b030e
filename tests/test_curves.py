import json
import math

import pytest

from banachlim.scalar import to_float
from banachlim.space import norm_eval
from banachlim.systems import (l1_drop_system, l2_drop_system,
                               linf_drop_system, project, system_from_json)
from banachlim.curves import (CoordinateCurve, canonical_c0_curve,
                              canonical_grid, canonical_l1_curve,
                              coordinate_gap_oracle, difference_quotient,
                              differentiability_scan, report_to_csv,
                              report_to_json, scale_gap)

from oracles import verify_lipschitz


def _linear_curve(M=6):
    # Sawtooth with frequency 1 is the linear ramp t/pi - 1 on [0, 1];
    # amplitude pi makes the curve t - pi, so every difference quotient
    # is exactly e_1.
    return CoordinateCurve(l1_drop_system(M),
                           (math.pi,) + (0.0,) * (M - 1),
                           (1.0,) * M, "sawtooth", label="linear")


def _constant_curve(M=6):
    return CoordinateCurve(l1_drop_system(M), (0.0,) * M, (1.0,) * M,
                           label="constant")


def test_curve_validation():
    with pytest.raises(ValueError):
        CoordinateCurve(l1_drop_system(4), (1.0,) * 4, (1.0,) * 4, "square")
    with pytest.raises(ValueError):
        CoordinateCurve(l1_drop_system(4), (1.0,) * 3, (1.0,) * 4)
    with pytest.raises(ValueError):
        CoordinateCurve(l1_drop_system(4), (1.0,) * 2, (1.0,) * 2)


def test_declared_lipschitz_bounds():
    l1, c0 = canonical_l1_curve(), canonical_c0_curve()
    # Summable-norm curve: sum of a_k b_k = sum 2^-k < 1; sup-norm curve:
    # every coordinate has slope exactly 1.
    assert l1.lipschitz_bound < 1.0
    assert c0.lipschitz_bound == 1.0
    assert verify_lipschitz(l1)
    assert verify_lipschitz(c0)
    assert verify_lipschitz(_linear_curve())
    assert verify_lipschitz(_constant_curve())


def _three_stage_system(stage_spec):
    """Three stages with the given spec at each dim, last coordinate
    dropped."""
    return system_from_json({
        "spaces": [{"dim": i, "spec": stage_spec(i)} for i in (1, 2, 3)],
        "bonds": [[["1", "0"]], [["1", "0", "0"], ["0", "1", "0"]]]})


@pytest.mark.parametrize("stage_spec", [
    lambda i: {"kind": "lp", "p": "1", "weights": ["3"] * i},
    lambda i: {"kind": "hpoly", "functionals": [["3"] * i] + [
        ["1" if j == k else "0" for j in range(i)] for k in range(i)]}],
    ids=["weighted-l1", "hpoly"])
def test_default_lipschitz_bound_reads_the_stage_norm(stage_spec):
    """f_k = sin t: ||f(t) - f(s)|| = 9 |sin t - sin s| in both norms, so
    the constant is 9, where the sum of the coordinate constants is 3."""
    system = _three_stage_system(stage_spec)
    curve = CoordinateCurve(system, (1.0,) * 3, (1.0,) * 3)
    assert curve.lipschitz_bound == 9.0
    assert verify_lipschitz(curve)
    assert not verify_lipschitz(CoordinateCurve(system, (1.0,) * 3,
                                                (1.0,) * 3,
                                                lipschitz_bound=3.0))


def test_lipschitz_verification_catches_bad_bound():
    bad = CoordinateCurve(l1_drop_system(4), (1.0, 0, 0, 0), (2.0,) * 4,
                          lipschitz_bound=0.5)
    assert not verify_lipschitz(bad)


def test_difference_quotient_linear_curve():
    curve = _linear_curve()
    for t, h in ((0.0, 0.5), (0.25, 0.125), (0.9, 0.05)):
        dq = difference_quotient(curve, t, h, 6)
        vals = [to_float(x) for x in project(dq, 6)]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in vals[1:])


def test_difference_quotient_domain_checks():
    curve = _linear_curve()
    with pytest.raises(ValueError):
        difference_quotient(curve, 0.9, 0.2, 6)   # t + h > 1
    with pytest.raises(ValueError):
        difference_quotient(curve, 0.5, 0.0, 6)   # zero step
    with pytest.raises(ValueError):
        difference_quotient(curve, 0.5, 0.25, 7)  # beyond system cap


def test_curve_values_and_oracle_guards():
    curve = _linear_curve()
    for t in (-0.25, 1.5):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            curve.values(t, 3)
    square = {"dim": 2, "spec": {"kind": "hpoly",
                                 "functionals": [["1", "0"], ["0", "1"]]}}
    line = {"dim": 1, "spec": {"kind": "hpoly", "functionals": [["1"]]}}
    poly = CoordinateCurve(system_from_json(
        {"spaces": [line, square], "bonds": [[["1", "0"]]]}),
        (1.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError, match="sequence-space norms only"):
        coordinate_gap_oracle(poly, 0.5, 2, 2)


def test_difference_quotient_c0_closed_form():
    curve = canonical_c0_curve(12)
    m = 5
    dq = difference_quotient(curve, 0.0, 2.0**-m, 12)
    vals = [to_float(x) for x in project(dq, 12)]
    for k in range(1, 13):
        x = 2.0**(k - m)
        assert vals[k - 1] == pytest.approx(math.sin(x) / x, abs=1e-12)


def test_difference_quotient_l1_norm_bound():
    # Coordinate slopes are a_k b_k = 2^-k, so every difference quotient
    # has summable norm below sum 2^-k < 1.
    curve = canonical_l1_curve(10)
    bound = sum(2.0**-k for k in range(1, 11))
    for t, m in ((0.0, 4), (0.3, 6), (0.7, 8)):
        dq = difference_quotient(curve, t, 2.0**-m, 10)
        n = to_float(norm_eval(curve.system.stage(10), project(dq, 10)))
        assert n <= bound + 1e-12


def test_difference_quotient_is_compatible():
    curve = canonical_c0_curve(8)
    dq = difference_quotient(curve, 0.25, 2.0**-5, 8)
    for j in range(1, 8):
        bonded = curve.system.bond(j)(project(dq, j + 1))
        assert tuple(bonded) == tuple(project(dq, j))


def test_scan_constant_curve_all_zero():
    rep = differentiability_scan(_constant_curve(), [0.0, 0.3, 0.6],
                                 range(2, 6))
    assert all(g == 0.0 for row in rep.gaps for g in row)
    assert set(rep.classifications) == {"decaying"}


def test_scan_linear_curve_decaying():
    rep = differentiability_scan(_linear_curve(), [0.0, 0.25], range(2, 6))
    assert all(g < 1e-12 for row in rep.gaps for g in row)
    assert set(rep.classifications) == {"decaying"}


def test_scan_gaps_nonnegative():
    rep = differentiability_scan(canonical_c0_curve(8), [0.1, 0.5],
                                 range(3, 7), M=8)
    assert all(g >= 0.0 for row in rep.gaps for g in row)


def test_canonical_pair_dichotomy_sampled():
    grid = canonical_grid()[:10]
    l1, c0 = canonical_l1_curve(), canonical_c0_curve()
    rep1 = differentiability_scan(l1, grid, range(4, 15))
    rep0 = differentiability_scan(c0, grid, range(4, 17))
    assert set(rep1.classifications) == {"decaying"}
    assert set(rep0.classifications) == {"obstructed"}
    for row in rep1.gaps:
        for j in range(len(row) - 1):
            assert row[j + 1] / row[j] <= 0.6
    assert min(g for row in rep0.gaps for g in row) >= 0.3


def test_scan_matches_oracle():
    grid = canonical_grid()[:5]
    for curve, ms in ((canonical_l1_curve(), range(4, 15)),
                      (canonical_c0_curve(), range(4, 17))):
        for t in grid:
            for m in ms:
                assert scale_gap(curve, t, m, 20) == pytest.approx(
                    coordinate_gap_oracle(curve, t, m, 20), abs=1e-9)


@pytest.mark.parametrize("build, waveform", [
    (l1_drop_system, "sawtooth"), (l2_drop_system, "sine"),
    (l2_drop_system, "sawtooth")])
def test_scan_matches_oracle_on_sawtooth_and_l2_curves(build, waveform):
    """The oracle's sawtooth and l2 branches agree with the exact scan
    (power-of-2 amplitudes and frequencies, so both round alike)."""
    M, ts, ms = 6, (0.1, 0.37, 0.8), range(3, 9)
    curve = CoordinateCurve(build(M), tuple(2.0**-k for k in range(1, M + 1)),
                            tuple(2.0**k for k in range(1, M + 1)), waveform)
    rep = differentiability_scan(curve, ts, ms)
    for t, row in zip(ts, rep.gaps):
        for m, gap in zip(ms, row):
            assert gap == pytest.approx(
                coordinate_gap_oracle(curve, t, m, M), abs=1e-9)


def test_canonical_grid_properties():
    grid = canonical_grid()
    assert len(grid) == 100
    assert grid[0] == 0.0                       # the worked-example point
    assert all(0.0 <= t <= 1.0 - 2.0**-4 for t in grid)
    assert canonical_grid(5) == grid[:5]        # prefix-stable selection


def test_report_serialization():
    rep = differentiability_scan(canonical_c0_curve(8), [0.0, 0.5],
                                 range(3, 6), M=8)
    payload = json.loads(report_to_json(rep))
    assert payload["classifications"] == list(rep.classifications)
    assert payload["gaps"][0][0] == rep.gaps[0][0]
    lines = report_to_csv(rep).splitlines()
    assert lines[0] == "t,m,gap,classification"
    assert len(lines) == 1 + 2 * 3
    # Byte-identical on repeat (reports carry no timestamps).
    assert report_to_json(rep) == report_to_json(rep)


def test_sup_norm_curve_with_linf_target():
    curve = CoordinateCurve(linf_drop_system(5), (1.0,) * 5,
                            (1.0, 2.0, 3.0, 4.0, 5.0))
    assert curve.lipschitz_bound == 5.0
    assert verify_lipschitz(curve)


def test_c0_scan_at_depth_200():
    """At the paper's depth the scan still matches the closed-form oracle
    and still sees the sup-norm obstruction."""
    curve = canonical_c0_curve(200)
    ts = canonical_grid(100)[:4]
    ms = range(4, 17)
    rep = differentiability_scan(curve, ts, ms)
    assert rep.eval_stage == 200
    for t, row in zip(ts, rep.gaps):
        for m, gap in zip(ms, row):
            assert abs(gap - coordinate_gap_oracle(curve, t, m, 200)) <= 1e-9
    assert set(rep.classifications) == {"obstructed"}
    cv = difference_quotient(curve, ts[0], 2.0**-8, 200)
    assert project(cv, 20) == cv.stages[-1][:20]
