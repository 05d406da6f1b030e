import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from banachlim import cli, space, systems
from banachlim.cli import EXIT_BAD_INPUT, main
from banachlim.determining import (RhoSchedule, prefix_obstruction_query,
                                   verify_pair)
from banachlim.scalar import Q, read
from banachlim.systems import system_from_json, validate_standard


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_loads(text):
    """json.loads that refuses NaN and +-Infinity, which are not JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def test_validate_builtin_pass(tmp_path, capsys):
    job = _write(tmp_path, "sys.json", {"builtin": "l1_drop", "stages": 8})
    code, out = _run(capsys, "validate", job)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert len(report["verdicts"]) == 7
    assert report["manifest"]["command"] == "validate"
    assert report["manifest"]["caps"] == {"max_stage": None}


def test_validate_random_quotient_flags(tmp_path, capsys):
    job = _write(tmp_path, "sys.json",
                 {"builtin": "random_quotient", "stages": 4, "seed": 3})
    code, out = _run(capsys, "validate", job)
    assert code == 0
    report = json.loads(out)
    assert all(v["quotient_ok"] for v in report["verdicts"])


def test_validate_corrupted_bond_fails(tmp_path, capsys):
    payload = {
        "kind": "inverse", "stages": 2,
        "spaces": [
            {"dim": 1, "spec": {"kind": "lp", "p": "1", "weights": ["1"]}},
            {"dim": 1, "spec": {"kind": "lp", "p": "1", "weights": ["1"]}},
        ],
        "bonds": [[["3"]]],           # operator norm 3 > 1
    }
    job = _write(tmp_path, "sys.json", payload)
    code, out = _run(capsys, "validate", job)
    assert code == 1
    report = json.loads(out)
    assert not report["verdicts"][0]["lipschitz_ok"]
    assert report["verdicts"][0]["stage"] == 1


def test_validate_witness_is_a_source_vector(tmp_path, capsys):
    # The failing bond maps a V-polytope plane onto a line: its witness is
    # a point of the plane that attains the operator norm 3.
    payload = {
        "kind": "inverse", "stages": 2,
        "spaces": [
            {"dim": 1, "spec": {"kind": "lp", "p": "1", "weights": ["1"]}},
            {"dim": 2, "spec": {"kind": "vpoly",
                                "vertices": [["1", "0"], ["0", "1"],
                                             ["1", "1"]]}},
        ],
        "bonds": [[["3", "-1"]]],
    }
    code, out = _run(capsys, "validate", _write(tmp_path, "sys.json", payload))
    assert code == 1
    witness = json.loads(out)["verdicts"][0]["witness"]
    assert witness == ["1", "0"]


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "inverse",\n  broken\n}')
    assert main(["validate", str(path)]) == 3
    assert ":2:" in capsys.readouterr().err


def test_dualize_roundtrip(tmp_path, capsys):
    job = _write(tmp_path, "sys.json",
                 {"builtin": "linf_padding", "stages": 4})
    d1 = str(tmp_path / "d1.json")
    assert main(["dualize", job, "--out", d1]) == 0
    capsys.readouterr()
    dual = json.loads(open(d1).read())
    assert dual["kind"] == "inverse"
    # The dual of the padding direct system is a standard drop system.
    loaded = system_from_json(dual)
    assert all(v.lipschitz_ok for v in validate_standard(loaded))
    d2 = str(tmp_path / "d2.json")
    d3 = str(tmp_path / "d3.json")
    assert main(["dualize", d1, "--out", d2]) == 0
    assert main(["dualize", d2, "--out", d3]) == 0
    capsys.readouterr()
    assert open(d1).read() == open(d3).read()


@pytest.mark.parametrize("label", ["", "x", "x*", "x**"])
def test_dualize_reports_the_label_it_writes(tmp_path, capsys, label):
    """The report of dualize --out names the label of the file it wrote,
    also for a system that was dualized before."""
    path = _write(tmp_path, "sys.json", dict(_INLINE_SYSTEM, label=label))
    for k in (1, 2):
        out = str(tmp_path / f"d{k}.json")
        code, report = _run(capsys, "dualize", path, "--out", out)
        assert code == 0
        assert json.loads(report)["dual_label"] == \
            json.loads(pathlib.Path(out).read_text())["label"]
        path = out


def test_norms_exact_values(tmp_path, capsys):
    job = _write(tmp_path, "job.json", {
        "system": {"builtin": "l1_drop", "stages": 4},
        "vectors": [["1", "1/2", "0", "1"], ["2", "0", "0", "0"]],
    })
    code, out = _run(capsys, "norms", job)
    assert code == 0
    rows = json.loads(out)["vectors"]
    assert rows[0]["limit_lower_bound"]["exact"] == "5/2"
    assert rows[1]["stage_norms"] == [{"exact": "2", "float": 2.0}] * 4


_SQUARE_MAP = {
    "source": {"dim": 2, "label": "a",
               "spec": {"kind": "lp", "p": "1", "weights": ["1", "1"]}},
    "target": {"dim": 2, "label": "b",
               "spec": {"kind": "lp", "p": "inf", "weights": ["1", "1"]}},
    "matrix": [["1", "1"], ["1", "-1"]],
}


def test_opnorm_report(tmp_path, capsys):
    job = _write(tmp_path, "map.json", _SQUARE_MAP)
    code, out = _run(capsys, "opnorm", job)
    assert code == 0
    report = json.loads(out)
    assert report["value"]["exact"] == "1"
    assert report["certificate_kind"] == "exact"
    assert report["witness"] is not None


def test_quotient_check_exit_codes(tmp_path, capsys):
    job = _write(tmp_path, "map.json", _SQUARE_MAP)
    code, out = _run(capsys, "quotient-check", job)
    assert code == 0
    assert json.loads(out)["quotient"]["verdict"]
    shrunk = dict(_SQUARE_MAP, matrix=[["1/2", "0"], ["0", "1/2"]])
    job2 = _write(tmp_path, "map2.json", shrunk)
    code, out = _run(capsys, "quotient-check", job2)
    assert code == 1
    assert not json.loads(out)["quotient"]["verdict"]


def test_determine_canonical_counterexample(tmp_path, capsys):
    job = _write(tmp_path, "q.json", {
        "canonical": "prefix_obstruction", "n": 2,
        "certify": {"delta": "1/10"},
    })
    code, out = _run(capsys, "determine", job)
    assert code == 1
    report = json.loads(out)
    cx = report["certify"]["counterexample"]
    assert cx["violation"]["float"] >= 0.9


def test_determine_certificate_exit_zero(tmp_path, capsys):
    job = _write(tmp_path, "q.json", {
        "system": {"builtin": "l1_drop", "stages": 4},
        "generator": {"tail": [["1"], ["0"], ["0"], ["0"]]},
        "rho": ["1/2", "1/2"], "eps": "3/4",
        "certify": {"delta": "1/10"},
    })
    code, out = _run(capsys, "determine", job)
    assert code == 0
    assert json.loads(out)["certify"]["kind"] == "certificate"


def test_determine_search_mode(tmp_path, capsys):
    job = _write(tmp_path, "q.json", {
        "canonical": "prefix_obstruction", "n": 3, "mode": "search",
    })
    code, out = _run(capsys, "determine", job, "--seed", "5")
    assert code == 1
    report = _strict_loads(out)
    assert report["search"]["kind"] == "counterexample"
    assert report["manifest"]["seed"] == 5
    # Search cannot certify: a clean instance exits 2.
    job2 = _write(tmp_path, "q2.json", {
        "system": {"builtin": "l1_drop", "stages": 4},
        "generator": {"tail": [["1"], ["0"], ["0"], ["0"]]},
        "rho": ["1/2", "1/2"], "eps": "3/4", "mode": "search",
    })
    code, out = _run(capsys, "determine", job2)
    assert code == 2
    assert _strict_loads(out)["search"]["kind"] == "not-found"
    # One parameter and one Gaussian start: a finite best margin.
    job3 = _write(tmp_path, "q3.json", _search_job(starts=1))
    code, out = _run(capsys, "determine", job3)
    assert code == 2
    assert _strict_loads(out)["search"]["best_margin"] > -1


def test_canonical_job_reads_its_rho(tmp_path, capsys):
    job = _write(tmp_path, "q.json", {
        "canonical": "prefix_obstruction", "n": 2, "rho": ["1/2", "1/3"],
        "mode": "search"})
    code, out = _run(capsys, "determine", job)
    assert code == 1
    report = _strict_loads(out)
    assert report["rho"] == ["1/2", "1/3"]
    cx = report["search"]["counterexample"]
    q = prefix_obstruction_query(2, rho=RhoSchedule((Q(1, 2), Q(1, 3))))
    assert verify_pair(q, [Q(x) for x in cx["a"]],
                       [Q(x) for x in cx["a_prime"]]) is not None


def test_reports_byte_identical(tmp_path, capsys):
    job = _write(tmp_path, "q.json", {
        "canonical": "prefix_obstruction", "n": 2,
        "certify": {"delta": "1/10"},
    })
    out_path = str(tmp_path / "rep.json")
    main(["determine", job, "--out", out_path])
    first = open(out_path).read()
    main(["determine", job, "--out", out_path])
    assert open(out_path).read() == first
    capsys.readouterr()


_FLIP_GEN = [[["1", "0"]], [["1", "0"], ["0", "1"]],
             [["1", "0"], ["0", "1"], ["1", "1"]]]


def test_gfda_check_exit_codes(tmp_path, capsys):
    from banachlim.scalar import format_scalar
    from banachlim.systems import generator_from_tail
    sys12 = system_from_json({"builtin": "l1_drop", "stages": 12})
    gen = generator_from_tail(
        sys12, [["1", "0"], ["0", "1"]] + [["0", "0"]] * 10)
    mats = [[[format_scalar(v) for v in row] for row in gen.matrix(i)]
            for i in range(1, 13)]
    good = _write(tmp_path, "good.json", {
        "system": {"builtin": "l1_drop", "stages": 12},
        "generator": mats,
        "stages": 2,
        "query": {"rho": ["1/100", "1/100"], "eps": "1",
                  "certify": {"delta": "1/40"}},
    })
    code, out = _run(capsys, "gfda-check", good)
    assert code == 0
    assert json.loads(out)["passes"]

    bad = _write(tmp_path, "bad.json", {
        "system": {"builtin": "linf_drop", "stages": 3},
        "generator": _FLIP_GEN,
        "stages": 3,
        "query": {"rho": ["1/2", "1/2"], "eps": "1/4",
                  "certify": {"delta": "1/10"}},
    })
    code, out = _run(capsys, "gfda-check", bad)
    assert code == 1
    report = json.loads(out)
    assert not report["stage_verdicts"][1]["verdict"]


def test_anp_dp_report(tmp_path, capsys):
    ones = [["1"] * k + ["0"] * (5 - k) for k in range(1, 6)]
    job = _write(tmp_path, "seq.json", {
        "system": {"builtin": "linf_drop", "stages": 5},
        "sequence": ones + [ones[-1], ones[-1]],
    })
    code, out = _run(capsys, "anp-dp", job)
    assert code == 0
    report = json.loads(out)
    assert report["dp"]["uniform_within_tol"]
    assert report["anp"]["norm_converges"]
    assert report["equivalence"]["agree"]
    assert report["equivalence"]["identity_holds"]


def test_anp_dp_on_a_quotient_system_with_dense_bonds(tmp_path, capsys):
    tail = ["1", "-1/2", "0", "2"]
    job = _write(tmp_path, "seq.json", {
        "system": {"builtin": "random_quotient", "stages": 4, "seed": 3},
        "sequence": [tail, tail, tail],
    })
    code, out = _run(capsys, "anp-dp", job)
    assert code == 0
    assert json.loads(out)["equivalence"]["identity_holds"]


def test_curves_scan_and_csv(tmp_path, capsys):
    job = _write(tmp_path, "cur.json", {
        "curve": "canonical_c0", "ts": [0.0, 0.25],
        "m_range": [4, 8], "stage": 12,
    })
    out_path = str(tmp_path / "scan.json")
    code = main(["curves", job, "--out", out_path])
    capsys.readouterr()
    assert code == 0
    report = json.loads(open(out_path).read())
    assert report["classifications"][0] == "obstructed"
    csv_text = open(str(tmp_path / "scan.csv")).read()
    assert csv_text.startswith("t,m,gap,classification")


def test_curves_custom_constant(tmp_path, capsys):
    job = _write(tmp_path, "cur.json", {
        "curve": {"system": {"builtin": "l1_drop", "stages": 5},
                  "amplitudes": [0, 0, 0, 0, 0],
                  "frequencies": [1, 1, 1, 1, 1]},
        "ts": [0.0, 0.5], "m_range": [2, 5],
    })
    code, out = _run(capsys, "curves", job)
    assert code == 0
    report = json.loads(out)
    assert all(g == 0 for row in report["gaps"] for g in row)
    assert set(report["classifications"]) == {"decaying"}


_WLINF = {"dim": 2, "label": "w",
          "spec": {"kind": "lp", "p": "inf", "weights": ["2", "1/3"]}}
_WL1 = {"dim": 2, "label": "s",
        "spec": {"kind": "lp", "p": "1", "weights": ["1", "3/2"]}}
_L2 = {"dim": 2, "label": "e",
       "spec": {"kind": "lp", "p": "2", "weights": ["1", "1"]}}
_LINE = {"dim": 1, "label": "t",
         "spec": {"kind": "lp", "p": "inf", "weights": ["1"]}}
_HPOLY = {"dim": 2, "label": "h",
          "spec": {"kind": "hpoly",
                   "functionals": [["1", "0"], ["0", "1"], ["1", "1"]]}}
_SKEW = [["1", "-2"], ["1", "1"]]


# One job through each of: the vertex list of a weighted linf cube, the
# operator norm's vertex loop (into l2 and into polytopes), the rows-form
# pullback of linf stages, the canonical prefix generator, the dual system
# and the --max-stage copy; and a norms tail echoed as given (a decimal, a
# p/q string and an int), an anp-dp tol read from the job, and an inline
# curve cut by --max-stage.  Exit code and report (manifest aside), as
# compact sorted JSON.
@pytest.mark.parametrize("command, job, extra, code, text", [
    ("opnorm", {"source": _WLINF, "target": _L2,
                "matrix": [["1", "2"], ["-1", "1"]]}, [], 0,
     '{"bracket":[{"exact":"1960246382968687/281474976710656",'
     '"float":6.96419413859206},'
     '{"exact":"13651536370466816/1960246382968687",'
     '"float":6.96419413859206}],"certificate_kind":"exact",'
     '"source":"w","target":"e",'
     '"value":{"exact":"7685131763883640672306104095265/11035206099865'
     '17671223014457344","float":6.96419413859206},"witness":["1/2",'
     '"3"]}'),
    ("quotient-check", {"source": _WLINF, "target": _LINE,
                        "matrix": [["1", "1"]]}, [], 1,
     '{"isometric_embedding":{"certificate_kind":"exact",'
     '"reason":"not injective","verdict":false,"witness":null},'
     '"quotient":{"certificate_kind":"exact",'
     '"reason":"operator norm exceeds 1","verdict":false,'
     '"witness":["1/2","3"]},"source":"w","target":"t"}'),
    ("opnorm", {"source": _HPOLY, "target": _WL1, "matrix": _SKEW}, [], 0,
     '{"bracket":[{"exact":"7/2","float":3.5},{"exact":"7/2",'
     '"float":3.5}],"certificate_kind":"exact","source":"h",'
     '"target":"s","value":{"exact":"7/2","float":3.5},"witness":["0",'
     '"-1"]}'),
    ("opnorm", {"source": _WL1, "target": _HPOLY, "matrix": _SKEW}, [], 0,
     '{"bracket":[{"exact":"2","float":2.0},{"exact":"2",'
     '"float":2.0}],"certificate_kind":"exact","source":"s",'
     '"target":"h","value":{"exact":"2","float":2.0},"witness":["1",'
     '"0"]}'),
    ("determine", {"canonical": "prefix_obstruction", "n": 2,
                   "certify": {"delta": "1/10"}}, [], 1,
     '{"certify":{"counterexample":{"a":["2","-1"],"a_prime":["1",'
     '"0"],"proximity_slack":{"exact":"1/2","float":0.5},'
     '"tail_slacks":[[{"exact":"1/2","float":0.5},{"exact":"1/2",'
     '"float":0.5}],[{"exact":"1/2","float":0.5},{"exact":"1/2",'
     '"float":0.5}]],"v":["1","1","-1","-1"],"v_prime":["1","1","0",'
     '"0"],"violation":{"exact":"1","float":1.0}},"delta":"1/10",'
     '"kind":"counterexample","points_checked":38808,"refinements":0,'
     '"statement":"violating pair found and exactly re-verified (stage'
     '-4 operative norm)"},"eps":"1/2","eval_stage":4,'
     '"mode":"certify","rho":["1/2","1/2"]}'),
    ("gfda-check", {"system": {"builtin": "linf_drop", "stages": 3},
                    "generator": _FLIP_GEN, "stages": 3,
                    "query": {"rho": ["1/2", "1/2"], "eps": "1/4",
                              "certify": {"delta": "1/10"}}}, [], 1,
     '{"certify":{"counterexample":{"a":["10/13","3/13"],'
     '"a_prime":["1/2","0"],"proximity_slack":{"exact":"3/13",'
     '"float":0.23076923076923078},"tail_slacks":[[{"exact":"7/26",'
     '"float":0.2692307692307692},{"exact":"1/4","float":0.25}],'
     '[{"exact":"7/26","float":0.2692307692307692},{"exact":"1/4",'
     '"float":0.25}]],"v":["10/13","3/13","1"],"v_prime":["1/2","0",'
     '"1/2"],"violation":{"exact":"1/2","float":0.5}},"delta":"1/10",'
     '"kind":"counterexample","points_checked":38808,"refinements":0,'
     '"statement":"violating pair found and exactly re-verified (stage'
     '-3 operative norm)"},"passes":false,'
     '"stage_verdicts":[{"certificate_kind":"exact","reason":"",'
     '"verdict":true,"witness":null},{"certificate_kind":"exact",'
     '"reason":"min preimage norm != target norm","verdict":false,'
     '"witness":["1","1"]},{"certificate_kind":"exact","reason":"",'
     '"verdict":true,"witness":null}],"system":"linf_drop"}'),
    ("dualize", {"builtin": "linf_padding", "stages": 3}, [], 0,
     '{"dual":{"bonds":[[["1","0"]],[["1","0","0"],["0","1","0"]]],'
     '"is_quotient_system":false,"kind":"inverse","label":"linf_pad*",'
     '"spaces":[{"dim":1,"label":"linfpad_1*","spec":{"kind":"lp",'
     '"p":"1","weights":["1"]}},{"dim":2,"label":"linfpad_2*",'
     '"spec":{"kind":"lp","p":"1","weights":["1","1"]}},{"dim":3,'
     '"label":"linfpad_3*","spec":{"kind":"lp","p":"1","weights":["1",'
     '"1","1"]}}],"stages":3}}'),
    ("validate", {"builtin": "random_quotient", "stages": 4, "seed": 3},
     ["--max-stage", "2"], 0,
     '{"passed":true,"stages":2,"system":"random_quotient_3",'
     '"verdicts":[{"lipschitz_ok":true,"quotient_ok":true,"stage":1,'
     '"witness":null}]}'),
    ("norms", {"system": {"builtin": "l1_drop", "stages": 3},
               "vectors": [["0.5", "1/3", 2]]}, [], 0,
     '{"stages":3,"system":"l1_drop","vectors":[{"limit":null,'
     '"limit_lower_bound":{"exact":"17/6","float":2.8333333333333335},'
     '"stage_norms":[{"exact":"1/2","float":0.5},{"exact":"5/6",'
     '"float":0.8333333333333334},{"exact":"17/6",'
     '"float":2.8333333333333335}],"tail":["0.5","1/3",2]}]}'),
    # The float shadow of a value above the float range is null.
    ("norms", {"system": {"builtin": "l1_drop", "stages": 2},
               "vectors": [["1e309", "0"]]}, [], 0,
     '{"stages":2,"system":"l1_drop","vectors":[{"limit":null,'
     '"limit_lower_bound":{"exact":"1' + "0" * 309 + '","float":null},'
     '"stage_norms":[{"exact":"1' + "0" * 309 + '","float":null},'
     '{"exact":"1' + "0" * 309 + '","float":null}],"tail":["1e309","0"]}]}'),
    ("anp-dp", {"system": {"builtin": "linf_drop", "stages": 3},
                "sequence": [["1", "0", "0"], ["1", "1", "0"],
                             ["1", "1", "1"], ["1", "1", "1"]],
                "tol": "1/100"}, [], 0,
     '{"anp":{"eval_stage":3,"norm_converges":true,"norm_residuals":['
     '{"exact":"0","float":0.0},{"exact":"0","float":0.0},{"exact":"0",'
     '"float":0.0},{"exact":"0","float":0.0}],"strong_converges":true,'
     '"strong_residuals":[{"exact":"1","float":1.0},{"exact":"1",'
     '"float":1.0},{"exact":"0","float":0.0},{"exact":"0","float":0.0}],'
     '"tol":"1/100","weak_star_convergent":true},"dp":{"blocks":[1,2,3],'
     '"eval_stage":3,"norm_converges":null,"tol":"1/100",'
     '"uniform_within_tol":true,"uniformity":[{"exact":"0","float":0.0},'
     '{"exact":"0","float":0.0},{"exact":"0","float":0.0}],'
     '"weak_star_convergent":null},"equivalence":{"agree":true,'
     '"identity_holds":true,"onset":0,"stage":1,"terms":[{"exact":"0",'
     '"float":0.0},{"exact":"0","float":0.0},{"exact":"0","float":0.0}]},'
     '"system":"linf_drop"}'),
    ("curves", {"curve": {"system": {"builtin": "l1_drop", "stages": 4},
                          "amplitudes": [1, 0.5, 0.25, 0.125],
                          "frequencies": [1, 2, 4, 8], "label": "geo"},
                "ts": [0.0, 0.5], "m_range": [3, 5]}, ["--max-stage", "3"], 0,
     '{"classifications":["decaying","decaying"],"curve":"geo",'
     '"eval_stage":3,"floor_threshold":0.3,"gaps":[[0.0404980082696772,'
     '0.010221410512342821,0.002561443310714284],[0.16973226605023917,'
     '0.088281314923075,0.044795188849311884]],"ms":[3,4,5],'
     '"slope_threshold":-0.8,"ts":[0.0,0.5]}'),
], ids=["opnorm-wlinf-l2", "quotient-wlinf", "opnorm-hpoly-l1",
        "opnorm-l1-hpoly", "determine-prefix", "gfda-linf",
        "dualize-padding", "validate-max-stage", "norms-echo",
        "norms-float-overflow", "anp-dp-tol",
        "curves-inline-max-stage"])
def test_report_text_is_pinned(tmp_path, capsys, command, job, extra, code,
                               text):
    assert main([command, _write(tmp_path, "job.json", job)] + extra) == code
    report = json.loads(capsys.readouterr().out)
    del report["manifest"]
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == text


# The search reports of the prefix jobs at depths the determine benchmark
# runs, best_margin and evaluations to the bit.
@pytest.mark.parametrize("n, text", [
    (7,
     '{"eps":"1/3","eval_stage":14,"mode":"search","rho":["1/2","1/2","1'
     '/2","1/2","1/2","1/2","1/2"],"search":{"best_margin":0.14285714285'
     '714285,"counterexample":{"a":["1","0"],"a_prime":["0","1"],"proxim'
     'ity_slack":{"exact":"1/7","float":0.14285714285714285},"tail_slack'
     's":[[{"exact":"1/2","float":0.5},{"exact":"1/2","float":0.5}],[{"e'
     'xact":"1/2","float":0.5},{"exact":"1/2","float":0.5}],[{"exact":"1'
     '/2","float":0.5},{"exact":"1/2","float":0.5}],[{"exact":"1/2","flo'
     'at":0.5},{"exact":"1/2","float":0.5}],[{"exact":"1/2","float":0.5}'
     ',{"exact":"1/2","float":0.5}],[{"exact":"1/2","float":0.5},{"exact'
     '":"1/2","float":0.5}],[{"exact":"1/2","float":0.5},{"exact":"1/2",'
     '"float":0.5}]],"v":["1","1","1","1","1","1","1","0","0","0","0","0'
     '","0","0"],"v_prime":["1","1","1","1","1","1","1","1","1","1","1",'
     '"1","1","1"],"violation":{"exact":"1","float":1.0}},"evaluations":'
     '4060,"kind":"counterexample"}}'),
    (10,
     '{"eps":"1/3","eval_stage":20,"mode":"search","rho":["1/2","1/2","1'
     '/2","1/2","1/2","1/2","1/2","1/2","1/2","1/2"],"search":{"best_mar'
     'gin":0.099995726235981,"counterexample":{"a":["1","-359103/848917"'
     '],"a_prime":["-158448/488827","247386/274531"],"proximity_slack":{'
     '"exact":"51327129671954587/569615518768033145","float":0.090108376'
     '58174257},"tail_slacks":[[{"exact":"244907/848917","float":0.28849'
     '34569575118},{"exact":"16965590223/134198165137","float":0.1264219'
     '2391885684}],[{"exact":"244907/848917","float":0.2884934569575118}'
     ',{"exact":"16965590223/134198165137","float":0.12642192391885684}]'
     ',[{"exact":"244907/848917","float":0.2884934569575118},{"exact":"1'
     '6965590223/134198165137","float":0.12642192391885684}],[{"exact":"'
     '244907/848917","float":0.2884934569575118},{"exact":"16965590223/1'
     '34198165137","float":0.12642192391885684}],[{"exact":"244907/84891'
     '7","float":0.2884934569575118},{"exact":"16965590223/134198165137"'
     ',"float":0.12642192391885684}],[{"exact":"244907/848917","float":0'
     '.2884934569575118},{"exact":"16965590223/134198165137","float":0.1'
     '2642192391885684}],[{"exact":"244907/848917","float":0.28849345695'
     '75118},{"exact":"16965590223/134198165137","float":0.1264219239188'
     '5684}],[{"exact":"244907/848917","float":0.2884934569575118},{"exa'
     'ct":"16965590223/134198165137","float":0.12642192391885684}],[{"ex'
     'act":"244907/848917","float":0.2884934569575118},{"exact":"1696559'
     '0223/134198165137","float":0.12642192391885684}],[{"exact":"244907'
     '/848917","float":0.2884934569575118},{"exact":"16965590223/1341981'
     '65137","float":0.12642192391885684}]],"v":["489814/848917","489814'
     '/848917","489814/848917","489814/848917","489814/848917","489814/8'
     '48917","489814/848917","489814/848917","489814/848917","489814/848'
     '917","-359103/848917","-359103/848917","-359103/848917","-359103/8'
     '48917","-359103/848917","-359103/848917","-359103/848917","-359103'
     '/848917","-359103/848917","-359103/848917"],"v_prime":["7743006833'
     '4/134198165137","77430068334/134198165137","77430068334/1341981651'
     '37","77430068334/134198165137","77430068334/134198165137","7743006'
     '8334/134198165137","77430068334/134198165137","77430068334/1341981'
     '65137","77430068334/134198165137","77430068334/134198165137","2473'
     '86/274531","247386/274531","247386/274531","247386/274531","247386'
     '/274531","247386/274531","247386/274531","247386/274531","247386/2'
     '74531","247386/274531"],"violation":{"exact":"102865028885/7000339'
     '3654","float":1.469429173582962}},"evaluations":3860,"kind":"count'
     'erexample"}}'),
], ids=["prefix-7", "prefix-10"])
def test_search_report_text_is_pinned(tmp_path, capsys, n, text):
    job = {"canonical": "prefix_obstruction", "n": n, "eps": "1/3",
           "mode": "search"}
    assert main(["determine", _write(tmp_path, "job.json", job),
                 "--seed", "5"]) == 1
    report = json.loads(capsys.readouterr().out)
    del report["manifest"]
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == text


def test_unchecked_bond_norms_enter_the_certify_margins(tmp_path, capsys):
    # A stage map with ||G_1 : nu -> W_1|| far above 1: a margin that takes
    # every stage map as 1-Lipschitz from nu certifies this job, while the
    # search finds an exactly verified violating pair.
    # The bond is [[10^6, -10^6 phi]], phi = 1543904/1000565.
    job = {"system": {"spaces": [
        {"dim": 1, "label": "a", "spec": {"kind": "lp", "p": "1",
                                         "weights": ["1"]}},
        {"dim": 2, "label": "b", "spec": {"kind": "lp", "p": "1",
                                         "weights": ["1", "1"]}}],
        "bonds": [[["1000000", "-1543904000000/1000565"]]]},
        "generator": {"tail": [["1", "0"], ["0", "1"]]},
        "rho": ["1/2"], "eps": "2/5", "eval_stage": 2}
    code, out = _run(capsys, "determine", _write(tmp_path, "c.json", job))
    assert code in (1, 2)
    assert json.loads(out)["certify"]["kind"] in ("counterexample",
                                                  "undecided")
    code, out = _run(capsys, "determine", _write(tmp_path, "s.json", {
        **job, "mode": "search"}))
    assert code == 1
    assert json.loads(out)["search"]["kind"] == "counterexample"


def test_max_stage_truncates_loaded_systems(tmp_path, capsys):
    quotient = _write(tmp_path, "q.json",
                      {"builtin": "random_quotient", "stages": 5, "seed": 3})
    code, out = _run(capsys, "validate", quotient, "--max-stage", "3")
    report = json.loads(out)
    assert code == 0 and report["stages"] == 3
    assert report["manifest"]["caps"] == {"max_stage": 3}
    assert [v["quotient_ok"] for v in report["verdicts"]] == [True, True]
    norms = _write(tmp_path, "n.json", {
        "system": {"builtin": "l1_drop", "stages": 6},
        "vectors": [["1", "1/2"]]})
    code, out = _run(capsys, "norms", norms, "--max-stage", "2")
    report = json.loads(out)
    assert code == 0 and report["stages"] == 2
    assert len(report["vectors"][0]["stage_norms"]) == 2
    assert main(["validate", quotient, "--max-stage", "0"]) == EXIT_BAD_INPUT
    assert "--max-stage" in capsys.readouterr().err


def _report(capsys, command, path, *extra):
    """(exit code, report without its manifest) of one CLI call."""
    code, out = _run(capsys, command, path, *extra)
    report = _strict_loads(out)
    del report["manifest"]
    return code, report


# The same generator, once as its top-stage matrix and once as the list of
# its stage matrices, in each command that reads a generator.
@pytest.mark.parametrize("command, job, tail, matrices", [
    ("determine", {"system": {"builtin": "l1_drop", "stages": 4},
                   "rho": ["1/2", "1/2"], "eps": "3/4",
                   "certify": {"delta": "1/10"}},
     [["1"], ["0"], ["0"], ["0"]],
     [[["1"]], [["1"], ["0"]], [["1"], ["0"], ["0"]],
      [["1"], ["0"], ["0"], ["0"]]]),
    ("gfda-check", {"system": {"builtin": "linf_drop", "stages": 3},
                    "stages": 3,
                    "query": {"rho": ["1/2", "1/2"], "eps": "1/4",
                              "certify": {"delta": "1/10"}}},
     _FLIP_GEN[-1], _FLIP_GEN),
], ids=["determine", "gfda-check"])
def test_generator_tail_and_matrices_give_one_report(tmp_path, capsys,
                                                     command, job, tail,
                                                     matrices):
    by_tail = _write(tmp_path, "tail.json",
                     dict(job, generator={"tail": tail}))
    by_mats = _write(tmp_path, "mats.json", dict(job, generator=matrices))
    code, report = _report(capsys, command, by_tail)
    assert (code, report) == _report(capsys, command, by_mats)
    assert code == (0 if command == "determine" else 1)


def test_gfda_check_without_a_query_uses_the_default(tmp_path, capsys):
    job = _write(tmp_path, "g.json", {
        "system": {"builtin": "linf_drop", "stages": 3},
        "generator": {"tail": _FLIP_GEN[-1]}, "stages": 3})
    code, report = _report(capsys, "gfda-check", job)
    assert code == 1 and not report["passes"]
    assert [v["verdict"] for v in report["stage_verdicts"]] == [True, False,
                                                                True]
    assert report["certify"]["kind"] == "counterexample"


def test_curves_on_the_canonical_grid_with_max_stage(tmp_path, capsys):
    from banachlim import curves
    job = _write(tmp_path, "c.json", {"curve": "canonical_l1",
                                      "ts": "canonical", "grid_points": 2,
                                      "m_range": [4, 6]})
    code, report = _report(capsys, "curves", job, "--max-stage", "5")
    assert code == 0
    assert report["curve"] == "canonical_l1" and report["eval_stage"] == 5
    assert tuple(report["ts"]) == curves.canonical_grid(2)
    curve = curves.canonical_l1_curve()
    for t, row in zip(report["ts"], report["gaps"]):
        for m, gap in zip(report["ms"], row):
            assert gap == pytest.approx(
                curves.coordinate_gap_oracle(curve, t, m, 5), abs=1e-9)
    code, report = _report(capsys, "curves", job)
    assert code == 0 and report["eval_stage"] == 20


def test_failed_report_write_leaves_no_temp_file(tmp_path, capsys,
                                                 monkeypatch):
    from banachlim import cli

    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    job = _write(tmp_path, "sys.json", {"builtin": "l1_drop", "stages": 2})
    out = str(tmp_path / "r.json")
    assert main(["validate", job, "--out", out]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sys.json"]


@pytest.mark.parametrize("value", ["1e-200", "1e200"])
def test_norms_outside_the_float_range(tmp_path, capsys, value):
    from fractions import Fraction
    job = _write(tmp_path, "n.json", {
        "system": {"builtin": "l2_drop", "stages": 2},
        "vectors": [[value, "0"]]})
    code, out = _run(capsys, "norms", job)
    assert code == 0
    v = Fraction(value)
    for norm in _strict_loads(out)["vectors"][0]["stage_norms"]:
        assert abs(Fraction(norm["exact"]) / v - 1) <= Fraction(1, 2**49)


def test_bad_job_exits_three(tmp_path, capsys):
    job = _write(tmp_path, "bad.json", {"nonsense": True})
    assert main(["determine", job]) == 3
    capsys.readouterr()


def _search_job(**search):
    """A one-parameter search job: it has no axis starts."""
    return {"system": {"builtin": "l1_drop", "stages": 3},
            "generator": {"tail": [["1"], ["1"], ["1"]]},
            "rho": ["1/2"], "eps": "1/2", "mode": "search", "search": search}


def _certify_job(**certify):
    """The canonical n = 2 certify job with the given certify settings."""
    return {"canonical": "prefix_obstruction", "n": 2, "certify": certify}


_SYSTEM_JOB = json.dumps({"builtin": "l1_drop", "stages": 3})
_CURVE_JOB = json.dumps({
    "curve": {"system": {"builtin": "l1_drop", "stages": 5},
              "amplitudes": [0, 0, 0, 0, 0], "frequencies": [1, 1, 1, 1, 1]},
    "ts": [0.0, 0.5], "m_range": [2, 5]})
_UNWRITABLE = ["--out", "{tmp}/missing/r.json"]


_L1_LINE = {"dim": 1, "spec": {"kind": "lp", "p": "1", "weights": ["1"]}}
# Malformed systems, each with the key its error must name.
_BAD_SYSTEMS = {
    "system-zero-stages": ({"builtin": "l1_drop", "stages": 0}, "stages"),
    "system-negative-stages": ({"builtin": "l1_drop", "stages": -1},
                               "stages"),
    "system-bool-stages": ({"builtin": "l1_drop", "stages": True}, "stages"),
    "system-fractional-stages": ({"builtin": "l1_drop", "stages": 2.7},
                                 "stages"),
    "random-quotient-zero-stages": (
        {"builtin": "random_quotient", "stages": 0}, "stages"),
    "system-without-spaces": ({"spaces": [], "bonds": []}, "spaces"),
    "system-surplus-bonds": ({"spaces": [_L1_LINE, _L1_LINE],
                              "bonds": [[["1"]], [["1"]], [["1", "1"]]]},
                             "bonds"),
    "random-quotient-fractional-seed": (
        {"builtin": "random_quotient", "stages": 2, "seed": 2.7}, "seed"),
    "random-quotient-bool-seed": (
        {"builtin": "random_quotient", "stages": 2, "seed": True}, "seed"),
    "system-stages-not-len-spaces": (
        {"stages": 5, "spaces": [_L1_LINE], "bonds": []}, "stages"),
    "system-fractional-space-dim": (
        {"spaces": [dict(_L1_LINE, dim=1.5)], "bonds": []}, "dim"),
    "system-bool-space-dim": (
        {"spaces": [dict(_L1_LINE, dim=True)], "bonds": []}, "dim"),
}


def _gfda_job(**fields):
    """The flip-generator gfda-check job, with fields replaced."""
    return dict({"system": {"builtin": "linf_drop", "stages": 3},
                 "generator": _FLIP_GEN, "stages": 3}, **fields)


# Integer job fields that int() would have coerced.
_BAD_INTS = {
    "canonical-fractional-n": ("determine", dict(_certify_job(), n=2.7)),
    "canonical-bool-n": ("determine", dict(_certify_job(), n=True)),
    "fractional-eval-stage": ("determine", dict(_search_job(starts=1),
                                                eval_stage=2.5)),
    "gfda-fractional-stages": ("gfda-check", _gfda_job(stages=2.5)),
    "gfda-bool-stages": ("gfda-check", _gfda_job(stages=True)),
    "curves-fractional-grid-points": ("curves", {
        "curve": "canonical_l1", "ts": "canonical", "grid_points": 2.5}),
    "curves-zero-grid-points": ("curves", {
        "curve": "canonical_l1", "ts": "canonical", "grid_points": 0}),
}


def _square_map_from(label):
    return dict(_SQUARE_MAP, source=dict(_SQUARE_MAP["source"], label=label))


_INLINE_SYSTEM = {"spaces": [_L1_LINE, _L1_LINE], "bonds": [[["1"]]]}
# Job fields of the wrong JSON type, or constants JSON does not have, that
# were once echoed into reports or taken as truthy.
_BAD_FIELDS = {
    "infinity-label": ("opnorm", _square_map_from(float("inf"))),
    "nan-entry": ("norms", {"system": {"builtin": "l1_drop", "stages": 1},
                            "vectors": [[float("nan")]]}),
    "list-label": ("opnorm", _square_map_from([1, 2])),
    "number-system-label": ("dualize", dict(_INLINE_SYSTEM, label=7)),
    "string-quotient-flag": ("validate", dict(_INLINE_SYSTEM,
                                              is_quotient_system="no")),
    "number-curve-label": ("curves", dict(json.loads(_CURVE_JOB), curve=dict(
        json.loads(_CURVE_JOB)["curve"], label=5))),
}


def _weighted_map(weight):
    source = dict(_SQUARE_MAP["source"], spec=dict(
        _SQUARE_MAP["source"]["spec"], weights=[weight, "1"]))
    return dict(_SQUARE_MAP, source=source)


# Exact scalars given as a JSON bool (once read as 0 or 1) or a float.
_BAD_SCALARS = {
    "bool-eps": ("determine", dict(_search_job(starts=1), eps=True)),
    "float-eps": ("determine", dict(_search_job(starts=1), eps=0.5)),
    "bool-rho": ("determine", dict(_search_job(starts=1), rho=[True])),
    "bool-canonical-eps": ("determine", dict(_certify_job(), eps=True)),
    "bool-delta": ("determine", _certify_job(delta=True)),
    "bool-norms-entry": ("norms", {
        "system": {"builtin": "l1_drop", "stages": 2},
        "vectors": [["1", True]]}),
    "bool-space-weight": ("opnorm", _weighted_map(True)),
    "bool-map-entry": ("opnorm", dict(_SQUARE_MAP,
                                      matrix=[[True, "1"], ["1", "-1"]])),
    "bool-tol": ("anp-dp", {"system": {"builtin": "l1_drop", "stages": 2},
                            "sequence": [["1", "0"]], "tol": True}),
}


def _curve_job(**curve):
    """_CURVE_JOB with fields of its curve replaced."""
    job = json.loads(_CURVE_JOB)
    return dict(job, curve=dict(job["curve"], **curve))


# Well-formed jobs that a library guard refuses, each with its message.
_GUARDED = {
    "unknown-builtin-system": ("validate", {"builtin": "nope", "stages": 2},
                               "job.builtin: unknown builtin system 'nope'"),
    "generator-surplus-stages": ("gfda-check", _gfda_job(
        generator=_FLIP_GEN + [_FLIP_GEN[2] + [["0", "0"]]]),
        "job.generator: more generator stages than system stages"),
    "generator-ragged-parameters": ("gfda-check", _gfda_job(
        generator=[[["1", "0"]], [["1"], ["0"]], _FLIP_GEN[2]]),
        "job.generator: inconsistent parameter dimension"),
    "generator-wrong-row-count": ("gfda-check", _gfda_job(
        generator=[[["1", "0"], ["0", "1"]]] + _FLIP_GEN[1:]),
        "job.generator: generator matrix 1 has wrong row count"),
    "gfda-stages-beyond-generator": ("gfda-check", _gfda_job(stages=4),
                                     "stages outside the generator range"),
    "gfda-zero-generator-matrix": ("gfda-check", _gfda_job(
        generator=[[["0"]], [["0"], ["0"]], [["0"], ["0"], ["1"]]],
        stages=1), "zero generator matrix at stage 1"),
    "curves-empty-scale-range": ("curves", dict(json.loads(_CURVE_JOB),
                                                m_range=[5, 4]),
                                 "empty scale range"),
    "curves-bool-stage": ("curves", {
        "curve": "canonical_c0", "grid_points": 2, "m_range": [4, 5],
        "stage": True}, "job.stage must be an int >= 1"),
    "curves-fractional-m-range": ("curves", dict(json.loads(_CURVE_JOB),
                                                 m_range=[4.5, 5]),
                                  "job.m_range[0] must be an int"),
    "curves-short-m-range": ("curves", dict(json.loads(_CURVE_JOB),
                                            m_range=[4]),
                             "job.m_range must be a list of two ints"),
    "curves-bool-ts": ("curves", dict(json.loads(_CURVE_JOB),
                                      ts=[0.0, True]),
                       "job.ts[1] must be a JSON number"),
    "curves-string-ts": ("curves", dict(json.loads(_CURVE_JOB), ts=["0.5"]),
                         "job.ts[0] must be a JSON number"),
    "curves-bool-amplitude": ("curves", _curve_job(
        amplitudes=[True, "2", 1, 0, 0]),
        "job.curve.amplitudes[0] must be a JSON number"),
    "curves-string-amplitudes": ("curves", _curve_job(amplitudes="00000"),
                                 "job.curve.amplitudes must be a list"),
    "curves-string-frequency": ("curves", _curve_job(
        frequencies=[1, 1, "1", 1, 1]),
        "job.curve.frequencies[2] must be a JSON number"),
    "curves-string-lipschitz-bound": ("curves", _curve_job(
        lipschitz_bound="2"),
        "job.curve.lipschitz_bound must be a JSON number"),
    "curves-bool-lipschitz-bound": ("curves", _curve_job(
        lipschitz_bound=True),
        "job.curve.lipschitz_bound must be a JSON number"),
    "unknown-canonical-query": ("determine", dict(
        _certify_job(), canonical="prefix"),
        "job.canonical: unknown canonical query 'prefix'"),
    "unknown-mode": ("determine", dict(_search_job(starts=1), mode="sweep"),
                     "job.mode: unknown mode 'sweep'"),
}


@pytest.mark.parametrize("command, text, extra", [
    ("validate", None, []),                             # unreadable file
    ("validate", '{"builtin": "l1_drop",', []),         # malformed JSON
    ("opnorm", json.dumps(dict(_SQUARE_MAP,
                               matrix=[["1/0", "1"], ["1", "-1"]])), []),
    ("determine", json.dumps([{"canonical": "prefix_obstruction"}]), []),
    ("quotient-check", json.dumps(dict(_SQUARE_MAP, target=[1, 2])), []),
    ("validate", _SYSTEM_JOB, _UNWRITABLE),
    ("dualize", _SYSTEM_JOB, _UNWRITABLE),
    ("curves", _CURVE_JOB, _UNWRITABLE),
    ("determine", json.dumps(_search_job(starts=0)), []),
    ("determine", json.dumps(_search_job(starts=-3)), []),
    ("determine", json.dumps(_search_job(starts=1, iters=2.5)), []),
    ("determine", json.dumps(_search_job(starts=1, max_den=0)), []),
    ("determine", json.dumps(_certify_job(delta="-1")), []),
    ("determine", json.dumps(_certify_job(refine_rounds=-3)), []),
    ("determine", json.dumps(_certify_job(budget=-5)), []),
    ("determine", json.dumps(_certify_job(dim_cap=0)), []),
    ("determine", json.dumps(_certify_job(dim_cap="x")), []),
    ("determine", json.dumps(_certify_job(dim_cap=4)), []),
    ("determine", json.dumps(dict(_certify_job(), search=[])), []),
] + [("validate", json.dumps(job), []) for job, _ in _BAD_SYSTEMS.values()]
    + [(command, json.dumps(job), [])
       for command, job in (*_BAD_INTS.values(), *_BAD_FIELDS.values(),
                            *_BAD_SCALARS.values())]
    + [(command, json.dumps(job), []) for command, job, _ in
       _GUARDED.values()],
    ids=["unreadable", "malformed-json", "zero-denominator", "top-level-list",
        "list-as-space", "unwritable-report", "unwritable-dual",
        "unwritable-csv", "search-without-start", "search-negative-starts",
        "search-fractional-iters", "search-zero-max-den",
        "certify-negative-delta", "certify-negative-rounds",
        "certify-negative-budget", "certify-zero-dim-cap",
        "certify-string-dim-cap", "certify-dim-cap-field",
        "search-not-an-object"] + list(_BAD_SYSTEMS) + list(_BAD_INTS)
    + list(_BAD_FIELDS) + list(_BAD_SCALARS) + list(_GUARDED))
def test_bad_inputs_exit_three(tmp_path, capsys, command, text, extra):
    path = tmp_path / "job.json"
    if text is not None:
        path.write_text(text)
    argv = [command, str(path)] + [a.format(tmp=tmp_path) for a in extra]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constants_are_named(tmp_path, capsys, constant):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(_SQUARE_MAP).replace('"a"', constant))
    assert main(["opnorm", str(path)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and constant in err


def test_valid_labels_and_flags_are_kept(tmp_path, capsys):
    code, out = _run(capsys, "opnorm", _write(tmp_path, "map.json",
                                              _square_map_from("s")))
    assert code == 0 and json.loads(out)["source"] == "s"
    job = dict(_INLINE_SYSTEM, label="line", is_quotient_system=True)
    code, out = _run(capsys, "dualize", _write(tmp_path, "sys.json", job))
    assert code == 0 and json.loads(out)["dual"]["label"] == "line*"


def test_python_dash_m_runs_the_cli(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    job = _write(tmp_path, "sys.json", {"builtin": "l1_drop", "stages": 2})
    runs = [subprocess.run([sys.executable, "-m", "banachlim"] + argv,
                           env=env, capture_output=True, text=True,
                           timeout=120)
            for argv in (["validate", job], ["validate", job + ".missing"])]
    assert [r.returncode for r in runs] == [0, EXIT_BAD_INPUT]
    assert json.loads(runs[0].stdout)["passed"] is True


@pytest.mark.parametrize("job, key", _BAD_SYSTEMS.values(),
                         ids=list(_BAD_SYSTEMS))
def test_bad_system_error_names_the_key(tmp_path, capsys, job, key):
    assert main(["validate", _write(tmp_path, "sys.json", job)]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("job, message", [
    (_search_job(strats=1), 'unknown key in job.search: strats '
     '(allowed: iters, max_den, seed, starts)'),
    (_certify_job(dim_cap=4), 'unknown key in job.certify: dim_cap '
     '(allowed: budget, delta, refine_rounds)'),
], ids=["search", "certify"])
def test_unknown_config_key_is_named(tmp_path, capsys, job, message):
    assert main(["determine", _write(tmp_path, "job.json", job)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, job, message", _GUARDED.values(),
                         ids=list(_GUARDED))
def test_input_guard_names_its_fault(tmp_path, capsys, command, job,
                                     message):
    assert main([command, _write(tmp_path, "job.json", job)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


_L1_PAIR = {"system": {"builtin": "l1_drop", "stages": 2},
            "vectors": [["1", "0"]]}
# Faults that the job reader or the flag parser names, each with the start
# of its one error line: the key path, or the flag.
_NAMED = {
    "ts-not-a-list": ("curves", {"curve": "canonical_c0", "ts": 0.5,
                                 "m_range": [4, 5]}, [],
                      "job.ts must be a list"),
    "null-rho": ("determine", dict(_certify_job(), rho=None), [],
                 "job.rho must be a list"),
    "vectors-not-a-list": ("norms", dict(_L1_PAIR, vectors=5), [],
                           "job.vectors must be a list"),
    "eval-stage-typo": ("determine", dict(_certify_job(), eval_stag=3), [],
                        "unknown key in job: eval_stag (allowed: canonical, "
                        "certify, eps, mode, n, rho, search)"),
    "norms-unknown-key": ("norms", dict(_L1_PAIR, vectorz=[]), [],
                          "unknown key in job: vectorz (allowed: system, "
                          "vectors)"),
    "anp-dp-only-a-system": ("anp-dp", {"builtin": "l1_drop", "stages": 2},
                             [], "unknown key in job: builtin, stages "
                             "(allowed: sequence, system, tol)"),
    "anp-dp-without-system": ("anp-dp", {"sequence": [["1", "0"]]}, [],
                              "job.system is required"),
    "zero-max-stage": ("determine", _certify_job(), ["--max-stage", "0"],
                       "--max-stage must be an int >= 1"),
    "text-max-stage": ("determine", _certify_job(), ["--max-stage", "abc"],
                       "argument --max-stage: invalid int value: 'abc'"),
    "fractional-seed": ("determine", _certify_job(), ["--seed", "1.5"],
                        "argument --seed: invalid int value: '1.5'"),
    "unknown-command": ("determin", _certify_job(), [],
                        "argument command: invalid choice: 'determin'"),
    "zero-denominator-tol": ("validate", {"builtin": "l1_drop", "stages": 2},
                             ["--tol", "1/0"],
                             "--tol: zero denominator in '1/0'"),
    "generator-beyond-max-stage": ("gfda-check", _gfda_job(),
                                   ["--max-stage", "2"],
                                   "job.generator: more generator stages "
                                   "than system stages (--max-stage cut the "
                                   "system to 2 stages)"),
    "zero-weight": ("opnorm", dict(_SQUARE_MAP, source=dict(
        _SQUARE_MAP["source"], spec={"kind": "lp", "p": "1",
                                     "weights": ["0", "1"]})), [],
        "job.source.spec: weights must be strictly positive"),
    "weight-count": ("opnorm", dict(_SQUARE_MAP, target=dict(
        _SQUARE_MAP["target"], dim=3)), [],
        "job.target.spec: weight count != dim"),
    # Refused before the integer 10^3000000 is built.
    "huge-decimal-exponent": ("norms", dict(_L1_PAIR,
                                            vectors=[["1e3000000", "0"]]),
                              [], "job.vectors[0][0]: decimal '1e3000000' "
                              f"has over {sys.get_int_max_str_digits()} "
                              "digits"),
}


@pytest.mark.parametrize("command, job, extra, message", _NAMED.values(),
                         ids=list(_NAMED))
def test_reader_and_parser_name_the_fault(tmp_path, capsys, command, job,
                                          extra, message):
    path = _write(tmp_path, "job.json", job)
    assert main([command, path] + extra) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "usage" not in captured.err


# Cheap jobs to mutate; every value a mutation can put in keeps the work
# small (no large stage counts or dimensions).
_CHEAP_JOBS = [
    ("opnorm", _SQUARE_MAP),
    ("quotient-check", _SQUARE_MAP),
    ("validate", {"builtin": "l1_drop", "stages": 3}),
    ("norms", {"system": {"builtin": "linf_drop", "stages": 2},
               "vectors": [["1", "1/2"]]}),
    ("determine", {"canonical": "prefix_obstruction", "n": 2,
                   "mode": "search", "search": {"starts": 1, "iters": 3}}),
    ("dualize", dict(_INLINE_SYSTEM, label="x*")),
    ("anp-dp", {"system": {"builtin": "l1_drop", "stages": 2},
                "sequence": [["1", "0"], ["1", "1/2"]]}),
    ("gfda-check", _gfda_job(stages=2, generator=_FLIP_GEN[:2])),
    ("curves", json.loads(_CURVE_JOB)),
]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4)
    | st.sampled_from([0.5, float("inf"), "", "x", "1/0", "1/2", "-2"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "p", "dim", "spec", "weights", "x"]),
        kids, max_size=3),
    max_leaves=6)
# Valid replacements where the walk below cannot name the rule: a label
# string, small counts and a rational.
_valid_values = st.sampled_from(["y", 1, 2, "1/3"])
# The tables behind each union rule: a job value is read by the one of them
# that reads it.
_ALTERNATIVES = {
    system_from_json: [systems._BUILTIN_RULE, systems._INLINE_RULE],
    space.space_from_json: [space._SPACE_RULE],
    space.spec_from_json: [{"kind": str, **rule}
                           for _, rule in space._SPEC_RULES.values()],
    cli._determine_job: [cli._CANONICAL, cli._EXPLICIT],
    cli._generator: [{"tail": [[Q]]}, [[[Q]]]],
    cli._curve: [str, cli._CURVE],
    cli._ts: [str, [float]],
    cli._echoed: [[Q]],
}


def _opened(rule, value):
    """rule, or for a union the alternative table that reads value."""
    for alt in _ALTERNATIVES.get(rule, ()) if callable(rule) else ():
        try:
            read(value, alt)
        except ValueError:
            continue
        return _opened(alt, value)
    return rule


def _entry(rule, key):
    """The rule of key in an object rule (a dict or a dataclass)."""
    if dataclasses.is_dataclass(rule):
        return {f.name: f.type for f in dataclasses.fields(rule)}[key]
    return rule[key][0] if type(rule[key]) is tuple else rule[key]


def _rule_at(rule, job, path):
    """The rule that reads the value at path in job, or None past a rule
    that the walk cannot open; and that value."""
    for key in path:
        rule = _opened(rule, job)
        if type(rule) is list:
            rule = rule[0]
        elif type(rule) is dict or dataclasses.is_dataclass(rule):
            rule = _entry(rule, key)
        else:
            rule = None
        job = job[key]
    return rule, job


def _fitting(rule, value):
    """Small values that rule reads, shaped like value (a list keeps its
    length, an object its keys, a union the alternative that reads value,
    and a count or a name may stay), or None for a rule no table gives."""
    rule = _opened(rule, value)
    if rule is int or type(rule) is int:
        return st.integers(-1 if rule is int else rule, 3) | st.just(value)
    if type(rule) is list:
        items = [_fitting(rule[0], v) for v in value]
        return None if None in items else st.tuples(*items).map(list)
    if type(rule) is dict or dataclasses.is_dataclass(rule):
        items = {k: _fitting(_entry(rule, k), v) for k, v in value.items()}
        return (None if None in items.values()
                else st.fixed_dictionaries(items))
    return {str: st.sampled_from([value, "y", "x*"]), bool: st.booleans(),
            float: st.sampled_from([0.0, 0.25, 1]),
            Q: st.sampled_from(["1/3", "-1/2", 2, "0.5"])}.get(
                rule if isinstance(rule, type) else None)


def _keys(rule):
    """Every key of every object rule that rule reads through."""
    if type(rule) is list:
        yield from _keys(rule[0])
    elif type(rule) is dict:
        for key, entry in rule.items():
            yield key
            yield from _keys(entry[0] if type(entry) is tuple else entry)
    elif dataclasses.is_dataclass(rule):
        yield from _keys({f.name: f.type for f in dataclasses.fields(rule)})
    elif callable(rule):
        for alt in _ALTERNATIVES.get(rule, ()):
            yield from _keys(alt)


def test_readme_names_every_job_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line")[1].split("\n## ")[0]
    keys = {key for rule, _ in cli.COMMANDS.values() for key in _keys(rule)}
    assert len(keys) > 40
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def _paths(obj, prefix=()):
    yield prefix
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return copy


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_malformed_jobs_never_escape_the_exit_codes(tmp_path_factory, data):
    # One value is replaced: by values its rule reads, three times in four,
    # else by any JSON; and one job text in eight is cut short.  So most
    # jobs are read, and many reach a report.
    command, job = data.draw(st.sampled_from(_CHEAP_JOBS))
    path = data.draw(st.sampled_from(list(_paths(job))))
    valid = _fitting(*_rule_at(cli.COMMANDS[command][0], job, path))
    fitted = _valid_values if valid is None else valid
    text = json.dumps(_replaced(job, path, data.draw(
        _json_values if data.draw(st.integers(0, 3)) == 0 else fitted)))
    if data.draw(st.integers(0, 7)) == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    job_path = tmp_path_factory.mktemp("job") / "job.json"
    job_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(job_path)])
    if code == EXIT_BAD_INPUT:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1, 2)
        assert _strict_loads(out.getvalue())["manifest"]["command"] == command
