"""Command-line front end: ingest JSON job descriptions, dispatch the
library operations, emit machine-readable reports.

Every report embeds a run manifest (command, inputs, seed, caps,
tolerances, output path) and is serialized with sorted keys and no
timestamps, so identical manifests produce byte-identical reports.
Rational scalars travel as 'p/q' strings; floats appear only in the
curve experiments.

Exit codes: `validate` and the map checks return 0 (pass) / 1 (fail);
`determine` returns 0 / 1 / 2 for certificate / counterexample /
undecided; malformed inputs and an unwritable --out exit with 3.
"""

import argparse
import copy
import dataclasses
import json
import os
import sys
import tempfile

from .scalar import (format_scalar, parse_scalar, require_int, require_type,
                     to_float)
from .space import space_from_json
from .linmap import (is_isometric_embedding, is_quotient_map, linear_map,
                     operator_norm)
from .systems import (compatible_from_tail, dualize, generator_from_tail,
                      stage_norms, system_from_json, system_to_json,
                      validate_standard, SubspaceGenerator)
from .determining import (CertifyConfig, DeterminingQuery, RhoSchedule,
                          SearchConfig, anp_diagnostic, dp_diagnostic,
                          eps_determining_certify, eps_determining_search,
                          equivalence_witness, gfda_check,
                          prefix_obstruction_query)
from . import curves as curves_mod

EXIT_BAD_INPUT = 3

# What a malformed job raises: ValueError (unreadable files and bad JSON
# too, from _load_job), a JSON value of the wrong type met by a lookup or
# attribute access, or a number out of range (JSON Infinity as an int).
_BAD_INPUT = (ValueError, LookupError, TypeError, ArithmeticError,
              AttributeError)


# ---------------------------------------------------------------------------
# Plumbing

def _manifest(args):
    return {
        "command": args.command,
        "inputs": [args.input],
        "seed": args.seed,
        "caps": {"max_stage": args.max_stage},
        "tol": args.tol,
        "out": args.out,
    }


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    _write_atomic(out_path, text)


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


def _load_job(path):
    def no_constant(name):
        raise ValueError(f"{path}: {name} is not a number JSON allows")

    try:
        with open(path) as fh:
            job = json.load(fh, parse_constant=no_constant)
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValueError(
            f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e
    if not isinstance(job, dict):
        raise ValueError(f"{path}: a job must be a JSON object")
    return job


def _truncate(system, max_stage):
    if max_stage is None or max_stage >= system.max_stage:
        return system
    if max_stage < 1:
        raise ValueError("--max-stage must be at least 1")
    truncated = copy.copy(system)
    truncated.max_stage = max_stage
    return truncated


def _load_system(obj, args):
    return _truncate(system_from_json(obj), args.max_stage)


def _vec(values):
    return tuple(parse_scalar(v) for v in values)


def _fmt_vec(v):
    return [format_scalar(x) for x in v]


def _scalar_out(q):
    return {"exact": format_scalar(q), "float": to_float(q)}


def _map_verdict_out(v):
    return {"verdict": v.verdict,
            "witness": _fmt_vec(v.witness) if v.witness else None,
            "certificate_kind": v.certificate_kind,
            "reason": v.reason}


def _counterexample_out(cx):
    if cx is None:
        return None
    return {
        "a": _fmt_vec(cx.a),
        "a_prime": _fmt_vec(cx.a_prime),
        "v": _fmt_vec(cx.v),
        "v_prime": _fmt_vec(cx.v_prime),
        "tail_slacks": [[_scalar_out(s) for s in row]
                        for row in cx.tail_slacks],
        "proximity_slack": _scalar_out(cx.proximity_slack),
        "violation": _scalar_out(cx.violation),
    }


# ---------------------------------------------------------------------------
# Subcommands

def cmd_validate(args, job):
    system = _load_system(job, args)
    verdicts = validate_standard(system)
    passed = all(v.lipschitz_ok and v.quotient_ok is not False
                 for v in verdicts)
    return {
        "system": system.label,
        "stages": system.max_stage,
        "verdicts": [{
            "stage": v.stage,
            "lipschitz_ok": v.lipschitz_ok,
            "quotient_ok": v.quotient_ok,
            "witness": _fmt_vec(v.witness) if v.witness else None,
        } for v in verdicts],
        "passed": passed,
    }, 0 if passed else 1


def cmd_dualize(args, job):
    dual = dualize(_load_system(job, args))
    payload = system_to_json(dual)
    if args.out:
        _write_atomic(args.out,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
        # --out holds the dual system itself; the report goes to stdout.
        args.out = None
        report = {"written": True, "dual_label": dual.label,
                  "stages": dual.max_stage}
    else:
        report = {"dual": payload}
    return report, 0


def cmd_norms(args, job):
    system = _load_system(job["system"], args)
    rows = []
    for tail in job["vectors"]:
        cv = compatible_from_tail(system, _vec(tail))
        rep = stage_norms(cv)
        rows.append({
            "tail": list(tail),
            "stage_norms": [_scalar_out(n) for n in rep.norms],
            "limit_lower_bound": _scalar_out(rep.limit_estimate),
            "limit": _scalar_out(rep.limit) if rep.limit is not None
            else None,
        })
    return {"system": system.label, "stages": system.max_stage,
            "vectors": rows}, 0


def _load_map(job):
    source = space_from_json(job["source"])
    target = space_from_json(job["target"])
    rows = [[parse_scalar(v) for v in row] for row in job["matrix"]]
    return linear_map(source, target, rows)


def cmd_opnorm(args, job):
    T = _load_map(job)
    res = operator_norm(T)
    return {
        "source": T.source.label, "target": T.target.label,
        "value": _scalar_out(res.value),
        "bracket": [_scalar_out(res.lower), _scalar_out(res.upper)],
        "certificate_kind": res.certificate_kind,
        "witness": _fmt_vec(res.witness) if res.witness else None,
    }, 0


def cmd_quotient_check(args, job):
    T = _load_map(job)
    qv = is_quotient_map(T)
    ev = is_isometric_embedding(T)
    return {
        "source": T.source.label, "target": T.target.label,
        "quotient": _map_verdict_out(qv),
        "isometric_embedding": _map_verdict_out(ev),
    }, 0 if qv.verdict else 1


def _query_kw(job, args):
    """DeterminingQuery keywords of a job: its SearchConfig (seed overridden
    by --seed) and CertifyConfig, and its rho and eps where it gives them."""
    kw = {}
    for key, cls in (("search", SearchConfig), ("certify", CertifyConfig)):
        obj = job.get(key, {})
        if not isinstance(obj, dict):
            raise ValueError(f'"{key}" must be a JSON object')
        allowed = sorted(f.name for f in dataclasses.fields(cls))
        unknown = sorted(set(obj) - set(allowed))
        if unknown:
            raise ValueError(f'unknown key in "{key}": {", ".join(unknown)} '
                             f'(allowed: {", ".join(allowed)})')
        kw[key] = dict(obj)
    kw["search"] = SearchConfig(**kw["search"])
    if args.seed is not None:
        kw["search"] = dataclasses.replace(kw["search"], seed=args.seed)
    if "delta" in kw["certify"]:
        kw["certify"]["delta"] = parse_scalar(kw["certify"]["delta"])
    kw["certify"] = CertifyConfig(**kw["certify"])
    if "rho" in job:
        kw["rho"] = RhoSchedule(tuple(parse_scalar(r) for r in job["rho"]))
    if "eps" in job:
        kw["eps"] = parse_scalar(job["eps"])
    return kw


def _query_on(system, gen, job, args):
    """The DeterminingQuery of a job's rho, eps and eval_stage on gen."""
    kw = _query_kw(job, args)
    return DeterminingQuery(system, gen, kw.pop("rho"), kw.pop("eps"),
                            require_int(job.get("eval_stage", gen.top_stage),
                                        "eval_stage", 1), **kw)


def _generator(system, obj):
    """A job's generator: {"tail": top-stage matrix}, or the list of its
    stage matrices."""
    if isinstance(obj, dict) and "tail" in obj:
        return generator_from_tail(system, [_vec(row) for row in obj["tail"]])
    return SubspaceGenerator(system, [[_vec(row) for row in mat]
                                      for mat in obj])


def _parse_query(job, args):
    if "canonical" in job:
        if job["canonical"] != "prefix_obstruction":
            raise ValueError(f"unknown canonical query {job['canonical']!r}")
        return prefix_obstruction_query(require_int(job["n"], "n", 1),
                                        **_query_kw(job, args))
    system = _load_system(job["system"], args)
    return _query_on(system, _generator(system, job["generator"]), job, args)


def cmd_determine(args, job):
    q = _parse_query(job, args)
    mode = job.get("mode", "certify")
    report = {"eval_stage": q.eval_stage, "eps": format_scalar(q.eps),
              "rho": [format_scalar(r) for r in q.rho.values],
              "mode": mode}
    if mode == "search":
        res = eps_determining_search(q)
        report["search"] = {
            "kind": res.kind,
            "best_margin": res.best_margin,
            "evaluations": res.evaluations,
            "counterexample": _counterexample_out(res.counterexample),
        }
        return report, 1 if res.kind == "counterexample" else 2
    if mode != "certify":
        raise ValueError(f"unknown mode {mode!r}")
    res = eps_determining_certify(q)
    report["certify"] = _certify_out(res)
    code = {"certificate": 0, "counterexample": 1, "undecided": 2}[res.kind]
    return report, code


def _certify_out(res):
    return {
        "kind": res.kind,
        "statement": res.statement,
        "delta": format_scalar(res.delta),
        "points_checked": res.points_checked,
        "refinements": res.refinements,
        "counterexample": _counterexample_out(res.counterexample),
    }


def cmd_gfda_check(args, job):
    system = _load_system(job["system"], args)
    gen = _generator(system, job["generator"])
    query = (_query_on(system, gen, job["query"], args) if "query" in job
             else None)
    rep = gfda_check(system, gen, require_int(job["stages"], "stages", 1),
                     query)
    return {
        "system": system.label,
        "stage_verdicts": [_map_verdict_out(v) for v in rep.stage_verdicts],
        "certify": _certify_out(rep.certify),
        "passes": rep.passes,
    }, 0 if rep.passes else 1


def _diag_out(d):
    out = {"eval_stage": d.eval_stage, "tol": format_scalar(d.tol),
           "weak_star_convergent": d.weak_star_convergent,
           "norm_converges": d.norm_converges}
    if d.uniformity is not None:
        out["uniformity"] = [_scalar_out(u) for u in d.uniformity]
        out["uniform_within_tol"] = d.uniform_within_tol
        out["blocks"] = list(d.blocks)
    if d.norm_residuals is not None:
        out["norm_residuals"] = [_scalar_out(r) for r in d.norm_residuals]
        out["strong_residuals"] = [_scalar_out(r)
                                   for r in d.strong_residuals]
        out["strong_converges"] = d.strong_converges
    return out


def cmd_anp_dp(args, job):
    system = _load_system(job["system"], args)
    tol = parse_scalar(args.tol if args.tol is not None
                       else job.get("tol", "1/1000000"))
    seq = [compatible_from_tail(system, _vec(tail))
           for tail in job["sequence"]]
    dp = dp_diagnostic(seq, tol)
    anp = anp_diagnostic(seq, tol)
    report = {"system": system.label, "dp": _diag_out(dp),
              "anp": _diag_out(anp)}
    if anp.weak_star_convergent:
        eq = equivalence_witness(seq, tol, dp, anp)
        report["equivalence"] = {
            "agree": eq.agree,
            "stage": eq.stage_i,
            "onset": eq.onset_k,
            "terms": [_scalar_out(t) for t in eq.terms],
            "identity_holds": eq.identity_holds,
        }
    return report, 0


def _load_curve(obj, args):
    if obj == "canonical_l1":
        return curves_mod.canonical_l1_curve()
    if obj == "canonical_c0":
        return curves_mod.canonical_c0_curve()
    system = _load_system(obj["system"], args)
    bound = obj.get("lipschitz_bound")
    if isinstance(bound, (bool, str)):
        raise ValueError("lipschitz_bound must be a number")
    return curves_mod.CoordinateCurve(
        system, _numbers(obj["amplitudes"], "amplitudes"),
        _numbers(obj["frequencies"], "frequencies"),
        obj.get("waveform", "sine"), bound,
        require_type(obj.get("label", "curve"), str, "curve label"))


def _numbers(values, key):
    """values, unless an entry is a bool or a string (float() reads both)."""
    for v in values:
        if isinstance(v, (bool, str)):
            raise ValueError(f"{key} entries must be numbers, not "
                             + ("bools" if isinstance(v, bool) else "strings"))
    return values


def cmd_curves(args, job):
    curve = _load_curve(job["curve"], args)
    ts = job.get("ts", "canonical")
    if ts == "canonical":
        ts = curves_mod.canonical_grid(
            require_int(job.get("grid_points", 100), "grid_points", 1))
    else:
        _numbers(ts, "ts")
    m_range = job.get("m_range", [4, 14])
    if not isinstance(m_range, list) or len(m_range) != 2:
        raise ValueError("m_range must be a list of two ints")
    lo, hi = (require_int(m, "m_range entry") for m in m_range)
    M = job.get("stage")
    M = None if M is None else require_int(M, "stage", 1)
    if args.max_stage is not None:
        M = min(M or args.max_stage, args.max_stage)
    rep = curves_mod.differentiability_scan(curve, ts, range(lo, hi + 1), M)
    if args.out:
        base, _ = os.path.splitext(args.out)
        _write_atomic(base + ".csv", curves_mod.report_to_csv(rep))
    return json.loads(curves_mod.report_to_json(rep)), 0


HANDLERS = {
    "validate": cmd_validate,
    "dualize": cmd_dualize,
    "norms": cmd_norms,
    "opnorm": cmd_opnorm,
    "quotient-check": cmd_quotient_check,
    "determine": cmd_determine,
    "gfda-check": cmd_gfda_check,
    "anp-dp": cmd_anp_dp,
    "curves": cmd_curves,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="banachlim",
        description="Exact computations on finite-stage Banach-space "
                    "inverse/direct systems.")
    parser.add_argument("command", choices=sorted(HANDLERS),
                        help="operation to run")
    parser.add_argument("input", help="JSON job description")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the search seed")
    parser.add_argument("--max-stage", type=int, default=None,
                        help="truncate loaded systems to this many stages")
    parser.add_argument("--tol", default=None,
                        help="tolerance override (exact 'p/q' string)")
    parser.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    manifest = _manifest(args)
    try:
        job = _load_job(args.input)
        report, code = HANDLERS[args.command](args, job)
        report["manifest"] = manifest
        _emit(report, args.out)
    except _BAD_INPUT as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
