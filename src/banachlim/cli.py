"""Command-line front end: ingest JSON job descriptions, dispatch the
library operations, emit machine-readable reports.

Every report embeds a run manifest (command, inputs, seed, caps,
tolerances, output path) and is serialized with sorted keys and no
timestamps, so identical manifests produce byte-identical reports.
Rational scalars travel as 'p/q' strings; floats appear only in the
curve experiments.  Each command's job is read by one rule (COMMANDS).

Exit codes: `validate` and the map checks return 0 (pass) / 1 (fail);
`determine` returns 0 / 1 / 2 for certificate / counterexample /
undecided; malformed inputs and flags and an unwritable --out exit with 3.
"""

import argparse
import copy
import dataclasses
import json
import os
import sys
import tempfile

from .scalar import Q, format_scalar, read, to_float
from .space import space_from_json
from .linmap import (is_isometric_embedding, is_quotient_map, linear_map,
                     operator_norm)
from .systems import (StageError, SubspaceGenerator, compatible_from_tail,
                      dualize, generator_from_tail, stage_norms,
                      system_from_json, system_to_json, validate_standard)
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
    return job


def _truncate(system, args):
    """system, cut to --max-stage stages when the flag gives fewer."""
    if args.max_stage is None or args.max_stage >= system.max_stage:
        return system
    truncated = copy.copy(system)
    truncated.max_stage = args.max_stage
    return truncated


def _or_none(rule):
    """rule, or a JSON null: the key's default."""
    return lambda v, path: None if v is None else read(v, rule, path)


def _fmt_vec(v):
    return [format_scalar(x) for x in v]


def _scalar_out(q):
    fits = abs(q) <= sys.float_info.max     # else the float shadow is null
    return {"exact": format_scalar(q), "float": to_float(q) if fits else None}


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
# Subcommands: each gets its job as read by its rule in COMMANDS.

def cmd_validate(args, system):
    system = _truncate(system, args)
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


def cmd_dualize(args, system):
    dual = dualize(_truncate(system, args))
    payload = system_to_json(dual)
    if args.out:
        _emit(payload, args.out)
        # --out holds the dual system itself; the report goes to stdout.
        args.out = None
        report = {"written": True, "dual_label": dual.label,
                  "stages": dual.max_stage}
    else:
        report = {"dual": payload}
    return report, 0


def _echoed(tail, path):
    """A tail's exact scalars, with the tail as given, which norms echoes."""
    return tail, read(tail, [Q], path)


def cmd_norms(args, job):
    system = _truncate(job["system"], args)
    rows = []
    for text, tail in job["vectors"]:
        rep = stage_norms(compatible_from_tail(system, tail))
        rows.append({
            "tail": text,
            "stage_norms": [_scalar_out(n) for n in rep.norms],
            "limit_lower_bound": _scalar_out(rep.limit_estimate),
            "limit": _scalar_out(rep.limit) if rep.limit is not None
            else None,
        })
    return {"system": system.label, "stages": system.max_stage,
            "vectors": rows}, 0


def cmd_opnorm(args, job):
    T = linear_map(job["source"], job["target"], job["matrix"])
    res = operator_norm(T)
    return {
        "source": T.source.label, "target": T.target.label,
        "value": _scalar_out(res.value),
        "bracket": [_scalar_out(res.lower), _scalar_out(res.upper)],
        "certificate_kind": res.certificate_kind,
        "witness": _fmt_vec(res.witness) if res.witness else None,
    }, 0


def cmd_quotient_check(args, job):
    T = linear_map(job["source"], job["target"], job["matrix"])
    qv = is_quotient_map(T)
    ev = is_isometric_embedding(T)
    return {
        "source": T.source.label, "target": T.target.label,
        "quotient": _map_verdict_out(qv),
        "isometric_embedding": _map_verdict_out(ev),
    }, 0 if qv.verdict else 1


def _generator(value, path):
    """{"tail": the top-stage matrix}, or the list of the stage matrices."""
    return read(value, {"tail": [[Q]]} if type(value) is dict else [[[Q]]],
                path)


def _system_and_generator(job, args):
    system, g = _truncate(job["system"], args), job["generator"]
    try:
        return system, (generator_from_tail(system, g["tail"])
                        if type(g) is dict else SubspaceGenerator(system, g))
    except (ValueError, LookupError) as e:  # named, and the flag if it cut
        cut = isinstance(e, StageError) and system is not job["system"]
        raise ValueError(f"job.generator: {e}" + cut * " (--max-stage cut "
                         f"the system to {system.max_stage} stages)") from None


def _search(query, args):
    """A query's SearchConfig, its seed overridden by --seed."""
    s = query["search"]
    return s if args.seed is None else dataclasses.replace(s, seed=args.seed)


def _query_on(system, gen, query, args):
    """The DeterminingQuery of a job's (or gfda query's) fields on gen."""
    return DeterminingQuery(system, gen, RhoSchedule(query["rho"]),
                            query["eps"], query["eval_stage"] or gen.top_stage,
                            _search(query, args), query["certify"])


_CONFIGS = {"search": (SearchConfig, SearchConfig()),
            "certify": (CertifyConfig, CertifyConfig())}
_QUERY = {"rho": [Q], "eps": Q, "eval_stage": (1, None), **_CONFIGS}
_CANONICAL = {"canonical": str, "n": 1, "rho": ([Q], None),
              "eps": (Q, Q(1, 2)), "mode": (str, "certify"), **_CONFIGS}
_EXPLICIT = {"system": system_from_json, "generator": _generator,
             "mode": (str, "certify"), **_QUERY}


def _determine_job(job, path):
    """A canonical query, by name and size, or an explicit one."""
    return read(job, _CANONICAL if type(job) is dict and "canonical" in job
                else _EXPLICIT, path)


def cmd_determine(args, job):
    if "canonical" not in job:
        q = _query_on(*_system_and_generator(job, args), job, args)
    elif job["canonical"] != "prefix_obstruction":
        raise ValueError(
            f"job.canonical: unknown canonical query {job['canonical']!r}")
    else:
        rho = None if job["rho"] is None else RhoSchedule(job["rho"])
        q = prefix_obstruction_query(job["n"], job["eps"], rho,
                                     search=_search(job, args),
                                     certify=job["certify"])
    mode = job["mode"]
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
        raise ValueError(f"job.mode: unknown mode {mode!r}")
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
    system, gen = _system_and_generator(job, args)
    query = (_query_on(system, gen, job["query"], args) if job["query"]
             else None)
    rep = gfda_check(system, gen, job["stages"], query)
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
    system = _truncate(job["system"], args)
    tol = job["tol"] if args.tol is None else read(args.tol, Q, "--tol")
    seq = [compatible_from_tail(system, tail) for tail in job["sequence"]]
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


_CURVES = {"canonical_l1": curves_mod.canonical_l1_curve,
           "canonical_c0": curves_mod.canonical_c0_curve}
# The fields of a CoordinateCurve; its system is cut to --max-stage.
_CURVE = {"system": system_from_json, "amplitudes": [float],
          "frequencies": [float], "waveform": (str, "sine"),
          "lipschitz_bound": (_or_none(float), None), "label": (str, "curve")}


def _curve(value, path):
    """A canonical curve by name, or the fields of a CoordinateCurve."""
    if type(value) is str and value in _CURVES:
        return _CURVES[value]()
    return read(value, _CURVE, path)


def _ts(value, path):
    """The sample points: "canonical" (the canonical grid) or a list."""
    return value if value == "canonical" else read(value, [float], path)


def cmd_curves(args, job):
    curve = job["curve"]
    if type(curve) is dict:
        curve = curves_mod.CoordinateCurve(
            **dict(curve, system=_truncate(curve["system"], args)))
    ts = (curves_mod.canonical_grid(job["grid_points"])
          if job["ts"] == "canonical" else job["ts"])
    if len(job["m_range"]) != 2:
        raise ValueError("job.m_range must be a list of two ints")
    lo, hi = job["m_range"]
    M = job["stage"]
    if args.max_stage is not None:
        M = min(M or args.max_stage, args.max_stage)
    rep = curves_mod.differentiability_scan(curve, ts, range(lo, hi + 1), M)
    if args.out:
        base, _ = os.path.splitext(args.out)
        _write_atomic(base + ".csv", curves_mod.report_to_csv(rep))
    return json.loads(curves_mod.report_to_json(rep)), 0


_MAP = {"source": space_from_json, "target": space_from_json, "matrix": [[Q]]}
# command -> (the rule its job is read by, the handler of the read job)
COMMANDS = {
    "validate": (system_from_json, cmd_validate),
    "dualize": (system_from_json, cmd_dualize),
    "norms": ({"system": system_from_json, "vectors": [_echoed]}, cmd_norms),
    "opnorm": (_MAP, cmd_opnorm),
    "quotient-check": (_MAP, cmd_quotient_check),
    "determine": (_determine_job, cmd_determine),
    "gfda-check": ({"system": system_from_json, "generator": _generator,
                    "stages": 1, "query": (_QUERY, None)}, cmd_gfda_check),
    "anp-dp": ({"system": system_from_json, "sequence": [[Q]],
                "tol": (Q, Q(1, 10**6))}, cmd_anp_dp),
    "curves": ({"curve": _curve, "ts": (_ts, "canonical"),
                "grid_points": (1, 100), "m_range": ([int], (4, 14)),
                "stage": (_or_none(1), None)}, cmd_curves),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):     # bad input: exit 3, without usage text
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="banachlim",
        description="Exact computations on finite-stage Banach-space "
                    "inverse/direct systems.")
    parser.add_argument("command", choices=sorted(COMMANDS),
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
    try:
        args = build_parser().parse_args(argv)
        read(args.max_stage, _or_none(1), "--max-stage")
        read(args.tol, _or_none(Q), "--tol")
        manifest = _manifest(args)
        rule, handler = COMMANDS[args.command]
        report, code = handler(args, read(_load_job(args.input), rule))
        report["manifest"] = manifest
        _emit(report, args.out)
    except _BAD_INPUT as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
