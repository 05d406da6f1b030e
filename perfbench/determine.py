"""`determine` workload: the `banachlim` command line run in-process on job
files written during set-up.

Why: it covers ``cli`` and ``determining`` (the numpy search, the Python
grid refinement with exact ``verify_pair``) and uses the simplex layer
differently from `maps`: many tiny LPs (irredundancy, cube-face minima)
instead of fewer mid-sized ones.

Expected verdicts are known by construction: prefix-obstruction queries have
a violating pair; "violating" certify queries carry a violating pair that
was rationalized and verified here at generation, so a certificate for them
is wrong; the GFDA and quotient-check maps are quotients or not by
construction.  Every reported counterexample is re-verified twice: with
``verify_pair`` and with the exact check below, which shares no code with
the program.
"""

import json
import math
import os
from fractions import Fraction

import numpy as np

from banachlim import cli, determining, systems
from banachlim.scalar import Q, format_scalar, parse_scalar

from oracles import vertices_by_subset_enum

NAME = "determine"
TAIL_PCT = 75

# (command, variant, stage count); certify variants name the norm of the
# drop system and whether a violating pair was planted, quotient-check
# variants the source norm kind and whether the map is a quotient map.
ROUND = [
    ("search", "prefix", 8), ("certify", "linf-violating", 5),
    ("gfda-check", "bad", 3), ("quotient-check", "hpoly-quotient", 3),
    ("search", "prefix", 10), ("certify", "l1-clean", 5),
    ("search", "prefix", 12), ("certify", "linf-violating", 4),
    ("search", "prefix", 14), ("gfda-check", "good", 10),
    ("search", "prefix", 16), ("certify", "linf-violating", 6),
    ("search", "prefix", 18), ("quotient-check", "vpoly-shrunk", 3),
    ("search", "prefix", 12), ("certify", "l1-clean", 6),
    ("search", "prefix", 20), ("search", "prefix", 16),
]
SHORT = 4
POOL_ROUNDS = 10
# Criterion 8's grid, with a work budget (grid cells; an exact pair check
# weighs 1000) that bounds an undecided query at about half a second
# instead of several; running out of budget is reported as undecided.
CERTIFY = {"delta": "1/8", "refine_rounds": 2, "budget": 300000}
GFDA_CERTIFY = {"delta": "1/10", "budget": 300000}
SEARCH_EPS = [Q(1, 4), Q(1, 3), Q(1, 2)]
_NORMS = {"l1": lambda v: sum((abs(x) for x in v), Fraction(0)),
          "linf": lambda v: max(abs(x) for x in v)}
_BUILTIN = {"l1": "l1_drop", "linf": "linf_drop"}


def setup(workdir):
    return {"dir": workdir, "count": 0}


def _strs(rows):
    return [[format_scalar(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# Exact pair check for generators of coordinate-drop systems: the stage-i
# image of a is the i-prefix of tail @ a, normed by l1 or linf.

def violation(tail, norm, rho, eps, a, b):
    """Exact violation ratio of the pair (a, b), or None if any strict
    constraint fails (the query semantics of ``verify_pair``)."""
    nrm = _NORMS[norm]
    v = [sum((r * x for r, x in zip(row, a)), Fraction(0)) for row in tail]
    w = [sum((r * x for r, x in zip(row, b)), Fraction(0)) for row in tail]
    nv, nw = nrm(v), nrm(w)
    if nv == 0 or nw == 0:
        return None
    for i, r in enumerate(rho, start=1):
        if nrm(v[:i]) <= (1 - r) * nv or nrm(w[:i]) <= (1 - r) * nw:
            return None
    top = max(nv, nw)
    diff = [x - y for x, y in zip(v, w)]
    if nrm(diff[:len(rho)]) >= top / len(rho):
        return None
    ratio = nrm(diff) / top
    return ratio if ratio >= eps else None


def _float_violation(tail, norm, rho, gen, samples=4000):
    """Largest violation seen by sampling pairs near the diagonal (the
    proximity constraint confines violating pairs there); returns
    (ratio, a, b) or (0.0, None, None)."""
    T = np.array(tail, dtype=float)
    r = np.array([float(x) for x in rho])
    a = gen.uniform(-1, 1, (samples, 2))
    scale = gen.choice([0.01, 0.05, 0.2, 1.0], samples)[:, None]
    b = a + scale * gen.uniform(-1, 1, (samples, 2))
    va, vb = a @ T.T, b @ T.T
    acc = np.cumsum if norm == "l1" else np.maximum.accumulate
    pa, pb = acc(np.abs(va), axis=1), acc(np.abs(vb), axis=1)
    pd = acc(np.abs(va - vb), axis=1)
    na, nb = pa[:, -1], pb[:, -1]
    top = np.maximum(na, nb)
    N = len(rho)
    ok = (top > 1e-9) & (pd[:, N - 1] < top / N)
    for i in range(N):
        ok &= (pa[:, i] > (1 - r[i]) * na) & (pb[:, i] > (1 - r[i]) * nb)
    ratio = np.where(ok, pd[:, -1] / np.where(top > 0, top, 1), 0.0)
    k = int(np.argmax(ratio))
    if ratio[k] <= 0:
        return 0.0, None, None
    return float(ratio[k]), a[k], b[k]


def _injective_tail(rng, M):
    while True:
        tail = [[Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))]
                for _ in range(M)]
        if np.linalg.matrix_rank(np.array(tail, dtype=float)) == 2:
            return tail


def _certify_job(rng, norm, violating, M):
    """Criterion-8 query: eps at about half a planted violation, or placed
    above the sampled violation level."""
    gen = np.random.default_rng(rng.randrange(2**32))
    while True:
        tail = _injective_tail(rng, M)
        n = rng.randint(1, 2)
        rho = sorted((Q(rng.randint(1, 6), 12) for _ in range(n)),
                     reverse=True)
        best, fa, fb = _float_violation(tail, norm, rho, gen)
        if not violating:
            eps = min(Q(2), Q(math.ceil(best * 24), 12) + Q(1, 3))
            return tail, rho, eps, None
        if best <= 0.2:
            continue
        eps = Q(round(best * 16), 32)
        a = tuple(Fraction(float(x)).limit_denominator(1000) for x in fa)
        b = tuple(Fraction(float(x)).limit_denominator(1000) for x in fb)
        if violation(tail, norm, rho, eps, a, b) is not None:
            return tail, rho, eps, (a, b)


def _prefix_tail(n):
    return [[Q(int(r < n)), Q(1)] for r in range(2 * n)]


def make_job(rng, cell, ctx):
    command, variant, M = cell
    argv = []
    expect = {}
    if command == "search":
        command = "determine"
        n = M // 2
        eps = rng.choice(SEARCH_EPS)
        payload = {"canonical": "prefix_obstruction", "n": n,
                   "eps": format_scalar(eps), "mode": "search"}
        argv = ["--seed", str(rng.randrange(10**6))]
        expect = {"tail": _prefix_tail(n), "norm": "linf",
                  "rho": [Q(1, 2)] * n, "eps": eps}
    elif command == "certify":
        command = "determine"
        norm, kind = variant.split("-")
        tail, rho, eps, planted = _certify_job(rng, norm, kind == "violating",
                                               M)
        payload = {"system": {"builtin": _BUILTIN[norm], "stages": M},
                   "generator": {"tail": _strs(tail)},
                   "rho": [format_scalar(r) for r in rho],
                   "eps": format_scalar(eps), "eval_stage": M,
                   "mode": "certify", "certify": CERTIFY}
        expect = {"tail": tail, "norm": norm, "rho": rho, "eps": eps,
                  "planted": planted}
    elif command == "gfda-check":
        payload, expect = _gfda_job(rng, variant, M)
    else:
        payload, expect = _quotient_job(rng, variant)
    ctx["count"] += 1
    path = os.path.join(ctx["dir"], f"job{ctx['count']}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    expect["argv"] = [command, path, "--out", path + ".out"] + argv
    return expect


def _gfda_job(rng, variant, M):
    if variant == "good":
        # Coordinate slice of the l1 drop system: every stage restriction
        # is a quotient map and no pair can violate eps = 1.
        a, b = (Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(2))
        tail = [[a, Q(0)], [Q(0), b]] + [[Q(0), Q(0)]] * (M - 2)
        norm, stages = "l1", 2
        rho, eps, certify = [Q(1, 100)] * 2, Q(1), GFDA_CERTIFY
    else:
        # Third coordinate p x + q y with |p| + |q| > 1: the stage-2
        # restriction is not a quotient map.
        while True:
            p, q = (Q(rng.randint(-8, 8), 4) for _ in range(2))
            if p and q and abs(p) + abs(q) > 1:
                break
        tail = [[Q(1), Q(0)], [Q(0), Q(1)], [p, q]]
        norm, stages = "linf", 3
        rho, eps, certify = [Q(1, 2)] * 2, Q(1, 4), {"delta": "1/10"}
    payload = {"system": {"builtin": _BUILTIN[norm], "stages": M},
               "generator": [_strs(tail[:i]) for i in range(1, M + 1)],
               "stages": stages,
               "query": {"rho": [format_scalar(r) for r in rho],
                         "eps": format_scalar(eps),
                         "certify": certify}}
    return payload, {"tail": tail, "norm": norm, "rho": rho, "eps": eps}


def _quotient_job(rng, variant):
    """A 3-dim polytope space mapped onto the V-polytope spanned by the
    image of its ball (a quotient map), or the same map halved."""
    kind, verdict = variant.split("-")
    while True:
        vecs = [[Q(rng.randint(-12, 12), 4) for _ in range(3)]
                for _ in range(5)]
        rows = [[Q(rng.randint(-2, 2)) for _ in range(3)] for _ in range(2)]
        if (all(any(v) for v in vecs)
                and np.linalg.matrix_rank(np.array(vecs, float)) == 3
                and np.linalg.matrix_rank(np.array(rows, float)) == 2):
            break
    sym = [v for u in vecs for v in (u, [-x for x in u])]
    ball = sym if kind == "vpoly" else vertices_by_subset_enum(sym, 3)
    # The command takes V-polytope vertices as given, so pass only the
    # extreme points of the image.
    image = _hull_2d([tuple(sum((r * x for r, x in zip(row, v)),
                                Fraction(0)) for row in rows) for v in ball])
    scale = Q(1) if verdict == "quotient" else Q(1, 2)
    key = "vertices" if kind == "vpoly" else "functionals"
    payload = {"source": {"dim": 3, "label": "src",
                          "spec": {"kind": kind, key: _strs(vecs)}},
               "target": {"dim": 2, "label": "img",
                          "spec": {"kind": "vpoly",
                                   "vertices": _strs(image)}},
               "matrix": _strs([[scale * x for x in row] for row in rows])}
    return payload, {"source": kind, "quotient": verdict == "quotient"}


def _hull_2d(points):
    """Vertices of the convex hull of planar points (monotone chain,
    collinear boundary points dropped)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull.extend(part[:-1])
    return hull


def run(cell, job):
    code = cli.main(job["argv"])
    if code == cli.EXIT_BAD_INPUT:    # no report is written
        return code, None
    with open(job["argv"][3]) as fh:
        return code, json.load(fh)


# ---------------------------------------------------------------------------
# Checks

def _reverify(job, cx, eval_stage):
    """Both re-checks of a reported counterexample; None when it holds."""
    a = [parse_scalar(x) for x in cx["a"]]
    b = [parse_scalar(x) for x in cx["a_prime"]]
    if violation(job["tail"], job["norm"], job["rho"], job["eps"], a,
                 b) is None:
        return "counterexample fails the independent exact check"
    builder = (systems.l1_drop_system if job["norm"] == "l1"
               else systems.linf_drop_system)
    system = builder(len(job["tail"]))
    gen = systems.generator_from_tail(system, job["tail"])
    q = determining.DeterminingQuery(system, gen,
                                     determining.RhoSchedule(job["rho"]),
                                     job["eps"], eval_stage)
    if determining.verify_pair(q, a, b) is None:
        return "counterexample fails verify_pair"
    return None


def check(cell, job, out):
    command, variant, M = cell
    code, report = out
    if report is None:
        return "exit 3 (bad input)"
    if command == "search":
        found = report["search"]
        if code != 1 or found["kind"] != "counterexample":
            return f"search missed the planted obstruction (exit {code})"
        return _reverify(job, found["counterexample"], M) or "ok"
    if command == "certify":
        res = report["certify"]
        want = {"certificate": 0, "counterexample": 1, "undecided": 2}
        if want.get(res["kind"]) != code:
            return f"exit {code} does not match verdict {res['kind']}"
        if res["kind"] == "counterexample":
            return _reverify(job, res["counterexample"], M) or "ok"
        if res["kind"] == "certificate" and job["planted"] is not None:
            return "certificate on a query with a verified violating pair"
        return "undecided" if res["kind"] == "undecided" else "ok"
    if command == "gfda-check":
        verdicts = [v["verdict"] for v in report["stage_verdicts"]]
        res = report["certify"]
        if res["kind"] == "counterexample":
            bad = _reverify(job, res["counterexample"], M)
            if bad:
                return bad
        if variant == "bad":
            if code != 1 or verdicts[1]:
                return f"stage-2 restriction passed (exit {code})"
            return "ok"
        if not all(verdicts):
            return f"stage verdicts {verdicts}, all quotient by construction"
        if res["kind"] == "counterexample":
            return "counterexample on a slice that cannot violate eps = 1"
        if code != (0 if res["kind"] == "certificate" else 1):
            return f"exit {code} does not match {res['kind']}"
        return "undecided" if res["kind"] == "undecided" else "ok"
    if report["quotient"]["verdict"] != job["quotient"] or \
            code != (0 if job["quotient"] else 1):
        return (f"quotient verdict {report['quotient']['verdict']} "
                f"(exit {code}), expected {job['quotient']}")
    return "ok"


def label(cell, job):
    """Command, variant and M, read from the generated inputs where a job
    has them."""
    command, variant, M = cell
    if "tail" in job:
        M = len(job["tail"])
    if "source" in job:
        verdict = "quotient" if job["quotient"] else "shrunk"
        variant = f"{job['source']}-{verdict}"
    return f"{command}/{variant}/M{M}"
