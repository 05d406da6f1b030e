"""`stages` workload: inverse-limit stage computations on the coordinate-drop
systems at M = 20 and a deeper M = 40.

Why: it makes no LP solve.  Its time is dense bond ``mat_vec`` through M
stages (difference quotients, compatible vectors, stage norms), so it
shows how cost scales with stage depth and is the no-change workload for
simplex work.

Checks stay off the pipeline under test: scan gaps against the closed-form
``coordinate_gap_oracle`` to 1e-9 and the M=20 classification; stage
vectors and norms against prefix sums computed here (exact squares for l2);
sequence verdicts against residuals computed here.
"""

from fractions import Fraction

from banachlim import curves, determining, systems
from banachlim.scalar import Q

NAME = "stages"
TAIL_PCT = 75

# Per round: 6 cheap M=20 norm jobs, then 8 jobs of 0.5-0.7 s (mostly
# c0 scans) that hold the median, then the four M=40 norm jobs (about
# 0.9 s) that hold the 75th percentile, then the M=40 scans and ANP/DP.
# Keeping each of those percentiles inside a block of like jobs keeps them
# steady between seeds.  A run takes two rounds (the ten jobs beyond the
# 75th percentile need 40 jobs); with three M=40 norm jobs the percentile
# fell on the second of that block of six, next to the M=20 jobs, and
# spread 0.11 over ten seeds; with four it is the fourth of eight.
ROUND = [
    ("scan", "l1", 20), ("norms", "l2", 20), ("anp-dp", "l1", 20),
    ("scan", "c0", 20), ("norms", "l1", 20), ("norms", "linf", 20),
    ("scan", "c0", 20), ("norms", "l2", 20), ("scan", "l1", 20),
    ("scan", "c0", 20), ("norms", "l1", 20), ("scan", "c0", 20),
    ("norms", "linf", 20), ("scan", "c0", 20),
    ("norms", "l1", 40), ("norms", "linf", 40), ("norms", "l2", 40),
    ("norms", "l2", 40),
    ("scan", "l1", 40), ("scan", "c0", 40), ("anp-dp", "l1", 40),
]
SHORT = 4
POOL_ROUNDS = 12
GRID_POINTS = 100
NORM_VECTORS = 4
SEQUENCE_LENGTH = 15
TOL = Q(1, 10**6)
# Scales m of a scan: the M=20 ranges that classify each curve, and a
# shorter one at M=40 (each gap there costs about 8x one at M=20; the full
# ranges made the two M=40 scans half of a round's time).
M_RANGE = {("l1", 20): range(4, 15), ("c0", 20): range(4, 17),
           ("l1", 40): range(4, 9), ("c0", 40): range(4, 9)}
EXPECTED_M20 = {"l1": "decaying", "c0": "obstructed"}
_BUILDERS = {"l1": systems.l1_drop_system, "linf": systems.linf_drop_system,
             "l2": systems.l2_drop_system}


def setup(workdir):
    """Screened canonical grid (oracle-only warm-up)."""
    return curves.canonical_grid(GRID_POINTS)


def make_job(rng, cell, grid):
    kind, p, M = cell
    if kind == "scan":
        return {"t": grid[rng.randrange(len(grid))]}
    if kind == "norms":
        return {"tails": [[Q(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(M)]
                          for _ in range(NORM_VECTORS)]}
    # Criterion 6: early terms perturbed, settled terms wobble below tol.
    base = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(M)]
    stab = rng.randint(4, 10)
    tails = []
    for k in range(SEQUENCE_LENGTH):
        tail = list(base)
        if k < stab:
            tail[rng.randrange(M)] += Q(rng.randint(-3, 3), 2)
        elif rng.random() < 0.5:
            tail[rng.randrange(M)] += Q(rng.choice([-1, 1]),
                                        10**9 + rng.randint(0, 7))
        tails.append(tail)
    return {"tails": tails}


def _curve(p, M):
    return (curves.canonical_l1_curve(M) if p == "l1"
            else curves.canonical_c0_curve(M))


def run(cell, job):
    kind, p, M = cell
    if kind == "scan":
        rep = curves.differentiability_scan(_curve(p, M), [job["t"]],
                                            M_RANGE[p, M])
        return rep.gaps[0], rep.classifications[0]
    if kind == "norms":
        system = _BUILDERS[p](M)
        out = []
        for tail in job["tails"]:
            cv = systems.compatible_from_tail(system, tail)
            out.append((cv.stages, systems.stage_norms(cv).norms))
        return out
    system = systems.l1_drop_system(M)
    seq = [systems.compatible_from_tail(system, tail) for tail in job["tails"]]
    dp = determining.dp_diagnostic(seq, TOL)
    anp = determining.anp_diagnostic(seq, TOL)
    eq = (determining.equivalence_witness(seq, TOL)
          if anp.weak_star_convergent else None)
    return {"uniform": dp.uniform_within_tol,
            "weak_star": anp.weak_star_convergent,
            "norm_converges": anp.norm_converges,
            "agree": eq.agree if eq else None,
            "identity": eq.identity_holds if eq else None}


# ---------------------------------------------------------------------------
# Independent checks

def _l1(v):
    return sum((abs(x) for x in v), Fraction(0))


def _check_scan(p, M, job, out):
    gaps, verdict = out
    curve = _curve(p, M)
    if len(gaps) != len(M_RANGE[p, M]):
        return f"{len(gaps)} gaps for {len(M_RANGE[p, M])} values of m"
    for m, gap in zip(M_RANGE[p, M], gaps):
        want = curves.coordinate_gap_oracle(curve, job["t"], m, M)
        if abs(gap - want) > 1e-9:
            return f"gap {gap!r} at m={m} != oracle {want!r}"
    if verdict == "inconclusive":
        return "undecided"
    if M == 20 and verdict != EXPECTED_M20[p]:
        return f"classified {verdict}, expected {EXPECTED_M20[p]}"
    return "ok"


def _check_norms(p, job, out):
    if len(out) != len(job["tails"]):
        return f"{len(out)} results for {len(job['tails'])} tails"
    for tail, (stages, norms) in zip(job["tails"], out):
        if not len(stages) == len(norms) == len(tail):
            return (f"{len(stages)} stages and {len(norms)} norms "
                    f"for M = {len(tail)}")
        for i, (w, n) in enumerate(zip(stages, norms), start=1):
            prefix = tail[:i]
            if list(w) != prefix:
                return f"stage {i} vector is not the {i}-prefix of the tail"
            if p == "l1":
                ok = n == _l1(prefix)
            elif p == "linf":
                ok = n == max(abs(x) for x in prefix)
            else:
                square = sum((x * x for x in prefix), Fraction(0))
                ok = abs(n * n - square) <= square * Fraction(1, 2**40)
            if not ok:
                return f"stage {i} norm {n} wrong for {p}"
        if any(a > b for a, b in zip(norms, norms[1:])):
            return "stage norms not nondecreasing"
    return "ok"


def _check_anp_dp(job, out):
    tails = job["tails"]
    M = len(tails[0])
    K = len(tails)
    norms = [_l1(t) for t in tails]
    weak_star = any(all(_l1([a - b for a, b in zip(x, y)]) <= TOL
                        for i, x in enumerate(tails[k:])
                        for y in tails[k + i + 1:])
                    for k in range(K - 1))
    want = {"weak_star": weak_star,
            "uniform": any(max(n - _l1(t[:i]) for n, t in zip(norms, tails))
                           < TOL for i in range(1, M + 1))}
    if weak_star:
        resid = [abs(n - norms[-1]) for n in norms]
        want["norm_converges"] = any(all(r < TOL for r in resid[k:])
                                     for k in range(K - 1))
        want["agree"] = want["uniform"] == want["norm_converges"]
        want["identity"] = True
    for key, value in want.items():
        if out[key] != value:
            return f"{key} = {out[key]}, independent value {value}"
    return "ok"


def check(cell, job, out):
    kind, p, M = cell
    if kind == "scan":
        return _check_scan(p, M, job, out)
    if kind == "norms":
        return _check_norms(p, job, out)
    return _check_anp_dp(job, out)


def label(cell, job):
    """Kind, norm and M (read from the generated tails where a job has
    them)."""
    kind, p, M = cell
    if "tails" in job:
        M = len(job["tails"][0])
    return f"{kind}/{p}/M{M}"
