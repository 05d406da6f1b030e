"""`maps` workload: polytope duality, operator norms and quotient/isometry
verdicts on random V/H-polytope spaces of dimension 2-4.

Why: the simplex layer does most of the work here (irredundancy, gauge and
min-norm-preimage LPs), with per-job times spread over two orders of
magnitude, so both the median and the tail move when the LP core changes.

Each job builds its spaces from raw rational vectors, so construction cost
(irredundancy LPs) is part of the job.  Verdicts are known by construction;
operator norms and norms are checked against brute-force vertex enumeration
(``tests/oracles.py``), which shares no code with the LP path.
"""

import numpy as np

from banachlim import linalg, linmap, space
from banachlim.scalar import ONE, Q, ZERO

from oracles import vertices_by_subset_enum

NAME = "maps"
TAIL_PCT = 85

# One round of the closed loop.  A cell is (kind, dimension, norm kinds);
# embed/quotient dimensions are those of the smaller space.  Left out are
# criterion 2's V-polytope pad embeddings and its quotients of 4-dim
# H-polytopes (0.4-10 s each, their medians 50% apart between seeds,
# which a 30-second run cannot average), quotients of 3-dim H-polytopes
# (about 0.7 s each with a cost spread of 0.34 of the mean, a third of the
# round's time; with them, jobs_per_s spread 0.12 over five seeds while
# runs of one seed agreed within 1%; determine's quotient-check keeps an
# H-polytope source), and 4-dim cells whose oracle needs a 495-subset
# enumeration.
#
# Per round, by cost: 5 cheap 2-dim jobs, 8 like jobs of 40-55 ms that hold
# the median, the 3-dim H-to-V opnorm (about 90 ms), then five of
# 0.13-0.15 s (the two 3-dim pad embeddings, the 4-dim opnorm and bipolar,
# the 3-dim quotient).  The 85th percentile falls inside that block of
# five; the 90th fell on its edge, where one job's timing noise moved the
# figure by 10% between runs of one seed.  Keeping each percentile inside a
# block of like jobs keeps it steady.
ROUND = [
    ("bipolar", 2, "hpoly"), ("opnorm", 2, "vpoly>hpoly"),
    ("embed", 2, "hpoly"), ("quotient", 2, "vpoly"),
    ("bipolar", 3, "vpoly"), ("bipolar", 3, "hpoly"),
    ("opnorm", 3, "hpoly>vpoly"), ("bipolar", 2, "vpoly"),
    ("opnorm", 3, "vpoly>hpoly"), ("embed", 3, "hpoly"),
    ("bipolar", 4, "hpoly"), ("opnorm", 2, "hpoly>vpoly"),
    ("bipolar", 3, "vpoly"), ("quotient", 3, "vpoly"),
    ("quotient", 2, "vpoly"), ("opnorm", 3, "vpoly>hpoly"),
    ("opnorm", 4, "vpoly>hpoly"), ("bipolar", 3, "hpoly"),
    ("embed", 3, "hpoly"),
]
SHORT = 4
POOL_ROUNDS = 80
BIPOLAR_VECTORS = 10


def setup(workdir):
    return None


def _rational_vector(rng, dim):
    return tuple(Q(rng.randint(-12, 12), 4) for _ in range(dim))


def _spanning(rng, dim, count):
    while True:
        vecs = [_rational_vector(rng, dim) for _ in range(count)]
        if all(any(v) for v in vecs) and np.linalg.matrix_rank(
                np.array(vecs, dtype=float)) == dim:
            return tuple(vecs)


def _full_rank_rows(rng, rows, cols):
    while True:
        m = tuple(tuple(Q(rng.randint(-2, 2)) for _ in range(cols))
                  for _ in range(rows))
        if np.linalg.matrix_rank(np.array(m, dtype=float)) == rows:
            return m


def make_job(rng, cell, ctx):
    kind, d, norms = cell
    if kind == "bipolar":
        return {"vecs": _spanning(rng, d, d + 2),
                "xs": [_rational_vector(rng, d)
                       for _ in range(BIPOLAR_VECTORS)]}
    if kind == "opnorm":
        return {"src": _spanning(rng, d, d + 2),
                "tgt": _spanning(rng, d, d + 2),
                "rows": tuple(tuple(Q(rng.randint(-2, 2)) for _ in range(d))
                              for _ in range(d))}
    if kind == "embed":
        return {"vecs": _spanning(rng, d, d + 2)}
    return {"vecs": _spanning(rng, d + 1, d + 3),
            "rows": _full_rank_rows(rng, d, d + 1)}


def _build(norm, vecs):
    return (space.vpoly_space(vecs) if norm == "vpoly"
            else space.hpoly_space(vecs))


def _pad(src):
    """Isometric copy of an H-polytope space in one more dimension."""
    d = src.dim
    return space.hpoly_space([tuple(f) + (ZERO,)
                              for f in src.spec.functionals]
                             + [(ZERO,) * d + (ONE,)])


def run(cell, job):
    kind, d, norms = cell
    if kind == "bipolar":
        X = _build(norms, job["vecs"])
        XX = space.dual_space(space.dual_space(X))
        return [(space.norm_eval(X, x), space.norm_eval(XX, x))
                for x in job["xs"]]
    if kind == "opnorm":
        src_norm, tgt_norm = norms.split(">")
        T = linmap.linear_map(_build(src_norm, job["src"]),
                              _build(tgt_norm, job["tgt"]), job["rows"])
        res = linmap.operator_norm(T)
        return res.value, res.certificate_kind
    if kind == "embed":
        src = _build(norms, job["vecs"])
        pad = linmap.linear_map(src, _pad(src),
                                [[ONE if i == j else ZERO for j in range(d)]
                                 for i in range(d + 1)])
        return (linmap.is_isometric_embedding(pad).verdict,
                linmap.is_quotient_map(linmap.adjoint(pad)).verdict)
    src = _build(norms, job["vecs"])
    A = linalg.mat(job["rows"])
    image = [linalg.mat_vec(A, v) for v in space.ball_extreme_points(src)]
    T = linmap.linear_map(src, space.vpoly_space(image), job["rows"])
    return (linmap.is_quotient_map(T).verdict,
            linmap.is_isometric_embedding(linmap.adjoint(T)).verdict)


# ---------------------------------------------------------------------------
# Independent checks (vertex enumeration by brute-force subset intersection)

def _ball_vertices(norm, vecs):
    """Extreme points of the unit ball given by norm over vecs."""
    sym = [v for u in vecs for v in (u, tuple(-x for x in u))]
    if norm == "vpoly":
        return sym
    return list(vertices_by_subset_enum(sym, len(vecs[0])))


def _dual_vertices(norm, vecs):
    """Extreme points of the dual ball: norm(x) = max f.x over them."""
    return _ball_vertices("vpoly" if norm == "hpoly" else "hpoly", vecs)


def _oracle_norm(dual_vertices, x):
    return max(sum((a * b for a, b in zip(f, x)), ZERO)
               for f in dual_vertices)


def check(cell, job, out):
    """'ok', 'undecided', or a failure description."""
    kind, d, norms = cell
    if kind == "bipolar":
        dual = _dual_vertices(norms, job["vecs"])
        if len(out) != len(job["xs"]):
            return f"{len(out)} norm pairs for {len(job['xs'])} vectors"
        for x, (n1, n2) in zip(job["xs"], out):
            want = _oracle_norm(dual, x)
            if not n1 == n2 == want:
                return f"norm {n1} / bidual {n2} != oracle {want} at {x}"
        return "ok"
    if kind == "opnorm":
        value, certificate = out
        src_norm, tgt_norm = norms.split(">")
        dual = _dual_vertices(tgt_norm, job["tgt"])
        want = max(_oracle_norm(dual, [sum((a * b for a, b in zip(r, x)),
                                           ZERO) for r in job["rows"]])
                   for x in _ball_vertices(src_norm, job["src"]))
        if certificate != "exact" or value != want:
            return f"operator norm {value} ({certificate}) != oracle {want}"
        return "ok"
    if out != (True, True):
        return f"verdicts {out} != (True, True) known by construction"
    return "ok"


def label(cell, job):
    """Kind, dimension (read from the generated inputs) and norm kinds."""
    kind, _, norms = cell
    d = (len(job["rows"]) if kind == "quotient"
         else len((job.get("vecs") or job["src"])[0]))
    return f"{kind}/d{d}/{norms}"

