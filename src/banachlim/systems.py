"""Standard direct and inverse systems at finite truncation scale.

Stages are indexed 1..max_stage.  An inverse system has bonds
theta_i : W_{i+1} -> W_i; a direct system has bonds iota_i : E_i -> E_{i+1}.
All "limit" quantities carry an explicit bound direction: stage-M norms of
compatible vectors are lower bounds of the limit norm, pushed-forward
direct-limit norms are upper bounds of the limit pseudo-norm.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import linalg
from .scalar import Q, ZERO, format_scalar, read
from .linmap import (LinearMap, adjoint, is_quotient_map, lipschitz_verdict,
                     linear_map, min_norm_preimage)
from .space import (NormedSpace, ball_extreme_points, dual_label, dual_space,
                    lp_space, norm_eval, norm_eval_sq, space_from_json,
                    space_to_json, vpoly_space)


class StageError(ValueError):
    pass


class _SystemBase:
    """Lazy, memoized stage/bond generation from pure rules."""

    def __init__(self, space_fn, bond_fn, max_stage, label=""):
        self._space_fn = space_fn
        self._bond_fn = bond_fn
        self.max_stage = max_stage
        self.label = label
        self._spaces = {}
        self._bonds = {}

    def stage(self, i) -> NormedSpace:
        if not 1 <= i <= self.max_stage:
            raise StageError(f"stage {i} outside 1..{self.max_stage}")
        if i not in self._spaces:
            self._spaces[i] = self._space_fn(i)
        return self._spaces[i]

    def bond(self, i) -> LinearMap:
        if not 1 <= i < self.max_stage:
            raise StageError(f"bond {i} outside 1..{self.max_stage - 1}")
        if i not in self._bonds:
            self._bonds[i] = self._bond_fn(i)
        return self._bonds[i]


class DirectSystem(_SystemBase):
    """E_1 -> E_2 -> ... with 1-Lipschitz bonds iota_i : E_i -> E_{i+1}."""


class InverseSystem(_SystemBase):
    """W_1 <- W_2 <- ... with 1-Lipschitz bonds theta_i : W_{i+1} -> W_i."""

    def __init__(self, space_fn, bond_fn, max_stage, label="",
                 is_quotient_system=False):
        super().__init__(space_fn, bond_fn, max_stage, label)
        self.is_quotient_system = is_quotient_system


@dataclass(frozen=True)
class StageVerdict:
    stage: int
    lipschitz_ok: bool
    quotient_ok: bool = None
    witness: tuple = None


def validate_standard(system):
    """Exact per-bond verdicts: operator norm <= 1, and (for quotient
    systems) the quotient-map verdict, reusing that operator norm."""
    out = []
    quotient = isinstance(system, InverseSystem) and system.is_quotient_system
    for i in range(1, system.max_stage):
        T = system.bond(i)
        lv = lipschitz_verdict(T)
        lip, witness = lv.verdict, lv.witness
        q_ok = None
        if quotient and lip:
            qv = is_quotient_map(T, lv)
            q_ok = qv.verdict
            if not q_ok:
                witness = qv.witness
        out.append(StageVerdict(i, bool(lip), q_ok, witness))
    return out


def dualize(system):
    """Duality functor: stages to dual spaces, bonds to adjoints.

    Direct systems map to inverse systems and conversely; isometrically
    injective direct systems dualize to quotient inverse systems.
    """
    cls = InverseSystem if isinstance(system, DirectSystem) else DirectSystem
    return cls(lambda i: dual_space(system.stage(i)),
               lambda i: adjoint(system.bond(i)),
               system.max_stage, label=dual_label(system.label))


# ---------------------------------------------------------------------------
# Compatible vectors

@dataclass(frozen=True)
class CompatibleVector:
    """Finite truncation (w_1, ..., w_M) of an inverse-limit element,
    with theta_i(w_{i+1}) = w_i exactly."""
    system: InverseSystem
    stages: tuple
    limit_norm: object = None   # closed-form limit norm when the generator
                                # rule supplies one; else None

    def __post_init__(self):
        for i, w in enumerate(self.stages, start=1):
            if len(w) != self.system.stage(i).dim:
                raise StageError(f"stage {i} vector has wrong dimension")
        for i in range(1, len(self.stages)):
            if self.system.bond(i)(self.stages[i]) != self.stages[i - 1]:
                raise StageError(f"bond compatibility fails at stage {i}")

    @property
    def top_stage(self):
        return len(self.stages)


def compatible_from_tail(system: InverseSystem, w_top, top=None,
                         limit_norm=None) -> CompatibleVector:
    """Build the truncation determined by its last stage."""
    top = top if top is not None else system.max_stage
    w = linalg.vec(w_top)
    if len(w) != system.stage(top).dim:
        raise StageError("tail vector has wrong dimension")
    stages = [w]
    for i in range(top - 1, 0, -1):
        w = system.bond(i)(w)
        stages.append(w)
    return CompatibleVector(system, tuple(reversed(stages)), limit_norm)


def project(cv: CompatibleVector, j: int):
    """pi_j: return the stored stage-j vector."""
    if not 1 <= j <= cv.top_stage:
        raise StageError(f"stage {j} outside 1..{cv.top_stage}")
    return cv.stages[j - 1]


@dataclass(frozen=True)
class StageNormReport:
    norms: tuple            # nondecreasing
    limit_estimate: object  # = norms[-1], a LOWER bound of the limit norm
    is_exact: bool
    limit: object = None    # closed-form limit when known


def stage_norms(cv: CompatibleVector) -> StageNormReport:
    norms = tuple(norm_eval(cv.system.stage(i + 1), w)
                  for i, w in enumerate(cv.stages))
    exact = cv.limit_norm is not None
    return StageNormReport(norms, norms[-1], exact,
                           cv.limit_norm if exact else None)


def lift_min_norm(system: InverseSystem, w, i: int):
    """Norm-preserving lift through theta_i (quotient bonds only): returns
    u in W_{i+1} with theta_i(u) = w and ||u|| = ||w||, checked exactly
    (a system read from JSON may claim quotient bonds it does not have)."""
    T = system.bond(i)
    if not system.is_quotient_system:
        qv = is_quotient_map(T)
        if not qv.verdict:
            raise ValueError(
                f"bond {i} is not a quotient map ({qv.reason}); "
                "norm-preserving lifts exist only in quotient systems")
    u, _ = min_norm_preimage(T, w)
    if norm_eval_sq(T.source, u) != norm_eval_sq(T.target, w):
        raise ValueError(f"bond {i} is not a quotient map: the minimal lift "
                         "of w has a different norm")
    return u


def pairing(cv: CompatibleVector, j: int, phi):
    """phi(w_j) for phi in W_j^*."""
    w = project(cv, j)
    if len(phi) != len(w):
        raise StageError("covector dimension mismatch")
    return linalg.dot(linalg.vec(phi), w)


@dataclass(frozen=True)
class PairingVerdict:
    verdict: bool
    attaining_phi: tuple = None
    attained: object = None
    limit_gap_within_eps: bool = None


def pairing_isometry_check(cv: CompatibleVector, eps=Q(0)) -> PairingVerdict:
    """Find a stage-M dual-ball extreme point attaining phi(w_M) = ||w_M||
    (the finite-stage content of the isometry of the canonical pairing).

    When the vector carries a closed-form limit norm, additionally reports
    whether the attained value is within eps of that limit."""
    M = cv.top_stage
    w = project(cv, M)
    space = cv.system.stage(M)
    target = norm_eval(space, w)
    best, best_phi = max(((linalg.dot(phi, w), phi)
                          for phi in ball_extreme_points(dual_space(space))),
                         key=lambda pair: pair[0])
    ok = best == target
    gap_ok = None
    if cv.limit_norm is not None:
        gap_ok = best >= cv.limit_norm - Q(eps)
    return PairingVerdict(ok, best_phi, best, gap_ok)


# ---------------------------------------------------------------------------
# Inverse-limit topology diagnostics

@dataclass(frozen=True)
class ConvergenceReport:
    stage_cauchy: tuple      # per-stage bool
    stage_limits: tuple      # per-stage limit candidate (or None)
    onsets: tuple            # per-stage onset index K (or None)
    converges: bool


def _dist_sq(space, a, b):
    """||a - b||^2 (d <= tol iff d^2 <= tol |tol|); free for a == b."""
    return ZERO if a == b else norm_eval_sq(space, linalg.vec_sub(a, b))


def _cauchy_onset(seq, j, tol_sq):
    """Least K <= len(seq) - 2 with the stage-j vectors p_k of seq[K:]
    pairwise within tol, else None.  Rows K are scanned from the end; the
    first with a far pair gives K + 1.  With s_k = ||p_k - p_last||^2, a
    pair with 2 (s_a + s_b) <= tol^2 is within tol by the triangle
    inequality; all of row K passes when 2 (s_K + max s_b) <= tol^2."""
    space, pts = seq[0].system.stage(j), [project(cv, j) for cv in seq]
    n, s, top = len(pts), [None] * len(pts), ZERO
    for K in range(n - 2, -1, -1):
        s[K] = _dist_sq(space, pts[K], pts[-1])
        if s[K] > tol_sq or 2 * (s[K] + top) > tol_sq and not all(
                2 * (s[K] + s[b]) <= tol_sq
                or _dist_sq(space, pts[K], pts[b]) <= tol_sq
                for b in range(K + 1, n - 1)):
            return K + 1 if K + 1 < n - 1 else None
        top = max(top, s[K])
    return 0 if n > 1 else None


def invlim_convergence(seq, tol) -> ConvergenceReport:
    """Stagewise Cauchy check: stage j passes if from some onset K on, all
    pairwise distances are <= tol (at least two tail elements required),
    decided on exact squares."""
    if not seq:
        raise ValueError("empty sequence")
    M = min(cv.top_stage for cv in seq)
    tol = Q(tol)
    onsets = tuple(_cauchy_onset(seq, j, tol * abs(tol))
                   for j in range(1, M + 1))
    return ConvergenceReport(
        tuple(k is not None for k in onsets),
        tuple(None if k is None else project(seq[-1], j)
              for j, k in enumerate(onsets, start=1)),
        onsets, None not in onsets)


def diagonal_subsequence(seq, eps):
    """Stagewise eps-net subselection: extract a subsequence whose
    invlim_convergence verdict passes at tolerance 2*eps per stage."""
    if not seq:
        return []
    system = seq[0].system
    M = min(cv.top_stage for cv in seq)
    idxs = list(range(len(seq)))
    eps = Q(eps)
    eps_sq = eps * abs(eps)
    for j in range(1, M + 1):
        space = system.stage(j)
        # Greedy eps-net clustering; keep the largest cluster.
        clusters = []
        for k in idxs:
            pt = project(seq[k], j)
            for rep, members in clusters:
                if _dist_sq(space, pt, rep) <= eps_sq:
                    members.append(k)
                    break
            else:
                clusters.append((pt, [k]))
        idxs = max((members for _, members in clusters), key=len)
    return [seq[k] for k in sorted(idxs)]


def direct_limit_norm(ds: DirectSystem, e, i: int):
    """Pushforward norms ||iota_{j-1} o ... o iota_i (e)|| for j = i..M
    (nonincreasing); the stage-M value is an UPPER bound of the direct-limit
    pseudo-norm."""
    if not 1 <= i <= ds.max_stage:
        raise StageError(f"stage {i} outside 1..{ds.max_stage}")
    x = linalg.vec(e)
    if len(x) != ds.stage(i).dim:
        raise StageError("vector has wrong dimension")
    norms = [norm_eval(ds.stage(i), x)]
    for j in range(i, ds.max_stage):
        x = ds.bond(j)(x)
        norms.append(norm_eval(ds.stage(j + 1), x))
    return tuple(norms), norms[-1]


# ---------------------------------------------------------------------------
# Subspace generators

class SubspaceGenerator:
    """Compatible family g_i : R^d -> W_i presenting a finite-dimensional
    slice of a subspace of the inverse limit.  Compatibility
    theta_i o g_{i+1} = g_i is validated eagerly."""

    def __init__(self, system: InverseSystem, matrices):
        self.system = system
        self.matrices = tuple(linalg.mat(m) for m in matrices)
        if len(self.matrices) > system.max_stage:
            raise StageError("more generator stages than system stages")
        dims = {len(m[0]) for m in self.matrices if m}
        if len(dims) != 1:
            raise ValueError("inconsistent parameter dimension")
        self.param_dim = dims.pop()
        for i, m in enumerate(self.matrices, start=1):
            if len(m) != system.stage(i).dim:
                raise StageError(f"generator matrix {i} has wrong row count")
        for i in range(1, len(self.matrices)):
            lhs = system.bond(i).mat_mul(self.matrices[i])
            if lhs != self.matrices[i - 1]:
                raise StageError(
                    f"generator family incompatible with bond {i}")

    @property
    def top_stage(self):
        return len(self.matrices)

    def matrix(self, i):
        return self.matrices[i - 1]

    @functools.cached_property
    def scaled(self):
        """(den, matrices): the stage matrices as integer rows over one
        positive denominator den."""
        rows, den = linalg.scaled_rows([r for m in self.matrices for r in m])
        it = iter(rows)
        return den, tuple(tuple(next(it) for _ in m) for m in self.matrices)

    def param_vector(self, a):
        """a as an exact parameter vector; ValueError unless it has
        param_dim entries (a matrix product would silently truncate it)."""
        if len(a) != self.param_dim:
            raise ValueError(f"parameter vector length {len(a)} != "
                             f"param_dim {self.param_dim}")
        return linalg.vec(a)

    def member(self, a, limit_norm=None) -> CompatibleVector:
        a = self.param_vector(a)
        stages = tuple(linalg.mat_vec(m, a) for m in self.matrices)
        return CompatibleVector(self.system, stages, limit_norm)


def generator_from_tail(system: InverseSystem, g_top, top=None
                        ) -> SubspaceGenerator:
    """Generator family determined by its top-stage matrix."""
    top = top if top is not None else system.max_stage
    g = linalg.mat(g_top)
    mats = [g]
    for i in range(top - 1, 0, -1):
        g = system.bond(i).mat_mul(g)
        mats.append(g)
    return SubspaceGenerator(system, tuple(reversed(mats)))


# ---------------------------------------------------------------------------
# Built-in system library

def _coordinate_system(cls, p, max_stage, label, prefix, **kw):
    """lp^i stages, one space each shared with the bonds; an inverse system
    drops the last coordinate, a direct one pads a zero."""
    @functools.cache
    def space_fn(i):
        return lp_space(p, dim=i, label=f"{prefix}_{i}")

    def bond_fn(i):
        if cls is InverseSystem:
            return LinearMap(space_fn(i + 1), space_fn(i),
                             coords=tuple(range(i)))
        return LinearMap(space_fn(i), space_fn(i + 1),
                         coords=tuple(range(i)) + (None,))

    return cls(space_fn, bond_fn, max_stage, label, **kw)


def l1_drop_system(max_stage) -> InverseSystem:
    """W_i = l1^i with last-coordinate drop (quotient system; the inverse
    limit realizes l1 = c0*, the RNP side of the dichotomy)."""
    return _coordinate_system(InverseSystem, "1", max_stage, "l1_drop", "l1",
                              is_quotient_system=True)


def linf_drop_system(max_stage) -> InverseSystem:
    """W_i = linf^i with drop bonds (hosts the c0 non-RNP subspace)."""
    return _coordinate_system(InverseSystem, "inf", max_stage, "linf_drop",
                              "linf", is_quotient_system=True)


def l2_drop_system(max_stage) -> InverseSystem:
    """W_i = l2^i with drop bonds.  The bonds are quotient maps
    mathematically, but the l2 ball is not polytopal so the exact quotient
    verdict machinery does not certify them; the flag stays unset."""
    return _coordinate_system(InverseSystem, "2", max_stage, "l2_drop", "l2",
                              is_quotient_system=False)


def linf_padding_system(max_stage) -> DirectSystem:
    """E_i = linf^i with zero-padding bonds (isometrically injective);
    its dual is the l1 coordinate-drop inverse system."""
    return _coordinate_system(DirectSystem, "inf", max_stage, "linf_pad",
                              "linfpad")


def random_quotient_system(seed, max_stage, dim_cap=3) -> InverseSystem:
    """Random polytope-norm quotient system, quotient by construction.

    The top stage gets a random V-polytope norm; each bond is a random
    surjection and the target norm is rescaled to the exact quotient norm
    (its ball is the image of the source ball), so every bond is a
    1-Lipschitz quotient map by construction.
    """
    rng = random.Random(seed)
    dims = [min(i, dim_cap) + 1 for i in range(1, max_stage + 1)]
    spaces = [None] * (max_stage + 1)
    bonds = [None] * max_stage

    d_top = dims[-1]
    while True:
        verts = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 2))
                       for _ in range(d_top)) for _ in range(d_top + 2)]
        if linalg.rank(verts) == d_top and all(any(v != 0 for v in w)
                                               for w in verts):
            break
    spaces[max_stage] = vpoly_space(verts, label=f"rq{seed}_{max_stage}")
    for i in range(max_stage - 1, 0, -1):
        di, dj = dims[i - 1], dims[i]
        while True:
            rows = [[Q(rng.randint(-3, 3)) for _ in range(dj)]
                    for _ in range(di)]
            if linalg.rank(rows) == di:
                break
        src = spaces[i + 1]
        image_verts = [linalg.mat_vec(linalg.mat(rows), v)
                       for v in src.spec.vertices]
        tgt = vpoly_space(image_verts, label=f"rq{seed}_{i}")
        spaces[i] = tgt
        bonds[i] = linear_map(src, tgt, rows)

    return InverseSystem(lambda i: spaces[i], lambda i: bonds[i],
                         max_stage, f"random_quotient_{seed}",
                         is_quotient_system=True)


BUILTIN_SYSTEMS = {
    "l1_drop": l1_drop_system,
    "linf_drop": linf_drop_system,
    "l2_drop": l2_drop_system,
    "linf_padding": linf_padding_system,
}


# ---------------------------------------------------------------------------
# JSON wire format

def system_to_json(system):
    kind = "inverse" if isinstance(system, InverseSystem) else "direct"
    spaces = [space_to_json(system.stage(i))
              for i in range(1, system.max_stage + 1)]
    bonds = [[[format_scalar(v) for v in row]
              for row in system.bond(i).matrix]
             for i in range(1, system.max_stage)]
    out = {"kind": kind, "label": system.label, "stages": len(spaces),
           "spaces": spaces, "bonds": bonds}
    if isinstance(system, InverseSystem):
        out["is_quotient_system"] = system.is_quotient_system
    return out


_BUILTIN_RULE = {"builtin": str, "stages": 1, "seed": (int, 0)}
_INLINE_RULE = {"kind": (str, "inverse"), "label": (str, ""),
                "stages": (1, None), "spaces": [space_from_json],
                "bonds": [[[Q]]], "is_quotient_system": (bool, False)}


def system_from_json(obj, path="system"):
    """A builtin system by name, or one given by its spaces and bonds."""
    if type(obj) is dict and "builtin" in obj:
        b = read(obj, _BUILTIN_RULE, path)
        if b["builtin"] == "random_quotient":
            return random_quotient_system(b["seed"], b["stages"])
        if b["builtin"] not in BUILTIN_SYSTEMS:
            raise ValueError(f"{path}.builtin: unknown builtin system "
                             f"{b['builtin']!r}")
        return BUILTIN_SYSTEMS[b["builtin"]](b["stages"])
    s = read(obj, _INLINE_RULE, path)
    spaces, mats, n = s["spaces"], s["bonds"], len(s["spaces"])
    if n < 1:
        raise ValueError(f"{path}.spaces must list at least one space")
    if len(mats) != n - 1:
        raise ValueError(f"{path}.bonds must list len(spaces) - 1 matrices")
    if s["stages"] not in (None, n):
        raise ValueError(f"{path}.stages must equal len(spaces)")
    if s["kind"] == "direct":
        bonds = [linear_map(spaces[i], spaces[i + 1], mats[i])
                 for i in range(n - 1)]
        return DirectSystem(lambda i: spaces[i - 1],
                            lambda i: bonds[i - 1], n, s["label"])
    bonds = [linear_map(spaces[i + 1], spaces[i], mats[i])
             for i in range(n - 1)]
    return InverseSystem(lambda i: spaces[i - 1], lambda i: bonds[i - 1], n,
                         s["label"], s["is_quotient_system"])
