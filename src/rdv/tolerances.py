"""Every floating-point threshold of the package, and its rounding model.

Each verdict of a report is one of the paper's identities checked at a
threshold, and every threshold that compares floats lives here; size
limits and budgets stay with the code they bound.  The comment on each
entry says what it guards and the scale of what it compares: K-scale
(kernel values, potentials, levels, energies, eigenvalues), unit (measure
weights, simplex sums), or mixed, which names both.  This module imports
nothing from ``rdv``.
"""
from __future__ import annotations

from types import MappingProxyType

# Rounding model of float64 (Higham, Accuracy and Stability of Numerical Algorithms, 2002)
U = 2.0 ** -53  # unit roundoff
ETA = 2.0 ** -1074  # smallest positive subnormal


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the bound on the relative error of n roundings."""
    return n * U / (1.0 - n * U)


# core: kernels, measures and intervals
SYMMETRY_TOL = 1e-12  # |K[i,j] - K[j,i]| a kernel may show; K-scale
METRIC_TOL = 1e-12  # diagonal and triangle slack of a metric; K-scale
MEASURE_SUM_TOL = 1e-9  # |sum of weights - 1| a Measure accepts; unit
MEASURE_NEG_TOL = 1e-9  # weight clipped or snapped to 0; mixed: also ValueInterval's least endpoint
SUPPORT_EPS = 1e-12  # weight above which a point carries mass; unit
TIE_TOL = 1e-9  # potentials tied at an extreme, values crossed in an empty interval; K-scale

# energy: maximum principle and w <= r <= E
FROSTMAN_TOL = 1e-6  # Frostman verdicts; mixed: potentials against w, and the violating mass
DUAL_MATCH_TOL = 1e-7  # E against C - w of C - k solved on its own; K-scale
ORDER_TOL = 1e-8  # slack of low <= high in w <= r <= E; K-scale
EQUALITY_TOL = 1e-7  # |high - low| that counts as r = E or w = r; K-scale

# minimax: q against the lower value, invariant measures
GAP_UNIQUE_TOL = 1e-8  # q against q_lower for a unique point, and the chain residuals; K-scale
INVARIANCE_TOL = 1e-8  # potential oscillation of an invariant measure; K-scale

# optimize: the simplex LP and its certificate
PRIMAL_TOL = 1e-9  # primal residuals and bounds; mixed: rows K mu - t and the row sum mu = 1
DUAL_TOL = 1e-9  # dual signs and reduced costs; mixed: weight and level columns
GAP_TOL = 1e-8  # |primal - dual objective|, a level; K-scale
STOP_TOL = 1e-10  # reduced cost below -STOP_TOL enters; mixed: weight and level columns
RATIO_TOL = 1e-10  # entering-column entry that bounds the ratio test; mixed
RATIO_TIE_TOL = 1e-12  # ratios within RATIO_TIE_TOL * (1 + |best|) tie; mixed
PIVOT_TOL = 1e-7  # smallest sound pivot; 10x it is the drift allowed at optimum; mixed

# optimize: quadratic extrema on the simplex
QP_GAP_TOL = 1e-10  # Frank-Wolfe gap that certifies an extremum; K-scale
RESID_TOL = 1e-8  # KKT residual of a support, also times (1 + max|M|); K-scale
WEIGHT_TOL = 1e-10  # KKT weight below -WEIGHT_TOL rejects a support; unit
VALUE_TIE_TOL = 1e-15  # a candidate energy must beat the best by more; K-scale
EQUAL_VALUE_TOL = 1e-12  # energies this close tie, and the smaller weights win; K-scale
REPLAY_BAND_TOL = 1e-9  # band above the best replayed, times (1 + max|Q|); K-scale
BORDER_TRUST_TOL = 1e-3  # largest error bound a bordered support verdict rests on; unit

# spectral and structure
DEFINITENESS_TOL = 1e-10  # zero threshold of every sum-zero eigenvalue decision; K-scale
AGREEMENT_TOL = 1e-7  # a level against the values or the energy it must equal; K-scale

# suites
ELTON_UPPER_TOL = 1e-8  # overshoot of max K mu above r in the duality suite; K-scale
ELTON_LOWER_TOL = 2e-8  # shortfall of min K nu below r in the duality suite; K-scale
UNIFORM_TOL = 1e-12  # uniform measure's oscillation on a transitive space; K-scale

# The `tolerances` section of an `rdv analyze` report, and of `rdv verify --out`
ANALYZE_TOLERANCES = MappingProxyType({
    "duality_gap": GAP_UNIQUE_TOL,
    "uniqueness": GAP_UNIQUE_TOL,
    "chain": GAP_UNIQUE_TOL,
    "invariance": INVARIANCE_TOL,
    "agreement": AGREEMENT_TOL,
    "frostman": FROSTMAN_TOL,
    "negative_type": DEFINITENESS_TOL,
    "order": ORDER_TOL,
    "equality": EQUALITY_TOL,
})
VERIFY_TOLERANCES = MappingProxyType({
    "duality_gap": GAP_UNIQUE_TOL,
    "chain": GAP_UNIQUE_TOL,
    "frostman": FROSTMAN_TOL,
    "invariance": INVARIANCE_TOL,
    "order": ORDER_TOL,
    "elton_upper": ELTON_UPPER_TOL,
    "elton_lower": ELTON_LOWER_TOL,
    "dual_match": DUAL_MATCH_TOL,
    "equality": EQUALITY_TOL,
    "agreement": AGREEMENT_TOL,
    "uniform": UNIFORM_TOL,
})
