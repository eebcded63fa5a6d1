"""Component distributions for the strata mixture: normal and zero-censored
tobit. Their log-density is the EM kernel's (``em._cell_logdens``); this
module holds the normal CDF it needs and the tobit mean. The disturbance
shapes the simulation harness draws from live in :mod:`stratfit.simulate`.

The censoring mass at zero enters the likelihood directly, so the normal CDF
here is a dedicated double-precision rational implementation (Cody-style
erf/erfc with the scaled complement for the far tail) rather than a library
shortcut; ``norm_logcdf`` stays accurate over the whole double range.
"""

from __future__ import annotations

import enum
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)

# Rational minimax coefficients for erf/erfc (Cody 1969 / SPECFUN CALERF).
_ERF_A = (
    3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01, 2.44024637934444173e02,
    1.28261652607737228e03, 2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02,
    8.81952221241769090e02, 1.71204761263407058e03,
    2.05107837782607147e03, 1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01, 1.17693950891312499e02,
    5.37181101862009858e02, 1.62138957456669019e03,
    3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1, 3.60344899949804439e-1,
    1.25781726111229246e-1, 1.60837851487422766e-2,
    6.58749161529837803e-4, 1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00, 1.87295284992346047e00,
    5.27905102951428412e-1, 6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_ERF_THRESH = 0.46875


def _erfc_nonneg(y: np.ndarray, scaled: bool) -> np.ndarray:
    """erfc(y) for y >= 0, or exp(y^2)*erfc(y) when ``scaled``."""
    out = np.empty_like(y)

    small = y < _ERF_THRESH
    if small.any():
        ys = y[small]
        z = ys * ys
        num = _ERF_A[4] * z
        den = z
        for a, b in zip(_ERF_A[:3], _ERF_B[:3]):
            num = (num + a) * z
            den = (den + b) * z
        erf = ys * (num + _ERF_A[3]) / (den + _ERF_B[3])
        r = 1.0 - erf
        out[small] = r * np.exp(z) if scaled else r

    mid = (y >= _ERF_THRESH) & (y <= 4.0)
    if mid.any():
        ym = y[mid]
        num = _ERF_C[8] * ym
        den = ym
        for c, d in zip(_ERF_C[:7], _ERF_D[:7]):
            num = (num + c) * ym
            den = (den + d) * ym
        r = (num + _ERF_C[7]) / (den + _ERF_D[7])
        if scaled:
            out[mid] = r
        else:
            # exp(-y^2) split into an exactly representable part plus a
            # correction keeps the product accurate to a few ulp.
            ysq = np.floor(ym * 16.0) / 16.0
            dl = (ym - ysq) * (ym + ysq)
            out[mid] = np.exp(-ysq * ysq) * np.exp(-dl) * r

    big = y > 4.0
    if big.any():
        yb = y[big]
        z = 1.0 / (yb * yb)
        num = _ERF_P[5] * z
        den = z
        for p, q in zip(_ERF_P[:4], _ERF_Q[:4]):
            num = (num + p) * z
            den = (den + q) * z
        r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
        r = (_INV_SQRT_PI - r) / yb
        if scaled:
            out[big] = r
        else:
            ysq = np.floor(yb * 16.0) / 16.0
            dl = (yb - ysq) * (yb + ysq)
            out[big] = np.exp(-ysq * ysq) * np.exp(-dl) * r

    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    e = _erfc_nonneg(ax, scaled=False)
    return np.where(x >= 0.0, e, 2.0 - e)


def _lower_tail(a: np.ndarray) -> np.ndarray:
    """P(X < -a) for a >= 0.6629, as 0.5*erfcx(a/sqrt2)*exp(-a^2/2).

    The exponent is split on ``a`` itself (floor(16a)/16 squares exactly in
    a double), so no rounded a/sqrt2 gets amplified by the a^2 condition
    number; erfcx is well conditioned and absorbs the division's rounding.
    """
    r = _erfc_nonneg(a / _SQRT2, scaled=True)
    asq = np.floor(a * 16.0) / 16.0
    dl = (a - asq) * (a + asq)
    return 0.5 * r * np.exp(-0.5 * asq * asq) * np.exp(-0.5 * dl)


def _at_limits(f, x: np.ndarray, at_neg_inf: float, at_pos_inf: float):
    """``f`` of an array with a non-finite entry: the finite entries go
    through ``f`` alone, -inf and +inf take the limits and NaN stays NaN.
    The branches of ``f`` never see a non-finite input, where they would
    raise warnings and, for NaN, leave an entry unwritten."""
    out = np.where(x > 0.0, at_pos_inf, np.where(x < 0.0, at_neg_inf, np.nan))
    finite = np.isfinite(x)
    out[finite] = f(x[finite])
    return out if out.ndim else float(out)


def norm_cdf(x):
    """Standard normal CDF, |relative error| below 1e-14 over the double range;
    0 at -inf, 1 at +inf and NaN at NaN."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return _at_limits(norm_cdf, x, 0.0, 1.0)
    out = np.empty_like(x)
    lo = x < -_ERF_THRESH * _SQRT2
    hi = x > _ERF_THRESH * _SQRT2
    if lo.any():
        out[lo] = _lower_tail(-x[lo])
    if hi.any():
        out[hi] = 1.0 - _lower_tail(x[hi])
    mid = ~(lo | hi)
    if mid.any():
        out[mid] = 0.5 * _erfc(-x[mid] / _SQRT2)
    return out if out.ndim else float(out)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    res = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return res if res.ndim else float(res)


def norm_logpdf(x):
    x = np.asarray(x, dtype=float)
    res = -0.5 * x * x - _LOG_SQRT_2PI
    return res if res.ndim else float(res)


def norm_logcdf(x):
    """log of the standard normal CDF, accurate deep into the lower tail.

    For x below -0.6629 the value is assembled from the scaled complement
    erfcx so no exponential underflow occurs before the logarithm. It is
    -inf at -inf, 0 at +inf and NaN at NaN.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return _at_limits(norm_logcdf, x, -np.inf, 0.0)
    out = np.empty_like(x)

    lo = x < -_ERF_THRESH * _SQRT2
    if lo.any():
        u = -x[lo] / _SQRT2
        out[lo] = -0.5 * x[lo] * x[lo] + np.log(_erfc_nonneg(u, scaled=True)) + _LOG_HALF

    hi = x > _ERF_THRESH * _SQRT2
    if hi.any():
        # Phi(x) = 1 - Phi(-x); the complement is computed directly so the
        # cancellation in 1 - eps never happens before log1p.
        tail = 0.5 * _erfc_nonneg(x[hi] / _SQRT2, scaled=False)
        out[hi] = np.log1p(-tail)

    mid = ~(lo | hi)
    if mid.any():
        out[mid] = np.log(0.5 * _erfc(-x[mid] / _SQRT2))

    return out if out.ndim else float(out)


class Family(enum.Enum):
    """Outcome component family within a (stratum, arm) cell."""

    NORMAL = "normal"
    TOBIT = "tobit"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def tobit_mean(location, scale):
    """Mean of the zero-censored tobit on the observed scale:
    eta * Phi(eta/zeta) + zeta * phi(eta/zeta)."""
    a = np.asarray(location, dtype=float) / scale
    return location * norm_cdf(a) + scale * norm_pdf(a)
