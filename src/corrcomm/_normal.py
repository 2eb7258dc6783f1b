"""The unit normal's CDF, its log and its inverse, in numpy alone.

With t = x / sqrt(2), Phi(x) = erfc(-t) / 2, and for s >= 0
erfc(s) = exp(-s^2) erfcx(s), where erfcx(s) = exp(s^2) erfc(s) falls
smoothly from 1 to 0 like 1 / (s sqrt(pi)). Only erfcx is approximated
(within 3e-16 relative); ``exp(-t * t)`` carries the rounding of t * t,
about t^2 * 2^-53 relative, as scipy.special's ``ndtr`` and ``log_ndtr``
do. For x < 0, log Phi(x) = log(erfcx(-t) / 2) - t^2, which never
underflows; for x >= 0 it is log1p(-erfc(t) / 2). ``ndtri`` is Wichura's
AS241 (Applied Statistics 37, 1988), the algorithm of CPython's
``statistics.NormalDist.inv_cdf``, to about 1e-16 relative.

Each branch runs only on the entries that take it. numpy's cost per call
dominates arrays of a few thousand entries, so the kernels keep the count
of array operations low rather than the arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "log_ndtr", "ndtri"]

_SQRT1_2 = math.sqrt(0.5)
_ISQRTPI = 1.0 / math.sqrt(math.pi)

# erfcx on [0, 2) in eight rows of width 1/4: row i is a polynomial in
# u = 4 s - i - 1/2, |u| <= 1/2, lowest power first. Each is the degree-11
# least-squares fit, weighted by 1 / erfcx, to 40-digit values of
# erfcx((i + 1/2 + u) / 4) at 45 Chebyshev points of |u| <= 0.51; with the
# rounding of their evaluation they stay within 2e-16 relative.
_ERFCX_TABLE = np.array([
    (0.8732218450821508, -0.22751842645624373, 0.047466414490878676, -0.008491050800449174,
     0.001350652783998968, -0.00019539311022869683, 2.61032561486379e-05, -3.256097805199808e-06,
     3.8241486356768456e-07, -4.256778393345118e-08, 4.549208403525288e-09, -4.6010883496244425e-10),
    (0.6858572331012929, -0.15349656056738573, 0.02847577451563896, -0.004615954116413411,
     0.0006734951043812903, -9.01427864995225e-05, 1.1214186349544173e-05, -1.3093126140947528e-06,
     1.44531531735386e-07, -1.517370872275671e-08, 1.5327942714299407e-09, -1.4711432269377088e-10),
    (0.5568138808733625, -0.10809045400095237, 0.017911734116936532, -0.0026379632795254094,
     0.00035365080993312166, -4.3845906367932616e-05, 5.084084385304336e-06, -5.559945621999377e-07,
     5.7719278892388754e-08, -5.717947114109076e-09, 5.462319316409734e-10, -4.976031703209691e-11),
    (0.464311583202669, -0.07895847412271045, 0.011747307735823963, -0.0015767873769719305,
     0.00019464224738540277, -2.238848777813601e-05, 2.4225529658636016e-06, -2.483848661487932e-07,
     2.4268502738254393e-08, -2.2700448436449923e-09, 2.0520431450108916e-10, -1.774957543516059e-11),
    (0.3956980795529959, -0.05951462202531795, 0.007992642527441593, -0.000981155443826281,
     0.00011179509469348254, -1.1951937942614702e-05, 1.2085703070172857e-06, -1.1631020758584045e-07,
     1.0705728238125839e-08, -9.463001225436177e-10, 8.100705393781479e-11, -6.656468844920692e-12),
    (0.3432958898621254, -0.04607886749366694, 0.005616382415434832, -0.0006328651753656403,
     6.673824846599596e-05, -6.645120220041127e-06, 6.289601572854235e-07, -5.688998906472581e-08,
     4.9384736009875955e-09, -4.1288921846305887e-10, 3.350005927873282e-11, -2.6167707461711534e-12),
    (0.30226120936348594, -0.03650755916604584, 0.004060129674011753, -0.00042152984520706045,
     4.1255802505036975e-05, -3.834178223092357e-06, 3.4028425354243095e-07, -2.897018912573189e-08,
     2.3746388435506097e-09, -1.8798438684253517e-10, 1.4470047875471072e-11, -1.075265050294564e-12),
    (0.2694299851646704, -0.029504180681999594, 0.0030092893781045946, -0.00028893793109229757,
     2.6320465465951636e-05, -2.288361002432963e-06, 1.9078662489008142e-07, -1.5311809348339388e-08,
     1.1866810910477218e-09, -8.905038620263037e-11, 6.509871809071196e-12, -4.605839967379238e-13),
])

# erfcx on [2, inf): s sqrt(pi) erfcx(s) = 1 + w P(w) / Q(w) in w = 1 / s^2,
# a degree-7/7 least-squares rational fit on w in (0, 1/4] to 2e-16 of
# itself, lowest power first; P is stored divided by sqrt(pi). With its
# rounding, erfcx stays within 3e-16 relative.
_FAR_NUM = tuple(c * _ISQRTPI for c in (
    -0.4999999999999999, -16.817532122327087, -204.08512041052592, -1116.493834759233,
    -2806.696778568809, -2924.703647563496, -922.1996876932183, -13.157795371434206,
))
_FAR_DEN = (1.0, 35.13506424465343, 457.12283718848124, 2800.0404342774195,
            8501.328800695168, 12350.664069684733, 7544.104932221775, 1370.1536391110967)

# AS241 (PPND16): numerator and denominator of each region, lowest power
# first. Central: |p - 1/2| <= 0.425, in r = 0.180625 - (p - 1/2)^2.
_CENTRAL_NUM = (3.3871328727963666080e+0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
                1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
                3.3430575583588128105e+4, 2.5090809287301226727e+3)
_CENTRAL_DEN = (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
                5.3941960214247511077e+3, 2.1213794301586595867e+4, 3.9307895800092710610e+4,
                2.8729085735721942674e+4, 5.2264952788528545610e+3)
# Tails, in r = sqrt(-log(min(p, 1 - p))): r <= 5 in r - 1.6, beyond in r - 5.
_NEAR_NUM = (1.42343711074968357734e+0, 4.63033784615654529590e+0, 5.76949722146069140550e+0,
             3.64784832476320460504e+0, 1.27045825245236838258e+0, 2.41780725177450611770e-1,
             2.27238449892691845833e-2, 7.74545014278341407640e-4)
_NEAR_DEN = (1.0, 2.05319162663775882187e+0, 1.67638483018380384940e+0,
             6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
             5.47593808499534494600e-4, 1.05075007164441684324e-9)
_FAR_TAIL_NUM = (6.65790464350110377720e+0, 5.46378491116411436990e+0, 1.78482653991729133580e+0,
                 2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
                 2.71155556874348757815e-5, 2.01033439929228813265e-7)
_FAR_TAIL_DEN = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
                 1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
                 1.42151175831644588870e-7, 2.04426310338993978564e-15)


def _poly(coeffs, x: np.ndarray) -> np.ndarray:
    """sum(coeffs[j] * x**j) by Horner's rule, in place on one new array
    (temporaries per step cost up to 3x as much on long arrays)."""
    acc = x * coeffs[-1]
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _split(cond: np.ndarray, args: tuple, then, otherwise) -> np.ndarray:
    """then(*args) where cond holds and otherwise(*args) elsewhere, each
    evaluated only on its own entries, and not at all when it has none.

    Entries are picked by integer index: numpy's boolean gather and scatter
    take several times as long on a mixed mask.
    """
    count = np.count_nonzero(cond)
    if count == cond.size:
        return then(*args)
    if count == 0:
        return otherwise(*args)
    out = np.empty_like(args[0])
    for idx, f in ((np.flatnonzero(cond), then), (np.flatnonzero(~cond), otherwise)):
        out[idx] = f(*(a[idx] for a in args))
    return out


def _erfcx_near(s):
    v = s * 4.0
    row = v.astype(np.intp)
    return _poly(np.take(_ERFCX_TABLE, row, axis=0).T, (v - row) - 0.5)


def _erfcx_far(s):
    r = 1.0 / s
    w = r * r
    return (_ISQRTPI + w * (_poly(_FAR_NUM, w) / _poly(_FAR_DEN, w))) * r


def _erfcx(s: np.ndarray) -> np.ndarray:
    """exp(s^2) erfc(s) for a 1-d array of s >= 0 (nan stays nan)."""
    return _split(s < 2.0, (s,), _erfcx_near, _erfcx_far)


def _upper_tail(t: np.ndarray, ex: np.ndarray) -> np.ndarray:
    """erfc(|t|) / 2 = exp(-t^2) erfcx(|t|) / 2, given ex = erfcx(|t|)."""
    t = np.clip(t, -40.0, 40.0)  # exp(-t^2) is 0 long before t * t overflows
    return np.exp(-t * t) * (0.5 * ex)


def ndtr(x):
    """Phi(x), the unit normal CDF, elementwise."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    t = flat * _SQRT1_2
    tail = _upper_tail(t, _erfcx(np.abs(t)))
    return np.where(flat < 0.0, tail, 1.0 - tail).reshape(x.shape)[()]


def log_ndtr(x):
    """log Phi(x), elementwise; finite wherever Phi(x) > 0 in exact arithmetic."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    t = flat * _SQRT1_2
    args = (t, _erfcx(np.abs(t)))
    return _split(flat < 0.0, args, _log_ndtr_below, _log_ndtr_above).reshape(x.shape)[()]


def _log_ndtr_below(t, ex):  # x < 0, so ex = erfcx(-t)
    # below x = -1.9e154, t * t overflows (and at -inf erfcx is 0): log Phi
    # is -inf there, as it should be
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(0.5 * ex) - t * t


def _log_ndtr_above(t, ex):
    return np.log1p(-_upper_tail(t, ex))


def ndtri(p):
    """Phi^-1(p), elementwise: -inf at 0, inf at 1, nan outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    q = flat - 0.5
    out = _split(np.abs(q) <= 0.425, (q, flat), _ndtri_central, _ndtri_tail)
    return out.reshape(p.shape)[()]


def _ndtri_central(q, p):
    r = 0.180625 - q * q
    return q * _poly(_CENTRAL_NUM, r) / _poly(_CENTRAL_DEN, r)


def _ndtri_tail(q, p):
    with np.errstate(divide="ignore", invalid="ignore"):  # p in {0, 1} or outside
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    return np.copysign(_split(r <= 5.0, (r,), _ndtri_near, _ndtri_far), q)


def _ndtri_near(r):
    r = r - 1.6
    return _poly(_NEAR_NUM, r) / _poly(_NEAR_DEN, r)


def _ndtri_far(r):
    r = r - 5.0
    with np.errstate(invalid="ignore"):  # inf / inf at p = 0 or 1
        x = _poly(_FAR_TAIL_NUM, r) / _poly(_FAR_TAIL_DEN, r)
    return np.where(r == np.inf, np.inf, x)
