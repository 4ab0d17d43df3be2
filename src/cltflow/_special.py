"""Special functions in numpy: the normal quantile, the heavy-cubic cf and P(j + 1, u).

* ``InverseNormal`` computes Phi^-1(u) by Wichura's algorithm AS241
  (PPND16, Applied Statistics 37, 1988): a rational function of degree 7/7
  in r = 0.180625 - q^2, q = u - 1/2, for |q| <= 0.425, and beyond it in
  r = sqrt(-log min(u, 1 - u)) - 1.6 up to r = 5 and in r - 5 above.  Its
  relative error is about 1e-16.  The buffers for a block of uniforms are
  allocated once for the block's size.

* ``heavy_cubic_cf`` gives the cf of the law with density |x|^-4 / (2 sqrt 3)
  for |x| >= 1/sqrt 3 at t = |xi| / sqrt 3, phi(t) = 3 int_1^inf
  cos(t v) v^-4 dv.  With the auxiliary functions f and g of the sine
  integral (Abramowitz & Stegun 5.2.6-7), pi/2 - Si(t) = f cos t + g sin t
  and

      phi(t) = cos t (1 - t^2/2 + t^3 f / 2) + sin t (t^3 g / 2 - t / 2).

  Below t = 2 the deviation is the power series
  phi(t) - 1 = (pi/4) t^3 + sum_{k=1}^{11} e_k t^(2k) (see _series_coef),
  whose terms keep the error relative to phi - 1 under 1e-15.  From t = 2
  on, the t^2 and t terms cancel analytically: with
  t f = 1 - 2/t^2 + 24 R_F / t^4 and t^2 g = 1 - 6/t^2 + 120 R_G / t^4,

      phi(t) = 12 R_F cos t / t^2 - 3 sin t / t + 60 R_G sin t / t^3,

  where R_F and R_G tend to 1.  On each piece of _FG_PIECES they are
  polynomials in s = (y - y_mid) / y_half in [-1, 1], y = 1/t^2, fitted
  with mpmath.chebyfit to within 1e-16.  Against 80-digit mpmath the value
  errs by under 3 epsilons relative to max(|phi|, 1/t) from t = 2 on, and
  by under 1.5e-15 absolute below.

* ``gammainc_int`` is the regularized lower incomplete gamma P(j + 1, u) at
  integer order, 1 - e^-u sum_{i <= j} u^i / i!, or the tail series
  e^-u sum_{i > j} u^i / i! where that difference would cancel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["InverseNormal", "heavy_cubic_cf", "gammainc_int"]

# AS241 PPND16, highest power first; each denominator ends in 1
_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_C = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_D = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)

# R_F and R_G on t_lo <= t < the next t_lo: (t_lo, y_mid, y_half, rows),
# rows[j] = (F_j, G_j), the coefficients of s^(n - j)
_FG_PIECES = (
    (2.0, 0.1875, 0.06250000000000001, (
        (2.606925608083157e-11, 3.787155267308627e-11),
        (-8.791271897885413e-11, -1.2591658273312642e-10),
        (1.737318918296107e-10, 2.400010844597062e-10),
        (-5.936274248832244e-10, -8.065847427220992e-10),
        (2.285804559448411e-09, 3.0808761778158227e-09),
        (-7.870089377448433e-09, -1.041458586040229e-08),
        (2.6981177463980785e-08, 3.4969337510401254e-08),
        (-9.40573872137841e-08, -1.193622937748309e-07),
        (3.3043888876402645e-07, 4.099480608585338e-07),
        (-1.1698134288012375e-06, -1.415884242811815e-06),
        (4.180678884299914e-06, 4.9250878262139895e-06),
        (-1.5107371643906018e-05, -1.7273492433814854e-05),
        (5.531475332129559e-05, 6.11681996943976e-05),
        (-0.00020579049649450587, -0.0002191052659371943),
        (0.0007810158345911724, 0.0007958981945252452),
        (-0.0030414988532743476, -0.002942421471142187),
        (0.012267380249285368, 0.011131888576804706),
        (-0.05209266771119872, -0.04348802219739377),
        (0.24094273689221476, 0.17843153563877698),
    )),
    (2.8284271247461903, 0.09374999999999999, 0.031249999999999993, (
        (0.0, 1.6363695189979834e-11),
        (-3.270156228521796e-11, -5.6575587897040415e-11),
        (1.154509282592011e-10, 1.1872702238521154e-10),
        (-2.6275347071899185e-10, -4.1666485136235745e-10),
        (9.449461605214766e-10, 1.6258844618915844e-09),
        (-3.699439371811633e-09, -5.758577920432209e-09),
        (1.3479801964940395e-08, 2.036120900047308e-08),
        (-4.9284149165593556e-08, -7.315450821455647e-08),
        (1.8312485064208354e-07, 2.651328013831768e-07),
        (-6.886136337156405e-07, -9.69569900166839e-07),
        (2.6240593187215328e-06, 3.5840033447938e-06),
        (-1.0159451224775511e-05, -1.3415098798680603e-05),
        (4.0087797896831984e-05, 5.095912578272272e-05),
        (-0.00016188948141878553, -0.00019703627699498477),
        (0.0006730783826296343, 0.000778666906048028),
        (-0.0029066578549705887, -0.003163871045768143),
        (0.013223739571521582, 0.013338762950853683),
        (-0.06499167325843783, -0.05925136759013387),
        (0.36353871963133866, 0.28554871172121316),
    )),
    (4.0, 0.046875, 0.015625000000000003, (
        (-7.520518665813936e-12, -1.5146664732988167e-11),
        (2.8035368951203653e-11, 5.546542980992729e-11),
        (-7.149456385844056e-11, -1.3633229948792985e-10),
        (2.7305952096896373e-10, 5.099636557744345e-10),
        (-1.1169911259880344e-09, -2.052053217940647e-09),
        (4.3476390338471795e-09, 7.799312897139604e-09),
        (-1.7072147308841473e-08, -2.983154197308489e-08),
        (6.827392367366511e-08, 1.1601094487930232e-07),
        (-2.775766119763272e-07, -4.574434713218724e-07),
        (1.1499703397695717e-06, 1.8320507510817664e-06),
        (-4.8718506173657605e-06, -7.473350861888497e-06),
        (2.1200180337127854e-05, 3.115706732397627e-05),
        (-9.533577289773462e-05, -0.00013336601533449411),
        (0.00044687056561413944, 0.0005898488332824809),
        (-0.00221162005399354, -0.0027205854041585636),
        (0.011798308581834553, 0.013275123252922372),
        (-0.07037405709081271, -0.07020773933072885),
        (0.5059681474387882, 0.4215192789298129),
    )),
    (5.656854249492381, 0.023437499999999997, 0.007812499999999998, (
        (3.68480972228966e-12, 8.677158317491699e-12),
        (-1.4904525019522664e-11, -3.438021595904494e-11),
        (4.534853299061165e-11, 1.0078268317766089e-10),
        (-1.8970498571316804e-10, -4.115295832127721e-10),
        (8.332926828146554e-10, 1.76780539988583e-09),
        (-3.5941458781517177e-09, -7.4128485520700464e-09),
        (1.578333404920052e-08, 3.15572250770377e-08),
        (-7.101361717326655e-08, -1.37259901840996e-07),
        (3.2799517368611727e-07, 6.105965901169426e-07),
        (-1.5623990183482344e-06, -2.788363623730103e-06),
        (7.724166540068975e-06, 1.313802291009091e-05),
        (-3.9971900064247675e-05, -6.430170090966788e-05),
        (0.00021916336485152947, 0.00032999334726930765),
        (-0.0012964696878266261, -0.001800249161947409),
        (0.008517581472789328, 0.010664355774886121),
        (-0.0653818873020098, -0.07109244668811895),
        (0.6488970827089351, 0.5704388179465231),
    )),
    (8.0, 0.01171875, 0.003906250000000001, (
        (0.0, -2.9031652728322837e-12),
        (4.7351354322839264e-12, 1.2820443389885977e-11),
        (-2.1821455374565633e-11, -4.592860585086151e-11),
        (8.485948203354563e-11, 2.1168946626646952e-10),
        (-4.1185879681649325e-10, -1.0151739130558742e-09),
        (2.0794607896613715e-09, 4.884691496641851e-09),
        (-1.0672629061560333e-08, -2.4131775097984737e-08),
        (5.674241060228632e-08, 1.2310129685820544e-07),
        (-3.147900656106963e-07, -6.514782012573806e-07),
        (1.8372192489160309e-06, 3.6022937534454545e-06),
        (-1.1413196774647763e-05, -2.1011611187331383e-05),
        (7.672863040829565e-05, 0.00013101526068623012),
        (-0.0005721226208046286, -0.0008903723398510412),
        (0.004918672228659249, 0.006793968576563645),
        (-0.05210188381796847, -0.06113782399637283),
        (0.7720503110173816, 0.7095280504358206),
    )),
    (11.313708498984761, 0.005859374999999999, 0.0019531249999999996, (
        (-9.086028871514235e-13, -2.7824414695454172e-12),
        (4.932579576161795e-12, 1.4641728555473537e-11),
        (-2.4438751740444083e-11, -6.950263737766832e-11),
        (1.4293034558059526e-10, 3.914915105401782e-10),
        (-8.753740053313299e-10, -2.30173175844012e-09),
        (5.591891691495784e-09, 1.4032486879608495e-08),
        (-3.7799548392218516e-08, -8.996149116310812e-08),
        (2.7355591852340033e-07, 6.125736456698184e-07),
        (-2.152548567660144e-06, -4.488041677862275e-06),
        (1.882264510343369e-05, 3.602358591929996e-05),
        (-0.00018883545931720983, -0.0003250893141586254),
        (0.002283108464189899, 0.0034297875819956462),
        (-0.036082343279035346, -0.0450358202765888),
        (0.8637045131213104, 0.8204057011864679),
    )),
    (16.0, 0.00244140625, 0.00146484375, (
        (0.0, -4.091413798183767e-12),
        (3.503040407505783e-12, 1.3948437599324081e-11),
        (-1.2761574099288572e-11, -3.2740504708876694e-11),
        (3.520108077164983e-11, 1.2341611817896967e-10),
        (-1.4348094506165019e-10, -5.112357844381483e-10),
        (6.348646653268435e-10, 2.0841804601894476e-09),
        (-2.867084726149847e-09, -8.94426564672766e-09),
        (1.3847315258390742e-08, 4.097998003052061e-08),
        (-7.257885493770247e-08, -2.0195139303929016e-07),
        (4.1877238398217594e-07, 1.0851172036432826e-06),
        (-2.7162496385007043e-06, -6.473658682103197e-06),
        (2.038383326330099e-05, 4.3943802162928397e-05),
        (-0.00018434864633634364, -0.0003512101332874602),
        (0.002134249065067667, 0.0034729510243855593),
        (-0.03476281107667106, -0.04582227008724833),
        (0.935074978896696, 0.9118997715122491),
    )),
    (32.0, 0.00048828125, 0.00048828125, (
        (0.0, 3.08206416678955e-13),
        (-3.1773552051735297e-13, -1.454289323025104e-12),
        (1.7347193132522999e-12, 6.4764213239960826e-12),
        (-9.55045667998721e-12, -3.7649285590575836e-11),
        (6.637537870872124e-11, 2.451529347047808e-10),
        (-5.285271179649193e-10, -1.7954087956936565e-09),
        (4.905793774272558e-09, 1.5199502918065432e-08),
        (-5.4762459050910295e-08, -1.5251370397376252e-07),
        (7.622806875385031e-07, 1.872404927403116e-06),
        (-1.3883853819194766e-05, -2.932482926568526e-05),
        (0.00035368335873722995, 0.0006199694211404782),
        (-0.013896062513764875, -0.01917154083228262),
        (0.9857355477182329, 0.980177122712727),
    )),
)


def _horner(coefs, x, out):
    """sum_k coefs[k] x^(n - k), n = len(coefs) - 1, by Horner's rule into out."""
    np.multiply(coefs[0], x, out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


class InverseNormal:
    """Phi^-1(u) by AS241 for blocks of at most size uniforms in (0, 1).

    A call writes Phi^-1(u) into out and leaves u as it is.  The central
    rational function is evaluated on the whole block, and the tail ones
    overwrite it where |u - 1/2| > 0.425 (r < 0), about 15% of the draws.
    The central denominator has no zero for r >= 0.180625 - 1/4 (its
    largest real zero is near -0.0729), so the unused values it gives
    there stay finite.
    """

    def __init__(self, size: int):
        self._q = np.empty(size)
        self._r = np.empty(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self._tail = np.empty(size, dtype=bool)

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = u.size
        q, r, num, den = self._q[:n], self._r[:n], self._num[:n], self._den[:n]
        np.subtract(u, 0.5, out=q)
        np.multiply(q, q, out=r)
        np.subtract(0.180625, r, out=r)
        _horner(_A, r, num)
        _horner(_B, r, den)
        np.multiply(q, num, out=out)
        out /= den
        idx = np.flatnonzero(np.less(r, 0.0, out=self._tail[:n]))
        k = idx.size
        if k:
            r, v, w = r[:k], num[:k], den[:k]
            np.take(u, idx, out=r)
            np.subtract(1.0, r, out=v)
            np.minimum(r, v, out=r)  # 1 - u is exact where u > 1/2
            np.log(r, out=r)
            np.negative(r, out=r)
            np.sqrt(r, out=r)
            far = np.flatnonzero(r > 5.0)  # u or 1 - u below about 1.4e-11
            rf = r[far] - 5.0
            r -= 1.6
            _horner(_C, r, v)
            _horner(_D, r, w)
            v /= w
            if far.size:
                v[far] = _horner(_E, rf, np.empty_like(rf)) / _horner(_F, rf, np.empty_like(rf))
            np.copysign(v, np.take(q, idx, out=w), out=v)
            out[idx] = v
        return out


def _series_coef(k: int) -> float:
    """e_k: the t^(2k) coefficient of phi(t) - 1 - (pi/4) t^3.

    cos t - 1, -t sin t / 2 and -t^2 cos t / 2 give (-1)^k (1/(2k)! +
    1/(2 (2k-1)!) + 1/(2 (2k-2)!)), and -t^3 Si(t) / 2 adds
    -(-1)^k / (2 (2k-3) (2k-3)!) from k = 2 on; the sum is formed over a
    common denominator in integers and rounded once.
    """
    num, den = 2 + 2 * k + 2 * k * (2 * k - 1), 2 * math.factorial(2 * k)
    if k >= 2:
        num = num * (2 * k - 3) - 2 * k * (2 * k - 1) * (2 * k - 2)
        den *= 2 * k - 3
    return (-1) ** k * num / den


# e_11 ... e_1: through t^22 the series errs by under 4e-18 for t < 2
_SERIES = tuple(_series_coef(k) for k in range(11, 0, -1))
_SERIES_TOP = 2.0
_T_LO = np.array([piece[0] for piece in _FG_PIECES])
# per piece: its centre and 1 / half-width in y, and the Horner rows of R_F and R_G
_FG = tuple(
    (mid, 1.0 / half, tuple(r[0] for r in rows), tuple(r[1] for r in rows))
    for _, mid, half, rows in _FG_PIECES
)


def _series_dev(t: np.ndarray) -> np.ndarray:
    """phi(t) - 1 for 0 <= t < 2 from the power series."""
    u = t * t
    out = _horner(_SERIES, u, np.empty_like(t))
    out *= u
    u *= t
    u *= 0.25 * math.pi
    out += u
    return out


def _fg_value(t: np.ndarray) -> np.ndarray:
    """phi(t) for t >= 2 from the fitted remainders R_F and R_G."""
    piece = np.searchsorted(_T_LO, t, side="right") - 1
    inv = 1.0 / t
    y = inv * inv  # underflows to 0 harmlessly for t above 1e154
    rf, rg = np.empty_like(t), np.empty_like(t)
    for i, (mid, scale, f_rows, g_rows) in enumerate(_FG):
        at = piece == i
        if at.any():
            s = y[at]
            s -= mid
            s *= scale
            rf[at] = _horner(f_rows, s, np.empty_like(s))
            rg[at] = _horner(g_rows, s, np.empty_like(s))
    c, sn = np.cos(t), np.sin(t)
    return inv * (-3.0 * sn + inv * (12.0 * rf * c + 60.0 * rg * sn * inv))


def heavy_cubic_cf(t: np.ndarray, minus: float) -> np.ndarray:
    """phi(t) - minus for the heavy-cubic law at t = |xi| / sqrt 3 >= 0.

    minus = 1 gives the deviation, minus = 0 the value.
    """
    out = np.empty(t.shape)
    small = t < _SERIES_TOP
    out[small] = _series_dev(t[small]) + (1.0 - minus)
    big = ~small
    if big.any():
        out[big] = _fg_value(t[big]) - minus
    return out


def gammainc_int(j: int, u: float) -> float:
    """The regularized lower incomplete gamma P(j + 1, u), integer j >= 0, u >= 0.

    The terms e^-u u^i / i! are Poisson probabilities, formed by products
    from e^-u, so none overflows.  Up to u = j + 1, P is the tail sum over
    i > j, a series of positive terms whose ratios u / i stay below 1;
    beyond, it is 1 minus the head sum over i <= j, which is below 1/2
    there, so neither form cancels.
    """
    term = math.exp(-u)
    head = [term]
    for i in range(1, j + 1):
        term *= u / i
        head.append(term)
    if u > j + 1:
        return 1.0 - math.fsum(head)
    tail = []
    i = j + 1
    term *= u / i
    while term > 0.0 and (not tail or term > 1e-17 * tail[0]):
        tail.append(term)
        i += 1
        term *= u / i
    return math.fsum(tail)
