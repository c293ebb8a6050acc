"""The analytic chain at 50 digits, from the model's definition.

The package computes each stage from closed forms and identities that
keep its floats accurate; this module computes it from what the model
defines. Each stage takes its inputs, so a test chains the stages from
the parameters, or feeds one stage the package's floats (which mpmath
holds exactly), at any precision, to see that stage's own rounding.
"""

import collections
import functools
import itertools
import math

import mpmath

DPS = 50
_MP = (mpmath.mpf, mpmath.mpc)
Equilibrium = collections.namedtuple("Equilibrium", "x10 y10 x20 y20 rho1 rho2 rho3")
# dh = d + h and margin = b (c + g) - (d + h): Routh-Hurwitz at tau = 0
Chars = collections.namedtuple("Chars", "b c d g h l1 l2 l3 dh margin")
# W20 and W11 as (value, delayed value) pairs
NormalForm = collections.namedtuple(
    "NormalForm", "w g20 g11 g02 g21 C1 E1 E2 W20 W11 mu2 beta2 T2 mu2_implicit T2_implicit")


def _precise(fn):
    """fn at DPS digits, or at the caller's precision where that is higher."""
    @functools.wraps(fn)
    def call(*args):
        with mpmath.workdps(max(DPS, mpmath.mp.dps)):
            return fn(*args)
    return call


class Sized:
    """A value v, the sum m of the moduli of the terms that formed it, and
    a first-order bound s, in units of u = 2^-53, on how far a float
    evaluation of the same chain from exact inputs (s = 0) can lie from v:
    each operation adds m, for its own rounding, to the error that its
    operands carry into it (a running error bound: Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.3).
    """

    __slots__ = ("v", "s", "m")

    def __init__(self, v, s=0.0, m=None):
        self.v = v if type(v) in _MP else mpmath.mpmathify(v)
        self.s, self.m = s, _mag(self.v) if m is None else m

    def __add__(self, o):
        o = sized(o)
        if not (self.v and o.v):
            return o if self.v == 0 else self
        m = self.m + o.m
        return Sized(self.v + o.v, self.s + o.s + m, m)

    def __mul__(self, o):
        o = sized(o)
        if not (self.v and o.v):
            return Sized(0)
        m = self.m * o.m
        return Sized(self.v * o.v, self.m * o.s + self.s * o.m + m, m)

    def __truediv__(self, o):
        o = sized(o)
        mo = _mag(o.v) or math.ulp(0.0)
        m = self.m / mo
        return Sized(self.v / o.v, (self.s + m * o.s) / mo + m, m)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, o):
        return self + -sized(o)

    def __rsub__(self, o):
        return sized(o) - self

    def __rtruediv__(self, o):
        return sized(o) / self

    def __neg__(self):
        return Sized(-self.v, self.s, self.m)

    def conj(self):
        return Sized(mpmath.conj(self.v), self.s, self.m)

    @property
    def re(self):
        return Sized(mpmath.re(self.v), self.s, self.m)

    @property
    def im(self):
        return Sized(mpmath.im(self.v), self.s, self.m)


def _mag(z):
    return abs(float(z) if type(z) is mpmath.mpf else complex(z))


def sized(x):
    """x as a Sized; a number is an exact input."""
    return x if isinstance(x, Sized) else Sized(x)


def _expj(phi):
    """e^(i phi): an absolute error e in phi moves it by e."""
    return Sized(mpmath.expj(phi.v), phi.s + 1, 1.0)


def _imag(w):
    """i w for a real w."""
    return Sized(mpmath.mpc(0, w.v), w.s, w.m)


def _root(value_slope, lo, hi, z):
    """The root of an increasing function on [lo, hi], by Newton steps from
    z that bisect where they leave the bracket, certified by a sign change
    over a relative 2^(-3/4 prec) around it."""
    tol = mpmath.mpf(2) ** (8 - mpmath.mp.prec)
    for _ in range(1000):
        v, dv = value_slope(z)
        lo, hi = (z, hi) if v < 0 else (lo, z)
        if abs(v) <= tol * z * dv:
            break
        z -= v / dv
        if not lo < z < hi:
            z = mpmath.sqrt(lo * hi) if lo and hi > 4 * lo else (lo + hi) / 2
    width = z * mpmath.mpf(2) ** (-3 * mpmath.mp.prec // 4)
    assert value_slope(z - width)[0] < 0 < value_slope(z + width)[0], z
    return z


@_precise
def hill(x, n, a):
    """f(x) and f', f'', f''' at x > 0, from the Taylor series of f(x + t):
    with D(t) = a + (x + t)^n, whose k-th coefficient is C(n, k) x^(n - k),
    f = 1 - a/D, and 1/D's series gives f' = r d1, f''/2 = r (d2 - d1^2)
    and f'''/6 = r (d1^3 - 2 d1 d2 + d3), r = a/D(0), d_k = C(n, k) f/x^k.
    x^n can leave the float range where f and r do not, so they are
    formed directly, each good to two roundings."""
    x, a = sized(x), mpmath.mpf(a)
    xn = x.v ** n
    f, r = (Sized(v, 2 * _mag(v)) for v in (xn / (a + xn), a / (a + xn)))
    d1, d2, d3 = (math.comb(n, k) * f / xk for k, xk in ((1, x), (2, x * x), (3, x * x * x)))
    return f, r * d1, 2 * r * (d2 - d1 * d1), 6 * r * (d1 * d1 * d1 - 2 * d1 * d2 + d3)


@_precise
def y1_balance_root(p, start=None):
    """The root y10 of g(y) = a1 y + a12 y f(y)/(b2 (a2 + a21 y)) - 1/b1,
    which increases, on the a-priori bracket [1/(b1 (a1 + a12/(a2 b2))),
    1/(a1 b1)], by Newton steps from start or from where f = 1/2; and its
    condition number against g's terms, 2 x10/(y10 g'(y10))."""
    a1, a2, a12, a21, b1, b2, a = map(mpmath.mpf, p[:7])
    x10 = 1 / b1

    def value_slope(y):
        yn = y ** p.n
        f, f1 = yn / (a + yn), p.n * yn / y * a / (a + yn) ** 2
        be = a2 + a21 * y
        return (a1 * y + a12 * y * f / (b2 * be) - x10,
                a1 + a12 * (f + y * f1 - y * f * a21 / be) / (b2 * be))

    lo, hi = x10 / (a1 + a12 / (a2 * b2)), x10 / a1
    start = min(max(a ** (mpmath.mpf(1) / p.n), lo), hi) if start is None else start
    y = hi if lo == hi else _root(value_slope, lo, hi, mpmath.mpf(start))
    return y, 2 * x10 / (y * value_slope(y)[1])


@_precise
def equilibrium(p, y10):
    """x10 = 1/b1, x20 = f(y10)/b2, y20 = x20/(a2 + a21 y10), rho1..rho3."""
    y10 = sized(y10)
    f, *rho = hill(y10, p.n, p.a)
    x20 = f / p.b2
    return Equilibrium(1 / sized(p.b1), y10, x20, x20 / (p.a2 + p.a21 * y10), *rho)


@_precise
def jacobians(p, eq):
    """A = d rhs/d u(t) and B = d rhs/d u(t - tau) at eq, term by term from
    x1' = 1 - b1 x1, y1' = x1 - (a1 + a12 y2d) y1, x2' = f(y1d) - b2 x2
    and y2' = x2 - (a2 + a21 y1d) y2."""
    a1, a2, a12, a21, b1, b2 = map(sized, p[:6])
    y10, y20, rho1 = sized(eq.y10), sized(eq.y20), sized(eq.rho1)
    z, one = Sized(0), Sized(1)
    A = [[-b1, z, z, z], [one, -(a1 + a12 * y20), z, z],
         [z, z, -b2, z], [z, z, one, -(a2 + a21 * y10)]]
    B = [[z, z, z, z], [z, z, z, -a12 * y10], [z, rho1, z, z], [z, -a21 * y20, z, z]]
    return A, B


@_precise
def char_matrix(p, eq, lam, tau):
    """lambda I - A - B e^(-lambda tau) for an imaginary lambda."""
    A, B = jacobians(p, eq)
    lam = sized(lam)
    assert not mpmath.re(lam.v)
    e = _expj(-Sized(mpmath.im(lam.v), lam.s, lam.m) * tau)
    return [[(lam if i == j else 0) - A[i][j] - B[i][j] * e for j in range(4)]
            for i in range(4)]


@_precise
def char_coeffs(p, eq):
    """det(lambda I - A - B E) = (lambda + b1)(P(lambda) + Q(lambda) E^2),
    P = lambda^3 + b lambda^2 + c lambda + d and Q = g lambda + h: row 0 is
    (lambda + b1, 0, 0, 0), and the minor of rows and columns 1..3 expands
    over permutations into monomials lambda^i E^j, of which only those of
    P and Q may remain."""
    A, B = jacobians(p, eq)
    assert not any(e.v for e in A[0][1:] + B[0])
    poly = collections.defaultdict(lambda: Sized(0))
    for perm in itertools.permutations(range(1, 4)):
        terms = [((0, 0), Sized((-1) ** sum(i > j for i, j in itertools.combinations(perm, 2))))]
        for i, j in zip(range(1, 4), perm):
            entry = [((1, 0), Sized(1))] * (i == j) + [((0, 0), -A[i][j]), ((0, 1), -B[i][j])]
            terms = [((l1 + l2, e1 + e2), c1 * c2) for (l1, e1), c1 in terms
                     for (l2, e2), c2 in entry if c2.v]
        for key, c in terms:
            poly[key] += c
    one, b, c, d, g, h = (poly.pop(k, Sized(0))
                          for k in ((3, 0), (2, 0), (1, 0), (0, 0), (1, 2), (0, 2)))
    assert one.v == 1 and not any(c.v for c in poly.values()), poly
    return Chars(b, c, d, g, h, b * b - 2 * c, c * c - 2 * b * d - g * g,
                 d * d - h * h, d + h, b * (c + g) - (d + h))


@_precise
def frequency(cc):
    """omega, the square root of F(z) = z^3 + l1 z^2 + l2 z + l3's positive
    root (F increases on z > 0 for l1, l2 >= 0), or None. Its bound is
    Horner's for F at the root over F'(z), halved by the square root."""
    l1, l2, l3 = map(sized, (cc.l1, cc.l2, cc.l3))
    if not l3.v < 0:
        return None

    def value_slope(z):
        return ((z + l1.v) * z + l2.v) * z + l3.v, (3 * z + 2 * l1.v) * z + l2.v

    top = min(mpmath.cbrt(-l3.v), -l3.v / l2.v if l2.v > 0 else mpmath.inf)
    z = _root(value_slope, mpmath.mpf(0), 2 * top, top)
    omega = mpmath.sqrt(z)
    F = ((Sized(z) + l1) * z + l2) * z + l3
    return Sized(omega, float(F.s / value_slope(z)[1] / (2 * omega) + omega))


@_precise
def ladder(omega, cc, k_max):
    """The positive delays (arg G + 2 pi k)/(2 omega), k = 0..k_max, at
    which e^(-2 i omega tau) = G = -Q/P at i omega, arg G in [0, 2 pi).
    arg G's absolute error is G's relative one."""
    w = sized(omega)
    b, c, d, g, h = (sized(getattr(cc, k)) for k in "bcdgh")
    G = -(g * _imag(w) + h) / (((_imag(w) + b) * _imag(w) + c) * _imag(w) + d)
    arg = mpmath.arg(G.v) % (2 * mpmath.pi)
    arg = Sized(arg, G.s / _mag(G.v) + float(arg))
    taus = ((arg + 2 * mpmath.pi * k) / (2 * w) for k in range(k_max + 1))
    return [t for t in taus if t.v > 0]


@_precise
def transversality(omega, tau, cc):
    """dlambda/dtau = -Delta_tau/Delta_lambda at i omega for
    Delta = P + Q E^2, and (its L1/L2 form, L1, L2), the report's
    trigonometric formula term for term."""
    w, t = sized(omega), sized(tau)
    b, c, g, h = (sized(getattr(cc, k)) for k in "bcgh")
    lam, E2 = _imag(w), _expj(-2 * w * t)
    Q = g * lam + h
    dl = 2 * lam * Q * E2 / ((3 * lam + 2 * b) * lam + c + (g - 2 * t * Q) * E2)
    co, si, cw = E2.re, -E2.im, c - 3 * w * w
    L1 = cw * co - 2 * b * w * si - 2 * g * t + h
    L2 = cw * si + 2 * b * w * co - 2 * h * w * t
    re = 2 * (w * g * L2 + w * w * h * L1) / (L1 * L1 + L2 * L2)
    im = 2 * (w * g * L1 + w * w * h * L2) / (L1 * L1 + L2 * L2)
    return dl, (Sized(mpmath.mpc(re.v, im.v), re.s + im.s), L1, L2)


def det(M):
    """Laplace expansion along the first row, skipping its zero entries."""
    if len(M) == 1:
        return M[0][0]
    terms = [(-x if j % 2 else x) * det([r[:j] + r[j + 1:] for r in M[1:]])
             for j, x in enumerate(M[0]) if x.v]
    return sum(terms[1:], terms[0]) if terms else Sized(0)


def _cofactor(M, i, j):
    c = det([r[:j] + r[j + 1:] for k, r in enumerate(M) if k != i])
    return -c if (i + j) % 2 else c


@_precise
def solve(M, rhs):
    """M^-1 rhs by Cramer's rule."""
    d = det(M)
    return [det([r[:i] + [sized(f)] + r[i + 1:] for r, f in zip(M, rhs)]) / d
            for i in range(4)]


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Sized(0))


@_precise
def normal_form(p, eq, omega, tau, dlambda_dtau, dlambda_dtau_closed):
    """The Hopf normal form at the crossing (omega, tau).

    adj(M) of M = Delta(i omega) is c v w for a singular M: its row 2, the
    cofactors C[k][2], is a null row wh, and its column k the null vector,
    scaled to v[2] = 1, with k at wh's largest entry. w = wh/eta with the
    pairing eta = wh (I + tau B e^(-i omega tau)) v, q = (v, v e^(-i omega tau)),
    qb its conjugate. B2 and C3 are the rhs's second and third derivative
    forms on (value, delayed value) pairs: only a12 y2d y1, f(y1d) and
    a21 y1d y2 are not linear. E1 = Delta(0)^-1 B2(q, qb),
    E2 = Delta(2 i omega)^-1 B2(q, q), the centre-manifold coefficients
    W20 = E2 e^(2 i omega theta) + (i g20/omega) q + (i conj(g02)/(3 omega)) qb
    and W11 = E1 - (i g11/omega) q + (i conj(g11)/omega) qb, and
    g21 = w [C3(q, q, qb) + 2 B2(q, W11) + B2(qb, W20)]. C1 is
    w [C3(q, q, qb) + B2(qb, E2 e^(2 i omega theta)) + 2 B2(q, E1)]/2
    (Kuznetsov, Elements of Applied Bifurcation Theory, 3rd ed., 2004,
    section 8.7), which equals (i/(2 omega))(g20 g11 - 2|g11|^2 -
    |g02|^2/3) + g21/2 and has none of its cancellation.
    """
    B = jacobians(p, eq)[1]
    a12, a21, rho2, rho3 = map(sized, (p.a12, p.a21, eq.rho2, eq.rho3))
    w, t, z = sized(omega), sized(tau), Sized(0)

    def B2(u, v):
        (u0, ud), (v0, vd) = u, v
        return [z, -a12 * (u0[1] * vd[3] + v0[1] * ud[3]), rho2 * ud[1] * vd[1],
                -a21 * (ud[1] * v0[3] + vd[1] * u0[3])]

    M = char_matrix(p, eq, _imag(w), t)
    wh = [_cofactor(M, k, 2) for k in range(4)]
    k = max(range(4), key=lambda k: _mag(wh[k].v))
    v = [_cofactor(M, k, j) / wh[k] if j != 2 else Sized(1) for j in range(4)]
    e = _expj(-w * t)
    eta = _dot(wh, v) + t * e * _dot(wh, [_dot(row, v) for row in B])
    wn = [x / eta for x in wh]
    q = v, [x * e for x in v]
    qb = [x.conj() for x in q[0]], [x.conj() for x in q[1]]
    g20, g11, g02 = (_dot(wn, B2(x, y)) for x, y in ((q, q), (q, qb), (qb, qb)))
    E1 = solve(char_matrix(p, eq, 0, t), B2(q, qb))
    E2 = solve(char_matrix(p, eq, 2 * _imag(w), t), B2(q, q))
    i_w = Sized(mpmath.mpc(0, 1)) / w

    def W(E, e, cq, cqb):
        return ([x + cq * a + cqb * b for x, a, b in zip(E, q[0], qb[0])],
                [x * e + cq * a + cqb * b for x, a, b in zip(E, q[1], qb[1])])
    W20 = W(E2, e * e, i_w * g20, i_w * g02.conj() / 3)
    W11 = W(E1, Sized(1), -i_w * g11, i_w * g11.conj())
    C3 = rho3 * q[1][1] * q[1][1] * qb[1][1]
    g21 = _dot(wn, [x + 2 * y for x, y in zip(B2(qb, W20), B2(q, W11))]) + wn[2] * C3
    C1 = (_dot(wn, [x + 2 * y for x, y in zip(B2(qb, (E2, [x * e * e for x in E2])),
                                               B2(q, (E1, E1)))]) + wn[2] * C3) / 2

    def route(dl):
        dl = sized(dl)
        mu2 = -C1.re / dl.re
        return mu2, -(C1.im + mu2 * dl.im) / w
    (mu2, T2), (mu2_i, T2_i) = route(dlambda_dtau_closed), route(dlambda_dtau)
    return NormalForm(wn, g20, g11, g02, g21, C1, E1, E2, W20, W11, mu2, 2 * C1.re,
                      T2, mu2_i, T2_i)
