"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Every scalar in this package is a Cyclo: the element
sum_e (num[e] / den) * zeta_n^e of Q(zeta_n), where num holds exactly
deg = phi(n) ints, one per exponent 0 <= e < deg, and den is a positive
int with gcd(den, *num) = 1; zero is all zeros over den = 1.  Reducing
mod the n-th cyclotomic polynomial Phi_n (rather than mod x^n - 1) and
normalizing the denominator make the form canonical, so equality is a
comparison of a tuple and an int and exact Gauss-sum identities can be
tested with ==.  The read-only view ``c`` gives the same value as a
sparse {exponent: Fraction} map of the nonzero terms.  ``mul_nums`` is
the one multiplication mod Phi_n, of numerator tuples: ``Cyclo.__mul__``
calls it, and the evaluator's fold computes in Z[zeta_n] with it and
``add_nums_into``, building no Cyclo until the bracket.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending order, monic.

    Peels the smallest prime p off n = p*m: Phi_n(x) = Phi_m(x^p) when p
    divides m, and Phi_m(x^p) / Phi_m(x) when it does not.
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    if n == 1:
        return (-1, 1)
    p = _smallest_prime_factor(n)
    m = n // p
    inner = cyclotomic_polynomial(m)
    stretched = [0] * (p * (len(inner) - 1) + 1)
    stretched[::p] = inner
    if m % p == 0:
        return tuple(stretched)
    quot, rem = _poly_divmod(stretched, inner)
    if any(rem):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(quot)


@lru_cache(maxsize=None)
def _reduction_rows(n: int):
    """(deg, rows): rows[e] holds the nonzero (j, coefficient) pairs of
    x^e mod Phi_n, for 0 <= e < n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    low = [(j, -c) for j, c in enumerate(phi[:deg]) if c]  # x^deg mod Phi_n
    rows = [((e, 1),) for e in range(deg)]
    cur = dict(low)
    for _ in range(deg, n):
        rows.append(tuple(cur.items()))
        lead = cur.pop(deg - 1, 0)
        cur = {j + 1: r for j, r in cur.items()}
        for j, c in low:
            v = cur.get(j, 0) + lead * c
            if v:
                cur[j] = v
            else:
                cur.pop(j, None)
    return deg, rows


def _fold(n: int, terms) -> list:
    """The deg ints of sum v * x^e mod Phi_n over int pairs (e, v)."""
    deg, rows = _reduction_rows(n)
    out = [0] * deg
    for e, v in terms:
        if v:
            for j, r in rows[e % n]:
                out[j] += v * r
    return out


def mul_nums(n: int, an: tuple, bn: tuple) -> tuple:
    """The deg ints of (sum an[e] x^e)(sum bn[e] x^e) mod Phi_n: the one
    multiplication of numerators, shared by ``Cyclo.__mul__`` and the
    fold in ``evaluate``.  A rational operand (every one when deg = 1)
    only scales the other."""
    if not any(bn[1:]):
        y = bn[0]
        return tuple([x * y for x in an])
    if not any(an[1:]):
        x = an[0]
        return tuple([x * y for y in bn])
    deg = len(an)
    raw = [0] * (2 * deg - 1)
    for i, x in enumerate(an):
        if x:
            for k, y in enumerate(bn, i):
                raw[k] += x * y
    out = raw[:deg]
    rows = _reduction_rows(n)[1]
    for e in range(deg, 2 * deg - 1):
        v = raw[e]
        if v:
            for j, r in rows[e % n]:
                out[j] += v * r
    return tuple(out)


def add_nums_into(out: dict, key, v: tuple) -> None:
    """out[key] += v for numerators v (``Cyclo.num``), dropping the entry
    when the sum is zero (``algebra.add_into`` for Cyclo values)."""
    acc = out.get(key)
    if acc is None:
        out[key] = v
    elif any(w := tuple(map(add, acc, v))):
        out[key] = w
    else:
        del out[key]


def _make(n: int, num, den: int) -> "Cyclo":
    """The Cyclo num / den at conductor n, for deg ints num and den > 0;
    divides out gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
    s = object.__new__(Cyclo)
    s.n = n
    s.num = tuple(num)
    s.den = den
    return s


class Cyclo:
    """An element of Q(zeta_n) in canonical reduced form.

    Construct with a conductor and a sparse {exponent: rational} map;
    exponents are taken mod n and reduced mod Phi_n, and the value is
    stored as deg = phi(n) int numerators ``num`` over one positive
    denominator ``den`` (see the module docstring).  Mixed-conductor
    arithmetic embeds both operands into Q(zeta_lcm) first.
    """

    __slots__ = ("n", "num", "den")
    _ones: dict = {}  # conductor -> the shared one(conductor)
    _zeros: dict = {}  # conductor -> the shared zero(conductor)

    def __init__(self, n: int, coeffs: dict | None = None):
        if n < 1:
            raise ValueError("conductor must be a positive integer")
        terms = []
        den = 1
        if coeffs:
            for e, v in coeffs.items():
                if isinstance(v, float):
                    raise TypeError("floating point coefficients are not allowed")
                q = v if isinstance(v, Fraction) else Fraction(v)
                terms.append((e, q))
                den = lcm(den, q.denominator)
        s = _make(n, _fold(n, [(e, q.numerator * (den // q.denominator))
                               for e, q in terms]), den)
        self.n, self.num, self.den = n, s.num, s.den

    @property
    def c(self) -> dict:
        """The nonzero terms as a new {exponent: Fraction} map."""
        den = self.den
        return {e: Fraction(v, den) for e, v in enumerate(self.num) if v}

    @classmethod
    def rational(cls, num, den=1, conductor: int = 1) -> "Cyclo":
        q = Fraction(num, den)
        deg = len(cyclotomic_polynomial(conductor)) - 1
        return _make(conductor, (q.numerator,) + (0,) * (deg - 1), q.denominator)

    @classmethod
    def zeta(cls, n: int, e: int = 1) -> "Cyclo":
        return cls(n, {e: 1})

    @classmethod
    def zero(cls, conductor: int = 1) -> "Cyclo":
        """0 at the given conductor, one shared instance per conductor."""
        if conductor not in cls._zeros:
            cls._zeros[conductor] = cls.rational(0, conductor=conductor)
        return cls._zeros[conductor]

    @classmethod
    def one(cls, conductor: int = 1) -> "Cyclo":
        """1 at the given conductor, one shared instance per conductor (a
        Cyclo is immutable): see the unit rule in ``algebra``."""
        if conductor not in cls._ones:
            cls._ones[conductor] = cls.rational(1, conductor=conductor)
        return cls._ones[conductor]

    # -- conductor handling -------------------------------------------------

    def lift(self, n: int) -> "Cyclo":
        """Embed into Q(zeta_n); the current conductor must divide n."""
        if n == self.n:
            return self
        if n % self.n:
            raise ValueError(f"cannot embed conductor {self.n} into {n}")
        s = n // self.n
        return _make(n, _fold(n, [(e * s, v) for e, v in enumerate(self.num)]),
                     self.den)

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(other, conductor=self.n)
        return None

    def _align(self, other):
        other = self._coerce(other)
        if other is None:
            return None, None
        if self.n == other.n:
            return self, other
        n = self.n * other.n // gcd(self.n, other.n)
        return self.lift(n), other.lift(n)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is Cyclo and other.n == self.n:
            a, b = self, other
        else:
            a, b = self._align(other)
            if a is None:
                return NotImplemented
        ad, bd = a.den, b.den
        if ad == bd:
            return _make(a.n, [x + y for x, y in zip(a.num, b.num)], ad)
        return _make(a.n, [x * bd + y * ad for x, y in zip(a.num, b.num)], ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.n, [-v for v in self.num], self.den)

    def __sub__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is Cyclo and other.n == self.n:
            a, b = self, other
        else:
            a, b = self._align(other)
            if a is None:
                return NotImplemented
        return _make(a.n, mul_nums(a.n, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n, phi = self.n, [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        a = [Fraction(v, self.den) for v in self.num]
        # extended Euclid in Q[x] on the remainders; the Bezout coefficient
        # s with s*a == r1 mod Phi_n is kept as a Cyclo, reduced as it grows
        r0, s0 = phi, Cyclo.zero(n)
        r1, s1 = _trim(a), Cyclo.one(n)
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, s0 - Cyclo(n, dict(enumerate(q))) * s1
        if not r1 or not r1[0]:
            raise ZeroDivisionError("scalar not invertible mod Phi_n")
        return s1 * Cyclo.rational(1 / r1[0], conductor=n)

    def __truediv__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "Cyclo":
        """The image under zeta -> zeta^{-1} (complex conjugation)."""
        n = self.n
        return _make(n, _fold(n, [(-e % n, v) for e, v in enumerate(self.num)]),
                     self.den)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if self.is_rational():
            return Fraction(self.num[0], self.den)
        raise ValueError(f"{self} is not rational")

    def approx(self) -> complex:
        """Floating approximation, for display only."""
        return sum(
            (complex(v) * cmath.exp(2j * cmath.pi * e / self.n) for e, v in self.c.items()),
            0j,
        )

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        a, b = self._align(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    # equal values can live at different conductors, so there is no cheap
    # consistent hash; Cyclo values are not meant to be dict keys
    __hash__ = None

    def __repr__(self):
        return f"Cyclo({self.n}, {{{', '.join(f'{e}: {v}' for e, v in sorted(self.c.items()))}}})"

    def __str__(self):
        return render_scalar(self)


# ---------------------------------------------------------------------------
# parsing and rendering of scalar terms ("-1/2*zeta^3" etc.)

_TERM_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<rat>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:zeta(?:\^(?P<exp>-?\d+))?)?\s*$"
)


def parse_scalar(text: str, conductor: int) -> Cyclo:
    """Parse '+'-joined terms like '1/2', 'zeta^3', '-2/3*zeta^2'."""
    total = Cyclo.zero(conductor)
    for piece in text.split("+"):
        if not piece.strip():
            raise ValueError(f"empty term in scalar {text!r}")
        m = _TERM_RE.match(piece)
        if not m or (m.group("rat") is None and "zeta" not in piece):
            raise ValueError(f"cannot parse scalar term {piece!r}")
        try:
            q = Fraction(m.group("rat")) if m.group("rat") is not None else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar term {piece!r}") from None
        if m.group("sign") == "-":
            q = -q
        e = 0
        if "zeta" in piece:
            e = int(m.group("exp")) if m.group("exp") is not None else 1
        total = total + Cyclo(conductor, {e: q})
    return total


def render_scalar_terms(s: Cyclo) -> list[str]:
    """One canonical 'rational*zeta^e' token per stored term."""
    return [f"{v}*zeta^{e}" for e, v in sorted(s.c.items())]


def render_scalar(s: Cyclo) -> str:
    """Human-readable canonical form: 'a0 + a1*z^1 + ...'."""
    if not s.c:
        return "0"
    parts = []
    for e, v in sorted(s.c.items()):
        body = str(v) if e == 0 else (f"{v}*z^{e}" if abs(v) != 1 else f"{'-' if v < 0 else ''}z^{e}")
        parts.append(body)
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


def render_decimal(s: Cyclo) -> str:
    """Each part to 12 decimals; past the float range, each nonzero part of
    s / 10^k in scientific form, with k added to its exponent."""
    try:
        z, k = s.approx(), 0
    except OverflowError:
        z = complex("inf")
    if not cmath.isfinite(z):  # so that s / 10^k has parts of about unit size
        k = int((max(map(abs, s.num)).bit_length() - s.den.bit_length()) * 0.30103)
        z = (s * Fraction(1, 10**k)).approx()

    def part(x):
        if abs(x) < 5e-13:  # clamp, so that no part rounds to negative zero
            x = 0.0
        if not (k and x):
            return f"{x:.12f}"
        mantissa, e = f"{x:.12e}".split("e")
        return f"{mantissa}e{int(e) + k:+d}"

    if abs(z.imag) < 5e-13:
        return part(z.real)
    return f"{part(z.real)} {'+' if z.imag >= 0 else '-'} {part(abs(z.imag))}i"


# -- small Fraction-coefficient polynomial helpers (ascending lists) --------


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(num: list, den: list):
    # Long division, ascending coefficients; a monic den keeps ints ints
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    if len(num) - 1 < dn:
        return [], num
    quot = [0] * (len(num) - dn)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dn] if lead == 1 else num[k + dn] / lead
        quot[k] = c
        if c:
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    return _trim(quot), num
