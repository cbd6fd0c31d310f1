"""Exact sparse polynomial and rational-function arithmetic over Q.

Polynomials are stored as a map from exponent vectors to nonzero rational
coefficients.  There are four variable slots, always in this order:

    slot 0: x   first local parameter (or x itself at the root chart)
    slot 1: y   second local parameter
    slot 2: a   symbolic scalar parameter carried by some elements
    slot 3: t   internal symbol (fiber coordinate, residue variable)

Only x, y, a appear in the public expression grammar; slot 3 exists so the
membership machinery can keep an element parameter and a fiber coordinate
symbolic at the same time.  The monomial order used for leading terms and
canonical printing is graded lexicographic with x > y > a > t.

Everything here is exact: coefficients are `fractions.Fraction`, division
is either exact polynomial division or rational-function formation, and no
floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ComputationError

Exponents = Tuple[int, int, int, int]
Terms = Dict[Exponents, Fraction]

NVARS = 4
X, Y, A, T = 0, 1, 2, 3
VAR_NAMES = ("x", "y", "a", "t")

_ZERO_EXP: Exponents = (0, 0, 0, 0)


def _grlex_key(exps: Exponents) -> Tuple[int, Exponents]:
    return (sum(exps), exps)


class Poly:
    """A sparse polynomial in x, y, a, t with Fraction coefficients.

    Instances are treated as immutable; all operators return new objects.
    The term map never contains zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Terms] = None):
        clean: Terms = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    clean[exps] = Fraction(coeff)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value) -> "Poly":
        value = Fraction(value)
        return Poly({_ZERO_EXP: value}) if value else Poly()

    @staticmethod
    def variable(slot: int) -> "Poly":
        exps = [0, 0, 0, 0]
        exps[slot] = 1
        return Poly({tuple(exps): Fraction(1)})

    @staticmethod
    def monomial(exps: Exponents, coeff=1) -> "Poly":
        return Poly({tuple(exps): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant_term(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return self.terms.get(_ZERO_EXP, Fraction(0))

    def has_slot(self, slot: int) -> bool:
        return any(e[slot] for e in self.terms)

    def slots_present(self) -> Tuple[int, ...]:
        present = [False] * NVARS
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    present[i] = True
        return tuple(i for i in range(NVARS) if present[i])

    def degree(self, slot: int) -> int:
        """Largest exponent of the given slot; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[slot] for e in self.terms)

    def leading(self) -> Tuple[Exponents, Fraction]:
        """Leading term under graded lex with x > y > a > t."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def xy_order(self) -> int:
        """Order of vanishing at the origin of the (x, y) plane.

        The symbols a and t are unit-valued scalars, so only x and y
        exponents count.  Undefined (raises) for the zero polynomial.
        """
        if not self.terms:
            raise ValueError("order of zero undefined")
        return min(e[X] + e[Y] for e in self.terms)

    def xy_constant_part(self) -> "Poly":
        """Terms free of x and y: a polynomial in a and t alone."""
        return Poly({e: c for e, c in self.terms.items() if e[X] == 0 and e[Y] == 0})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        out = Poly()
        out.terms = terms
        return out

    def __neg__(self) -> "Poly":
        out = Poly()
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly()
        terms: Terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                acc = terms.get(exps, Fraction(0)) + c1 * c2
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        out = Poly()
        out.terms = terms
        return out

    def scale(self, value) -> "Poly":
        value = Fraction(value)
        if not value:
            return Poly()
        out = Poly()
        out.terms = {e: c * value for e, c in self.terms.items()}
        return out

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.const(1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"

    # -- division ----------------------------------------------------------

    def divmod_exact(self, divisor: "Poly") -> Optional["Poly"]:
        """Quotient self/divisor when the division is exact, else None.

        Greedy leading-term division under the fixed monomial order; for an
        exact division this always succeeds.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("zero divisor")
        if self.is_zero:
            return Poly()
        if divisor.is_constant:
            return self.scale(Fraction(1) / divisor.constant_term())
        lead_exp, lead_coeff = divisor.leading()
        quotient: Terms = {}
        rem = dict(self.terms)
        while rem:
            exps = max(rem, key=_grlex_key)
            coeff = rem[exps]
            delta = tuple(exps[i] - lead_exp[i] for i in range(NVARS))
            if any(d < 0 for d in delta):
                return None
            q = coeff / lead_coeff
            quotient[delta] = quotient.get(delta, Fraction(0)) + q
            for dexp, dcoeff in divisor.terms.items():
                tgt = (delta[0] + dexp[0], delta[1] + dexp[1],
                       delta[2] + dexp[2], delta[3] + dexp[3])
                acc = rem.get(tgt, Fraction(0)) - q * dcoeff
                if acc:
                    rem[tgt] = acc
                else:
                    rem.pop(tgt, None)
        out = Poly()
        out.terms = {e: c for e, c in quotient.items() if c}
        return out

    def shift_down(self, slot: int, power: int) -> "Poly":
        """Divide by variable(slot)**power; every term must allow it."""
        if power == 0:
            return self
        terms: Terms = {}
        for exps, coeff in self.terms.items():
            if exps[slot] < power:
                raise ValueError("monomial division not exact")
            lst = list(exps)
            lst[slot] -= power
            terms[tuple(lst)] = coeff
        out = Poly()
        out.terms = terms
        return out

    def min_exponent(self, slot: int) -> int:
        if not self.terms:
            raise ValueError("zero polynomial")
        return min(e[slot] for e in self.terms)

    # -- substitution ------------------------------------------------------

    def subst_xy(self, px: "Poly", py: "Poly") -> "Poly":
        """Substitute x -> px and y -> py; a and t pass through unchanged."""
        powers_x = _PowerCache(px)
        powers_y = _PowerCache(py)
        result = Poly()
        for exps, coeff in self.terms.items():
            term = Poly.monomial((0, 0, exps[A], exps[T]), coeff)
            term = term * powers_x[exps[X]] * powers_y[exps[Y]]
            result = result + term
        return result

    def subst_const(self, slot: int, value) -> "Poly":
        """Substitute a rational value for one slot."""
        value = Fraction(value)
        terms: Terms = {}
        for exps, coeff in self.terms.items():
            c = coeff * value ** exps[slot]
            lst = list(exps)
            lst[slot] = 0
            key = tuple(lst)
            acc = terms.get(key, Fraction(0)) + c
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        out = Poly()
        out.terms = terms
        return out

    def derivative(self, slot: int) -> "Poly":
        terms: Terms = {}
        for exps, coeff in self.terms.items():
            e = exps[slot]
            if e:
                lst = list(exps)
                lst[slot] = e - 1
                key = tuple(lst)
                terms[key] = terms.get(key, Fraction(0)) + coeff * e
        out = Poly()
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # -- structure helpers -------------------------------------------------

    def coeffs_in(self, slot: int) -> Dict[int, "Poly"]:
        """View as a polynomial in one slot with Poly coefficients."""
        out: Dict[int, Terms] = {}
        for exps, coeff in self.terms.items():
            k = exps[slot]
            lst = list(exps)
            lst[slot] = 0
            out.setdefault(k, {})[tuple(lst)] = coeff
        result: Dict[int, Poly] = {}
        for k, terms in out.items():
            p = Poly()
            p.terms = terms
            result[k] = p
        return result

    def as_univariate(self, slot: int) -> List[Fraction]:
        """Dense coefficient list [c0, c1, ...] when only `slot` occurs."""
        for i in range(NVARS):
            if i != slot and self.has_slot(i):
                raise ValueError("polynomial is not univariate in the requested symbol")
        if self.is_zero:
            return []
        coeffs = [Fraction(0)] * (self.degree(slot) + 1)
        for exps, coeff in self.terms.items():
            coeffs[exps[slot]] = coeff
        return coeffs

    def monomial_content(self) -> Exponents:
        """Per-slot minimum exponents (the largest monomial dividing self)."""
        if not self.terms:
            raise ValueError("zero polynomial")
        mins = [None, None, None, None]
        for exps in self.terms:
            for i, e in enumerate(exps):
                mins[i] = e if mins[i] is None else min(mins[i], e)
        return tuple(mins)  # type: ignore[return-value]

    def normalized(self) -> "Poly":
        """Scale so the leading coefficient becomes 1."""
        if self.is_zero:
            return self
        _, lc = self.leading()
        return self.scale(Fraction(1) / lc)


class _PowerCache:
    """Memoized nonnegative powers of a fixed polynomial."""

    def __init__(self, base: Poly):
        self._powers = [Poly.const(1), base]

    def __getitem__(self, n: int) -> Poly:
        while len(self._powers) <= n:
            self._powers.append(self._powers[-1] * self._powers[1])
        return self._powers[n]


# -- printing ---------------------------------------------------------------


def format_poly(p: Poly, names: Sequence[str] = VAR_NAMES) -> str:
    """Canonical string form: terms in descending graded lex order."""
    if p.is_zero:
        return "0"
    pieces: List[str] = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(mag)] + factors)
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


# -- gcd --------------------------------------------------------------------


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized to leading coefficient 1.

    Monomial content is stripped first.  The remaining core picks a main
    variable; one modular image settles most coprime pairs there, and the
    rest runs recursive content / primitive-part reduction with a
    subresultant polynomial remainder sequence.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials undefined")
    if p.is_zero:
        return q.normalized()
    if q.is_zero:
        return p.normalized()
    mp = p.monomial_content()
    mq = q.monomial_content()
    common = tuple(min(a, b) for a, b in zip(mp, mq))
    p1 = p
    q1 = q
    for slot in range(NVARS):
        if mp[slot]:
            p1 = p1.shift_down(slot, mp[slot])
        if mq[slot]:
            q1 = q1.shift_down(slot, mq[slot])
    core = _gcd_core(p1, q1)
    result = core * Poly.monomial(common)
    return result.normalized()


def _gcd_core(p: Poly, q: Poly) -> Poly:
    if p.is_constant or q.is_constant:
        return Poly.const(1)
    if p == q:
        return p.normalized()
    slots_p = set(p.slots_present())
    slots_q = set(q.slots_present())
    shared = slots_p & slots_q
    if not shared:
        return Poly.const(1)
    # Main variable: a shared slot of smallest combined degree keeps the
    # remainder sequences short.
    main = min(shared, key=lambda s: p.degree(s) + q.degree(s))
    if _image_coprime(p, q, main):
        # the gcd has degree 0 in the main slot, so it divides both contents
        cont_p = _content(p, main)
        if cont_p.is_constant:
            return cont_p
        cont_q = _content(q, main)
        return cont_q if cont_q.is_constant else poly_gcd(cont_p, cont_q)
    cont_p, pp_p = _content_pp(p, main)
    cont_q, pp_q = _content_pp(q, main)
    cont = poly_gcd(cont_p, cont_q) if not (cont_p.is_constant and cont_q.is_constant) \
        else Poly.const(1)
    if pp_p.degree(main) < pp_q.degree(main):
        pp_p, pp_q = pp_q, pp_p
    core = _subresultant_gcd(pp_p, pp_q, main)
    return (cont * core).normalized()


# The image that proves two polynomials coprime in their main slot: the
# coefficients are read modulo a fixed prime and the other slots x, y, a, t
# are set to fixed points, so the same inputs always take the same route.
_IMAGE_PRIME = 2 ** 31 - 1
_IMAGE_POINTS = (3, 5, 7, 11)


def _image_coprime(p: Poly, q: Poly, main: int) -> bool:
    """Whether one modular image proves deg_main gcd(p, q) = 0.

    Scaled to primitive integer polynomials, a common factor G of p and q
    maps to a common factor of their images.  When the image keeps p's or
    q's leading coefficient in the main slot, it keeps G's, so a unit image
    gcd leaves G no degree in that slot (Brown, 1971).  An unlucky image
    (a lost leading coefficient, a denominator the prime divides, or a
    spurious common factor) proves nothing, and the caller runs the
    remainder sequence.
    """
    fp = _image(p, main)
    fq = _image(q, main)
    if fp is None or fq is None:
        return False
    if len(fp) <= p.degree(main) and len(fq) <= q.degree(main):
        return False
    while fq:
        # fp <- fp mod fq, over the integers modulo the prime
        inverse = pow(fq[-1], -1, _IMAGE_PRIME)
        shift = len(fp) - len(fq)
        while shift >= 0:
            factor = fp[-1] * inverse % _IMAGE_PRIME
            for i, c in enumerate(fq, shift):
                fp[i] = (fp[i] - factor * c) % _IMAGE_PRIME
            while fp and not fp[-1]:
                fp.pop()
            shift = len(fp) - len(fq)
        fp, fq = fq, fp
    return len(fp) == 1


def _image(p: Poly, main: int) -> Optional[List[int]]:
    """p modulo `_IMAGE_PRIME` as dense coefficients in the main slot, the
    other slots at `_IMAGE_POINTS`, without leading zeros; None when the
    prime divides a coefficient's denominator."""
    coeffs = [0] * (p.degree(main) + 1)
    for exps, coeff in p.terms.items():
        value = coeff.numerator
        if coeff.denominator != 1:
            if not coeff.denominator % _IMAGE_PRIME:
                return None
            value *= pow(coeff.denominator, -1, _IMAGE_PRIME)
        for slot, e in enumerate(exps):
            if e and slot != main:
                value *= pow(_IMAGE_POINTS[slot], e, _IMAGE_PRIME)
        coeffs[exps[main]] += value
    coeffs = [c % _IMAGE_PRIME for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def coefficient_gcd(polys: Iterable[Poly]) -> Poly:
    """The gcd of nonempty polys, stopping at the first constant."""
    acc: Optional[Poly] = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.is_constant:
            break
    assert acc is not None
    return acc


def _content(p: Poly, slot: int) -> Poly:
    """Gcd of the coefficients of p in one slot, or 1 when it is constant."""
    cont = coefficient_gcd(sorted(p.coeffs_in(slot).values(), key=lambda c: len(c.terms)))
    return Poly.const(1) if cont.is_constant else cont


def _content_pp(p: Poly, slot: int) -> Tuple[Poly, Poly]:
    """Content (gcd of slot-coefficients) and primitive part."""
    cont = _content(p, slot)
    if cont.is_constant:
        return cont, p
    pp = p.divmod_exact(cont)
    assert pp is not None
    return cont, pp


def _pseudo_rem(f: Poly, g: Poly, slot: int) -> Poly:
    """Pseudo-remainder of f by g with respect to one slot."""
    dg = g.degree(slot)
    lc_g = g.coeffs_in(slot)[dg]
    rem = f
    df = rem.degree(slot)
    steps = df - dg + 1
    while not rem.is_zero and rem.degree(slot) >= dg:
        dr = rem.degree(slot)
        lc_r = rem.coeffs_in(slot)[dr]
        shift = Poly.variable(slot) ** (dr - dg)
        rem = rem * lc_g - g * lc_r * shift
        steps -= 1
    if steps > 0:
        rem = rem * lc_g ** steps
    return rem


def _subresultant_gcd(a: Poly, b: Poly, slot: int) -> Poly:
    """Primitive gcd of two slot-primitive polynomials, deg a >= deg b >= 1."""
    g = Poly.const(1)
    h = Poly.const(1)
    while True:
        delta = a.degree(slot) - b.degree(slot)
        rem = _pseudo_rem(a, b, slot)
        if rem.is_zero:
            _, pp = _content_pp(b, slot)
            return pp.normalized()
        if rem.degree(slot) == 0:
            return Poly.const(1)
        divisor = g * h ** delta
        nxt = rem.divmod_exact(divisor)
        assert nxt is not None, "subresultant divisor failed to divide"
        a, b = b, nxt
        g = a.coeffs_in(slot)[a.degree(slot)]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            num = g ** delta
            den = h ** (delta - 1)
            h = num.divmod_exact(den)
            assert h is not None


def factor_multiplicity(p: Poly, h: Poly) -> int:
    """Largest k with h**k dividing p."""
    if h.is_zero:
        raise ZeroDivisionError("zero divisor")
    if h.is_constant:
        raise ValueError("multiplicity of a unit factor undefined")
    if p.is_zero:
        raise ValueError("multiplicity in zero undefined")
    count = 0
    current = p
    while True:
        nxt = current.divmod_exact(h)
        if nxt is None:
            return count
        count += 1
        current = nxt


# -- resultant --------------------------------------------------------------


def sylvester_resultant(f: Poly, g: Poly, slot: int) -> Poly:
    """Resultant with respect to one slot, by fraction-free elimination."""
    df = f.degree(slot)
    dg = g.degree(slot)
    if df <= 0 or dg <= 0:
        raise ValueError("resultant needs positive degree in the chosen symbol")
    fc = f.coeffs_in(slot)
    gc = g.coeffs_in(slot)
    size = df + dg
    rows: List[List[Poly]] = []
    for i in range(dg):
        row = [Poly() for _ in range(size)]
        for k, c in fc.items():
            row[i + df - k] = c
        rows.append(row)
    for i in range(df):
        row = [Poly() for _ in range(size)]
        for k, c in gc.items():
            row[i + dg - k] = c
        rows.append(row)
    return _bareiss_det(rows)


def _bareiss_det(matrix: List[List[Poly]]) -> Poly:
    n = len(matrix)
    m = [row[:] for row in matrix]
    prev = Poly.const(1)
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot_row = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                return Poly()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q = num.divmod_exact(prev)
                assert q is not None, "Bareiss step not exact"
                m[i][j] = q
            m[i][k] = Poly()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


# -- univariate helpers -----------------------------------------------------


# Largest leading or trailing coefficient whose divisors a root search
# enumerates by trial division (about 2^20 divisions for each).
ROOT_SEARCH_LIMIT = 2 ** 40
# Most (numerator, denominator) divisor pairs a root search tests: a number
# below ROOT_SEARCH_LIMIT can have thousands of divisors, and testing every
# pair of two such sets would run for minutes.
ROOT_PAIR_LIMIT = 2 ** 20


def rational_roots(p: Poly, slot: int) -> List[Fraction]:
    """All rational roots of a univariate polynomial, sorted, no repeats."""
    return root_pass(p.as_univariate(slot), slot)[0]


def root_pass(coeffs: Sequence[Fraction], slot: int) -> Tuple[List[Fraction], bool]:
    """Rational roots of sum coeffs[k] s^k (s the variable of `slot`), sorted
    without repeats, and whether a factor of positive degree is left once
    every rational root is divided out with its multiplicity.

    A polynomial that is linear after the root 0 is split off is solved in
    closed form.  Otherwise the search runs on the primitive integer
    coefficients: a root n/d in lowest terms has n dividing the trailing
    and d the leading coefficient, is tested by the homogeneous value
    sum c_k n^k d^(deg - k), and is divided out exactly by (d s - n).  Past
    `ROOT_SEARCH_LIMIT` on either end coefficient, or `ROOT_PAIR_LIMIT`
    divisor pairs, the search is refused with `ComputationError` rather
    than left to run for minutes.
    """
    high = len(coeffs)
    while high and not coeffs[high - 1]:
        high -= 1
    if not high:
        raise ValueError("zero polynomial has every root")
    low = 0
    while not coeffs[low]:
        low += 1
    roots = [Fraction(0)] if low else []
    if high - low == 1:
        return roots, False
    if high - low == 2:
        roots.append(-coeffs[low] / coeffs[low + 1])
        return sorted(roots), False
    window = coeffs[low:high]
    scale = math.lcm(*(c.denominator for c in window))
    ints = [c.numerator * (scale // c.denominator) for c in window]
    content = math.gcd(*ints)
    if content != 1:
        ints = [c // content for c in ints]
    lead, trail = abs(ints[-1]), abs(ints[0])
    if max(lead, trail) > ROOT_SEARCH_LIMIT:
        raise ComputationError(
            f"rational roots of {_from_univar(coeffs, slot)}: the coefficient "
            f"{max(lead, trail)} exceeds the divisor search limit "
            f"2^{ROOT_SEARCH_LIMIT.bit_length() - 1}")
    nums = _divisors(trail)
    dens = _divisors(lead)
    if len(nums) * len(dens) > ROOT_PAIR_LIMIT:
        raise ComputationError(
            f"rational roots of {_from_univar(coeffs, slot)}: the coefficients "
            f"{trail} and {lead} give {len(nums) * len(dens)} divisor pairs, "
            f"over the search limit 2^{ROOT_PAIR_LIMIT.bit_length() - 1}")
    found, rest = _integer_roots(ints, nums, dens)
    roots += found
    if len(rest) == 2:
        roots.append(Fraction(-rest[0], rest[1]))
    return sorted(set(roots)), len(rest) > 2


def _integer_roots(ints: List[int], nums: List[int],
                   dens: List[int]) -> Tuple[List[Fraction], List[int]]:
    """The roots among ±n/d, n in `nums` and d in `dens`, each divided out
    as often as it divides; stops once what is left is linear, and returns
    the roots found and what is left."""
    found: List[Fraction] = []
    rest = ints
    for n in nums:
        for d in dens:
            if len(rest) <= 2:
                return found, rest
            # n and d must still divide the ends of what is left
            if rest[0] % n or rest[-1] % d or math.gcd(n, d) != 1:
                continue
            for num in (n, -n):
                while len(rest) > 1 and _homogeneous_value(rest, num, d) == 0:
                    rest = _deflate(rest, num, d)
                    found.append(Fraction(num, d))
    return found, rest


def _homogeneous_value(c: List[int], n: int, d: int) -> int:
    """d^deg times the value of sum c[k] s^k at s = n/d."""
    acc = 0
    power = 1
    for ck in reversed(c):
        acc = acc * n + ck * power
        power *= d
    return acc


def _deflate(c: List[int], n: int, d: int) -> List[int]:
    """The exact quotient of sum c[k] s^k by (d s - n), n/d a root of it."""
    quotient = [0] * (len(c) - 1)
    acc = 0
    for k in range(len(c) - 1, 0, -1):
        acc = (c[k] + n * acc) // d
        quotient[k - 1] = acc
    return quotient


def _from_univar(coeffs: Sequence[Fraction], slot: int) -> Poly:
    terms: Terms = {}
    for k, c in enumerate(coeffs):
        if c:
            exps = [0, 0, 0, 0]
            exps[slot] = k
            terms[tuple(exps)] = c
    return Poly(terms)


def _divisors(n: int) -> List[int]:
    """Positive divisors of n >= 1 in increasing order."""
    small = []
    big = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]


# -- rational functions -----------------------------------------------------


class RatFunc:
    """A reduced fraction of two Polys.

    The gcd of numerator and denominator is divided out on construction and
    the denominator is scaled to leading coefficient 1, so equal values have
    equal representations.  Arithmetic keeps that form from its reduced
    operands, dividing out only the factors that can cancel.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        if num.is_zero:
            self.num = Poly()
            self.den = Poly.const(1)
            return
        if not den.is_constant:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = num.divmod_exact(g)
                den = den.divmod_exact(g)
                assert num is not None and den is not None
        self._set_monic(num, den)

    def _set_monic(self, num: Poly, den: Poly) -> None:
        """Store num/den with the denominator scaled to leading coefficient 1."""
        _, lc = den.leading()
        if lc != 1:
            inv = Fraction(1) / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coprime(num: Poly, den: Poly) -> "RatFunc":
        """The fraction num/den when num and den are known to be coprime.

        The gcd is skipped; the denominator is still scaled to leading
        coefficient 1, so the result equals `RatFunc(num, den)`.  Passing a
        pair with a common factor gives an unreduced fraction that compares
        unequal to its reduced form.
        """
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        if num.is_zero:
            return RatFunc(num)
        out = RatFunc.__new__(RatFunc)
        out._set_monic(num, den)
        return out

    @staticmethod
    def from_const(value) -> "RatFunc":
        return RatFunc(Poly.const(value))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def has_slot(self, slot: int) -> bool:
        return self.num.has_slot(slot) or self.den.has_slot(slot)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return _sum(self.num, self.den, other.num, other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return _sum(self.num, self.den, -other.num, other.den)

    def __neg__(self) -> "RatFunc":
        out = RatFunc.from_const(0)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return _product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        return _product(self.num, self.den, other.den, other.num)

    def __pow__(self, n: int) -> "RatFunc":
        # a power of a reduced fraction is reduced
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero divisor")
            return RatFunc.coprime(self.den ** (-n), self.num ** (-n))
        return RatFunc.coprime(self.num ** n, self.den ** n)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return format_ratfunc(self)

    def __repr__(self) -> str:
        return f"RatFunc({format_ratfunc(self)})"

    # -- substitution ------------------------------------------------------

    def subst_const(self, slot: int, value) -> "RatFunc":
        den = self.den.subst_const(slot, value)
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        return RatFunc(self.num.subst_const(slot, value), den)

    def subst_ratfunc(self, slot: int, value: "RatFunc") -> "RatFunc":
        """Substitute a rational function for one slot."""
        kn = self.num.degree(slot)
        kd = self.den.degree(slot)
        kn = max(kn, 0)
        kd = max(kd, 0)
        num = _subst_slot_frac(self.num, slot, value.num, value.den, kn)
        den = _subst_slot_frac(self.den, slot, value.num, value.den, kd)
        if den.is_zero:
            raise ZeroDivisionError("zero divisor")
        # Both sides were cleared by different powers of value.den; rebalance.
        return RatFunc(num * value.den ** kd, den * value.den ** kn)


# Arithmetic on reduced operands (Henrici; Knuth, TAOCP vol. 2, 4.5.1): the
# only common factors a result can have are known in advance, so the gcds
# run on those alone.  A constant denominator of a reduced operand is 1.


def _sum(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """a/b + c/d for reduced a/b and c/d with monic b and d.

    With g = gcd(b, d), b = g b' and d = g d', the sum is t / (b' d' g)
    with t = a d' + c b'; t is prime to b' and to d', so gcd(t, g) is the
    whole common factor.
    """
    if d.is_constant:
        return RatFunc.coprime(a + (c if b.is_constant else c * b), b)
    if b.is_constant:
        return RatFunc.coprime(a * d + c, d)
    g = poly_gcd(b, d)
    if g.is_constant:
        return RatFunc.coprime(a * d + c * b, b * d)
    b1 = b.divmod_exact(g)
    d1 = d.divmod_exact(g)
    t = a * d1 + c * b1
    if t.is_zero:
        return RatFunc(t)
    g2 = poly_gcd(t, g)
    if not g2.is_constant:
        t = t.divmod_exact(g2)
        d = d.divmod_exact(g2)
    return RatFunc.coprime(t, b1 * d)


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """(a/b)(c/d) for reduced a/b and c/d: only gcd(a, d) and gcd(c, b)
    can cancel."""
    if a.is_zero or c.is_zero:
        return RatFunc(Poly())
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return RatFunc.coprime(a * c, b * d)


def _cancel(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num and den divided by their gcd."""
    if den.is_constant or num.is_constant:
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant:
        return num, den
    return num.divmod_exact(g), den.divmod_exact(g)


def _subst_slot_frac(p: Poly, slot: int, vn: Poly, vd: Poly, clear: int) -> Poly:
    """p with slot -> vn/vd, multiplied through by vd**clear."""
    parts = p.coeffs_in(slot)
    result = Poly()
    for k, coeff in parts.items():
        result = result + coeff * vn ** k * vd ** (clear - k)
    return result


def format_ratfunc(r: RatFunc, names: Sequence[str] = VAR_NAMES) -> str:
    if r.den.is_constant and r.den.constant_term() == 1:
        return format_poly(r.num, names)
    return f"({format_poly(r.num, names)})/({format_poly(r.den, names)})"
