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

This module holds the one copy of the term-map arithmetic: the sum, product
and power kernels behind the `Poly` operators, and the reduced-pair
arithmetic on integer term maps that both the element reader
(`blowup.expr`) and the `RatFunc` operators run.  Exact division is one
loop over Z, `_divide`, and fractions are reduced in one place,
`_split_gcd`, which the `RatFunc` constructor runs too.  The gcd, `_gcd`,
runs on integer term maps as well, with every exact division by
`_divide`; `poly_gcd` scales two `Poly`s to such maps and back.  The one
elimination loop is the subresultant remainder sequence, `_subresultants`:
the gcd reads its last nonzero member and the resultant, `_resultant`,
its last member of degree 0.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import ComputationError

Exponents = Tuple[int, int, int, int]
Terms = Dict[Exponents, Fraction]
_IntTerms = Dict[Exponents, int]

NVARS = 4
X, Y, A, T = 0, 1, 2, 3
VAR_NAMES = ("x", "y", "a", "t")

_ZERO_EXP: Exponents = (0, 0, 0, 0)
_UNIT: _IntTerms = {_ZERO_EXP: 1}


def _grlex_key(exps: Exponents) -> Tuple[int, Exponents]:
    return (sum(exps), exps)


# -- term-map kernels --------------------------------------------------------

# A term map {exponents: coefficient} holds no zero coefficient.  The kernels
# take any exact coefficients: the `Poly` operators pass Fractions and the
# reduced-pair arithmetic below passes ints.  They never change a map in
# place.


def _plus(p: Mapping, q: Mapping, sign: int) -> dict:
    """p + sign*q."""
    out = dict(p)
    for exps, c in q.items():
        c = out.get(exps, 0) + sign * c
        if c:
            out[exps] = c
        else:
            del out[exps]
    return out


def _times(p: Mapping, q: Mapping) -> dict:
    """p*q."""
    out: dict = {}
    get = out.get
    for (i, j, k, m), c in p.items():
        for (i2, j2, k2, m2), d in q.items():
            exps = (i + i2, j + j2, k + k2, m + m2)
            out[exps] = get(exps, 0) + c * d
    return {exps: c for exps, c in out.items() if c}


def _raised(p: Mapping, n: int) -> dict:
    """p^n for n >= 0; p^0 is the constant 1 with an int coefficient."""
    result: dict = {_ZERO_EXP: 1}
    while n:
        if n & 1:
            result = _times(result, p)
        n >>= 1
        if n:
            p = _times(p, p)
    return result


def _poly(terms: Terms) -> "Poly":
    """A Poly over a term map with no zero coefficient, taken as it is."""
    out = Poly.__new__(Poly)
    out.terms = terms
    return out


def _over(terms: _IntTerms, den: int = 1) -> "Poly":
    """An int term map divided by a nonzero integer, as a Poly: one
    Fraction per coefficient."""
    return _poly({exps: Fraction(c, den) for exps, c in terms.items()})


def xy_order(terms: Mapping) -> int:
    """Order of vanishing at the origin of the (x, y) plane of a nonzero
    term map: the least x plus y exponent.  The symbols a and t are
    unit-valued scalars, so only x and y exponents count."""
    if not terms:
        raise ValueError("order of zero undefined")
    return min(e[X] + e[Y] for e in terms)


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
        """Order of vanishing at the origin of the (x, y) plane: `xy_order`
        of the term map.  Undefined (raises) for the zero polynomial."""
        return xy_order(self.terms)

    def xy_constant_part(self) -> "Poly":
        """Terms free of x and y: a polynomial in a and t alone."""
        return Poly({e: c for e, c in self.terms.items() if e[X] == 0 and e[Y] == 0})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_plus(self.terms, other.terms, 1))

    def __neg__(self) -> "Poly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_plus(self.terms, other.terms, -1))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_times(self.terms, other.terms))

    def scale(self, value) -> "Poly":
        value = Fraction(value)
        if not value:
            return Poly()
        return _poly({e: c * value for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.const(1)
        return _poly(_raised(self.terms, n))

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

        Both are scaled to integers by one factor and the divisor's integer
        content k is taken out, so `_divide` runs over Z; the quotient it
        returns is then divided by k.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("zero divisor")
        p, g = _integer_terms(self, divisor)
        k = math.gcd(*g.values())
        quotient = _divide(p, _scaled(g, k))
        if quotient is None:
            return None
        return _over(quotient, k)

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
        return _poly(terms)

    def derivative(self, slot: int) -> "Poly":
        terms: Terms = {}
        for exps, coeff in self.terms.items():
            e = exps[slot]
            if e:
                lst = list(exps)
                lst[slot] = e - 1
                key = tuple(lst)
                terms[key] = terms.get(key, Fraction(0)) + coeff * e
        return _poly({e: c for e, c in terms.items() if c})

    # -- structure helpers -------------------------------------------------

    def coeffs_in(self, slot: int) -> Dict[int, "Poly"]:
        """View as a polynomial in one slot with Poly coefficients."""
        out: Dict[int, Terms] = {}
        for exps, coeff in self.terms.items():
            k = exps[slot]
            lst = list(exps)
            lst[slot] = 0
            out.setdefault(k, {})[tuple(lst)] = coeff
        return {k: _poly(terms) for k, terms in out.items()}

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


def format_poly(p: Poly) -> str:
    """Canonical string form: terms in descending graded lex order."""
    if p.is_zero:
        return "0"
    pieces: List[str] = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(VAR_NAMES[i])
            elif e > 1:
                factors.append(f"{VAR_NAMES[i]}^{e}")
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

# The gcd runs on int term maps, like the reduced-pair arithmetic below, and
# its results are primitive over Z.  A pseudo-remainder sequence over Z has
# every division exact (Brown and Traub, 1971; Knuth, TAOCP vol. 2, 4.6.1),
# so `_divide` does each one and no fraction is formed.


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor, normalized to leading coefficient 1: `_gcd`
    of p and q scaled to integers."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials undefined")
    if p.is_zero:
        return q.normalized()
    if q.is_zero:
        return p.normalized()
    return _over(_gcd(*_integer_terms(p, q))).normalized()


def coefficient_gcd(polys: Iterable[Poly]) -> Poly:
    """The gcd of nonempty polys, stopping at the first constant."""
    acc: Optional[Poly] = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.is_constant:
            break
    assert acc is not None
    return acc


def _gcd(p: _IntTerms, q: _IntTerms) -> _IntTerms:
    """A gcd of two nonzero int term maps, primitive over Z.

    When one is a constant or a monomial it is the monomial their exponents
    share.  Otherwise each loses its monomial content, and unless what is
    left is equal, `_gcd_core` runs on it."""
    if len(p) == 1 or len(q) == 1:
        return {tuple(map(min, *p, *q)): 1}
    mp, mq = tuple(map(min, *p)), tuple(map(min, *q))
    p, q = _divide(p, {mp: 1}), _divide(q, {mq: 1})
    core = _scaled(p, math.gcd(*p.values())) if p == q else _gcd_core(p, q)
    return _times(core, {tuple(map(min, mp, mq)): 1})


def _gcd_core(p: _IntTerms, q: _IntTerms) -> _IntTerms:
    """The gcd of two unequal int term maps that no monomial divides.

    It picks a main slot; one modular image settles most coprime pairs
    there, and the rest runs recursive content / primitive-part reduction
    with a subresultant remainder sequence."""
    shared = _slots(p) & _slots(q)
    if not shared:
        return _UNIT
    # Main variable: a shared slot of smallest combined degree keeps the
    # remainder sequences short.
    main = min(shared, key=lambda s: _slot_degree(p, s) + _slot_degree(q, s))
    cont_p = _content(p, main)
    if _image_coprime(p, q, main):
        # the gcd has degree 0 in the main slot, so it divides both contents
        if cont_p == _UNIT:
            return _UNIT
        cont_q = _content(q, main)
        return _UNIT if cont_q == _UNIT else _gcd(cont_p, cont_q)
    cont_q = _content(q, main)
    pp_p, pp_q = _divide(p, cont_p), _divide(q, cont_q)
    if _slot_degree(pp_p, main) < _slot_degree(pp_q, main):
        pp_p, pp_q = pp_q, pp_p
    return _times(_gcd(cont_p, cont_q), _subresultant_gcd(pp_p, pp_q, main))


# The image that proves two polynomials coprime in their main slot: the
# coefficients are read modulo a fixed prime and the other slots x, y, a, t
# are set to fixed points, so the same inputs always take the same route.
_IMAGE_PRIME = 2 ** 31 - 1
_IMAGE_POINTS = (3, 5, 7, 11)


def _image_coprime(p: _IntTerms, q: _IntTerms, main: int) -> bool:
    """Whether one modular image proves deg_main gcd(p, q) = 0.

    A common factor G of the int term maps p and q, primitive over Z,
    divides both over Z and maps to a common factor of their images.  When
    the image keeps p's or q's leading coefficient in the main slot, it
    keeps G's, so a unit image gcd leaves G no degree in that slot (Brown,
    1971).  An unlucky image (a lost leading coefficient or a spurious
    common factor) proves nothing, and the caller runs the remainder
    sequence.
    """
    fp = _image(p, main)
    fq = _image(q, main)
    if len(fp) <= _slot_degree(p, main) and len(fq) <= _slot_degree(q, main):
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


def _image(p: _IntTerms, main: int) -> List[int]:
    """p modulo `_IMAGE_PRIME` as dense coefficients in the main slot, the
    other slots at `_IMAGE_POINTS`, without leading zeros."""
    coeffs = [0] * (_slot_degree(p, main) + 1)
    for exps, value in p.items():
        for slot, e in enumerate(exps):
            if e and slot != main:
                value *= pow(_IMAGE_POINTS[slot], e, _IMAGE_PRIME)
        coeffs[exps[main]] += value
    coeffs = [c % _IMAGE_PRIME for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _slots(terms: Mapping) -> Set[int]:
    """The slots that occur in a term map."""
    return {i for i, column in enumerate(zip(*terms)) if any(column)}


def _slot_degree(p: _IntTerms, slot: int) -> int:
    """The largest exponent of one slot in a nonzero term map."""
    return max(exps[slot] for exps in p)


def _slot_part(p: _IntTerms, slot: int, k: int, lift: int = 0) -> _IntTerms:
    """The terms of p of degree k in one slot, with that degree set to lift:
    p's coefficient of slot^k times slot^lift."""
    return {exps[:slot] + (lift,) + exps[slot + 1:]: c
            for exps, c in p.items() if exps[slot] == k}


def _content(p: _IntTerms, slot: int) -> _IntTerms:
    """The gcd of p's coefficients in one slot, `_UNIT` when it is a
    constant.  The gcds run from the coefficient of fewest terms up and
    stop at the first constant."""
    parts: Dict[int, _IntTerms] = {}
    for exps, c in p.items():
        parts.setdefault(exps[slot], {})[exps[:slot] + (0,) + exps[slot + 1:]] = c
    acc: Optional[_IntTerms] = None
    for part in sorted(parts.values(), key=len):
        acc = part if acc is None else _gcd(acc, part)
        if len(acc) == 1 and _ZERO_EXP in acc:
            return _UNIT
    return acc


def _pseudo_rem(f: _IntTerms, g: _IntTerms, slot: int) -> _IntTerms:
    """The pseudo-remainder of f by g in one slot: lc(g)^(deg f - deg g + 1)
    times f, modulo g."""
    dg = _slot_degree(g, slot)
    lc_g = _slot_part(g, slot, dg)
    rem = f
    steps = _slot_degree(f, slot) - dg + 1
    while rem and _slot_degree(rem, slot) >= dg:
        dr = _slot_degree(rem, slot)
        rem = _plus(_times(rem, lc_g), _times(g, _slot_part(rem, slot, dr, dr - dg)), -1)
        steps -= 1
    if steps > 0:
        rem = _times(rem, _raised(lc_g, steps))
    return rem


def _subresultants(a: _IntTerms, b: _IntTerms, slot: int,
                   ) -> Iterator[Tuple[_IntTerms, _IntTerms, _IntTerms]]:
    """The subresultant remainder sequence of two int term maps, deg a >=
    deg b >= 1 in one slot: each pair of neighbours (a, b) with the h that
    comes with it, from the pair given down to one whose b is zero or has
    degree 0.  Every division in it is exact over Z (Collins, 1967; Brown
    and Traub, 1971)."""
    g = h = _UNIT
    while True:
        yield a, b, h
        if not b or not _slot_degree(b, slot):
            return
        delta = _slot_degree(a, slot) - _slot_degree(b, slot)
        a, b = b, _divide(_pseudo_rem(a, b, slot), _times(g, _raised(h, delta)))
        g = _slot_part(a, slot, _slot_degree(a, slot))
        if delta == 1:
            h = g
        elif delta > 1:
            h = _divide(_raised(g, delta), _raised(h, delta - 1))


def _subresultant_gcd(a: _IntTerms, b: _IntTerms, slot: int) -> _IntTerms:
    """The gcd of two slot-primitive int term maps, deg a >= deg b >= 1,
    primitive over Z: their last nonzero remainder made primitive."""
    for a, b, _ in _subresultants(a, b, slot):
        pass
    if b:
        return _UNIT
    pp = _divide(a, _content(a, slot))
    return _scaled(pp, math.gcd(*pp.values()))


def _resultant(p: _IntTerms, q: _IntTerms, slot: int) -> _IntTerms:
    """The resultant of two int term maps of positive degree in one slot:
    cont(p)^deg q cont(q)^deg p times that of their primitive parts, which
    ends the remainder sequence, with a sign from each pair of odd degrees
    (Cohen, A Course in Computational Algebraic Number Theory, 3.3.7).  It
    is 0 when the sequence ends on a member of positive degree."""
    dp, dq = _slot_degree(p, slot), _slot_degree(q, slot)
    cont_p, cont_q = _content(p, slot), _content(q, slot)
    a, b = _divide(p, cont_p), _divide(q, cont_q)
    sign = -1 if dp & dq & 1 and dp < dq else 1
    if dp < dq:
        a, b = b, a
    for a, b, h in _subresultants(a, b, slot):
        if not b:
            return {}
        if _slot_degree(a, slot) & _slot_degree(b, slot) & 1:
            sign = -sign
    # b has degree 0 and a degree d >= 1: the primitive parts give b^d / h^(d - 1)
    d = _slot_degree(a, slot)
    last = _divide(_raised(b, d), _raised(h, d - 1))
    return _times(_times(_raised(cont_p, dq), _raised(cont_q, dp)), _scaled(last, sign))


def sylvester_resultant(f: Poly, g: Poly, slot: int) -> Poly:
    """Resultant with respect to one slot, the determinant of the Sylvester
    matrix of f and g: `_resultant` of f and g scaled to integers by one s,
    divided by s^(deg f + deg g)."""
    df = f.degree(slot)
    dg = g.degree(slot)
    if df <= 0 or dg <= 0:
        raise ValueError("resultant needs positive degree in the chosen symbol")
    scale = _integer_scale(f, g)
    return _over(_resultant(*_integer_terms(f, g, scale=scale), slot), scale ** (df + dg))


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
    """Rational roots of sum coeffs[k] s^k (s the variable of `slot`, the
    coefficients fractions or integers), sorted without repeats, and
    whether a factor of positive degree is left once every rational root is
    divided out with its multiplicity.

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
        roots.append(Fraction(-coeffs[low], coeffs[low + 1]))
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
        elif den.is_constant:
            self._set_monic(num, den)
        else:
            reduced = _ratfunc(_split_gcd(*_integer_terms(num, den))[1:])
            self.num, self.den = reduced.num, reduced.den

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
        return _ratfunc_sum(self, other, 1)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return _ratfunc_sum(self, other, -1)

    def __neg__(self) -> "RatFunc":
        return RatFunc.coprime(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        return _ratfunc(_pair_product(*_integer_terms(self.num, self.den),
                                      *_integer_terms(other.num, other.den)))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero divisor")
        return _ratfunc(_pair_product(*_integer_terms(self.num, self.den),
                                      *_integer_terms(other.den, other.num)))

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


# -- reduced pairs -----------------------------------------------------------

# A quotient is a pair (num, den) of int term maps with no common factor of
# positive degree, no common integer factor, and den positive when it is a
# constant; a polynomial may stand as its own term map, a pair over 1.  The
# element reader carries every value past a `/` or a negative power this
# way, and the `RatFunc` operators scale their operands to such pairs.  Sums
# and products of reduced pairs look only for the factors that can cancel
# (Henrici; Knuth, TAOCP vol. 2, 4.5.1).  Term maps are never changed in
# place: a value may be shared by the reader's group memo.
_Quotient = Tuple[_IntTerms, _IntTerms]


def _pair(value: _IntTerms | _Quotient) -> _Quotient:
    """value as a pair: an int term map is a polynomial over 1."""
    return (value, _UNIT) if type(value) is dict else value


def _scaled(p: _IntTerms, k: int) -> _IntTerms:
    """p/k for an integer k that divides every coefficient of p."""
    return {exps: c // k for exps, c in p.items()}


def _divide(p: _IntTerms, g: _IntTerms) -> Optional[_IntTerms]:
    """p/g for int term maps, over Z when g is primitive (Gauss's lemma), or
    None when g does not divide p.  The least term of the remainder is
    always the least term of g times a term of the quotient, so a heap
    serves them in turn, in nondecreasing total degree.  A quotient term
    with a negative exponent, a coefficient that g's least term does not
    divide, or a total degree past deg p - deg g ends an inexact division."""
    if len(g) == 1:
        ((shift, lc),) = g.items()
        if lc == 1 and not any(shift):
            return p
        s0, s1, s2, s3 = shift
        quotient: _IntTerms = {}
        for (i, j, k, m), c in p.items():
            if i < s0 or j < s1 or k < s2 or m < s3 or c % lc:
                return None
            quotient[i - s0, j - s1, k - s2, m - s3] = c // lc
        return quotient
    trail = min(g, key=_grlex_key)
    lc = g[trail]
    rest = [(exps, c) for exps, c in g.items() if exps != trail]
    bound = max(map(sum, p), default=0) - max(map(sum, g))
    rem = dict(p)
    heap = [(sum(exps), exps) for exps in rem]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        c = rem.pop(exps)
        if not c:
            continue
        delta = tuple(i - j for i, j in zip(exps, trail))
        if min(delta) < 0 or sum(delta) > bound or c % lc:
            return None
        q = c // lc
        quotient[delta] = q
        for (i, j, k, m), d in rest:
            target = (delta[0] + i, delta[1] + j, delta[2] + k, delta[3] + m)
            if target not in rem:
                heapq.heappush(heap, (sum(target), target))
            rem[target] = rem.get(target, 0) - q * d
    return quotient


def _quotient(num: _IntTerms, den: _IntTerms) -> _IntTerms | _Quotient:
    """num/den for int term maps with no common factor of positive degree:
    a term map when it is a polynomial, else a reduced pair."""
    if not num:
        return {}
    k = math.gcd(*num.values(), *den.values())
    if len(den) == 1 and den.get(_ZERO_EXP, 0) < 0:
        k = -k
    if k != 1:
        num, den = _scaled(num, k), _scaled(den, k)
    return num if den == _UNIT else (num, den)


def _split_gcd(p: _IntTerms, q: _IntTerms) -> Tuple[_IntTerms, _IntTerms, _IntTerms]:
    """(g, p/g, q/g) for g = gcd(p, q), primitive over Z; p/g and q/g share
    no factor of positive degree."""
    g = _gcd(p, q)
    return g, _divide(p, g), _divide(q, g)


def _pair_sum(a: _IntTerms, c: _IntTerms, d: _IntTerms, sign: int,
              h: _IntTerms, b1: _IntTerms, d1: _IntTerms) -> _IntTerms | _Quotient:
    """a/b + sign*c/d for reduced pairs (a, b) and (c, d), given
    (h, b1, d1) = `_split_gcd(b, d)`."""
    # the sum is t/(b1*d1*h) with t = a*d1 + sign*c*b1; t is prime to b1
    # and to d1, so gcd(t, h) is the whole common factor
    t = _plus(_times(a, d1), _times(c, b1), sign)
    common = _gcd(t, h) if t else _UNIT
    return _quotient(_divide(t, common), _times(b1, _divide(d, common)))


def _pair_product(a: _IntTerms, b: _IntTerms, c: _IntTerms,
                  d: _IntTerms) -> _IntTerms | _Quotient:
    """(a/b)(c/d) for reduced pairs (a, b) and (c, d)."""
    if not (a and c):
        return {}
    # only gcd(a, d) and gcd(c, b) can cancel
    _, a, d = _split_gcd(a, d)
    _, c, b = _split_gcd(c, b)
    return _quotient(_times(a, c), _times(b, d))


def _integer_scale(*polys: Poly) -> int:
    """The lcm of the denominators of all the polys' coefficients."""
    return math.lcm(*(c.denominator for p in polys for c in p.terms.values()))


def _integer_terms(*polys: Poly, scale: int = 0) -> Tuple[_IntTerms, ...]:
    """The term maps of polys times `scale`, a common multiple of their
    coefficients' denominators, by default `_integer_scale` of them.  Those
    of a RatFunc's numerator and denominator are a reduced pair, since the
    denominator is monic."""
    scale = scale or _integer_scale(*polys)
    return tuple({exps: c.numerator * (scale // c.denominator) for exps, c in p.terms.items()}
                 for p in polys)


def _ratfunc_sum(f: RatFunc, g: RatFunc, sign: int) -> RatFunc:
    """f + sign*g."""
    (a, b), (c, d) = _integer_terms(f.num, f.den), _integer_terms(g.num, g.den)
    return _ratfunc(_pair_sum(a, c, d, sign, *_split_gcd(b, d)))


def _ratfunc(value: _IntTerms | _Quotient) -> RatFunc:
    """A term map or reduced pair as a RatFunc: one Fraction per
    coefficient, over the denominator's leading coefficient."""
    num, den = _pair(value)
    lc = den[max(den, key=_grlex_key)]
    return RatFunc.coprime(_over(num, lc), _over(den, lc))


def _subst_slot_frac(p: Poly, slot: int, vn: Poly, vd: Poly, clear: int) -> Poly:
    """p with slot -> vn/vd, multiplied through by vd**clear."""
    parts = p.coeffs_in(slot)
    result = Poly()
    for k, coeff in parts.items():
        result = result + coeff * vn ** k * vd ** (clear - k)
    return result


def format_ratfunc(r: RatFunc) -> str:
    if r.den.is_constant and r.den.constant_term() == 1:
        return format_poly(r.num)
    return f"({format_poly(r.num)})/({format_poly(r.den)})"
