"""Parsing for field elements and for tree-path literals.

Elements of the fraction field are written in x, y and an optional scalar
parameter a:

    (y^2 + x^3) / (x*y)        x/y - 2        (x + a*y)^2

Supported: integer and rational constants, + - * / ^ with the usual
precedence, parentheses nested at most `MAX_NESTING` deep, unary signs,
integer exponents (negative allowed).  Multiplication is always explicit.

Tree paths are written as bracketed step lists:

    []      [0]      [0, inf, -1/2]

Each step is a rational number or `inf`.

Besides reading and printing, this module holds only the tokenizer, the
grammar, the group memo, the term budgets and the bit checks; the
arithmetic on what it reads is `blowup.poly`'s.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import comb, gcd
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import InputError
from .poly import (NVARS, _ZERO_EXP, A, Poly, RatFunc, X, Y, _grlex_key, _IntTerms, _pair,
                   _pair_product, _pair_sum, _plus, _Quotient, _quotient, _raised, _ratfunc,
                   _slots, _split_gcd, _times)


class ExprSyntaxError(InputError):
    """Raised for malformed element expressions or path literals."""


class _Infinity:
    """Singleton marker for the step `inf` (the vertical tangent direction)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

Step = Fraction | _Infinity


def is_inf(step) -> bool:
    return step is INF


# -- step and path literals -------------------------------------------------


def parse_step(text: str) -> Step:
    """The one step reader: "inf" (or "oo") or a rational in any form
    `Fraction` reads, such as "-1/2", "0.5", "1e3" or "1_000", whose
    numerator and denominator have at most `MAX_NUMBER_BITS` bits."""
    text = text.strip()
    if text in ("inf", "oo"):
        return INF
    mantissa, _, exponent = text.lower().partition("e")
    try:
        # A nonzero mantissa of n characters times 10^e has a numerator
        # of at least 10^(e - n) or a denominator above 10^(-e - n), so an
        # exponent this large is refused before 10^|e| is formed, and a
        # zero mantissa reads as zero without it.
        if exponent and abs(int(exponent)) - len(mantissa) > _STEP_EXPONENT_SLACK:
            if Fraction(mantissa + "e0"):
                raise InputError(_STEP_TOO_LARGE)
            text = mantissa + "e0"
        step = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # Python reads at most 4,300 digits into an int, and a run of them
        # that long is past the bit bound unless it is padded with zeros
        if max((len(run.replace("_", "")) for run in re.findall(r"[\d_]+", text)),
               default=0) > _PYTHON_DIGITS:
            raise InputError(_STEP_TOO_LARGE) from exc
        raise ExprSyntaxError(f"bad path step {_shown(text)}: expected a rational or inf") from exc
    return bounded_step(step)


def bounded_step(step: Fraction) -> Fraction:
    """The step itself, refused with `InputError` when its numerator or
    denominator has more than `MAX_NUMBER_BITS` bits."""
    if max(step.numerator.bit_length(), step.denominator.bit_length()) > MAX_NUMBER_BITS:
        raise InputError(_STEP_TOO_LARGE)
    return step


def format_step(step: Step) -> str:
    return "inf" if step is INF else str(step)


def parse_path(text: str) -> Tuple[Step, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ExprSyntaxError(f"bad path literal {_shown(text)}: expected [step, step, ...]")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(parse_step(piece) for piece in inner.split(","))


def format_path(steps: Sequence[Step]) -> str:
    return "[" + ", ".join(format_step(s) for s in steps) + "]"


def _shown(value) -> str:
    """value quoted for an error message: its first 40 characters and its
    length when it is longer.  A text shows as its repr; any other value
    (a JSON array read as a curve, say) is cut from its repr."""
    text, quote = (value, repr) if isinstance(value, str) else (repr(value), str)
    if len(text) <= 40:
        return quote(text)
    return f"{quote(text[:40])}... ({len(text)} characters)"


# -- element expressions ----------------------------------------------------

# A division-free part of an element (integer literals, x, y, a, + - * and
# non-negative powers) has integer coefficients, since the grammar has no
# other constants.  The reader carries such a part as an int term map
# {exponents: coefficient}, which multiplies several times faster than a
# Poly of Fractions, and a value past a `/` or a negative power as a reduced
# pair of them (`blowup.poly` states the pair invariants and does the
# arithmetic); it becomes a RatFunc only at the end of the input.
_VARIABLES = {name: tuple(int(i == slot) for i in range(NVARS))
              for name, slot in (("x", X), ("y", Y), ("a", A))}

# Every number in an element must stay printable: Python converts an int of
# at most 4,300 decimal digits to text, and 13,000 bits is about 3,900 digits.
MAX_NUMBER_BITS = 13000


# 10^3,914 has more than MAX_NUMBER_BITS bits.
_STEP_EXPONENT_SLACK = 3914
_PYTHON_DIGITS = 4300
_STEP_TOO_LARGE = (f"number too large: the numerator and denominator of a path step "
                   f"may have at most {MAX_NUMBER_BITS} bits")


def _check_bits(bits: int) -> None:
    if bits > MAX_NUMBER_BITS:
        raise InputError(f"number too large: the constants and exponents of an "
                         f"element may have at most {MAX_NUMBER_BITS} bits")


def _constant_bits(*parts: Mapping) -> int:
    """Bit length of the largest numerator or denominator among the
    coefficients of the term maps `parts`; 1 when they have none."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for terms in parts for c in terms.values()), default=1)


def _number_bits(f: RatFunc) -> int:
    """Bit length of the largest coefficient part or exponent in f."""
    top = max(e for p in (f.num, f.den) for exps in p.terms for e in exps)
    return max(_constant_bits(f.num.terms, f.den.terms), top.bit_length())


# A power, product or sum is expanded before anything else sees it, and the
# expansion's cost grows with its term count: (1+x+y)^100 has 5,151 terms and
# takes half a minute.  Powers, products and sums whose numerator or
# denominator may exceed this many terms are refused unexpanded.
MAX_POWER_TERMS = 500


def _degree(terms: Mapping) -> int:
    return max(map(sum, terms), default=0)


def _power_terms(p: Mapping, n: int) -> int:
    """An upper bound on the term count of p^n, for a term map p and n >= 0.

    The smaller of two counts: the multisets of n of p's k terms, and the
    monomials of total degree at most n*deg(p) in p's variables.
    """
    k = max(len(p), 1)
    variables = len(_slots(p))
    return min(comb(k + n - 1, n), comb(n * _degree(p) + variables, variables))


def _product_terms(p: Mapping, q: Mapping) -> int:
    """An upper bound on the term count of p*q, for term maps p and q.

    The smaller of two counts: the products of a term of p with a term of
    q, and the monomials of total degree at most deg(p) + deg(q) in the
    variables of p and q.
    """
    variables = len(_slots(p) | _slots(q))
    degree = _degree(p) + _degree(q)
    return min(len(p) * len(q), comb(degree + variables, variables))


def _product_excess(p: Mapping, q: Mapping) -> int:
    """`_product_terms(p, q)` when it is over the budget, else 0.

    len(p)*len(q) is the larger count, so when it fits the other is not
    needed."""
    if len(p) * len(q) <= MAX_POWER_TERMS:
        return 0
    terms = _product_terms(p, q)
    return terms if terms > MAX_POWER_TERMS else 0


def _sum_terms(f: _Quotient, g: _Quotient, f_cof: Mapping, g_cof: Mapping) -> int:
    """An upper bound on the term counts of f + g and f - g as the sum
    forms them, before anything cancels.  With h = gcd(f.den, g.den),
    f_cof = f.den/h and g_cof = g.den/h, these are
    f.num*g_cof +- g.num*f_cof and f_cof*g.den.

    The reduced value can have more terms: x^5/(x-1) - 1/(x-1) is bounded by
    2, but reduces to x^4+x^3+x^2+x+1 over 1.  For two polynomials the bound
    is the sum of their term counts (at least 1).
    """
    (f_num, _), (g_num, g_den) = f, g
    return max(_product_terms(f_num, g_cof) + _product_terms(g_num, f_cof),
               _product_terms(f_cof, g_den))


def _monic_bits(num: _IntTerms, den: _IntTerms) -> int:
    """`_constant_bits` of the RatFunc that num/den stands for."""
    lc = den[max(den, key=_grlex_key)]
    return max(max((c // k).bit_length(), (lc // k).bit_length())
               for c in chain(num.values(), den.values()) for k in (gcd(c, lc),))


# Each open parenthesis costs the parser a few stack frames, so nesting is
# bounded by a count of its own rather than by the caller's stack depth.
MAX_NESTING = 100


def _int_literal(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # more digits than Python converts
        raise InputError(f"number too large: a literal of {len(text)} digits") from exc


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[Tuple[str, str]] = []
        # token index of each "(" -> token index of its ")"
        self.closing: Dict[int, int] = {}
        # the tokens inside a group already read -> its value
        self.groups: Dict[Tuple[Tuple[str, str], ...], _IntTerms | _Quotient] = {}
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        depth = 0
        opened: List[int] = []
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":  # ASCII only: int() also reads other digits
                j = i
                while j < len(text) and "0" <= text[j] <= "9":
                    j += 1
                self.tokens.append(("num", text[i:j]))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                self.tokens.append(("name", text[i:j]))
                i = j
                continue
            if ch in "+-*/^()":
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_NESTING:
                    raise ExprSyntaxError(f"parentheses nested more than {MAX_NESTING} "
                                          f"deep at position {i}")
                if ch == "(":
                    opened.append(len(self.tokens))
                elif ch == ")" and opened:
                    self.closing[opened.pop()] = len(self.tokens)
                self.tokens.append((ch, ch))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r} at position {i}")

    def peek(self) -> Tuple[str, str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "")

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str]:
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {_shown(tok[1])} in {_shown(self.text)}")
        return tok


def parse_element(text: str) -> RatFunc:
    """Parse an element of the fraction field k(x, y) (optionally with a)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression")
    toks = _Tokenizer(text)
    value = _parse_sum(toks)
    if toks.peek()[0] != "end":
        raise ExprSyntaxError(
            f"trailing input {_shown(toks.peek()[1])} in {_shown(text)}")
    value = _ratfunc(value)
    _check_bits(_number_bits(value))
    return value


def parse_curve(text) -> Poly:
    """Parse a plane curve: a polynomial in x and y, with no fraction and
    no parameter a."""
    if not isinstance(text, str):
        raise InputError(f"bad curve {_shown(text)}: expected an expression string")
    value = parse_element(text)
    if value.den != Poly.const(1) or value.num.has_slot(A):
        raise InputError(f"bad curve {_shown(text)}: expected a polynomial in x and y")
    return value.num


def _parse_sum(toks: _Tokenizer) -> _IntTerms | _Quotient:
    first = toks.index
    value = _parse_product(toks)
    while toks.peek()[0] in ("+", "-"):
        sign = 1 if toks.next()[0] == "+" else -1
        rhs = _parse_product(toks)
        polynomials = type(value) is dict and type(rhs) is dict
        if polynomials:
            terms = len(value) + len(rhs)  # _sum_terms of two polynomials
        else:
            (a, b), (c, d) = _pair(value), _pair(rhs)
            h, b1, d1 = _split_gcd(b, d)
            # the term count products bound the sum: exact only past the budget
            terms = max(len(a) * len(d1) + len(c) * len(b1), len(b1) * len(d))
            if terms > MAX_POWER_TERMS:
                terms = _sum_terms((a, b), (c, d), b1, d1)
        if terms > MAX_POWER_TERMS:
            total = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"sum too large: {total} may have up to {terms} "
                             f"terms, and a sum may have at most {MAX_POWER_TERMS}")
        value = _plus(value, rhs, sign) if polynomials else _pair_sum(a, c, d, sign, h, b1, d1)
    return value


def _parse_product(toks: _Tokenizer) -> _IntTerms | _Quotient:
    first = toks.index
    value = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks)
        polynomials = op == "*" and type(value) is dict and type(rhs) is dict
        if polynomials:
            pairs = ((value, rhs),)  # the denominators' product 1 has 1 term
        else:
            (a, b), (c, d) = _pair(value), _pair(rhs)
            if op == "/":
                if not c:
                    raise ExprSyntaxError("division by zero")
                c, d = d, c
            pairs = ((a, c), (b, d))
        terms = max(_product_excess(p, q) for p, q in pairs)
        if terms:
            product = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"product too large: {product} may have up to {terms} "
                             f"terms, and a product may have at most {MAX_POWER_TERMS}")
        value = _times(value, rhs) if polynomials else _pair_product(a, b, c, d)
    return value


def _parse_factor(toks: _Tokenizer) -> _IntTerms | _Quotient:
    negate = False
    while toks.peek()[0] in ("+", "-"):
        if toks.next()[0] == "-":
            negate = not negate
    value = _parse_power(toks)
    if not negate:
        return value
    if type(value) is dict:
        return {exps: -c for exps, c in value.items()}
    num, den = value
    return {exps: -c for exps, c in num.items()}, den


def _parse_power(toks: _Tokenizer) -> _IntTerms | _Quotient:
    first = toks.index
    base = _parse_atom(toks)
    if toks.peek()[0] != "^":
        return base
    toks.next()
    sign = 1
    while toks.peek()[0] in ("+", "-"):
        if toks.next()[0] == "-":
            sign = -sign
    tok = toks.expect("num")
    exponent = sign * _int_literal(tok[1])
    parts = (base,) if type(base) is dict else base
    if exponent < 0 and not parts[0]:
        raise ExprSyntaxError("division by zero")
    n = abs(exponent)
    # c^n has at least (bits(c) - 1) * n bits: refuse before computing it
    bits = _constant_bits(base) if type(base) is dict else _monic_bits(*base)
    _check_bits((bits - 1) * n)
    # a denominator 1 bounds its power by 1, and every bound is at least 1
    terms = max(_power_terms(p, n) for p in parts)
    if terms > MAX_POWER_TERMS:
        power = "".join(text for _, text in toks.tokens[first:toks.index])
        raise InputError(f"power too large: {power} may have up to {terms} "
                         f"terms, and a power may have at most {MAX_POWER_TERMS}")
    # a power of a reduced pair is reduced
    num, den = (_raised(p, n) for p in _pair(base))
    return _quotient(num, den) if exponent >= 0 else _quotient(den, num)


def _parse_atom(toks: _Tokenizer) -> _IntTerms | _Quotient:
    start = toks.index
    kind, text = toks.next()
    if kind == "num":
        value = _int_literal(text)
        return {_ZERO_EXP: value} if value else {}
    if kind == "name":
        exps = _VARIABLES.get(text)
        if exps is None:
            raise ExprSyntaxError(f"unknown symbol {_shown(text)}: only x, y, a are allowed")
        return {exps: 1}
    if kind == "(":
        # a group read before in this element is not read again
        end = toks.closing.get(start)
        key = tuple(toks.tokens[start + 1:end]) if end is not None else None
        value = toks.groups.get(key)
        if value is not None:
            toks.index = end + 1
            return value
        value = _parse_sum(toks)
        toks.expect(")")
        if key is not None:
            toks.groups[key] = value
        return value
    if kind == "end":
        raise ExprSyntaxError("unexpected end of expression")
    raise ExprSyntaxError(f"unexpected token {_shown(text)}")
