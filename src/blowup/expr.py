"""Parsing for field elements and for tree-path literals.

Elements of the fraction field are written in x, y and an optional scalar
parameter a:

    (y^2 + x^3) / (x*y)        x/y - 2        (x + a*y)^2

Supported: integer and rational constants, + - * / ^ with the usual
precedence, parentheses, unary minus, integer exponents (negative allowed).
Multiplication is always explicit.

Tree paths are written as bracketed step lists:

    []      [0]      [0, inf, -1/2]

Each step is a rational number or `inf`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Sequence, Tuple

from .errors import InputError
from .poly import A, Poly, RatFunc, X, Y


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
    text = text.strip()
    if text in ("inf", "oo"):
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprSyntaxError(f"bad path step {text!r}: expected a rational or inf") from exc


def format_step(step: Step) -> str:
    return "inf" if step is INF else str(step)


def parse_path(text: str) -> Tuple[Step, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ExprSyntaxError(f"bad path literal {text!r}: expected [step, step, ...]")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(parse_step(piece) for piece in inner.split(","))


def format_path(steps: Sequence[Step]) -> str:
    return "[" + ", ".join(format_step(s) for s in steps) + "]"


# -- element expressions ----------------------------------------------------

_VAR_SLOTS = {"x": X, "y": Y, "a": A}

# Every number in an element must stay printable: Python converts an int of
# at most 4,300 decimal digits to text, and 13,000 bits is about 3,900 digits.
MAX_NUMBER_BITS = 13000


def _check_bits(bits: int) -> None:
    if bits > MAX_NUMBER_BITS:
        raise InputError(f"number too large: the constants and exponents of an "
                         f"element may have at most {MAX_NUMBER_BITS} bits")


def _constant_bits(f: RatFunc) -> int:
    """Bit length of the largest numerator or denominator among f's coefficients."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for p in (f.num, f.den) for c in p.terms.values())


def _number_bits(f: RatFunc) -> int:
    """Bit length of the largest coefficient part or exponent in f."""
    top = max(e for p in (f.num, f.den) for exps in p.terms for e in exps)
    return max(_constant_bits(f), top.bit_length())


# A power, product or sum is expanded before anything else sees it, and the
# expansion's cost grows with its term count: (1+x+y)^100 has 5,151 terms and
# takes half a minute.  Powers, products and sums whose numerator or
# denominator may exceed this many terms are refused unexpanded.
MAX_POWER_TERMS = 500


def _power_terms(p: Poly, n: int) -> int:
    """An upper bound on the term count of p^n, for n >= 0.

    The smaller of two counts: the multisets of n of p's k terms, and the
    monomials of total degree at most n*deg(p) in p's variables.
    """
    k = max(len(p.terms), 1)
    variables = len(p.slots_present())
    degree = max((sum(exps) for exps in p.terms), default=0)
    return min(comb(k + n - 1, n), comb(n * degree + variables, variables))


def _product_terms(p: Poly, q: Poly) -> int:
    """An upper bound on the term count of p*q.

    The smaller of two counts: the products of a term of p with a term of
    q, and the monomials of total degree at most deg(p) + deg(q) in the
    variables of p and q.
    """
    variables = len(set(p.slots_present()) | set(q.slots_present()))
    degree = sum(max((sum(exps) for exps in f.terms), default=0) for f in (p, q))
    return min(len(p.terms) * len(q.terms), comb(degree + variables, variables))


def _sum_terms(f: RatFunc, g: RatFunc) -> int:
    """An upper bound on the term counts of the cross-multiplied form of
    f + g and f - g, before anything cancels: of f.num*g.den +- g.num*f.den
    and of f.den*g.den.

    The reduced value can have more terms: x^5/(x-1) - 1/(x-1) is bounded by
    4, but reduces to x^4+x^3+x^2+x+1 over 1.
    """
    return max(_product_terms(f.num, g.den) + _product_terms(g.num, f.den),
               _product_terms(f.den, g.den))


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
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
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
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r} in {self.text!r}")
        return tok


def parse_element(text: str) -> RatFunc:
    """Parse an element of the fraction field k(x, y) (optionally with a)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression")
    toks = _Tokenizer(text)
    value = _parse_sum(toks)
    if toks.peek()[0] != "end":
        raise ExprSyntaxError(f"trailing input {toks.peek()[1]!r} in {text!r}")
    _check_bits(_number_bits(value))
    return value


def _parse_sum(toks: _Tokenizer) -> RatFunc:
    first = toks.index
    value = _parse_product(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_product(toks)
        terms = _sum_terms(value, rhs)
        if terms > MAX_POWER_TERMS:
            total = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"sum too large: {total} may have up to {terms} "
                             f"terms, and a sum may have at most {MAX_POWER_TERMS}")
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(toks: _Tokenizer) -> RatFunc:
    first = toks.index
    value = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks)
        if op == "/" and rhs.is_zero:
            raise ExprSyntaxError("division by zero")
        num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
        terms = max(_product_terms(value.num, num), _product_terms(value.den, den))
        if terms > MAX_POWER_TERMS:
            product = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"product too large: {product} may have up to {terms} "
                             f"terms, and a product may have at most {MAX_POWER_TERMS}")
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_factor(toks: _Tokenizer) -> RatFunc:
    if toks.peek()[0] == "-":
        toks.next()
        return -_parse_factor(toks)
    if toks.peek()[0] == "+":
        toks.next()
        return _parse_factor(toks)
    return _parse_power(toks)


def _parse_power(toks: _Tokenizer) -> RatFunc:
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
    if exponent < 0 and base.is_zero:
        raise ExprSyntaxError("division by zero")
    n = abs(exponent)
    # c^n has at least (bits(c) - 1) * n bits: refuse before computing it
    _check_bits((_constant_bits(base) - 1) * n)
    terms = max(_power_terms(base.num, n), _power_terms(base.den, n))
    if terms > MAX_POWER_TERMS:
        power = "".join(text for _, text in toks.tokens[first:toks.index])
        raise InputError(f"power too large: {power} may have up to {terms} "
                         f"terms, and a power may have at most {MAX_POWER_TERMS}")
    return base ** exponent


def _parse_atom(toks: _Tokenizer) -> RatFunc:
    kind, text = toks.next()
    if kind == "num":
        return RatFunc.from_const(_int_literal(text))
    if kind == "name":
        slot = _VAR_SLOTS.get(text)
        if slot is None:
            raise ExprSyntaxError(f"unknown symbol {text!r}: only x, y, a are allowed")
        return RatFunc(Poly.variable(slot))
    if kind == "(":
        value = _parse_sum(toks)
        toks.expect(")")
        return value
    if kind == "end":
        raise ExprSyntaxError("unexpected end of expression")
    raise ExprSyntaxError(f"unexpected token {text!r}")
