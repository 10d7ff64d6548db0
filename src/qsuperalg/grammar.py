"""Parser for the canonical operator grammar emitted by the printers.

    expr   := term (" + " term)*
    term   := [coeff " * "] factor (" " factor)*
    factor := "x(l,m)" | "D(l,m)" | "d(l,m)" | "q^{" lin "}" | "[" lin "]"
              | "{" lin "}"
    lin    := "0" | [sign] token (sign token)*
    token  := [n] "M(l,m)" | [n] "L(i)" | n

Used by the test suite to round-trip generator listings back into
operator expressions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import RingElem
from .operators import LinForm, OpExpr


_LIN_TOKEN = re.compile(
    r"([+-]?)(?:(\d*)(?:M\((\d+),(\d+)\)|L\((\d+)\))|(\d+))")
_FACTOR = re.compile(
    r"([xDd])\((\d+),(\d+)\)|q\^\{([^}]*)\}|\[([^\]]*)\]|\{([^}]*)\}")
_COEFF = re.compile(r"^(-?\d+(?:/\d+)?) \* ")


class GrammarError(ValueError):
    pass


def _position(cs, l, m):
    """The chart position of the coordinate (l, m), from their digits."""
    try:
        return cs.pos[(int(l), int(m))]
    except KeyError:
        raise GrammarError("no coordinate (%s,%s) for M=%d N=%d"
                           % (l, m, cs.M, cs.N)) from None


def parse_linform(text, cs):
    text = text.strip()
    if text == "0":
        return LinForm()
    if not text:
        raise GrammarError("empty linear form")
    coeffs, lam, const = {}, [], 0
    pos = 0
    for m in _LIN_TOKEN.finditer(text):
        # every token after the first is joined to the last by its sign
        if m.start() != pos or (pos and not m.group(1)):
            raise GrammarError("bad linear form: %r" % text)
        pos = m.end()
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        if m.group(3):  # M(l,m)
            p = _position(cs, m.group(3), m.group(4))
            coeffs[p] = coeffs.get(p, 0) + sign * mag
        elif m.group(5):  # L(i)
            i = int(m.group(5))
            if i < 1:
                raise GrammarError("weights are numbered from 1: %r" % text)
            lam.append((i, sign * mag))
        else:  # bare integer
            const += sign * int(m.group(6))
    if pos != len(text):
        raise GrammarError("trailing junk in linear form: %r" % text)
    return LinForm(coeffs, const, lam)


def parse_opexpr(text, cs):
    text = text.strip()
    if text == "0":
        return OpExpr.zero(cs)
    terms = []
    for part in text.split(" + "):
        part = part.strip()
        if not part:
            raise GrammarError("empty term in %r" % text)
        coeff = RingElem.from_rational(1)
        m = _COEFF.match(part)
        if m:
            try:
                coeff = RingElem.from_rational(Fraction(m.group(1)))
            except ZeroDivisionError:
                raise GrammarError("zero denominator in coefficient %r"
                                   % m.group(1)) from None
            part = part[m.end():]
        ops = []
        pos = 0
        while pos < len(part):
            if part[pos] == " ":
                pos += 1
                continue
            m = _FACTOR.match(part, pos)
            if not m:
                raise GrammarError("bad factor at %r" % part[pos:])
            pos = m.end()
            if m.group(1):
                ops.append((m.group(1), _position(cs, m.group(2), m.group(3))))
            elif m.group(4) is not None:
                ops.append(("qpow", parse_linform(m.group(4), cs)))
            elif m.group(5) is not None:
                ops.append(("qnum", parse_linform(m.group(5), cs)))
            else:
                ops.append(("lin", parse_linform(m.group(6), cs)))
        terms.append((coeff, tuple(ops)))
    return OpExpr(cs, terms)
