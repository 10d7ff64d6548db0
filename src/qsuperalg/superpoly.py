"""Super-polynomial coordinate space for sl(M+1|N+1) realizations.

Coordinates x(l,m) with 1 <= l <= m <= M+N+1 split into commuting z's and
Grassmann theta's.  Monomials are sparse exponent vectors in a fixed
row-major canonical order; every Grassmann sign in the engine is computed
against that order.

Every coordinate operator is one step, ``shift_coord``: it moves the
exponent at one position by +1 (multiplication by x(l,m)) or by -1 (the
derivative D(l,m) or d(l,m), whose factor [n] or n the operator layer
multiplies in) under two rules:

  * range: an exponent stays >= 0, and <= 1 on an odd coordinate, so
    th^2 = 0 and the derivative of a monomial without the coordinate is 0;
  * Koszul sign: a step at an odd coordinate passes every odd coordinate
    before it in the monomial, each giving a factor -1; a step at an even
    coordinate gives none.

The Grassmann derivative is the same step as the q-difference with
[1] = 1, so no other function reads a coordinate's parity to act on it.
"""

from __future__ import annotations

from .scalars import ONE


def coord_parity(l, m, M, N):
    """True for a Grassmann (odd) coordinate, False for a commuting one."""
    K = M + N + 1
    if not (1 <= l <= m <= K):
        raise ValueError("coordinate (%d,%d) out of range for M=%d N=%d" % (l, m, M, N))
    return l <= M + 1 and m >= M + 1


class CoordSystem:
    """The coordinate chart for a fixed (M, N): index maps and parities."""

    __slots__ = ("M", "N", "K", "coords", "pos", "odd", "ncoords")

    def __init__(self, M, N):
        if M < 0 or N < 0:
            raise ValueError("M and N must be non-negative")
        self.M, self.N = M, N
        self.K = M + N + 1
        self.coords = tuple((l, m) for l in range(1, self.K + 1)
                            for m in range(l, self.K + 1))
        self.pos = {c: i for i, c in enumerate(self.coords)}
        self.odd = tuple(coord_parity(l, m, M, N) for l, m in self.coords)
        self.ncoords = len(self.coords)

    def __eq__(self, other):
        return isinstance(other, CoordSystem) and (self.M, self.N) == (other.M, other.N)

    def __hash__(self):
        return hash((self.M, self.N))

    def __repr__(self):
        return "CoordSystem(M=%d, N=%d)" % (self.M, self.N)


# A monomial is a tuple of (position, exponent) pairs, sorted by position,
# with all exponents positive and odd exponents equal to 1.
MONO_ONE = ()


def shift_coord(cs, pos, mono, d):
    """The coordinate step: move the exponent at ``pos`` by ``d``.

    d = +1 is x(l,m), d = -1 is D(l,m) or d(l,m) before the factor the
    derivative brings down.  Returns (sign, n, monomial), n being the old
    exponent at ``pos``, or None when the new exponent would leave its
    range.  The sign is 1 on an even ``pos``, and on an odd one -1 raised
    to the number of odd coordinates before ``pos`` in the monomial.
    """
    odd = cs.odd
    sign = 1
    k = 0
    for p, n in mono:
        if p >= pos:
            break
        if odd[p]:
            sign = -sign
        k += 1
    else:  # every position is below pos, or the monomial is 1
        p = None
    if p == pos:
        tail = mono[k + 1:]
    else:
        n, tail = 0, mono[k:]
    e = n + d
    if e < 0 or e > 1 and odd[pos]:
        return None
    head = mono[:k]
    return (sign if odd[pos] else 1, n,
            head + ((pos, e),) + tail if e else head + tail)


def mono_render(cs, mono):
    if not mono:
        return "1"
    parts = []
    for p, e in mono:
        l, m = cs.coords[p]
        if cs.odd[p]:
            parts.append("th(%d,%d)" % (l, m))
        else:
            parts.append("z(%d,%d)" % (l, m) + ("^%d" % e if e > 1 else ""))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# polynomials: dict monomial -> RingElem, no zero coefficients stored
# ---------------------------------------------------------------------------

def poly_one():
    return {MONO_ONE: ONE}


def poly_add_term(poly, mono, coeff):
    """Accumulate coeff onto poly[mono] in place."""
    cur = poly.get(mono)
    if cur is None:
        if not coeff.is_zero():
            poly[mono] = coeff
    else:
        s = cur + coeff
        if s.is_zero():
            del poly[mono]
        else:
            poly[mono] = s


def poly_scale(a, c):
    if c.is_zero():
        return {}
    return {mono: v * c for mono, v in a.items()}


def poly_sub(a, b):
    out = dict(a)
    for mono, c in b.items():
        poly_add_term(out, mono, -c)
    return out


def poly_eq(a, b):
    if set(a) != set(b):
        return False
    return all(a[m] == b[m] for m in a)


def poly_render(cs, a):
    if not a:
        return "0"
    parts = []
    for mono in sorted(a):
        c = a[mono]
        ctext = c.render()
        if " " in ctext or "+" in ctext[1:] or "-" in ctext[1:]:
            ctext = "(" + ctext + ")"
        mtext = mono_render(cs, mono)
        if mono == MONO_ONE:
            parts.append(ctext)
        elif ctext == "1":
            parts.append(mtext)
        else:
            parts.append(ctext + " " + mtext)
    return " + ".join(parts)
