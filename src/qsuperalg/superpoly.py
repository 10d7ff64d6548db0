"""Super-polynomial coordinate space for sl(M+1|N+1) realizations.

Coordinates x(l,m) with 1 <= l <= m <= M+N+1 split into commuting z's and
Grassmann theta's, numbered by position in a fixed row-major canonical
order; every Grassmann sign in the engine is computed against that order.
A monomial is one int: the exponent of position p sits in the 16-bit field
at bit 16 p, so the monomial 1 is ``MONO_ONE = 0``.  ``mono_pack`` and
``mono_pairs`` convert between that int and (position, exponent) pairs.

Every coordinate operator is one step, ``shift_coord``: it moves the
exponent at one position by +1 (multiplication by x(l,m)) or by -1 (the
derivative D(l,m) or d(l,m), whose factor [n] or n the operator layer
multiplies in) under two rules:

  * range: an exponent stays >= 0, and <= 1 on an odd coordinate, so
    th^2 = 0 and the derivative of a monomial without the coordinate is 0;
    an even exponent past the field's top, 0xFFFF, raises OverflowError
    instead of carrying into the next field;
  * Koszul sign: a step at an odd coordinate passes every odd coordinate
    before it in the monomial, each giving a factor -1; a step at an even
    coordinate gives none.  An odd exponent is 0 or 1, so the sign is the
    parity of the bit count of the monomial under the position's mask:
    the low bit of each odd field before an odd position, 0 for an even
    one.

The Grassmann derivative is the same step as the q-difference with
[1] = 1, so no other function reads a coordinate's parity to act on it.
"""

from __future__ import annotations

FIELD_BITS = 16
FIELD_TOP = (1 << FIELD_BITS) - 1
MONO_ONE = 0


def coord_parity(l, m, M, N):
    """True for a Grassmann (odd) coordinate, False for a commuting one."""
    K = M + N + 1
    if not (1 <= l <= m <= K):
        raise ValueError("coordinate (%d,%d) out of range for M=%d N=%d" % (l, m, M, N))
    return l <= M + 1 and m >= M + 1


class CoordSystem:
    """The coordinate chart for a fixed (M, N): index maps and parities."""

    __slots__ = ("M", "N", "K", "coords", "pos", "odd", "ncoords",
                 "sign_mask", "odd_low")

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
        # per position, the low bit of each odd field before it; 0 on an
        # even position, whose step passes no sign
        self.sign_mask = tuple(
            sum(1 << FIELD_BITS * q for q in range(p) if self.odd[q])
            if odd else 0 for p, odd in enumerate(self.odd))
        # the low bit of every odd field
        self.odd_low = sum(1 << FIELD_BITS * p
                           for p, odd in enumerate(self.odd) if odd)

    def __eq__(self, other):
        return isinstance(other, CoordSystem) and (self.M, self.N) == (other.M, other.N)

    def __hash__(self):
        return hash((self.M, self.N))

    def __repr__(self):
        return "CoordSystem(M=%d, N=%d)" % (self.M, self.N)


def mono_pack(pairs):
    """The monomial with the given (position, exponent) pairs."""
    mono = 0
    for p, e in pairs:
        if not 0 <= e <= FIELD_TOP:
            raise OverflowError("exponent %d leaves the monomial field "
                                "[0, %d]" % (e, FIELD_TOP))
        mono += e << FIELD_BITS * p
    return mono


def mono_pairs(mono):
    """The (position, exponent) pairs of a monomial, by position, without
    zero exponents."""
    pairs = []
    p = 0
    while mono:
        e = mono & FIELD_TOP
        if e:
            pairs.append((p, e))
        mono >>= FIELD_BITS
        p += 1
    return tuple(pairs)


def shift_coord(cs, pos, mono, d):
    """The coordinate step: move the exponent at ``pos`` by ``d``.

    d = +1 is x(l,m), d = -1 is D(l,m) or d(l,m) before the factor the
    derivative brings down.  Returns (sign, n, monomial), n being the old
    exponent at ``pos``, or None when the new exponent would leave its
    range.  The sign is 1 on an even ``pos``, and on an odd one -1 raised
    to the number of odd coordinates before ``pos`` in the monomial.
    """
    shift = FIELD_BITS * pos
    n = mono >> shift & FIELD_TOP
    e = n + d
    if e < 0 or e > 1 and cs.odd[pos]:
        return None
    if e > FIELD_TOP:
        raise OverflowError("exponent %d of coordinate (%d,%d) leaves the "
                            "monomial field [0, %d]"
                            % ((e,) + cs.coords[pos] + (FIELD_TOP,)))
    return (-1 if (mono & cs.sign_mask[pos]).bit_count() & 1 else 1, n,
            mono + (d << shift))


def mono_render(cs, mono):
    if not mono:
        return "1"
    parts = []
    for p, e in mono_pairs(mono):
        l, m = cs.coords[p]
        if cs.odd[p]:
            parts.append("th(%d,%d)" % (l, m))
        else:
            parts.append("z(%d,%d)" % (l, m) + ("^%d" % e if e > 1 else ""))
    return " ".join(parts)


def poly_render(cs, a):
    if not a:
        return "0"
    parts = []
    for mono in sorted(a, key=mono_pairs):
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
