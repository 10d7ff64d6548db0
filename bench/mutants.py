"""Seeded single-token mutants of a generator listing.

A mutant is the listing text with exactly one sign flipped: the sign of
one ``M(l,m)`` or ``L(i)`` term of a linear form, of one integer constant
of a linear form, or of one ``c * `` term coefficient.  Only the text is
edited; the program under test parses the result itself.

The stream is a pure function of the listing and the seed, so it is
byte-stable: ``python3 bench/mutants.py --seed 7`` prints the same edits
on every machine and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re

LISTING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "listing_11_prop3.txt")
LISTING_M = 1   # the listing is `qsuperalg generators --M 1 --N 1`

# Sites are grouped by the operator term they edit ("f1:2" is the third
# term of f1).  Flips inside one term cost about the same to verify, but
# terms differ by up to 2.5x, because the term decides how many suites
# fail early.  The terms are put in three classes by that cost, measured
# at the first benchmarked commit (3.8-4.4 s, 2.7-3.2 s and 1.7-1.9 s per
# mutant), and every pass draws a fixed number of terms from each class.
# So every seed gives a pass of about the same length.
CLASSES = (
    (3, ("t1:0", "t2:0", "t3:0", "e2:0", "e3:0", "e3:2")),
    (3, ("f1:1", "f2:1", "f3:0", "f3:1", "f3:2")),
    (3, ("f1:0", "f1:2", "f2:0", "f2:2")),
)

_FORM = re.compile(r"q\^\{([^}]*)\}|\[([^\]]*)\]|\{([^}]*)\}")
_TERM = re.compile(r"[+-]?(?:\d*(?:M\((\d+),(\d+)\)|L\(\d+\))|\d+)")
_COEFF = re.compile(r"(?:(?<= = )|(?<= \+ ))(-?\d+) \* ")
_COORD_OP = re.compile(r"([xDd])\((\d+),(\d+)\)")


def _flip(token, first):
    """The token with its sign flipped, as the printer would write it."""
    if token.startswith("-"):
        return token[1:] if first else "+" + token[1:]
    if token.startswith("+"):
        return "-" + token[1:]
    return "-" + token


def _reads_zero(coord, later):
    """Whether ``M(coord)`` is always 0 where a factor evaluates it.

    ``later`` is the text of the factors that act before it (to its
    right).  When the first of them to touch an odd coordinate is a
    derivative, that coordinate is absent, so the flip changes nothing.
    """
    l, m = coord
    if not l <= LISTING_M + 1 <= m:
        return False
    for op in _COORD_OP.finditer(later):
        if (int(op.group(2)), int(op.group(3))) == coord:
            return op.group(1) in "Dd"
    return False


def sites(text):
    """Every single-token sign flip of ``text`` that changes the operator.

    Each site is a dict with the generator name, the operator term it
    edits, the character offset in the whole text, the old token and its
    replacement, in text order.  Zero constants and flips of a number
    operator that always reads 0 (see ``_reads_zero``) are left out.
    """
    out = []
    line_start = 0
    for line in text.splitlines(keepends=True):
        name = line.split(" = ", 1)[0]
        found = []
        for m in _FORM.finditer(line):
            group = next(g for g in (1, 2, 3) if m.group(g) is not None)
            body, base = m.group(group), m.start(group)
            term_end = line.find(" + ", m.end())
            later = line[m.end():None if term_end < 0 else term_end]
            for k, t in enumerate(_TERM.finditer(body)):
                if t.group().lstrip("+-") == "0":
                    continue
                if t.group(1) and _reads_zero(
                        (int(t.group(1)), int(t.group(2))), later):
                    continue
                found.append((base + t.start(), t.group(),
                              _flip(t.group(), k == 0)))
        for m in _COEFF.finditer(line):
            if int(m.group(1)):
                found.append((m.start(1), m.group(1),
                              _flip(m.group(1), True)))
        for col, old, new in sorted(found):
            term = line[:col].count(" + ")
            out.append({"gen": name, "term": "%s:%d" % (name, term),
                        "offset": line_start + col, "old": old, "new": new})
        line_start += len(line)
    return out


def apply_site(text, site):
    """The listing with one site edited."""
    i, old = site["offset"], site["old"]
    if text[i:i + len(old)] != old:
        raise ValueError("site %r does not match the listing" % (site,))
    return text[:i] + site["new"] + text[i + len(old):]


def describe(site):
    return "%s@%d %s->%s" % (site["gen"], site["offset"], site["old"],
                             site["new"])


def stream(text, seed):
    """The mutants of one pass, chosen by ``seed``.

    From each class of ``CLASSES`` the seed draws the given number of
    distinct terms, then one site in each drawn term; the order of the
    pass is shuffled by the same seed.
    """
    by_term = {}
    for s in sites(text):
        by_term.setdefault(s["term"], []).append(s)
    rng = random.Random(seed)
    picked = []
    for count, terms in CLASSES:
        pool = list(terms)
        for _ in range(count):
            term = by_term[pool.pop(rng.randrange(len(pool)))]
            picked.append(term[rng.randrange(len(term))])
    order = []
    while picked:
        order.append(picked.pop(rng.randrange(len(picked))))
    return order


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    cfg = ap.parse_args()
    with open(LISTING, encoding="utf-8") as fh:
        text = fh.read()
    for s in stream(text, cfg.seed):
        print(json.dumps(s, sort_keys=True))


if __name__ == "__main__":
    main()
