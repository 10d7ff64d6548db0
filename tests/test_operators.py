"""Tests for operator expressions: elementary actions, sums and products
with nested factors, parity bookkeeping, extensional equality and the
memo of images each nested node keeps."""

import gc
import sys
import types
from fractions import Fraction
from math import inf

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qsuperalg.scalars import RingElem, ONE, MINUS_ONE, qpow, qnum
from qsuperalg import operators, superpoly, verify
from qsuperalg.algebra import (GeneratorSet, build_classical, build_quantum,
                               build_root_data)
from qsuperalg.superpoly import CoordSystem, MONO_ONE, mono_pack, mono_pairs
from qsuperalg.operators import (LinForm, OpExpr, ContextMismatch,
                                 MixedParity, graded_commutator,
                                 basis_monomials, first_failure)


CS = CoordSystem(1, 0)          # coords: z(1,1), th(1,2), th(2,2)
Z, T1, T2 = 0, 1, 2


def x(pos):
    return OpExpr.term(CS, (("x", pos),))


def D(pos):
    return OpExpr.term(CS, (("D", pos),))


# ---------------------------------------------------------------------------
# elementary actions
# ---------------------------------------------------------------------------

def test_q_difference_on_a_power():
    # D z^3 = [3] z^2
    img = D(Z).apply_monomial(mono_pack(((Z, 3),)))
    assert img == {mono_pack(((Z, 2),)): qnum(3)}
    assert D(Z).apply_monomial(MONO_ONE) == {}


def test_grassmann_derivative_is_left_acting():
    mono = mono_pack(((T1, 1), (T2, 1)))
    assert D(T1).apply_monomial(mono) == {mono_pack(((T2, 1),)): ONE}
    assert D(T2).apply_monomial(mono) == {mono_pack(((T1, 1),)): MINUS_ONE}


def test_coordinate_multiplication_kills_odd_squares():
    assert x(T1).apply_monomial(mono_pack(((T1, 1),))) == {}
    assert x(T1).apply_monomial(mono_pack(((T2, 1),))) \
        == {mono_pack(((T1, 1), (T2, 1))): ONE}


def test_qpow_acts_as_eigenvalue():
    op = OpExpr.term(CS, (("qpow", LinForm({Z: 1, T1: 1})),))
    img = op.apply_monomial(mono_pack(((Z, 3), (T1, 1))))
    assert img == {mono_pack(((Z, 3), (T1, 1))): qpow(4)}


def test_qnum_op_acts_as_q_integer():
    op = OpExpr.term(CS, (("qnum", LinForm({Z: 1}, -1)),))
    assert op.apply_monomial(mono_pack(((Z, 3),))) \
        == {mono_pack(((Z, 3),)): qnum(2)}
    # [0] annihilates
    assert op.apply_monomial(mono_pack(((Z, 1),))) == {}


def test_zero_coefficient_gives_the_zero_image():
    mono = mono_pack(((Z, 3),))
    for op in (D(Z), x(T1) @ (x(Z) + D(Z))):
        assert op.scale(RingElem.from_rational(0)).apply_monomial(mono) == {}


def test_a_coefficient_argument_is_refused():
    """The image is always that of the monomial with coefficient 1; a
    coefficient is a scaled operator."""
    mono = mono_pack(((Z, 3),))
    for op in (D(Z), x(T1) @ (x(Z) + D(Z))):
        with pytest.raises(TypeError):
            op.apply_monomial(mono, ONE)


def test_classical_derivative():
    op = OpExpr.term(CS, (("d", Z),))
    img = op.apply_monomial(mono_pack(((Z, 3),)))
    assert img == {mono_pack(((Z, 2),)): RingElem.from_rational(3)}


def test_lin_op_multiplies_by_form_value():
    op = OpExpr.term(CS, (("lin", LinForm({Z: 2}, 1)),))
    img = op.apply_monomial(mono_pack(((Z, 2),)))
    assert img == {mono_pack(((Z, 2),)): RingElem.from_rational(5)}


# ---------------------------------------------------------------------------
# algebra of expressions
# ---------------------------------------------------------------------------

def test_sum_and_scale():
    op = x(Z) + x(Z).scale(MINUS_ONE)
    assert first_failure([(op, OpExpr.zero(CS))], 3) is None
    op = x(Z).scale(qpow(2)) - x(Z).scale(qpow(2))
    assert first_failure([(op, OpExpr.zero(CS))], 3) is None


def test_composition_is_right_to_left():
    # (x D) z^2 = [2] z^2 but (D x) z^2 = [3] z^2
    xd = x(Z) @ D(Z)
    dx = D(Z) @ x(Z)
    assert xd.apply_monomial(mono_pack(((Z, 2),))) \
        == {mono_pack(((Z, 2),)): qnum(2)}
    assert dx.apply_monomial(mono_pack(((Z, 2),))) \
        == {mono_pack(((Z, 2),)): qnum(3)}


def test_composition_is_associative_extensionally():
    a, b, c = x(Z), D(T1), x(T2)
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assert first_failure([(lhs, rhs)], 4) is None


def test_lazy_product_matches_sequential_application():
    num = OpExpr.term(CS, (("qnum", LinForm({Z: 1})),))
    prod = num @ x(Z) @ D(Z)
    mono = mono_pack(((Z, 2),))
    step = {mono: ONE}
    for op in (D(Z), x(Z), num):
        (m, c), = step.items()
        step = op.scale(c).apply_monomial(m)
    assert prod.apply_monomial(mono) == step


def test_number_operator_shift_identity():
    # [M] x = x [M + 1] as operators on everything of degree <= 4
    num = OpExpr.term(CS, (("qnum", LinForm({Z: 1})),))
    num1 = OpExpr.term(CS, (("qnum", LinForm({Z: 1}, 1)),))
    assert first_failure([(num @ x(Z), x(Z) @ num1)], 4) is None


def test_context_mismatch_rejected():
    other = CoordSystem(0, 1)
    with pytest.raises(ContextMismatch):
        x(Z) + OpExpr.term(other, (("x", 0),))
    with pytest.raises(ContextMismatch):
        x(Z) @ OpExpr.term(other, (("x", 0),))


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

def test_parity_counts_odd_coordinate_ops():
    assert x(Z).parity() == 0
    assert x(T1).parity() == 1
    assert (x(T1) @ D(T2)).parity() == 0
    assert (x(Z) @ D(T2)).parity() == 1
    assert OpExpr.zero(CS).parity() == 0


def test_mixed_parity_is_an_error():
    with pytest.raises(MixedParity):
        (x(Z) + x(T1)).parity()
    # the terms of a sum can carry nested factors
    with pytest.raises(MixedParity):
        ((x(Z) + D(Z)) @ x(Z) + x(T1)).parity()


def test_graded_commutator_signs():
    # even/even and even/odd use a minus, odd/odd uses a plus
    even, odd = x(Z), x(T1)
    zero = OpExpr.zero(CS)
    assert first_failure([(graded_commutator(even, even), zero)], 3) is None
    # theta12 theta22 + theta22 theta12 = 0
    assert first_failure([(graded_commutator(x(T1), x(T2)), zero)],
                         3) is None
    # twisted bracket [a, b]_xi = ab - (-1)^{|a||b|} xi ba
    tw = graded_commutator(even, even, qpow(1))
    expect = even @ even - (even @ even).scale(qpow(1))
    assert first_failure([(tw, expect)], 3) is None


# ---------------------------------------------------------------------------
# bases and extensional equality
# ---------------------------------------------------------------------------

def test_basis_is_graded_and_respects_nilpotency():
    monos = list(basis_monomials(CS, 2))
    assert monos[0] == MONO_ONE
    degrees = [sum(e for _, e in mono_pairs(m)) for m in monos]
    assert degrees == sorted(degrees)
    assert mono_pack(((T1, 2),)) not in monos
    # 1 | z, th12, th22 | z^2, z th12, z th22, th12 th22
    assert len(monos) == 8


def test_basis_count_even_chart():
    cs = CoordSystem(1, 0)
    assert len(list(basis_monomials(cs, 0))) == 1
    cs3 = CoordSystem(2, 0)   # 6 coordinates, 3 of them odd
    n1 = len(list(basis_monomials(cs3, 1)))
    assert n1 == 1 + 6


def test_op_eq_reports_first_failing_monomial():
    found = first_failure([(D(Z), D(Z).scale(qpow(1)))], 2)
    assert found is not None
    mono, residual = found[1:]
    assert mono == mono_pack(((Z, 1),))   # D z distinguishes them first
    assert residual


def test_op_eq_requires_matching_charts():
    with pytest.raises(ContextMismatch):
        first_failure([(x(Z), OpExpr.term(CoordSystem(0, 1), (("x", 0),)))],
                      1)


def test_first_failure_takes_any_iterable_of_pairs():
    pairs = [(x(Z), x(Z)), (D(Z), D(Z).scale(qpow(1)))]
    want = first_failure(pairs, 2)
    assert want[:2] == (1, mono_pack(((Z, 1),)))
    assert first_failure((p for p in pairs), 2) == want
    other = OpExpr.term(CoordSystem(0, 1), (("x", 0),))
    with pytest.raises(ContextMismatch):
        first_failure((p for p in [(x(Z), x(Z)), (other, other)]), 2)


# ---------------------------------------------------------------------------
# nested factors
# ---------------------------------------------------------------------------

def test_compose_inlines_unit_terms_and_nests_the_rest():
    s = x(Z) + D(Z)
    op = x(T1) @ s @ D(T2)
    assert op.terms == ((ONE, (("x", T1), s, ("D", T2))),)
    assert op.render() == "x(1,2) (x(1,1) + D(1,1)) D(2,2)"
    scaled = x(Z).scale(qpow(1))
    assert (scaled @ x(Z)).terms[0][1] == (scaled, ("x", Z))
    assert (x(Z) @ OpExpr.identity(CS)).terms == ((ONE, (("x", Z),)),)


def _elementary(cs):
    lfs = (LinForm({0: 1}), LinForm({0: 1, cs.ncoords - 1: -1}, 1, ((1, 1),)))
    return ([(kind, p) for kind in ("x", "D", "d")
             for p in range(cs.ncoords)]
            + [(kind, lf) for kind in ("qpow", "qnum", "lin") for lf in lfs])


_SCALARS = (MINUS_ONE, qpow(1), qnum(2), qpow(-1, ((1, 1),)),
            RingElem.from_rational(Fraction(1, 2)), qnum(0, ((1, 1),)))


def _times(a, b):
    """The product a b multiplied out: each term of a before each of b."""
    return OpExpr(a.cs, [(ca * cb, fa + fb) for ca, fa in a.terms
                         for cb, fb in b.terms])


def _scaled(a, c):
    return OpExpr(a.cs, [(tc * c, f) for tc, f in a.terms])


def _pairs(cs):
    """(tree, flat): an operator of one parity built from elementary atoms
    by sums, products, scaling, powers and brackets, whose operands become
    nested factors, and the same operator with every nested factor
    multiplied out at each step, a sum of elementary products."""
    def add(a, b):
        if a[0].parity() != b[0].parity():   # keep every operator homogeneous
            return compose(a, b)
        return a[0] + b[0], OpExpr(cs, a[1].terms + b[1].terms)

    def compose(a, b):
        return a[0] @ b[0], _times(a[1], b[1])

    def scale(a, c):
        return a[0].scale(c), _scaled(a[1], c)

    def power(a, n):
        tree = flat = OpExpr.identity(cs)
        for _ in range(n):
            tree, flat = tree @ a[0], _times(flat, a[1])
        return tree, flat

    def bracket(a, b, xi):
        factor = ONE if a[0].parity() and b[0].parity() else MINUS_ONE
        if xi is not None:
            factor = factor * xi
        flat = _times(a[1], b[1]).terms \
            + _scaled(_times(b[1], a[1]), factor).terms
        return graded_commutator(a[0], b[0], xi), OpExpr(cs, flat)

    def extend(kids):
        return st.one_of(
            st.builds(add, kids, kids),
            st.builds(compose, kids, kids),
            st.builds(scale, kids, st.sampled_from(_SCALARS)),
            st.builds(power, kids, st.integers(0, 2)),
            st.builds(bracket, kids, kids, st.sampled_from((None, qpow(1)))))

    atoms = st.sampled_from(_elementary(cs)).map(
        lambda op: (OpExpr.term(cs, (op,)), OpExpr.term(cs, (op,))))
    return st.recursive(atoms, extend, max_leaves=6)


@pytest.mark.parametrize("cs", [CoordSystem(1, 0), CoordSystem(1, 1)],
                         ids=["(1,0)", "(1,1)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nested_evaluation_matches_multiplied_out_form(cs, data):
    tree, flat = data.draw(_pairs(cs))
    coeff = data.draw(st.sampled_from((ONE,) + _SCALARS))
    assert not any(isinstance(f, OpExpr)
                   for _, factors in flat.terms for f in factors)
    for mono in basis_monomials(cs, 3):
        img = tree.scale(coeff).apply_monomial(mono)
        assert img == {m: c * coeff
                       for m, c in flat.apply_monomial(mono).items()}, \
            (tree.render(), mono)


# ---------------------------------------------------------------------------
# the image memo: support-restricted keys, one memo per nested node
# ---------------------------------------------------------------------------

def _unshared(op):
    """The same operator with a fresh node object for every nested factor,
    so that no node is reached twice."""
    return OpExpr(op.cs, [(c, tuple(_unshared(f) if isinstance(f, OpExpr)
                                    else f for f in factors))
                          for c, factors in op.terms])


def _add_term(poly, mono, coeff):
    """poly[mono] += coeff in place by ``RingElem.__add__``, dropping the
    monomial when its coefficient cancels."""
    s = poly[mono] + coeff if mono in poly else coeff
    if s.is_zero():
        poly.pop(mono, None)
    else:
        poly[mono] = s


def _unmemoised(op, poly):
    """op applied to poly one factor at a time, nested factors recursively
    and elementary ones as single-factor operators, which keep no memo."""
    out = {}
    for tc, factors in op.terms:
        cur = {m: c * tc for m, c in poly.items()}
        for f in reversed(factors):
            if isinstance(f, OpExpr):
                cur = _unmemoised(f, cur)
                continue
            step, nxt = OpExpr.term(op.cs, (f,)), {}
            for m, c in cur.items():
                for m2, c2 in step.scale(c).apply_monomial(m).items():
                    _add_term(nxt, m2, c2)
            cur = nxt
        for m, c in cur.items():
            _add_term(out, m, c)
    return out


def _shared_node_operators(gens):
    """Operators in which one node object occurs at several depths."""
    f, X = gens.f[2], gens.f[1]               # X = X(1,1) is even
    Y = gens.roots[1, 2]                      # nests f_1 and f_2 again
    ops = {"f X^3": f @ X @ X @ X,
           "[X, X^2]_q": graded_commutator(X, X @ X, qpow(1)),
           "X f X": X @ f @ X,
           "[f, Y] X": graded_commutator(f, Y) @ X}
    if gens.data.K >= 3:
        rv = gens.roots                       # X(2,3) nests X(3,3) = f_3
        ops["X(2,3) X(3,3)"] = rv[2, 3] @ rv[3, 3]
    return ops


def _fields(cs, mask):
    return {p for p in range(cs.ncoords)
            if mask >> superpoly.FIELD_BITS * p & superpoly.FIELD_TOP}


def _skips_an_odd_coordinate(cs, node):
    """Whether the node's support leaves out an odd coordinate that lies
    between two odd coordinates it touches: a monomial holding it gets a
    Koszul sign on the node's steps that the node's memo key cannot see."""
    support = _fields(cs, node._mask)
    touched = [p for p in sorted(support) if cs.odd[p]]
    return bool(touched) and any(cs.odd[p] and p not in support
                                 for p in range(touched[0], touched[-1]))


def _nested_nodes(op):
    for _, factors in op.terms:
        for f in factors:
            if isinstance(f, OpExpr):
                yield f
                yield from _nested_nodes(f)


@pytest.mark.parametrize("MN", [(1, 0), (1, 1), (2, 1), (1, 2)],
                         ids=["(1,0)", "(1,1)", "(2,1)", "(1,2)"])
def test_memoised_evaluation_matches_unshared_and_unmemoised(MN):
    gens = build_quantum(build_root_data(*MN))
    cs = gens.cs
    ops = _shared_node_operators(gens)
    if cs.K >= 4:
        assert any(_skips_an_odd_coordinate(cs, node)
                   for op in ops.values() for node in _nested_nodes(op))
    # [1 + lambda_1]: a (q - q^-1) denominator and the weight marker Q1
    coeff = qnum(1, ((1, 1),))
    monos = list(basis_monomials(cs, 3))
    for name, op in ops.items():
        scaled = op.scale(coeff)
        # the nodes' memos fill as the monomials go, as in a suite check
        imgs = [scaled.apply_monomial(mono) for mono in monos]
        for mono, img in zip(monos, imgs):
            # warm: every nested image the call needs is stored
            assert img == scaled.apply_monomial(mono), (name, mono)
            # cold: fresh nodes with empty memos
            fresh = _unshared(op).scale(coeff)
            assert img == fresh.apply_monomial(mono), (name, mono)
            assert img == _unmemoised(op, {mono: coeff}), (name, mono)


def test_support_mask_of_e1_is_its_one_field():
    gens = build_quantum(build_root_data(2, 1))
    assert gens.e[1]._mask == \
        superpoly.FIELD_TOP << superpoly.FIELD_BITS * gens.cs.pos[1, 1]


def test_support_mask_of_the_identity_is_empty():
    assert OpExpr.identity(CS)._mask == 0
    assert OpExpr.identity(CoordSystem(2, 1))._mask == 0


def test_support_mask_of_a_nested_node_is_the_union_of_its_factors():
    gens = build_quantum(build_root_data(2, 1))
    f1, f2 = gens.f[1], gens.f[2]
    X = gens.roots[1, 2]                      # [f_2, f_1]_q
    assert X._mask == f1._mask | f2._mask
    assert X._mask != f1._mask and X._mask != f2._mask
    s = x(Z) + D(Z)
    op = x(T1) @ s @ D(T2)
    assert op._mask == s._mask | x(T1)._mask | D(T2)._mask
    # a linear form's coordinates are read, so they are in the support
    lf = LinForm({T2: 1}, 1)
    assert OpExpr.term(CS, (("qpow", lf),))._mask == D(T2)._mask


def test_returned_image_is_not_shared_with_later_calls():
    gens = build_quantum(build_root_data(1, 0))
    op = _shared_node_operators(gens)["f X^3"]
    mono = mono_pack(((0, 1),))
    want = _unmemoised(op, {mono: ONE})
    assert want
    for _ in range(2):
        img = op.apply_monomial(mono)
        assert img == want
        for m in img:
            img[m] = MINUS_ONE
        img[MONO_ONE] = ONE


def _reference_first_failure(pairs, degree):
    """The pairs checked one after another, each on every basis monomial
    in canonical order, with no memo and no support skip."""
    for k, (a, b) in enumerate(pairs):
        for mono in basis_monomials(a.cs, degree):
            img_a = _unmemoised(a, {mono: ONE})
            img_b = _unmemoised(b, {mono: ONE})
            if img_a != img_b:
                residual = dict(img_a)
                for m, c in img_b.items():
                    _add_term(residual, m, -c)
                return k, mono, residual
    return None


_STEP = {"x": 1, "D": -1, "d": -1}


def _forms(cs):
    """Linear forms with small coordinate coefficients, a constant and a
    multiple of the marker Q1."""
    return st.builds(
        lambda co, const, lam: LinForm(dict(enumerate(co)), const,
                                       ((1, lam),)),
        st.lists(st.integers(-2, 2), min_size=cs.ncoords,
                 max_size=cs.ncoords),
        st.integers(-2, 2), st.integers(-1, 1))


def _graded_pairs(cs):
    """Pairs of the shape the grading decides, c (kappa l, F) against
    c (F, kappa l'), l' being l with its constant raised by k, and pairs
    c (q^l, F, q^-l) against c q^k F, a conjugation stated without the
    weight relation, which the grading leaves to the probe.  F is a drawn
    tree or zero, and k is either one of the values that the form's
    coordinate part takes on the exponent steps of F's multiplied-out
    terms, or any small integer, so that F may be inhomogeneous or of
    another grade."""
    @st.composite
    def pair(draw):
        tree, flat = draw(st.one_of(
            _pairs(cs), st.just((OpExpr.zero(cs), OpExpr.zero(cs)))))
        form = draw(_forms(cs))
        grades = sorted({sum(_STEP[kind] * form.coeffs.get(arg, 0)
                             for kind, arg in factors if kind in _STEP)
                         for _, factors in flat.terms})
        small = st.integers(-2, 2)
        k = draw(st.one_of(st.sampled_from(grades), small)
                 if grades else small)
        c = draw(st.sampled_from((ONE,) + _SCALARS))
        if draw(st.booleans()):
            kind = draw(st.sampled_from(("qpow", "qnum", "lin")))
            a = OpExpr.term(cs, ((kind, form),)) @ tree
            b = tree @ OpExpr.term(cs, ((kind, form.shift(k)),))
        else:
            a = (OpExpr.term(cs, (("qpow", form),)) @ tree
                 @ OpExpr.term(cs, (("qpow", -form),)))
            b = tree.scale(qpow(k))
        return a.scale(c), b.scale(c)
    return pair()


def _overlapping_pairs(cs):
    """Pairs whose sides share terms or output monomials, so that the two
    sides' contributions meet, and partly or wholly cancel, in the residual
    lhs - rhs: t + u against c t' + v, in either order, t' being the tree
    t itself or its multiplied-out form, c 1, -1 or another scalar, and u
    and v zero, drawn trees, or v the very u."""
    trees = _pairs(cs).map(lambda p: p[0])
    zero = st.just(OpExpr.zero(cs))

    @st.composite
    def pair(draw):
        tree, flat = draw(_pairs(cs))
        shared = draw(st.sampled_from((tree, flat)))
        c = draw(st.sampled_from((ONE,) + _SCALARS))
        u = draw(st.one_of(zero, trees))
        v = draw(st.one_of(zero, trees, st.just(u)))
        a, b = tree + u, shared.scale(c) + v
        return (b, a) if draw(st.booleans()) else (a, b)
    return pair()


def _first_order(cs):
    """Classical operators of one parity and order <= 1: sums of one to
    three scaled terms, each up to two x factors before at most one x, d
    or lin factor."""
    coords = st.sampled_from(range(cs.ncoords))
    last = st.one_of(st.tuples(st.sampled_from(("x", "d")), coords),
                     st.tuples(st.just("lin"), _forms(cs)))
    term = st.builds(lambda xs, tail: tuple(("x", p) for p in xs) + tail,
                     st.lists(coords, max_size=2),
                     st.one_of(st.just(()), last.map(lambda op: (op,))))
    scalars = st.sampled_from((ONE, MINUS_ONE, RingElem.from_rational(2),
                               RingElem.from_rational(Fraction(1, 2)),
                               qpow(0, ((1, 1),))))

    def homogeneous(terms):
        par = OpExpr.term(cs, terms[0][1]).parity()
        return OpExpr(cs, [(c, ops) for c, ops in terms
                           if OpExpr.term(cs, ops).parity() == par])
    return st.lists(st.tuples(scalars, term), min_size=1,
                    max_size=3).map(homogeneous)


def _first_order_pairs(cs):
    """Pairs whose sides have a finite order bound, which caps the probe:
    a bracket [a, b] of first-order operators, nested or flattened by
    ``compose``, against its multiplied-out form, another first-order
    operator, another bracket or a bracket nested once more, products
    a b against b a, and a b + b a, a graded bracket only when a and b
    are both odd, against zero or another first-order operator."""
    ops = _first_order(cs)
    zero = OpExpr.zero(cs)

    @st.composite
    def pair(draw):
        a, b, c = draw(ops), draw(ops), draw(ops)
        ab = graded_commutator(a, b)
        sign = ONE if a.parity() and b.parity() else MINUS_ONE
        flat = OpExpr(cs, _times(a, b).terms
                      + _scaled(_times(b, a), sign).terms)
        return draw(st.sampled_from((
            (ab, flat), (ab, c), (ab, graded_commutator(a, c)),
            (graded_commutator(c, ab), ab), (a @ b, b @ a),
            (a @ b + b @ a, draw(st.sampled_from((c, zero)))))))
    return pair()


def _pair_lists(cs):
    """Lists of (lhs, rhs) pairs: a tree against its multiplied-out form,
    which agree everywhere, two unrelated trees, which mostly do not, a
    pair of a shape the grading decides when its tree is homogeneous, a
    pair whose sides share terms or output monomials, or a pair of
    classical operators of bounded order."""
    agreeing = _pairs(cs)
    unrelated = st.tuples(_pairs(cs), _pairs(cs)).map(
        lambda ab: (ab[0][0], ab[1][0]))
    return st.lists(st.one_of(agreeing, unrelated, _graded_pairs(cs),
                              _overlapping_pairs(cs),
                              _first_order_pairs(cs)),
                    min_size=1, max_size=4)


@pytest.mark.parametrize("cs", [CoordSystem(1, 1), CoordSystem(2, 1)],
                         ids=["(1,1)", "(2,1)"])
# a failure is reported as drawn: shrinking it runs the unmemoised
# reference again for every candidate, which takes minutes
@settings(max_examples=40, deadline=None,
          phases=tuple(p for p in Phase if p is not Phase.shrink))
@given(data=st.data())
def test_support_skip_and_shared_memo_keep_the_witness(cs, data):
    """first_failure probes a pair only inside its joint support, by one
    application of its residual lhs - rhs, decides a pair by grading when
    it has the diagonal shape, and a second call on the same nodes reads
    the images the first one stored, as a generator set's later checks
    do, and a pair whose sides have a finite differential order bound is
    probed only up to that degree; none of these changes its answer from
    that of the plain loop, which applies each side apart on every
    monomial and compares the images.  A conjugation c (q^l, F, q^-l)
    against c q^k F is probed."""
    for _ in range(2):
        pairs = data.draw(_pair_lists(cs))
        degree = data.draw(st.integers(0, 3))
        want = _reference_first_failure(pairs, degree)
        assert first_failure(pairs, degree) == want    # cold
        assert first_failure(pairs, degree) == want    # warm


@pytest.mark.parametrize("build, conj", [
    (build_quantum, False), (build_classical, False), (build_quantum, True)],
    ids=["quantum", "classical", "quantum-conj"])
def test_an_inhomogeneous_weight_pair_is_probed_and_fails(monkeypatch,
                                                          build, conj):
    """t_1 (e_1 + f_1) against q^2 (e_1 + f_1) t_1 at (1,1), and the
    quantum t_1 (e_1 + f_1) t_1^-1 = q^2 (e_1 + f_1), stated as the weight
    relation of (e_1 + f_1) t_1^-1: e_1 has grade a_11 = 2 and f_1 grade
    -2, so the grading does not decide the pair; it is probed and fails
    with the reference witness.  The conjugation's witness is that of
    t_1 x t_1^-1 against q^2 x, its statement as a scaled rhs."""
    gens = build(build_root_data(1, 1))
    x = gens.e[1] + gens.f[1]
    pair = verify._weight(gens, 1, x @ gens.t_pow(1, -1) if conj else x, 2)
    applied = _record_applied(monkeypatch)
    found = first_failure([pair], 2)
    assert found is not None
    assert _residual_applied(applied, *pair)
    assert found == _reference_first_failure([pair], 2)
    if conj:
        scaled = (gens.t[1] @ x @ gens.t_pow(1, -1), x.scale(qpow(2)))
        assert found == first_failure([scaled], 2)


@pytest.mark.parametrize("build", [build_quantum, build_classical],
                         ids=["quantum", "classical"])
def test_a_mutated_weight_form_keeps_its_verdict_and_witness(monkeypatch,
                                                             build):
    """A set whose t_1 and t_form[1] read M(1,3) with the wrong sign, as a
    mutated listing would, at (1,1): every Cartan and WeightConj suite gets
    the reference verdict and witness.  The grading still decides the
    pairs it can: t_1 with each t_j, and t_1 with e_1 and e_2, whose steps
    do not reach M(1,3), before t_1 with e_3 fails."""
    gens = build(build_root_data(1, 1))
    form, p = gens.t_form[1], gens.cs.pos[1, 3]
    bad = LinForm({**form.coeffs, p: -form.coeffs[p]}, form.const, form.lam)
    (kind, _), = gens.t[1].terms[0][1]
    t, t_form = dict(gens.t), dict(gens.t_form)
    t[1], t_form[1] = OpExpr.term(gens.cs, ((kind, bad),)), bad
    mutated = GeneratorSet(gens.data, gens.cs, gens.variant, gens.weights,
                           t, gens.e, gens.f, t_form)
    suites = _suite_instances(monkeypatch, verify.check_cartan_relations,
                              mutated, 2)
    suites.update(_suite_instances(
        monkeypatch, verify.check_weight_conjugation, mutated, 2))
    decided = []
    graded = operators._graded

    def counted(a, b):
        decided.append(graded(a, b))
        return decided[-1]
    monkeypatch.setattr(operators, "_graded", counted)
    failed = {}
    for tag, instances in suites.items():
        pairs = [(lhs, rhs) for _, lhs, rhs in instances]
        del decided[:]
        found = first_failure(pairs, 2)
        assert found == _reference_first_failure(pairs, 2), tag
        failed[tag] = found and (found[0], sum(decided))
    names = sorted(suites)
    q20, q21 = names[0], names[1]      # C1, C2 or Q20, Q21
    assert failed[q20] is None
    assert failed[q21] == (2, 2)
    assert all(failed[tag] for tag in names[1:])


def _count_top_level_applies(monkeypatch):
    """Count the ``apply_monomial`` calls not made inside another one,
    those ``first_failure`` makes itself, from now on.  The returned list
    holds the running total."""
    calls, depth = [0], [0]
    apply = OpExpr.apply_monomial

    def counted(self, mono):
        if not depth[0]:
            calls[0] += 1
        depth[0] += 1
        try:
            return apply(self, mono)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(OpExpr, "apply_monomial", counted)
    return calls


def test_heisenberg_probes_each_pair_inside_its_support(monkeypatch):
    """Heis at (2,1), degree 3: 30 instances, each on one coordinate.
    Probing all 220 basis monomials took 13,200 calls, and probing each
    instance inside its support 168: an instance sees 4 monomials on an
    even coordinate (x^0 .. x^3) and 2 on an odd one, and (2,1) has 4 even
    and 6 odd coordinates.  The grading decides 53 and 54, [M] x = x [M+1]
    and [M] D = D [M-1], so only 55 and 56, one per coordinate, are
    probed, each by one application of its residual lhs - rhs per
    monomial: 28 calls.  56, D th + th D = 1 on an odd coordinate, is a
    graded bracket of order 1 + 0 - 1 = 0 against the identity, so it is
    probed at degree 0 only, on the monomial 1: 4 * 4 + 6 = 22 calls."""
    calls = _count_top_level_applies(monkeypatch)
    results = verify.check_heisenberg(CoordSystem(2, 1), 3)
    assert [r["status"] for r in results] == ["pass"]
    assert calls[0] == 4 * 4 + 6 * 1 == 22


def _suite_instances(monkeypatch, check, *args):
    """The instances of each suite that check(*args) states, by tag,
    exactly as it states them."""
    suites = {}
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_run",
                   lambda tag, degree, instances:
                   suites.setdefault(tag, list(instances)))
        check(*args)
    return suites


def _auxq41(monkeypatch):
    """The AuxQ41 instances at (1,1), nmax 3, exactly as check_aux states
    them."""
    gens = build_quantum(build_root_data(1, 1))
    return _suite_instances(monkeypatch, verify.check_aux, gens, 3,
                            3)["AuxQ41"]


def _auxq41_n3(monkeypatch):
    """AuxQ41 at (1,1), i=2, j=1, n=3."""
    (lhs, rhs), = [(lhs, rhs) for label, lhs, rhs in _auxq41(monkeypatch)
                   if label == "i=2,j=1,n=3"]
    return lhs, rhs


def _reachable(*roots):
    """Ids of the objects reachable from roots through gc.get_referents,
    not entering types, modules or callables (program state shared by
    every operator)."""
    seen = set()
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if not (isinstance(obj, (type, types.ModuleType)) or callable(obj)):
            todo.extend(gc.get_referents(obj))
    return seen


def _count_koszul_calls(monkeypatch):
    """Count the Koszul-layer steps from now on: the calls to
    ``shift_coord`` that multiply (d > 0) or act on an odd coordinate.
    The returned list holds the running total."""
    calls = [0]
    step = superpoly.shift_coord

    def counted(cs, pos, mono, d):
        if d > 0 or cs.odd[pos]:
            calls[0] += 1
        return step(cs, pos, mono, d)
    monkeypatch.setattr(superpoly, "shift_coord", counted)
    return calls


def test_auxq41_work_count(monkeypatch):
    """Koszul-layer calls for AuxQ41 (n=3) at (1,1), degree 3.

    Without the image memo this instance made 4184 such steps, and with a
    memo per basis monomial 2642.  With each nested node keeping its images,
    keyed by the part of the monomial in the node's support, a nested
    node's image is computed once for every monomial that agrees on its
    support.
    """
    lhs, rhs = _auxq41_n3(monkeypatch)
    calls = _count_koszul_calls(monkeypatch)
    assert first_failure([(lhs, rhs)], 3) is None
    assert calls[0] == 497
    assert calls[0] < 4184


def test_auxq41_with_a_wrong_q_number_fails_with_the_reference_witness(
        monkeypatch):
    """AuxQ41 at (1,1), nmax 3, with [n] replaced by [n+1] in every
    power-law instance, as a wrong power law would state it: n = 1, the
    table's own bracket, holds, the first power already fails, and the
    witness is the one the two-sided loop finds."""
    monkeypatch.setattr(verify, "qnum", lambda n: qnum(n + 1))
    instances = _auxq41(monkeypatch)
    pairs = [(lhs, rhs) for _, lhs, rhs in instances]
    found = first_failure(pairs, 3)
    assert found is not None and found[0] == 1
    assert instances[1][0] == "i=2,j=1,n=2"
    assert found == _reference_first_failure(pairs, 3)


def test_auxq41_powers_are_flat_chains_of_the_table_node(monkeypatch):
    """AuxQ41 at (2,1), nmax 3, with X = X(j,i-1), the table's own node.
    For n = 1 the pair is the bracket [f_i, X]_{q^-nu_i} against the
    table's X(j,i), the node built as that bracket, so the two sides have
    equal terms.  For n >= 2 the left side f_i X^n is the one term
    (f_i, X, ..., X) with n copies of X, and the right side X^(n-1) W is
    the one term (X, ..., X, W) with n - 1 copies of X, W's terms being
    (X, f_i) and (X(j,i),), so that the copies act once on W's merged
    image.  A power is a flat chain of the root-vector node, not a node of
    its own."""
    gens = build_quantum(build_root_data(2, 1))
    nu = gens.data.nu
    instances = _suite_instances(monkeypatch, verify.check_aux, gens, 3,
                                 3)["AuxQ41"]
    powers = set()
    for label, lhs, rhs in instances:
        i, j, n = (int(part.split("=")[1]) for part in label.split(","))
        X, f, Xji = gens.roots[j, i - 1], gens.f[i], gens.roots[j, i]
        powers.add(n)
        if n == 1:
            assert rhs is Xji
            assert lhs.terms == rhs.terms == graded_commutator(
                f, X, qpow(-nu[i])).terms
            continue
        (c, factors), = lhs.terms
        assert c.is_one() and len(factors) == n + 1 and factors[0] is f
        assert all(y is X for y in factors[1:])
        (c, factors), = rhs.terms
        assert c.is_one() and len(factors) == n
        assert all(y is X for y in factors[:-1])
        (c1, left), (c2, right) = factors[-1].terms
        assert c1 == qpow(-n * nu[i]) and c2 == qnum(n)
        assert len(left) == 2 and left[0] is X and left[1] is f
        assert right == (Xji,)
    assert powers == {1, 2, 3}


def test_weight_conjugation_work_count(monkeypatch):
    """Koszul-layer calls for WeightConj at (1,1), quantum, degree 3.

    Checked one instance after another, each with a memo of its own and
    X(l,m) built again for every i, the suite made 14736 such steps; with
    one memo per basis monomial shared by every instance 3114, and with
    each root vector keeping its images 546.  Every root vector is
    homogeneous for every t_form, so the grading decides all 18 instances
    of t_i X(l,m) = q^k X(l,m) t_i and the suite applies no operator.
    """
    gens = build_quantum(build_root_data(1, 1))
    calls = _count_koszul_calls(monkeypatch)
    results = verify.check_weight_conjugation(gens, 3)
    assert [r["status"] for r in results] == ["pass"]
    assert results[0]["instances"] == 18
    assert calls[0] == 0


def test_serre_memo_miss_count(monkeypatch):
    """Nested-node evaluations (memo misses) for CSerreA at (2,1),
    classical, degree 3.  Each miss stores one image, so this is the
    number of images the suite's nested nodes hold at the end.  Probed up
    to degree 3 the suite stored 2,510 images; each instance is a bracket
    of first-order operators, of order 1, so it is probed at degree <= 1
    only: 272."""
    gens = build_classical(build_root_data(2, 1))
    instances = _suite_instances(monkeypatch, verify.check_serre, gens,
                                 3)["CSerreA"]
    stored = [0]
    store = operators._stored

    def counted(img, pool):
        stored[0] += 1
        return store(img, pool)
    monkeypatch.setattr(operators, "_stored", counted)
    assert verify._run("CSerreA", 3, instances)["status"] == "pass"
    assert stored[0] == 272


def _record_stored(monkeypatch):
    """Record every image a memo stores from now on, in a list that holds
    them."""
    stored = []
    store = operators._stored

    def recorded(img, pool):
        stored.append(store(img, pool))
        return stored[-1]
    monkeypatch.setattr(operators, "_stored", recorded)
    return stored


def test_images_live_and_die_with_the_generator_set(monkeypatch):
    """The images one suite stores serve a later suite on the same set,
    whose suites read the same e_i and root-vector nodes: classical AuxC17
    at (2,1), degree 3, stores 235 images on a fresh set and 1 after
    AuxC16.  Its instances have order 1, so they are probed at degree
    <= 1; probed up to degree 3 it stored 2,461.  And nothing the run
    returns or the package keeps holds an image once the set is gone."""
    stored = _record_stored(monkeypatch)
    gens = build_classical(build_root_data(2, 1))
    aux = _suite_instances(monkeypatch, verify.check_aux, gens, 3, 3)
    assert verify._run("AuxC17", 3, aux["AuxC17"])["status"] == "pass"
    assert len(stored) == 235
    gens = build_classical(build_root_data(2, 1))
    aux = _suite_instances(monkeypatch, verify.check_aux, gens, 3, 3)
    assert verify._run("AuxC16", 3, aux["AuxC16"])["status"] == "pass"
    del stored[:]
    assert verify._run("AuxC17", 3, aux["AuxC17"])["status"] == "pass"
    assert len(stored) == 1

    del gens, aux, stored[:]
    report = verify.run_full(1, 1, degree=2, nmax=2)
    # the empty image is the interpreter's one empty tuple
    images = [img for img in stored if img]
    del stored[:]
    assert report.ok and images
    package = [vars(mod) for name, mod in sys.modules.items()
               if name.split(".")[0] == "qsuperalg"]
    reachable = _reachable(report, package)
    assert not any(id(img) in reachable for img in images)
    # once run_full returns, only this test holds them
    gc.collect()
    assert all(r is images for r in gc.get_referrers(*images))


def test_images_live_as_long_as_their_nodes(monkeypatch):
    """A nested node keeps its images: a second check of the same AuxQ41
    instances stores none, and once the instances and their set are gone
    nothing but the test holds an image."""
    gens = build_quantum(build_root_data(1, 1))
    instances = _suite_instances(monkeypatch, verify.check_aux, gens, 3,
                                 3)["AuxQ41"]
    stored = _record_stored(monkeypatch)
    assert verify._run("AuxQ41", 3, instances)["status"] == "pass"
    first = len(stored)
    assert first
    assert verify._run("AuxQ41", 3, instances)["status"] == "pass"
    assert len(stored) == first
    # the empty image is the interpreter's one empty tuple
    images = [img for img in stored if img]
    del stored[:], instances, gens
    gc.collect()
    assert images
    assert all(r is images for r in gc.get_referrers(*images))


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        basis_monomials(CS, -1)
    with pytest.raises(ValueError):
        first_failure([(x(Z), OpExpr.zero(CS))], -1)
    with pytest.raises(ValueError):
        first_failure([], -1)


# ---------------------------------------------------------------------------
# differential order bounds
# ---------------------------------------------------------------------------

def _d(pos):
    return OpExpr.term(CS, (("d", pos),))


def _form(kind, form):
    return OpExpr.term(CS, ((kind, form),))


def test_order_of_each_elementary_kind():
    """x and a form that reads no coordinate have order 0; d, D at an odd
    position (the Grassmann derivative) and lin of a form that reads a
    coordinate order 1; D at an even position and qpow or qnum of a form
    that reads a coordinate are unbounded."""
    reads, scalar = LinForm({Z: 1}, 1), LinForm(None, 2, ((1, 1),))
    assert [x(p)._order for p in (Z, T1, T2)] == [0, 0, 0]
    assert [_d(p)._order for p in (Z, T1, T2)] == [1, 1, 1]
    assert [D(p)._order for p in (Z, T1, T2)] == [inf, 1, 1]
    assert [_form(kind, reads)._order for kind in ("qpow", "qnum", "lin")] \
        == [inf, inf, 1]
    assert [_form(kind, scalar)._order
            for kind in ("qpow", "qnum", "lin")] == [0, 0, 0]
    assert OpExpr.identity(CS)._order == 0
    assert OpExpr.zero(CS)._order == -1


def test_order_of_products_and_sums():
    """A product's bound is the sum of its factors', a sum's the max of
    its terms', and one unbounded factor makes the whole bound unbounded."""
    assert (x(Z) @ _d(Z) @ _d(T1))._order == 2
    assert (x(Z) + x(Z) @ _d(Z) @ _d(Z))._order == 2
    node = x(T1) + _d(T1)           # two terms, so a nested factor
    assert (node @ node @ x(Z))._order == 2
    assert (node @ D(Z))._order == inf
    assert (node + D(Z) @ x(Z))._order == inf


def test_a_graded_bracket_lowers_the_order():
    """[A, B] has order ord A + ord B - 1, whether A and B are nested
    nodes or factor runs that compose flattened; the multiplied-out
    terms of a bracket of nested nodes are not lowered."""
    a = x(Z) @ _d(Z) + _d(Z)       # nested: two terms
    b = _d(Z) + x(Z)
    nested = graded_commutator(a, b)
    assert [type(f) for f in nested.terms[0][1]] == [OpExpr, OpExpr]
    assert nested._order == 1
    assert _times(a, b)._order == 2
    flat = graded_commutator(_d(Z), x(Z) @ _d(Z))   # runs (d, x d)
    assert flat.terms[0][1] == (("d", Z), ("x", Z), ("d", Z))
    assert flat._order == 1
    odd = graded_commutator(x(T1) @ _d(Z), _d(T2) @ _d(Z))
    assert odd.terms[1][0] == ONE and odd._order == 2
    # a twisted bracket d (x d) - q (x d) d is not lowered
    assert graded_commutator(_d(Z), x(Z) @ _d(Z), qpow(1))._order == 2


def test_the_odd_anticommutator_has_order_zero():
    """D th + th D, Heis 56, is the graded bracket [D, th] of two odd
    operators: order 1 + 0 - 1 = 0, so the pair against the identity is
    probed on the monomial 1 alone."""
    anti = D(T1) @ x(T1) + x(T1) @ D(T1)
    assert anti._order == 0
    assert first_failure([(anti, OpExpr.identity(CS))], 3) is None
    wrong = OpExpr.identity(CS).scale(qpow(1))
    assert first_failure([(anti, wrong)], 3)[1] == MONO_ONE


def test_a_commutator_of_order_zero_factors_is_probed_nowhere(monkeypatch):
    """x x - x x is the bracket [x, x], of order 0 + 0 - 1 = -1: the zero
    operator, so the pair is not probed on any monomial."""
    zero = x(Z) @ x(Z) - x(Z) @ x(Z)
    assert zero._order == -1
    applied = _record_applied(monkeypatch)
    assert first_failure([(zero, OpExpr.zero(CS))], 3) is None
    assert applied == []


def test_an_even_anticommutator_is_not_lowered():
    """d x + x d = 2 x d + 1 is a rotation with the wrong coefficient for
    a bracket of even operators: it keeps order 1, and its first failure
    against 2 x d is the monomial 1."""
    anti = _d(Z) @ x(Z) + x(Z) @ _d(Z)
    assert anti._order == 1
    found = first_failure([(anti, (x(Z) @ _d(Z)).scale(
        RingElem.from_rational(2)))], 3)
    assert found[1] == MONO_ONE


def test_a_mixed_parity_node_gets_no_lowering():
    """A nested node of mixed parity has no graded bracket: A d - d A
    with A = x + th keeps order 0 + 1 = 1, and computing it raises no
    MixedParity, though parity() does."""
    mixed = x(Z) + x(T1)
    node = mixed @ _d(Z) - _d(Z) @ mixed
    assert node.terms[1][1] == (("d", Z), mixed)
    assert node._order == 1
    with pytest.raises(MixedParity):
        node.parity()


def test_classical_generators_have_order_one_and_quantum_are_unbounded():
    """Every classical e_i, f_i, h_i and root vector is of order 1; every
    quantum generator and root vector reads a q-difference or a q-power
    of the coordinates, so its bound is unbounded."""
    classical = build_classical(build_root_data(2, 1))
    quantum = build_quantum(build_root_data(2, 1))
    for gens, want in ((classical, 1), (quantum, inf)):
        ops = [*gens.e.values(), *gens.f.values(), *gens.roots.values()]
        assert {op._order for op in ops} == {want}
    assert {h._order for h in classical.t.values()} == {1}


# ---------------------------------------------------------------------------
# pairs whose two sides are one sum of terms
# ---------------------------------------------------------------------------

def _residual_applied(applied, a, b):
    """Whether the residual a - b that ``first_failure`` builds from the
    pair (a, b) is among the ``applied`` operators."""
    residual = (a - b).terms
    return any(op.terms == residual for op in applied)


def _record_applied(monkeypatch):
    """Record every operator ``apply_monomial`` is called on from now on,
    nested calls included, in a list that holds them."""
    applied = []
    apply = OpExpr.apply_monomial

    def recorded(self, mono):
        applied.append(self)
        return apply(self, mono)
    monkeypatch.setattr(OpExpr, "apply_monomial", recorded)
    return applied


def test_sides_with_equal_terms_are_not_probed(monkeypatch):
    """Two separately built brackets [f_2, X(1,1)] are one sum of terms:
    the pair holds with no operator applied."""
    gens = build_classical(build_root_data(1, 1))
    a = graded_commutator(gens.f[2], gens.roots[1, 1])
    b = graded_commutator(gens.f[2], gens.roots[1, 1])
    assert a is not b and a.terms == b.terms
    applied = _record_applied(monkeypatch)
    assert first_failure([(a, b)], 3) is None
    assert applied == []


def test_sides_with_equal_terms_still_check_their_charts():
    other = CoordSystem(0, 1)
    a, b = x(Z), OpExpr.term(other, (("x", Z),))
    assert a.terms == b.terms
    with pytest.raises(ContextMismatch):
        first_failure([(a, b)], 2)
    with pytest.raises(ContextMismatch):
        first_failure([(a, a), (b, b)], 2)


def test_sides_with_the_same_terms_in_another_order_are_probed(monkeypatch):
    """The pair is probed by its residual a - b, whose terms cancel on
    every monomial; neither side is applied on its own."""
    a = x(Z) + D(T1)
    b = D(T1) + x(Z)
    assert a.terms != b.terms
    applied = _record_applied(monkeypatch)
    assert first_failure([(a, b)], 2) is None
    assert _residual_applied(applied, a, b)
    assert a not in applied and b not in applied


@pytest.mark.parametrize("MN,build", [
    ((1, 1), build_classical), ((2, 1), build_classical),
    ((1, 1), build_quantum), ((2, 1), build_quantum)],
    ids=["(1,1)", "(2,1)", "(1,1)-quantum", "(2,1)-quantum"])
def test_classical_auxc18_applies_nothing(monkeypatch, MN, build):
    """AuxC18, and the n = 1 instances of the quantum AuxQ41, compare
    [f_i, X(j,i-1)]_{q^-nu_i} (the plain bracket classically) with the
    table's X(j,i), the node built as that same bracket."""
    gens = build(build_root_data(*MN))
    tag = "AuxQ41" if gens.quantum else "AuxC18"
    instances = [inst for inst in _suite_instances(
        monkeypatch, verify.check_aux, gens, 3, 3)[tag]
        if not gens.quantum or inst[0].endswith(",n=1")]
    K = gens.data.K
    assert len(instances) == K * (K - 1) // 2
    applied = _record_applied(monkeypatch)
    assert verify._run(tag, 3, instances)["status"] == "pass"
    assert applied == []


@pytest.mark.parametrize("build", [build_quantum, build_classical],
                         ids=["quantum", "classical"])
def test_weight_relations_apply_nothing(monkeypatch, build):
    """Every generator and root vector is homogeneous for every t_form, so
    the grading decides every instance of the weight relations at (2,1):
    t_i x = q^k x t_i, the quantum t_i x t_i^-1 = q^k x, stated as the
    weight relation of x t_i^-1, and their classical form
    h_i x = x (h_i + k)."""
    gens = build(build_root_data(2, 1))
    suites = _suite_instances(monkeypatch, verify.check_cartan_relations,
                              gens, 3)
    suites.update(_suite_instances(
        monkeypatch, verify.check_weight_conjugation, gens, 3))
    tags = sorted(suites)[:3] + ["WeightConj"]    # Q20-Q22 or C1-C3
    assert [len(suites[tag]) for tag in tags] == [6, 16, 16, 40]
    applied = _record_applied(monkeypatch)
    for tag in tags:
        assert verify._run(tag, 3, suites[tag])["status"] == "pass"
    assert applied == []


def test_every_quantum_auxq41_instance_is_probed(monkeypatch):
    """Every power-law instance of AuxQ41 at (1,1), n >= 2, is probed
    through its residual; n = 1 is the table's own bracket (see
    test_classical_auxc18_applies_nothing)."""
    instances = _auxq41(monkeypatch)
    applied = _record_applied(monkeypatch)
    assert verify._run("AuxQ41", 3, instances)["status"] == "pass"
    powers = [inst for inst in instances if not inst[0].endswith(",n=1")]
    assert [label for label, _, _ in powers] == ["i=2,j=1,n=2",
                                                 "i=2,j=1,n=3"]
    for label, lhs, rhs in powers:
        assert lhs.terms != rhs.terms, label
        assert _residual_applied(applied, lhs, rhs), label


def test_classical_run_work_count(monkeypatch):
    """``sum_of_products`` calls per suite, and ``apply_monomial`` calls,
    in run_full(2, 1, degree=3, nmax=3, variant="classical").

    Stated as brackets [h_i, x] = k x, C1, C2, C3 and WeightConj made
    1,100, 1,429, 4,173 and 38,207 sums, and AuxC18 2,300 applications,
    114,338 sums in all.  As h_i x = x (h_i + k) each side is one term
    whose images are single monomials, and AuxC18's sides are one sum of
    terms.  With both sides applied apart and their images compared the
    run made 58,821 sums; each probe applying the residual lhs - rhs
    once, whose two sides' contributions to a monomial meet in one sum,
    made 57,338.  AuxC16's and AuxC17's rhs nu X t_i and -nu t_i^-1 X,
    with t_i -> 1, are now the table's node X nested once, (nu, (X,)), so
    their images come from X's memo: 56,553 sums.  Each pair is now
    probed only up to its differential order: 1 for C4, CSerreA,
    CSerreOdd, AuxC16, AuxC17 and AuxC19, 2 for OddNil and 0 for Heis 56;
    Heis 55, whose D at an even position is a q-difference, is probed up
    to degree 3 as before: 3,242 sums.
    """
    sums, applies, per_suite = [0], [0], {}
    kernel = operators.sum_of_products
    apply = OpExpr.apply_monomial
    run = verify._run

    def summed(terms):
        sums[0] += 1
        return kernel(terms)

    def applied(self, mono):
        applies[0] += 1
        return apply(self, mono)

    def counted(tag, degree, instances):
        before = sums[0], applies[0]
        result = run(tag, degree, instances)
        per_suite[tag] = (sums[0] - before[0], applies[0] - before[1])
        return result
    monkeypatch.setattr(operators, "sum_of_products", summed)
    monkeypatch.setattr(OpExpr, "apply_monomial", applied)
    monkeypatch.setattr(verify, "_run", counted)
    assert verify.run_full(2, 1, degree=3, nmax=3, variant="classical").ok
    for tag in ("C1", "C2", "C3", "WeightConj"):
        assert per_suite[tag][0] == 0, tag
    assert per_suite["AuxC18"] == (0, 0)
    assert sums[0] == 3242
