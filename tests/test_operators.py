"""Tests for operator expressions: elementary actions, sums and products
with nested factors, parity bookkeeping, extensional equality and the
memo of images each nested node keeps."""

import gc
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsuperalg.scalars import RingElem, ONE, MINUS_ONE, qpow, qnum
from qsuperalg import operators, superpoly, verify
from qsuperalg.algebra import build_classical, build_quantum, build_root_data
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


def _pair_lists(cs):
    """Lists of (lhs, rhs) pairs: a tree against its multiplied-out form,
    which agree everywhere, or two unrelated trees, which mostly do not."""
    agreeing = _pairs(cs)
    unrelated = st.tuples(_pairs(cs), _pairs(cs)).map(
        lambda ab: (ab[0][0], ab[1][0]))
    return st.lists(st.one_of(agreeing, unrelated), min_size=1, max_size=4)


@pytest.mark.parametrize("cs", [CoordSystem(1, 1), CoordSystem(2, 1)],
                         ids=["(1,1)", "(2,1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_support_skip_and_shared_memo_keep_the_witness(cs, data):
    """first_failure probes a pair only inside its joint support, and a
    second call on the same nodes reads the images the first one stored,
    as a generator set's later checks do; neither changes its answer from
    that of the plain pair-by-pair loop."""
    for _ in range(2):
        pairs = data.draw(_pair_lists(cs))
        degree = data.draw(st.integers(0, 3))
        want = _reference_first_failure(pairs, degree)
        assert first_failure(pairs, degree) == want    # cold
        assert first_failure(pairs, degree) == want    # warm


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
    Probing all 220 basis monomials took 13,200 calls; inside its support
    an instance sees 4 monomials on an even coordinate (x^0 .. x^3) and 2
    on an odd one, and (2,1) has 4 even and 6 odd coordinates."""
    calls = _count_top_level_applies(monkeypatch)
    results = verify.check_heisenberg(CoordSystem(2, 1), 3)
    assert [r.status for r in results] == ["pass"]
    assert calls[0] == 2 * 3 * (4 * 4 + 6 * 2) == 168


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


def test_auxq41_powers_are_flat_chains_of_the_table_node(monkeypatch):
    """AuxQ41 at (2,1), nmax 3: with X = X(j,i-1), the table's own node,
    the left side f_i X^n is the one term (f_i, X, ..., X) with n copies of
    X, and the right side's terms are (X, ..., X, f_i) with n copies and
    (X, ..., X, X(j,i)) with n - 1.  A power is a flat chain of the
    root-vector node, not a node of its own."""
    gens = build_quantum(build_root_data(2, 1))
    nu = gens.data.nu
    instances = _suite_instances(monkeypatch, verify.check_aux, gens, 3,
                                 3)["AuxQ41"]
    powers = set()
    for label, lhs, rhs in instances:
        i, j, n = (int(part.split("=")[1]) for part in label.split(","))
        X, f, Xji = gens.roots[j, i - 1], gens.f[i], gens.roots[j, i]
        (c, factors), = lhs.terms
        assert c.is_one() and len(factors) == n + 1 and factors[0] is f
        assert all(y is X for y in factors[1:])
        (c1, left), (c2, right) = rhs.terms
        assert c1 == qpow(-n * nu[i]) and c2 == qnum(n)
        assert len(left) == n + 1 and left[-1] is f
        assert len(right) == n and right[-1] is Xji
        assert all(y is X for y in left[:-1] + right[:-1])
        powers.add(n)
    assert powers == {1, 2, 3}


def test_weight_conjugation_work_count(monkeypatch):
    """Koszul-layer calls for WeightConj at (1,1), quantum, degree 3.

    Checked one instance after another, each with a memo of its own and
    X(l,m) built again for every i, the suite made 14736 such steps, and
    with one memo per basis monomial shared by every instance 3114.  With
    each nested node keeping its images, keyed by the part of the monomial
    in the node's support, and the root vectors read from one table, a root
    vector's image is computed once for every monomial that agrees on its
    support, for the whole suite.
    """
    gens = build_quantum(build_root_data(1, 1))
    calls = _count_koszul_calls(monkeypatch)
    results = verify.check_weight_conjugation(gens, 3)
    assert [r.status for r in results] == ["pass"]
    assert calls[0] == 546
    assert calls[0] < 14736


def test_serre_memo_miss_count(monkeypatch):
    """Nested-node evaluations (memo misses) for CSerreA at (2,1),
    classical, degree 3.  Each miss stores one image, so this is the
    number of images the suite's nested nodes hold at the end."""
    gens = build_classical(build_root_data(2, 1))
    instances = _suite_instances(monkeypatch, verify.check_serre, gens,
                                 3)["CSerreA"]
    stored = [0]
    store = operators._stored

    def counted(img, pool):
        stored[0] += 1
        return store(img, pool)
    monkeypatch.setattr(operators, "_stored", counted)
    assert verify._run("CSerreA", 3, instances).status == "pass"
    assert stored[0] == 2510


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
    """A root vector's images stored by check_aux serve WeightConj on the
    same set, whose suites read the same root-vector nodes, and nothing the
    run returns or the package keeps holds an image once the set is gone."""
    stored = _record_stored(monkeypatch)
    gens = build_classical(build_root_data(2, 1))
    assert verify.check_weight_conjugation(gens, 3)[0].status == "pass"
    assert len(stored) == 2381
    gens = build_classical(build_root_data(2, 1))
    verify.check_aux(gens, 3, 3)
    del stored[:]
    assert verify.check_weight_conjugation(gens, 3)[0].status == "pass"
    assert stored == []

    del gens, stored[:]
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
    assert verify._run("AuxQ41", 3, instances).status == "pass"
    first = len(stored)
    assert first
    assert verify._run("AuxQ41", 3, instances).status == "pass"
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


# ---------------------------------------------------------------------------
# pairs whose two sides are one sum of terms
# ---------------------------------------------------------------------------

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
    a = x(Z) + D(T1)
    b = D(T1) + x(Z)
    assert a.terms != b.terms
    applied = _record_applied(monkeypatch)
    assert first_failure([(a, b)], 2) is None
    assert a in applied and b in applied


@pytest.mark.parametrize("MN", [(1, 1), (2, 1)], ids=["(1,1)", "(2,1)"])
def test_classical_auxc18_applies_nothing(monkeypatch, MN):
    """Classically AuxC18 compares [f_i, X(j,i-1)] with the table's X(j,i),
    the node built as that same bracket."""
    gens = build_classical(build_root_data(*MN))
    instances = _suite_instances(monkeypatch, verify.check_aux, gens, 3,
                                 3)["AuxC18"]
    assert instances
    applied = _record_applied(monkeypatch)
    assert verify._run("AuxC18", 3, instances).status == "pass"
    assert applied == []


def test_every_quantum_auxq41_instance_is_probed(monkeypatch):
    instances = _auxq41(monkeypatch)
    applied = _record_applied(monkeypatch)
    assert verify._run("AuxQ41", 3, instances).status == "pass"
    for label, lhs, rhs in instances:
        assert lhs.terms != rhs.terms, label
        assert any(op is lhs for op in applied), label
        assert any(op is rhs for op in applied), label


def test_classical_run_work_count(monkeypatch):
    """``sum_of_products`` calls per suite, and ``apply_monomial`` calls,
    in run_full(2, 1, degree=3, nmax=3, variant="classical").

    Stated as brackets [h_i, x] = k x, C1, C2, C3 and WeightConj made
    1,100, 1,429, 4,173 and 38,207 sums, and AuxC18 2,300 applications,
    114,338 sums in all.  As h_i x = x (h_i + k) each side is one term
    whose images are single monomials, and AuxC18's sides are one sum of
    terms.
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
    assert sums[0] == 58821
