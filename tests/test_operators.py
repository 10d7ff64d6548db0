"""Tests for operator expressions: elementary actions, sums and products
with nested factors, parity bookkeeping, extensional equality and the
per-probe memo of nested images."""

import gc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsuperalg.scalars import (RingElem, ONE, MINUS_ONE, Q_MINUS_QINV, qpow,
                               qnum)
from qsuperalg import superpoly, verify
from qsuperalg.algebra import build_quantum, build_root_data, build_xminus
from qsuperalg.superpoly import (CoordSystem, MONO_ONE, poly_add_term,
                                 poly_eq, poly_scale)
from qsuperalg.operators import (LinForm, OpExpr, ContextMismatch,
                                 MixedParity, graded_commutator,
                                 basis_monomials, op_eq_on_basis)


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
    img = D(Z).apply_monomial(((Z, 3),))
    assert img == {((Z, 2),): qnum(3)}
    assert D(Z).apply_monomial(MONO_ONE) == {}


def test_grassmann_derivative_is_left_acting():
    mono = ((T1, 1), (T2, 1))
    assert D(T1).apply_monomial(mono) == {((T2, 1),): ONE}
    assert D(T2).apply_monomial(mono) == {((T1, 1),): MINUS_ONE}


def test_coordinate_multiplication_kills_odd_squares():
    assert x(T1).apply_monomial(((T1, 1),)) == {}
    assert x(T1).apply_monomial(((T2, 1),)) == {((T1, 1), (T2, 1)): ONE}


def test_qpow_acts_as_eigenvalue():
    op = OpExpr.term(CS, (("qpow", LinForm({Z: 1, T1: 1})),))
    img = op.apply_monomial(((Z, 3), (T1, 1)))
    assert img == {((Z, 3), (T1, 1)): qpow(4)}


def test_qnum_op_acts_as_q_integer():
    op = OpExpr.term(CS, (("qnum", LinForm({Z: 1}, -1)),))
    assert op.apply_monomial(((Z, 3),)) == {((Z, 3),): qnum(2)}
    # [0] annihilates
    assert op.apply_monomial(((Z, 1),)) == {}


def test_classical_derivative():
    op = OpExpr.term(CS, (("d", Z),))
    img = op.apply_monomial(((Z, 3),))
    assert img == {((Z, 2),): RingElem.from_rational(3)}


def test_lin_op_multiplies_by_form_value():
    op = OpExpr.term(CS, (("lin", LinForm({Z: 2}, 1)),))
    img = op.apply_monomial(((Z, 2),))
    assert img == {((Z, 2),): RingElem.from_rational(5)}


# ---------------------------------------------------------------------------
# algebra of expressions
# ---------------------------------------------------------------------------

def test_sum_and_scale():
    op = x(Z) + x(Z).scale(MINUS_ONE)
    assert op_eq_on_basis(op, OpExpr.zero(CS), 3)[0]
    op = x(Z).scale(qpow(2)) - x(Z).scale(qpow(2))
    assert op_eq_on_basis(op, OpExpr.zero(CS), 3)[0]


def test_composition_is_right_to_left():
    # (x D) z^2 = [2] z^2 but (D x) z^2 = [3] z^2
    xd = x(Z) @ D(Z)
    dx = D(Z) @ x(Z)
    assert xd.apply_monomial(((Z, 2),)) == {((Z, 2),): qnum(2)}
    assert dx.apply_monomial(((Z, 2),)) == {((Z, 2),): qnum(3)}


def test_composition_is_associative_extensionally():
    a, b, c = x(Z), D(T1), x(T2)
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assert op_eq_on_basis(lhs, rhs, 4)[0]


def test_lazy_product_matches_sequential_application():
    num = OpExpr.term(CS, (("qnum", LinForm({Z: 1})),))
    prod = num @ x(Z) @ D(Z)
    mono = ((Z, 2),)
    step = D(Z).apply({mono: ONE})
    step = x(Z).apply(step)
    step = num.apply(step)
    assert prod.apply_monomial(mono) == step


def test_power():
    cube = x(Z).power(3)
    assert cube.apply_monomial(MONO_ONE) == {((Z, 3),): ONE}
    assert x(Z).power(0).apply_monomial(MONO_ONE) == {MONO_ONE: ONE}
    # squares of an odd coordinate vanish as operators
    assert op_eq_on_basis(x(T1).power(2), OpExpr.zero(CS), 3)[0]


def test_number_operator_shift_identity():
    # [M] x = x [M + 1] as operators on everything of degree <= 4
    num = OpExpr.term(CS, (("qnum", LinForm({Z: 1})),))
    num1 = OpExpr.term(CS, (("qnum", LinForm({Z: 1}, 1)),))
    assert op_eq_on_basis(num @ x(Z), x(Z) @ num1, 4)[0]


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
    assert op_eq_on_basis(graded_commutator(even, even), OpExpr.zero(CS),
                          3)[0]
    # theta12 theta22 + theta22 theta12 = 0
    assert op_eq_on_basis(graded_commutator(x(T1), x(T2)), OpExpr.zero(CS),
                          3)[0]
    # twisted bracket [a, b]_xi = ab - (-1)^{|a||b|} xi ba
    tw = graded_commutator(even, even, qpow(1))
    expect = even @ even - (even @ even).scale(qpow(1))
    assert op_eq_on_basis(tw, expect, 3)[0]


# ---------------------------------------------------------------------------
# bases and extensional equality
# ---------------------------------------------------------------------------

def test_basis_is_graded_and_respects_nilpotency():
    monos = list(basis_monomials(CS, 2))
    assert monos[0] == MONO_ONE
    degrees = [sum(e for _, e in m) for m in monos]
    assert degrees == sorted(degrees)
    assert ((T1, 2),) not in monos
    # 1 | z, th12, th22 | z^2, z th12, z th22, th12 th22
    assert len(monos) == 8


def test_basis_count_even_chart():
    cs = CoordSystem(1, 0)
    assert len(list(basis_monomials(cs, 0))) == 1
    cs3 = CoordSystem(2, 0)   # 6 coordinates, 3 of them odd
    n1 = len(list(basis_monomials(cs3, 1)))
    assert n1 == 1 + 6


def test_op_eq_reports_first_failing_monomial():
    ok, wit = op_eq_on_basis(D(Z), D(Z).scale(qpow(1)), 2)
    assert not ok
    mono, residual = wit
    assert mono == ((Z, 1),)       # first monomial D z distinguishes them
    assert residual


def test_op_eq_requires_matching_charts():
    with pytest.raises(ContextMismatch):
        op_eq_on_basis(x(Z), OpExpr.term(CoordSystem(0, 1), (("x", 0),)), 1)


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
    lfs = (LinForm({0: 1}), LinForm({0: 1, cs.ncoords - 1: -1}, 1, {1: 1}))
    return ([(kind, p) for kind in ("x", "D", "d")
             for p in range(cs.ncoords)]
            + [(kind, lf) for kind in ("qpow", "qnum", "lin") for lf in lfs])


_SCALARS = (MINUS_ONE, qpow(1), qnum(2), qpow(-1, ((1, 1),)),
            RingElem.from_rational(Fraction(1, 2)), ONE / Q_MINUS_QINV)


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
        flat = OpExpr.identity(cs)
        for _ in range(n):
            flat = _times(flat, a[1])
        return a[0].power(n), flat

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
        img = tree.apply_monomial(mono, coeff)
        assert poly_eq(img, poly_scale(flat.apply_monomial(mono), coeff)), \
            (tree.render(), mono)


# ---------------------------------------------------------------------------
# the per-probe image memo
# ---------------------------------------------------------------------------

def _unshared(op):
    """The same operator with a fresh node object for every nested factor,
    so that no node is reached twice."""
    return OpExpr(op.cs, [(c, tuple(_unshared(f) if isinstance(f, OpExpr)
                                    else f for f in factors))
                          for c, factors in op.terms])


def _unmemoised(op, poly):
    """op applied to poly one factor at a time, nested factors recursively
    and elementary ones as single-factor operators, which keep no memo."""
    out = {}
    for tc, factors in op.terms:
        cur = poly_scale(poly, tc)
        for f in reversed(factors):
            cur = (_unmemoised(f, cur) if isinstance(f, OpExpr)
                   else OpExpr.term(op.cs, (f,)).apply(cur))
        for m, c in cur.items():
            poly_add_term(out, m, c)
    return out


def _shared_node_operators(gens):
    """Operators in which one node object occurs at several depths."""
    f, X = gens.f[2], gens.f[1]               # X = X(1,1) is even
    Y = build_xminus(gens, 1, 2)              # nests f_1 and f_2 again
    return {"f X^3": f @ X.power(3),
            "[X, X^2]_q": graded_commutator(X, X.power(2), qpow(1)),
            "X f X": X @ f @ X,
            "[f, Y] X": graded_commutator(f, Y) @ X}


@pytest.mark.parametrize("MN", [(1, 0), (1, 1)], ids=["(1,0)", "(1,1)"])
def test_memoised_evaluation_matches_unshared_and_unmemoised(MN):
    gens = build_quantum(build_root_data(*MN))
    # a (q - q^-1) denominator and the weight marker Q1
    coeff = RingElem.monomial(1, ((1, 1),)) * (ONE / Q_MINUS_QINV)
    for name, op in _shared_node_operators(gens).items():
        fresh = _unshared(op)
        for mono in basis_monomials(gens.cs, 3):
            img = op.apply_monomial(mono, coeff)
            assert poly_eq(img, fresh.apply_monomial(mono, coeff)), \
                (name, mono)
            assert poly_eq(img, _unmemoised(op, {mono: coeff})), (name, mono)


def test_returned_image_is_not_shared_with_later_calls():
    gens = build_quantum(build_root_data(1, 0))
    op = _shared_node_operators(gens)["f X^3"]
    mono = ((0, 1),)
    want = _unmemoised(op, {mono: ONE})
    assert want
    for _ in range(2):
        img = op.apply_monomial(mono)
        assert poly_eq(img, want)
        for m in img:
            img[m] = MINUS_ONE
        img[MONO_ONE] = ONE


def _auxq41(monkeypatch):
    """The AuxQ41 instances at (1,1), nmax 3, exactly as check_aux states
    them."""
    gens = build_quantum(build_root_data(1, 1))
    suites = {}
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_run",
                   lambda tag, degree, instances:
                   suites.setdefault(tag, list(instances)))
        verify.check_aux(gens, 3, nmax=3)
    return suites["AuxQ41"]


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


def test_no_image_outlives_its_probe(monkeypatch):
    lhs, rhs = _auxq41_n3(monkeypatch)
    before = len(_reachable(lhs, rhs))
    assert op_eq_on_basis(lhs, rhs, 3) == (True, None)
    assert len(_reachable(lhs, rhs)) == before
    # a whole suite, whose probes share one memo among all its instances
    instances = _auxq41(monkeypatch)
    before = len(_reachable(instances))
    assert verify._run("AuxQ41", 3, instances).status == "pass"
    assert len(_reachable(instances)) == before


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

    Without the image memo this instance made 4184 such steps; with it, a
    nested node's image of a monomial is computed once per probe.
    """
    lhs, rhs = _auxq41_n3(monkeypatch)
    calls = _count_koszul_calls(monkeypatch)
    assert op_eq_on_basis(lhs, rhs, 3) == (True, None)
    assert calls[0] == 2642
    assert calls[0] < 4184


def test_weight_conjugation_work_count(monkeypatch):
    """Koszul-layer calls for WeightConj at (1,1), quantum, degree 3.

    Checked one instance after another, each with a memo of its own and
    X(l,m) built again for every i, the suite made 14736 such steps.
    With one memo per probe shared by every instance, and the root vectors
    read from one table, a root vector's image of a monomial is computed
    once per probe for the whole suite.
    """
    gens = build_quantum(build_root_data(1, 1))
    calls = _count_koszul_calls(monkeypatch)
    results = verify.check_weight_conjugation(gens, 3)
    assert [r.status for r in results] == ["pass"]
    assert calls[0] == 3114
    assert calls[0] < 14736


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        basis_monomials(CS, -1)
    with pytest.raises(ValueError):
        op_eq_on_basis(x(Z), OpExpr.zero(CS), -1)


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        x(Z).power(-1)
