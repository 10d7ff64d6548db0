"""Tests for the root data and the three generator realizations."""

from fractions import Fraction

import pytest

from qsuperalg.scalars import ONE, qpow
from qsuperalg.superpoly import MONO_ONE
from qsuperalg import algebra
from qsuperalg.operators import (OpExpr, basis_monomials, first_failure,
                                 graded_commutator)
from qsuperalg.algebra import (build_root_data, build_quantum,
                               build_classical, build_generators,
                               check_linform_identities)


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------

def test_nu_signs():
    data = build_root_data(1, 2)
    assert data.nu[1:] == (1, 1, -1, -1, -1)


def test_cartan_matrix_sl21():
    data = build_root_data(1, 0)
    assert data.cartan == ((2, -1), (-1, 0))


def test_cartan_matrix_sl22():
    data = build_root_data(1, 1)
    assert data.cartan == ((2, -1, 0), (-1, 0, 1), (0, 1, -2))


def test_cartan_matrix_purely_even():
    data = build_root_data(2, 0)
    assert data.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 0))


def _root_inner(data, i, j):
    """(alpha_i | alpha_j) under (eps_i | eps_j) = nu_i delta_ij, with
    alpha_i = nu_i eps_i - nu_{i+1} eps_{i+1}."""
    nu = data.nu
    ai = {i: nu[i], i + 1: -nu[i + 1]}
    aj = {j: nu[j], j + 1: -nu[j + 1]}
    return sum(c * aj[k] * nu[k] for k, c in ai.items() if k in aj)


def test_cartan_matches_root_inner_products():
    for M, N in [(1, 0), (1, 1), (2, 1), (1, 2)]:
        data = build_root_data(M, N)
        for i in range(1, data.K + 1):
            for j in range(1, data.K + 1):
                assert data.a(i, j) == _root_inner(data, i, j)


def test_rejects_negative_rank():
    with pytest.raises(ValueError):
        build_root_data(-1, 0)


# ---------------------------------------------------------------------------
# generator shapes
# ---------------------------------------------------------------------------

def test_sl21_generators_render_to_the_golden_form():
    gens = build_quantum(build_root_data(1, 0))
    cs = gens.cs
    assert gens.t[1].render() == "q^{-2M(1,1)-M(1,2)+M(2,2)+L(1)}"
    assert gens.t[2].render() == "q^{M(1,1)+M(1,2)+L(2)}"
    assert gens.e[1].render() == "D(1,1)"
    assert gens.e[2].render() == "q^{-M(1,1)-M(1,2)} D(2,2) + x(1,1) D(1,2)"
    assert gens.f[1].render() == ("-1 * q^{M(1,2)-M(2,2)-L(1)-2} x(1,2) D(2,2)"
                                  " + x(1,1) [-M(1,1)-M(1,2)+M(2,2)+L(1)]")
    assert gens.f[2].render() == "q^{L(2)} x(1,2) D(1,1) + x(2,2) [L(2)]"


def test_integer_weights_substitute_into_the_forms():
    gens = build_quantum(build_root_data(1, 0), weights=[3, -1])
    assert gens.t[1].render() == "q^{-2M(1,1)-M(1,2)+M(2,2)+3}"
    assert gens.t[2].render() == "q^{M(1,1)+M(1,2)-1}"


def test_classical_generators_have_no_q():
    gens = build_classical(build_root_data(1, 0))
    for fam in (gens.t, gens.e, gens.f):
        for op in fam.values():
            for _, ops in op.terms:
                assert all(kind in ("x", "d", "lin") for kind, _ in ops)


@pytest.mark.parametrize("MN", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1),
                                (1, 2)])
def test_classical_h_is_multiplication_by_its_form(MN):
    """h_i is the one factor {t_form[i]}, which the classical weight
    relations h_i x = x {t_form[i] + k} read, with symbolic and integer
    weights."""
    data = build_root_data(*MN)
    for weights in (None, [3 - 2 * i for i in range(data.K)]):
        gens = build_generators(data, weights, "classical")
        for i in range(1, data.K + 1):
            assert gens.t[i].terms == ((ONE, (("lin", gens.t_form[i]),)),)


def test_t_inverse():
    gens = build_quantum(build_root_data(1, 1))
    for i in (1, 2, 3):
        prod = gens.t[i] @ gens.t_inv(i)
        assert first_failure([(prod, OpExpr.identity(gens.cs))], 3) is None
    with pytest.raises(ValueError):
        build_classical(build_root_data(1, 0)).t_inv(1)


def test_variant_validation():
    with pytest.raises(ValueError):
        build_quantum(build_root_data(1, 0), variant="classical")
    with pytest.raises(ValueError, match="prop2, prop3 or classical"):
        build_generators(build_root_data(1, 0), None, "prop9")


@pytest.mark.parametrize("weights", [
    [2, 1.0], [Fraction(1, 2), 1], [2], [2, -1, 0],
])
@pytest.mark.parametrize("build", [build_quantum, build_classical])
def test_weights_must_be_none_or_k_ints(build, weights):
    # a float or Fraction weight, a short list and a long one are all
    # rejected up front, not cut or failed on deep in the scalar layer
    with pytest.raises(ValueError, match="2 ints"):
        build(build_root_data(1, 0), weights)


# ---------------------------------------------------------------------------
# root vectors
# ---------------------------------------------------------------------------

def test_xminus_base_case_is_f():
    gens = build_quantum(build_root_data(1, 1))
    for l in (1, 2, 3):
        assert first_failure([(gens.roots[l, l], gens.f[l])], 3) is None


def test_xminus_first_step_expansion():
    # X(1,2) = f2 f1 - q^{-nu_2} f1 f2 (f1 even here, so no Koszul sign)
    gens = build_quantum(build_root_data(1, 0))
    x12 = gens.roots[1, 2]
    manual = gens.f[2] @ gens.f[1] - (gens.f[1] @ gens.f[2]).scale(qpow(-1))
    assert first_failure([(x12, manual)], 3) is None


@pytest.mark.parametrize("build", [build_quantum, build_classical],
                         ids=["quantum", "classical"])
def test_root_vector_table_is_one_chain_of_shared_nodes(build):
    gens = build(build_root_data(1, 1))
    X = gens.roots
    assert sorted(X) == [(l, m) for l in (1, 2, 3) for m in range(l, 4)]
    for (l, m), x in X.items():
        if m > l:
            # X(l,m) = [f_m, X(l,m-1)] nests the table's own X(l,m-1)
            xi = qpow(-gens.data.nu[m]) if gens.quantum else None
            bracket = graded_commutator(gens.f[m], X[(l, m - 1)], xi)
            assert first_failure([(x, bracket)], 2) is None
            assert any(f is X[(l, m - 1)]
                       for _, factors in x.terms for f in factors)


def test_root_vector_table_starts_each_chain_at_f():
    # the table is built with the set: one entry per positive root, and
    # X(l,l) is the set's own f_l node
    gens = build_quantum(build_root_data(2, 1))
    K = gens.data.K
    assert list(gens.roots) == [(l, m) for l in range(1, K + 1)
                                for m in range(l, K + 1)]
    for l in range(1, K + 1):
        assert gens.roots[l, l] is gens.f[l]


def test_odd_root_vectors_square_to_zero():
    gens = build_quantum(build_root_data(1, 1))
    x13 = gens.roots[1, 3]
    assert x13.parity() == 1
    assert first_failure([(x13 @ x13, OpExpr.zero(gens.cs))], 3) is None


# ---------------------------------------------------------------------------
# the two quantum variants and the classical limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("MN", [(1, 0), (0, 1), (1, 1)])
def test_prop2_and_prop3_agree_extensionally(MN):
    data = build_root_data(*MN)
    g2 = build_quantum(data, variant="prop2")
    g3 = build_quantum(data, variant="prop3")
    for i in range(1, data.K + 1):
        assert first_failure([(g2.t[i], g3.t[i])], 3) is None
        assert first_failure([(g2.e[i], g3.e[i])], 3) is None
        assert first_failure([(g2.f[i], g3.f[i])], 3) is None


def _q1_action(op, mono):
    return {m: c.eval_q1() for m, c in op.apply_monomial(mono).items()}


def _classical_action(op, mono):
    out = {}
    for m, c in op.apply_monomial(mono).items():
        out[m] = c.eval_q1()
    return out


def _denominator_powers(gens):
    """The denom_pow of every coefficient of every generator's and root
    vector's image on the degree-3 basis."""
    nodes = [*gens.t.values(), *gens.e.values(), *gens.f.values(),
             *gens.roots.values()]
    return {c.denom_pow for mono in basis_monomials(gens.cs, 3)
            for node in nodes for c in node.apply_monomial(mono).values()}


@pytest.mark.parametrize("variant", ["prop2", "prop3"])
@pytest.mark.parametrize("MN", [(1, 0), (1, 1), (2, 1)],
                         ids=["(1,0)", "(1,1)", "(2,1)"])
def test_integer_weights_leave_no_denominator(MN, variant):
    # eval_q1 takes no denominator: with the weights bound, every q-number
    # is a Laurent polynomial, and so is every coefficient built from them
    data = build_root_data(*MN)
    weights = [(-1) ** k * (k + 1) for k in range(data.K)]
    assert _denominator_powers(build_quantum(data, weights, variant)) == {0}
    # the same loop sees the (q - q^-1) of a symbolic weight's q-number
    assert 1 in _denominator_powers(build_quantum(data, None, variant))


def test_q_one_limit_matches_classical_generators():
    data = build_root_data(1, 1)
    weights = [2, -1, 3]
    gq = build_quantum(data, weights=weights)
    gc = build_classical(data, weights=weights)
    cs = gq.cs
    cartan_q = {i: OpExpr.term(cs, (("qnum", gq.t_form[i]),))
                for i in range(1, data.K + 1)}
    for mono in basis_monomials(cs, 3):
        for i in range(1, data.K + 1):
            assert _q1_action(gq.e[i], mono) == _classical_action(gc.e[i], mono)
            assert _q1_action(gq.f[i], mono) == _classical_action(gc.f[i], mono)
            assert _q1_action(cartan_q[i], mono) == \
                _classical_action(gc.t[i], mono)


# ---------------------------------------------------------------------------
# defining property of the Cartan generator on the vacuum
# ---------------------------------------------------------------------------

def test_highest_weight_vector():
    for MN in [(1, 0), (1, 1)]:
        gens = build_quantum(build_root_data(*MN))
        for i in range(1, gens.data.K + 1):
            assert gens.e[i].apply_monomial(MONO_ONE) == {}
            assert gens.t[i].apply_monomial(MONO_ONE) \
                == {MONO_ONE: qpow(0, ((i, 1),))}


# ---------------------------------------------------------------------------
# linear-form reduction identities
# ---------------------------------------------------------------------------

def test_linform_identities_all_small_ranks():
    for M in range(0, 4):
        for N in range(0, 4):
            report = check_linform_identities(build_root_data(M, N))
            for name, entry in report.items():
                assert not entry["failures"], (M, N, name, entry)


def test_linform_identities_counts():
    report = check_linform_identities(build_root_data(1, 1))
    assert report["I43"]["instances"] == 3
    assert report["I45"]["instances"] == 3      # pairs with j < i
    assert report["I46"]["instances"] == 3      # pairs with i < j
    assert report["I47"]["instances"] == 6      # pairs with i <= j


def _variant_pair(M, N):
    data = build_root_data(M, N)
    return (build_quantum(data, variant="prop2"),
            build_quantum(data, variant="prop3"))


def _same_structure(g2, g3):
    """Equal t-forms and equal terms (coefficients, factors, LinForms)."""
    return g2.t_form == g3.t_form and all(
        getattr(g2, fam)[i].terms == getattr(g3, fam)[i].terms
        for fam in ("t", "e", "f") for i in range(1, g2.data.K + 1))


def test_prop2_and_prop3_are_one_construction(monkeypatch):
    ranks = [(M, N) for M in range(6) for N in range(6 - M)]
    for M, N in ranks:
        assert _same_structure(*_variant_pair(M, N)), (M, N)
    # a wrong reduced piece breaks both the identity check and the
    # agreement of the variants: the check certifies what prop3 reads
    row_pair = algebra._row_pair
    monkeypatch.setattr(algebra, "_row_pair",
                        lambda *args: row_pair(*args).shift(1))
    for M, N in ranks:
        report = check_linform_identities(build_root_data(M, N))
        assert report["I43"]["failures"] and report["I44"]["failures"]
        assert not _same_structure(*_variant_pair(M, N)), (M, N)


def test_identities_check_i44_at_every_m_from_eta_reads(monkeypatch):
    # eta(i,j) reads I44 at m_from = j+1 > i+1; a wrong reduced side there
    # must make the check fail, not only the golden generator listings
    i44 = algebra._i44

    def shifted(data, cs, i, m_from):
        tri, red = i44(data, cs, i, m_from)
        return tri, (red.shift(1) if m_from > i + 1 else red)

    monkeypatch.setattr(algebra, "_i44", shifted)
    report = check_linform_identities(build_root_data(3, 3))
    failures = report["I44"]["failures"]
    assert "i=1,m=3" in failures
    # the instances at m_from = i+1, which the check read before, still pass
    for label in failures:
        i, m_from = (int(part.split("=")[1]) for part in label.split(","))
        assert m_from > i + 1
