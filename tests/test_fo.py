import random

import pytest
from hypothesis import given, settings, strategies as st

from cayleyauto import fo, presburger as pres, relations as rel
from cayleyauto.fa import Alphabet, Word
from cayleyauto.presentations import heisenberg, zn

from helpers import (
    all_words,
    check_formula_soundness,
    collapse_repeated,
    finite_structure,
    flipped,
    random_formula,
)

AB = Alphabet(["a", "b"])


def test_parse_precedence_and_shape():
    node = fo.parse_formula("! R(x,y) & S(x) | S(y) -> x = y")
    # ! binds tightest, then &, then |, then ->
    assert isinstance(node, fo.Implies)
    assert isinstance(node.left, fo.Or)
    assert isinstance(node.left.left, fo.And)
    assert isinstance(node.left.left.left, fo.Not)


def test_parse_right_associative_implication():
    node = fo.parse_formula("S(x) -> S(y) -> S(z)")
    assert isinstance(node, fo.Implies)
    assert isinstance(node.right, fo.Implies)


def test_parse_quantifiers_and_free_variables():
    node = fo.parse_formula("A x (E y (R(x,y) & S(z)))")
    assert fo.free_variables(node) == {"z"}


def test_formula_nodes_are_immutable_values():
    a, b = fo.Atom("R", ("x", "y")), fo.Atom("R", ("x", "y"))
    assert a == b and hash(a) == hash(b)
    assert fo.And(a, b) == fo.And(b, a) and hash(fo.And(a, b)) == hash(fo.And(b, a))
    assert fo.And(a, b) != fo.Or(a, b) and fo.Exists("x", a) != fo.Forall("x", a)
    assert a != fo.Atom("R", ("y", "x")) and a != ("R", ("x", "y"))
    assert repr(fo.Not(fo.VarEqual("x", "y"))) == "Not(body=VarEqual(left='x', right='y'))"
    with pytest.raises(AttributeError):
        a.name = "S"
    with pytest.raises(TypeError):
        fo.Atom("R")


def test_formula_text_round_trips():
    rng = random.Random(18)
    for _ in range(300):
        node = fo.parse_formula(random_formula(rng, 4, set()))
        again = fo.parse_formula(str(node))
        assert again == node and hash(again) == hash(node)


def test_parse_error_reports_position():
    with pytest.raises(fo.FormulaError):
        fo.parse_formula("R(x,")
    with pytest.raises(fo.FormulaError):
        fo.parse_formula("E x")
    with pytest.raises(fo.FormulaError):
        fo.parse_formula("R(x,y) &")


def test_decide_rejects_free_variables():
    struct, _, _ = finite_structure(random.Random(0), AB)
    with pytest.raises(fo.FormulaError):
        fo.decide(struct, "S(x)")


def test_compile_order_permutes_tracks():
    struct, words, tables = finite_structure(random.Random(1), AB)
    _, r1 = fo.compile(struct, "R(x,y)", ("x", "y"))
    _, r2 = fo.compile(struct, "R(x,y)", ("y", "x"))
    for u in words[:5]:
        for v in words[:5]:
            assert r1.contains((u, v)) == r2.contains((v, u))


def test_compile_unknown_relation():
    struct, _, _ = finite_structure(random.Random(2), AB)
    with pytest.raises(fo.FormulaError):
        fo.compile(struct, "T(x,y)")


@pytest.mark.parametrize("args", [("x", "x", "y"), ("x", "y", "x"), ("x", "x", "x")])
def test_repeated_variables_compile_like_the_collapse(args):
    struct = pres.presburger_structure()
    vars_, r = fo.compile(struct, f"Add({','.join(args)})")
    expect_vars, expect = collapse_repeated(struct.restricted("Add"), args)
    assert vars_ == expect_vars
    assert rel.rel_to_text(r) == rel.rel_to_text(expect)


def test_repeated_variable_on_a_group_edge_compiles_like_the_collapse():
    P = heisenberg()
    struct = fo.AutomaticStructure(P.domain, {"EA": P.relation("A")})
    vars_, r = fo.compile(struct, "EA(u,u)")
    expect_vars, expect = collapse_repeated(struct.restricted("EA"), ("u", "u"))
    assert vars_ == expect_vars == ("u",)
    assert rel.rel_to_text(r) == rel.rel_to_text(expect)


def test_define_relation_extends_structure():
    struct, words, tables = finite_structure(random.Random(3), AB)
    s2 = fo.define_relation(struct, "Sym", "R(x,y) | R(y,x)", ("x", "y"))
    r = s2.relations["Sym"]
    for u in words:
        for v in words:
            expect = (u.indices, v.indices) in tables["R"] or (
                v.indices,
                u.indices,
            ) in tables["R"]
            assert r.contains((u, v)) == expect


def test_structure_json_round_trips_an_empty_relation():
    struct, _, _ = finite_structure(random.Random(3), AB)
    struct = fo.define_relation(struct, "Never", "R(x,y) & !R(x,y)", ("x", "y"))
    assert not struct.relations["Never"].dfa.accepting
    doc = fo.structure_to_json(struct)
    back = fo.structure_from_json(doc)
    assert not back.relations["Never"].dfa.accepting
    assert fo.structure_to_json(back) == doc


def test_quantifiers_relativize_to_domain():
    # domain = words of length exactly 1; S holds of both of them
    a, b = Word(AB, (0,)), Word(AB, (1,))
    dom = rel.relation_language(rel.relation_from_tuples(AB, 1, [(a,), (b,)]))
    struct = fo.AutomaticStructure(
        dom, {"S": rel.relation_from_tuples(AB, 1, [(a,), (b,)])}
    )
    # true on the domain even though longer words are not in S
    assert fo.decide(struct, "A x (S(x))")
    assert fo.decide(struct, "E x (S(x))")


def test_variable_equality_on_a_domain_whose_sink_accepts():
    # every word but "b": the complement's sink accepts
    b = Word(AB, (1,))
    dom = flipped(rel.relation_language(rel.relation_from_tuples(AB, 1, [(b,)])))
    assert dom.sink in dom.accepting
    struct = fo.AutomaticStructure(dom)
    _, same = fo.compile(struct, "u = u")
    _, eq = fo.compile(struct, "u = v")
    words = all_words(AB, 3)
    for u in words:
        inside = u.indices != (1,)
        assert same.contains((u,)) == inside
        for v in words:
            assert eq.contains((u, v)) == (inside and u == v)


def test_complements_build_each_domain_power_once(monkeypatch):
    P = zn(1)
    struct = fo.AutomaticStructure(P.domain, {"R": P.relation("e1")})
    calls = []
    domain_power = rel.domain_power

    def counted(domain, n):
        calls.append(n)
        return domain_power(domain, n)

    monkeypatch.setattr(rel, "domain_power", counted)
    # three complements of arity 2 (of u = v, of R for the ->, and the inner
    # universal's) and two of arity 1 (around the inner universal)
    assert fo.decide(struct, "A u (A v (R(u,v) -> ! (u = v)))")
    assert sorted(calls) == [1, 2]
    _, r = fo.compile(struct, "R(u,v) | u = v")
    assert rel.rel_to_text(struct.complement(r)) == rel.rel_to_text(
        rel.rel_complement(r, struct.domain))
    assert sorted(calls) == [1, 2, 2]  # rel_complement builds its own


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_random_formulas_match_naive_model_checking(seed):
    rng = random.Random(seed)
    struct, words, tables = finite_structure(rng, AB, max_word_len=1)
    check_formula_soundness(rng, struct, words, tables, depth=3)


def test_sentence_examples():
    struct, words, tables = finite_structure(random.Random(5), AB)
    assert fo.decide(struct, "A x (x = x)")
    assert not fo.decide(struct, "E x (! (x = x))")
