"""Syntax layer: concepts, ontologies, ABoxes, queries, collections,
signatures, normal form, and preprocessing."""

import pytest
from hypothesis import given, strategies as st

from dlfit.core import (
    ALC, ALCI, ALCQ, AQ, And, AtMost, Bottom, CONSISTENCY, CQ, Exists,
    Example, FULLCQ, Forall, InputError, Name, Not, Or, Role, Top, UCQ,
    UCQ_MODE, UnsupportedLogicError, abox, abox_components, aq_query,
    check_concepts, collection, cq, cq_components, expand_abbreviations,
    normalize_ontology, ontology, preprocess_collection,
    reduce_consistent_fitting, signature_of, size_of, subconcepts, ucq,
)


def names():
    return st.sampled_from(["A", "B", "C"])


def roles():
    return st.builds(Role, st.sampled_from(["r", "s"]), st.booleans())


def concepts(max_depth=3):
    base = st.one_of(st.just(Top()), st.just(Bottom()),
                     st.builds(Name, names()))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Exists, roles(), inner),
            st.builds(Forall, roles(), inner)),
        max_leaves=8)


def test_role_inverse_involution():
    r = Role("r")
    assert r.inverse().inverse() == r
    assert r.inverse().inverted


def test_check_concept_rejects_constructs_outside_logic():
    with pytest.raises(UnsupportedLogicError):
        check_concepts([Exists(Role("r", True), Top())], ALC)
    with pytest.raises(UnsupportedLogicError):
        check_concepts([AtMost(1, Role("r"), Top())], ALCI)
    check_concepts([Exists(Role("r", True), Top())], ALCI)
    check_concepts([AtMost(1, Role("r"), Top())], ALCQ)


def _eval(c, labels):
    """Boolean semantics of a role-free concept at a single point."""
    if isinstance(c, Top):
        return True
    if isinstance(c, Bottom):
        return False
    if isinstance(c, Name):
        return c.name in labels
    if isinstance(c, Not):
        return not _eval(c.arg, labels)
    if isinstance(c, And):
        return _eval(c.left, labels) and _eval(c.right, labels)
    if isinstance(c, Or):
        return _eval(c.left, labels) or _eval(c.right, labels)
    raise AssertionError


@given(concepts(), st.sets(names()))
def test_expand_abbreviations_preserves_propositional_semantics(c, labels):
    has_role = any(isinstance(s, (Exists, Forall)) for s in subconcepts(c))
    if has_role:
        return
    expanded = expand_abbreviations(c)
    assert not any(isinstance(s, (Or, Forall, Bottom))
                   for s in subconcepts(expanded))
    assert _eval(c, labels) == _eval(expanded, labels)


def test_abox_individuals_and_rename():
    a = abox(concepts=[("A", "x")], roles=[("r", "x", "y")])
    assert a.individuals == {"x", "y"}
    b = a.rename({"x": "z"})
    assert ("A", "z") in b.concept_assertions
    assert ("r", "z", "y") in b.role_assertions


def test_cq_shape_flags():
    q1 = cq(concepts=[("A", "a")])
    assert q1.is_aq and q1.is_full
    q2 = cq(concepts=[("A", "a")], roles=[("r", "a", "b")])
    assert q2.is_full and not q2.is_aq
    q3 = cq(roles=[("r", "a", "x")], variables=["x"])
    assert not q3.is_full
    assert q3.individuals == {"a"}


def test_cq_rejects_unused_variables():
    with pytest.raises(InputError):
        cq(concepts=[("A", "a")], variables=["x"])


def test_ucq_must_be_nonempty():
    with pytest.raises(InputError):
        UCQ(())


def test_example_query_individuals_must_be_in_abox():
    with pytest.raises(InputError):
        Example(abox(concepts=[("A", "a")]), aq_query("B", "b"))


def test_collection_mode_shape_validation():
    ex = Example(abox(concepts=[("A", "a")]), aq_query("B", "a"))
    collection([ex], [], AQ, ALC)
    with pytest.raises(InputError):
        collection([ex], [], CONSISTENCY, ALC)  # consistency takes no query
    full = Example(abox(roles=[("r", "a", "b")]),
                   ucq(cq(roles=[("r", "a", "b")])))
    with pytest.raises(InputError):
        collection([full], [], AQ, ALC)  # not atomic
    var = Example(abox(concepts=[("A", "a")]),
                  ucq(cq(roles=[("r", "a", "x")], variables=["x"])))
    with pytest.raises(InputError):
        collection([var], [], FULLCQ, ALC)  # variables forbidden
    disj = Example(abox(concepts=[("A", "a")]),
                   ucq(cq(concepts=[("A", "a")]), cq(concepts=[("B", "a")])))
    with pytest.raises(InputError):
        collection([disj], [], AQ, ALC)  # disjunction forbidden
    collection([disj], [], UCQ_MODE, ALC)


def test_signature_of_collection():
    ex = Example(abox(concepts=[("A", "a")], roles=[("r", "a", "b")]),
                 aq_query("B", "a"))
    sig = signature_of(collection([ex], [], AQ, ALC))
    assert sig.concept_names == {"A", "B"}
    assert sig.role_names == {"r"}


def test_size_of_counts_atoms():
    ex = Example(abox(concepts=[("A", "a")], roles=[("r", "a", "b")]),
                 aq_query("B", "a"))
    assert size_of(ex.abox) == 2
    assert size_of(ex) == 3


def test_normalize_ontology_nested_constructs():
    o = ontology([(Name("A"), Name("B"))], ALC)
    norm = normalize_ontology(o)
    assert len(norm.inclusions) == 2
    (fresh,) = {c.arg for lhs, rhs in norm.inclusions
                for c in (lhs, rhs) if isinstance(c, Not)}
    assert norm.inclusions == frozenset({
        (Name("A"), Not(fresh)), (Not(fresh), Name("B"))})


def test_normalize_ontology_idempotent_on_normal_forms():
    o = ontology([
        (Top(), Name("A")),
        (And(Name("A"), Name("B")), Name("C")),
        (Name("A"), Exists(Role("r"), Name("B"))),
        (Exists(Role("r", True), Name("B")), Name("A")),
        (Name("A"), Not(Name("B"))),
        (Not(Name("B")), Name("A")),
    ], ALCI)
    assert normalize_ontology(o) == o


def test_normalize_ontology_rejects_number_restrictions():
    o = ontology([(Top(), AtMost(1, Role("r"), Name("A")))], ALCQ)
    with pytest.raises(UnsupportedLogicError):
        normalize_ontology(o)


@given(concepts())
def test_normalize_produces_only_normal_shapes(c):
    from dlfit.core import _is_normal
    norm = normalize_ontology(ontology([(c, Name("Z"))], ALCI))
    assert all(_is_normal(lhs, rhs) for lhs, rhs in norm.inclusions)


def test_cq_components_splits_on_shared_terms():
    q = cq(concepts=[("A", "x"), ("B", "y")], roles=[("r", "x", "z")],
           variables=["x", "y", "z"])
    comps = cq_components(q)
    assert len(comps) == 2
    sizes = sorted(size_of(c) for c in comps)
    assert sizes == [1, 2]


def test_abox_components():
    a = abox(concepts=[("A", "u")], roles=[("r", "x", "y"), ("r", "y", "z")])
    comps = abox_components(a)
    assert len(comps) == 2
    assert {frozenset(c.individuals) for c in comps} == {
        frozenset({"u"}), frozenset({"x", "y", "z"})}


def test_preprocess_renames_examples_apart():
    ex1 = Example(abox(concepts=[("A", "a")]), aq_query("B", "a"))
    ex2 = Example(abox(concepts=[("A", "a")]), aq_query("C", "a"), "negative")
    e = preprocess_collection(collection([ex1], [ex2], AQ, ALC))
    inds = [ex.abox.individuals for ex in e.examples]
    assert inds[0] & inds[1] == frozenset()
    (n, a), = next(iter(e.positives[0].query.disjuncts)).concept_atoms
    assert a in e.positives[0].abox.individuals


def test_preprocess_splits_disconnected_positive_disjuncts():
    q = cq(concepts=[("A", "x"), ("B", "y")], variables=["x", "y"])
    ex = Example(abox(concepts=[("D", "a")]), ucq(q))
    e = preprocess_collection(collection([ex], [], UCQ_MODE, ALC))
    assert len(e.positives) == 2
    for p in e.positives:
        for d in p.query.disjuncts:
            assert len(cq_components(d)) == 1


def test_preprocess_rejects_empty_positive_abox_in_ucq_mode():
    ex = Example(abox(), ucq(cq(concepts=[("A", "x")], variables=["x"])))
    with pytest.raises(InputError):
        preprocess_collection(collection([ex], [], UCQ_MODE, ALC))


def test_reduce_consistent_fitting_adds_one_negative_per_positive():
    ex = Example(abox(concepts=[("A", "a")]), aq_query("B", "a"))
    e = reduce_consistent_fitting(collection([ex], [], AQ, ALC))
    assert len(e.negatives) == 1
    neg = e.negatives[0]
    assert neg.abox == ex.abox
    (n, a), = next(iter(neg.query.disjuncts)).concept_atoms
    assert n.startswith("__X") and a == "a"
