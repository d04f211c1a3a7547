"""Consistency-based and variable-free fitting deciders."""

import pytest

from dlfit import semantics
from dlfit.core import (
    ALC, ALCI, ALCQ, AQ, BOTTOM_ONTOLOGY, CONSISTENCY, Example, FULLCQ,
    Forall, InputError, Name, Not, Role, Top, abox, aq_query, collection, cq,
    ontology, signature_of, ucq,
)
from dlfit.flatfit import (
    CONSISTENT, Completion, FITTING_EXISTS, INCONSISTENT, NO_FITTING, UNKNOWN,
    classify_example, decide_alcq_fitting, decide_aq_fitting,
    decide_consistency_fitting, decide_fullcq_fitting, disjoint_negatives,
    disjoint_union, normalize_negatives, saturate_refutation_candidate,
    synthesize_csp_ontology,
)
from dlfit.harness import (
    alcq_collection, aq_saturation_collection, edge_loop_collection,
)
from dlfit.semantics import check_consistency, entails_ground


def check_consistency_fit(verdict, e):
    for ex in e.positives:
        assert check_consistency(ex.abox, verdict.ontology, e.logic)
    for ex in e.negatives:
        assert not check_consistency(ex.abox, verdict.ontology, e.logic)


def test_consistency_fitting_single_edge_vs_self_loop():
    e = edge_loop_collection()
    verdict = decide_consistency_fitting(e)
    assert verdict.fitting_exists
    check_consistency_fit(verdict, e)


def test_consistency_fitting_swapped_refuted_by_homomorphism():
    e = edge_loop_collection(swapped=True)
    verdict = decide_consistency_fitting(e)
    assert verdict.outcome == NO_FITTING
    ex, h = verdict.certificate
    m = h.as_dict()
    # the certificate really is a homomorphism of the negative into the
    # positive union
    target, _ = disjoint_union([p.abox for p in e.positives])
    for r, x, y in ex.abox.role_assertions:
        assert (r, m[x], m[y]) in target.role_assertions


def test_csp_ontology_exact_axioms_for_one_individual():
    a = abox(concepts=[("A", "a")])
    sig = signature_of(collection(
        [Example(a, None)], [], CONSISTENCY, ALC)) | \
        signature_of(abox(roles=[("r", "x", "y")]))
    o = synthesize_csp_ontology(a, sig)
    v = Name("__Va")
    assert o.inclusions == frozenset({
        (Top(), v),
        (v, Forall(Role("r"), Not(v))),
    })


def test_consistency_fitting_without_positives_or_with_empty_positive():
    e = collection([], [Example(abox(roles=[("r", "b", "b")]), None,
                                "negative")], CONSISTENCY, ALC)
    assert decide_consistency_fitting(e).ontology == BOTTOM_ONTOLOGY
    e2 = collection([Example(abox(), None)],
                    [Example(abox(concepts=[("A", "a")]), None, "negative")],
                    CONSISTENCY, ALC)
    verdict = decide_consistency_fitting(e2)
    assert verdict.fitting_exists
    assert not check_consistency(abox(concepts=[("A", "a")]),
                                 verdict.ontology, ALC)
    assert check_consistency(abox(), verdict.ontology, ALC)


def test_alcq_fitting_separates_what_alc_cannot():
    e = alcq_collection()
    verdict = decide_alcq_fitting(e)
    assert verdict.fitting_exists
    check_consistency_fit(verdict, e)
    plain = collection(e.positives, e.negatives, CONSISTENCY, ALC)
    assert decide_consistency_fitting(plain).outcome == NO_FITTING


def test_mode_guards():
    e = edge_loop_collection()
    with pytest.raises(InputError):
        decide_aq_fitting(e)
    with pytest.raises(InputError):
        decide_alcq_fitting(e)  # logic is ALC, not ALCQ
    aq = aq_saturation_collection()
    with pytest.raises(InputError):
        decide_consistency_fitting(aq)
    with pytest.raises(InputError):
        decide_fullcq_fitting(aq)


def test_disjoint_union_renames_only_on_collision():
    a1 = abox(concepts=[("A", "x")])
    a2 = abox(concepts=[("B", "y")])
    base, renamed = disjoint_union([a1, a2])
    assert base.individuals == {"x", "y"}
    assert renamed == [a1, a2]
    base2, renamed2 = disjoint_union([a1, abox(concepts=[("B", "x")])])
    assert base2.individuals == {"x", "x~1"}
    assert ("B", "x~1") in base2.concept_assertions


def test_completion_validates_added_individuals():
    base = abox(concepts=[("A", "x")])
    c = Completion(base, frozenset({("B", "x")}))
    assert ("B", "x") in c.abox.concept_assertions
    with pytest.raises(InputError):
        Completion(base, frozenset({("B", "zzz")}))


def test_saturation_on_the_four_example_collection():
    c = saturate_refutation_candidate(aq_saturation_collection())
    assert c.base.individuals == {"c", "d"}
    assert c.added == frozenset({("A2", "c"), ("A1", "c")})


def test_saturation_is_order_independent():
    e = aq_saturation_collection()
    flipped = collection(tuple(reversed(e.positives)),
                         tuple(reversed(e.negatives)), AQ, ALC)
    a = saturate_refutation_candidate(e)
    b = saturate_refutation_candidate(flipped)
    assert a.abox.concept_assertions == b.abox.concept_assertions


def test_aq_fitting_refuted_and_restored_by_dropping_any_example():
    verdict = decide_aq_fitting(aq_saturation_collection())
    assert verdict.outcome == NO_FITTING
    completion, ex = verdict.certificate
    (n, a), = next(iter(ex.query.disjuncts)).concept_atoms
    assert (n, a) in completion.abox.concept_assertions
    for drop in [("positive", 0), ("positive", 1),
                 ("negative", 0), ("negative", 1)]:
        v = decide_aq_fitting(aq_saturation_collection(drop=drop))
        assert v.fitting_exists and v.ontology is not None


def test_aq_fitting_checks_negatives_under_their_disjoint_renaming():
    # both negatives use the individual name "c"; the union renames the
    # second apart, and the head check must follow that renaming
    pos = Example(abox(concepts=[("A2", "p")]), aq_query("B", "p"))
    n0 = Example(abox(concepts=[("A1", "c")]), aq_query("B", "c"), "negative")
    n1 = Example(abox(concepts=[("A2", "c")]), aq_query("B", "c"), "negative")
    both = collection([pos], [n0, n1], AQ, ALC)
    assert decide_aq_fitting(both).outcome == NO_FITTING
    only_harmless = collection([pos], [n0], AQ, ALC)
    assert decide_aq_fitting(only_harmless).fitting_exists


def test_disjoint_negatives_keeps_queries_aligned():
    n0 = Example(abox(concepts=[("A", "c")]), aq_query("B", "c"), "negative")
    n1 = Example(abox(concepts=[("A", "c")]), aq_query("B", "c"), "negative")
    e = collection([], [n0, n1], AQ, ALC)
    base, negatives = disjoint_negatives(e)
    for ex in negatives:
        assert ex.abox.individuals <= base.individuals
        (n, a), = next(iter(ex.query.disjuncts)).concept_atoms
        assert a in ex.abox.individuals
    assert negatives[0] == n0
    assert negatives[1].abox.individuals == {"c~1"}


def test_aq_fitting_without_negatives_is_the_inconsistent_ontology():
    pos = Example(abox(concepts=[("A", "a")]), aq_query("B", "a"))
    e = collection([pos], [], AQ, ALC)
    assert decide_aq_fitting(e).ontology == BOTTOM_ONTOLOGY


def test_aq_fitting_does_not_decompose_over_negatives():
    # the refutation needs both negatives' union as homomorphism target, so
    # each negative alone admits a fitting while the pair does not
    e = aq_saturation_collection()
    separate = [decide_aq_fitting(collection(e.positives, [ex], AQ, ALC))
                for ex in e.negatives]
    assert all(v.fitting_exists for v in separate)
    assert not decide_aq_fitting(e).fitting_exists


def test_consistency_fitting_decomposes_over_negatives():
    pos = [Example(abox(roles=[("r", "a1", "a2")]), None)]
    negs = [Example(abox(roles=[("r", "b", "b")]), None, "negative"),
            Example(abox(concepts=[("A", "c")]), None, "negative")]
    joint = decide_consistency_fitting(collection(pos, negs,
                                                  CONSISTENCY, ALC))
    separate = [decide_consistency_fitting(collection(pos, [n],
                                                      CONSISTENCY, ALC))
                for n in negs]
    assert joint.fitting_exists == all(v.fitting_exists for v in separate)


def test_classify_example():
    cons = Example(abox(roles=[("r", "a", "b")]),
                   ucq(cq(concepts=[("B", "a")], roles=[("r", "a", "b")])))
    assert classify_example(cons) == CONSISTENT
    incons = Example(abox(concepts=[("A", "a")]),
                     ucq(cq(roles=[("r", "a", "a")])))
    assert classify_example(incons) == INCONSISTENT


def test_normalize_negatives_replaces_inconsistent_queries():
    pos = Example(abox(concepts=[("A", "a")]), ucq(cq(concepts=[("B", "a")])))
    neg = Example(abox(concepts=[("A", "b"), ("A", "c")]),
                  ucq(cq(roles=[("r", "b", "c")])), "negative")
    e = collection([pos], [neg], FULLCQ, ALC)
    norm = normalize_negatives(e)
    q = norm.negatives[0].query.disjuncts[0]
    assert not q.role_atoms
    (n, a), = q.concept_atoms
    assert n.startswith("__X") and a == "b"  # least individual
    assert norm.positives == e.positives


def test_fullcq_fitting_positive_case_verifies():
    pos = Example(abox(concepts=[("A", "a")], roles=[("r", "a", "b")]),
                  ucq(cq(concepts=[("B", "b")], roles=[("r", "a", "b")])))
    neg = Example(abox(concepts=[("A", "c")]),
                  ucq(cq(concepts=[("B", "c")])), "negative")
    e = collection([pos], [neg], FULLCQ, ALC)
    verdict = decide_fullcq_fitting(e)
    assert verdict.fitting_exists
    o = verdict.ontology
    assert entails_ground(pos.abox, o, pos.query.disjuncts[0], ALC)
    assert not entails_ground(neg.abox, o, neg.query.disjuncts[0], ALC)


def test_reverification_at_the_type_enumeration_cap_is_unknown(monkeypatch):
    # with no enumeration budget every type system build hits the cap, so
    # the re-verification of a synthesized ontology cannot finish
    monkeypatch.setattr(semantics, "MAX_TYPE_NODES", 0)
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    pos = Example(abox(concepts=[("A", "a")], roles=[("r", "a", "b")]),
                  ucq(cq(concepts=[("B", "b")], roles=[("r", "a", "b")])))
    neg = Example(abox(concepts=[("A", "c")]),
                  ucq(cq(concepts=[("B", "c")])), "negative")
    for decide, e in (
            (decide_fullcq_fitting, collection([pos], [neg], FULLCQ, ALC)),
            (decide_aq_fitting,
             aq_saturation_collection(drop=("negative", 0)))):
        verdict = decide(e)
        assert verdict.outcome == UNKNOWN and verdict.ontology is None
        assert verdict.diagnostics == "type enumeration cap"


def test_reverification_at_the_type_elimination_cap_is_unknown(monkeypatch):
    # with no elimination budget every type system with an existential atom
    # hits the cap; the ontology synthesized here has r-atoms, so its
    # re-verification cannot finish
    monkeypatch.setattr(semantics, "MAX_ELIMINATION_STEPS", 0)
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    pos = Example(abox(concepts=[("A", "a")], roles=[("r", "a", "b")]),
                  ucq(cq(concepts=[("B", "b")], roles=[("r", "a", "b")])))
    neg = Example(abox(concepts=[("A", "c")]),
                  ucq(cq(concepts=[("B", "c")])), "negative")
    verdict = decide_fullcq_fitting(collection([pos], [neg], FULLCQ, ALC))
    assert verdict.outcome == UNKNOWN and verdict.ontology is None
    assert verdict.diagnostics == "type elimination cap"


def test_fullcq_fitting_refuted_by_contained_negative_query():
    pos = Example(abox(concepts=[("A", "a")]), ucq(cq(concepts=[("B", "a")])))
    neg = Example(abox(concepts=[("A", "c")], roles=[("r", "c", "c2")]),
                  ucq(cq(concepts=[("B", "c")], roles=[("r", "c", "c2")])),
                  "negative")
    e = collection([pos], [neg], FULLCQ, ALC)
    verdict = decide_fullcq_fitting(e)
    assert verdict.outcome == NO_FITTING


def test_fullcq_fitting_refuted_by_inconsistent_positive_mapping_in():
    # the positive's query asserts a missing edge, so a fitting must make its
    # ABox inconsistent -- impossible once it maps into a negative's ABox
    pos = Example(abox(concepts=[("A", "a")]),
                  ucq(cq(roles=[("r", "a", "a")])))
    neg = Example(abox(concepts=[("A", "b")]),
                  ucq(cq(concepts=[("B", "b")])), "negative")
    e = collection([pos], [neg], FULLCQ, ALC)
    assert decide_fullcq_fitting(e).outcome == NO_FITTING
    # with a negative the positive cannot map into, the fitting reappears
    neg2 = Example(abox(concepts=[("C", "b")]),
                   ucq(cq(concepts=[("B", "b")])), "negative")
    e2 = collection([pos], [neg2], FULLCQ, ALC)
    verdict = decide_fullcq_fitting(e2)
    assert verdict.fitting_exists
    assert not check_consistency(pos.abox, verdict.ontology, ALC)


def test_fullcq_fitting_without_negatives():
    pos = Example(abox(concepts=[("A", "a")]), ucq(cq(concepts=[("B", "a")])))
    e = collection([pos], [], FULLCQ, ALC)
    assert decide_fullcq_fitting(e).ontology == BOTTOM_ONTOLOGY
