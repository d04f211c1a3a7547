"""Bounded fitting for unions of conjunctive queries: variations, the
per-homomorphism obligation, mosaics, finite witnesses, and the decision
procedure."""

import pytest

from dlfit.core import (
    ALC, ALCI, BOTTOM_ONTOLOGY, Example, InputError, UCQ_MODE, abox,
    aq_query, collection, cq, preprocess_collection, size_of, ucq,
)
from dlfit.harness import inverse_cycles_collection
from dlfit.homs import homomorphisms
from dlfit.semantics import interp
from dlfit.ucqfit import (
    Bounds, FITTING_EXISTS, Mosaic, NO_FITTING_WITHIN_BOUNDS,
    TreeInterpretation, UNKNOWN, WitnessParts, check_finite_witness,
    decide_ucq_fitting, degree_bound, eliminate_mosaics,
    enumerate_proper_variations, glues_to, obligation_holds,
    search_finite_witness, synthesize_vd_ontology,
)


def neg(a, q):
    return Example(a, q, "negative")


def test_bounds_validation():
    with pytest.raises(InputError):
        Bounds(depth_unit=0)
    with pytest.raises(InputError):
        Bounds(degree=0)


def test_degree_bound_formula():
    negative = neg(abox(concepts=[("A1", "c")]), aq_query("B", "c"))
    e0 = collection([], [negative], UCQ_MODE, ALC)
    assert degree_bound(e0) == size_of(negative) == 2
    q = ucq(cq(concepts=[("B", "x")], roles=[("r", "a", "x")],
               variables=["x"]))
    pos = Example(abox(concepts=[("A", "a")]), q)
    assert size_of(pos) == 3 and size_of(pos.query) == 2
    e1 = collection([pos], [negative], UCQ_MODE, ALC)
    assert degree_bound(e1) == 2 + (3 + 1) ** 2
    assert degree_bound(e1) > degree_bound(e0)  # monotone in positives


def test_proper_variations_of_an_existential_edge():
    p = cq(roles=[("r", "a", "x")], variables=["x"])
    a = abox(roles=[("r", "a", "b")])
    vs = enumerate_proper_variations(p, a, ALC)
    grounds = [v for v in vs if not v.variables]
    kept = [v for v in vs if v.variables]
    assert len(vs) == 2 and len(grounds) == 1 and len(kept) == 1
    assert grounds[0].role_atoms == frozenset({("r", "a", "b")})
    (atom,) = kept[0].role_atoms
    assert atom[0] == "r" and atom[1] == "a" and atom[2] in kept[0].variables


def test_proper_variations_ground_query_is_itself():
    p = cq(concepts=[("A", "a")], roles=[("r", "a", "b")])
    a = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
    assert enumerate_proper_variations(p, a, ALC) == [p]


def test_proper_variations_inverse_direction_needs_alci():
    p = cq(roles=[("r", "x", "a")], variables=["x"])
    a = abox(concepts=[("A", "a")])
    assert enumerate_proper_variations(p, a, ALC) == []
    alci = enumerate_proper_variations(p, a, ALCI)
    assert len(alci) == 1 and alci[0].variables


def inverse_cycles_first_positive():
    return Example(abox(concepts=[("A1", "a")]),
                   ucq(cq(concepts=[("A2", "x")], roles=[("r", "x", "a")],
                          variables=["x"])))


def condition_b(piece, e, logic):
    """Every homomorphism from the positive ABox into the piece meets the
    variation obligation."""
    return all(obligation_holds(piece, e, h, logic)
               for h in homomorphisms(e.abox, piece))


def test_condition_b_on_the_inverse_child_piece():
    piece = interp({"a", "c"}, {("A1", "a"), ("A2", "c")}, {("r", "c", "a")},
                   {("a", "a")})
    e = inverse_cycles_first_positive()
    assert homomorphisms(e.abox, piece)
    assert condition_b(piece, e, ALCI)
    assert not condition_b(piece, e, ALC)


def test_condition_b_vacuous_without_homomorphisms():
    piece = interp({"u"}, {("B", "u")}, set(), {("a", "u")})
    e = inverse_cycles_first_positive()
    assert homomorphisms(e.abox, piece) == []
    assert condition_b(piece, e, ALC)


def uniform_chain(labels_per_level):
    node_labels = set()
    edges = set()
    word = ()
    for depth, lab in enumerate(labels_per_level):
        node_labels |= {(word, n) for n in lab}
        if depth:
            edges.add((word, "r", False))
        word = word + (1,)
    return TreeInterpretation(frozenset(node_labels), frozenset(edges))


def test_glues_to_chain_periodicity_and_label_mismatch():
    t = uniform_chain([{"A"}] * 4)  # depth 3
    m = Mosaic(t, 0)
    assert glues_to(m, (1,), t, 1)  # shift by one level along the chain
    other = uniform_chain([{"B"}, {"A"}, {"A"}, {"A"}])
    assert not glues_to(Mosaic(other, 0), (1,), t, 1)


def test_eliminate_mosaics_fixpoint_and_empty_cases():
    t = uniform_chain([{"A"}] * 4)
    closed = eliminate_mosaics({Mosaic(t, 0)})
    assert closed == {Mosaic(t, 0)}
    broken = uniform_chain([{"A"}, {"A"}, {"A"}, {"B"}])
    assert eliminate_mosaics({Mosaic(broken, 0)}) == set()


def test_eliminate_mosaics_is_decreasing_and_a_fixpoint():
    s0 = {Mosaic(uniform_chain([{"A"}] * 4), 0),
          Mosaic(uniform_chain([{"A"}, {"A"}, {"A"}, {"B"}]), 0),
          Mosaic(uniform_chain([frozenset()] * 4), 0)}
    s = eliminate_mosaics(s0)
    assert s <= s0
    assert eliminate_mosaics(s) == s


def handmade_witness(e6):
    parts = []
    labels = [("A1", "A2"), ("A2", "A1")]
    for k, ex in enumerate(e6.negatives):
        (ind,) = ex.abox.individuals
        anon = (ind, "mate")
        root_label, mate_label = labels[k]
        parts.append(interp(
            {ind, anon}, {(root_label, ind), (mate_label, anon)},
            {("r", ind, anon), ("r", anon, ind)}, {(ind, ind)}))
    return WitnessParts(tuple(parts), e6)


def test_two_cycle_witness_certifies_alci_but_not_alc():
    e6 = preprocess_collection(inverse_cycles_collection())
    w = handmade_witness(e6)
    assert check_finite_witness(w, e6, ALCI)
    assert not check_finite_witness(w, e6, ALC)


def test_search_finite_witness_finds_and_synthesis_verifies():
    e6 = inverse_cycles_collection()
    w = search_finite_witness(e6, ALCI, Bounds(finite_witness_size=2))
    assert w is not None
    assert check_finite_witness(w, w.collection, ALCI)
    assert not check_finite_witness(w, w.collection, ALC)
    o = synthesize_vd_ontology(w, ALCI, e=w.collection)
    assert o.logic == ALCI
    with pytest.raises(InputError):
        synthesize_vd_ontology(w, ALC, e=w.collection)  # fails verification


def test_decide_ucq_fitting_inverse_cycles_under_both_logics():
    verdict = decide_ucq_fitting(inverse_cycles_collection(ALCI),
                                 Bounds(depth_unit=2, degree=2))
    assert verdict.outcome == FITTING_EXISTS
    assert verdict.ontology is not None and verdict.certificate is not None
    alc = decide_ucq_fitting(inverse_cycles_collection(ALC),
                             Bounds(depth_unit=2, degree=2))
    assert alc.outcome == NO_FITTING_WITHIN_BOUNDS


def test_decide_ucq_fitting_caps_core_labelings():
    # one optional slot, B on the negative individual: two labelings
    e = collection(
        [], [neg(abox(concepts=[("A", "c")]), aq_query("B", "c"))],
        UCQ_MODE, ALC)
    capped = decide_ucq_fitting(e, Bounds(max_mosaics=1))
    assert capped.outcome == UNKNOWN
    assert "core labelings" in capped.diagnostics
    assert decide_ucq_fitting(e, Bounds(max_mosaics=2)).outcome == \
        FITTING_EXISTS


def test_decide_ucq_fitting_without_negatives():
    pos = Example(abox(concepts=[("A", "a")]), aq_query("B", "a"))
    e = collection([pos], [], UCQ_MODE, ALC)
    assert decide_ucq_fitting(e).ontology == BOTTOM_ONTOLOGY


def test_decide_ucq_fitting_mode_guard():
    from dlfit.harness import edge_loop_collection
    with pytest.raises(InputError):
        decide_ucq_fitting(edge_loop_collection())
