"""Constrained homomorphism search."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dlfit.core import ALC, ALCI, InputError, Role, abox, cq
from dlfit.semantics import interp
from dlfit.homs import (
    HomConstraints, Mapping, homomorphisms, is_locally_injective,
    reachable_set, strong_constraints, target_view,
)


def test_self_loop_needs_a_loop_in_the_target():
    loop = abox(roles=[("r", "b", "b")])
    edge = abox(roles=[("r", "a1", "a2")])
    assert homomorphisms(loop, edge) == []
    homs = homomorphisms(edge, loop)
    assert [h.as_dict() for h in homs] == [{"a1": "b", "a2": "b"}]


def test_labels_must_be_preserved():
    src = abox(concepts=[("A", "x")])
    tgt = abox(concepts=[("B", "y")])
    assert homomorphisms(src, tgt) == []
    assert len(homomorphisms(src, abox(concepts=[("A", "y"), ("A", "z")]))) \
        == 2


def test_fixed_constraints_pin_terms():
    src = abox(roles=[("r", "x", "y")])
    tgt = abox(roles=[("r", "a", "b"), ("r", "c", "b")])
    homs = homomorphisms(src, tgt, HomConstraints(fixed=(("x", "c"),)))
    assert [h.as_dict() for h in homs] == [{"x": "c", "y": "b"}]
    with pytest.raises(InputError):
        homomorphisms(src, tgt, HomConstraints(fixed=(("x", "zzz"),)))


def test_strong_constraints_force_identity_on_individuals():
    src = abox(concepts=[("A", "a")])
    tgt = abox(concepts=[("A", "a"), ("A", "b")])
    c = strong_constraints(src.individuals, {"a": "a"})
    homs = homomorphisms(src, tgt, c)
    assert [h.as_dict() for h in homs] == [{"a": "a"}]


def test_empty_source_has_exactly_the_empty_mapping():
    assert homomorphisms(abox(), abox(concepts=[("A", "a")])) == [Mapping(())]
    assert homomorphisms(cq(), abox(concepts=[("A", "a")])) == [Mapping(())]


def test_cq_variables_and_individuals():
    q = cq(concepts=[("A", "x")], roles=[("r", "a", "x")], variables=["x"])
    tgt = abox(concepts=[("A", "v")], roles=[("r", "u", "v")])
    homs = homomorphisms(q, tgt)
    assert [h.as_dict() for h in homs] == [{"a": "u", "x": "v"}]


def test_locally_injective_forbids_sibling_merging():
    src = abox(roles=[("r", "p", "c1"), ("r", "p", "c2")])
    tgt = abox(roles=[("r", "d", "e")])
    assert len(homomorphisms(src, tgt)) == 1
    assert homomorphisms(src, tgt,
                         HomConstraints(locally_injective=True)) == []
    wide = abox(roles=[("r", "d", "e"), ("r", "d", "f")])
    homs = homomorphisms(src, wide, HomConstraints(locally_injective=True))
    assert all(is_locally_injective(h, src) for h in homs)
    assert len(homs) == 2  # the two ways to keep c1, c2 apart


def test_is_locally_injective():
    src = abox(roles=[("r", "p", "c1"), ("r", "p", "c2")])
    assert not is_locally_injective({"p": "d", "c1": "e", "c2": "e"}, src)
    assert is_locally_injective({"p": "d", "c1": "e", "c2": "f"}, src)


def test_reachable_set_respects_logic():
    tgt = abox(roles=[("r", "a", "b"), ("r", "c", "b")])
    assert reachable_set(tgt, {"a"}, ALC) == {"a", "b"}
    assert reachable_set(tgt, {"a"}, ALCI) == {"a", "b", "c"}


def test_reachable_set_from_several_starts():
    # two components: a -> b <- c, and d -> e; f has no edges
    tgt = abox(concepts=[("A", "f")],
               roles=[("r", "a", "b"), ("s", "c", "b"), ("r", "d", "e")])
    assert reachable_set(tgt, {"b"}, ALC) == {"b"}
    assert reachable_set(tgt, {"b"}, ALCI) == {"a", "b", "c"}
    assert reachable_set(tgt, {"f"}, ALCI) == {"f"}
    assert reachable_set(tgt, {"a", "d"}, ALC) == {"a", "b", "d", "e"}
    assert reachable_set(tgt, {"c", "e"}, ALCI) == {"a", "b", "c", "d", "e"}
    assert reachable_set(tgt, set(), ALCI) == set()


def test_interpretation_keeps_one_target_view():
    i = interp({"a", "b"}, {("A", "a")}, {("r", "a", "b")})
    assert target_view(i) is target_view(i)
    assert target_view(i).labeled("A") == {"a"}
    assert reachable_set(i, {"a"}, ALC) == {"a", "b"}


def test_reachability_anchors_restrict_variables_only():
    q = cq(concepts=[("A", "x")], variables=["x"])

    def anchored(tgt):
        return HomConstraints(reachable=reachable_set(tgt, {"near"}, ALC))

    tgt = abox(concepts=[("A", "far")], roles=[("r", "near", "mid")])
    assert homomorphisms(q, tgt, anchored(tgt)) == []
    tgt2 = abox(concepts=[("A", "mid")], roles=[("r", "near", "mid")])
    homs = homomorphisms(q, tgt2, anchored(tgt2))
    assert [h.as_dict() for h in homs] == [{"x": "mid"}]


def test_results_are_deterministic_and_sorted():
    src = abox(concepts=[("A", "x")])
    tgt = abox(concepts=[("A", "b"), ("A", "a"), ("A", "c")])
    homs = homomorphisms(src, tgt)
    assert [h.as_dict()["x"] for h in homs] == \
        [h.as_dict()["x"] for h in homomorphisms(src, tgt)]
    assert homs[0] == homomorphisms(src, tgt, want="first")[0]


def test_target_view_push_and_pop():
    base = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
    view = target_view(base)
    q = cq(concepts=[("A", "x"), ("B", "y")], roles=[("r", "x", "y")],
           variables=["x", "y"])
    assert homomorphisms(q, view) == []
    view.push("c", {"B"}, [("r", "a", "c")])
    grown = abox(concepts=[("A", "a"), ("B", "c")],
                 roles=[("r", "a", "b"), ("r", "a", "c")])
    assert view.elements == ["a", "b", "c"]
    assert view.labeled("B") == {"c"}
    assert homomorphisms(q, view) == homomorphisms(q, grown)
    assert [h.as_dict() for h in homomorphisms(q, view)] == \
        [{"x": "a", "y": "c"}]
    with pytest.raises(ValueError):
        view.push("c", (), ())
    view.pop()
    assert view.elements == ["a", "b"]
    assert view.labeled("B") == set()
    assert homomorphisms(q, view) == []
    assert reachable_set(view, {"a"}, ALC) == {"a", "b"}


def small_aboxes(inds, max_atoms=4):
    atom_c = st.tuples(st.sampled_from(["A", "B"]), st.sampled_from(inds))
    atom_r = st.tuples(st.just("r"), st.sampled_from(inds),
                       st.sampled_from(inds))
    return st.builds(
        lambda cs, rs: abox(cs, rs),
        st.sets(atom_c, max_size=max_atoms),
        st.sets(atom_r, max_size=max_atoms))


def brute_force_homs(src, tgt):
    out = []
    terms = sorted(src.individuals)
    for combo in product(sorted(tgt.individuals), repeat=len(terms)):
        m = dict(zip(terms, combo))
        if all((n, m[x]) in tgt.concept_assertions
               for n, x in src.concept_assertions) and \
           all((r, m[x], m[y]) in tgt.role_assertions
               for r, x, y in src.role_assertions):
            out.append(m)
    return out


@settings(max_examples=150, deadline=None)
@given(small_aboxes(["x", "y", "z"]), small_aboxes(["u", "v"]))
def test_hom_search_matches_brute_force(src, tgt):
    if not src.individuals or not tgt.individuals:
        return
    got = sorted(tuple(sorted(h.as_dict().items()))
                 for h in homomorphisms(src, tgt))
    want = sorted(tuple(sorted(m.items())) for m in brute_force_homs(src, tgt))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(small_aboxes(["x", "y", "z"]), small_aboxes(["u", "v", "w"]))
def test_locally_injective_search_matches_brute_force(src, tgt):
    if not src.individuals or not tgt.individuals:
        return
    got = sorted(tuple(sorted(h.as_dict().items()))
                 for h in homomorphisms(
                     src, tgt, HomConstraints(locally_injective=True)))
    want = sorted(tuple(sorted(m.items())) for m in brute_force_homs(src, tgt)
                  if is_locally_injective(m, src))
    assert got == want
