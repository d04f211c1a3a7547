"""Model checking, consistency, and entailment oracles."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dlfit import semantics
from dlfit.core import (
    ALC, ALCI, ALCQ, And, AtLeast, AtMost, BOTTOM_ONTOLOGY, Bottom,
    BoundsExceeded, Exists, Forall, InputError, Name, Not, Or, Role, Top,
    abox, cq, ontology, ucq,
)
from dlfit.semantics import (
    EntailmentBounds, TreeInterpretation, TypeSystem, abox_interpretation,
    check_consistency, entails_ground, entails_ucq_bounded, evaluate_query,
    extension, find_finite_countermodel, interp, is_forest_model, is_model,
    type_system,
)

R = Role("r")


def two_cycle():
    return interp(
        {"a", "c"},
        {("A1", "a"), ("A2", "c")},
        {("r", "a", "c"), ("r", "c", "a")},
        {("a", "a")})


def test_interpretation_validation():
    with pytest.raises(InputError):
        interp(set())
    with pytest.raises(InputError):
        interp({"a"}, labels={("A", "b")})
    with pytest.raises(InputError):
        interp({"a"}, names={("x", "b")})


def test_extension_boolean_and_role_constructs():
    i = interp({"a", "b", "c"},
               {("A", "a"), ("A", "b"), ("B", "c")},
               {("r", "a", "b"), ("r", "a", "c")})
    assert extension(i, Name("A")) == {"a", "b"}
    assert extension(i, Not(Name("A"))) == {"c"}
    assert extension(i, And(Name("A"), Name("B"))) == set()
    assert extension(i, Or(Name("A"), Name("B"))) == {"a", "b", "c"}
    assert extension(i, Exists(R, Name("B"))) == {"a"}
    assert extension(i, Forall(R, Name("A"))) == {"b", "c"}
    assert extension(i, Exists(Role("r", True), Name("A"))) == {"b", "c"}
    assert extension(i, AtMost(1, R, Top())) == {"b", "c"}
    assert extension(i, AtLeast(2, R, Top())) == {"a"}


@st.composite
def small_interpretations(draw):
    domain = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4,
                           unique=True))
    elems = st.sampled_from(domain)
    labels = draw(st.sets(st.tuples(st.sampled_from("AB"), elems)))
    edges = draw(st.sets(st.tuples(st.just("r"), elems, elems)))
    return interp(domain, labels, edges)


def brute_force_extension(i, c):
    """The quantified concept over names, by its definition on the labels
    and edges; c.arg is a concept name."""
    inner = {e for n, e in i.labels if n == c.arg.name}
    out = set()
    for x in i.domain:
        if c.role.inverted:
            ys = {y for r, y, z in i.edges if r == "r" and z == x}
        else:
            ys = {z for r, y, z in i.edges if r == "r" and y == x}
        n = len(ys & inner)
        if isinstance(c, Exists):
            keep = n >= 1
        elif isinstance(c, Forall):
            keep = ys <= inner
        elif isinstance(c, AtMost):
            keep = n <= c.bound
        else:
            keep = n >= c.bound
        if keep:
            out.add(x)
    return out


@settings(max_examples=150, deadline=None)
@given(small_interpretations(), st.sampled_from([Exists, Forall, AtMost,
                                                 AtLeast]),
       st.booleans(), st.sampled_from("AB"), st.integers(0, 3))
def test_extension_of_quantifiers_matches_definition(i, kind, inverted,
                                                     name, bound):
    role = Role("r", inverted)
    if kind in (Exists, Forall):
        c = kind(role, Name(name))
    else:
        c = kind(bound, role, Name(name))
    assert extension(i, c) == brute_force_extension(i, c)


def test_is_model_two_step_forbidding_ontology():
    # forbids two consecutive role steps: holds on a single edge, fails on a
    # self-loop
    o = ontology([(Exists(R, Exists(R, Top())), Bottom())], ALC)
    edge = abox(roles=[("r", "a1", "a2")])
    loop = abox(roles=[("r", "b", "b")])
    assert is_model(abox_interpretation(edge), o)
    assert not is_model(abox_interpretation(loop), o)
    assert is_model(abox_interpretation(edge), edge)
    assert not is_model(abox_interpretation(loop),
                        abox(roles=[("s", "b", "b")]))
    with pytest.raises(InputError):
        is_model(abox_interpretation(edge), loop)  # b is not anchored


def test_check_consistency_edge_vs_loop():
    o = ontology([(Exists(R, Exists(R, Top())), Bottom())], ALC)
    assert check_consistency(abox(roles=[("r", "a1", "a2")]), o, ALC)
    assert not check_consistency(abox(roles=[("r", "b", "b")]), o, ALC)


def test_check_consistency_needs_type_elimination():
    o = ontology([(Top(), Exists(R, Name("B"))), (Name("B"), Bottom())], ALC)
    assert not check_consistency(abox(concepts=[("A", "a")]), o, ALC)
    o2 = ontology([(Name("A"), Exists(R, Name("A")))], ALC)
    assert check_consistency(abox(concepts=[("A", "a")]), o2, ALC)


def test_check_consistency_with_no_atoms_checks_the_inclusions():
    # top sub bot tracks no atom, so the only candidate type is the empty
    # one, which the inclusion must still reject
    assert not check_consistency(abox(), BOTTOM_ONTOLOGY, ALC)
    assert not check_consistency(abox(roles=[("r", "a", "b")]),
                                 BOTTOM_ONTOLOGY, ALC)
    assert check_consistency(abox(roles=[("r", "a", "b")]), ontology([], ALC),
                             ALC)


def test_check_consistency_absent_names():
    o = ontology([(Name("A"), Name("B"))], ALC)
    a = abox(concepts=[("A", "a"), ("C", "a")], roles=[("r", "a", "b")])
    assert not check_consistency(a, o, ALC, absent=[("B", "a")])
    assert check_consistency(a, o, ALC, absent=[("B", "b")])
    # C and D are names the ontology does not mention: an asserted one
    # cannot be absent, an unasserted one can
    assert not check_consistency(a, o, ALC, absent=[("C", "a")])
    assert check_consistency(a, o, ALC, absent=[("D", "a"), ("C", "b")])
    with pytest.raises(InputError):
        check_consistency(abox(), o, ALC, absent=[("B", "a")])


def test_type_enumeration_is_capped():
    # 199 nested existentials, each free: 2^201 types before the cap
    deep = Name("B")
    for _ in range(199):
        deep = Exists(R, deep)
    o = ontology([(Name("A"), deep)], ALC)
    with pytest.raises(BoundsExceeded, match="type enumeration cap"):
        TypeSystem(o, ALC)
    with pytest.raises(BoundsExceeded, match="type enumeration cap"):
        check_consistency(abox(concepts=[("A", "a")]), o, ALC)
    ans = entails_ucq_bounded(abox(concepts=[("A", "a")]), o,
                              ucq(cq(concepts=[("B", "a")])), ALC)
    assert ans.status == "unknown"
    assert ans.diagnostics == "type enumeration cap"


def small_alc_concepts():
    base = st.one_of(st.just(Top()),
                     st.builds(Name, st.sampled_from(["A", "B"])))
    return st.recursive(
        base, lambda inner: st.one_of(st.builds(Not, inner),
                                      st.builds(And, inner, inner),
                                      st.builds(Exists, st.just(R), inner)),
        max_leaves=3)


def product_assignments(ts, a, absent):
    """Every choice of allowed types for the individuals, in product order,
    kept when each role assertion is a permitted edge."""
    inds = sorted(a.individuals)
    options = [ts.allowed_types({n for n, y in a.concept_assertions
                                 if y == x},
                                {n for n, y in absent if y == x})
               for x in inds]
    out = []
    for combo in product(*options):
        tau = dict(zip(inds, combo))
        if all(ts.edge_ok(tau[u], r, tau[v])
               for r, u, v in a.role_assertions):
            out.append(tau)
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(small_alc_concepts(), small_alc_concepts()),
                max_size=2),
       st.sets(st.tuples(st.sampled_from("ABC"), st.sampled_from("xyz")),
               min_size=1, max_size=3),
       st.sets(st.tuples(st.just("r"), st.sampled_from("xyz"),
                         st.sampled_from("xyz")), max_size=3),
       st.sets(st.tuples(st.sampled_from("ABC"), st.sampled_from("xyz")),
               max_size=2))
def test_assignments_match_the_filtered_product(cis, cs, rs, absent):
    ts = TypeSystem(ontology(cis, ALC), ALC)
    a = abox(concepts=cs, roles=rs)
    want = product_assignments(ts, a, absent)
    assert list(ts.assignments(a, absent)) == want
    assert ts.abox_assignment(a, absent) == (want[0] if want else None)


# A reference type elimination over frozensets of tagged atoms, ("n",
# name) and ("e", Exists), with the definitions the bitset TypeSystem
# replaced.


def ref_holds(c, t):
    if isinstance(c, Top):
        return True
    if isinstance(c, Name):
        return ("n", c.name) in t
    if isinstance(c, Not):
        return not ref_holds(c.arg, t)
    if isinstance(c, And):
        return ref_holds(c.left, t) and ref_holds(c.right, t)
    if isinstance(c, Exists):
        return ("e", c) in t
    raise TypeError(f"unexpected concept in reduced form: {c!r}")


def ref_edge_ok(atoms, t_from, role, t_to):
    for e in atoms:
        if e.role == role and ("e", e) not in t_from:
            if ref_holds(e.arg, t_to):
                return False
        if e.role == role.inverse() and ("e", e) not in t_to:
            if ref_holds(e.arg, t_from):
                return False
    return True


def ref_witnesses(atoms, t, e, pool):
    return [t2 for t2 in pool
            if ref_edge_ok(atoms, t, e.role, t2) and ref_holds(e.arg, t2)]


def ref_eliminate(atoms, types):
    pool = list(types)
    changed = True
    while changed:
        changed = False
        keep = []
        for t in pool:
            if all(ref_witnesses(atoms, t, e, pool)
                   for e in atoms if ("e", e) in t):
                keep.append(t)
            else:
                changed = True
        pool = keep
    return pool


def ref_types(ts):
    """The assignments to the tracked atoms that satisfy every inclusion,
    in lexicographic order (names, then existential atoms; absent first)."""
    tagged = ([("n", n) for n in sorted(ts.names)]
              + [("e", e) for e in ts.exists_atoms])
    out = []
    for values in product((False, True), repeat=len(tagged)):
        t = frozenset(a for a, v in zip(tagged, values) if v)
        if all(not ref_holds(l, t) or ref_holds(r, t) for l, r in ts.cis):
            out.append(t)
    return out


def tagged(ts, t):
    names, exists = ts.parts(t)
    return frozenset({("n", n) for n in names} | {("e", e) for e in exists})


def ontology_concepts(roles):
    base = st.one_of(st.just(Top()),
                     st.builds(Name, st.sampled_from(["A", "B"])))
    return st.recursive(
        base, lambda inner: st.one_of(
            st.builds(Not, inner), st.builds(And, inner, inner),
            st.builds(Exists, st.sampled_from(roles), inner)),
        max_leaves=3)


@st.composite
def small_ontologies(draw):
    logic = draw(st.sampled_from([ALC, ALCI]))
    roles = [R, Role("s")] + ([R.inverse()] if logic == ALCI else [])
    concepts = ontology_concepts(roles)
    cis = draw(st.lists(st.tuples(concepts, concepts), max_size=3))
    return ontology(cis, logic), logic


@settings(max_examples=150, deadline=None)
@given(small_ontologies())
def test_type_system_matches_the_reference_elimination(case):
    o, logic = case
    ts = TypeSystem(o, logic)
    atoms = ts.exists_atoms
    types = ref_types(ts)
    assert [tagged(ts, t) for t in ts.types] == types
    survivors = ref_eliminate(atoms, types)
    assert [tagged(ts, t) for t in ts.survivors] == survivors
    for t1 in ts.survivors:
        for t2 in ts.survivors:
            for name in ("r", "s"):
                role = Role(name)
                assert ts.edge_ok(t1, name, t2) == ref_edge_ok(
                    atoms, tagged(ts, t1), role, tagged(ts, t2))
                assert ts.edge_ok(t2, name, t1) == ref_edge_ok(
                    atoms, tagged(ts, t1), role.inverse(), tagged(ts, t2))
        for e in ts.parts(t1)[1]:
            assert [tagged(ts, w) for w in ts.survivor_witnesses(t1, e)] \
                == ref_witnesses(atoms, tagged(ts, t1), e, survivors)


def all_rules_enumeration(ts):
    """The types and the node count of the enumeration that checks every
    inclusion at every search node, in TypeSystem's bit order."""
    rules = [ts._truth(And(l, Not(r))) for l, r in ts.cis]
    n = len(ts.names) + len(ts.exists_atoms)
    out, nodes = [], 0

    def go(k, known, val):
        nonlocal nodes
        if any(f(known, val) for f in rules):
            return
        nodes += 1
        if k == n:
            out.append(val)
            return
        for v in (val, val | 1 << k):
            go(k + 1, known | 1 << k, v)

    go(0, 0, 0)
    return out, nodes


@st.composite
def indexed_ontologies(draw):
    logic = draw(st.sampled_from([ALC, ALCI]))
    roles = [R, Role("s")] + ([R.inverse()] if logic == ALCI else [])
    base = st.one_of(st.just(Top()), st.just(Bottom()),
                     st.builds(Name, st.sampled_from(["A", "B", "C"])))
    concepts = st.recursive(
        base, lambda inner: st.one_of(
            st.builds(Not, inner), st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Exists, st.sampled_from(roles), inner),
            st.builds(Forall, st.sampled_from(roles), inner)),
        max_leaves=4)
    cis = draw(st.lists(st.tuples(concepts, concepts), max_size=5))
    return ontology(cis, logic), logic


@settings(max_examples=200, deadline=None)
@given(indexed_ontologies())
def test_rule_index_matches_the_all_rules_enumeration(case):
    o, logic = case
    ts = TypeSystem(o, logic)
    types, nodes = all_rules_enumeration(ts)
    assert ts.types == types
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "MAX_TYPE_NODES", nodes)
        assert TypeSystem(o, logic).types == types
        if nodes:
            mp.setattr(semantics, "MAX_TYPE_NODES", nodes - 1)
            with pytest.raises(BoundsExceeded, match="type enumeration cap"):
                TypeSystem(o, logic)


def test_a_capped_type_system_build_is_memoized(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_TYPE_NODES", 3)
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    builds = []
    enumerate_types = TypeSystem._enumerate
    monkeypatch.setattr(TypeSystem, "_enumerate", lambda self, n: (
        builds.append(n), enumerate_types(self, n))[1])
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    for _ in range(2):
        with pytest.raises(BoundsExceeded, match="type enumeration cap"):
            type_system(o, ALC)
    assert len(builds) == 1


def cycle_ontology(k, role, poison):
    """{Ai sub exists role . A(i+1 mod k)}; poison adds A(k-1) sub
    forall role . not A0, which makes every Ai unsatisfiable."""
    cis = [(Name(f"A{i}"), Exists(role, Name(f"A{(i + 1) % k}")))
           for i in range(k)]
    if poison:
        cis.append((Name(f"A{k - 1}"), Forall(role, Not(Name("A0")))))
    return ontology(cis, ALCI if role.inverted else ALC)


def test_cycle_ontology_survivors():
    # 3^7 types survive the plain cycle: each Ai is absent, or present with
    # its existential atom; the poisoned one keeps only the empty type
    for role, logic in ((R, ALC), (R.inverse(), ALCI)):
        ts = TypeSystem(cycle_ontology(7, role, False), logic)
        assert len(ts.survivors) == 2187
        ts = TypeSystem(cycle_ontology(7, role, True), logic)
        assert len(ts.survivors) == 1
        assert ts.parts(ts.survivors[0]) == (frozenset(), ())


def test_type_elimination_is_capped(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_ELIMINATION_STEPS", 0)
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    o = cycle_ontology(3, R, False)
    with pytest.raises(BoundsExceeded, match="type elimination cap"):
        TypeSystem(o, ALC)
    with pytest.raises(BoundsExceeded, match="type elimination cap"):
        check_consistency(abox(concepts=[("A0", "a")]), o, ALC)
    ans = entails_ucq_bounded(abox(concepts=[("A0", "a")]), o,
                              ucq(cq(concepts=[("A1", "a")])), ALC)
    assert ans.status == "unknown"
    assert ans.diagnostics == "type elimination cap"


def test_check_consistency_alcq_is_capped():
    # 21 free (name, individual) slots: 2^21 labelings, all failing
    o = ontology([(Top(), AtMost(1, R, Top())), (Name("C"), Bottom())],
                 ALCQ)
    a = abox(concepts=[("B0", "x0"), ("B1", "x1"), ("B2", "x2")],
             roles=[("r", "x0", "y0"), ("r", "x0", "y1"), ("r", "x0", "y2")])
    with pytest.raises(BoundsExceeded, match="alcq labeling cap"):
        check_consistency(a, o, ALCQ)


def test_check_consistency_alcq():
    o = ontology([(Top(), AtMost(1, R, Top()))], ALCQ)
    assert check_consistency(abox(roles=[("r", "a", "b")]), o, ALCQ)
    assert not check_consistency(
        abox(roles=[("r", "a", "b"), ("r", "a", "c")]), o, ALCQ)


def all_propositional_models(a, names):
    """All label assignments to the individuals of a extending its
    assertions."""
    inds = sorted(a.individuals)
    extra = [(n, x) for x in inds for n in names
             if (n, x) not in a.concept_assertions]
    for bits in range(1 << len(extra)):
        labels = set(a.concept_assertions) | {
            extra[i] for i in range(len(extra)) if bits >> i & 1}
        yield interp(inds, labels, a.role_assertions,
                     {(x, x) for x in inds})


def prop_concepts():
    base = st.one_of(st.just(Top()), st.just(Bottom()),
                     st.builds(Name, st.sampled_from(["A", "B"])))
    return st.recursive(
        base, lambda inner: st.one_of(st.builds(Not, inner),
                                      st.builds(And, inner, inner),
                                      st.builds(Or, inner, inner)),
        max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(prop_concepts(), prop_concepts()), max_size=2),
       st.sets(st.tuples(st.sampled_from(["A", "B"]),
                         st.sampled_from(["x", "y"])), min_size=1, max_size=3))
def test_consistency_matches_brute_force_on_propositional_instances(cis, cs):
    o = ontology(cis, ALC)
    a = abox(concepts=cs)
    want = any(is_model(i, o) for i in all_propositional_models(a, ["A", "B"]))
    assert check_consistency(a, o, ALC) == want


def test_is_forest_model_directions():
    i = two_cycle()
    a = abox(concepts=[("A1", "a")])
    # the backward edge breaks ALC, but antiparallel edges between the same
    # pair are a single undirected tree edge, so ALCI accepts it
    assert not is_forest_model(i, a, ALC)
    assert is_forest_model(i, a, ALCI)
    triangle = interp({"a", "c", "d"}, {("A1", "a")},
                      {("r", "a", "c"), ("r", "c", "d"), ("r", "d", "a")},
                      {("a", "a")})
    assert not is_forest_model(triangle, a, ALCI)
    loop = interp({"a", "t"}, {("A1", "a")}, {("r", "t", "t")}, {("a", "a")})
    assert not is_forest_model(loop, a, ALCI)
    tree = interp({"a", "t"}, {("A1", "a")}, {("r", "t", "a")}, {("a", "a")})
    assert not is_forest_model(tree, a, ALC)  # edge points at the individual
    assert is_forest_model(tree, a, ALCI)
    down = interp({"a", "t"}, {("A1", "a")}, {("r", "a", "t")}, {("a", "a")})
    assert is_forest_model(down, a, ALC)


def test_two_disjoint_cycles_model_the_inverse_cycles_witness():
    # each part is a model of its ABox but never a forest model
    i = two_cycle()
    assert is_model(i, abox(concepts=[("A1", "a")]))
    assert evaluate_query(
        i, cq(concepts=[("A2", "x")], roles=[("r", "x", "a")],
              variables=["x"]))


def test_tree_interpretation_validation():
    TreeInterpretation(frozenset({((1,), "A")}),
                       frozenset({((1,), "r", False)}))
    with pytest.raises(InputError):
        TreeInterpretation(frozenset({((2,), "A")}),
                           frozenset({((2,), "r", False)}))  # gap: no (1,)
    with pytest.raises(InputError):
        TreeInterpretation(frozenset({((1,), "A")}), frozenset())  # no edge


def test_entails_ground_basics():
    o = ontology([(Name("A"), Name("B"))], ALC)
    a = abox(concepts=[("A", "a")])
    assert entails_ground(a, o, cq(concepts=[("B", "a")]), ALC)
    assert not entails_ground(a, o, cq(concepts=[("C", "a")]), ALC)
    # role atom not in the ABox is never entailed by a consistent pair
    assert not entails_ground(a, o, cq(roles=[("r", "a", "a")]), ALC)
    # inconsistency entails everything
    bot = ontology([(Top(), Bottom())], ALC)
    assert entails_ground(a, bot, cq(roles=[("r", "a", "a")]), ALC)
    with pytest.raises(InputError):
        entails_ground(a, o, cq(concepts=[("B", "x")], variables=["x"]), ALC)
    # C and D are names the ontology does not mention: only the asserted
    # C(a) is entailed
    a2 = abox(concepts=[("A", "a"), ("C", "a")], roles=[("r", "a", "b")])
    assert entails_ground(a2, o, cq(concepts=[("C", "a"), ("B", "a")]), ALC)
    assert not entails_ground(a2, o, cq(concepts=[("D", "a")]), ALC)
    assert not entails_ground(a2, o, cq(concepts=[("C", "b")]), ALC)


def test_evaluate_query_anchors_individuals():
    i = interp({"u", "v"}, {("A", "v")}, set(), {("a", "u")})
    assert not evaluate_query(i, cq(concepts=[("A", "a")]))
    assert evaluate_query(i, ucq(cq(concepts=[("A", "x")], variables=["x"])))


def test_entails_ucq_bounded_with_existential_witness():
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("B", "x")], roles=[("r", "a", "x")],
               variables=["x"]))
    assert entails_ucq_bounded(a, o, q, ALC).status == "entailed"
    q2 = ucq(cq(concepts=[("C", "x")], variables=["x"]))
    ans = entails_ucq_bounded(a, o, q2, ALC)
    assert ans.status == "not-entailed"
    cm = ans.countermodel
    assert is_model(cm, o) and is_model(cm, a)
    assert not evaluate_query(cm, q2)


def test_entails_ucq_bounded_names_outside_the_ontology():
    # C is asserted on a and D nowhere; the ontology mentions neither, so
    # only a can be in C and nothing need be in D
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    a = abox(concepts=[("A", "a"), ("C", "a")])
    for q in (cq(concepts=[("C", "a")]),
              cq(concepts=[("C", "x")], variables=["x"]),
              cq(concepts=[("C", "x"), ("B", "y")], roles=[("r", "x", "y")],
                 variables=["x", "y"])):
        assert entails_ucq_bounded(a, o, ucq(q), ALC).status == "entailed"
    for q in (cq(concepts=[("D", "a")]),
              cq(concepts=[("D", "x")], variables=["x"]),
              cq(concepts=[("C", "y")], roles=[("r", "a", "y")],
                 variables=["y"])):
        ans = entails_ucq_bounded(a, o, ucq(q), ALC)
        assert ans.status == "not-entailed"
        cm = ans.countermodel
        assert is_model(cm, o) and is_model(cm, a)
        assert not evaluate_query(cm, ucq(q))


def test_entails_ucq_bounded_countermodels_are_genuine():
    # inverse-role ontology distinguishes the logics
    o = ontology([(Name("A1"), Exists(Role("r", True), Name("A2")))], ALCI)
    a = abox(concepts=[("A1", "a")])
    q = ucq(cq(concepts=[("A2", "x")], roles=[("r", "x", "a")],
               variables=["x"]))
    assert entails_ucq_bounded(a, o, q, ALCI).status == "entailed"
    empty = ontology([], ALC)
    ans = entails_ucq_bounded(a, empty, q, ALC)
    assert ans.status == "not-entailed"


# Known answers for the search's query check, which looks at the whole
# candidate only at the root and, below it, only for matches through the
# element just added.

def test_entails_ucq_bounded_disconnected_query():
    # every model gives a an r-successor in A and an s-successor in B, and
    # the query asks only for some A and some B anywhere: x and y land on
    # the two successors, added one after the other
    o = ontology([(Name("A0"), And(Exists(R, Name("A")),
                                   Exists(Role("s"), Name("B"))))], ALC)
    a = abox(concepts=[("A0", "a")])
    q = ucq(cq(concepts=[("A", "x"), ("B", "y")], variables=["x", "y"]))
    assert entails_ucq_bounded(a, o, q, ALC).status == "entailed"


def test_entails_ucq_bounded_inverse_role_witness():
    # a needs an r-predecessor in B, which is exactly what y asks for
    o = ontology([(Name("A"), Exists(Role("r", True), Name("B")))], ALCI)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("B", "y")], roles=[("r", "y", "a")],
               variables=["y"]))
    assert entails_ucq_bounded(a, o, q, ALCI).status == "entailed"


def test_entails_ucq_bounded_match_two_anonymous_levels_down():
    # a has an r-successor in B, which has an r-successor in C: x and y
    # map to the first and second anonymous level
    o = ontology([(Name("A"), Exists(R, Name("B"))),
                  (Name("B"), Exists(R, Name("C")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("C", "y")],
               roles=[("r", "a", "x"), ("r", "x", "y")],
               variables=["x", "y"]))
    assert entails_ucq_bounded(a, o, q, ALC).status == "entailed"
    # without the second inclusion the C-successor need not exist
    o1 = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    assert entails_ucq_bounded(a, o1, q, ALC).status == "not-entailed"


def test_entails_ucq_bounded_query_of_individuals_only():
    # A ⊑ B puts B on a in every model; r(a, b) is asserted; nothing puts
    # B on b
    o = ontology([(Name("A"), Name("B"))], ALC)
    a = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
    hit = ucq(cq(concepts=[("B", "a")], roles=[("r", "a", "b")]))
    assert entails_ucq_bounded(a, o, hit, ALC).status == "entailed"
    miss = ucq(cq(concepts=[("B", "b")]))
    ans = entails_ucq_bounded(a, o, miss, ALC)
    assert ans.status == "not-entailed"
    assert not evaluate_query(ans.countermodel, miss)


def test_entails_ucq_bounded_rejects_query_individual_outside_abox():
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("B", "x")], roles=[("r", "c", "x")],
               variables=["x"]))
    with pytest.raises(InputError, match="individual c is not anchored"):
        entails_ucq_bounded(a, o, q, ALC)


def test_entails_ucq_bounded_countermodel_of_a_two_step_query():
    # a's r-successor in B needs no successor of its own, so a two-step
    # r-path from a is not entailed, and the countermodel shows it
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(roles=[("r", "a", "x"), ("r", "x", "y")],
               variables=["x", "y"]))
    ans = entails_ucq_bounded(a, o, q, ALC)
    assert ans.status == "not-entailed"
    cm = ans.countermodel
    assert is_model(cm, o) and is_model(cm, a)
    assert not evaluate_query(cm, q)
    assert evaluate_query(cm, ucq(cq(concepts=[("B", "x")],
                                     roles=[("r", "a", "x")],
                                     variables=["x"])))


def assert_genuine_countermodel(ans, a, o, q):
    cm = ans.countermodel
    assert is_model(cm, o) and is_model(cm, a)
    assert not evaluate_query(cm, q)


# Known answers for branching once per class of types: a class that
# ignored the query's names, the existential atoms, or which atoms'
# arguments a type satisfies would merge a type that avoids the query into
# one that matches it.

def test_entails_ucq_bounded_separates_query_names():
    # a's r-successor is in C or in D, and only a D-successor matches
    o = ontology([(Name("A"), Exists(R, Name("B"))),
                  (Name("B"), Or(Name("C"), Name("D")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("D", "x")], roles=[("r", "a", "x")],
               variables=["x"]))
    ans = entails_ucq_bounded(a, o, q, ALC)
    assert ans.status == "not-entailed"
    assert_genuine_countermodel(ans, a, o, q)


def test_entails_ucq_bounded_separates_existential_atoms():
    # a's r-successor is in C or has an s-successor, and only an
    # s-successor matches; the query sees no concept name
    o = ontology([(Name("A"), Exists(R, Name("B"))),
                  (Name("B"), Or(Name("C"), Exists(Role("s"), Top())))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(roles=[("r", "a", "x"), ("s", "x", "y")],
               variables=["x", "y"]))
    ans = entails_ucq_bounded(a, o, q, ALC)
    assert ans.status == "not-entailed"
    assert_genuine_countermodel(ans, a, o, q)


def test_entails_ucq_bounded_separates_satisfied_arguments():
    # a's r-successor x is in E or in Z, names the query does not see; its
    # s-successor in D must be in Q only when x is not in E
    s = Role("s")
    o = ontology([(Name("A"), Exists(R, Name("B"))),
                  (Name("B"), Exists(s, Name("D"))),
                  (Name("B"), Or(Name("E"), Name("Z"))),
                  (And(Name("D"), Not(Name("Q"))),
                   Not(Exists(s.inverse(), Not(Name("E")))))], ALCI)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("Q", "y")],
               roles=[("r", "a", "x"), ("s", "x", "y")],
               variables=["x", "y"]))
    ans = entails_ucq_bounded(a, o, q, ALCI)
    assert ans.status == "not-entailed"
    assert_genuine_countermodel(ans, a, o, q)


def test_entails_ucq_bounded_separates_query_names_at_the_root():
    # the first type assignment puts a in D; the next avoids the query
    o = ontology([(Name("A"), Or(Name("C"), Name("D")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("D", "a")]))
    ans = entails_ucq_bounded(a, o, q, ALC)
    assert ans.status == "not-entailed"
    assert_genuine_countermodel(ans, a, o, q)


def disjunctive_path(k, m):
    """{A sub exists r . A} and k inclusions A sub (Ci or Di), the ABox
    A(a), and an r-path of length m from a that ends in A: entailed, and
    each inclusion doubles the witness types of every obligation."""
    cis = [(Name("A"), Exists(R, Name("A")))] + [
        (Name("A"), Or(Name(f"C{i}"), Name(f"D{i}"))) for i in range(k)]
    xs = [f"x{j}" for j in range(1, m + 1)]
    path = ["a"] + xs
    q = ucq(cq(concepts=[("A", xs[-1])],
               roles=[("r", path[j], path[j + 1]) for j in range(m)],
               variables=xs))
    return abox(concepts=[("A", "a")]), ontology(cis, ALCI), q


def test_entails_ucq_bounded_disjunctive_paths():
    # branching over every witness type ran into the candidate cap here;
    # the query sees none of the Ci and Di, so one witness class remains
    for k, m in ((3, 3), (4, 2)):
        a, o, q = disjunctive_path(k, m)
        ans = entails_ucq_bounded(a, o, q, ALCI)
        assert ans.status == "entailed"
        assert ans.nodes <= 20


@st.composite
def small_entailment_problems(draw):
    """An ALC or ALCI ontology over A, B and r, an ABox over a and b with a
    concept assertion on a, and a CQ over a, x and y."""
    logic = draw(st.sampled_from([ALC, ALCI]))
    concepts = ontology_concepts([R] + ([R.inverse()] if logic == ALCI
                                        else []))
    cis = draw(st.lists(st.tuples(concepts, concepts), max_size=3))
    names, inds, terms = st.sampled_from("AB"), st.sampled_from("ab"), \
        st.sampled_from("axy")
    cs = {(draw(names), "a")} | draw(st.sets(st.tuples(names, inds),
                                             max_size=1))
    rs = draw(st.sets(st.tuples(st.just("r"), inds, inds), max_size=2))
    q_cs = draw(st.sets(st.tuples(names, terms), max_size=2))
    q_rs = draw(st.sets(st.tuples(st.just("r"), terms, terms),
                        min_size=0 if q_cs else 1, max_size=2))
    used = {t for _, t in q_cs} | {t for _, u, v in q_rs for t in (u, v)}
    q = ucq(cq(concepts=q_cs, roles=q_rs, variables=used & {"x", "y"}))
    return abox(concepts=cs, roles=rs), ontology(cis, logic), q, logic


@settings(max_examples=150, deadline=None)
@given(small_entailment_problems())
def test_entails_ucq_bounded_agrees_with_finite_models(problem):
    a, o, q, logic = problem
    # a few instances run to the default 50,000-node cap, for seconds each
    ans = entails_ucq_bounded(a, o, q, logic,
                              EntailmentBounds(max_candidates=2000))
    if ans.status == "not-entailed":
        assert_genuine_countermodel(ans, a, o, q)
    elif ans.status == "entailed":
        model, settled = find_finite_countermodel(a, o, q, logic, 2)
        assert not (settled and model is not None)


def test_find_finite_countermodel():
    o = ontology([(Name("A"), Exists(R, Name("B")))], ALC)
    a = abox(concepts=[("A", "a")])
    q = ucq(cq(concepts=[("C", "x")], variables=["x"]))
    model, settled = find_finite_countermodel(a, o, q, ALC, 2)
    assert settled and model is not None
    assert is_model(model, o) and is_model(model, a)
    assert not evaluate_query(model, q)
    q_hit = ucq(cq(concepts=[("B", "x")], variables=["x"]))
    model2, settled2 = find_finite_countermodel(a, o, q_hit, ALC, 2)
    assert settled2 and model2 is None
