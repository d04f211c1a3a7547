"""End-to-end acceptance checks: exact worked examples, oracle equivalences
on random instances, and structural properties of the search machinery.

Each test prints a single pass/fail line (bypassing capture) with its
runtime, and enforces its runtime budget."""

import random
import sys
import time

from conftest import ACCEPTANCE_LINES

from dlfit.core import (
    ALC, ALCI, ALCQ, AQ, CONSISTENCY, Example, Exists, FULLCQ, Name, Role,
    abox, aq_query, collection, cq, ontology, reduce_consistent_fitting, ucq,
)
from dlfit.cli import main
from dlfit.flatfit import (
    FITTING_EXISTS, NO_FITTING, decide_alcq_fitting, decide_aq_fitting,
    decide_consistency_fitting, decide_fullcq_fitting, disjoint_negatives,
    saturate_refutation_candidate,
)
from dlfit.harness import (
    alcq_collection, aq_saturation_collection, inverse_cycles_collection,
    generate_from_entailment, bibliography_collection, bibliography_ontologies,
    edge_loop_collection, verify_fit,
)
from dlfit.homs import homomorphisms
from dlfit.semantics import (
    check_consistency, entails_ground, entails_ucq_bounded,
    find_finite_countermodel,
)
from dlfit.ucqfit import (
    Bounds, BoundsExceeded, Mosaic, NO_FITTING_WITHIN_BOUNDS,
    TreeInterpretation, check_finite_witness, decide_ucq_fitting,
    eliminate_mosaics, glues_to, search_finite_witness,
    synthesize_vd_ontology,
)

FIXDIR = __file__.rsplit("/", 2)[0] + "/fixtures"


def report(num, ok, seconds, budget, detail):
    status = "PASS" if ok and seconds < budget else "FAIL"
    line = (f"acceptance {num:02d}: {status} ({seconds:.2f}s / {budget:g}s) "
            f"{detail}")
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, detail
    assert seconds < budget, f"runtime budget exceeded: {seconds:.2f}s"


def test_acceptance_01_consistency_example():
    t0 = time.perf_counter()
    assert main(["fit", f"{FIXDIR}/edge_loop.ex", "--mode", "consistency"]) == 0
    verdict = decide_consistency_fitting(edge_loop_collection())
    o = verdict.ontology
    ok = (verdict.outcome == FITTING_EXISTS
          and check_consistency(abox(roles=[("r", "a1", "a2")]), o, ALC)
          is True
          and check_consistency(abox(roles=[("r", "b", "b")]), o, ALC)
          is False)
    assert main(["fit", f"{FIXDIR}/edge_loop_swapped.ex"]) == 1
    swapped = decide_consistency_fitting(edge_loop_collection(swapped=True))
    ok = ok and swapped.outcome == NO_FITTING
    ex, h = swapped.certificate
    m = h.as_dict()
    ok = ok and all((r, m[x], m[y]) in
                    abox(roles=[("r", "b", "b")]).role_assertions
                    for r, x, y in ex.abox.role_assertions)
    report(1, ok, time.perf_counter() - t0, 1.0,
           "single-edge vs self-loop consistency fitting, both polarities")


def test_acceptance_02_aq_example_and_drop_variants():
    t0 = time.perf_counter()
    verdict = decide_aq_fitting(aq_saturation_collection())
    comp, _ = verdict.certificate
    ok = (verdict.outcome == NO_FITTING
          and comp.added == frozenset({("A2", "c"), ("A1", "c")}))
    for drop in [("positive", 0), ("positive", 1),
                 ("negative", 0), ("negative", 1)]:
        e = aq_saturation_collection(drop=drop)
        v = decide_aq_fitting(e)
        ok = ok and v.outcome == FITTING_EXISTS
        rep = verify_fit(v.ontology, e)
        ok = ok and rep.fits and all(r.status == "pass" for r in rep.results)
    report(2, ok, time.perf_counter() - t0, 1.0,
           "atomic-query saturation refutes; dropping any example restores")


def test_acceptance_03_bibliography_verification():
    t0 = time.perf_counter()
    o_full, o_bottom, o_augmented = bibliography_ontologies()
    e = bibliography_collection()
    ok = (verify_fit(o_full, e).fits is True
          and verify_fit(o_bottom, e).fits is True
          and verify_fit(o_augmented, e).fits is True)
    extended = bibliography_collection(extended=True)
    ok = ok and (verify_fit(o_full, extended).fits is True
                 and verify_fit(o_bottom, extended).fits is False
                 and verify_fit(o_augmented, extended).fits is False)
    report(3, ok, time.perf_counter() - t0, 1.0,
           "bibliography collection accepts/rejects the three ontologies")


def test_acceptance_04_ucq_inverse_cycles():
    t0 = time.perf_counter()
    b = Bounds(depth_unit=2, degree=2)
    alci = decide_ucq_fitting(inverse_cycles_collection(ALCI), b)
    alc = decide_ucq_fitting(inverse_cycles_collection(ALC), b)
    ok = (alci.outcome == FITTING_EXISTS
          and alc.outcome == NO_FITTING_WITHIN_BOUNDS)
    w = search_finite_witness(inverse_cycles_collection(ALCI), ALCI,
                              Bounds(finite_witness_size=2))
    ok = ok and w is not None
    if ok:
        ok = check_finite_witness(w, w.collection, ALCI)
        synthesize_vd_ontology(w, ALCI, e=w.collection)  # raises on failure
        ok = ok and not check_finite_witness(w, w.collection, ALC)
    report(4, ok, time.perf_counter() - t0, 30.0,
           "inverse-role collection: fits under ALCI, not within ALC bounds")


# --- random instance generators for the oracle suites ----------------------

NAMES = ["A1", "A2", "A3"]
INDS = ["x", "y", "z"]


def random_abox(rng):
    inds = rng.sample(INDS, rng.randint(1, 3))
    concepts = {(n, a) for a in inds for n in NAMES if rng.random() < 0.4}
    roles = set()
    for a in inds:
        for b2 in inds:
            if rng.random() < 0.25:
                roles.add(("r", a, b2))
    used = {a for _, a in concepts} | {t for _, x, y in roles
                                       for t in (x, y)}
    for a in inds:
        if a not in used:
            concepts.add((rng.choice(NAMES), a))
    return abox(concepts, roles)


def random_aq_example(rng, polarity):
    a = random_abox(rng)
    anchor = rng.choice(sorted(a.individuals))
    return Example(a, aq_query(rng.choice(NAMES), anchor), polarity)


def random_fullcq_example(rng, polarity):
    a = random_abox(rng)
    inds = sorted(a.individuals)
    concepts, roles = set(), set()
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            concepts.add((rng.choice(NAMES), rng.choice(inds)))
        else:
            roles.add(("r", rng.choice(inds), rng.choice(inds)))
    if not concepts and not roles:
        concepts.add((rng.choice(NAMES), inds[0]))
    return Example(a, ucq(cq(concepts, roles)), polarity)


def random_collection(rng, mode):
    make = random_aq_example if mode == AQ else random_fullcq_example
    npos = rng.randint(1, 2)
    nneg = rng.randint(0, 3 - npos)
    return collection([make(rng, "positive") for _ in range(npos)],
                      [make(rng, "negative") for _ in range(nneg)],
                      mode, ALC)


def _single(ex):
    return ex.query.disjuncts[0]


def completions(e):
    """All characterization completions: the disjoint negative union plus any
    subset of head-name assertions on its individuals, with the renamed
    negatives."""
    base, negatives = disjoint_negatives(e)
    heads = sorted({n for ex in e.positives
                    for n, _ in _single(ex).concept_atoms})
    slots = [(n, a) for n in heads for a in sorted(base.individuals)]
    for bits in range(1 << len(slots)):
        added = {slots[i] for i in range(len(slots)) if bits >> i & 1}
        yield abox(base.concept_assertions | added,
                   base.role_assertions), negatives


def brute_force_aq_fitting(e):
    """Direct check of the characterization: a fitting exists iff some
    completion propagates every positive head along every homomorphism (2a)
    and asserts no negative head (2b)."""
    for c, negatives in completions(e):
        facts = c.concept_assertions
        if any(next(iter(_single(ex).concept_atoms)) in facts
               for ex in negatives):
            continue
        ok = True
        for ex in e.positives:
            (n, a), = _single(ex).concept_atoms
            for h in homomorphisms(ex.abox, c):
                if (n, h.as_dict()[a]) not in facts:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _consistent_with_own_abox(ex):
    return all(atom in ex.abox.role_assertions
               for atom in _single(ex).role_atoms)


def brute_force_fullcq_fitting(e):
    """Characterization with consistent/inconsistent positives split: (2a)
    head propagation for consistent positives, (2b) every negative query has
    a missing atom, (2c) inconsistent positives admit no homomorphism."""
    for c, negatives in completions(e):
        facts = c.concept_assertions
        redges = c.role_assertions

        def satisfied(q):
            return (all(atom in facts for atom in q.concept_atoms)
                    and all(atom in redges for atom in q.role_atoms))

        if any(satisfied(_single(ex)) for ex in negatives):
            continue
        ok = True
        for ex in e.positives:
            q = _single(ex)
            if _consistent_with_own_abox(ex):
                for h in homomorphisms(ex.abox, c):
                    m = h.as_dict()
                    if any((n, m[a]) not in facts for n, a in q.concept_atoms):
                        ok = False
                        break
            else:
                if homomorphisms(ex.abox, c, want="first"):
                    ok = False
            if not ok:
                break
        if ok:
            return True
    return False


def test_acceptance_05_aq_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    agree = 0
    for _ in range(200):
        e = random_collection(rng, AQ)
        got = decide_aq_fitting(e).fitting_exists
        want = brute_force_aq_fitting(e)
        agree += got == want
    report(5, agree == 200, time.perf_counter() - t0, 60.0,
           f"atomic-query decider vs completion enumeration: {agree}/200")


def test_acceptance_06_fullcq_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(4711)
    agree = 0
    for _ in range(200):
        e = random_collection(rng, FULLCQ)
        got = decide_fullcq_fitting(e).fitting_exists
        want = brute_force_fullcq_fitting(e)
        agree += got == want
    report(6, agree == 200, time.perf_counter() - t0, 60.0,
           f"variable-free-query decider vs completion enumeration: "
           f"{agree}/200")


def test_acceptance_07_consistency_fitting_decomposes():
    t0 = time.perf_counter()
    rng = random.Random(99)
    good = 0
    for _ in range(100):
        npos = rng.randint(0, 2)
        nneg = rng.randint(1, 3)
        pos = [Example(random_abox(rng), None) for _ in range(npos)]
        negs = [Example(random_abox(rng), None, "negative")
                for _ in range(nneg)]
        joint = decide_consistency_fitting(
            collection(pos, negs, CONSISTENCY, ALC)).fitting_exists
        split = all(decide_consistency_fitting(
            collection(pos, [n], CONSISTENCY, ALC)).fitting_exists
            for n in negs)
        good += joint == split
    report(7, good == 100, time.perf_counter() - t0, 60.0,
           f"joint verdict equals per-negative conjunction: {good}/100")


def brute_force_consistent_aq_fitting(e):
    """Independent oracle for the consistency-requiring variant: extend the
    collection with one fresh-head negative per positive (built here, not via
    the library reduction) and run the completion enumeration."""
    extra = []
    for k, ex in enumerate(e.positives):
        anchor = min(ex.abox.individuals)
        extra.append(Example(ex.abox, aq_query(f"Z{k}", anchor), "negative"))
    return brute_force_aq_fitting(
        collection(e.positives, tuple(e.negatives) + tuple(extra), AQ,
                   e.logic))


def tiny_aq_collection(rng):
    """Smaller instances (<=2 individuals, <=2 concept names, <=2 examples)
    keep the doubly-brute-force cross-check below fast."""
    names, inds = ["A1", "A2"], ["x", "y"]

    def tiny_abox():
        sel = rng.sample(inds, rng.randint(1, 2))
        concepts = {(n, a) for a in sel for n in names if rng.random() < 0.5}
        roles = {("r", a, b) for a in sel for b in sel
                 if rng.random() < 0.25}
        used = {a for _, a in concepts} | {t for _, x, y in roles
                                           for t in (x, y)}
        for a in sel:
            if a not in used:
                concepts.add((rng.choice(names), a))
        return abox(concepts, roles)

    def ex(polarity):
        a = tiny_abox()
        return Example(a, aq_query(rng.choice(names),
                                   rng.choice(sorted(a.individuals))),
                       polarity)

    npos = rng.randint(1, 2)
    nneg = rng.randint(0, 1)
    return collection([ex("positive") for _ in range(npos)],
                      [ex("negative") for _ in range(nneg)], AQ, ALC)


def test_acceptance_08_consistent_fitting_reduction():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    good = 0
    for _ in range(100):
        e = tiny_aq_collection(rng)
        reduced = reduce_consistent_fitting(e)
        got = decide_aq_fitting(reduced).fitting_exists
        cross = brute_force_aq_fitting(reduced)
        want = brute_force_consistent_aq_fitting(e)
        good += got == want == cross
    report(8, good == 100, time.perf_counter() - t0, 60.0,
           f"fresh-head reduction matches consistent-fitting oracle: "
           f"{good}/100")


def test_acceptance_09_alcq_separation():
    t0 = time.perf_counter()
    e = alcq_collection()
    verdict = decide_alcq_fitting(e)
    ok = verdict.outcome == FITTING_EXISTS
    o = verdict.ontology
    ok = ok and check_consistency(abox(roles=[("r", "d", "e")]), o, ALCQ) \
        is True
    ok = ok and check_consistency(
        abox(roles=[("r", "a", "b"), ("r", "a", "c")]), o, ALCQ) is False
    for logic in (ALC, ALCI):
        plain = collection(e.positives, e.negatives, CONSISTENCY, logic)
        ok = ok and decide_consistency_fitting(plain).outcome == NO_FITTING
    report(9, ok, time.perf_counter() - t0, 60.0,
           "sibling-merging instance fits only with number restrictions")


def entailment_triples():
    """Tiny (ABox, ontology, query) triples; every query component contains a
    role atom, so the reduction is exact in both directions.  Non-entailed
    triples carry a flag saying whether a witness of size <= 4 per part
    exists (the per-name choice gadget forces extra structure, so triples
    with a non-empty ontology generally need larger witnesses)."""
    r = Role("r")
    q_edge = ucq(cq(roles=[("r", "x", "y")], variables=["x", "y"]))
    q_edge_b = ucq(cq(concepts=[("B", "y")], roles=[("r", "x", "y")],
                      variables=["x", "y"]))
    q_src_b = ucq(cq(concepts=[("B", "x")], roles=[("r", "x", "y")],
                     variables=["x", "y"]))
    a_single = abox(concepts=[("A", "a")])
    a_edge = abox(concepts=[("A", "a")], roles=[("r", "a", "b")])
    o_empty = ontology([], ALCI)
    o_succ = ontology([(Name("A"), Exists(r, Name("B")))], ALCI)
    o_inv = ontology([(Name("A"), Exists(r.inverse(), Name("B")))], ALCI)
    entailed = [
        (a_single, o_succ, q_edge),
        (a_single, o_succ, q_edge_b),
        (a_single, o_inv, q_edge),
        (a_single, o_inv, q_src_b),  # the inverse edge puts B at the source
        (a_edge, o_empty, q_edge),
        (a_edge, o_succ, q_edge),
        (abox(concepts=[("B", "a")], roles=[("r", "b", "a")]), o_empty,
         q_edge_b),
        (a_edge, o_inv, q_edge),
        (abox(concepts=[("A", "a"), ("B", "b")], roles=[("r", "a", "b")]),
         o_empty, q_edge_b),
        (a_single, ontology([(Name("A"), Exists(r, Name("A")))], ALCI),
         q_edge),
    ]
    o_free = ontology([(Name("C"), Exists(r, Name("B")))], ALCI)
    not_entailed = [
        (a_single, o_empty, q_edge, True),
        (a_single, o_empty, q_edge_b, True),
        (a_single, o_free, q_edge, False),
        (a_single, o_free, q_edge_b, False),
        (abox(concepts=[("B", "a")]), o_empty, q_edge, True),
        (abox(concepts=[("B", "a")]), o_empty, q_edge_b, True),
        (a_single, o_inv, q_edge_b, False),
        (abox(concepts=[("A", "a"), ("A", "b")]), o_empty, q_edge, True),
        (a_single, ontology([(Name("B"), Exists(r, Name("B")))], ALCI),
         q_edge, False),
        (abox(roles=[("r", "a", "b")]), o_empty, q_edge_b, False),
    ]
    return entailed, not_entailed


def test_acceptance_10_entailment_reduction_cross_check():
    t0 = time.perf_counter()
    entailed, not_entailed = entailment_triples()
    ok = True
    for a, o, q in entailed:
        ok = ok and entails_ucq_bounded(a, o, q, ALCI).entailed
        e = generate_from_entailment(a, o, q)
        try:
            w = search_finite_witness(e, ALCI, Bounds(finite_witness_size=4))
        except BoundsExceeded:
            w = None
        ok = ok and w is None  # never fitting-exists on entailed inputs
    for a, o, q, small_witness in not_entailed:
        cm, settled = find_finite_countermodel(a, o, q, ALCI, 4)
        ok = ok and settled and cm is not None
        e = generate_from_entailment(a, o, q)
        w = search_finite_witness(e, ALCI, Bounds(finite_witness_size=4))
        if small_witness:
            ok = ok and w is not None
        if w is not None:  # any witness found must actually verify
            ok = ok and check_finite_witness(w, w.collection, ALCI)
    report(10, ok, time.perf_counter() - t0, 300.0,
           "fitting on generated collections tracks entailment, 20 triples")


def test_acceptance_11_saturation_bound():
    t0 = time.perf_counter()
    rng = random.Random(20260823)  # same stream as the AQ oracle suite
    ok = True
    for _ in range(200):
        e = random_collection(rng, AQ)
        c = saturate_refutation_candidate(e)
        base, _ = disjoint_negatives(e)
        heads = {n for ex in e.positives
                 for n, _ in _single(ex).concept_atoms}
        ok = ok and len(c.added) <= len(heads) * len(base.individuals)
    report(11, ok, time.perf_counter() - t0, 60.0,
           "saturation adds at most heads x negative-individuals assertions")


def random_chain_mosaics(rng):
    out = set()
    for _ in range(rng.randint(1, 8)):
        labels = [frozenset(n for n in ("A", "B") if rng.random() < 0.5)
                  for _ in range(4)]
        node_labels, edges = set(), set()
        word = ()
        for depth, lab in enumerate(labels):
            node_labels |= {(word, n) for n in lab}
            if depth:
                edges.add((word, "r", False))
            word = word + (1,)
        out.add(Mosaic(TreeInterpretation(frozenset(node_labels),
                                          frozenset(edges)), 0))
    return out


def eliminate_one_at_a_time(s0, rng):
    current = list(s0)
    while True:
        rng.shuffle(current)
        removed = False
        for m in list(current):
            bad = any(not any(glues_to(m2, c, m.tree) for m2 in current)
                      for c in m.tree.children(()))
            if bad:
                current.remove(m)
                removed = True
                break
        if not removed:
            return set(current)


def test_acceptance_12_mosaic_elimination_properties():
    t0 = time.perf_counter()
    rng = random.Random(7)
    good = 0
    for _ in range(50):
        s0 = random_chain_mosaics(rng)
        batch = eliminate_mosaics(s0)
        single = eliminate_one_at_a_time(s0, rng)
        good += batch == single and batch <= s0
    report(12, good == 50, time.perf_counter() - t0, 60.0,
           f"elimination schedules agree and shrink their input: {good}/50")


def test_acceptance_13_aq_chain_reverification():
    # A(x), r(x,y) => A(y) against an r-chain c0..c19 from A: B is never
    # derived, so the partition ontology over the 20 individuals fits and
    # is re-verified by type enumeration, elimination and assignment
    chain = [f"c{i}" for i in range(20)]
    e = collection(
        [Example(abox([("A", "x")], [("r", "x", "y")]), aq_query("A", "y"))],
        [Example(abox([("A", chain[0])],
                      [("r", x, y) for x, y in zip(chain, chain[1:])]),
                 aq_query("B", chain[-1]))],
        AQ, ALC)
    t0 = time.perf_counter()
    verdict = decide_aq_fitting(e)
    report(13, verdict.outcome == FITTING_EXISTS, time.perf_counter() - t0,
           0.5, "AQ chain of 20 individuals re-verifies its partition "
           "ontology")
