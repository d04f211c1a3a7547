"""Fitting deciders and ontology synthesis for consistency-based fitting and
for atomic / variable-free conjunctive queries."""

from dataclasses import dataclass

from .core import (
    ALC, ALCI, ALCQ, AQ, AtMost, And, Bottom, BOTTOM_ONTOLOGY, BoundsExceeded,
    CONSISTENCY, Exists, FULLCQ, FRESH_HEAD_PREFIX, Forall, InputError, Name,
    Not, Ontology, Or, PARTITION_PREFIX, Role, Top, abox, aq_query,
    collection, signature_of,
)
from .homs import HomConstraints, homomorphisms
from .semantics import entails_ground

FITTING_EXISTS = "fitting-exists"
NO_FITTING = "no-fitting"
NO_FITTING_WITHIN_BOUNDS = "no-fitting-within-bounds"
UNKNOWN = "unknown"


class InternalVerificationError(RuntimeError):
    """A synthesized ontology failed its mandatory verification; this always
    signals a bug, never a legitimate negative answer."""


@dataclass(frozen=True)
class FitVerdict:
    outcome: str
    ontology: Ontology = None
    certificate: object = None
    diagnostics: str = ""

    @property
    def fitting_exists(self):
        return self.outcome == FITTING_EXISTS


@dataclass(frozen=True)
class Completion:
    """A negative-side ABox together with query-head assertions added by
    saturation."""

    base: object  # ABox
    added: frozenset  # of (concept-name, individual)

    def __post_init__(self):
        stray = {a for _, a in self.added} - self.base.individuals
        if stray:
            raise InputError(f"added assertions on unknown individuals "
                             f"{sorted(stray)}")

    @property
    def abox(self):
        return abox(self.base.concept_assertions | self.added,
                    self.base.role_assertions)


def disjoint_union(aboxes):
    """Union a sequence of ABoxes, renaming individuals apart only where
    names collide across members (names are preserved otherwise)."""
    seen = set()
    out_c, out_r = set(), set()
    renamed = []
    for k, a in enumerate(aboxes):
        clash = a.individuals & seen
        if clash:
            a = a.rename({x: f"{x}~{k}" for x in a.individuals})
        seen |= a.individuals
        renamed.append(a)
        out_c |= a.concept_assertions
        out_r |= a.role_assertions
    return abox(out_c, out_r), renamed


def disjoint_negatives(e):
    """The disjoint union of the negative ABoxes together with the negative
    examples renamed consistently with it."""
    base, renamed = disjoint_union([ex.abox for ex in e.negatives])
    out = []
    for k, (ex, ra) in enumerate(zip(e.negatives, renamed)):
        if ra == ex.abox:
            out.append(ex)
        else:
            out.append(ex.rename({x: f"{x}~{k}" for x in ex.abox.individuals}))
    return base, tuple(out)


def _pname(individual):
    return f"{PARTITION_PREFIX}{individual}"


def _big_or(concepts):
    """The disjunction of the concepts, as a balanced tree."""
    if len(concepts) == 1:
        return concepts[0]
    half = len(concepts) // 2
    return Or(_big_or(concepts[:half]), _big_or(concepts[half:]))


def _partition_axioms(assertions_c, assertions_r, individuals, sig,
                      positive_labels=False):
    """The shared skeleton: one fresh name per individual, a covering
    partition, and axioms forcing every model element to behave like its
    individual."""
    inds = sorted(individuals)
    v = {a: Name(_pname(a)) for a in inds}
    # shared nodes, built once rather than once per axiom
    bot = Bottom()
    lacks = {n: Not(Name(n)) for n in sig.concept_names}
    avoid = {(r, b): Forall(Role(r), Not(v[b]))
             for r in sig.role_names for b in inds}
    axioms = {(Top(), _big_or([v[a] for a in inds]))}
    for i, a in enumerate(inds):
        for b in inds[i + 1:]:
            axioms.add((And(v[a], v[b]), bot))
    for a in inds:
        for n in sorted(sig.concept_names):
            if (n, a) in assertions_c:
                if positive_labels:
                    axioms.add((v[a], lacks[n].arg))
            else:
                axioms.add((v[a], lacks[n]))
        for r in sorted(sig.role_names):
            for b in inds:
                if (r, a, b) not in assertions_r:
                    axioms.add((v[a], avoid[r, b]))
    return axioms


def synthesize_csp_ontology(a, sig):
    """An ontology whose models partition into the shape of the ABox a: a
    signature ABox is consistent with the result exactly when it has a
    homomorphism into a."""
    if not a.individuals:
        raise InputError("cannot synthesize over an empty ABox")
    stray = signature_of(a).concept_names - sig.concept_names
    stray_r = signature_of(a).role_names - sig.role_names
    if stray or stray_r:
        raise InputError("ABox uses names outside the given signature")
    return Ontology(ALC, frozenset(_partition_axioms(
        a.concept_assertions, a.role_assertions, a.individuals, sig)))


def _empty_target_ontology(sig):
    # consistent, but inconsistent with every non-empty signature ABox
    axioms = {(Name(n), Bottom()) for n in sig.concept_names}
    axioms |= {(Exists(Role(r), Top()), Bottom()) for r in sig.role_names}
    return Ontology(ALC, frozenset(axioms))


def decide_consistency_fitting(e):
    """Fitting by consistency: positives must stay consistent with the
    ontology and negatives must become inconsistent."""
    if e.mode != CONSISTENCY:
        raise InputError("decide_consistency_fitting requires consistency "
                         "mode")
    if e.logic not in (ALC, ALCI):
        raise InputError(f"unsupported logic {e.logic} (use the dedicated "
                         f"ALCQ decider)")
    if not e.positives:
        return FitVerdict(FITTING_EXISTS, ontology=BOTTOM_ONTOLOGY)
    a_plus, _ = disjoint_union([ex.abox for ex in e.positives])
    sig = signature_of(e)
    for ex in e.negatives:
        homs = homomorphisms(ex.abox, a_plus, want="first")
        if homs:
            return FitVerdict(NO_FITTING, certificate=(ex, homs[0]))
    if not a_plus.individuals:
        return FitVerdict(FITTING_EXISTS,
                          ontology=_empty_target_ontology(sig))
    return FitVerdict(FITTING_EXISTS,
                      ontology=synthesize_csp_ontology(a_plus, sig))


def decide_alcq_fitting(e):
    """Consistency fitting with qualified number restrictions available:
    only locally injective homomorphisms refute, and synthesized ontologies
    add at-most-one axioms to force local injectivity."""
    if e.mode != CONSISTENCY or e.logic != ALCQ:
        raise InputError("decide_alcq_fitting requires consistency mode and "
                         "logic " + ALCQ)
    if not e.positives:
        return FitVerdict(FITTING_EXISTS, ontology=BOTTOM_ONTOLOGY)
    a_plus, _ = disjoint_union([ex.abox for ex in e.positives])
    sig = signature_of(e)
    for ex in e.negatives:
        homs = homomorphisms(ex.abox, a_plus,
                             HomConstraints(locally_injective=True),
                             want="first")
        if homs:
            return FitVerdict(NO_FITTING, certificate=(ex, homs[0]))
    if not a_plus.individuals:
        return FitVerdict(FITTING_EXISTS,
                          ontology=_empty_target_ontology(sig))
    base = synthesize_csp_ontology(a_plus, sig)
    extra = {(Top(), AtMost(1, Role(r), Name(_pname(a))))
             for r in sorted(sig.role_names)
             for a in sorted(a_plus.individuals)}
    return FitVerdict(FITTING_EXISTS,
                      ontology=Ontology(ALCQ, base.inclusions | extra))


CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"


def _single_disjunct(ex):
    return ex.query.disjuncts[0]


def classify_example(ex):
    """An example whose query asserts a role edge absent from its ABox can
    only be satisfied by making the ABox inconsistent."""
    q = _single_disjunct(ex)
    if q.variables:
        raise InputError("classification applies to variable-free queries")
    for atom in q.role_atoms:
        if atom not in ex.abox.role_assertions:
            return INCONSISTENT
    return CONSISTENT


def normalize_negatives(e):
    """Replace each inconsistent negative example's query by a fresh concept
    name asserted at its least individual; fitting existence is preserved."""
    if e.mode != FULLCQ:
        raise InputError("normalization applies to fullcq mode")
    used = signature_of(e).concept_names
    out = []
    for i, ex in enumerate(e.negatives):
        if classify_example(ex) == CONSISTENT:
            out.append(ex)
            continue
        if not ex.abox.individuals:
            raise InputError("inconsistent negative example with an empty "
                             "ABox")
        fresh = f"{FRESH_HEAD_PREFIX}{i}"
        while fresh in used:
            fresh += "_"
        used = used | {fresh}
        out.append(type(ex)(ex.abox, aq_query(fresh, min(ex.abox.individuals)),
                            "negative"))
    return collection(e.positives, out, e.mode, e.logic)


def saturate_refutation_candidate(e):
    """The least fixpoint of head propagation: starting from the union of the
    negative ABoxes, add a query-head assertion Q(h(a)) whenever a positive
    example's ABox maps homomorphically onto the candidate (variable-free
    queries propagate per concept atom, and only for consistent examples)."""
    if e.mode not in (AQ, FULLCQ):
        raise InputError("saturation applies to aq and fullcq modes")
    base, _ = disjoint_union([ex.abox for ex in e.negatives])
    added = set()
    rules = []
    for ex in e.positives:
        q = _single_disjunct(ex)
        if e.mode == FULLCQ and classify_example(ex) == INCONSISTENT:
            continue
        rules.append((ex.abox, sorted(q.concept_atoms)))
    changed = True
    while changed:
        changed = False
        current = abox(base.concept_assertions | added, base.role_assertions)
        for source, heads in rules:
            for h in homomorphisms(source, current):
                m = h.as_dict()
                for n, a in heads:
                    fact = (n, m[a])
                    if fact not in base.concept_assertions and \
                            fact not in added:
                        added.add(fact)
                        changed = True
    return Completion(base, frozenset(added))


def synthesize_fitting_ontology_flat(c, e):
    """A fitting ontology read off a refutation-free completion: partition
    axioms shaped like the completed ABox, with asserted labels forced
    positively.  The result is verified against every example before it is
    returned."""
    comp = c.abox
    sig = signature_of(e)
    if not comp.individuals:
        raise InputError("cannot synthesize from an empty completion")
    o = Ontology(ALC, frozenset(_partition_axioms(
        comp.concept_assertions, comp.role_assertions, comp.individuals,
        sig, positive_labels=True)))
    logic = e.logic if e.logic in (ALC, ALCI) else ALC
    for ex in e.examples:
        want = ex.polarity == "positive"
        got = entails_ground(ex.abox, o, _single_disjunct(ex), logic)
        if got != want:
            raise InternalVerificationError(
                f"synthesized ontology fails a {ex.polarity} example")
    return o


def _synthesized_verdict(c, e):
    """The fitting ontology read off the refutation-free completion c, or
    unknown when its re-verification hits a cap."""
    try:
        o = synthesize_fitting_ontology_flat(c, e)
    except BoundsExceeded as exc:
        return FitVerdict(UNKNOWN, diagnostics=str(exc))
    return FitVerdict(FITTING_EXISTS, ontology=o, certificate=c)


def decide_aq_fitting(e):
    """Fitting with atomic queries."""
    if e.mode != AQ:
        raise InputError("decide_aq_fitting requires aq mode")
    if not e.negatives:
        return FitVerdict(FITTING_EXISTS, ontology=BOTTOM_ONTOLOGY)
    c = saturate_refutation_candidate(e)
    facts = c.abox.concept_assertions
    _, negatives = disjoint_negatives(e)
    for ex in negatives:
        (n, a), = _single_disjunct(ex).concept_atoms
        if (n, a) in facts:
            return FitVerdict(NO_FITTING, certificate=(c, ex))
    return _synthesized_verdict(c, e)


def decide_fullcq_fitting(e):
    """Fitting with variable-free conjunctive queries."""
    if e.mode != FULLCQ:
        raise InputError("decide_fullcq_fitting requires fullcq mode")
    if not e.negatives:
        return FitVerdict(FITTING_EXISTS, ontology=BOTTOM_ONTOLOGY)
    norm = normalize_negatives(e)
    c = saturate_refutation_candidate(norm)
    comp = c.abox
    facts = comp.concept_assertions
    _, negatives = disjoint_negatives(norm)
    for ex in negatives:
        q = _single_disjunct(ex)
        if all(atom in facts for atom in q.concept_atoms) and \
                all(atom in comp.role_assertions for atom in q.role_atoms):
            return FitVerdict(NO_FITTING, certificate=(c, ex))
    for ex in norm.positives:
        if classify_example(ex) == INCONSISTENT:
            if homomorphisms(ex.abox, comp, want="first"):
                return FitVerdict(NO_FITTING, certificate=(c, ex))
    return _synthesized_verdict(c, norm)
