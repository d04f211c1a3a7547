"""Core syntax: roles, concepts, ontologies, ABoxes, queries, and example
collections, together with signatures, normal form, and preprocessing."""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

ALC = "ALC"
ALCI = "ALCI"
ALCQ = "ALCQ"
LOGICS = (ALC, ALCI, ALCQ)

CONSISTENCY = "consistency"
AQ = "aq"
FULLCQ = "fullcq"
UCQ_MODE = "ucq"
MODES = (CONSISTENCY, AQ, FULLCQ, UCQ_MODE)

NORMAL_FORM_PREFIX = "__f"
FRESH_HEAD_PREFIX = "__X"
PARTITION_PREFIX = "__V"

# the parser and Ontology refuse deeper concepts: the recursive passes over
# concepts (hashing, serialization, compiling) would overflow the stack
MAX_CONCEPT_DEPTH = 200


class InputError(ValueError):
    """Malformed or ill-typed input."""


class UnsupportedLogicError(InputError):
    """Construct outside the supported logic fragment."""


class BoundsExceeded(Exception):
    """A configured resource cap was hit; callers surface this as an
    unknown verdict."""


@dataclass(frozen=True)
class Role:
    name: str
    inverted: bool = False

    def inverse(self):
        return Role(self.name, not self.inverted)


class Concept:
    """Base class for concept AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(Concept):
    pass


@dataclass(frozen=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True)
class Name(Concept):
    name: str


@dataclass(frozen=True)
class Not(Concept):
    arg: "Concept"


@dataclass(frozen=True)
class And(Concept):
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Or(Concept):
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    arg: "Concept"


@dataclass(frozen=True)
class Forall(Concept):
    role: Role
    arg: "Concept"


@dataclass(frozen=True)
class AtMost(Concept):
    bound: int
    role: Role
    arg: "Concept"


@dataclass(frozen=True)
class AtLeast(Concept):
    bound: int
    role: Role
    arg: "Concept"


def _children(c):
    if isinstance(c, (And, Or)):
        return (c.left, c.right)
    if isinstance(c, (Not, Exists, Forall, AtMost, AtLeast)):
        return (c.arg,)
    return ()


def subconcepts(c):
    """All subconcept nodes of c, including c itself, in preorder."""
    out, stack = [], [c]
    while stack:
        out.append(stack.pop())
        stack += reversed(_children(out[-1]))
    return out


def check_concepts(concepts, logic):
    """Raise unless every concept is well-formed for the given logic and at
    most MAX_CONCEPT_DEPTH levels deep.  The walk goes one level at a time
    and checks each distinct node (by identity) once per level it is on."""
    level, depth = {id(c): c for c in concepts}, 0
    while level:
        depth += 1
        if depth > MAX_CONCEPT_DEPTH:
            raise InputError(f"concept nested deeper than {MAX_CONCEPT_DEPTH} "
                             "levels")
        for c in level.values():
            if isinstance(c, (Exists, Forall, AtMost, AtLeast)):
                if c.role.inverted and logic != ALCI:
                    raise UnsupportedLogicError(
                        f"inverse role {c.role.name}- requires logic {ALCI}")
                if isinstance(c, (AtMost, AtLeast)) and logic != ALCQ:
                    raise UnsupportedLogicError(
                        f"number restrictions require logic {ALCQ}")
        level = {id(d): d for c in level.values() for d in _children(c)}


def expand_abbreviations(c):
    """Rewrite bottom, disjunction, and universal restrictions in terms of
    top, negation, conjunction, and existential restrictions."""
    if isinstance(c, (Top, Name)):
        return c
    if isinstance(c, Bottom):
        return Not(Top())
    if isinstance(c, Not):
        return Not(expand_abbreviations(c.arg))
    if isinstance(c, And):
        return And(expand_abbreviations(c.left), expand_abbreviations(c.right))
    if isinstance(c, Or):
        return Not(And(Not(expand_abbreviations(c.left)),
                       Not(expand_abbreviations(c.right))))
    if isinstance(c, Exists):
        return Exists(c.role, expand_abbreviations(c.arg))
    if isinstance(c, Forall):
        return Not(Exists(c.role, Not(expand_abbreviations(c.arg))))
    if isinstance(c, AtMost):
        return AtMost(c.bound, c.role, expand_abbreviations(c.arg))
    if isinstance(c, AtLeast):
        return AtLeast(c.bound, c.role, expand_abbreviations(c.arg))
    raise TypeError(f"not a concept: {c!r}")


@dataclass(frozen=True)
class Ontology:
    logic: str
    inclusions: frozenset  # of (Concept, Concept) pairs

    def __post_init__(self):
        if self.logic not in LOGICS:
            raise InputError(f"unknown logic {self.logic!r}")
        check_concepts((c for ci in self.inclusions for c in ci), self.logic)


def ontology(inclusions, logic=ALCI):
    return Ontology(logic, frozenset(inclusions))


BOTTOM_ONTOLOGY = Ontology(ALC, frozenset({(Top(), Bottom())}))


@dataclass(frozen=True)
class ABox:
    concept_assertions: frozenset  # of (concept-name, individual)
    role_assertions: frozenset  # of (role-name, individual, individual)

    @cached_property
    def individuals(self):
        inds = {a for _, a in self.concept_assertions}
        for _, a, b in self.role_assertions:
            inds.add(a)
            inds.add(b)
        return frozenset(inds)

    def rename(self, mapping):
        return ABox(
            frozenset((n, mapping.get(a, a)) for n, a in self.concept_assertions),
            frozenset((r, mapping.get(a, a), mapping.get(b, b))
                      for r, a, b in self.role_assertions))


def abox(concepts=(), roles=()):
    return ABox(frozenset(concepts), frozenset(roles))


@dataclass(frozen=True)
class CQ:
    concept_atoms: frozenset  # of (concept-name, term)
    role_atoms: frozenset  # of (role-name, term, term)
    variables: frozenset

    def __post_init__(self):
        occurring = self.terms
        missing = self.variables - occurring
        if missing:
            raise InputError(f"variables not occurring in any atom: {missing}")

    @cached_property
    def terms(self):
        ts = {t for _, t in self.concept_atoms}
        for _, t1, t2 in self.role_atoms:
            ts.add(t1)
            ts.add(t2)
        return frozenset(ts)

    @cached_property
    def individuals(self):
        return self.terms - self.variables

    @property
    def is_full(self):
        return not self.variables

    @property
    def is_aq(self):
        return (self.is_full and not self.role_atoms
                and len(self.concept_atoms) == 1)

    def rename(self, mapping):
        """Rename individuals (variables untouched)."""

        def ren(t):
            return t if t in self.variables else mapping.get(t, t)

        return CQ(
            frozenset((n, ren(t)) for n, t in self.concept_atoms),
            frozenset((r, ren(t1), ren(t2)) for r, t1, t2 in self.role_atoms),
            self.variables)


def cq(concepts=(), roles=(), variables=()):
    return CQ(frozenset(concepts), frozenset(roles), frozenset(variables))


@dataclass(frozen=True)
class UCQ:
    disjuncts: tuple  # of CQ, non-empty

    def __post_init__(self):
        if not self.disjuncts:
            raise InputError("a union of conjunctive queries must be non-empty")

    @cached_property
    def individuals(self):
        out = set()
        for d in self.disjuncts:
            out |= d.individuals
        return frozenset(out)

    def rename(self, mapping):
        return UCQ(tuple(d.rename(mapping) for d in self.disjuncts))


def ucq(*disjuncts):
    return UCQ(tuple(disjuncts))


def aq_query(concept_name, individual):
    return ucq(cq(concepts=[(concept_name, individual)]))


@dataclass(frozen=True)
class Example:
    abox: ABox
    query: object  # UCQ, or None in consistency mode
    polarity: str = "positive"

    def __post_init__(self):
        if self.polarity not in ("positive", "negative"):
            raise InputError(f"bad polarity {self.polarity!r}")
        if self.query is not None:
            stray = self.query.individuals - self.abox.individuals
            if stray:
                raise InputError(
                    f"query individuals {sorted(stray)} not in the ABox")

    def rename(self, mapping):
        q = None if self.query is None else self.query.rename(mapping)
        return Example(self.abox.rename(mapping), q, self.polarity)


@dataclass(frozen=True)
class ExampleCollection:
    positives: tuple  # of Example
    negatives: tuple  # of Example
    mode: str
    logic: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.logic not in LOGICS:
            raise InputError(f"unknown logic {self.logic!r}")
        for ex in self.positives:
            if ex.polarity != "positive":
                raise InputError("positive example with negative polarity")
        for ex in self.negatives:
            if ex.polarity != "negative":
                raise InputError("negative example with positive polarity")
        for ex in self.examples:
            if self.mode == CONSISTENCY:
                if ex.query is not None:
                    raise InputError("consistency examples carry no query")
                continue
            if ex.query is None:
                raise InputError(f"{self.mode} examples require a query")
            for d in ex.query.disjuncts:
                if self.mode == AQ and not d.is_aq:
                    raise InputError("aq mode requires atomic queries")
                if self.mode == FULLCQ and not d.is_full:
                    raise InputError("fullcq mode forbids variables")
            if self.mode in (AQ, FULLCQ) and len(ex.query.disjuncts) != 1:
                raise InputError(f"{self.mode} mode forbids disjunction")

    @property
    def examples(self):
        return self.positives + self.negatives


def collection(positives, negatives, mode, logic):
    return ExampleCollection(
        tuple(Example(ex.abox, ex.query, "positive") for ex in positives),
        tuple(Example(ex.abox, ex.query, "negative") for ex in negatives),
        mode, logic)


@dataclass(frozen=True)
class Signature:
    concept_names: frozenset
    role_names: frozenset

    def __or__(self, other):
        return Signature(self.concept_names | other.concept_names,
                         self.role_names | other.role_names)


EMPTY_SIGNATURE = Signature(frozenset(), frozenset())


def signature_of(x):
    """The concept and role names syntactically occurring in x."""
    if isinstance(x, Signature):
        return x
    if isinstance(x, Concept):
        cs, rs = set(), set()
        for s in subconcepts(x):
            if isinstance(s, Name):
                cs.add(s.name)
            elif isinstance(s, (Exists, Forall, AtMost, AtLeast)):
                rs.add(s.role.name)
        return Signature(frozenset(cs), frozenset(rs))
    if isinstance(x, Ontology):
        sig = EMPTY_SIGNATURE
        for lhs, rhs in x.inclusions:
            sig = sig | signature_of(lhs) | signature_of(rhs)
        return sig
    if isinstance(x, ABox):
        return Signature(frozenset(n for n, _ in x.concept_assertions),
                         frozenset(r for r, _, _ in x.role_assertions))
    if isinstance(x, CQ):
        return Signature(frozenset(n for n, _ in x.concept_atoms),
                         frozenset(r for r, _, _ in x.role_atoms))
    if isinstance(x, UCQ):
        sig = EMPTY_SIGNATURE
        for d in x.disjuncts:
            sig = sig | signature_of(d)
        return sig
    if isinstance(x, Example):
        sig = signature_of(x.abox)
        if x.query is not None:
            sig = sig | signature_of(x.query)
        return sig
    if isinstance(x, ExampleCollection):
        sig = EMPTY_SIGNATURE
        for ex in x.examples:
            sig = sig | signature_of(ex)
        return sig
    raise TypeError(f"cannot take the signature of {type(x).__name__}")


def size_of(x):
    """Deterministic size measure: assertion/atom counts."""
    if isinstance(x, ABox):
        return len(x.concept_assertions) + len(x.role_assertions)
    if isinstance(x, CQ):
        return len(x.concept_atoms) + len(x.role_atoms)
    if isinstance(x, UCQ):
        return sum(size_of(d) for d in x.disjuncts)
    if isinstance(x, Example):
        return size_of(x.abox) + (0 if x.query is None else size_of(x.query))
    if isinstance(x, ExampleCollection):
        return sum(size_of(ex) for ex in x.examples)
    raise TypeError(f"cannot take the size of {type(x).__name__}")


# --- ontology normal form ---

def _is_normal(lhs, rhs):
    if isinstance(lhs, Top) and isinstance(rhs, Name):
        return True
    if (isinstance(lhs, And) and isinstance(lhs.left, Name)
            and isinstance(lhs.right, Name) and isinstance(rhs, Name)):
        return True
    if (isinstance(lhs, Name) and isinstance(rhs, Exists)
            and isinstance(rhs.arg, Name)):
        return True
    if (isinstance(lhs, Exists) and isinstance(lhs.arg, Name)
            and isinstance(rhs, Name)):
        return True
    if (isinstance(lhs, Name) and isinstance(rhs, Not)
            and isinstance(rhs.arg, Name)):
        return True
    if (isinstance(lhs, Not) and isinstance(lhs.arg, Name)
            and isinstance(rhs, Name)):
        return True
    return False


def normalize_ontology(o):
    """Rewrite an ontology so that every inclusion has one of the shapes
    top⊑A, A1⊓A2⊑A, A⊑∃r.B, ∃r.B⊑A, A⊑¬B, ¬B⊑A.  Fresh names come from a
    reserved namespace; entailment of Boolean queries over the original
    signature is preserved because each fresh name is forced equivalent to
    the concept it abbreviates."""
    # Ontology admits number restrictions under ALCQ only
    if o.logic == ALCQ:
        raise UnsupportedLogicError("normal form is defined without number "
                                    "restrictions")

    counter = [0]

    def fresh():
        name = f"{NORMAL_FORM_PREFIX}{counter[0]}"
        counter[0] += 1
        return Name(name)

    out = set()
    memo = {}

    def atom(c):
        c = expand_abbreviations(c)
        if isinstance(c, Name):
            return c
        if c in memo:
            return memo[c]
        x = fresh()
        memo[c] = x
        if isinstance(c, Top):
            out.add((Top(), x))
        elif isinstance(c, Not):
            a = atom(c.arg)
            out.add((x, Not(a)))
            out.add((Not(a), x))
        elif isinstance(c, And):
            a1, a2 = atom(c.left), atom(c.right)
            out.add((And(a1, a2), x))
            sub(x, a1)
            sub(x, a2)
        elif isinstance(c, Exists):
            a = atom(c.arg)
            out.add((x, Exists(c.role, a)))
            out.add((Exists(c.role, a), x))
        else:
            raise TypeError(f"unexpected concept {c!r}")
        return x

    def sub(a, b):
        # a ⊑ b for atomic a, b, encoded through a fresh intermediate name
        y = fresh()
        out.add((a, Not(y)))
        out.add((Not(y), b))

    for lhs, rhs in sorted(o.inclusions, key=repr):
        if _is_normal(lhs, rhs):
            out.add((lhs, rhs))
            continue
        sub(atom(lhs), atom(rhs))
    return Ontology(o.logic, frozenset(out))


# --- query components and preprocessing ---

def cq_components(q):
    """Maximally connected components of a conjunctive query (atoms connected
    through shared terms), as sub-queries."""
    atoms = ([("c",) + a for a in sorted(q.concept_atoms)]
             + [("r",) + a for a in sorted(q.role_atoms)])
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for t in q.terms:
        parent[t] = t
    for a in atoms:
        ts = a[2:]
        for t in ts[1:]:
            union(ts[0], t)
    groups = {}
    for a in atoms:
        groups.setdefault(find(a[2]), []).append(a)
    comps = []
    for _, group in sorted(groups.items()):
        cs = frozenset(a[1:] for a in group if a[0] == "c")
        rs = frozenset(a[1:] for a in group if a[0] == "r")
        terms = {t for _, t in cs} | {t for _, t1, t2 in rs for t in (t1, t2)}
        comps.append(CQ(cs, rs, frozenset(terms & q.variables)))
    return comps


def abox_components(a):
    """Maximally connected components of an ABox, as sub-ABoxes."""
    parent = {i: i for i in a.individuals}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, x, y in a.role_assertions:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    groups = {}
    for i in a.individuals:
        groups.setdefault(find(i), set()).add(i)
    comps = []
    for _, inds in sorted(groups.items()):
        comps.append(ABox(
            frozenset((n, i) for n, i in a.concept_assertions if i in inds),
            frozenset(t for t in a.role_assertions if t[1] in inds)))
    return comps


def preprocess_collection(e):
    """Rename individuals apart across examples and, for query-fitting with
    unions of conjunctive queries, split positive examples so that every
    positive disjunct is connected."""
    positives = list(e.positives)
    if e.mode == UCQ_MODE:
        for ex in positives:
            if not ex.abox.individuals:
                raise InputError(
                    "positive examples must have a non-empty ABox in ucq mode")
        split = []
        for ex in positives:
            alternatives = []
            for d in ex.query.disjuncts:
                comps = cq_components(d)
                alternatives.append(comps if len(comps) > 1 else [d])
            for choice in product(*alternatives):
                split.append(Example(ex.abox, UCQ(tuple(choice)), "positive"))
        positives = split

    renamed_pos, renamed_neg = [], []
    for k, ex in enumerate(positives + list(e.negatives)):
        mapping = {a: f"{a}#{k}" for a in ex.abox.individuals}
        out = ex.rename(mapping)
        (renamed_pos if ex.polarity == "positive" else renamed_neg).append(out)
    return ExampleCollection(tuple(renamed_pos), tuple(renamed_neg),
                             e.mode, e.logic)


def reduce_consistent_fitting(e):
    """Reduce consistent-fitting existence to plain fitting existence by
    adding, per positive example, a negative example demanding a fresh
    concept name at one of its individuals."""
    if e.mode not in (AQ, FULLCQ, UCQ_MODE):
        raise InputError("reduction applies to query-fitting modes only")
    extra = []
    for i, ex in enumerate(e.positives):
        if not ex.abox.individuals:
            raise InputError("cannot anchor a fresh concept name: positive "
                             "example with an empty ABox")
        a = min(ex.abox.individuals)
        extra.append(Example(ex.abox, aq_query(f"{FRESH_HEAD_PREFIX}{i}", a),
                             "negative"))
    return ExampleCollection(e.positives, e.negatives + tuple(extra),
                             e.mode, e.logic)
