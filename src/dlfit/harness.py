"""Text formats for ontologies and example collections, end-to-end fitting
verification, the entailment-to-fitting instance generator, and the bundled
example fixtures."""

import re
import time
from dataclasses import dataclass

from .core import (
    ALC, ALCI, ALCQ, AQ, AtLeast, AtMost, And, Bottom, BoundsExceeded,
    CONSISTENCY, CQ, Exists, Example, ExampleCollection, FULLCQ, Forall,
    InputError, MAX_CONCEPT_DEPTH, MODES, Name, Not, Ontology, Or, Role, Top,
    UCQ, UCQ_MODE, abox, aq_query, check_concepts, collection, cq,
    normalize_ontology, ontology, signature_of, subconcepts, ucq,
)
from .flatfit import (
    FITTING_EXISTS, FitVerdict, NO_FITTING, UNKNOWN,
)
from .semantics import (
    EntailmentAnswer, EntailmentBounds, check_consistency, entails_ground,
    entails_ucq_bounded,
)

LOGIC_NAMES = {"alc": ALC, "alci": ALCI, "alcq": ALCQ}
LOGIC_TEXT = {v: k for k, v in LOGIC_NAMES.items()}

_KEYWORDS = frozenset([
    "top", "bot", "not", "and", "or", "exists", "forall", "atmost", "atleast",
    "sub",
])

_TOKEN_RE = re.compile(r"""
    (?P<ws>[^\S\n]+)
  | (?P<nl>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9]+)
  | (?P<punct>[(){}.,;:&|-])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "number" | "punct" | "end"
    value: str
    line: int
    col: int


def _tokenize(text):
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise InputError(
                f"line {line}, column {col}: unexpected character "
                f"{text[pos]!r}")
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(_Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    out.append(_Token("end", "", line, col))
    return out


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise InputError(f"line {tok.line}, column {tok.col}: {message}")

    def at(self, value):
        tok = self.peek()
        return tok.kind in ("name", "punct") and tok.value == value

    def accept(self, value):
        if self.at(value):
            return self.next()
        return None

    def expect(self, value, what=None):
        tok = self.peek()
        if not self.at(value):
            got = tok.value or "end of input"
            self.error(f"expected {what or value!r}, found {got!r}")
        return self.next()

    def name(self, what="a name"):
        tok = self.peek()
        if tok.kind != "name" or tok.value in _KEYWORDS:
            got = tok.value or "end of input"
            self.error(f"expected {what}, found {got!r}")
        return self.next().value

    def number(self):
        tok = self.peek()
        if tok.kind != "number":
            self.error(f"expected a number, found {tok.value!r}")
        return int(self.next().value)

    # --- concepts and roles ---

    def role(self):
        n = self.name("a role name")
        inverted = self.accept("-") is not None
        return Role(n, inverted)

    def concept(self, depth=0):
        tok = self.peek()
        if depth >= MAX_CONCEPT_DEPTH:
            self.error(f"concept nested deeper than {MAX_CONCEPT_DEPTH} "
                       "levels")
        depth += 1
        if self.accept("top"):
            return Top()
        if self.accept("bot"):
            return Bottom()
        if self.accept("not"):
            return Not(self.concept(depth))
        if self.accept("exists"):
            r = self.role()
            self.expect(".")
            return Exists(r, self.concept(depth))
        if self.accept("forall"):
            r = self.role()
            self.expect(".")
            return Forall(r, self.concept(depth))
        for word, cls in (("atmost", AtMost), ("atleast", AtLeast)):
            if self.accept(word):
                n = self.number()
                r = self.role()
                return cls(n, r, self.concept(depth))
        if self.accept("("):
            left = self.concept(depth)
            op = self.peek()
            if self.accept("and"):
                out = And(left, self.concept(depth))
            elif self.accept("or"):
                out = Or(left, self.concept(depth))
            else:
                self.error("expected 'and' or 'or'", op)
            self.expect(")")
            return out
        if tok.kind == "name" and tok.value not in _KEYWORDS:
            return Name(self.next().value)
        got = tok.value or "end of input"
        self.error(f"expected a concept, found {got!r}")

    # --- atoms ---

    def atom(self):
        """A concept or role atom: returns ('c', name, term) or
        ('r', name, term, term)."""
        n = self.name("an atom")
        self.expect("(")
        t1 = self.name("a term")
        if self.accept(","):
            t2 = self.name("a term")
            self.expect(")")
            return ("r", n, t1, t2)
        self.expect(")")
        return ("c", n, t1)

    def atom_list(self, separator):
        atoms = [self.atom()]
        while self.accept(separator):
            atoms.append(self.atom())
        return atoms

    def conjunctive_query(self):
        variables = []
        tok = self.peek()
        if self.accept("exists"):
            variables.append(self.name("a variable"))
            while self.accept(","):
                variables.append(self.name("a variable"))
            self.expect(".")
        atoms = self.atom_list("&")
        concepts = {(a[1], a[2]) for a in atoms if a[0] == "c"}
        roles = {(a[1], a[2], a[3]) for a in atoms if a[0] == "r"}
        try:
            return CQ(frozenset(concepts), frozenset(roles),
                      frozenset(variables))
        except InputError as err:
            self.error(str(err), tok)

    def union_query(self):
        disjuncts = [self.conjunctive_query()]
        while self.accept("|"):
            disjuncts.append(self.conjunctive_query())
        return UCQ(tuple(disjuncts))


def _atoms_to_abox(atoms):
    concepts = {(a[1], a[2]) for a in atoms if a[0] == "c"}
    roles = {(a[1], a[2], a[3]) for a in atoms if a[0] == "r"}
    return abox(concepts, roles)


# --- ontology format ---

def parse_ontology(text):
    """An ontology file: an optional `logic:` header followed by concept
    inclusions of the form `Concept sub Concept`."""
    p = _Parser(text)
    logic = None
    if p.at("logic"):
        p.next()
        p.expect(":")
        tok = p.peek()
        word = p.name("a logic (alc, alci, or alcq)")
        if word not in LOGIC_NAMES:
            p.error(f"unknown logic {word!r}", tok)
        logic = LOGIC_NAMES[word]
    inclusions = set()
    while p.peek().kind != "end":
        lhs = p.concept()
        p.expect("sub")
        rhs = p.concept()
        inclusions.add((lhs, rhs))
    if logic is None:
        logic = ALC
        for lhs, rhs in inclusions:
            for s in subconcepts(lhs) + subconcepts(rhs):
                if isinstance(s, (AtMost, AtLeast)):
                    logic = ALCQ
                elif isinstance(s, (Exists, Forall)) and s.role.inverted \
                        and logic == ALC:
                    logic = ALCI
    return Ontology(logic, frozenset(inclusions))


def role_text(role):
    return role.name + ("-" if role.inverted else "")


def concept_text(c):
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bot"
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Not):
        return f"not {concept_text(c.arg)}"
    if isinstance(c, And):
        return f"({concept_text(c.left)} and {concept_text(c.right)})"
    if isinstance(c, Or):
        return f"({concept_text(c.left)} or {concept_text(c.right)})"
    if isinstance(c, Exists):
        return f"exists {role_text(c.role)} . {concept_text(c.arg)}"
    if isinstance(c, Forall):
        return f"forall {role_text(c.role)} . {concept_text(c.arg)}"
    if isinstance(c, AtMost):
        return f"atmost {c.bound} {role_text(c.role)} {concept_text(c.arg)}"
    if isinstance(c, AtLeast):
        return f"atleast {c.bound} {role_text(c.role)} {concept_text(c.arg)}"
    raise TypeError(f"cannot serialize concept {c!r}")


def inclusion_text(ci):
    lhs, rhs = ci
    return f"{concept_text(lhs)} sub {concept_text(rhs)}"


def serialize_ontology(o):
    # one text per distinct concept node: synthesized axioms share nodes
    nodes = {id(c): c for ci in o.inclusions for c in ci}
    text = {k: concept_text(c) for k, c in nodes.items()}
    lines = [f"logic: {LOGIC_TEXT[o.logic]}"]
    lines += sorted(f"{text[id(lhs)]} sub {text[id(rhs)]}"
                    for lhs, rhs in o.inclusions)
    return "\n".join(lines) + "\n"


# --- example collection format ---

def parse_abox(text):
    """A bare ABox: atoms separated by semicolons."""
    p = _Parser(text)
    atoms = []
    if p.peek().kind != "end":
        atoms = p.atom_list(";")
        p.accept(";")
    if p.peek().kind != "end":
        p.error(f"unexpected {p.peek().value!r} after the assertions")
    return _atoms_to_abox(atoms)


def parse_query(text):
    """A bare query: conjunctive queries separated by '|'."""
    p = _Parser(text)
    q = p.union_query()
    if p.peek().kind != "end":
        p.error(f"unexpected {p.peek().value!r} after the query")
    return q


def parse_collection(text):
    p = _Parser(text)
    mode = logic = None
    while p.at("mode") or p.at("logic"):
        key = p.next().value
        p.expect(":")
        tok = p.peek()
        word = p.name(f"a {key}")
        if key == "mode":
            if word not in MODES:
                p.error(f"unknown mode {word!r}", tok)
            mode = word
        else:
            if word not in LOGIC_NAMES:
                p.error(f"unknown logic {word!r}", tok)
            logic = LOGIC_NAMES[word]
    if mode is None:
        p.error("missing 'mode:' header")
    if logic is None:
        p.error("missing 'logic:' header")

    positives, negatives = [], []
    while p.peek().kind != "end":
        tok = p.peek()
        if p.accept("positive"):
            polarity = "positive"
        elif p.accept("negative"):
            polarity = "negative"
        else:
            p.error(f"expected 'positive' or 'negative', found "
                    f"{tok.value or 'end of input'!r}")
        p.expect("{")
        p.expect("abox")
        p.expect(":")
        atoms = []
        if not p.at("query") and not p.at("}"):
            atoms = p.atom_list(";")
            p.accept(";")
        a = _atoms_to_abox(atoms)
        q = None
        if p.accept("query"):
            p.expect(":")
            q = p.union_query()
        p.expect("}")
        try:
            ex = Example(a, q, polarity)
        except InputError as err:
            p.error(str(err), tok)
        (positives if polarity == "positive" else negatives).append(ex)
    return ExampleCollection(tuple(positives), tuple(negatives), mode, logic)


def atom_text(atom):
    if len(atom) == 2:
        n, a = atom
        return f"{n}({a})"
    r, a, b = atom
    return f"{r}({a},{b})"


def cq_text(d):
    atoms = sorted(atom_text(a) for a in d.concept_atoms) \
        + sorted(atom_text(a) for a in d.role_atoms)
    body = " & ".join(atoms)
    if d.variables:
        return f"exists {','.join(sorted(d.variables))} . {body}"
    return body


def query_text(q):
    return " | ".join(cq_text(d) for d in q.disjuncts)


def serialize_collection(e):
    lines = [f"mode: {e.mode}", f"logic: {LOGIC_TEXT[e.logic]}", ""]
    for ex in e.examples:
        lines.append(f"{ex.polarity} {{")
        atoms = sorted(atom_text(a) for a in ex.abox.concept_assertions) \
            + sorted(atom_text(a) for a in ex.abox.role_assertions)
        lines.append("  abox: " + "; ".join(atoms))
        if ex.query is not None:
            lines.append("  query: " + query_text(ex.query))
        lines.append("}")
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"


# --- end-to-end verification ---

@dataclass(frozen=True)
class ExampleReport:
    example: Example
    status: str  # "pass" | "fail" | "unknown"
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class RunReport:
    verdict: FitVerdict
    results: tuple  # one ExampleReport per example, in collection order
    seconds: float
    bounds: object
    diagnostics: str = ""

    @property
    def fits(self):
        return self.verdict.outcome == FITTING_EXISTS


def verify_fit(o, e, bounds=None):
    """Check whether the ontology fits every example of the collection:
    positive queries must be entailed (positive ABoxes consistent, in
    consistency mode) and negative ones must not.  Query-fitting with unions
    of conjunctive queries uses bounded entailment, so individual results and
    the overall verdict may come out unknown."""
    check_concepts((c for ci in o.inclusions for c in ci), e.logic)
    if bounds is None:
        bounds = EntailmentBounds()
    results = []
    started = time.perf_counter()
    for ex in e.examples:
        want = ex.polarity == "positive"
        t0 = time.perf_counter()
        detail = ""
        try:
            if e.mode == CONSISTENCY:
                got = check_consistency(ex.abox, o, e.logic)
            elif e.mode in (AQ, FULLCQ):
                got = entails_ground(ex.abox, o, ex.query, e.logic)
            else:
                try:
                    answer = entails_ucq_bounded(ex.abox, o, ex.query,
                                                 e.logic, bounds)
                except InputError as err:
                    answer = EntailmentAnswer("unknown", diagnostics=str(err))
                got = answer.entailed
                if answer.status == "unknown":
                    got, detail = None, answer.diagnostics
        except BoundsExceeded as exc:
            got, detail = None, str(exc)
        if got is None:
            status = "unknown"
        else:
            status = "pass" if got == want else "fail"
        results.append(ExampleReport(ex, status, time.perf_counter() - t0,
                                     detail))
    failed = [i for i, r in enumerate(results) if r.status == "fail"]
    unknown = [i for i, r in enumerate(results) if r.status == "unknown"]
    if failed:
        outcome = NO_FITTING
        diagnostics = f"failing examples: {failed}"
    elif unknown:
        outcome = UNKNOWN
        diagnostics = f"undecided examples: {unknown}"
    else:
        outcome = FITTING_EXISTS
        diagnostics = ""
    return RunReport(FitVerdict(outcome, diagnostics=diagnostics),
                     tuple(results), time.perf_counter() - started, bounds,
                     diagnostics)


# --- instance generation from entailment problems ---

REAL = "__Real"
CHOICE = "__Choice"
CO_CHOICE = "__CoChoice"
FLAG = "__F"
FRESH_ROLE = "__s"
COMPLEMENT_PREFIX = "__bar_"


def _complement(name):
    return COMPLEMENT_PREFIX + name


def _role_atom(role, x, y):
    return (role.name, y, x) if role.inverted else (role.name, x, y)


def _flag_query():
    return ucq(cq(concepts=[(FLAG, "x")], variables=["x"]))


def generate_from_entailment(a, o, q):
    """Turn a Boolean conjunctive-query entailment problem into a collection
    of query-fitting examples: the entailment fails exactly when some
    ontology (with inverse roles available) fits the collection."""
    if isinstance(q, UCQ):
        if len(q.disjuncts) != 1:
            raise InputError("the generator takes a single conjunctive query")
        q = q.disjuncts[0]
    if not q.concept_atoms and not q.role_atoms:
        raise InputError("the query must have at least one atom")
    if not a.individuals:
        raise InputError("the ABox must be non-empty")
    norm = normalize_ontology(o)  # rejects number restrictions

    sig = signature_of(a) | signature_of(norm) | signature_of(q)
    reserved = {REAL, CHOICE, CO_CHOICE, FLAG}
    reserved |= {_complement(n) for n in sig.concept_names}
    if reserved & sig.concept_names or FRESH_ROLE in sig.role_names:
        raise InputError("input names collide with the generator's reserved "
                         "namespace")
    relevant = sorted(signature_of(norm).concept_names
                      | {n for n, _ in q.concept_atoms})

    flag = _flag_query()
    positives = []

    # never both A and its complement
    for n in relevant:
        positives.append(Example(
            abox(concepts=[(n, "a"), (_complement(n), "a")]), flag))

    # every marked element gets one successor of each choice kind
    for kind in (CHOICE, CO_CHOICE):
        positives.append(Example(
            abox(concepts=[(REAL, "a")]),
            ucq(cq(concepts=[(kind, "x")], roles=[(FRESH_ROLE, "a", "x")],
                   variables=["x"]))))

    # the forced-choice gadget, once per relevant concept name
    gadget = abox(
        concepts=[(REAL, "a"), (CHOICE, "c"), (CO_CHOICE, "d")],
        roles=[(FRESH_ROLE, "a", "c"), (FRESH_ROLE, "a", "d"),
               (FRESH_ROLE, "b", "c"), (FRESH_ROLE, "b", "d")])
    for n in relevant:
        positives.append(Example(gadget, ucq(cq(
            concepts=[(n, "x")],
            roles=[(FRESH_ROLE, "a", "x"), (FRESH_ROLE, "b", "x")],
            variables=["x"]))))

    # transfer the choice made at the successor back to the marked element
    for n in relevant:
        positives.append(Example(
            abox(concepts=[(REAL, "a"), (CHOICE, "b"), (n, "b")],
                 roles=[(FRESH_ROLE, "a", "b")]),
            aq_query(n, "a")))
        positives.append(Example(
            abox(concepts=[(REAL, "a"), (CO_CHOICE, "b"), (n, "b")],
                 roles=[(FRESH_ROLE, "a", "b")]),
            aq_query(_complement(n), "a")))

    # one example per concept inclusion of the normalized ontology
    for lhs, rhs in sorted(norm.inclusions, key=inclusion_text):
        if isinstance(lhs, Top):
            positives.append(Example(abox(concepts=[(REAL, "a")]),
                                     aq_query(rhs.name, "a")))
        elif isinstance(lhs, And):
            positives.append(Example(
                abox(concepts=[(lhs.left.name, "a"), (lhs.right.name, "a")]),
                aq_query(rhs.name, "a")))
        elif isinstance(lhs, Name) and isinstance(rhs, Exists):
            positives.append(Example(
                abox(concepts=[(lhs.name, "a")]),
                ucq(cq(concepts=[(REAL, "y"), (rhs.arg.name, "y")],
                       roles=[_role_atom(rhs.role, "a", "y")],
                       variables=["y"]))))
        elif isinstance(lhs, Exists):
            positives.append(Example(
                abox(concepts=[(lhs.arg.name, "b")],
                     roles=[_role_atom(lhs.role, "a", "b")]),
                aq_query(rhs.name, "a")))
        elif isinstance(rhs, Not):
            positives.append(Example(
                abox(concepts=[(lhs.name, "a")]),
                aq_query(_complement(rhs.arg.name), "a")))
        else:
            positives.append(Example(
                abox(concepts=[(_complement(lhs.arg.name), "a")]),
                aq_query(rhs.name, "a")))

    # the query itself, viewed as an ABox over its terms
    a_q = abox(concepts=q.concept_atoms, roles=q.role_atoms)
    positives.append(Example(a_q, flag))

    negative = Example(
        abox(a.concept_assertions | {(REAL, x) for x in a.individuals},
             a.role_assertions),
        flag, "negative")

    return collection(positives, [negative], UCQ_MODE, ALCI)


# --- fixtures ---

def edge_loop_collection(swapped=False):
    """One positive single-edge ABox against a negative self-loop (or the
    swap, which has no fitting ontology)."""
    pos = Example(abox(roles=[("r", "a1", "a2")]), None)
    neg = Example(abox(roles=[("r", "b", "b")]), None, "negative")
    if swapped:
        pos, neg = Example(neg.abox, None), Example(pos.abox, None, "negative")
    return collection([pos], [neg], CONSISTENCY, ALC)


def alcq_collection():
    """A single-edge positive against a negative with two role successors:
    every homomorphism of the negative into the positive merges siblings, so
    only number restrictions separate the two."""
    pos = Example(abox(roles=[("r", "d", "e")]), None)
    neg = Example(abox(roles=[("r", "a", "b"), ("r", "a", "c")]), None,
                  "negative")
    return collection([pos], [neg], CONSISTENCY, ALCQ)


def aq_saturation_collection(drop=None):
    """Two positive and two negative atomic-query examples whose saturation
    refutes fitting; dropping any one example restores it.  drop: None or
    ('positive'|'negative', index)."""
    positives = [
        Example(abox(concepts=[("A2", "a")]), aq_query("A1", "a")),
        Example(abox(concepts=[("A3", "b"), ("A4", "b2")]),
                aq_query("A2", "b")),
    ]
    negatives = [
        Example(abox(concepts=[("A3", "c")]), aq_query("A1", "c"), "negative"),
        Example(abox(concepts=[("A4", "d")]), aq_query("A5", "d"), "negative"),
    ]
    if drop is not None:
        polarity, index = drop
        side = positives if polarity == "positive" else negatives
        del side[index]
    return collection(positives, negatives, AQ, ALC)


def inverse_cycles_collection(logic=ALCI):
    """Positives demanding incoming edges from the other label, negatives
    forbidding a common consequence; a fitting needs inverse roles."""
    positives = [
        Example(abox(concepts=[("A1", "a")]),
                ucq(cq(concepts=[("A2", "x")], roles=[("r", "x", "a")],
                       variables=["x"]))),
        Example(abox(concepts=[("A2", "a")]),
                ucq(cq(concepts=[("A1", "x")], roles=[("r", "x", "a")],
                       variables=["x"]))),
    ]
    negatives = [
        Example(abox(concepts=[("A1", "a")]), aq_query("B", "a"), "negative"),
        Example(abox(concepts=[("A2", "a")]), aq_query("B", "a"), "negative"),
    ]
    return collection(positives, negatives, UCQ_MODE, logic)


def bibliography_collection(extended=False):
    """Bibliography examples: three positives, optionally extended with a
    negative ruling out invented co-author edges."""
    positives = [
        Example(abox(concepts=[("Publication", "b")],
                     roles=[("authorOf", "a", "b")]),
                aq_query("Author", "a")),
        Example(abox(concepts=[("Reviewer", "a")]),
                ucq(cq(concepts=[("Publication", "x")],
                       roles=[("reviews", "a", "x")], variables=["x"]))),
        Example(abox(concepts=[("Publication", "a")]),
                ucq(cq(concepts=[("Confpaper", "a")]),
                    cq(concepts=[("Jarticle", "a")]))),
    ]
    negatives = []
    if extended:
        negatives.append(Example(
            abox(concepts=[("Author", "a")]),
            ucq(cq(concepts=[("Reviewer", "x")],
                   roles=[("authorOf", "a", "x")], variables=["x"])),
            "negative"))
    return collection(positives, negatives, UCQ_MODE, ALC)


def bibliography_ontologies():
    """The three ontologies discussed alongside the bibliography examples:
    a natural fit, the inconsistent one, and the fit with an extra axiom."""
    o_full = ontology([
        (Exists(Role("authorOf"), Name("Publication")), Name("Author")),
        (Name("Reviewer"), Exists(Role("reviews"), Name("Publication"))),
        (Name("Publication"), Or(Name("Confpaper"), Name("Jarticle"))),
    ], ALC)
    o_bottom = ontology([(Top(), Bottom())], ALC)
    o_augmented = ontology(
        set(o_full.inclusions)
        | {(Name("Author"), Exists(Role("authorOf"), Name("Reviewer")))},
        ALC)
    return o_full, o_bottom, o_augmented


def expressive_power_aq_collection():
    """Atomic-query examples separable by {top sub B1} but not {top sub B2};
    no consistency-example collection distinguishes the two ontologies."""
    pos = Example(abox(concepts=[("A", "a")]), aq_query("B1", "a"))
    neg = Example(abox(concepts=[("A", "a")]), aq_query("B2", "a"),
                  "negative")
    return collection([pos], [neg], AQ, ALC)


def expressive_power_consistency_collection():
    """A single positive consistency example that no atomic-query collection
    matches."""
    pos = Example(abox(roles=[("s", "a", "b")]), None)
    return collection([pos], [], CONSISTENCY, ALC)


FIXTURE_COLLECTIONS = {
    "edge_loop": edge_loop_collection,
    "edge_loop_swapped": lambda: edge_loop_collection(swapped=True),
    "alcq": alcq_collection,
    "ex_aq": aq_saturation_collection,
    "ex_aq_drop_p1": lambda: aq_saturation_collection(drop=("positive", 0)),
    "ex_aq_drop_p2": lambda: aq_saturation_collection(drop=("positive", 1)),
    "ex_aq_drop_n1": lambda: aq_saturation_collection(drop=("negative", 0)),
    "ex_aq_drop_n2": lambda: aq_saturation_collection(drop=("negative", 1)),
    "inverse_cycles": inverse_cycles_collection,
    "inverse_cycles_alc": lambda: inverse_cycles_collection(ALC),
    "bib": bibliography_collection,
    "bib_extended": lambda: bibliography_collection(extended=True),
    "expressive_power_aq": expressive_power_aq_collection,
    "expressive_power_consistency": expressive_power_consistency_collection,
}


def fixture_ontologies():
    o_full, o_bottom, o_augmented = bibliography_ontologies()
    return {
        "bib_full": o_full,
        "bib_bottom": o_bottom,
        "bib_augmented": o_augmented,
        "o_b1": ontology([(Top(), Name("B1"))], ALC),
        "o_b2": ontology([(Top(), Name("B2"))], ALC),
    }

