"""Finite-model checking, ontology consistency via type elimination, and
bounded entailment oracles."""

from dataclasses import dataclass
from functools import cached_property

from .core import (
    ALC, ALCI, ALCQ, ABox, And, AtLeast, AtMost, Bottom, BoundsExceeded,
    Exists, Forall, InputError, Name, Not, Ontology, Or, Top, UCQ,
    UnsupportedLogicError, expand_abbreviations, signature_of, subconcepts,
)
from .homs import HomConstraints, TargetView, homomorphisms


@dataclass(frozen=True)
class Interpretation:
    """A finite interpretation with anchored individual names."""

    domain: frozenset
    labels: frozenset  # of (concept-name, element)
    edges: frozenset  # of (role-name, element, element)
    names: frozenset = frozenset()  # of (individual, element)

    def __post_init__(self):
        if not self.domain:
            raise InputError("interpretation domains must be non-empty")
        for n, e in self.labels:
            if e not in self.domain:
                raise InputError(f"label on unknown element {e!r}")
        for r, x, y in self.edges:
            if x not in self.domain or y not in self.domain:
                raise InputError("edge on unknown element")
        seen = {}
        for a, e in self.names:
            if e not in self.domain:
                raise InputError(f"individual {a} anchored outside the domain")
            if a in seen and seen[a] != e:
                raise InputError(f"individual {a} anchored twice")
            seen[a] = e

    @cached_property
    def view(self):
        """The labels and edges indexed by name and by (role, element),
        built once and shared by every reader."""
        return TargetView(self.domain, self.labels, self.edges)

    @cached_property
    def name_map(self):
        return dict(self.names)

    def element_of(self, individual):
        m = self.name_map
        if individual not in m:
            raise InputError(f"individual {individual} is not anchored")
        return m[individual]

    def successors(self, role, x):
        """The elements that x reaches by one step in the role."""
        index = self.view.pred if role.inverted else self.view.succ
        return index.get((role.name, x), frozenset())


def interp(domain, labels=(), edges=(), names=()):
    return Interpretation(frozenset(domain), frozenset(labels),
                          frozenset(edges), frozenset(names))


def abox_interpretation(a):
    """The ABox viewed as an interpretation over exactly its individuals."""
    if not a.individuals:
        raise InputError("an empty ABox induces no interpretation")
    return interp(a.individuals, set(a.concept_assertions),
                  set(a.role_assertions), {(i, i) for i in a.individuals})


@dataclass(frozen=True)
class TreeInterpretation:
    """A tree-shaped interpretation whose domain is a prefix-closed set of
    words over naturals; each edge connects a node with its parent in a
    single role, in either direction."""

    node_labels: frozenset  # of (word, concept-name)
    # (child-word, role-name, upward): upward=False means parent->child edge
    node_edges: frozenset

    def __post_init__(self):
        words = self.words
        for w in words:
            if w and w[:-1] not in words:
                raise InputError("tree domain must be prefix-closed")
            if w:
                k = w[-1]
                if k < 1 or (k > 1 and w[:-1] + (k - 1,) not in words):
                    raise InputError("successor indices must form 1..k")
        children = {w for w, _, _ in self.node_edges}
        for w in words:
            if w and w not in children:
                raise InputError(f"node {w} lacks a connecting edge")

    @cached_property
    def words(self):
        ws = {()}
        ws |= {w for w, _ in self.node_labels}
        ws |= {w for w, _, _ in self.node_edges}
        closed = set()
        for w in ws:
            for i in range(len(w) + 1):
                closed.add(w[:i])
        return frozenset(closed)

    def labels_at(self, w):
        return frozenset(n for u, n in self.node_labels if u == w)

    def edge_at(self, w):
        for u, r, up in self.node_edges:
            if u == w:
                return (r, up)
        return None

    def children(self, w):
        k = 1
        out = []
        while w + (k,) in self.words:
            out.append(w + (k,))
            k += 1
        return out


def extension(i, c):
    """The set of elements of i satisfying concept c."""
    if isinstance(c, Top):
        return set(i.domain)
    if isinstance(c, Bottom):
        return set()
    if isinstance(c, Name):
        return set(i.view.labeled(c.name))
    if isinstance(c, Not):
        return set(i.domain) - extension(i, c.arg)
    if isinstance(c, And):
        return extension(i, c.left) & extension(i, c.right)
    if isinstance(c, Or):
        return extension(i, c.left) | extension(i, c.right)
    inner = extension(i, c.arg)
    if isinstance(c, Forall):
        return {x for x in i.domain if i.successors(c.role, x) <= inner}
    count = {x: len(i.successors(c.role, x) & inner) for x in i.domain}
    if isinstance(c, Exists):
        return {x for x, n in count.items() if n > 0}
    if isinstance(c, AtMost):
        return {x for x, n in count.items() if n <= c.bound}
    if isinstance(c, AtLeast):
        return {x for x, n in count.items() if n >= c.bound}
    raise TypeError(f"not a concept: {c!r}")


def is_model(i, x):
    """Whether i satisfies an ontology or an ABox."""
    if isinstance(x, Ontology):
        return all(extension(i, lhs) <= extension(i, rhs)
                   for lhs, rhs in x.inclusions)
    if isinstance(x, ABox):
        return all((n, i.element_of(a)) in i.labels
                   for n, a in x.concept_assertions) and \
            all((r, i.element_of(a), i.element_of(b)) in i.edges
                for r, a, b in x.role_assertions)
    raise TypeError(f"cannot check modelhood of {type(x).__name__}")


def is_forest_model(i, a, logic):
    """Whether i is a forest model of the ABox: role edges between
    individuals are exactly the asserted ones, and the remaining edge graph
    is a forest (directed away from its roots under ALC, where individuals
    must be roots; undirected under ALCI)."""
    ind_elems = {i.element_of(x) for x in a.individuals}
    asserted = {(r, i.element_of(x), i.element_of(y))
                for r, x, y in a.role_assertions}
    anon_edges = set()
    for r, x, y in i.edges:
        if x in ind_elems and y in ind_elems:
            if (r, x, y) not in asserted:
                return False
        else:
            anon_edges.add((x, y))
    if logic == ALC:
        indeg = {}
        for x, y in anon_edges:
            indeg[y] = indeg.get(y, 0) + 1
        if any(v > 1 for v in indeg.values()):
            return False
        if any(e in indeg for e in ind_elems):
            return False
        # in-degree <= 1: a cycle would have to be a simple directed cycle
        succ = {}
        for x, y in anon_edges:
            succ.setdefault(x, set()).add(y)
        visited = {}
        for start in list(succ):
            node, seen = start, set()
            while node is not None:
                if visited.get(node):
                    break
                if node in seen:
                    return False
                seen.add(node)
                nxt = succ.get(node, ())
                node = next(iter(nxt)) if nxt else None
            for s in seen:
                visited[s] = True
        return True
    # ALCI: the undirected simple graph must be acyclic
    und = {frozenset((x, y)) for x, y in anon_edges}
    if any(len(p) == 1 for p in und):
        return False
    parent = {e: e for e in i.domain}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in und:
        x, y = sorted(p, key=repr)
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
    return True


# --- type machinery -------------------------------------------------------

# search nodes one type enumeration may visit; the largest build of the
# benchmark corpora visits 1,331
MAX_TYPE_NODES = 20000
# witness-class pairs one type elimination may test; the cycle ontology
# {Ai sub exists r . A(i+1 mod k)} tests 65,536 at k = 8
MAX_ELIMINATION_STEPS = 500000


class TypeSystem:
    """Types over the existential subconcepts and concept names of an
    ontology, with witness-coherent elimination.  Names the ontology does
    not mention constrain nothing, so no type tracks them.  A type is an
    int with one bit per atom: the sorted names, then `exists_atoms`."""

    def __init__(self, o, logic):
        if logic not in (ALC, ALCI):
            raise UnsupportedLogicError(f"type elimination supports {ALC} "
                                        f"and {ALCI} only")
        self.logic = logic
        self.cis = [(expand_abbreviations(l), expand_abbreviations(r))
                    for l, r in sorted(o.inclusions, key=repr)]
        names, exists = set(), set()
        for c in (c for pair in self.cis for c in pair):
            for s in subconcepts(c):
                if isinstance(s, Name):
                    names.add(s.name)
                elif isinstance(s, Exists):
                    if s.role.inverted and logic != ALCI:
                        raise UnsupportedLogicError("inverse role outside "
                                                    + ALCI)
                    exists.add(s)
        self.names = frozenset(names)
        self.exists_atoms = sorted(exists, key=repr)
        atoms = sorted(names) + self.exists_atoms
        self._bit = {a: 1 << i for i, a in enumerate(atoms)}
        self._exists_bits = [(e, self._bit[e]) for e in self.exists_atoms]
        # per role name, the bits of its forward and of its inverse atoms
        self._roles = {}
        for e, b in self._exists_bits:
            self._roles.setdefault(e.role.name, [0, 0])[e.role.inverted] |= b
        self.types = self._enumerate(len(atoms))
        # per type, the existential atoms whose argument it satisfies
        args = [(self._truth(e.arg), b) for e, b in self._exists_bits]
        self._sat = {t: sum(b for f, b in args if f(-1, t))
                     for t in self.types}
        self.survivors = self._eliminate()
        self._parts = {}  # type -> parts(type), decoded on first use
        self._compiled = {}  # concept -> _truth(concept)

    def _truth(self, c):
        """c, in reduced form, as a function of (known, val): whether c holds
        when the atoms in known (-1: all) are decided, val's true, or None."""
        if isinstance(c, Top):
            return lambda known, val: True
        if isinstance(c, Not):
            f = self._truth(c.arg)
            return lambda known, val: (None if (v := f(known, val)) is None
                                       else not v)
        if isinstance(c, And):
            f, g = self._truth(c.left), self._truth(c.right)

            def both(known, val):
                v, w = f(known, val), g(known, val)
                return False if v is False or w is False else (v and w) or None
            return both
        b = self._bit[c.name if isinstance(c, Name) else c]
        return lambda known, val: bool(val & b) if known & b else None

    def parts(self, t):
        """The concept names and the existential atoms of a type."""
        if t not in self._parts:
            self._parts[t] = (
                frozenset(n for n in self.names if t & self._bit[n]),
                tuple(e for e, b in self._exists_bits if t & b))
        return self._parts[t]

    def holds(self, c, t):
        if c not in self._compiled:
            self._compiled[c] = self._truth(c)
        return self._compiled[c](-1, t)

    def class_key(self, names):
        """The class of a type, as a function of the type, for a reader
        that sees only the given concept names, the existential atoms, and
        which atoms' arguments the type satisfies: types of one class look
        alike to it."""
        mask = sum(self._bit[n] for n in self.names & names) \
            | sum(b for _, b in self._exists_bits)
        return lambda t: (t & mask, self._sat[t])

    def _enumerate(self, n):
        # l sub r is violated where l and not r is true; that value changes
        # only where an atom in it is decided, so the node deciding bit k - 1
        # checks only the rules at[k - 1]
        rules = [self._truth(And(l, Not(r))) for l, r in self.cis]
        at = [[] for _ in range(n)]
        for (l, r), f in zip(self.cis, rules):
            for a in {s.name if isinstance(s, Name) else s
                      for s in subconcepts(l) + subconcepts(r)
                      if isinstance(s, (Name, Exists))}:
                at[self._bit[a].bit_length() - 1].append(f)
        out = []
        nodes = 0

        def go(k, known, val):
            nonlocal nodes
            if any(f(known, val) for f in (at[k - 1] if k else rules)):
                return
            nodes += 1
            if nodes > MAX_TYPE_NODES:
                raise BoundsExceeded("type enumeration cap")
            if k == n:
                out.append(val)
                return
            for v in (val, val | 1 << k):
                go(k + 1, known | 1 << k, v)

        go(0, 0, 0)
        return out

    def _ends(self, t, r):
        """t's masks at the source (side 0) and the target (side 1) of an
        r-edge: the forward atoms it lacks and the inverse ones it satisfies
        the argument of, then the reverse.  x r y is allowed iff disjoint."""
        fwd, bwd = self._roles[r]
        sat = self._sat[t]
        return fwd & ~t | bwd & sat, fwd & sat | bwd & ~t

    def edge_ok(self, t_from, r, t_to):
        """Whether an r-edge may lead from an element of type t_from to one
        of type t_to without violating any absent existential atom."""
        fwd, bwd = self._roles.get(r, (0, 0))
        return not (fwd & self._sat[t_to] & ~t_from
                    or bwd & self._sat[t_from] & ~t_to)

    def survivor_witnesses(self, t, e):
        """The surviving types that may realize the existential atom e of
        type t, in survivor order."""
        b, r, side = self._bit[e], e.role.name, e.role.inverted
        key = self._ends(t, r)[side]
        return [w for w in self.survivors if self._sat[w] & b
                and not key & self._ends(w, r)[1 - side]]

    def _eliminate(self):
        """The greatest witness-coherent set of types, in enumeration order.
        A forward atom of role k needs a witness at side 1 of an edge, an
        inverse one at side 0; types with one `_ends` mask at a side are
        interchangeable there, so support[k, side, key, b] counts the live
        classes at the other side that realize b and are disjoint from key."""
        types, roles = self.types, list(self._roles.values())
        ends = [[self._ends(t, r) for r in self._roles] for t in types]
        bits = [[[b for _, b in self._exists_bits if b & m] for m in masks]
                for masks in roles]
        classes = [({}, {}) for _ in roles]  # per role, per side: key -> types
        for i, row in enumerate(ends):
            for k, masks in enumerate(row):
                for side in (0, 1):
                    classes[k][side].setdefault(masks[side], []).append(i)
        live = {(k, side, key): len(m) for k, pair in enumerate(classes)
                for side in (0, 1) for key, m in pair[side].items()}
        support, alive, queue, steps = {}, [True] * len(types), [], 0

        def tally(k, side, witnesses, delta):
            nonlocal steps
            for key, members in classes[k][side].items():
                for w in witnesses:
                    steps += 1
                    if steps > MAX_ELIMINATION_STEPS:
                        raise BoundsExceeded("type elimination cap")
                    for b in (() if key & w else bits[k][side]):
                        if w & b:
                            n = support.get((k, side, key, b), 0) + delta
                            support[k, side, key, b] = n
                            for i in (() if n else members):
                                if alive[i] and types[i] & b:
                                    alive[i] = False
                                    queue.append(i)

        for k in range(len(roles)):
            for side in (0, 1):
                if roles[k][side]:
                    tally(k, side, classes[k][1 - side], 1)
        for i, t in enumerate(types):
            if any(t & b and (k, side, ends[i][k][side], b) not in support
                   for k in range(len(roles)) for side in (0, 1)
                   for b in bits[k][side]):
                alive[i] = False
                queue.append(i)
        while queue:
            i = queue.pop()
            for k, masks in enumerate(ends[i]):
                for side in (0, 1):
                    w = masks[1 - side]
                    live[k, 1 - side, w] -= 1
                    if not live[k, 1 - side, w] and w & roles[k][side]:
                        tally(k, side, (w,), -1)
        return [t for t, ok in zip(types, alive) if ok]

    def allowed_types(self, asserted, absent=()):
        """Surviving types for an element with the given asserted and absent
        concept names; only the names the ontology mentions narrow them."""
        asserted, absent = set(asserted), set(absent)
        if asserted & absent:
            return []
        need = sum(self._bit[n] for n in asserted & self.names)
        ban = sum(self._bit[n] for n in absent & self.names)
        return [t for t in self.survivors if t & need == need and not t & ban]

    def assignments(self, a, absent=()):
        """The coherent assignments of surviving types to the individuals of
        the ABox, in the lexicographic order of their options (individuals
        sorted).  absent: (name, individual) pairs the individual must lack."""
        inds = sorted(a.individuals)
        asserted = {x: set() for x in inds}
        for n, x in a.concept_assertions:
            asserted[x].add(n)
        excluded = {x: set() for x in inds}
        for n, x in absent:
            if x in excluded:
                excluded[x].add(n)
        domain = {x: self.allowed_types(asserted[x], excluded[x])
                  for x in inds}
        # arcs[x]: (r, side, y) when x is at that side of an r-edge to y; a
        # role the ontology does not mention constrains nothing
        arcs = {x: [] for x in inds}
        for r, u, v in a.role_assertions:
            if r in self._roles and u == v:
                domain[u] = [t for t in domain[u] if self.edge_ok(t, r, t)]
            elif r in self._roles:
                arcs[u].append((r, 0, v))
                arcs[v].append((r, 1, u))
        # AC-3: drop x's types fitting no neighbour's type; requeue arcs into x
        work = {(x, arc) for x in inds for arc in arcs[x]}
        while work:
            x, (r, side, y) = work.pop()
            fits = {self._ends(t, r)[1 - side] for t in domain[y]}
            kept = [t for t in domain[x]
                    if any(not self._ends(t, r)[side] & m for m in fits)]
            if len(kept) < len(domain[x]):
                domain[x] = kept
                work |= {(z, (r2, 1 - side2, x)) for r2, side2, z in arcs[x]}
        options = [domain[x] for x in inds]
        if not all(options):
            return
        assignment = {}

        def ok(x, t):
            return not any(y in assignment and not (
                self.edge_ok(t, r, assignment[y]) if side == 0
                else self.edge_ok(assignment[y], r, t))
                for r, side, y in arcs[x])

        def go(k):
            if k == len(inds):
                yield dict(assignment)
                return
            x = inds[k]
            for t in options[k]:
                if ok(x, t):
                    assignment[x] = t
                    yield from go(k + 1)
                    del assignment[x]

        yield from go(0)

    def abox_assignment(self, a, absent=()):
        """The first coherent assignment of surviving types to the ABox's
        individuals, or None."""
        return next(self.assignments(a, absent), None)


_TYPE_SYSTEM_CACHE = {}


def type_system(o, logic):
    """Memoized TypeSystem factory; construction does the exponential type
    enumeration, so repeated oracle calls share it.  A capped build's error
    is memoized without the build's frames and raised afresh each call."""
    key = (o, logic)
    if key not in _TYPE_SYSTEM_CACHE:
        if len(_TYPE_SYSTEM_CACHE) > 512:
            _TYPE_SYSTEM_CACHE.clear()
        try:
            _TYPE_SYSTEM_CACHE[key] = TypeSystem(o, logic)
        except BoundsExceeded as exc:
            _TYPE_SYSTEM_CACHE[key] = exc.with_traceback(None)
    ts = _TYPE_SYSTEM_CACHE[key]
    if isinstance(ts, BoundsExceeded):
        raise BoundsExceeded(*ts.args)
    return ts


def _alcq_substructure_safe(o):
    """Whether the ontology's models are closed under induced substructures:
    no construct that demands successors, except inside a negative context."""

    def polarity_ok(c, pos):
        # pos=True: c appears positively on a right-hand side
        if isinstance(c, (Top, Bottom, Name)):
            return True
        if isinstance(c, Not):
            return polarity_ok(c.arg, not pos)
        if isinstance(c, (And, Or)):
            return polarity_ok(c.left, pos) and polarity_ok(c.right, pos)
        if isinstance(c, Exists):
            return (not pos) and polarity_ok(c.arg, pos)
        if isinstance(c, Forall):
            return pos and polarity_ok(c.arg, pos)
        if isinstance(c, AtMost):
            return pos and polarity_ok(c.arg, not pos)
        if isinstance(c, AtLeast):
            return (not pos) and polarity_ok(c.arg, pos)
        return False

    return all(polarity_ok(l, False) and polarity_ok(r, True)
               for l, r in o.inclusions)


# labelings one ALCQ consistency check may try; acceptance 09 tries 74
MAX_ALCQ_LABELINGS = 20000


def _check_consistency_alcq(a, o):
    if not _alcq_substructure_safe(o):
        raise UnsupportedLogicError(
            "ALCQ consistency is supported only for ontologies preserved "
            "under induced substructures")
    sig = signature_of(o) | signature_of(a)
    names = sorted(sig.concept_names)
    elements = sorted(a.individuals) or ["_"]
    labels0 = set(a.concept_assertions) if a.individuals else set()
    edges = set(a.role_assertions) if a.individuals else set()
    optional = [(n, e) for e in elements for n in names
                if (n, e) not in labels0]

    def attempt(bits):
        labels = labels0 | {optional[i] for i in range(len(optional))
                            if bits >> i & 1}
        i = interp(elements, labels, edges,
                   {(e, e) for e in elements} if a.individuals else ())
        return is_model(i, o) and (not a.individuals or is_model(i, a))

    for bits in range(1 << len(optional)):
        if bits == MAX_ALCQ_LABELINGS:
            raise BoundsExceeded("alcq labeling cap")
        if attempt(bits):
            return True
    return False


def check_consistency(a, o, logic, absent=()):
    """Whether the ABox and ontology have a common model, in which no
    (name, individual) pair of absent holds."""
    if logic == ALCQ:
        if absent:
            raise UnsupportedLogicError("absent names unsupported under "
                                        "ALCQ")
        return _check_consistency_alcq(a, o)
    ts = type_system(o, logic)
    if not a.individuals:
        if absent:
            raise InputError("absent name on an empty ABox")
        return bool(ts.survivors)
    return ts.abox_assignment(a, absent) is not None


def entails_ground(a, o, q, logic=ALCI):
    """Whether the ABox and ontology entail a variable-free conjunctive
    query."""
    disjuncts = q.disjuncts if isinstance(q, UCQ) else (q,)
    if len(disjuncts) != 1 or disjuncts[0].variables:
        raise InputError("ground entailment requires a single variable-free "
                         "conjunctive query")
    d = disjuncts[0]
    if not check_consistency(a, o, logic):
        return True
    for atom in d.role_atoms:
        if atom not in a.role_assertions:
            return False
    for atom in d.concept_atoms:
        if check_consistency(a, o, logic, absent=[atom]):
            return False
    return True


def evaluate_query(i, q):
    """Whether some disjunct of the query has a strong homomorphism into i."""
    disjuncts = q.disjuncts if isinstance(q, UCQ) else (q,)
    for d in disjuncts:
        fixed = tuple(sorted((x, i.element_of(x)) for x in d.individuals))
        if homomorphisms(d, i, HomConstraints(fixed=fixed), want="first"):
            return True
    return False


# --- bounded entailment ---------------------------------------------------

@dataclass(frozen=True)
class EntailmentBounds:
    depth: int = 3
    max_elements: int = 40
    max_candidates: int = 50000


@dataclass
class EntailmentAnswer:
    status: str  # "entailed" | "not-entailed" | "unknown"
    countermodel: Interpretation = None
    diagnostics: str = ""
    nodes: int = 0  # search nodes the DFS visited

    @property
    def entailed(self):
        return self.status == "entailed"


def _labels(a, types, ts):
    """The ABox's concept assertions and the names in each element's type."""
    return set(a.concept_assertions) | {
        (n, e) for e, t in types.items() for n in ts.parts(t)[0]}


def _candidate_interpretation(a, types, ts, edges):
    names = {(x, x) for x in a.individuals}
    return interp(set(types), _labels(a, types, ts), edges, names)


def entails_ucq_bounded(a, o, q, logic, bounds=EntailmentBounds()):
    """Three-valued entailment of a union of conjunctive queries: searches
    tree-extended countermodels up to the depth bound (claiming entailment
    only when every candidate already satisfies the query)."""
    if not a.individuals:
        raise InputError("bounded entailment requires a non-empty ABox")
    try:
        ts = type_system(o, logic)
    except BoundsExceeded as exc:
        return EntailmentAnswer("unknown", diagnostics=str(exc))
    inds = sorted(a.individuals)

    state = {"count": 0, "capped": False, "inconclusive": False}

    # per disjunct: the individuals pinned to themselves, and for each
    # variable the concept names it needs and its role steps, (r, True) for
    # an atom r(v, u) and (r, False) for r(u, v)
    disjuncts = []
    query_roles, query_names = set(), set()
    for d in (q.disjuncts if isinstance(q, UCQ) else (q,)):
        query_roles |= {r for r, _, _ in d.role_atoms}
        query_names |= {n for n, _ in d.concept_atoms}
        needs = {v: (set(), set()) for v in d.variables}
        for n, t in d.concept_atoms:
            if t in needs:
                needs[t][0].add(n)
        for r, t1, t2 in d.role_atoms:
            if t1 in needs:
                needs[t1][1].add((r, True))
            if t2 in needs:
                needs[t2][1].add((r, False))
        disjuncts.append((d, tuple(sorted((x, x) for x in d.individuals)),
                          sorted(needs.items())))

    def prioritize(queue):
        # expanding an obligation whose role the query mentions tends to
        # complete a match and prune the branch, so handle those first;
        # the expansion order never changes the answer, only the effort
        return sorted(queue,
                      key=lambda item: 0 if item[1].role.name in query_roles
                      else 1)

    # the search reads a type only through the query's concept names
    # (matching), its existential atoms (obligations) and the atoms whose
    # argument it satisfies (witnessing), so the subtrees below two types
    # of one class differ only in labels the query cannot see: branching
    # once per class decides the same
    key = ts.class_key(query_names)
    firsts = {}

    def witness_classes(t, e_atom):
        """The first survivor witness of each class for the atom of t."""
        if (t, e_atom) not in firsts:
            first = {}
            for w in ts.survivor_witnesses(t, e_atom):
                first.setdefault(key(w), w)
            firsts[t, e_atom] = list(first.values())
        return firsts[t, e_atom]

    def witnessed(elem, e_atom, types, *indexes):
        """Whether some role successor of elem satisfies the atom's
        argument; each index is a pair (succ, pred) of edges by (role-name,
        element), and together they hold every edge."""
        key = (e_atom.role.name, elem)
        for succ, pred in indexes:
            for y in (pred if e_atom.role.inverted else succ).get(key, ()):
                if ts.holds(e_atom.arg, types[y]):
                    return True
        return False

    def closure_model(types, edges, view):
        """Discharge every pending obligation by linking into one realizer
        node per needed type; yields a genuine finite model.  The view
        indexes the given edges; the linked ones get their own index."""
        types = dict(types)
        edges = set(edges)
        succ, pred = {}, {}
        realizer = {}

        def link(r, x, y):
            edges.add((r, x, y))
            succ.setdefault((r, x), set()).add(y)
            pred.setdefault((r, y), set()).add(x)

        def realize(t):
            if t in realizer:
                return realizer[t]
            node = ("c", len(realizer))
            realizer[t] = node
            types[node] = t
            for e_atom in ts.parts(t)[1]:
                attach(node, t, e_atom)
            return node

        def attach(elem, t, e_atom):
            t2 = witness_classes(t, e_atom)[0]
            other = realize(t2)
            if e_atom.role.inverted:
                link(e_atom.role.name, other, elem)
            else:
                link(e_atom.role.name, elem, other)

        for elem, t in list(types.items()):
            for e_atom in ts.parts(t)[1]:
                if not witnessed(elem, e_atom, types, (view.succ, view.pred),
                                 (succ, pred)):
                    attach(elem, t, e_atom)
        return _candidate_interpretation(a, types, ts, edges)

    def matches(view):
        """Whether some disjunct maps into the view (the full check)."""
        for d, pins, _ in disjuncts:
            for x, _ in pins:
                if x not in a.individuals:
                    raise InputError(f"individual {x} is not anchored")
            if homomorphisms(d, view, HomConstraints(fixed=pins),
                             want="first"):
                return True
        return False

    def matches_through(view, element, edge, names):
        """Whether some disjunct maps into the view with a variable on the
        element, which has the given concept names and one edge (the delta
        check).  A variable whose atoms ask for more cannot go there."""
        r, x, _ = edge
        step = {(r, x == element)}
        for d, pins, needs in disjuncts:
            for v, (wanted, steps) in needs:
                if wanted <= names and steps <= step and homomorphisms(
                        d, view, HomConstraints(fixed=pins + ((v, element),)),
                        want="first"):
                    return True
        return False

    def explore(view, types, edges, depths, queue, counter, added=None):
        """DFS over witness choices; returns a countermodel or None.  The
        view holds this node's candidate: its parent's plus the element
        added with its one edge, the pair `added` (None at the root)."""
        state["count"] += 1
        if state["count"] > bounds.max_candidates:
            state["capped"] = True
            return None
        # extensions only add elements, labels, and edges, so a query match
        # in the partial candidate persists in every completion of the
        # branch; the parent had no match, so a new one must use the added
        # element
        if added is None:
            if matches(view):
                return None
        else:
            element, edge = added
            if matches_through(view, element, edge,
                               ts.parts(types[element])[0]):
                return None
        pending = []
        while queue:
            elem, e_atom = queue[0]
            if witnessed(elem, e_atom, types, (view.succ, view.pred)):
                queue = queue[1:]
                continue
            if depths[elem] >= bounds.depth or \
                    len(types) >= bounds.max_elements:
                pending.append((elem, e_atom))
                queue = queue[1:]
                continue
            # branch over witness types for the first open obligation
            found_any = False
            for t2 in witness_classes(types[elem], e_atom):
                child = ("t", counter)
                new_types = dict(types)
                new_types[child] = t2
                if e_atom.role.inverted:
                    edge = (e_atom.role.name, child, elem)
                else:
                    edge = (e_atom.role.name, elem, child)
                new_edges = edges | {edge}
                new_depths = dict(depths)
                new_depths[child] = depths[elem] + 1
                names, obligations = ts.parts(t2)
                new_queue = prioritize(
                    queue[1:] + [(child, e2) for e2 in obligations] + pending)
                view.push(child, names, (edge,))
                cm = explore(view, new_types, new_edges, new_depths,
                             new_queue, counter + 1, (child, edge))
                view.pop()
                if cm is not None:
                    return cm
                found_any = True
            if not found_any:
                # survival guarantees witnesses; defensive
                state["inconclusive"] = True
            return None
        # no expandable obligations left: the loop added nothing, so the
        # candidate is this node's, which the check above found unmatched
        candidate = _candidate_interpretation(a, types, ts, edges)
        if not pending:
            return candidate
        closed = closure_model(types, edges, view)
        if not evaluate_query(closed, q):
            return closed
        state["inconclusive"] = True
        return None

    saw_assignment, explored = False, set()
    for tau in ts.assignments(a):
        saw_assignment = True
        classes = tuple(key(tau[x]) for x in inds)
        if classes in explored:
            continue
        explored.add(classes)
        edges = set(a.role_assertions)
        depths = {x: 0 for x in inds}
        queue = prioritize([(x, e) for x in inds for e in ts.parts(tau[x])[1]])
        view = TargetView(inds, _labels(a, tau, ts), edges)
        cm = explore(view, dict(tau), edges, depths, queue, 0)
        if cm is not None:
            return EntailmentAnswer("not-entailed", cm, nodes=state["count"])
        if state["capped"]:
            break
    if not saw_assignment:
        return EntailmentAnswer("entailed",
                                diagnostics="no consistent type assignment")
    if not state["capped"] and not state["inconclusive"]:
        return EntailmentAnswer("entailed", nodes=state["count"])
    return EntailmentAnswer(
        "unknown", diagnostics="bounds exhausted: "
        + ("candidate cap" if state["capped"] else "blocked extensions "
           "satisfy the query"), nodes=state["count"])


def find_finite_countermodel(a, o, q, logic, max_size, budget=200000):
    """Exhaustive search for a finite model of the ABox and ontology of at
    most max_size elements falsifying the query.  Returns (model-or-None,
    settled) where settled is False when the node budget ran out."""
    sig = signature_of(o) | signature_of(a) | signature_of(q)
    names = sorted(sig.concept_names)
    roles = sorted(sig.role_names)
    if logic == ALCQ:
        raise UnsupportedLogicError("finite-model search supports ALC/ALCI")
    inds = sorted(a.individuals)
    state = {"nodes": 0}

    for size in range(max(1, len(inds)), max_size + 1):
        elements = inds + [f"_{k}" for k in range(size - len(inds))]
        forced_labels = set(a.concept_assertions)
        forced_edges = set(a.role_assertions)
        free_label_slots = [(n, e) for e in elements for n in names
                            if (n, e) not in forced_labels]
        free_edge_slots = [(r, x, y) for r in roles for x in elements
                           for y in elements if (r, x, y) not in forced_edges]

        def attempt(label_bits, edge_bits):
            labels = forced_labels | {
                free_label_slots[i] for i in range(len(free_label_slots))
                if label_bits >> i & 1}
            edges = forced_edges | {
                free_edge_slots[i] for i in range(len(free_edge_slots))
                if edge_bits >> i & 1}
            i = interp(elements, labels, edges, {(x, x) for x in inds})
            if not is_model(i, o):
                return None
            if inds and not is_model(i, a):
                return None
            if evaluate_query(i, q):
                return None
            return i

        for label_bits in range(1 << len(free_label_slots)):
            for edge_bits in range(1 << len(free_edge_slots)):
                state["nodes"] += 1
                if state["nodes"] > budget:
                    return None, False
                found = attempt(label_bits, edge_bits)
                if found is not None:
                    return found, True
    return None, True
