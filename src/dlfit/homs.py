"""Constrained homomorphism search between ABoxes, conjunctive queries, and
finite interpretations."""

from dataclasses import dataclass

from .core import ABox, CQ, ALCI, InputError


@dataclass(frozen=True)
class HomConstraints:
    fixed: tuple = ()  # of (term, target element) pairs
    locally_injective: bool = False
    reachability_anchors: tuple = None  # (frozenset of elements, logic)

    def fixed_map(self):
        return dict(self.fixed)


NO_CONSTRAINTS = HomConstraints()


@dataclass(frozen=True)
class Mapping:
    assignment: tuple  # of (source term, target element) pairs, sorted

    def __getitem__(self, term):
        return dict(self.assignment)[term]

    def as_dict(self):
        return dict(self.assignment)


def strong_constraints(individuals, names):
    """Constraints pinning every individual to its anchored element."""
    return HomConstraints(fixed=tuple(sorted(
        (a, names[a]) for a in individuals)))


def _source_atoms(source):
    if isinstance(source, ABox):
        return source.concept_assertions, source.role_assertions, \
            source.individuals
    if isinstance(source, CQ):
        return source.concept_atoms, source.role_atoms, source.terms
    raise TypeError(f"unsupported homomorphism source {type(source).__name__}")


class TargetView:
    """Uniform access to the elements, labels, and edges of a target."""

    def __init__(self, elements, labels, edges):
        self.elements = sorted(elements, key=repr)
        self.labels = labels  # set of (concept-name, element)
        self.edges = edges  # set of (role-name, element, element)
        self.succ = {}
        self.pred = {}
        for r, x, y in edges:
            self.succ.setdefault((r, x), set()).add(y)
            self.pred.setdefault((r, y), set()).add(x)

    def labeled(self, name):
        return {e for n, e in self.labels if n == name}


def target_view(target):
    if isinstance(target, TargetView):
        return target
    if isinstance(target, ABox):
        return TargetView(target.individuals, set(target.concept_assertions),
                          set(target.role_assertions))
    # interpretation-like: domain / concept_ext / role_ext
    if hasattr(target, "domain"):
        labels = {(n, e) for n, ext in target.concept_ext.items() for e in ext}
        edges = {(r, x, y) for r, ext in target.role_ext.items()
                 for x, y in ext}
        return TargetView(target.domain, labels, edges)
    raise TypeError(f"unsupported homomorphism target {type(target).__name__}")


def reachable_set(target, start, logic):
    """Elements reachable from start by role steps (forward only under ALC,
    either direction under ALCI); start itself included."""
    view = target_view(target)
    seen = {start}
    frontier = [start]
    while frontier:
        e = frontier.pop()
        nxt = set()
        for (r, x), ys in view.succ.items():
            if x == e:
                nxt |= ys
        if logic == ALCI:
            for (r, y), xs in view.pred.items():
                if y == e:
                    nxt |= xs
        for y in nxt:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def homomorphisms(source, target, constraints=NO_CONSTRAINTS, want="all"):
    """All (or the first) homomorphisms from source to target satisfying the
    constraints.  Returns a list of Mapping; empty iff none exists."""
    concept_atoms, role_atoms, terms = _source_atoms(source)
    view = target_view(target)
    fixed = constraints.fixed_map()
    for t, e in fixed.items():
        if e not in set(view.elements):
            raise InputError(f"fixed target element {e!r} not in target")

    allowed_reach = None
    if constraints.reachability_anchors is not None:
        anchors, logic = constraints.reachability_anchors
        allowed_reach = set()
        for a in anchors:
            allowed_reach |= reachable_set(view, a, logic)

    variables = source.variables if isinstance(source, CQ) else frozenset()

    # initial candidate sets
    cand = {}
    order_key = {e: i for i, e in enumerate(view.elements)}
    for t in sorted(terms):
        if t in fixed:
            cs = {fixed[t]}
        else:
            cs = set(view.elements)
        for n, u in concept_atoms:
            if u == t:
                cs &= view.labeled(n)
        if allowed_reach is not None and t in variables:
            cs &= allowed_reach
        # self-loop atoms
        for r, t1, t2 in role_atoms:
            if t1 == t and t2 == t:
                cs = {e for e in cs if e in view.succ.get((r, e), ())}
        cand[t] = cs

    # sibling pairs that a locally injective map must keep apart
    inj_pairs = []
    if constraints.locally_injective:
        grouped = {}
        for r, a, b in role_atoms:
            grouped.setdefault((r, a), set()).add(b)
        for _, kids in grouped.items():
            kids = sorted(kids)
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    inj_pairs.append((kids[i], kids[j]))

    results = []
    assignment = {}

    def consistent_edge(r, t1, t2, e1, e2):
        return e2 in view.succ.get((r, e1), ())

    def propagate(t, e, domains):
        for r, t1, t2 in role_atoms:
            if t1 == t and t2 != t and t2 not in assignment:
                domains[t2] = {y for y in domains[t2]
                               if y in view.succ.get((r, e), ())}
                if not domains[t2]:
                    return False
            if t2 == t and t1 != t and t1 not in assignment:
                domains[t1] = {x for x in domains[t1]
                               if x in view.pred.get((r, e), ())}
                if not domains[t1]:
                    return False
        return True

    def ok(t, e):
        for r, t1, t2 in role_atoms:
            if t1 == t and t2 in assignment:
                if not consistent_edge(r, t1, t2, e, assignment[t2]):
                    return False
            if t2 == t and t1 in assignment and t1 != t:
                if not consistent_edge(r, t1, t2, assignment[t1], e):
                    return False
        for b, c in inj_pairs:
            if b == t and c in assignment and assignment[c] == e:
                return False
            if c == t and b in assignment and assignment[b] == e:
                return False
        return True

    def search(domains):
        if len(assignment) == len(terms):
            results.append(Mapping(tuple(sorted(assignment.items()))))
            return want != "first"
        # most constrained term first, name as tie-break
        t = min((u for u in sorted(terms) if u not in assignment),
                key=lambda u: (len(domains[u]), u))
        for e in sorted(domains[t], key=lambda x: order_key[x]):
            if not ok(t, e):
                continue
            assignment[t] = e
            sub = {u: set(d) for u, d in domains.items()}
            if propagate(t, e, sub):
                if not search(sub):
                    del assignment[t]
                    return False
            del assignment[t]
        return True

    if not terms:
        return [Mapping(())]
    if all(cand[t] for t in terms):
        search(cand)
    results.sort(key=lambda m: tuple(order_key[e] for _, e in m.assignment))
    return results


def is_locally_injective(h, source):
    """True iff the mapping never merges two role successors of one parent."""
    m = h.as_dict() if isinstance(h, Mapping) else dict(h)
    _, role_atoms, _ = _source_atoms(source)
    grouped = {}
    for r, a, b in role_atoms:
        grouped.setdefault((r, a), set()).add(b)
    for _, kids in grouped.items():
        kids = sorted(kids)
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                if m[kids[i]] == m[kids[j]]:
                    return False
    return True
