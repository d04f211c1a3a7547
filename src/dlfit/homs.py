"""Constrained homomorphism search between ABoxes, conjunctive queries, and
finite interpretations."""

from bisect import insort
from dataclasses import dataclass

from .core import ABox, CQ, ALCI, InputError


@dataclass(frozen=True)
class HomConstraints:
    fixed: tuple = ()  # of (term, target element) pairs
    locally_injective: bool = False
    reachable: frozenset = None  # the elements variables may map to

    def fixed_map(self):
        return dict(self.fixed)


NO_CONSTRAINTS = HomConstraints()
_NONE = frozenset()


@dataclass(frozen=True)
class Mapping:
    assignment: tuple  # of (source term, target element) pairs, sorted

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
    """Uniform access to the elements, labels, and edges of a target.

    A view can also grow and shrink in stack order: `push` adds a fresh
    element with its concept names and its edges, `pop` takes the last
    pushed element away again.  Bounded entailment keeps one view along
    its depth-first search this way."""

    def __init__(self, elements, labels, edges):
        self.elements = sorted(elements, key=repr)
        self.element_set = set(self.elements)
        self.by_label = {}  # concept name -> set of elements
        self.succ = {}
        self.pred = {}
        self._rank = None
        self._pushed = []
        for n, e in labels:
            self.by_label.setdefault(n, set()).add(e)
        for r, x, y in edges:
            self.succ.setdefault((r, x), set()).add(y)
            self.pred.setdefault((r, y), set()).add(x)

    def labeled(self, name):
        return self.by_label.get(name, _NONE)

    def rank(self):
        """The position of each element in `elements`."""
        if self._rank is None:
            self._rank = {e: i for i, e in enumerate(self.elements)}
        return self._rank

    def push(self, element, names, edges):
        """Add a fresh element labelled with the concept names, and the
        edges (role-name, element, element), each of which touches it."""
        if element in self.element_set:
            raise ValueError(f"element {element!r} is already in the view")
        insort(self.elements, element, key=repr)
        self.element_set.add(element)
        for n in names:
            self.by_label.setdefault(n, set()).add(element)
        for r, x, y in edges:
            self.succ.setdefault((r, x), set()).add(y)
            self.pred.setdefault((r, y), set()).add(x)
        self._rank = None
        self._pushed.append((element, names, edges))

    def pop(self):
        """Undo the last push."""
        element, names, edges = self._pushed.pop()
        self.elements.remove(element)
        self.element_set.discard(element)
        for n in names:
            self.by_label[n].discard(element)
        for r, x, y in edges:
            self.succ[(r, x)].discard(y)
            self.pred[(r, y)].discard(x)
        self._rank = None


def target_view(target):
    if isinstance(target, TargetView):
        return target
    if isinstance(target, ABox):
        return TargetView(target.individuals, set(target.concept_assertions),
                          set(target.role_assertions))
    # an interpretation keeps its own view, built once
    if hasattr(target, "view"):
        return target.view
    raise TypeError(f"unsupported homomorphism target {type(target).__name__}")


def reachable_set(target, starts, logic):
    """Elements reachable from any of the starts by role steps (forward only
    under ALC, either direction under ALCI); the starts themselves included."""
    view = target_view(target)
    roles = {r for r, _ in view.succ}
    steps = (view.succ, view.pred) if logic == ALCI else (view.succ,)
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        e = frontier.pop()
        for index in steps:
            for r in roles:
                for y in index.get((r, e), _NONE):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
    return frozenset(seen)


def homomorphisms(source, target, constraints=NO_CONSTRAINTS, want="all"):
    """All (or the first) homomorphisms from source to target satisfying the
    constraints.  Returns a list of Mapping; empty iff none exists."""
    concept_atoms, role_atoms, terms = _source_atoms(source)
    view = target_view(target)
    fixed = constraints.fixed_map()
    for t, e in fixed.items():
        if e not in view.element_set:
            raise InputError(f"fixed target element {e!r} not in target")

    variables = source.variables if isinstance(source, CQ) else frozenset()
    if not terms:
        return [Mapping(())]
    order = sorted(terms)

    # the atoms of each term: concept names, self-loop roles, and the role
    # atoms r(t, u) (outgoing) and r(u, t) (incoming) with u another term
    names_of = {t: [] for t in order}
    loops = {t: [] for t in order}
    outgoing = {t: [] for t in order}
    incoming = {t: [] for t in order}
    for n, t in concept_atoms:
        names_of[t].append(n)
    for r, t1, t2 in role_atoms:
        if t1 == t2:
            loops[t1].append(r)
        else:
            outgoing[t1].append((r, t2))
            incoming[t2].append((r, t1))

    # initial candidate sets
    cand = {}
    for t in order:
        cs = {fixed[t]} if t in fixed else set(view.element_set)
        for n in names_of[t]:
            cs &= view.labeled(n)
        if constraints.reachable is not None and t in variables:
            cs &= constraints.reachable
        for r in loops[t]:
            cs = {e for e in cs if e in view.succ.get((r, e), ())}
        if not cs:
            return []
        cand[t] = cs

    # sibling pairs that a locally injective map must keep apart
    apart = {t: [] for t in order}
    if constraints.locally_injective:
        grouped = {}
        for r, t1, t2 in role_atoms:
            grouped.setdefault((r, t1), set()).add(t2)
        for kids in grouped.values():
            kids = sorted(kids)
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    apart[kids[i]].append(kids[j])
                    apart[kids[j]].append(kids[i])

    if all(len(cs) == 1 for cs in cand.values()):
        # nothing to search: check the one candidate map directly
        m = {t: next(iter(cs)) for t, cs in cand.items()}
        if all(m[y] in view.succ.get((r, m[x]), ()) for r, x, y in role_atoms
               if x != y) and \
                all(m[t] != m[u] for t in order for u in apart[t]):
            return [Mapping(tuple(sorted(m.items())))]
        return []

    results = []
    assignment = {}
    rank = view.rank()

    def propagate(t, e, domains):
        for r, u in outgoing[t]:
            if u not in assignment:
                domains[u] = domains[u] & view.succ.get((r, e), _NONE)
                if not domains[u]:
                    return False
        for r, u in incoming[t]:
            if u not in assignment:
                domains[u] = domains[u] & view.pred.get((r, e), _NONE)
                if not domains[u]:
                    return False
        return True

    def ok(t, e):
        for r, u in outgoing[t]:
            if u in assignment and \
                    assignment[u] not in view.succ.get((r, e), ()):
                return False
        for r, u in incoming[t]:
            if u in assignment and \
                    e not in view.succ.get((r, assignment[u]), ()):
                return False
        for u in apart[t]:
            if u in assignment and assignment[u] == e:
                return False
        return True

    def search(domains):
        if len(assignment) == len(order):
            results.append(Mapping(tuple(sorted(assignment.items()))))
            return want != "first"
        # most constrained term first, name as tie-break
        t = min((u for u in order if u not in assignment),
                key=lambda u: (len(domains[u]), u))
        for e in sorted(domains[t], key=rank.__getitem__):
            if not ok(t, e):
                continue
            assignment[t] = e
            sub = dict(domains)
            if propagate(t, e, sub):
                if not search(sub):
                    del assignment[t]
                    return False
            del assignment[t]
        return True

    search(cand)
    results.sort(key=lambda m: tuple(rank[e] for _, e in m.assignment))
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
