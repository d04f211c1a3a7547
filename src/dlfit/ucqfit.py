"""Fitting for unions of conjunctive queries: bounded decision procedure,
variation-based obligation checking, finite-witness search, and ontology
synthesis from finite witnesses."""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .core import (
    ALC, ALCI, And, Bottom, BOTTOM_ONTOLOGY, BoundsExceeded, CQ, Exists,
    InputError, Name, Not, Ontology, PARTITION_PREFIX, Role, Top, UCQ_MODE,
    preprocess_collection, signature_of, size_of,
)
from .flatfit import (
    FITTING_EXISTS, FitVerdict, NO_FITTING, NO_FITTING_WITHIN_BOUNDS,
    UNKNOWN, _big_or,
)
from .homs import HomConstraints, homomorphisms, reachable_set
from .semantics import (
    Interpretation, TreeInterpretation, evaluate_query, interp,
    is_forest_model, is_model,
)


@dataclass(frozen=True)
class Bounds:
    depth_unit: int = 1
    degree: int = 2
    max_mosaics: int = 20000
    finite_witness_size: int = 3

    def __post_init__(self):
        if self.depth_unit < 1 or self.degree < 1:
            raise InputError("bounds must be positive")


DEGREE_CEILING = 10 ** 9


def degree_bound(e):
    """The branching degree that suffices for witness models: the negative
    total size plus, per positive example, (size+1)^(query size)."""
    total = sum(size_of(ex) for ex in e.negatives)
    for ex in e.positives:
        total += (size_of(ex) + 1) ** size_of(ex.query)
        if total > DEGREE_CEILING:
            return DEGREE_CEILING
    return total


# --- proper variations and the per-homomorphism obligation ----------------

def _canonical_variables(q):
    """Rename variables to v0, v1, ... in order of first occurrence in the
    sorted atom list, for duplicate elimination."""
    order = []
    for _, t in sorted(q.concept_atoms):
        if t in q.variables and t not in order:
            order.append(t)
    for _, t1, t2 in sorted(q.role_atoms):
        for t in (t1, t2):
            if t in q.variables and t not in order:
                order.append(t)
    ren = {v: f"v{i}" for i, v in enumerate(order)}

    def r(t):
        return ren.get(t, t)

    return CQ(frozenset((n, r(t)) for n, t in q.concept_atoms),
              frozenset((ro, r(t1), r(t2)) for ro, t1, t2 in q.role_atoms),
              frozenset(ren.values()))


def _variation_proper(p, a, logic):
    # ground role atoms must be asserted
    for ro, t1, t2 in p.role_atoms:
        if t1 not in p.variables and t2 not in p.variables:
            if (ro, t1, t2) not in a.role_assertions:
                return False
    # components of the non-ground role atoms must be trees embeddable into
    # the anonymous tree hanging off a single individual
    anon_atoms = [(ro, t1, t2) for ro, t1, t2 in p.role_atoms
                  if t1 in p.variables or t2 in p.variables]
    if not anon_atoms:
        return True
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nodes = {t for _, t1, t2 in anon_atoms for t in (t1, t2)}
    for t in nodes:
        parent[t] = t
    for _, t1, t2 in anon_atoms:
        r1, r2 = find(t1), find(t2)
        if r1 != r2:
            parent[r1] = r2
    comps = {}
    for atom in anon_atoms:
        comps.setdefault(find(atom[1]), []).append(atom)
    for atoms in comps.values():
        ts = {t for _, t1, t2 in atoms for t in (t1, t2)}
        inds = ts - p.variables
        if len(inds) > 1:
            return False
        # simple tree: #atoms = #nodes - 1 and no two atoms share a node pair
        pairs = {frozenset((t1, t2)) for _, t1, t2 in atoms}
        if len(atoms) != len(ts) - 1 or len(pairs) != len(atoms):
            return False
        if any(len(pr) == 1 for pr in pairs):
            return False
        if logic == ALC:
            # edges must form an arborescence rooted at the individual if
            # one is present, else at the unique source
            indeg = {t: 0 for t in ts}
            for _, _, t2 in atoms:
                indeg[t2] += 1
            roots = [t for t in ts if indeg[t] == 0]
            if len(roots) != 1 or any(v > 1 for v in indeg.values()):
                return False
            if inds and roots[0] not in inds:
                return False
    return True


def enumerate_proper_variations(p, a, logic):
    """All substitution instances of the query p (variables replaced by
    individuals of the ABox or identified with each other) that can match
    inside some forest model of the ABox."""
    variables = sorted(p.variables)
    inds = sorted(a.individuals)
    targets = inds + variables
    out = []
    seen = set()
    for combo in product(targets, repeat=len(variables)):
        sub = dict(zip(variables, combo))
        # map each variable through its substitution chain to a fixpoint
        def resolve(t):
            path = []
            while t in sub and sub[t] != t and t not in path:
                path.append(t)
                t = sub[t]
            return t

        ren = {v: resolve(v) for v in variables}
        new_vars = {ren[v] for v in variables if ren[v] in p.variables}
        try:
            q2 = CQ(frozenset((n, ren.get(t, t)) for n, t in p.concept_atoms),
                    frozenset((ro, ren.get(t1, t1), ren.get(t2, t2))
                              for ro, t1, t2 in p.role_atoms),
                    frozenset(new_vars))
        except InputError:
            continue
        q2 = _canonical_variables(q2)
        if q2 in seen:
            continue
        seen.add(q2)
        if _variation_proper(q2, a, logic):
            out.append(q2)
    return sorted(out, key=repr)


def _variation_pool(e, logic):
    pool = []
    for d in e.query.disjuncts:
        pool.extend(enumerate_proper_variations(d, e.abox, logic))
    return pool


def obligation_holds(piece, e, h, logic, variations=None):
    """The per-homomorphism conclusion: given a homomorphism h from (part of)
    the positive example's ABox into the piece, some proper variation of a
    query disjunct must match the piece compatibly with h — agreeing with h
    on individuals and keeping variable images reachable from h's range."""
    hmap = h.as_dict() if hasattr(h, "as_dict") else dict(h)
    if variations is None:
        variations = _variation_pool(e, logic)
    reachable = reachable_set(piece, hmap.values(), logic)
    for p in variations:
        fixed = tuple(sorted((t, hmap[t]) for t in p.individuals
                             if t in hmap))
        if len(fixed) < len(p.individuals):
            continue  # not locally checkable against this homomorphism
        constraints = HomConstraints(fixed=fixed, reachable=reachable)
        if homomorphisms(p, piece, constraints, want="first"):
            return True
    return False


# --- mosaics -----------------------------------------------------------------

@dataclass(frozen=True)
class Mosaic:
    tree: TreeInterpretation
    owner: int  # index of the negative example the mosaic belongs to


def subtree_shape(t, root, keep_depth):
    """The canonical shape (label set, sorted child tuple) of the subtree of
    the tree t below the given word, cut keep_depth levels down (None keeps
    every level)."""
    def build(word, left):
        kids = []
        for c in t.children(word):
            if left == 0:
                continue
            rname, up = t.edge_at(c)
            kids.append(((rname, up),
                         build(c, None if left is None else left - 1)))
        return (t.labels_at(word), tuple(sorted(kids, key=repr)))

    return build(root, keep_depth)


def glues_to(m, d, host, depth_unit=1):
    """Whether the host tree's subtree below d equals the mosaic with its
    deepest layer (depth exactly 3*depth_unit) removed."""
    if d not in host.words:
        raise InputError(f"element {d} not in the host tree")
    truncated = subtree_shape(m.tree, (), 3 * depth_unit - 1)
    return subtree_shape(host, d, None) == truncated


def eliminate_mosaics(s0, depth_unit=1):
    """The greatest subset in which every mosaic's root successors can each
    be continued by another member of the subset."""
    current = sorted(set(s0), key=repr)
    while True:
        keep = []
        for m in current:
            ok = True
            for c in m.tree.children(()):
                if not any(glues_to(m2, c, m.tree, depth_unit)
                           for m2 in current):
                    ok = False
                    break
            if ok:
                keep.append(m)
        if len(keep) == len(current):
            return set(keep)
        current = keep


# --- finite witnesses -------------------------------------------------------

def _anon_root(neg_index):
    return f"__root{neg_index}"


@dataclass(frozen=True)
class WitnessParts:
    """A finite witness: one interpretation per negative example, together
    with the (preprocessed) collection the parts anchor."""

    parts: tuple
    collection: object

    @cached_property
    def combined(self):
        domain, labels, edges, names = set(), set(), set(), set()
        for p in self.parts:
            if p.domain & domain:
                raise InputError("witness parts must be disjoint")
            domain |= p.domain
            labels |= p.labels
            edges |= p.edges
            names |= p.names
        return interp(domain, labels, edges, names)


def check_finite_witness(w, e, logic):
    """Whether the partitioned finite interpretation certifies a fitting:
    each part is a forest model of its negative example falsifying every
    negative query, and every homomorphism from a positive ABox into the
    whole satisfies the variation obligation."""
    if len(w.parts) != len(e.negatives):
        raise InputError("expected one witness part per negative example")
    combined = w.combined
    for part, neg in zip(w.parts, e.negatives):
        if neg.abox.individuals:
            if not is_model(part, neg.abox):
                return False
        if not is_forest_model(part, neg.abox, logic):
            return False
    for neg in e.negatives:
        if evaluate_query(combined, neg.query):
            return False
    for pos in e.positives:
        variations = _variation_pool(pos, logic)
        for h in homomorphisms(pos.abox, combined):
            if not obligation_holds(combined, pos, h, logic, variations):
                return False
    return True


def _distinct_neighbors(edges, x):
    out = set()
    for r, a, b in edges:
        if a == x:
            out.add(b)
        if b == x:
            out.add(a)
    return out


def search_finite_witness(e, logic, b):
    """Bounded search for a finite witness: grow the negatives' ABoxes by
    repairing violated positive obligations, pruning anything that matches a
    negative query or breaks the forest shape."""
    if e.mode != UCQ_MODE:
        raise InputError("finite-witness search applies to ucq mode")
    e = preprocess_collection(e)
    if not e.negatives:
        return None
    part_of = {}
    init_parts = []
    for k, neg in enumerate(e.negatives):
        inds = sorted(neg.abox.individuals) or [_anon_root(k)]
        for a in inds:
            part_of[a] = k
        init_parts.append((
            frozenset(inds),
            frozenset(neg.abox.concept_assertions),
            frozenset(neg.abox.role_assertions)))
    variations = {i: _variation_pool(pos, logic)
                  for i, pos in enumerate(e.positives)}

    def to_interp(state):
        domain, labels, edges, names = set(), set(), set(), set()
        for dom, lab, edg in state:
            domain |= dom
            labels |= lab
            edges |= edg
            names |= {(x, x) for x in dom}
        return interp(domain, labels, edges, names)

    def violated(state):
        j = to_interp(state)
        for i, pos in enumerate(e.positives):
            for h in homomorphisms(pos.abox, j):
                if not obligation_holds(j, pos, h, logic, variations[i]):
                    return (i, h)
        return None

    def part_ok(state, k):
        dom, lab, edg = state[k]
        part = interp(dom, lab, edg,
                      {(x, x) for x in dom
                       if x in e.negatives[k].abox.individuals} or
                      {(x, x) for x in dom})
        return is_forest_model(part, e.negatives[k].abox, logic)

    def negatives_safe(j):
        return not any(evaluate_query(j, neg.query) for neg in e.negatives)

    def repairs(state, i, h):
        """All one-step extensions making the (i, h) obligation true."""
        hmap = h.as_dict()
        all_elems = sorted({x for dom, _, _ in state for x in dom}, key=repr)
        out = []
        for p in variations[i]:
            vs = sorted(p.variables)
            fixed = {t: hmap[t] for t in p.individuals}
            # variables map to existing elements or fresh ones
            options = []
            for v in vs:
                opts = list(all_elems) + [("fresh", v)]
                options.append(opts)
            for combo in product(*options):
                g = dict(fixed)
                for v, tgt in zip(vs, combo):
                    if isinstance(tgt, tuple) and tgt[0] == "fresh":
                        g[v] = ("fresh", v)
                    else:
                        g[v] = tgt
                out.append((p, g))
        return out

    def apply_repair(state, p, g, anchor_part):
        """Materialize a variation match; returns the new state or None."""
        new = [list(part) for part in state]
        # decide the owning part of every term
        owner = {}
        for t, tgt in g.items():
            if not (isinstance(tgt, tuple) and tgt[0] == "fresh"):
                k = _element_part(tgt)
                if k is None:
                    return None
                owner[t] = k
        # components must live inside a single part; propagate ownership
        changed = True
        adj = {}
        for _, t1, t2 in p.role_atoms:
            adj.setdefault(t1, set()).add(t2)
            adj.setdefault(t2, set()).add(t1)
        while changed:
            changed = False
            for t1, ns in adj.items():
                for t2 in ns:
                    if t1 in owner and t2 not in owner:
                        owner[t2] = owner[t1]
                        changed = True
                    elif t1 in owner and t2 in owner and \
                            owner[t1] != owner[t2]:
                        return None
        for t in g:
            if t not in owner:
                owner[t] = anchor_part
        # allocate fresh elements
        counter = [0]

        def mat(t):
            tgt = g[t]
            if isinstance(tgt, tuple) and tgt[0] == "fresh":
                k = owner[t]
                name = f"__w{k}_{len(new[k][0])}_{counter[0]}"
                counter[0] += 1
                new[k] = [new[k][0] | {name}, new[k][1], new[k][2]]
                if len(new[k][0]) > b.finite_witness_size:
                    raise BoundsExceeded("witness part size")
                g[t] = name
            return g[t]

        try:
            for n, t in sorted(p.concept_atoms):
                x = mat(t)
                k = owner.get(t, _element_part(x))
                new[k] = [new[k][0], new[k][1] | {(n, x)}, new[k][2]]
            for r, t1, t2 in sorted(p.role_atoms):
                x, y = mat(t1), mat(t2)
                k1 = owner.get(t1, _element_part(x))
                k2 = owner.get(t2, _element_part(y))
                if k1 != k2:
                    return None
                new[k1] = [new[k1][0], new[k1][1],
                           new[k1][2] | {(r, x, y)}]
        except BoundsExceeded:
            return None
        result = tuple((frozenset(d), frozenset(l), frozenset(ed))
                       for d, l, ed in new)
        # degree bound
        for dom, _, edg in result:
            for x in dom:
                if len(_distinct_neighbors(edg, x)) > b.degree:
                    return None
        return result

    element_part_cache = {}

    def _element_part(x):
        if x in element_part_cache:
            return element_part_cache[x]
        if x in part_of:
            element_part_cache[x] = part_of[x]
            return part_of[x]
        if isinstance(x, str) and x.startswith("__w"):
            k = int(x[3:].split("_")[0])
            element_part_cache[x] = k
            return k
        return None

    initial = tuple(init_parts)
    j0 = to_interp(initial)
    if not negatives_safe(j0):
        return None
    visited = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        if state in visited:
            continue
        visited.add(state)
        if len(visited) > 20000:
            raise BoundsExceeded("finite-witness search state cap")
        bad = violated(state)
        if bad is None:
            parts = []
            for k, (dom, lab, edg) in enumerate(state):
                names = {(x, x) for x in dom}
                parts.append(interp(dom, lab, edg, names))
            w = WitnessParts(tuple(parts), e)
            if check_finite_witness(w, e, logic):
                return w
            continue
        i, h = bad
        anchor = _element_part(sorted(h.as_dict().values(), key=repr)[0])
        if anchor is None:
            anchor = 0
        next_states = []
        for p, g in repairs(state, i, h):
            ns = apply_repair(state, p, dict(g), anchor)
            if ns is None or ns == state:
                continue
            if not all(part_ok(ns, k) for k in range(len(e.negatives))):
                continue
            if not negatives_safe(to_interp(ns)):
                continue
            if ns not in visited:
                next_states.append(ns)
        # deterministic order, smaller states first
        next_states.sort(key=lambda s: (sum(len(d) + len(l) + len(ed)
                                            for d, l, ed in s), repr(s)))
        stack.extend(reversed(next_states))
    return None


def synthesize_vd_ontology(w, logic, e=None):
    """An ontology forcing every model to collapse onto the finite witness:
    one fresh name per witness element, a covering disjoint partition, exact
    labels, and exact (non-)edges, over inverse roles too when available.
    The witness is re-verified first; e defaults to its own collection."""
    if e is None:
        e = w.collection
    if not check_finite_witness(w, e, logic):
        raise InputError("witness failed verification")
    j = w.combined
    elems = sorted(j.domain, key=repr)
    v = {d: Name(f"{PARTITION_PREFIX}{k}") for k, d in enumerate(elems)}
    axioms = {(Top(), _big_or([v[d] for d in elems]))}
    for i, d in enumerate(elems):
        for d2 in elems[i + 1:]:
            axioms.add((And(v[d], v[d2]), Bottom()))
    sig = signature_of(e)
    concept_names = sorted({n for n, _ in j.labels} | sig.concept_names)
    role_names = sorted({r for r, _, _ in j.edges} | sig.role_names)
    for d in elems:
        for n in concept_names:
            if (n, d) in j.labels:
                axioms.add((v[d], Name(n)))
            else:
                axioms.add((v[d], Not(Name(n))))
        roles = [Role(r) for r in role_names]
        if logic == ALCI:
            roles += [Role(r, True) for r in role_names]
        for role in roles:
            succ = j.successors(role, d)
            for d2 in elems:
                if d2 in succ:
                    axioms.add((v[d], Exists(role, v[d2])))
                else:
                    axioms.add((v[d], Not(Exists(role, v[d2]))))
    out_logic = ALC if logic == ALC else ALCI
    o = Ontology(out_logic, frozenset(axioms))
    # sanity: the witness extended with singleton partitions models the output
    check = Interpretation(
        j.domain,
        j.labels | frozenset((v[d].name, d) for d in elems),
        j.edges, j.names)
    if not is_model(check, o):
        raise InputError("internal error: witness does not model its own "
                         "ontology")
    return o


# --- the bounded decision procedure ----------------------------------------

def _universal_completion(core, sig, logic):
    """The core plus one maximally permissive anonymous element."""
    u = ("__u",)
    domain = set(core.domain) | {u}
    labels = set(core.labels) | {(n, u) for n in sig.concept_names}
    edges = set(core.edges)
    for r in sig.role_names:
        edges.add((r, u, u))
        for x in core.domain:
            edges.add((r, x, u))
            if logic == ALCI:
                edges.add((r, u, x))
    return interp(domain, labels, edges, set(core.names))


def decide_ucq_fitting(e, b=None):
    """Bounded fitting decision for unions of conjunctive queries: a
    complete pruning pass over all labelings of the negatives' individuals,
    then a bounded finite-witness search.  Fitting-exists answers always
    carry a verified witness and its ontology; impossibility is reported
    relative to the bounds unless they reach the known sufficient ones."""
    if e.mode != UCQ_MODE:
        raise InputError("decide_ucq_fitting requires ucq mode")
    if not e.negatives:
        return FitVerdict(FITTING_EXISTS, ontology=BOTTOM_ONTOLOGY)
    e = preprocess_collection(e)
    if b is None:
        b = Bounds()
    sig = signature_of(e)
    at_full_bounds = (b.depth_unit >= size_of(e)
                      and b.degree >= degree_bound(e))

    # phase 1: prune labelings of the negatives' individuals that cannot be
    # completed to any witness, however large
    inds = []
    asserted = {}
    base_edges = set()
    for k, neg in enumerate(e.negatives):
        part = sorted(neg.abox.individuals) or [_anon_root(k)]
        inds.extend(part)
        for a in part:
            asserted[a] = frozenset(
                n for n, x in neg.abox.concept_assertions if x == a)
        base_edges |= neg.abox.role_assertions
    free = sorted(sig.concept_names)
    slots = [(a, n) for a in inds for n in free]
    optional = [(a, n) for a, n in slots if n not in asserted[a]]
    if 2 ** len(optional) > b.max_mosaics:
        return FitVerdict(UNKNOWN, diagnostics="too many core labelings "
                          "for the configured cap")
    variations = {i: _variation_pool(pos, e.logic)
                  for i, pos in enumerate(e.positives)}
    survivor = None
    for bits in range(2 ** len(optional)):
        labels = {(n, a) for a in inds for n in asserted[a]}
        labels |= {(n, a) for i, (a, n) in enumerate(optional)
                   if bits >> i & 1}
        core = interp(inds, labels, base_edges, {(a, a) for a in inds})
        if any(evaluate_query(core, neg.query) for neg in e.negatives):
            continue
        jinf = _universal_completion(core, sig, e.logic)
        pruned = False
        for i, pos in enumerate(e.positives):
            for h in homomorphisms(pos.abox, core):
                if not obligation_holds(jinf, pos, h, e.logic,
                                        variations[i]):
                    pruned = True
                    break
            if pruned:
                break
        if not pruned:
            survivor = core
            break
    if survivor is None:
        outcome = NO_FITTING if at_full_bounds else NO_FITTING_WITHIN_BOUNDS
        return FitVerdict(outcome, diagnostics="every labeling of the "
                          "negative individuals is refuted")

    # phase 2: bounded witness search
    try:
        w = search_finite_witness(e, e.logic, b)
    except BoundsExceeded as exc:
        return FitVerdict(UNKNOWN, diagnostics=str(exc))
    if w is not None:
        o = synthesize_vd_ontology(w, e.logic, e=w.collection)
        return FitVerdict(FITTING_EXISTS, ontology=o, certificate=w)
    return FitVerdict(UNKNOWN, diagnostics="no finite witness within the "
                      "size bound; larger or infinite witnesses not ruled "
                      "out")
