"""Random atomic-query and variable-free-query collections, and a
brute-force oracle for their fitting existence.

The oracle enumerates completions of the negatives' disjoint union, as the
paper's characterization states them, with its own homomorphism search.  It
shares no code with the deciders it checks.  Instances are small (at most
three examples over three individuals), so the enumeration stays cheap.
"""

NAMES = ("A1", "A2", "A3")
INDS = ("x", "y", "z")


# --- generators, shaped like the acceptance suite's --------------------------

def random_abox(rng):
    inds = rng.sample(INDS, rng.randint(1, 3))
    concepts = {(n, a) for a in inds for n in NAMES if rng.random() < 0.4}
    roles = {("r", a, b) for a in inds for b in inds if rng.random() < 0.25}
    used = {a for _, a in concepts} | {t for _, x, y in roles for t in (x, y)}
    for a in inds:
        if a not in used:
            concepts.add((rng.choice(NAMES), a))
    return tuple(sorted(concepts)) + tuple(sorted(roles))


def _abox_individuals(a):
    return sorted({t for atom in a for t in atom[1:]})


def _random_query(rng, mode, a):
    inds = _abox_individuals(a)
    if mode == "aq":
        return (rng.choice(NAMES), rng.choice(inds)),
    atoms = set()
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            atoms.add((rng.choice(NAMES), rng.choice(inds)))
        else:
            atoms.add(("r", rng.choice(inds), rng.choice(inds)))
    return tuple(sorted(atoms))


def random_collection(rng, mode):
    """1-2 positives and 0-2 negatives; each query is one atom (aq) or 1-2
    ground atoms (fullcq) over the example's own individuals."""
    npos = rng.randint(1, 2)
    nneg = rng.randint(0, 3 - npos)
    out = []
    for pol, count in (("positive", npos), ("negative", nneg)):
        for _ in range(count):
            a = random_abox(rng)
            out.append((pol, a, (((), _random_query(rng, mode, a)),)))
    return out


# --- the oracle --------------------------------------------------------------

def _split(atoms):
    concepts = {a for a in atoms if len(a) == 2}
    return concepts, set(atoms) - concepts


def homomorphisms(source, concepts, roles, domain):
    """Every map of the source ABox's individuals into domain that keeps
    its concept and role atoms inside the given target atoms."""
    s_concepts, s_roles = _split(source)
    terms = _abox_individuals(source)
    m = {}

    def ok(t):
        if any(n_t[1] == t and (n_t[0], m[t]) not in concepts
               for n_t in s_concepts):
            return False
        return all((r, m[x], m[y]) in roles for r, x, y in s_roles
                   if x in m and y in m and t in (x, y))

    def go(k):
        if k == len(terms):
            yield dict(m)
            return
        for e in domain:
            m[terms[k]] = e
            if ok(terms[k]):
                yield from go(k + 1)
            del m[terms[k]]

    yield from go(0)


def fits(mode, examples):
    """Whether some ALC ontology fits the collection.  A completion adds
    positive query heads to the disjoint union of the negative ABoxes.  A
    fitting exists iff some completion
    (a) propagates every positive head along every homomorphism of its
        ABox, for positives whose query edges lie in their own ABox;
    (b) leaves every negative query unsatisfied; and
    (c) admits no homomorphism from a positive whose query asserts an edge
        its ABox lacks (such a positive needs an inconsistent ABox)."""
    positives = [(a, q[0][1]) for pol, a, q in examples if pol == "positive"]
    base_c, base_r, neg_queries = set(), set(), []
    for k, (pol, a, q) in enumerate(ex for ex in examples
                                    if ex[0] == "negative"):
        concepts, roles = _split(a)
        base_c |= {(n, (k, t)) for n, t in concepts}
        base_r |= {(r, (k, x), (k, y)) for r, x, y in roles}
        neg_queries.append([(atom[0],) + tuple((k, t) for t in atom[1:])
                            for atom in q[0][1]])
    domain = sorted({t for atom in base_c | base_r for t in atom[1:]})
    heads = sorted({atom[0] for _, q in positives for atom in q
                    if len(atom) == 2})
    slots = [(n, e) for n in heads for e in domain]
    for bits in range(1 << len(slots)):
        facts = base_c | {slots[i] for i in range(len(slots))
                          if bits >> i & 1}

        def holds(atom):
            return atom in (facts if len(atom) == 2 else base_r)

        if any(all(holds(atom) for atom in q) for q in neg_queries):
            continue
        ok = True
        for a, q in positives:
            own_edges = all(atom in a for atom in q if len(atom) == 3)
            for h in homomorphisms(a, facts, base_r, domain):
                if not own_edges or any((atom[0], h[atom[1]]) not in facts
                                        for atom in q if len(atom) == 2):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
