"""Seeded corpora for the four benchmark workloads.

Each workload is a list of ops.  An op is one `dlfit` command line over
files written here, together with the exit code a correct program gives
(its known answer).  Known answers come from the construction of a family,
from the labels the paper and the test suite state, or, for random
collections, from the brute-force oracle in `oracle.py`.

The seed draws the random collections, renames the individuals of every
instance and shuffles its examples.  Renaming keeps the sorted order of the
individuals, because the deciders visit individuals in sorted order and the
cost of an instance should not depend on the seed.
"""

import random
import string
from dataclasses import dataclass

import oracle

# exit codes of `dlfit`: 0 yes (fits / entailed), 1 no, 2 undecided
YES, NO = 0, 1


@dataclass(frozen=True)
class Op:
    label: str  # family and size knob, e.g. "aq-chain n=12 query B"
    argv: tuple  # arguments of dlfit.cli.main
    expected: int  # YES or NO


# --- instances in the benchmark's own representation -------------------------
#
# An ABox is a tuple of atoms: ("A", "a") or ("r", "a", "b").  A query is a
# tuple of disjuncts; a disjunct is (variables, atoms).  An example is
# (polarity, abox, query-or-None).


def aq(name, ind):
    return (((), ((name, ind),)),)


def _terms(atoms):
    return {t for atom in atoms for t in atom[1:]}


def _individuals(examples):
    out = set()
    for _, a, q in examples:
        out |= _terms(a)
        for variables, atoms in q or ():
            out |= _terms(atoms) - set(variables)
    return out


class Renamer:
    """Seeded renaming of individuals that keeps their sorted order.  The
    new names all start with "i", so they sort before the query variables
    (x, y, ...) as the original names do: homomorphism search orders
    individuals and variables together."""

    def __init__(self, rng):
        self.rng = rng

    def mapping(self, individuals):
        prefix = "i" + "".join(self.rng.choice(string.ascii_lowercase)
                               for _ in range(3))
        return {x: f"{prefix}{k:03d}"
                for k, x in enumerate(sorted(individuals))}

    def examples(self, examples):
        m = self.mapping(_individuals(examples))
        out = [(pol, _rename_atoms(a, m), _rename_query(q, m))
               for pol, a, q in examples]
        positives = [ex for ex in out if ex[0] == "positive"]
        negatives = [ex for ex in out if ex[0] == "negative"]
        self.rng.shuffle(positives)
        self.rng.shuffle(negatives)
        return positives + negatives


def _rename_atoms(atoms, m):
    return tuple((atom[0],) + tuple(m.get(t, t) for t in atom[1:])
                 for atom in atoms)


def _rename_query(q, m):
    if q is None:
        return None
    return tuple((variables, _rename_atoms(atoms, m))
                 for variables, atoms in q)


# --- text formats ------------------------------------------------------------

def atom_text(atom):
    return f"{atom[0]}({','.join(atom[1:])})"


def abox_text(atoms):
    return "; ".join(atom_text(a) for a in atoms)


def query_text(q):
    parts = []
    for variables, atoms in q:
        body = " & ".join(atom_text(a) for a in atoms)
        parts.append(f"exists {','.join(variables)} . {body}" if variables
                     else body)
    return " | ".join(parts)


def collection_text(mode, logic, examples):
    lines = [f"mode: {mode}", f"logic: {logic}", ""]
    for pol, a, q in examples:
        lines.append(f"{pol} {{")
        lines.append(f"  abox: {abox_text(a)}")
        if q is not None:
            lines.append(f"  query: {query_text(q)}")
        lines += ["}", ""]
    return "\n".join(lines)


def ontology_text(logic, axioms):
    return "\n".join([f"logic: {logic}"] + list(axioms)) + "\n"


class Writer:
    """Writes the files of one corpus into a directory, with unique names."""

    def __init__(self, directory, rng):
        self.dir = directory
        self.rng = rng
        self.rename = Renamer(rng)
        self.count = 0

    def file(self, suffix, text):
        """Write text to the next file, unless the file already holds it:
        truncating a file can cost far more than writing it, on file systems
        that discard freed blocks at once."""
        self.count += 1
        path = self.dir / f"f{self.count:04d}.{suffix}"
        try:
            if path.read_text(encoding="utf-8") == text:
                return str(path)
        except FileNotFoundError:
            pass
        path.write_text(text, encoding="utf-8")
        return str(path)

    def collection(self, mode, logic, examples):
        return self.file("ex", collection_text(mode, logic,
                                               self.rename.examples(examples)))


# --- flat-fit ----------------------------------------------------------------

def _fixtures():
    """The flat fixtures with the verdicts the paper and the tests state:
    (label, mode, logic, examples, expected)."""
    edge = (("r", "a1", "a2"),)
    loop = (("r", "b", "b"),)
    out = [
        ("edge_loop", "consistency", "alc",
         [("positive", edge, None), ("negative", loop, None)], YES),
        ("edge_loop_swapped", "consistency", "alc",
         [("positive", loop, None), ("negative", edge, None)], NO),
        ("alcq", "consistency", "alcq",
         [("positive", (("r", "d", "e"),), None),
          ("negative", (("r", "a", "b"), ("r", "a", "c")), None)], YES),
        ("expressive_power_aq", "aq", "alc",
         [("positive", (("A", "a"),), aq("B1", "a")),
          ("negative", (("A", "a"),), aq("B2", "a"))], YES),
        ("expressive_power_consistency", "consistency", "alc",
         [("positive", (("s", "a", "b"),), None)], YES),
    ]
    ex_aq = [
        ("positive", (("A2", "a"),), aq("A1", "a")),
        ("positive", (("A3", "b"), ("A4", "b2")), aq("A2", "b")),
        ("negative", (("A3", "c"),), aq("A1", "c")),
        ("negative", (("A4", "d"),), aq("A5", "d")),
    ]
    out.append(("ex_aq", "aq", "alc", ex_aq, NO))
    for k in range(4):
        out.append((f"ex_aq_drop{k}", "aq", "alc",
                    ex_aq[:k] + ex_aq[k + 1:], YES))
    return out


def _aq_chain(n, head):
    """A positive rule `A(x), r(x,y) => A(y)` against one negative r-chain
    of n individuals starting at A.  Saturation propagates A along the whole
    chain, so a negative query A at the chain's end has no fitting; query B
    is never derived, so it fits, and the synthesized partition ontology
    over the n individuals is re-verified by type elimination.  The
    individuals are named c0, c1, ..., as a user would name them; their
    sorted order (c0, c1, c10, c11, c2, ...) is the order in which the
    type assignment visits them."""
    chain = [f"c{i}" for i in range(n)]
    a = (("A", chain[0]),) + tuple(("r", chain[i], chain[i + 1])
                                   for i in range(n - 1))
    return [("positive", (("A", "x"), ("r", "x", "y")), aq("A", "y")),
            ("negative", a, aq(head, chain[-1]))]


def _consistency_cycles(n, with_loop):
    """n positive r-cycles of length 2 against a negative self-loop: the
    loop maps into none of them, so a partition ontology over the 2n
    individuals fits.  with_loop adds a positive self-loop, into which the
    negative maps, so nothing fits."""
    out = [("positive", (("r", f"a{i:03d}", f"b{i:03d}"),
                         ("r", f"b{i:03d}", f"a{i:03d}")), None)
           for i in range(n)]
    if with_loop:
        out.append(("positive", (("r", "l", "l"),), None))
    out.append(("negative", (("r", "z", "z"),), None))
    return out


def flat_fit(w):
    ops = []
    for label, mode, logic, examples, expected in _fixtures():
        ops.append(Op(label, ("fit", w.collection(mode, logic, examples)),
                      expected))
    # n=8 with query B comes in 8 copies: about the 90th percentile of op
    # times falls among them, so op_p90_s does not hinge on the random tail
    for n in (4, 6, 8, 10, 11, 12):
        for head, expected in (("A", NO), ("B", YES)):
            for _ in range(8 if (n, head) == (8, "B") else 1):
                path = w.collection("aq", "alc", _aq_chain(n, head))
                ops.append(Op(f"aq-chain n={n} query {head}", ("fit", path),
                              expected))
    for n, with_loop in ((10, False), (20, False), (40, False), (80, False),
                         (40, True)):
        path = w.collection("consistency", "alc",
                            _consistency_cycles(n, with_loop))
        ops.append(Op(f"consistency-cycles n={n} loop={with_loop}",
                      ("fit", path), NO if with_loop else YES))
    # 18 collections with and 18 without a fitting per mode: the two answers
    # take different paths (synthesis and re-verification, or none), so a
    # fixed mix keeps op_p50_s from moving with the seed
    for mode in ("aq", "fullcq"):
        quota = {YES: 18, NO: 18}
        while any(quota.values()):
            examples = oracle.random_collection(w.rng, mode)
            expected = YES if oracle.fits(mode, examples) else NO
            if quota[expected]:
                quota[expected] -= 1
                ops.append(Op(f"random-{mode} #{len(ops)}",
                              ("fit", w.collection(mode, "alc", examples)),
                              expected))
    return ops


# --- type-build --------------------------------------------------------------

def _cycle_ontology(k, inverse, poison):
    """{Ai sub exists r.A(i+1 mod k)}, over r- for ALCI.  The poison axiom
    A(k-1) sub forall r.not A0 makes A(k-1), and with it every Ai,
    unsatisfiable."""
    role = "r-" if inverse else "r"
    axioms = [f"A{i} sub exists {role} . A{(i + 1) % k}" for i in range(k)]
    if poison:
        axioms.append(f"A{k - 1} sub forall {role} . not A0")
    return axioms


# Positive-only consistency collections; each asserts some Ai, so each fits
# the plain cycle ontology (which has a model for every ABox) and none fits
# the poisoned one.
_CYCLE_SHAPES = (
    [("positive", (("A0", "a"),), None)],
    [("positive", (("A0", "a"),), None),
     ("positive", (("A1", "b"), ("r", "b", "c")), None)],
    [("positive", (("A0", "a"), ("r", "a", "b"), ("A1", "b")), None)],
    [("positive", (("A1", "a"), ("r", "a", "a")), None),
     ("positive", (("A0", "b"),), None)],
)


def type_build(w):
    ops = []
    # (k, shapes, copies); k=5 with the one-positive shape is the largest
    # build that finishes in about a second
    plan = [(2, range(4), 3), (3, range(4), 2), (4, range(4), 1),
            (4, [0], 1), (5, [0], 1)]
    for k, shapes, copies in plan:
        for inverse in (False, True):
            logic = "alci" if inverse else "alc"
            for poison in (False, True):
                if k == 5 and poison:
                    continue
                onto = w.file("dl", ontology_text(
                    logic, _cycle_ontology(k, inverse, poison)))
                for s in shapes:
                    for _ in range(copies):
                        path = w.collection("consistency", logic,
                                            _CYCLE_SHAPES[s])
                        ops.append(Op(
                            f"cycle k={k} {logic} poison={poison} shape={s}",
                            ("verify", "--ontology", onto, path),
                            NO if poison else YES))
    return ops


# --- ucq-verify --------------------------------------------------------------

def _bibliography():
    pubs = [
        ("positive", (("Publication", "b"), ("authorOf", "a", "b")),
         aq("Author", "a")),
        ("positive", (("Reviewer", "a"),),
         ((("x",), (("Publication", "x"), ("reviews", "a", "x"))),)),
        ("positive", (("Publication", "a"),),
         (((), (("Confpaper", "a"),)), ((), (("Jarticle", "a"),)))),
    ]
    extended = pubs + [
        ("negative", (("Author", "a"),),
         ((("x",), (("Reviewer", "x"), ("authorOf", "a", "x"))),))]
    full = ["exists authorOf . Publication sub Author",
            "Reviewer sub exists reviews . Publication",
            "Publication sub (Confpaper or Jarticle)"]
    augmented = full + ["Author sub exists authorOf . Reviewer"]
    ontologies = {"full": full, "bottom": ["top sub bot"],
                  "augmented": augmented}
    # the paper: all three fit the plain collection; the negative rules out
    # the inconsistent and the augmented ontology
    answers = {("full", False): YES, ("bottom", False): YES,
               ("augmented", False): YES, ("full", True): YES,
               ("bottom", True): NO, ("augmented", True): NO}
    return pubs, extended, ontologies, answers


_Q_EDGE = ((("x", "y"), (("r", "x", "y"),)),)
_Q_EDGE_B = ((("x", "y"), (("B", "y"), ("r", "x", "y"))),)
_Q_SRC_B = ((("x", "y"), (("B", "x"), ("r", "x", "y"))),)


def entailment_triples():
    """The acceptance-10 triples (ABox, ALCI axioms, query, entailed)."""
    single = (("A", "a"),)
    edge = (("A", "a"), ("r", "a", "b"))
    succ = ["A sub exists r . B"]
    inv = ["A sub exists r- . B"]
    free = ["C sub exists r . B"]
    entailed = [
        (single, succ, _Q_EDGE), (single, succ, _Q_EDGE_B),
        (single, inv, _Q_EDGE), (single, inv, _Q_SRC_B),
        (edge, [], _Q_EDGE), (edge, succ, _Q_EDGE),
        ((("B", "a"), ("r", "b", "a")), [], _Q_EDGE_B),
        (edge, inv, _Q_EDGE),
        ((("A", "a"), ("B", "b"), ("r", "a", "b")), [], _Q_EDGE_B),
        (single, ["A sub exists r . A"], _Q_EDGE),
    ]
    not_entailed = [
        (single, [], _Q_EDGE), (single, [], _Q_EDGE_B),
        (single, free, _Q_EDGE), (single, free, _Q_EDGE_B),
        ((("B", "a"),), [], _Q_EDGE), ((("B", "a"),), [], _Q_EDGE_B),
        (single, inv, _Q_EDGE_B),
        ((("A", "a"), ("A", "b")), [], _Q_EDGE),
        (single, ["B sub exists r . B"], _Q_EDGE),
        ((("r", "a", "b"),), [], _Q_EDGE_B),
    ]
    return ([t + (True,) for t in entailed]
            + [t + (False,) for t in not_entailed])


def _renamed_triple(w, a, q):
    m = w.rename.mapping(_terms(a))
    return _rename_atoms(a, m), _rename_query(q, m)


def _disjunctive_path(k, m):
    """{A sub exists r.A} plus k disjunctions A sub (Ci or Di), ABox A(a),
    and a length-m r-path from a ending in A: entailed by construction;
    the disjunctions multiply the witness choices of the bounded search."""
    axioms = ["A sub exists r . A"] + [f"A sub (C{i} or D{i})"
                                       for i in range(k)]
    xs = [f"x{j}" for j in range(1, m + 1)]
    path = ["a"] + xs
    atoms = tuple(("r", path[j], path[j + 1]) for j in range(m)) \
        + (("A", xs[-1]),)
    return (("A", "a"),), axioms, ((tuple(xs), atoms),)


def _entail_op(w, label, a, axioms, q, entailed):
    a, q = _renamed_triple(w, a, q)
    abox_path = w.file("abox", abox_text(a) + "\n")
    onto = w.file("dl", ontology_text("alci", axioms))
    return Op(label, ("entail", "--abox", abox_path, "--ontology", onto,
                      "--query", query_text(q)),
              YES if entailed else NO)


def ucq_verify(w):
    ops = []
    pubs, extended, ontologies, answers = _bibliography()
    # three copies of the full ontology's ops: about the 90th percentile of
    # op times falls among them
    for (name, ext), expected in sorted(answers.items()):
        for _ in range(3 if name == "full" else 2):
            onto = w.file("dl", ontology_text("alc", ontologies[name]))
            path = w.collection("ucq", "alc", extended if ext else pubs)
            ops.append(Op(f"bib {name} extended={ext}",
                          ("verify", "--ontology", onto, path), expected))
    for k, (a, axioms, q, entailed) in enumerate(entailment_triples()):
        for _ in range(4):
            ops.append(_entail_op(w, f"triple #{k}", a, axioms, q, entailed))
    # (k, m) -> copies; (3, 3) and (4, 2) hit the candidate cap today
    for (k, m), copies in (((1, 1), 2), ((1, 2), 2), ((1, 3), 2),
                           ((2, 1), 2), ((2, 2), 2), ((3, 1), 2),
                           ((2, 3), 1), ((3, 2), 1), ((3, 3), 1),
                           ((4, 2), 1)):
        a, axioms, q = _disjunctive_path(k, m)
        for _ in range(copies):
            ops.append(_entail_op(w, f"disjunctive-path k={k} m={m}",
                                  a, axioms, q, True))
    return ops


# --- ucq-fit -----------------------------------------------------------------

def _inverse_cycles():
    def succ_from(name):
        return ((("x",), ((name, "x"), ("r", "x", "a"))),)
    return [("positive", (("A1", "a"),), succ_from("A2")),
            ("positive", (("A2", "a"),), succ_from("A1")),
            ("negative", (("A1", "a"),), aq("B", "a")),
            ("negative", (("A2", "a"),), aq("B", "a"))]


# The smallest known instance without a fitting on which the ucq decider
# answers unknown: the isomorphic ABoxes force the negative query.
_FORCED_NEGATIVE = [
    ("positive", (("A", "a"),), ((("x",), (("B", "x"), ("r", "a", "x"))),)),
    ("negative", (("A", "b"),), ((("y",), (("r", "b", "y"),)),)),
]


def _generated(w, a, axioms, q):
    """The collection dlfit's generator builds from an entailment triple.
    Its examples keep the generator's order: the finite-witness search
    visits them in file order, and on some triples a shuffled order takes
    over a hundred times longer."""
    from dlfit.harness import (
        generate_from_entailment, parse_abox, parse_ontology, parse_query,
        serialize_collection,
    )
    a, q = _renamed_triple(w, a, q)
    e = generate_from_entailment(
        parse_abox(abox_text(a)),
        parse_ontology(ontology_text("alci", axioms)),
        parse_query(query_text(q)))
    return w.file("ex", serialize_collection(e))


def ucq_fit(w):
    ops = []
    # (finite-size, degree) -> copies
    settings = (((3, 2), 2), ((4, 2), 2), ((6, 3), 1))
    for k, (a, axioms, q, entailed) in enumerate(entailment_triples()):
        expected = NO if entailed else YES
        for (size, degree), copies in settings:
            for _ in range(copies):
                path = _generated(w, a, axioms, q)
                ops.append(Op(f"generated #{k} size={size} degree={degree}",
                              ("fit", path, "--finite-size", str(size),
                               "--degree", str(degree)), expected))
    for size, degree in ((3, 2), (4, 2), (6, 3)):
        path = w.collection("ucq", "alc", _FORCED_NEGATIVE)
        ops.append(Op(f"forced-negative size={size} degree={degree}",
                      ("fit", path, "--finite-size", str(size),
                       "--degree", str(degree)), NO))
    for logic, expected in (("alci", YES), ("alc", NO)):
        for depth in (1, 2):
            path = w.collection("ucq", logic, _inverse_cycles())
            ops.append(Op(f"inverse-cycles {logic} depth-unit={depth}",
                          ("fit", path, "--depth-unit", str(depth),
                           "--degree", "2"), expected))
    return ops


WORKLOADS = {
    "flat-fit": flat_fit,
    "type-build": type_build,
    "ucq-verify": ucq_verify,
    "ucq-fit": ucq_fit,
}


def build(workload, seed, directory):
    """Write the corpus of a workload into directory; returns its ops."""
    rng = random.Random(f"{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](Writer(directory, rng))
