"""Text formats, verification harness, instance generation, and the CLI."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from dlfit import cli, semantics
from dlfit.core import (
    ALC, ALCI, ALCQ, AQ, And, AtLeast, AtMost, Bottom, CONSISTENCY, Example,
    Exists, FULLCQ, Forall, InputError, Name, Not, Or, Role, Top, UCQ,
    UCQ_MODE, abox, aq_query, collection, cq, normalize_ontology, ontology,
    preprocess_collection, ucq,
)
from dlfit.cli import EXIT_INTERNAL, main
from dlfit.flatfit import (
    UNKNOWN, InternalVerificationError, decide_consistency_fitting,
)
from dlfit.harness import (
    FIXTURE_COLLECTIONS, MAX_CONCEPT_DEPTH, fixture_ontologies,
    generate_from_entailment, bibliography_collection,
    bibliography_ontologies, parse_abox, parse_collection, parse_ontology,
    parse_query, query_text, serialize_collection, serialize_ontology,
    verify_fit,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_collection_files_round_trip():
    for path in sorted(FIXTURES.glob("*.ex")):
        text = path.read_text()
        e = parse_collection(text)
        assert serialize_collection(e) == text
        assert FIXTURE_COLLECTIONS[path.stem]() == e


def test_ontology_files_round_trip():
    for path in sorted(FIXTURES.glob("*.dl")):
        text = path.read_text()
        o = parse_ontology(text)
        assert serialize_ontology(o) == text
        assert fixture_ontologies()[path.stem] == o


def test_parse_ontology_infers_the_minimal_logic():
    assert parse_ontology("A sub B").logic == ALC
    assert parse_ontology("A sub exists r- . B").logic == ALCI
    assert parse_ontology("A sub atmost 1 r B").logic == ALCQ
    with pytest.raises(InputError):
        parse_ontology("logic: alc\nA sub exists r- . B")


def test_parse_concept_constructs():
    o = parse_ontology("not A sub (B and (C or top))\n"
                       "forall r . A sub exists s . bot")
    assert len(o.inclusions) == 2


def test_atleast_parses_and_round_trips():
    o = parse_ontology("A sub atleast 2 r (B and not C)")
    assert o.logic == ALCQ
    (_, rhs), = o.inclusions
    assert isinstance(rhs, AtLeast) and rhs.bound == 2
    assert rhs.role == Role("r")
    assert parse_ontology(serialize_ontology(o)) == o


def test_bare_atleast_is_not_a_concept_name():
    with pytest.raises(InputError) as err:
        parse_ontology("atleast sub B")
    assert "expected a number" in str(err.value)
    with pytest.raises(InputError):
        parse_abox("atleast(a)")


def test_concept_nesting_is_capped():
    ok = "A sub " + "not " * (MAX_CONCEPT_DEPTH - 1) + "B"
    assert len(parse_ontology(ok).inclusions) == 1
    with pytest.raises(InputError) as err:
        parse_ontology("A sub " + "not " * MAX_CONCEPT_DEPTH + "B")
    assert "line 1, column" in str(err.value)


def test_ontology_depth_cap_matches_the_parser():
    def nested(levels):
        c = Name("B")
        for _ in range(levels - 1):
            c = Not(c)
        return c

    ok = nested(MAX_CONCEPT_DEPTH)
    text = "A sub " + "not " * (MAX_CONCEPT_DEPTH - 1) + "B"
    assert parse_ontology(text) == ontology([(Name("A"), ok)], ALC)
    with pytest.raises(InputError, match="nested deeper"):
        parse_ontology("A sub not " + text[len("A sub "):])
    with pytest.raises(InputError, match="nested deeper"):
        ontology([(Name("A"), Not(ok))], ALC)
    # a shared node is as deep wherever it occurs
    with pytest.raises(InputError, match="nested deeper"):
        ontology([(Name("A"), ok), (And(Top(), ok), Bottom())], ALC)


@st.composite
def random_ontologies(draw):
    """Ontologies of each logic, over every concept constructor it allows."""
    logic = draw(st.sampled_from([ALC, ALCI, ALCQ]))
    roles = st.builds(Role, st.sampled_from(["r", "s"]),
                      st.booleans() if logic == ALCI else st.just(False))
    counted = (AtMost, AtLeast) if logic == ALCQ else ()
    base = st.one_of(st.just(Top()), st.just(Bottom()),
                     st.builds(Name, st.sampled_from(["A", "B", "C"])))
    concepts = st.recursive(base, lambda inner: st.one_of(
        st.builds(Not, inner), st.builds(And, inner, inner),
        st.builds(Or, inner, inner), st.builds(Exists, roles, inner),
        st.builds(Forall, roles, inner),
        *[st.builds(k, st.integers(0, 3), roles, inner) for k in counted]),
        max_leaves=6)
    return ontology(draw(st.lists(st.tuples(concepts, concepts),
                                  max_size=4)), logic)


@settings(max_examples=200, deadline=None)
@given(random_ontologies())
def test_parse_serialize_is_the_identity_on_ontologies(o):
    assert parse_ontology(serialize_ontology(o)) == o


@st.composite
def random_cqs(draw, individuals, with_variables=True):
    """A conjunctive query with at least one atom over the individuals and,
    if allowed, the variables x and y."""
    terms = sorted(individuals) + (["x", "y"] if with_variables else [])
    term = st.sampled_from(terms)
    concepts = draw(st.sets(st.tuples(st.sampled_from("AB"), term),
                            max_size=2))
    roles = draw(st.sets(st.tuples(st.sampled_from("rs"), term, term),
                         max_size=2))
    if not concepts and not roles:
        concepts = {("A", draw(term))}
    used = {t for _, t in concepts} | {t for _, u, v in roles for t in (u, v)}
    return cq(concepts, roles, used & {"x", "y"})


def random_ucqs(individuals):
    return st.builds(lambda ds: UCQ(tuple(ds)),
                     st.lists(random_cqs(individuals), min_size=1,
                              max_size=3))


@st.composite
def random_examples(draw, mode):
    """An example whose ABox is over a and b and whose query fits the mode
    and mentions only individuals of the ABox."""
    concepts = draw(st.sets(st.tuples(st.sampled_from("AB"),
                                      st.sampled_from("ab")),
                            min_size=0 if mode == UCQ_MODE else 1,
                            max_size=3))
    roles = draw(st.sets(st.tuples(st.sampled_from("rs"),
                                   st.sampled_from("ab"),
                                   st.sampled_from("ab")), max_size=2))
    a = abox(concepts, roles)
    inds = a.individuals
    if mode == CONSISTENCY:
        q = None
    elif mode == AQ:
        q = aq_query(draw(st.sampled_from("AB")),
                     draw(st.sampled_from(sorted(inds))))
    elif mode == FULLCQ:
        q = ucq(draw(random_cqs(inds, with_variables=False)))
    else:
        q = draw(random_ucqs(inds))
    return Example(a, q)


@st.composite
def random_collections(draw):
    mode = draw(st.sampled_from([CONSISTENCY, AQ, FULLCQ, UCQ_MODE]))
    logic = draw(st.sampled_from([ALC, ALCI, ALCQ]))
    examples = st.lists(random_examples(mode), max_size=2)
    return collection(draw(examples), draw(examples), mode, logic)


@settings(max_examples=200, deadline=None)
@given(random_collections())
def test_parse_serialize_is_the_identity_on_collections(e):
    assert parse_collection(serialize_collection(e)) == e


@settings(max_examples=200, deadline=None)
@given(random_ucqs("ab"))
def test_parse_is_the_inverse_of_query_text(q):
    assert parse_query(query_text(q)) == q


def test_synthesized_ontologies_over_many_individuals_parse_back():
    # 202 individuals: a left-nested covering axiom would be 202 levels deep
    positives = [Example(abox(roles=[("r", f"a{i}", f"b{i}"),
                                     ("r", f"b{i}", f"a{i}")]), None)
                 for i in range(101)]
    negative = Example(abox(roles=[("r", "z", "z")]), None)
    verdict = decide_consistency_fitting(
        collection(positives, [negative], CONSISTENCY, ALC))
    o = verdict.ontology
    assert verdict.fitting_exists
    assert parse_ontology(serialize_ontology(o)) == o


def test_parse_errors_carry_line_and_column():
    with pytest.raises(InputError) as err:
        parse_collection("mode: aq\nlogic: alc\n\npositive {\n  abox: A(a\n}")
    assert "line 5" in str(err.value) or "line 6" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_ontology("A sub\nB sub C")
    assert "line" in str(err.value) and "column" in str(err.value)
    with pytest.raises(InputError):
        parse_collection("logic: alc\n\npositive { abox: A(a) }")  # no mode


def test_parse_rejects_ill_formed_collections():
    # query individual not in the ABox
    bad = "mode: aq\nlogic: alc\n\npositive {\n  abox: A(a)\n  query: B(b)\n}"
    with pytest.raises(InputError):
        parse_collection(bad)
    # non-atomic query in aq mode
    bad2 = ("mode: aq\nlogic: alc\n\npositive {\n  abox: r(a,b)\n"
            "  query: exists x . r(a,x)\n}")
    with pytest.raises(InputError):
        parse_collection(bad2)
    # consistency examples take no query
    bad3 = ("mode: consistency\nlogic: alc\n\npositive {\n  abox: A(a)\n"
            "  query: A(a)\n}")
    with pytest.raises(InputError):
        parse_collection(bad3)


def test_parse_abox_and_query():
    a = parse_abox("A(a); r(a,b)  # trailing comment")
    assert a.concept_assertions == frozenset({("A", "a")})
    assert a.role_assertions == frozenset({("r", "a", "b")})
    q = parse_query("exists x . B(x) & r(a,x) | C(a)")
    assert len(q.disjuncts) == 2


def test_verify_fit_bibliography_trio():
    e = bibliography_collection()
    o_full, o_bottom, o_augmented = bibliography_ontologies()
    assert verify_fit(o_full, e).fits
    assert verify_fit(o_bottom, e).fits
    assert verify_fit(o_augmented, e).fits
    extended = bibliography_collection(extended=True)
    assert verify_fit(o_full, extended).fits
    assert not verify_fit(o_bottom, extended).fits
    assert not verify_fit(o_augmented, extended).fits


def test_verify_fit_reports_per_example_statuses():
    extended = bibliography_collection(extended=True)
    _, o_bottom, _ = bibliography_ontologies()
    report = verify_fit(o_bottom, extended)
    statuses = [r.status for r in report.results]
    assert statuses.count("fail") >= 1
    assert report.verdict.outcome == "no-fitting"


def test_verify_fit_expressive_power_fixtures():
    e = FIXTURE_COLLECTIONS["expressive_power_aq"]()
    o = fixture_ontologies()
    assert verify_fit(o["o_b1"], e).fits
    assert not verify_fit(o["o_b2"], e).fits


def test_verify_fit_rejects_incompatible_logic():
    e = bibliography_collection()
    o = ontology([(Name("A"), Exists(Role("r", True), Name("B")))], ALCI)
    with pytest.raises(InputError):
        verify_fit(o, e)  # collection logic is ALC
    counting = ontology([(Name("A"), AtMost(1, Role("r"), Top()))], ALCQ)
    with pytest.raises(InputError):
        verify_fit(counting, e)


def test_verify_fit_builds_one_type_system_per_ontology(monkeypatch):
    # the examples use different names, none of them in the ontology, yet
    # every check shares one type system
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    o = ontology([(Name("A"), Name("B"))], ALC)
    e = collection(
        [Example(abox(concepts=[("A", "a"), ("C", "a")]), aq_query("B", "a")),
         Example(abox(concepts=[("D", "b")]), aq_query("D", "b"))],
        [Example(abox(concepts=[("E", "c")]), aq_query("B", "c"),
                 "negative")],
        AQ, ALC)
    assert verify_fit(o, e).fits
    assert list(semantics._TYPE_SYSTEM_CACHE) == [(o, ALC)]


def tiny_entailment_instance():
    a = abox(concepts=[("A", "a")])
    o = ontology([(Name("A"), Exists(Role("r"), Name("B")))], ALCI)
    q = ucq(cq(roles=[("r", "x", "y")], concepts=[("B", "y")],
               variables=["x", "y"]))
    return a, o, q


def test_generate_from_entailment_shape():
    a, o, q = tiny_entailment_instance()
    e = generate_from_entailment(a, o, q)
    relevant = 2  # A and B
    n_cis = len(normalize_ontology(o).inclusions)
    assert len(e.positives) == 4 * relevant + n_cis + 3
    assert len(e.negatives) == 1
    assert e.mode == "ucq" and e.logic == ALCI
    text = serialize_collection(e)
    assert parse_collection(text) == e
    preprocess_collection(e)  # must be well-formed for the ucq pipeline


def test_generate_from_entailment_input_checks():
    a, o, q = tiny_entailment_instance()
    with pytest.raises(InputError):
        generate_from_entailment(abox(), o, q)
    alcq = ontology([(Name("A"), Exists(Role("r"), Name("B")))], ALCQ)
    with pytest.raises(InputError):
        generate_from_entailment(a, alcq, q)


# --- command-line interface -------------------------------------------------

def test_cli_fit_exit_codes_and_determinism(capsys):
    assert main(["fit", str(FIXTURES / "edge_loop.ex")]) == 0
    first = capsys.readouterr().out
    assert "verdict: fitting-exists" in first
    assert "ontology:" in first
    assert main(["fit", str(FIXTURES / "edge_loop.ex")]) == 0
    assert capsys.readouterr().out == first
    assert main(["fit", str(FIXTURES / "edge_loop_swapped.ex")]) == 1
    out = capsys.readouterr().out
    assert "verdict: no-fitting" in out and "certificate" in out


def test_cli_fit_alcq_mode_override(capsys):
    assert main(["fit", str(FIXTURES / "alcq.ex")]) == 0
    out = capsys.readouterr().out
    assert "atmost" in out
    assert main(["fit", str(FIXTURES / "alcq.ex"), "--mode", "consistency",
                 "--logic", "alc"]) == 1
    capsys.readouterr()


def test_cli_fit_ucq_bounds(capsys):
    assert main(["fit", str(FIXTURES / "inverse_cycles.ex"),
                 "--depth-unit", "2", "--degree", "2"]) == 0
    capsys.readouterr()
    assert main(["fit", str(FIXTURES / "inverse_cycles_alc.ex"),
                 "--depth-unit", "2", "--degree", "2"]) == 2
    capsys.readouterr()


def test_cli_fit_aq_no_fitting_certificate(capsys):
    assert main(["fit", str(FIXTURES / "ex_aq.ex")]) == 1
    out = capsys.readouterr().out
    assert "saturation adds" in out
    assert main(["fit", str(FIXTURES / "ex_aq_drop_n1.ex")]) == 0
    capsys.readouterr()


def test_cli_verify(capsys):
    assert main(["verify", "--ontology", str(FIXTURES / "bib_full.dl"),
                 str(FIXTURES / "bib_extended.ex")]) == 0
    out = capsys.readouterr().out
    assert "verdict: fits" in out
    assert main(["verify", "--ontology", str(FIXTURES / "bib_bottom.dl"),
                 str(FIXTURES / "bib_extended.ex")]) == 1
    out = capsys.readouterr().out
    assert "verdict: does-not-fit" in out
    assert "example 4 (negative): fail" in out


def test_cli_verify_against_the_inconsistent_ontology(tmp_path, capsys):
    # top sub bot makes every ABox inconsistent, even one with no concept
    # names, so it fits a lone negative consistency example
    ex = tmp_path / "loop.ex"
    ex.write_text("mode: consistency\nlogic: alc\n\n"
                  "negative {\n  abox: r(b,b)\n}\n")
    assert main(["verify", "--ontology", str(FIXTURES / "bib_bottom.dl"),
                 str(ex)]) == 0
    assert "verdict: fits" in capsys.readouterr().out


def test_cli_type_enumeration_cap_is_unknown(tmp_path, capsys):
    # 199 nested existentials: under the nesting cap, but 2^201 candidate
    # types
    deep = tmp_path / "deep.dl"
    deep.write_text("A sub " + "exists r . " * 199 + "B\n")
    assert main(["verify", "--ontology", str(deep),
                 str(FIXTURES / "edge_loop.ex")]) == 2
    out = capsys.readouterr().out
    assert "example 1 (positive): unknown (type enumeration cap)" in out
    assert "verdict: unknown" in out
    ab = tmp_path / "a.abox"
    ab.write_text("A(a)")
    assert main(["entail", "--abox", str(ab), "--ontology", str(deep),
                 "--query", "B(a)"]) == 2
    assert capsys.readouterr().out.strip() == "unknown"


def test_verify_fit_at_the_type_elimination_cap_is_unknown(monkeypatch):
    monkeypatch.setattr(semantics, "MAX_ELIMINATION_STEPS", 0)
    monkeypatch.setattr(semantics, "_TYPE_SYSTEM_CACHE", {})
    o = ontology([(Name("A"), Exists(Role("r"), Name("A")))], ALC)
    pos = Example(abox(concepts=[("A", "a")]), None)
    report = verify_fit(o, collection([pos], [], CONSISTENCY, ALC))
    assert report.verdict.outcome == UNKNOWN
    assert report.results[0].detail == "type elimination cap"


def test_verify_fit_at_the_alcq_labeling_cap_is_unknown():
    # 21 free (name, individual) slots, so the ALCQ check runs out of
    # labelings before it can refute the positive example
    o = ontology([(Top(), AtMost(1, Role("r"), Top())),
                  (Name("C"), Bottom())], ALCQ)
    pos = Example(abox(concepts=[("B0", "x0"), ("B1", "x1"), ("B2", "x2")],
                       roles=[("r", "x0", "y0"), ("r", "x0", "y1"),
                              ("r", "x0", "y2")]), None)
    report = verify_fit(o, collection([pos], [], CONSISTENCY, ALCQ))
    assert report.verdict.outcome == UNKNOWN
    assert report.results[0].status == "unknown"
    assert report.results[0].detail == "alcq labeling cap"


def test_cli_internal_error_exits_4(monkeypatch, capsys):
    def broken(e):
        raise InternalVerificationError("synthesized ontology fails")

    monkeypatch.setattr(cli, "decide_consistency_fitting", broken)
    assert main(["fit", str(FIXTURES / "edge_loop.ex")]) == EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    assert "Traceback" in captured.err
    assert "InternalVerificationError: synthesized ontology fails" \
        in captured.err


def test_cli_entail(tmp_path, capsys):
    ab = tmp_path / "a.abox"
    ab.write_text("Publication(b); authorOf(a,b)")
    assert main(["entail", "--abox", str(ab),
                 "--ontology", str(FIXTURES / "bib_full.dl"),
                 "--query", "Author(a)"]) == 0
    assert capsys.readouterr().out.strip() == "entailed"
    assert main(["entail", "--abox", str(ab),
                 "--ontology", str(FIXTURES / "bib_full.dl"),
                 "--query", "Reviewer(a)"]) == 1
    assert capsys.readouterr().out.strip() == "not-entailed"


def test_cli_generate_round_trips(tmp_path, capsys):
    ab = tmp_path / "a.abox"
    ab.write_text("A(a)")
    on = tmp_path / "o.dl"
    on.write_text("logic: alci\nA sub exists r . B\n")
    out_path = tmp_path / "gen.ex"
    assert main(["generate", "--abox", str(ab), "--ontology", str(on),
                 "--query", "exists x,y . r(x,y) & B(y)",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    e = parse_collection(out_path.read_text())
    assert len(e.negatives) == 1


def test_cli_input_errors_exit_3(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "missing.ex")]) == 3
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.ex"
    bad.write_text("mode: aq\nlogic: alc\n\npositive {\n  abox: A(a\n}\n")
    assert main(["fit", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "line" in err


def test_cli_deeply_nested_concept_exits_3(tmp_path, capsys):
    deep = tmp_path / "deep.dl"
    deep.write_text("A sub " + "not " * 3000 + "B\n")
    assert main(["verify", "--ontology", str(deep),
                 str(FIXTURES / "edge_loop.ex")]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "nested deeper" in err
