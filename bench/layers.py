"""Per-layer spans, recorded from outside the program.

`install` wraps the public functions of the layers named in LAYERS, in
every dlfit module that bound them by import, and the methods of
`semantics.TypeSystem`.  Each call becomes a span (name, start, end, parent)
kept in memory; `metrics` derives call counts, self times and ratios from
the spans of one op.  `edge_ok` runs millions of times per op, so it is
counted, not spanned.
"""

import gzip
import sys
import time
from collections import Counter

# (module, attribute): span name.  "TypeSystem.x" names a method.
LAYERS = {
    ("cli", "main"): "cli.main",
    ("harness", "parse_collection"): "harness.parse",
    ("harness", "parse_ontology"): "harness.parse",
    ("harness", "parse_abox"): "harness.parse",
    ("harness", "parse_query"): "harness.parse",
    ("harness", "serialize_ontology"): "harness.serialize",
    ("harness", "serialize_collection"): "harness.serialize",
    ("harness", "verify_fit"): "harness.verify_fit",
    ("core", "preprocess_collection"): "core.preprocess",
    ("homs", "homomorphisms"): "homs.homomorphisms",
    ("homs", "target_view"): "homs.target_view",
    ("homs", "reachable_set"): "homs.reachable_set",
    ("semantics", "type_system"): "semantics.type_system",
    ("semantics", "TypeSystem.__init__"): "semantics.type_build",
    ("semantics", "TypeSystem.abox_assignment"): "semantics.abox_assignment",
    ("semantics", "check_consistency"): "semantics.check_consistency",
    ("semantics", "entails_ground"): "semantics.entails_ground",
    ("semantics", "entails_ucq_bounded"): "semantics.entails_bounded",
    ("semantics", "evaluate_query"): "semantics.evaluate_query",
    ("semantics", "is_model"): "semantics.is_model",
    ("flatfit", "decide_consistency_fitting"): "flatfit.decide",
    ("flatfit", "decide_alcq_fitting"): "flatfit.decide",
    ("flatfit", "decide_aq_fitting"): "flatfit.decide",
    ("flatfit", "decide_fullcq_fitting"): "flatfit.decide",
    ("flatfit", "saturate_refutation_candidate"): "flatfit.saturate",
    ("flatfit", "synthesize_csp_ontology"): "flatfit.synth",
    ("flatfit", "synthesize_fitting_ontology_flat"): "flatfit.synth",
    ("ucqfit", "decide_ucq_fitting"): "ucqfit.decide",
    ("ucqfit", "search_finite_witness"): "ucqfit.witness_search",
    ("ucqfit", "obligation_holds"): "ucqfit.obligation",
    ("ucqfit", "check_finite_witness"): "ucqfit.check_witness",
    ("ucqfit", "synthesize_vd_ontology"): "ucqfit.synth_vd",
}


def _outcome(name, args, result):
    """What a span records about its call's result."""
    if name in ("homs.homomorphisms", "semantics.evaluate_query",
                "ucqfit.obligation"):
        return bool(result)
    if name == "semantics.abox_assignment":
        return result is not None
    if name == "semantics.entails_bounded":
        return result.status
    if name == "semantics.type_build":
        ts = args[0]
        return (len(ts.types), len(ts.survivors))
    if name == "flatfit.saturate":
        return len(result.added)
    if name == "flatfit.synth":
        return len(result.inclusions)
    return None


class Recorder:
    """Spans and call counts of one op."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index, outcome]
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec[4] = type(err).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _outcome(name, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install():
    """Wrap every layer function; returns the Recorder that collects the
    spans.  Meant for a process that runs one op and exits.  A name the
    program no longer has is skipped, and its metrics read 0."""
    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("dlfit.") and m is not None]
    ts_class = getattr(sys.modules["dlfit.semantics"], "TypeSystem", None)
    for (module, attr), name in LAYERS.items():
        owner = sys.modules.get(f"dlfit.{module}")
        if attr.startswith("TypeSystem."):
            owner, attr = ts_class, attr.split(".", 1)[1]
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapped = rec.span(name, original)
        if owner is ts_class:
            setattr(ts_class, attr, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    if hasattr(ts_class, "edge_ok"):
        ts_class.edge_ok = rec.counter("semantics.edge_ok", ts_class.edge_ok)
    return rec


def _ratio(part, whole):
    return part / whole if whole else 0.0


def metrics(rec):
    """Counts (exact) and times in seconds for the per-layer table, from
    the spans of one op."""
    spans = rec.spans
    child_ns = [0] * len(spans)
    has_build = [False] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
            if s[0] == "semantics.type_build":
                has_build[s[3]] = True
    calls = Counter()
    total = Counter()  # inclusive ns, outermost span of each name only
    self_ns = Counter()
    true = Counter()
    out = Counter()
    for i, (name, start, end, parent, outcome) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
        if outcome is True:
            true[name] += 1
        if name == "semantics.type_system" and not has_build[i]:
            out["type_cache_hits"] += 1
        elif name == "semantics.type_build" and isinstance(outcome, tuple):
            out["types_enumerated"] += outcome[0]
            out["types_survived"] += outcome[1]
        elif name == "semantics.entails_bounded" and outcome == "unknown":
            out["entails_bounded_unknown"] += 1
        elif name == "flatfit.saturate" and isinstance(outcome, int):
            out["saturate_added"] += outcome
        elif name == "flatfit.synth" and isinstance(outcome, int):
            out["synth_axioms"] += outcome
        elif name == "ucqfit.witness_search" and outcome == "BoundsExceeded":
            out["witness_bound_hits"] += 1
        elif name == "semantics.entails_ground" and parent >= 0 and \
                spans[parent][0] == "flatfit.synth":
            out["reverify_ns"] += end - start

    def s(ns):
        return ns / 1e9

    return {
        "harness.parse_s": s(total["harness.parse"]),
        "harness.serialize_s": s(total["harness.serialize"]),
        "harness.verify_fit_s": s(total["harness.verify_fit"]),
        "core.preprocess_s": s(total["core.preprocess"]),
        "homs.homomorphisms_calls": calls["homs.homomorphisms"],
        "homs.homomorphisms_s": s(total["homs.homomorphisms"]),
        "homs.hom_found_ratio": (true["homs.homomorphisms"],
                                 calls["homs.homomorphisms"]),
        "homs.target_view_calls": calls["homs.target_view"],
        "homs.target_view_s": s(total["homs.target_view"]),
        "homs.reachable_set_calls": calls["homs.reachable_set"],
        "homs.reachable_set_s": s(total["homs.reachable_set"]),
        "semantics.type_system_calls": calls["semantics.type_system"],
        "semantics.types_built": calls["semantics.type_build"],
        "semantics.type_cache_hit_ratio": (out["type_cache_hits"],
                                           calls["semantics.type_system"]),
        "semantics.types_enumerated": out["types_enumerated"],
        "semantics.types_survived": out["types_survived"],
        "semantics.type_build_s": s(total["semantics.type_build"]),
        "semantics.abox_assignment_calls":
            calls["semantics.abox_assignment"],
        "semantics.abox_assignment_s": s(total["semantics.abox_assignment"]),
        "semantics.assignment_found_ratio": (
            true["semantics.abox_assignment"],
            calls["semantics.abox_assignment"]),
        "semantics.edge_ok_calls": rec.counts["semantics.edge_ok"],
        "semantics.check_consistency_s":
            s(total["semantics.check_consistency"]),
        "semantics.entails_ground_calls": calls["semantics.entails_ground"],
        "semantics.entails_bounded_calls": calls["semantics.entails_bounded"],
        "semantics.entails_bounded_s": s(self_ns["semantics.entails_bounded"]),
        "semantics.entails_bounded_unknown": out["entails_bounded_unknown"],
        "semantics.evaluate_query_calls": calls["semantics.evaluate_query"],
        "semantics.evaluate_query_s": s(total["semantics.evaluate_query"]),
        "semantics.query_match_ratio": (true["semantics.evaluate_query"],
                                        calls["semantics.evaluate_query"]),
        "semantics.is_model_s": s(total["semantics.is_model"]),
        "flatfit.decide_s": s(total["flatfit.decide"]),
        "flatfit.saturate_s": s(total["flatfit.saturate"]),
        "flatfit.saturate_added": out["saturate_added"],
        "flatfit.synth_s": s(self_ns["flatfit.synth"]),
        "flatfit.synth_axioms": out["synth_axioms"],
        "flatfit.reverify_s": s(out["reverify_ns"]),
        "ucqfit.decide_s": s(self_ns["ucqfit.decide"]),
        "ucqfit.witness_search_s": s(total["ucqfit.witness_search"]),
        "ucqfit.witness_bound_hits": out["witness_bound_hits"],
        "ucqfit.obligation_calls": calls["ucqfit.obligation"],
        "ucqfit.obligation_true_ratio": (true["ucqfit.obligation"],
                                         calls["ucqfit.obligation"]),
        "ucqfit.check_witness_s": s(total["ucqfit.check_witness"]),
        "ucqfit.synth_vd_s": s(total["ucqfit.synth_vd"]),
        "cli.main_s": s(self_ns["cli.main"]),
    }


def combine(per_op):
    """Sum per-op metrics over a pass; ratios are summed as (part, whole)
    and divided at the end, so they weigh every call equally."""
    acc = {}
    for m in per_op:
        for key, v in m.items():
            if isinstance(v, (list, tuple)):
                old = acc.get(key, (0, 0))
                acc[key] = (old[0] + v[0], old[1] + v[1])
            else:
                acc[key] = acc.get(key, 0) + v
    return {k: _ratio(*v) if isinstance(v, tuple) else v
            for k, v in acc.items()}


def write_spans(rec, op_id, f):
    """Append one op's spans to an open binary file as one gzip member of
    text lines: op, span index, parent index, name, start ns, end ns."""
    text = "".join(f"{op_id}\t{i}\t{s[3]}\t{s[0]}\t{s[1]}\t{s[2]}\n"
                   for i, s in enumerate(rec.spans))
    f.write(gzip.compress(text.encode(), compresslevel=1))
    f.flush()
