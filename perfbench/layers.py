"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are named by module.  The README maps each metric to the end-to-end
metric it should move, and on which workload.
"""

from __future__ import annotations

from tracer import Tracer

# Span names whose self time is the constructor's own work: case dispatch,
# candidate filtering, splicing and list assembly.
CONSTRUCTOR_SPANS = ("constructor.build", "constructor.recursion", "constructor.chain", "constructor.loop")

UNITS = {
    "signed_perm.prefix_reversal.calls": "count",
    "bp_graph.subgraph_lift.calls": "count",
    "bp_graph.subgraph_lift.s": "s",
    "bp_graph.subgraph_embed.calls": "count",
    "bp_graph.cross_edges.calls": "count",
    "bp_graph.cross_edges.edges_listed": "count",
    "bp_graph.cross_edges.s": "s",
    "bp_graph.edge_dimension.calls": "count",
    "bp_graph.edge_dimension.s": "s",
    "constructor.bp3.lookups": "count",
    "constructor.bp3.searches": "count",
    "constructor.bp3.memo_hit_ratio": "ratio",
    "constructor.bp3.s": "s",
    "constructor.recursions": "count",
    "constructor.recursion.success_ratio": "ratio",
    "constructor.attempts": "count",
    "constructor.chain.calls": "count",
    "constructor.loop.calls": "count",
    "constructor.restrict_embed.s": "s",
    "constructor.check_output.s": "s",
    "constructor.build.self_s": "s",
    "constructor.trace.labels": "count",
    "oracle.verify.calls": "count",
    "oracle.verify.s": "s",
    "fault_model.validate.s": "s",
    "fuzz.sample.calls": "count",
    "cli.artifact.bytes": "count",
    "trace.overhead_ratio": "ratio",
}

# Timed layers that only some workloads reach; they are printed with the
# traced run's report but kept out of the metrics every workload must give.
REPORT_ONLY = {"fuzz.sample.s": "s", "cli.artifact_json.s": "s", "cli.verify.parse_s": "s"}


def instrument(tr: Tracer) -> list[str]:
    """Wrap the layers' functions; returns the ones the package lacks.

    A function that a later version of the package renames or removes is
    skipped, and its metrics read 0, rather than stopping the traced run.
    """
    import importlib

    missing: list[str] = []

    def wrap(kind, where, name=None, on_result=None):
        module, _, attr = where.rpartition(".")
        fn = getattr(importlib.import_module(f"burntpancake.{module}"), attr, None)
        if fn is None:
            missing.append(where)
        elif kind == "counted":
            tr.install(fn, tr.counted_leaf(name or where, fn))
        else:
            make = tr.timed_leaf if kind == "timed" else tr.span
            tr.install(fn, make(name or where, fn, on_result))

    def add(key, amount):
        tr.counts[key] += amount

    wrap("counted", "signed_perm.prefix_reversal")
    wrap("counted", "bp_graph.subgraph_embed")
    wrap("timed", "bp_graph.subgraph_lift")
    wrap("timed", "bp_graph.cross_edges", on_result=lambda r: add("bp_graph.cross_edges.edges_listed", len(r)))
    wrap("timed", "bp_graph.edge_dimension")
    wrap("span", "constructor._bp3_search_path", "constructor.bp3")
    wrap("span", "constructor._bp3_search_cycle", "constructor.bp3")
    wrap("span", "constructor._small_search", "constructor.bp3.search")
    for where in ("constructor._cycle", "constructor._path"):
        wrap("span", where, "constructor.recursion", lambda r: add("constructor.recursion.ok", r is not None))
    wrap("span", "constructor._chain", "constructor.chain")
    wrap("span", "constructor._loop", "constructor.loop")
    wrap("timed", "constructor._restrict_embed", "constructor.restrict_embed")
    wrap("span", "constructor._check_output", "constructor.check_output")
    for where in ("constructor.hamiltonian_cycle", "constructor.hamiltonian_path"):
        wrap("span", where, "constructor.build", lambda r: add("constructor.trace.labels", len(r.trace.labels())))
    wrap("span", "oracle.verify_cycle", "oracle.verify")
    wrap("span", "oracle.verify_path", "oracle.verify")
    wrap("span", "fault_model.validate")
    wrap("span", "fuzz.sample_fault_set", "fuzz.sample")
    wrap("span", "fuzz.sample_endpoints", "fuzz.sample")
    wrap("span", "cli._artifact_json", "cli.artifact_json", lambda r: add("cli.artifact.bytes", len(r.encode())))
    wrap("span", "cli.cmd_verify", "cli.verify")

    from burntpancake import constructor

    spend = getattr(getattr(constructor, "_Ctx", None), "spend", None)
    if spend is None:
        missing.append("constructor._Ctx.spend")
    else:

        def counted_spend(ctx):
            ok = spend(ctx)
            add("constructor.attempts", ok)
            return ok

        tr.install_method(constructor._Ctx, "spend", counted_spend)
    return missing


def metrics(tr: Tracer, overhead_ratio: float) -> tuple[dict, dict]:
    """(per-layer metrics every workload reports, report-only timings)."""
    calls, leaf_s, counts = tr.calls, tr.leaf_s, tr.counts
    self_s = tr.self_s()
    lookups = calls["constructor.bp3"]
    searches = calls["constructor.bp3.search"]
    recursions = calls["constructor.recursion"]
    values = {
        "signed_perm.prefix_reversal.calls": calls["signed_perm.prefix_reversal"],
        "bp_graph.subgraph_lift.calls": calls["bp_graph.subgraph_lift"],
        "bp_graph.subgraph_lift.s": leaf_s["bp_graph.subgraph_lift"],
        "bp_graph.subgraph_embed.calls": calls["bp_graph.subgraph_embed"],
        "bp_graph.cross_edges.calls": calls["bp_graph.cross_edges"],
        "bp_graph.cross_edges.edges_listed": counts["bp_graph.cross_edges.edges_listed"],
        "bp_graph.cross_edges.s": leaf_s["bp_graph.cross_edges"],
        "bp_graph.edge_dimension.calls": calls["bp_graph.edge_dimension"],
        "bp_graph.edge_dimension.s": leaf_s["bp_graph.edge_dimension"],
        "constructor.bp3.lookups": lookups,
        "constructor.bp3.searches": searches,
        "constructor.bp3.memo_hit_ratio": (lookups - searches) / lookups if lookups else 0.0,
        "constructor.bp3.s": tr.span_s("constructor.bp3"),
        "constructor.recursions": recursions,
        "constructor.recursion.success_ratio": counts["constructor.recursion.ok"] / recursions if recursions else 0.0,
        "constructor.attempts": counts["constructor.attempts"],
        "constructor.chain.calls": calls["constructor.chain"],
        "constructor.loop.calls": calls["constructor.loop"],
        "constructor.restrict_embed.s": leaf_s["constructor.restrict_embed"],
        "constructor.check_output.s": tr.span_s("constructor.check_output"),
        "constructor.build.self_s": sum(self_s[name] for name in CONSTRUCTOR_SPANS),
        "constructor.trace.labels": counts["constructor.trace.labels"],
        "oracle.verify.calls": calls["oracle.verify"],
        "oracle.verify.s": tr.span_s("oracle.verify"),
        "fault_model.validate.s": tr.span_s("fault_model.validate"),
        "fuzz.sample.calls": calls["fuzz.sample"],
        "cli.artifact.bytes": counts["cli.artifact.bytes"],
        "trace.overhead_ratio": overhead_ratio,
    }
    report_only = {
        "fuzz.sample.s": tr.span_s("fuzz.sample"),
        "cli.artifact_json.s": tr.span_s("cli.artifact_json"),
        "cli.verify.parse_s": self_s["cli.verify"],
    }
    return values, report_only
