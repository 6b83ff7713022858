"""Per-layer tracing from outside the program.

Spans are recorded around calls into each fedchain module's public functions
by replacing the function at the name the caller looks it up under (for
example ``fedchain.federation.local_update``, not ``fedchain.chain``'s own
binding).  Spans stay in memory until the run ends.  Each span has a name,
start, end, parent, and the part/round/client it ran in; a span's self time
is its duration minus its children's.  Backward is one span: per-op backward
timing would need a hook inside the program.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

# autodiff ops wrapped at the names fedchain.model and fedchain.chain bind
OPS = ("matmul", "gelu", "layer_norm", "softmax", "add", "bias_add", "mul", "reshape",
       "swap_last2", "softmax_cross_entropy", "mean")


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index, part, round, client)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.part = 0
        self.round = 0
        self.client = -1
        self._open: list[int] = []
        self._patched: list[tuple] = []
        self._lowest_changed = 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        spans, open_ = self.spans, self._open
        idx = len(spans)
        spans.append(None)
        where = (open_[-1] if open_ else -1, self.part, self.round, self.client)
        open_.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            open_.pop()
            spans[idx] = (name, t0, t1, *where)

    def patch(self, module_name: str, attr: str, name: str, before=None, after=None):
        """Replace module.attr by a spanned wrapper; hooks see bound arguments."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        call = self.call
        if before is None and after is None:
            def traced(*args, **kwargs):
                return call(name, original, *args, **kwargs)
        else:
            signature = inspect.signature(original)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                if before:
                    before(bound)
                result = call(name, original, *args, **kwargs)
                if after:
                    after(bound, result)
                return result
        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- hooks that turn call arguments into counts at the layer boundary --

    def install(self) -> None:
        c = self.counts

        def enter_round(a):
            self.round = a["round_idx"]

        def enter_client(a):
            seed = a["seed"]
            self.client = seed[-1] if isinstance(seed, (list, tuple)) else -1

        def leave_client(a, result):
            self.client = -1
            c["chain.rows_trained"] += a["steps"] * min(a["batch_size"], len(a["x"]))

        def forward_rows(a, result):
            rows = len(a["x"])
            upto = a.get("upto") or a["stack"].L
            prefix = len(result[1])
            c["model.prefix_layer_rows"] += prefix * rows
            c["model.window_layer_rows"] += (upto - prefix) * rows

        def aux_rows(a, result):
            c["model.aux_layer_rows"] += (a["stack"].L - a["from_layer"]) * a["hidden"].shape[0]

        def eval_rows(a, result):
            rows, depth = len(a["x"]), a["stack"].L
            c["model.eval_layer_rows"] += depth * rows
            c["model.eval_skippable_layer_rows"] += min(self._lowest_changed - 1, depth) * rows

        def aggregated(a, result):
            c["federation.aggregate_bytes"] += sum(arr.nbytes for d in a["deltas"]
                                                   for arr in d.values())
            layers = [int(k.split(".")[1]) for k in result
                      if k.startswith("layer.") and ".adapter." in k]
            self._lowest_changed = min(layers) if layers else a["stack"].L + 1

        def loaded(a, result):
            c["data.rows"] += len(result)

        def profiled(a, result):
            c["similarity.rows_profiled"] += len(a["batch"])

        def taped(a, result):
            c["tensor.tape_nodes"] += len(a["tape"])

        def saved(a, result):
            base = a["base"]
            c["checkpoint.bytes"] += (os.path.getsize(f"{base}.manifest")
                                      + os.path.getsize(f"{base}.blob"))

        p = self.patch
        p("fedchain.cli", "load_config", "config.parse")
        p("fedchain.cli", "run", "federation.run")
        p("fedchain.data", "load_dataset_from_config", "data.load", after=loaded)
        p("fedchain.federation", "build_stack", "model.build")
        p("fedchain.federation", "iid_partition", "federation.partition")
        p("fedchain.federation", "dirichlet_partition", "federation.partition")
        p("fedchain.federation", "profile_layers", "similarity.profile", after=profiled)
        p("fedchain.similarity", "cka", "similarity.cka")
        p("fedchain.federation", "sample_clients", "federation.sample", before=enter_round)
        p("fedchain.federation", "local_update", "chain.local_update",
          before=enter_client, after=leave_client)
        p("fedchain.federation", "aggregate", "federation.aggregate", after=aggregated)
        p("fedchain.federation", "evaluate_accuracy", "model.eval", after=eval_rows)
        p("fedchain.chain", "stage_loss", "chain.stage_loss")
        p("fedchain.chain", "_baseline_stage_loss", "chain.stage_loss")
        p("fedchain.chain", "forward_through", "model.forward_through", after=forward_rows)
        p("fedchain.chain", "aux_branch_forward", "model.aux_branch", after=aux_rows)
        p("fedchain.tensor", "backward", "tensor.backward", after=taped)
        p("fedchain.checkpoint", "save_checkpoint", "checkpoint.save", after=saved)
        for op in OPS:
            for module in ("fedchain.model", "fedchain.chain"):
                if hasattr(importlib.import_module(module), op):
                    p(module, op, f"tensor.op.{op}")

    # -- summaries --

    def self_times(self) -> list[int]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def rounds(self) -> list[dict]:
        """Per-round wall time split into updates, aggregation, eval and overhead.

        A round ends when its evaluate_accuracy returns; the first round of a
        part starts at that part's first local_update call.
        """
        per = defaultdict(lambda: {"updates": 0, "aggregate": 0, "eval": 0, "aux_calls": 0,
                                   "first": None, "end": None})
        kinds = {"chain.local_update": "updates", "federation.aggregate": "aggregate",
                 "model.eval": "eval"}
        for name, t0, t1, _, part, rnd, _ in self.spans:
            if name == "model.aux_branch":
                per[(part, rnd)]["aux_calls"] += 1
            kind = kinds.get(name)
            if kind is None:
                continue
            r = per[(part, rnd)]
            r[kind] += t1 - t0
            if kind == "updates" and r["first"] is None:
                r["first"] = t0
            if kind == "eval":
                r["end"] = t1
        out, prev_end = [], {}
        for (part, rnd) in sorted(per):
            r = per[(part, rnd)]
            start = prev_end.get(part, r["first"])
            prev_end[part] = r["end"]
            total = r["end"] - start
            overhead = total - r["updates"] - r["aggregate"] - r["eval"]
            out.append({"part": part, "round": rnd, "round_ns": total, "updates_ns": r["updates"],
                        "aggregate_ns": r["aggregate"], "eval_ns": r["eval"],
                        "overhead_ns": overhead, "aux_calls": r["aux_calls"]})
        return out

    def write(self, path, header: dict) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, t0, t1, parent, part, rnd, client) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "self_ns": own[i], "part": part,
                                     "round": rnd, "client": client}) + "\n")


def layer_metrics(tracer: Tracer, root: int) -> tuple[dict, list[dict]]:
    """Per-layer figures for one traced run, plus the consistency checks on them."""
    own = tracer.self_times()
    total, selfsum, calls = Counter(), Counter(), Counter()
    for i, (name, t0, t1, *_rest) in enumerate(tracer.spans):
        total[name] += t1 - t0
        selfsum[name] += own[i]
        calls[name] += 1
    c = tracer.counts
    s = lambda ns: ns / 1e9  # noqa: E731
    rounds = tracer.rounds()
    run_ns = tracer.spans[root][2] - tracer.spans[root][1]
    eval_rows = c["model.eval_layer_rows"]
    m = {
        "tensor.backward_s": s(total["tensor.backward"]),
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.tape_nodes_per_step": c["tensor.tape_nodes"] / max(calls["tensor.backward"], 1),
        "model.forward_through_s": s(total["model.forward_through"]),
        "model.prefix_layer_rows": c["model.prefix_layer_rows"],
        "model.window_layer_rows": c["model.window_layer_rows"],
        "model.aux_branch_s": s(total["model.aux_branch"]),
        "model.aux_branch_calls": calls["model.aux_branch"],
        "model.aux_layer_rows": c["model.aux_layer_rows"],
        "model.eval_s": s(total["model.eval"]),
        "model.eval_layer_rows": eval_rows,
        "model.eval_skippable_share": (c["model.eval_skippable_layer_rows"] / eval_rows
                                       if eval_rows else 0.0),
        "model.build_s": s(total["model.build"]),
        "data.load_s": s(total["data.load"]),
        "data.rows": c["data.rows"],
        "similarity.profile_s": s(total["similarity.profile"]),
        "similarity.profile_calls": calls["similarity.profile"],
        "similarity.cka_s": s(total["similarity.cka"]),
        "similarity.cka_calls": calls["similarity.cka"],
        "similarity.rows_profiled": c["similarity.rows_profiled"],
        "chain.local_update_s": s(total["chain.local_update"]),
        "chain.local_update_calls": calls["chain.local_update"],
        "chain.rows_trained": c["chain.rows_trained"],
        "chain.stage_loss_s": s(total["chain.stage_loss"]),
        "chain.steps": calls["chain.stage_loss"],
        "chain.sgd_apply_s": s(selfsum["chain.local_update"]),
        "federation.partition_s": s(total["federation.partition"]),
        "federation.sample_s": s(total["federation.sample"]),
        "federation.aggregate_s": s(total["federation.aggregate"]),
        "federation.aggregate_bytes": c["federation.aggregate_bytes"],
        "federation.round_overhead_s": s(sum(r["overhead_ns"] for r in rounds)),
        "federation.rounds_s": s(sum(r["round_ns"] for r in rounds)),
        "checkpoint.save_s": s(total["checkpoint.save"]),
        "checkpoint.load_s": s(total["checkpoint.load"]),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "config.parse_s": s(total["config.parse"]),
        "cli.main_s": s(total["cli.main"]),
        "trace.spans": len(tracer.spans),
        "trace.run_s": s(run_ns),
    }
    for op in OPS:
        m[f"tensor.op.{op}.s"] = s(total[f"tensor.op.{op}"])
        m[f"tensor.op.{op}.calls"] = calls[f"tensor.op.{op}"]

    roots = [i for i, sp in enumerate(tracer.spans) if sp[3] < 0]
    checks = [
        {"name": "trace.single_root", "ok": roots == [root], "detail": f"roots={roots[:5]}"},
        {"name": "trace.self_times_sum_to_run_s", "ok": sum(own) == run_ns and min(own) >= 0,
         "detail": f"sum(self)={sum(own)} ns, run={run_ns} ns, min(self)={min(own)} ns"},
        {"name": "trace.round_identity",
         "ok": bool(rounds) and all(
             r["overhead_ns"] >= 0 and r["updates_ns"] + r["aggregate_ns"] + r["eval_ns"]
             + r["overhead_ns"] == r["round_ns"] for r in rounds),
         "detail": f"{len(rounds)} rounds"},
    ]
    return m, checks
