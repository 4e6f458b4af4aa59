"""Spans around mrfsdp's public functions, recorded from outside the package.

A Tracer replaces each traced function in every module namespace that holds
it (the defining module, the modules that imported it, the mrfsdp package)
with a wrapper that records a span while an op is running.  Spans are kept in
memory as [name, start, end, parent, op, info] and written out at the end.
`restore` puts the original functions back.

Span names are "<module>.<function>"; `layer_metrics` turns spans into the
per-layer metrics: `_s` is self time (span minus its traced children),
summed per op.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SETUP_OP = "setup"

# (module, function, info): info(result) is stored with the span
TRACED = (
    ("mrfsdp.mrf", "generate_grid_instance", None),
    ("mrfsdp.mrf", "energy", None),
    ("mrfsdp.encode_zo", "encode_zo", None),
    ("mrfsdp.encode_pm", "encode_pm", None),
    ("mrfsdp.formats", "dumps_instance", len),
    ("mrfsdp.formats", "instance_from_doc", None),
    ("mrfsdp.formats", "instance_sha256", None),
    ("mrfsdp.formats", "dumps_result", None),
    ("mrfsdp.manifold", "project_tangent", None),
    ("mrfsdp.manifold", "retract", None),
    ("mrfsdp.staircase", "staircase_solve",
     lambda r: (len(r.rank_history), r.R_opt.shape[1])),
    ("mrfsdp.staircase", "tnt_minimize", lambda r: r[3]),
    ("mrfsdp.fuses", "fuses_solve", None),
    ("mrfsdp.fuses", "fuses_round", None),
    ("mrfsdp.dars", "dars_solve", lambda r: r.dual_iterations),
    ("mrfsdp.dars", "dars_round", None),
    ("mrfsdp.baselines", "brute_force", lambda r: r.states_enumerated),
    ("mrfsdp.baselines", "icm", None),
    # the benchmark's own json.loads + instance_from_doc step
    ("workloads", "load_instance_text", None),
)

# span name -> the layer metric its self time is charged to
SELF_METRIC = {
    "mrf.generate_grid_instance": "mrf.generate_s",
    "mrf.energy": "mrf.energy_s",
    "encode_zo.encode_zo": "encode_zo.encode_s",
    "encode_pm.encode_pm": "encode_pm.encode_s",
    "formats.dumps_instance": "formats.dump_s",
    "formats.dumps_result": "formats.dump_s",
    "formats.instance_from_doc": "formats.load_s",
    "workloads.load_instance_text": "formats.load_s",
    "formats.instance_sha256": "formats.hash_s",
    "manifold.project_tangent": "manifold.project_s",
    "manifold.retract": "manifold.retract_s",
    "staircase.tnt_minimize": "staircase.tnt_s",
    "fuses.fuses_solve": "fuses.self_s",
    "fuses.fuses_round": "fuses.round_s",
    "dars.dars_solve": "dars.self_s",
    "dars.dars_round": "dars.round_s",
    "baselines.icm": "baselines.icm_s",
    "baselines.brute_force": "baselines.brute_force_s",
}

# span name -> the layer metric that counts its calls
CALL_METRIC = {
    "manifold.project_tangent": "manifold.project_calls",
    "manifold.retract": "manifold.retract_calls",
    "staircase.staircase_solve": "staircase.solve_calls",
    "staircase.tnt_minimize": "staircase.tnt_calls",
}

# every per-layer metric, in report order; brute force runs only in set-up,
# so its two metrics are per set-up rather than per op
LAYER_METRICS = (
    "staircase.certify_s", "staircase.tnt_s", "staircase.tnt_calls",
    "staircase.tnt_iters", "staircase.solve_calls", "staircase.rank_steps",
    "staircase.final_rank",
    "manifold.project_calls", "manifold.project_s",
    "manifold.retract_calls", "manifold.retract_s",
    "dars.self_s", "dars.dual_iters", "dars.round_s",
    "fuses.self_s", "fuses.round_s",
    "encode_zo.encode_s", "encode_pm.encode_s",
    "mrf.generate_s", "mrf.energy_s",
    "formats.dump_s", "formats.load_s", "formats.hash_s", "formats.instance_bytes",
    "baselines.icm_s", "baselines.brute_force_s", "baselines.states",
)
SETUP_METRICS = ("baselines.brute_force_s", "baselines.states")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None          # id of the running op; None records nothing
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[5] = info(result)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function wherever mrfsdp or the benchmark's
        workloads module holds a reference to it."""
        namespaces = [m for n, m in sys.modules.items()
                      if n in ("mrfsdp", "workloads") or n.startswith("mrfsdp.")]
        for module_name, fn_name, info in TRACED:
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{fn_name}",
                                 original, info)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, handle)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, num_ops):
    """Per-layer metrics: op spans summed and divided by num_ops; the
    SETUP_METRICS come from the spans of the one traced set-up instead."""
    own = self_times(spans)
    buckets = {True: defaultdict(float), False: defaultdict(float)}
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        totals = buckets[op == SETUP_OP]
        if name in SELF_METRIC:
            totals[SELF_METRIC[name]] += own[i]
        if name in CALL_METRIC:
            totals[CALL_METRIC[name]] += 1
        # probe + rank test + escape + lift: staircase_solve outside TNT
        if name == "staircase.staircase_solve":
            totals["staircase.certify_s"] += end - start
        elif name == "staircase.tnt_minimize" and parent is not None \
                and spans[parent][0] == "staircase.staircase_solve":
            totals["staircase.certify_s"] -= end - start
        if info is None:
            continue  # a plain span, or a call that raised
        if name == "staircase.staircase_solve":
            totals["staircase.rank_steps"] += info[0]
            totals["staircase.final_rank"] += info[1]
        elif name == "staircase.tnt_minimize":
            totals["staircase.tnt_iters"] += info
        elif name == "dars.dars_solve":
            totals["dars.dual_iters"] += info
        elif name == "baselines.brute_force":
            totals["baselines.states"] += info
        elif name == "formats.dumps_instance":
            if parent is None or spans[parent][0] != "formats.instance_sha256":
                totals["formats.instance_bytes"] += info
    return {name: buckets[True][name] if name in SETUP_METRICS
            else buckets[False][name] / num_ops
            for name in LAYER_METRICS}
