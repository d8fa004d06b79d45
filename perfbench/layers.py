"""Spans around the public functions of each buckdens module.

The benchmark records the per-layer numbers from its own files: ``install``
replaces each traced function with a wrapper that records a span (name,
parent, start, end, work counters).  Modules that bound a function with
``from ... import`` keep their own reference, so the wrapper is installed
under every name in every ``buckdens`` module that refers to the original
object; the lookup the caller makes then lands on the wrapper.

Spans stay in memory; ``summarize`` folds them into per-layer sums with self
times (span duration minus the durations of its direct children).  Work
counters are computed from arguments and results, never from timing.
"""

from __future__ import annotations

import functools
import sys
import time

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _result_len(args, kwargs, result):
    return (len(result),)


_ORACLE_CLASSES = ("PrimesOracle", "FactorialsOracle", "PerfectPowersOracle",
                   "FiniteOracle")

# (module, attribute or Class.method, span name, work counter or None).
# A counter maps (args, kwargs, result) to a tuple added into the span.
_TARGETS = (
    ("oracles", "CoverOracle.cover_cached", "oracles.cover_cached", None),
    *(("oracles", f"{cls}.{meth}", f"oracles.{meth}", _result_len)
      for cls in _ORACLE_CLASSES for meth in ("cover", "enumerate")),
    ("sets", "sumset_mod", "sets.sumset_mod", lambda a, k, r: (_arg(a, k, 0, "p").modulus,)),
    ("sets", "rebase", "sets.rebase", None),
    # (k_chosen + 1, m + 1): chosen candidates over candidates evaluated
    ("construction", "step", "construction.step", lambda a, k, r: (r.k_chosen + 1, r.n)),
    ("construction", "check_claimA", "construction.check_claimA", None),
    ("construction", "tower_to_json", "construction.json", _result_len),
    ("construction", "tower_from_json", "construction.json",
     lambda a, k, r: (len(_arg(a, k, 0, "text")),)),
    ("construction", "count_A", "construction.count_A", None),
    ("verify", "sumset_window", "verify.sumset_window",
     lambda a, k, r: (_arg(a, k, 2, "horizon") + 1,)),
    ("verify", "a_window", "verify.a_window", None),
    ("verify", "theorem_report", "verify.theorem_report", None),
    ("verify", "cross_density_check", "verify.cross_density_check", None),
    ("density", "empirical_asymptotic", "density.proxies",
     lambda a, k, r: (_arg(a, k, 1, "horizon"),)),
    ("density", "empirical_banach", "density.proxies",
     lambda a, k, r: (_arg(a, k, 2, "horizon"),)),
    ("density", "empirical_logarithmic", "density.proxies",
     lambda a, k, r: (_arg(a, k, 1, "horizon"),)),
    ("density", "axiom_suite", "density.axiom_suite", None),
)


class Tracer:
    """In-memory span list for one process, one thread."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, work tuple]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, ()]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every traced buckdens function; returns the recording tracer."""
    import buckdens.cli  # noqa: F401  (loads every module whose bindings get wrapped)

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if n == "buckdens" or n.startswith("buckdens.")]
    for mod_name, attr, span_name, counter in _TARGETS:
        owner = sys.modules[f"buckdens.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], span_name, counter))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span_name, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer


def summarize(spans) -> dict:
    """Per span name: [self seconds, calls, work sums..., calls with no child].

    The last entry lets ``cover_cached`` count hits: a call that found its
    modulus in the cache made no ``cover`` call beneath it.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    out: dict[str, list] = {}
    for i, (name, _, start, end, work) in enumerate(spans):
        row = out.setdefault(name, [0.0, 0, 0, 0, 0])
        row[0] += (end - start) - child_time[i]
        row[1] += 1
        for j, w in enumerate(work):
            row[2 + j] += w
        row[4] += not has_child[i]
    return out


def merge(into: dict, summary: dict) -> dict:
    for name, row in summary.items():
        acc = into.setdefault(name, [0.0, 0, 0, 0, 0])
        for j, v in enumerate(row):
            acc[j] += v
    return into


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one job; layers the job never
    called read 0."""
    def row(name):
        return summary.get(name, [0.0, 0, 0, 0, 0])

    cover, cached, enum = row("oracles.cover"), row("oracles.cover_cached"), \
        row("oracles.enumerate")
    sumset, step, js = row("sets.sumset_mod"), row("construction.step"), \
        row("construction.json")
    window, proxies = row("verify.sumset_window"), row("density.proxies")
    return {
        "oracles.cover.s": cover[0],
        "oracles.cover.calls": cover[1],
        "oracles.cover.residues": cover[2],
        "oracles.cover_cached.hit_ratio": _ratio(cached[4], cached[1]),
        "oracles.enumerate.s": enum[0],
        "oracles.enumerate.members": enum[2],
        "sets.sumset_mod.s": sumset[0],
        "sets.sumset_mod.calls": sumset[1],
        "sets.sumset_mod.modulus_sum": sumset[2],
        "sets.rebase.s": row("sets.rebase")[0],
        "construction.step.s": step[0],
        "construction.step.calls": step[1],
        "construction.step.candidate_use_ratio": _ratio(step[2], step[3]),
        "construction.check_claimA.s": row("construction.check_claimA")[0],
        "construction.json.s": js[0],
        "construction.json.bytes": js[2],
        "construction.count_A.s": row("construction.count_A")[0],
        "verify.sumset_window.s": window[0],
        "verify.sumset_window.calls": window[1],
        "verify.sumset_window.len_sum": window[2],
        "verify.a_window.s": row("verify.a_window")[0],
        "verify.theorem_report.s": row("verify.theorem_report")[0],
        "verify.cross_density_check.s": row("verify.cross_density_check")[0],
        "density.proxies.s": proxies[0],
        "density.proxies.len_sum": proxies[2],
        "density.axiom_suite.s": row("density.axiom_suite")[0],
    }


# per-layer metrics of a traced run that come from spans, in BENCHMARK.json order
SPAN_METRICS = tuple(layer_metrics({}))
