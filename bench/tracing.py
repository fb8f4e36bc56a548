"""Per-layer spans and counters, recorded from outside the posslog package.

The package has no hooks of its own, so the tracer replaces module
attributes with timing wrappers for the duration of a traced pass and puts
the originals back afterwards. A function must be wrapped at every module
whose globals it is looked up through: `compile_network` finds
`hidden_parent_closure`, `cpt_for`, `marginal_base`, `remove_subsumed` and
`inconsistency_degree` in `posslog.compiler`, while `certainty_degree` and
`possibility` find `inconsistency_degree` in `posslog.semantics`.

A span's self time is its duration minus the time covered by the spans it
encloses. A span is named `<layer>.<name>`; a layer's self time is the
sum over its spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from posslog import compiler, io, marginalize, model, normalize, oracle, semantics
from posslog.model import Literal

LAYERS = (
    "io",
    "normalize",
    "compiler",
    "marginalize",
    "semantics",
    "model",
    "network",
    "oracle",
)


def _closure_hook(tracer, args, result):
    _, var, seed = args
    tracer.counts["compiler.closure.hidden_parents"] += len(result) - len(
        set(seed) - {var}
    )


def _closure_context_hook(tracer, args, result):
    # The closure asks for both literals of the node in each parent context.
    if args[1].positive:
        tracer.counts["compiler.closure.contexts"] += 1


def _entails_hook(tracer, args, result):
    tracer.counts["normalize.subsumption_checks"] += 1
    tracer.counts["normalize.removed"] += bool(result)


def _marginal_hook(tracer, args, result):
    b, var = args
    keep_pos = keep_neg = 0
    for c, _ in b.entries:
        keep_pos += Literal(var, True) not in c
        keep_neg += Literal(var, False) not in c
    tracer.counts["marginalize.cross_clauses"] += keep_pos * keep_neg
    tracer.counts["marginalize.kept"] += len(result)


# (module, attribute, span name, hook run after the call returns)
SITES = (
    (io, "parse_base", "io.parse_base", None),
    (io, "serialize_network", "io.serialize_network", None),
    (io, "parse_network", "io.parse_network", None),
    (compiler, "compile_network", "compiler.compile_network", None),
    (compiler, "hidden_parent_closure", "compiler.closure", _closure_hook),
    (compiler, "cpt_for", "compiler.cpt", None),
    (compiler, "conditional_possibility", "compiler.conditional_possibility", None),
    (compiler, "to_clausal", "normalize.to_clausal", None),
    (compiler, "remove_tautologies", "normalize.remove_tautologies", None),
    (compiler, "remove_subsumed", "normalize.remove_subsumed", None),
    (compiler, "marginal_base", "marginalize.marginal_base", _marginal_hook),
    (compiler, "inconsistency_degree", "semantics.inconsistency_degree", None),
    (compiler, "certainty_degree", "semantics.certainty_degree", _closure_context_hook),
    (marginalize, "remove_tautologies", "normalize.remove_tautologies", None),
    (marginalize, "remove_subsumed", "normalize.remove_subsumed", None),
    (normalize, "entails", "semantics.entails", _entails_hook),
    (normalize, "cnf_clauses", "model.cnf_clauses", None),
    (semantics, "inconsistency_degree", "semantics.inconsistency_degree", None),
    (semantics, "certainty_degree", "semantics.certainty_degree", None),
    (semantics, "possibility", "semantics.possibility", None),
    (semantics, "necessity", "semantics.necessity", None),
    (semantics, "cnf_clauses", "model.cnf_clauses", None),
    (model.WeightedBase, "__init__", "model.weighted_base", None),
    (oracle, "verify_compilation", "oracle.verify_compilation", None),
    (oracle, "enumerate_distribution", "oracle.enumerate_distribution", None),
    (oracle, "network_distribution", "network.network_distribution", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SITES))


class Tracer:
    """Accumulates self time and call counts per span name, and the
    counters the hooks add, while installed."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        tracer = self
        children = self._children

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                own = perf_counter() - start
                tracer.self_s[name] += own - children.pop()
            if hook is not None:
                hook(tracer, args, result)
            # Hook time is charged to no span, so it lands in `other`.
            if children:
                children[-1] += perf_counter() - start
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
