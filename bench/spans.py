"""Span recording for the traced run, installed from outside the package.

``Tracer.install`` wraps each layer's public functions and patches the
wrapper under every name the package's modules hold the function by
(``monoidlab.rees.from_table``, ``monoidlab.cli.check_table``, the
package namespace, ...) for the length of one traced op.  A span is
``[name, start, end, parent]``; spans stay in memory and are written out
once, at the end of the run.  Untraced runs find no wrapper installed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# layer -> (module, public functions traced in it)
LAYERS = {
    "words": ("words", (
        "parse_word", "factors", "depth_map", "generate_wn", "alphabet_profile",
        "delete_letter", "occurrence_positions", "is_square_free", "length2_profile",
        "min_nonlinear_simplefree_factor",
    )),
    "rees": ("rees", ("rees_quotient", "quotient_map", "parse_word_set")),
    "monoid": ("monoid", ("from_table", "from_presentation", "preset", "multiply")),
    "identities.table": ("identities", ("check_table", "evaluate")),
    "identities.match": ("identities", ("check_rees", "match_pattern", "scan_matches")),
    "identities.other": ("identities", (
        "parse_identity", "basis", "separation_identity", "check_star_property",
        "check_no_div_instance",
    )),
    "verify": ("verify", (
        "run_claims", "cross_check_checkers", "enumerate_small_rees",
        "random_no_div_instance", "random_identity", "substitution_to_dict",
    )),
    "cli": ("cli", ("main",)),
}

ROOT = "bench.op"   # one root span per timed operation; its self time is the harness's


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.evaluations: dict[str, int] = defaultdict(int)
        self.elements = 0
        self.enum_matches = 0
        self.rees_inputs: dict[tuple[str, str], tuple] = {}

    # -- recording

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def op(self, call):
        """Run one operation under a root span."""
        span = self._enter(ROOT)
        try:
            return call()
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn):
        tracer = self
        after = getattr(self, "_after_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name.endswith(".scan_matches"):
                args, kwargs = tracer._count_stream(args, kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters read from arguments and results, outside the spans

    def _after_check_table(self, args, outcome) -> None:
        self.evaluations["check_table"] += outcome.evaluations

    def _after_check_rees(self, args, outcome) -> None:
        self.evaluations["check_rees"] += outcome.evaluations
        word_set, ident = args[0], args[1]
        self.rees_inputs.setdefault((str(word_set), str(ident)), (word_set, ident))

    def _after_match_pattern(self, args, subs) -> None:
        self.enum_matches += len(subs)

    def _after_rees_quotient(self, args, quotient) -> None:
        self.elements += quotient.order

    def _count_stream(self, args, kwargs):
        def counted(sub, _inner=(args[2] if len(args) > 2 else kwargs["on_match"])):
            self.enum_matches += 1
            return _inner(sub)

        if len(args) > 2:
            return args[:2] + (counted,) + args[3:], kwargs
        return args, {**kwargs, "on_match": counted}

    # -- patching

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "monoidlab" or key.startswith("monoidlab.")]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules["monoidlab." + module]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def erasure_trivial_share(rees_inputs, budget: int) -> tuple[int, int]:
    """Stream every identity side that ``check_rees`` matched back through
    ``scan_matches`` and count the matches whose empty-image variables
    alone make the two sides equal as words.  Returns (trivial, total)."""
    import monoidlab as ml

    trivial = total = 0
    for word_set, ident in rees_inputs.values():
        lhs, rhs = ident.lhs.letters, ident.rhs.letters
        if set(lhs) != set(rhs) or lhs == rhs:
            continue  # check_rees streams no matches for these
        memo: dict[frozenset, bool] = {}

        def on_match(sub):
            nonlocal trivial, total
            erased = frozenset(var for var, image in sub.assignment if not image.letters)
            hit = memo.get(erased)
            if hit is None:
                hit = memo[erased] = (
                    [c for c in lhs if c not in erased] == [c for c in rhs if c not in erased]
                )
            total += 1
            trivial += hit

        for pattern in (ident.lhs, ident.rhs):
            for word in word_set:
                ml.scan_matches(pattern, word, on_match, erasing=True, budget=budget)
    return trivial, total
