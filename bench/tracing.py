"""Per-layer tracing of harmfrac from outside the package.

harmfrac's modules bind the names they import (``from .gammafn import
operator_weight``), so wrapping a function where it is defined misses most
of its calls.  ``Tracer`` wraps each public function once and installs the
wrapper under every name that any harmfrac module binds to the original.
It also wraps the methods that build and convert forms, and the CLI's
``json.dumps``.

Calls number around 10^6 in a run, so spans are aggregated as they end:
per span name, calls and self time (span time minus the time of its child
spans).  Wrappers record nothing while the tracer is inactive,
which keeps the benchmark's own checks out of the counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import SimpleNamespace

LAYERS = ("gammafn", "harmonic", "membership", "family", "verify", "cli")

# Span names other than "<layer>.<function>".
_RENAMED = {
    "harmonic.parse_coefficient_json": "harmonic.parse",
    "harmonic.coefficient_json": "harmonic.serialize",
}


class SpanStats:
    __slots__ = ("layer", "calls", "self_time", "errors")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_time = 0.0
        self.errors = 0  # exceptions that left the layer through this span


class Tracer:
    def __init__(self, hf):
        """Install wrappers on the freshly imported package ``hf``."""
        self.active = False
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [child time, layer] per open span
        self.requests = 0
        self.weight_keys: set = set()  # distinct weight arguments in this request
        self.useful_weights = 0
        self.term_evals = 0
        self.parse_bytes = 0
        self.cases_failed = 0
        self.exit_codes = {0: 0, 1: 0, 2: 0}
        self.stdout_bytes = 0
        self.output_bytes = 0
        self._install(hf)

    # -- installation -------------------------------------------------

    def _install(self, hf) -> None:
        hooks = {
            "membership.analytic_weight": (self._weight_call("a"), None),
            "membership.coanalytic_weight": (self._weight_call("b"), None),
            "harmonic.class_functional": (self._functional_call, None),
            "harmonic.parse": (self._parse_call, None),
            "verify.verify_sufficiency": (None, self._suite_result),
            "verify.verify_necessity": (None, self._suite_result),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(hf, layer)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    span = _RENAMED.get(f"{layer}.{name}", f"{layer}.{name}")
                    wrappers[fn] = self._wrap(span, fn, *hooks.get(span, (None, None)))
        modules = [m for n, m in sys.modules.items() if n == hf.__name__ or n.startswith("harmfrac.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])

        harmonic = hf.harmonic
        for cls in (harmonic.HarmonicFunction, harmonic.NegativeCoefficientForm):
            cls.__post_init__ = self._wrap("harmonic.construct", cls.__post_init__)
        form = harmonic.NegativeCoefficientForm
        form.to_harmonic = self._wrap("harmonic.to_harmonic", form.to_harmonic)
        # The CLI writes its reports with json.dumps directly; count that as
        # serialization, not as CLI self time.
        json = hf.cli.json
        hf.cli.json = SimpleNamespace(
            **{k: getattr(json, k) for k in dir(json) if not k.startswith("_")}
        )
        hf.cli.json.dumps = self._wrap("harmonic.serialize", json.dumps)

    def _wrap(self, span: str, fn, on_call=None, on_return=None):
        stats = self.stats.setdefault(span, SpanStats(span.split(".")[0]))
        layer = stats.layer
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][1] != layer:
                    stats.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------

    def _weight_call(self, part: str):
        keys = self.weight_keys

        def on_call(args, kwargs):
            keys.add((part, args, tuple(kwargs.items())))

        return on_call

    def _functional_call(self, args, kwargs):
        f = args[0] if args else kwargs["f"]
        if hasattr(f, "a_abs"):
            self.term_evals += len(f.a_abs) + len(f.b_abs)
        else:
            self.term_evals += len(f.a) + len(f.b)

    def _parse_call(self, args, kwargs):
        text = args[0] if args else kwargs["text"]
        self.parse_bytes += len(text.encode("utf-8"))

    def _suite_result(self, report):
        self.cases_failed += report.cases_run - report.cases_passed

    # -- requests ---------------------------------------------------------

    def begin_request(self) -> None:
        self.active = True

    def end_request(self) -> None:
        self.active = False
        self.requests += 1
        self.useful_weights += len(self.weight_keys)
        self.weight_keys.clear()

    def record_cli(self, code: int, stdout: str, output_bytes: int) -> None:
        self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
        self.stdout_bytes += len(stdout.encode("utf-8"))
        self.output_bytes += output_bytes

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""

        def calls(*spans):
            return sum(self.stats[s].calls for s in spans if s in self.stats)

        def self_s(*spans):
            return sum(self.stats[s].self_time for s in spans if s in self.stats)

        def layer(name):
            spans = [s for s, st in self.stats.items() if st.layer == name]
            return self_s(*spans), sum(self.stats[s].errors for s in spans), calls(*spans)

        def ratio(num, den):
            return num / den if den else 0.0

        weight_calls = calls("membership.analytic_weight", "membership.coanalytic_weight")
        functional_calls = calls("harmonic.class_functional")
        minimisations = calls("verify.min_real_functional")
        family_self, family_errors, family_calls = layer("family")
        m = {
            "gammafn.operator_weight.calls": (calls("gammafn.operator_weight"), "count"),
            "gammafn.log_gamma.calls": (calls("gammafn.log_gamma"), "count"),
            "gammafn.self_s": (layer("gammafn")[0], "s"),
            "membership.weight.calls": (weight_calls, "count"),
            "membership.weight_useful_ratio": (ratio(self.useful_weights, weight_calls), "ratio"),
            "membership.self_s": (layer("membership")[0], "s"),
            "membership.certify.calls": (
                calls("membership.certify_general", "membership.certify_negative_form"),
                "count",
            ),
            "membership.errors": (layer("membership")[1], "count"),
            "harmonic.class_functional.calls": (functional_calls, "count"),
            "harmonic.class_functional.self_s": (self_s("harmonic.class_functional"), "s"),
            "harmonic.term_evals": (self.term_evals, "count"),
            "harmonic.rebuilds_per_point": (
                ratio(calls("harmonic.to_harmonic"), functional_calls),
                "ratio",
            ),
            "harmonic.parse.self_s": (self_s("harmonic.parse"), "s"),
            "harmonic.parse.bytes": (self.parse_bytes, "bytes"),
            "harmonic.serialize.self_s": (self_s("harmonic.serialize"), "s"),
            "harmonic.construct.calls": (calls("harmonic.construct"), "count"),
            "harmonic.self_s": (layer("harmonic")[0], "s"),
            "verify.min_real_functional.calls": (minimisations, "count"),
            "verify.points_per_case": (ratio(functional_calls, minimisations), "count"),
            "verify.self_s": (layer("verify")[0], "s"),
            "verify.cases_failed": (self.cases_failed, "count"),
            "family.calls": (family_calls, "count"),
            "family.self_s": (family_self, "s"),
            "family.errors": (family_errors, "count"),
            "cli.run.calls": (calls("cli.run"), "count"),
            "cli.self_s": (layer("cli")[0], "s"),
            "cli.stdout_bytes": (self.stdout_bytes, "bytes"),
            "cli.output_bytes": (self.output_bytes, "bytes"),
            "trace.requests": (self.requests, "count"),
        }
        for code in (0, 1, 2):
            m[f"cli.exit_code.{code}"] = (self.exit_codes.get(code, 0), "count")
        return m
