"""Call spans around qlogent's public functions, and per-layer metrics from them.

The tracer rebinds each public function of the traced modules wherever any
qlogent module holds it (most are imported by name), plus the two validators
that are methods. Spans (name, start, end, parent, value) stay in memory;
the caller writes them out when the run ends. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

TRACED_MODULES = (
    "linalg", "sampling", "states", "channels", "partitions", "postselect",
    "propositions", "reports",
)
# (module, class, attribute) of validators that are methods, not functions.
TRACED_METHODS = (
    ("states", "DensityMatrix", "_validated"),
    ("states", "Pvm", "__init__"),
)

# Declared group of a function. An unlisted function joins its caller's group
# when the caller is in the same module, else its module's (see span_groups).
_ENTROPY = (
    "purity", "logical_entropy", "pvm_logical_entropy", "logical_divergence",
    "logical_divergence_definitional", "fidelity",
)
GROUPS = {
    "reports.load_matrix_file": "reports.parse",
    "reports.pvm_from_file": "reports.parse",
    "reports.dumps_stable": "reports.emit",
    "reports.run_report": "reports.emit",
    "states.DensityMatrix._validated": "states.validate_density",
    "states.Pvm.__init__": "states.validate_pvm",
    **{f"states.{f}": "states.entropy" for f in _ENTROPY},
    "linalg.hermitian_eigvals": "linalg.eigvals",
    "linalg.hermitian_eig": "linalg.eig",
    "linalg.reduce_state": "linalg.reduce",
    "linalg.partial_trace": "linalg.reduce",
    "sampling.rng_for": "sampling.rng_for",
    "propositions.two_draw_quantum_mc": "propositions.mc",
}
_SAMPLER_PREFIX = "sampling.sample_"

# (self-time metric, call-count metric or None, group). The end-to-end metric
# each should move, written down before any optimisation (no change elsewhere):
#   cli, reports.parse/emit, postselect      latency_p50_ms on analyze-files
#   states.validate_*, linalg.eigvals/eig    latency_p90_ms on analyze-files
#                                            (on verify-all only via prop 5)
#   states.entropy, linalg.reduce, sampling  work_per_s on verify-all
#   channels, partitions                     work_per_s on verify-all (5, 6, 7, 9)
#   propositions.us_per_trial.*              work_per_s on verify-all
#   propositions.mc, mc_draws                work_per_s, peak_rss_mb on sample-mc
# sampling.*_calls is 0 on analyze-files and one rng_for call per op on sample-mc.
LAYER_METRICS = (
    ("cli.self_s", None, "cli"),
    ("reports.parse_s", "reports.parse_calls", "reports.parse"),
    ("reports.emit_s", None, "reports.emit"),
    ("states.validate_density_s", "states.validate_density_calls", "states.validate_density"),
    ("states.validate_pvm_s", "states.validate_pvm_calls", "states.validate_pvm"),
    ("states.entropy_s", "states.entropy_calls", "states.entropy"),
    ("linalg.eigvals_s", "linalg.eigvals_calls", "linalg.eigvals"),
    ("linalg.eig_s", "linalg.eig_calls", "linalg.eig"),
    ("linalg.reduce_s", "linalg.reduce_calls", "linalg.reduce"),
    ("sampling.rng_for_s", "sampling.rng_for_calls", "sampling.rng_for"),
    ("sampling.sample_s", "sampling.sample_calls", "sampling.sample"),
    ("channels.s", "channels.calls", "channels"),
    ("partitions.s", "partitions.calls", "partitions"),
    ("postselect.s", "postselect.calls", "postselect"),
    ("propositions.mc_s", None, "propositions.mc"),
)


def _mc_draws(args, kwargs, out):
    return 2 * (args[2] if len(args) > 2 else kwargs["trials"])


def _proposition_trials(args, kwargs, out):
    return [args[0] if args else kwargs["prop_id"], out.trials_run]


# Per-call values recorded with a span: eigensolver dimension, emitted
# bytes, (proposition id, trials run), and Monte Carlo draws.
PROBES = {
    "linalg.hermitian_eigvals": lambda args, kwargs, out: len(out),
    "reports.dumps_stable": lambda args, kwargs, out: len(out.encode()),
    "propositions.verify_proposition": _proposition_trials,
    "propositions.two_draw_quantum_mc": _mc_draws,
}


class Tracer:
    """Records nested spans; install() rebinds qlogent's functions, uninstall() restores them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if probe is not None:
                spans[index] = (name, start, end, parent, probe(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"qlogent.{short}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name == "qlogent" or name.startswith("qlogent."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._patch(module, attr, wrappers[id(obj)][1])
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"qlogent.{short}"], cls_name)
            original = cls.__dict__[attr]
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(original, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, original.__func__)))
            else:
                self._patch(cls, attr, self.wrap(name, original))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """The spans recorded so far; the tracer starts empty again."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def declared_group(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith(_SAMPLER_PREFIX):
        return "sampling.sample"
    return name.partition(".")[0]


def span_groups(spans) -> list[str]:
    """Group of each span: its declared group when listed, else its caller's
    group if the caller is in the same module, else its module."""
    out: list[str] = []
    for name, _, _, parent, _ in spans:
        module = name.partition(".")[0]
        group = declared_group(name)
        if group == module and parent >= 0 and spans[parent][0].partition(".")[0] == module:
            group = out[parent]
        out.append(group)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one sweep: self seconds, call counts and values."""
    own = self_times(spans)
    groups = span_groups(spans)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, s, g in zip((sp[0] for sp in spans), own, groups):
        seconds[g] = seconds.get(g, 0.0) + s
        declared = declared_group(name)
        calls[declared] = calls.get(declared, 0) + 1
    out: dict[str, float] = {}
    for time_metric, calls_metric, group in LAYER_METRICS:
        out[time_metric] = seconds.get(group, 0.0)
        if calls_metric:
            out[calls_metric] = calls.get(group, 0)

    emit_bytes = mc_draws = 0
    eig_ms: dict[int, list[float]] = {}
    prop: dict[str, list] = {}
    for name, start, end, _, value in spans:
        if name == "reports.dumps_stable":
            emit_bytes += value
        elif name == "propositions.two_draw_quantum_mc":
            mc_draws += value
        elif name == "linalg.hermitian_eigvals":
            eig_ms.setdefault(value, []).append((end - start) * 1e3)
        elif name == "propositions.verify_proposition":
            seconds_trials = prop.setdefault(value[0], [0.0, 0])
            seconds_trials[0] += end - start
            seconds_trials[1] += value[1]
    out["reports.emit_bytes"] = emit_bytes
    out["propositions.mc_draws"] = mc_draws
    for d, ms in sorted(eig_ms.items()):
        out[f"linalg.eigvals_ms_per_call.d{d}"] = statistics.fmean(ms)
    for pid, (secs, trials) in prop.items():
        out[f"propositions.us_per_trial.{pid}"] = secs / trials * 1e6
    return out
