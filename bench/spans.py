"""Span tracing for the benchmark, attached from outside the package.

Each hooked public function is replaced, in every ukfkit module whose
namespace holds it, by a wrapper that records one span per call: name,
start, end and parent span.  Nothing in `src/` is edited, and uninstalling
puts the original objects back.  A hooked name that no longer exists is
reported as absent instead of failing the run.

A span's layer is the module that defines the function, so a call from
`ukf` into `statespace.measure_batch` is statespace time nested inside a
ukf span.  The counter-based random streams get a layer of their own
("rng"): the truth simulator uses them as well as the ensemble filter, and
charging truth draws to `enkf` would hide that enkf time is zero on the
workloads without an ensemble.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from importlib import import_module

import numpy as np

# layer -> (module that defines the names, public names hooked there)
HOOKS = {
    "cli": ("cli", ("main",)),
    "harness": ("harness", ("run_experiment", "simulate_truth", "export_csv")),
    "enkf": ("enkf", ("enkf_init", "enkf_step")),
    "rng": ("enkf", ("philox_stream",)),
    "ekf": ("ekf", ("ekf_step",)),
    "ukf": ("ukf", ("ukf_step", "make_sigma_set")),
    "eukf": ("eukf", ("eukfa_step", "eukfc_step", "eukfa_sigma_scale")),
    "kf": ("kf", ("kf_step", "kf_gain", "kf_update", "evaluate_gain_cov")),
    "numerics": ("numerics", ("spd_sqrt_factor", "solve_spd", "rcond_check")),
    "statespace": (
        "statespace",
        (
            "step_dynamics",
            "measure",
            "step_dynamics_batch",
            "measure_batch",
            "jacobian_dynamics",
            "jacobian_measurement",
            "noise_factor",
        ),
    ),
}
FILTER_STEPS = ("kf.kf_step", "ekf.ekf_step", "ukf.ukf_step", "eukf.eukfa_step", "eukf.eukfc_step", "enkf.enkf_step")
DRAW = "rng.standard_normal"
CHOLESKY = "numerics.cholesky"

# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads where it should).
# Per-call figures ("_s", "csv_bytes") are averaged over the traced cli.main calls;
# "_ms"/"_us" step figures are the mean over the named calls.
LAYER_METRICS = {
    "enkf.step_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.draw_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.draws_per_step": ("count", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.propagate_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.measure_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.gain_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.self_ms": ("ms", "lower", "items_per_s", "ensemble-lorenz"),
    "enkf.member_steps_per_s": ("1/s", "higher", "items_per_s", "ensemble-lorenz"),
    "ukf.step_us": ("us", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "eukf.eukfa_step_us": ("us", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "eukf.eukfc_step_us": ("us", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "ekf.step_us": ("us", "lower", "items_per_s", "sigma-lorenz"),
    "kf.step_us": ("us", "lower", "items_per_s", "linear-4x2"),
    "kf.update_us": ("us", "lower", "items_per_s", "ensemble-lorenz, sigma-lorenz, linear-4x2"),
    "kf.gain_us": ("us", "lower", "items_per_s", "ensemble-lorenz, sigma-lorenz, linear-4x2"),
    "numerics.factorizations_per_filter_step": ("count", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "numerics.factor_s": ("s", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "numerics.jitter_retries": ("count", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "numerics.rcond_us": ("us", "lower", "items_per_s", "sigma-lorenz, linear-4x2"),
    "statespace.calls_per_filter_step": ("count", "lower", "items_per_s", "sigma-lorenz"),
    "statespace.busy_s": ("s", "lower", "items_per_s", "sigma-lorenz"),
    "harness.simulate_truth_s": ("s", "lower", "items_per_s", "sigma-lorenz"),
    "harness.run_self_s": ("s", "lower", "items_per_s", "sigma-lorenz"),
    "harness.export_csv_s": ("s", "lower", "items_per_s", "sigma-lorenz"),
    "harness.csv_bytes": ("bytes", "lower", "items_per_s", "sigma-lorenz"),
    "cli.self_s": ("s", "lower", "items_per_s", "all, small"),
    "trace.overhead_ratio": ("ratio", "lower", "none", "none"),
    "trace.self_sum_ratio": ("ratio", "lower", "none", "none"),
    "fail_ratio": ("ratio", "lower", "none", "all"),
}


class _Proxy:
    """Delegates every attribute to `target` except the ones set explicitly."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory span recorder with hooks on ukfkit's public names."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.layers: dict[str, bool] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_ids[span_name]

    def wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Hook every name in HOOKS in each loaded ukfkit module that holds it."""
        homes = {}
        for home, _ in HOOKS.values():
            try:
                homes[home] = import_module(f"ukfkit.{home}")
            except ModuleNotFoundError:
                homes[home] = None
        namespaces = [m for name, m in list(sys.modules.items()) if name.startswith("ukfkit.") and m is not None]
        for layer, (home, names) in HOOKS.items():
            found = False
            for attr in names:
                original = getattr(homes[home], attr, None)
                if not callable(original):
                    self.absent.append(f"{home}.{attr}")
                    continue
                found = True
                wrapped = self.wrap(original, f"{layer}.{attr}")
                if layer == "rng":
                    wrapped = self._timed_streams(wrapped)
                for module in namespaces:
                    if getattr(module, attr, None) is original:
                        self._set(module, attr, wrapped)
            self.layers[layer] = found
        # Cholesky calls beyond spd_sqrt_factor calls are jitter retries.
        numerics = homes.get("numerics")
        if getattr(numerics, "np", None) is np:
            chol = self._counted(np.linalg.cholesky, CHOLESKY)
            self._set(numerics, "np", _Proxy(np, linalg=_Proxy(np.linalg, cholesky=chol)))
        else:
            self.absent.append("numerics.np.linalg.cholesky")

    def _timed_streams(self, make_stream):
        """Return generators whose standard_normal draws are spans of their own."""
        wrap = self.wrap

        def stream(*args, **kwargs):
            gen = make_stream(*args, **kwargs)
            return _Proxy(gen, standard_normal=wrap(gen.standard_normal, DRAW))

        return stream

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write the spans as columns; `names` maps the name ids."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def layer_report(tracer: Tracer, calls: int, wall_s: float, members: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and a per-layer self/busy summary from the recorded spans.

    `calls` is the number of traced cli.main calls, `wall_s` their summed
    wall time measured outside the root span, `members` the ensemble size.
    A layer's self time is its spans' durations minus their children's; its
    busy time is the duration of its outermost spans, children included.
    """
    cols = tracer.columns()
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    name_ids = cols["name"]
    n = dur.size
    has_parent = parent >= 0
    parent_or_0 = np.where(has_parent, parent, 0)
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

    layer_names = list(dict.fromkeys(s.split(".", 1)[0] for s in tracer.names))
    name_layer = np.array([layer_names.index(s.split(".", 1)[0]) for s in tracer.names] or [0], dtype=np.int64)
    span_layer = name_layer[name_ids]
    # Bit set of the layers among each span's ancestors; parents precede children.
    anc = [0] * n
    par, lay = parent.tolist(), span_layer.tolist()
    for i in range(n):
        p = par[i]
        if p >= 0:
            anc[i] = anc[p] | (1 << lay[p])
    ancestors = np.array(anc, dtype=np.int64)

    def layer_mask(*layers):
        ids = [layer_names.index(layer) for layer in layers if layer in layer_names]
        return np.isin(span_layer, ids), sum(1 << i for i in ids)

    def busy(*layers):
        m, bits = layer_mask(*layers)
        return float(dur[m & ((ancestors & bits) == 0)].sum())

    def mask(span_name):
        nid = tracer._name_ids.get(span_name)
        return name_ids == nid if nid is not None else np.zeros(n, dtype=bool)

    def under(m, parent_name):
        return m & has_parent & mask(parent_name)[parent_or_0]

    def ratio(x, d):
        return x / d if d else 0.0

    def mean(m, scale):
        return ratio(float(dur[m].sum()) * scale, int(m.sum()))

    enkf_step = mask("enkf.enkf_step")
    enkf_steps = int(enkf_step.sum())
    enkf_s = float(dur[enkf_step].sum())
    filter_steps = sum(int(mask(s).sum()) for s in FILTER_STEPS)
    factor_calls = int(mask("numerics.spd_sqrt_factor").sum())

    def per_enkf_ms(m):
        return ratio(float(dur[under(m, "enkf.enkf_step")].sum()) * 1e3, enkf_steps)

    def per_call(x):
        return ratio(x, calls)

    metrics = {
        "enkf.step_ms": mean(enkf_step, 1e3),
        "enkf.draw_ms": per_enkf_ms(mask(DRAW) | mask("rng.philox_stream")),
        "enkf.draws_per_step": ratio(int(under(mask(DRAW), "enkf.enkf_step").sum()), enkf_steps),
        "enkf.propagate_ms": per_enkf_ms(mask("statespace.step_dynamics_batch")),
        "enkf.measure_ms": per_enkf_ms(mask("statespace.measure_batch")),
        "enkf.gain_ms": per_enkf_ms(mask("kf.kf_gain")),
        "enkf.self_ms": ratio(float(self_t[enkf_step].sum()) * 1e3, enkf_steps),
        "enkf.member_steps_per_s": ratio(members * enkf_steps, enkf_s),
        "ukf.step_us": mean(mask("ukf.ukf_step"), 1e6),
        "eukf.eukfa_step_us": mean(mask("eukf.eukfa_step"), 1e6),
        "eukf.eukfc_step_us": mean(mask("eukf.eukfc_step"), 1e6),
        "ekf.step_us": mean(mask("ekf.ekf_step"), 1e6),
        "kf.step_us": mean(mask("kf.kf_step"), 1e6),
        "kf.update_us": mean(mask("kf.kf_update"), 1e6),
        "kf.gain_us": mean(mask("kf.kf_gain"), 1e6),
        "numerics.factorizations_per_filter_step": ratio(factor_calls, filter_steps),
        "numerics.factor_s": per_call(float(dur[mask("numerics.spd_sqrt_factor")].sum())),
        "numerics.jitter_retries": float(max(0, tracer.counts[CHOLESKY] - factor_calls)),
        "numerics.rcond_us": mean(mask("numerics.rcond_check"), 1e6),
        "statespace.calls_per_filter_step": ratio(int(layer_mask("statespace")[0].sum()), filter_steps),
        "statespace.busy_s": per_call(busy("statespace")),
        "harness.simulate_truth_s": per_call(float(dur[mask("harness.simulate_truth")].sum())),
        "harness.run_self_s": per_call(float(self_t[mask("harness.run_experiment")].sum())),
        "harness.export_csv_s": per_call(float(dur[mask("harness.export_csv")].sum())),
        "cli.self_s": per_call(float(self_t[mask("cli.main")].sum())),
        "trace.self_sum_ratio": ratio(float(self_t.sum()), wall_s),
    }
    layers = {}
    for layer, found in tracer.layers.items():
        if not found:
            layers[layer] = "absent"
            continue
        m = layer_mask(layer)[0]
        layers[layer] = {
            "spans": int(m.sum()),
            "self_s": float(self_t[m].sum()),
            "busy_s": busy(layer),
            "busy_share": ratio(busy(layer), wall_s),
        }
    groups = {"filters(ekf+ukf+eukf)": ratio(busy("ekf", "ukf", "eukf"), wall_s)}
    return metrics, {"layers": layers, "busy_share": groups}
