"""Spans and counts around the layers' public functions, from outside the package.

The package's modules import one another's functions by name, so a
function is replaced in every module namespace that binds it.  Spans
nest: a span's time is added to its parent's child time, which gives
each span a self time (its duration minus its children's).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function): the layers the per-layer metrics name
TARGETS = [
    ("instances", "sample_configuration"),
    ("instances", "sample_simple"),
    ("instances", "serialize"),
    ("instances", "deserialize"),
    ("occupancy", "has_solution"),
    ("occupancy", "count_solutions"),
    ("cycles", "count_cycles"),
    ("cycles", "poisson_gof"),
    ("moments", "first_moment_exact"),
    ("moments", "second_moment_exact_ratio"),
    ("moments", "joint_moment_exact"),
    ("moments", "threshold_dstar"),
    ("sdpi", "contraction_coefficient"),
    ("sdpi", "occupation_contraction"),
    ("sdpi", "certify_k4_contraction"),
    ("sdpi", "parse_channel"),
    ("numerics", "kl_divergence_rows"),
    ("cli", "main"),
]


def _census_method(args, kwargs) -> str:
    # count_cycles(cfg, l_max, method="auto"): auto is pairs for l_max <= 2
    l_max = kwargs.get("l_max", args[1] if len(args) > 1 else None)
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        method = "pairs" if l_max <= 2 else "walk"
    return method


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)  # span name -> seconds inside
        self.own = defaultdict(float)  # span name -> seconds minus child spans
        self.counts = defaultdict(float)
        self.direct = defaultdict(float)  # span name -> seconds spent directly under cli.main
        self._stack: list[list] = []  # [name, child seconds]
        self._saved: list[tuple] = []

    def _note(self, name: str, result, args, parent):
        c = self.counts
        c[f"{name}_calls"] += 1
        if name == "instances.sample_configuration" and parent == "instances.sample_simple":
            c["instances.sample_simple_attempts"] += 1
        elif name == "occupancy.has_solution":
            c["occupancy.sat_instances"] += bool(result)
        elif name == "occupancy.count_solutions":
            c["occupancy.solutions_counted"] += int(result)
        elif name == "numerics.kl_divergence_rows":
            c["numerics.kl_divergence_rows_rows"] += len(args[0])

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span = name
            if name == "cycles.count_cycles":
                span = f"cycles.count_cycles_{_census_method(args, kwargs)}"
            self._stack.append([span, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                _, children = self._stack.pop()
                self.busy[span] += spent
                self.own[span] += spent - children
                if self._stack:
                    self._stack[-1][1] += spent
                if parent == "cli.main":
                    self.direct[span] += spent
            self._note(name, result, args, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace each target in every occuthresh module that binds it."""
        modules = [m for key, m in sys.modules.items() if key == "occuthresh" or key.startswith("occuthresh.")]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"occuthresh.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round means of the per-layer metrics."""
        names = {
            "instances.sample_configuration_s": self.busy["instances.sample_configuration"],
            "instances.sample_configuration_calls": self.counts["instances.sample_configuration_calls"],
            "instances.sample_simple_s": self.busy["instances.sample_simple"],
            "instances.sample_simple_attempts": self.counts["instances.sample_simple_attempts"],
            "instances.serialize_s": self.busy["instances.serialize"],
            "instances.deserialize_s": self.busy["instances.deserialize"],
            "occupancy.has_solution_s": self.busy["occupancy.has_solution"],
            "occupancy.has_solution_calls": self.counts["occupancy.has_solution_calls"],
            "occupancy.sat_instances": self.counts["occupancy.sat_instances"],
            "occupancy.count_solutions_s": self.busy["occupancy.count_solutions"],
            "occupancy.count_solutions_calls": self.counts["occupancy.count_solutions_calls"],
            "occupancy.solutions_counted": self.counts["occupancy.solutions_counted"],
            "cycles.count_cycles_pairs_s": self.busy["cycles.count_cycles_pairs"],
            "cycles.count_cycles_walk_s": self.busy["cycles.count_cycles_walk"],
            "cycles.count_cycles_calls": self.counts["cycles.count_cycles_calls"],
            "cycles.poisson_gof_s": self.busy["cycles.poisson_gof"],
            "moments.first_moment_exact_s": self.busy["moments.first_moment_exact"],
            "moments.second_moment_exact_ratio_s": self.busy["moments.second_moment_exact_ratio"],
            "moments.joint_moment_exact_s": self.busy["moments.joint_moment_exact"],
            "moments.threshold_dstar_s": self.busy["moments.threshold_dstar"],
            "sdpi.contraction_coefficient_s": self.busy["sdpi.contraction_coefficient"],
            "sdpi.occupation_contraction_s": self.busy["sdpi.occupation_contraction"],
            "sdpi.certify_k4_contraction_s": self.busy["sdpi.certify_k4_contraction"],
            "sdpi.parse_channel_s": self.busy["sdpi.parse_channel"],
            "numerics.kl_divergence_rows_calls": self.counts["numerics.kl_divergence_rows_calls"],
            "numerics.kl_divergence_rows_rows": self.counts["numerics.kl_divergence_rows_rows"],
            "numerics.kl_divergence_rows_s": self.busy["numerics.kl_divergence_rows"],
            "cli.main_s": self.busy["cli.main"],
            "cli.self_s": self.own["cli.main"],
        }
        out = {key: value / rounds for key, value in names.items()}
        attempts = self.counts["instances.sample_simple_attempts"]
        out["instances.sample_simple_accept_ratio"] = (
            self.counts["instances.sample_simple_calls"] / attempts if attempts else 0.0)
        return out
