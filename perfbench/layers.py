"""Per-layer metric names, units and how each is read from a traced run.

Names are ``<module>.<function>.<quantity>``.  ``self_s`` is a span's
duration minus the time of the spans it caused; per-unit rates
(``ns_per_*``, ``us_per_step``, ``mb_per_s``) use the whole span duration.
Every metric is reported on every workload, as 0 where the layer did no work.
"""
import statistics

from tracer import KERNELS

MICRO_KERNELS = ("tridiag_solve", "hermite_eval", "invert_monotone", "spline_slopes_natural")
ACCEPTANCE_GROUPS = (
    "bi_hj_trajectories", "mean_flow_trajectory", "composition_case_i",
    "composition_case_ii_and_converse", "reconstruction", "probability_from_actions",
    "non_conservation", "composed_conservation", "residual_convergence", "autonomous",
    "time_reversal", "superposition", "properties", "determinism",
)


def _stat(name, field):
    return lambda trace, result: trace["stats"].get(name, {}).get(field, 0)


def _rate(name, scale):
    """Whole span time per unit of work, times ``scale``."""
    def get(trace, result):
        st = trace["stats"].get(name)
        return st["total_s"] / st["work"] * scale if st and st["work"] else 0.0
    return get


def _mb_per_s(trace, result):
    st = trace["stats"].get("scenario.write_csv")
    return st["work"] / 1e6 / st["total_s"] if st and st["total_s"] > 0 else 0.0


def _micro(kernel, field):
    return lambda trace, result: trace["micro"].get(kernel, {}).get(field, 0)


def _acceptance(group):
    return lambda trace, result: trace["acceptance"]["timings"].get(f"check_{group}", 0.0)


# (name, unit, better, getter(trace, result))
PER_LAYER = [
    *[(f"cli.{c}.s", "s", "lower", _stat(f"cli.{c}", "total_s"))
      for c in ("simulate", "compose", "reconstruct", "figure")],
    ("import.bihj_s", "s", "lower", lambda trace, result: result["import_s"]),
    ("import.modules", "count", "lower", lambda trace, result: result["import_modules"]),
    ("scenario.write_csv.self_s", "s", "lower", _stat("scenario.write_csv", "self_s")),
    ("scenario.write_csv.calls", "count", "lower", _stat("scenario.write_csv", "calls")),
    ("scenario.write_csv.bytes", "B", "lower", _stat("scenario.write_csv", "work")),
    ("scenario.write_csv.mb_per_s", "MB/s", "higher", _mb_per_s),
    ("scenario.parse_config.s", "s", "lower", _stat("scenario.parse_config", "total_s")),
    ("reference.evolve_crank_nicolson.self_s", "s", "lower",
     _stat("reference.evolve_crank_nicolson", "self_s")),
    ("reference.evolve_crank_nicolson.point_steps", "count", "lower",
     _stat("reference.evolve_crank_nicolson", "work")),
    ("reference.evolve_crank_nicolson.ns_per_point_step", "ns", "lower",
     _rate("reference.evolve_crank_nicolson", 1e9)),
    ("reference.analytic_series.self_s", "s", "lower",
     _stat("reference.analytic_series", "self_s")),
    ("fields.derive_series.self_s", "s", "lower", _stat("fields.derive_series", "self_s")),
    ("fields.derive_series.snapshots", "count", "lower", _stat("fields.derive_series", "work")),
    ("congruence.integrate_congruence.self_s", "s", "lower",
     _stat("congruence.integrate_congruence", "self_s")),
    ("congruence.integrate_congruence.calls", "count", "lower",
     _stat("congruence.integrate_congruence", "calls")),
    ("congruence.integrate_congruence.label_steps", "count", "lower",
     _stat("congruence.integrate_congruence", "work")),
    ("congruence.integrate_congruence.ns_per_label_step", "ns", "lower",
     _rate("congruence.integrate_congruence", 1e9)),
    ("congruence.FieldSource.calls", "count", "lower", _stat("congruence.FieldSource", "calls")),
    ("congruence.FieldSource.self_s", "s", "lower", _stat("congruence.FieldSource", "self_s")),
    ("congruence.FieldActionRate.calls", "count", "lower",
     _stat("congruence.FieldActionRate", "calls")),
    ("congruence.FieldActionRate.self_s", "s", "lower",
     _stat("congruence.FieldActionRate", "self_s")),
    ("congruence.invert_labels.self_s", "s", "lower", _stat("congruence.invert_labels", "self_s")),
    ("congruence.invert_labels.calls", "count", "lower", _stat("congruence.invert_labels", "calls")),
    ("congruence.invert_labels.targets", "count", "lower",
     _stat("congruence.invert_labels", "work")),
    ("autonomous.propagate_autonomous.self_s", "s", "lower",
     _stat("autonomous.propagate_autonomous", "self_s")),
    ("autonomous.propagate_autonomous.steps", "count", "lower",
     _stat("autonomous.propagate_autonomous", "work")),
    ("autonomous.propagate_autonomous.us_per_step", "us", "lower",
     _rate("autonomous.propagate_autonomous", 1e6)),
    ("autonomous.exchange_pair.self_s", "s", "lower", _stat("autonomous.exchange_pair", "self_s")),
    ("autonomous.cross_map.self_s", "s", "lower", _stat("autonomous.cross_map", "self_s")),
    ("autonomous.cross_map.calls", "count", "lower", _stat("autonomous.cross_map", "calls")),
    *[(f"compose.{f}.self_s", "s", "lower", _stat(f"compose.{f}", "self_s"))
      for f in ("compose_trajectories", "source_term", "conservation_check")],
    ("reconstruct.reconstruction_probe.self_s", "s", "lower",
     _stat("reconstruct.reconstruction_probe", "self_s")),
    ("reconstruct.bihj_wavefunction_at.self_s", "s", "lower",
     _stat("reconstruct.bihj_wavefunction_at", "self_s")),
    ("reconstruct.bihj_wavefunction_at.points", "count", "lower",
     _stat("reconstruct.bihj_wavefunction_at", "work")),
    *[(f"kernels.{k}.{q}", u, "lower", _stat(f"kernels.{k}", f))
      for k in KERNELS
      for q, u, f in (("calls", "count", "calls"), ("self_s", "s", "self_s"),
                      ("points", "count", "work"))],
    *[(f"kernels.micro.{k}.{q}", u, "lower", _micro(k, q))
      for k in MICRO_KERNELS
      for q, u in (("us", "us"), ("computed_flops", "flop"), ("computed_bytes", "B"))],
    *[(f"acceptance.{g}.s", "s", "lower", _acceptance(g)) for g in ACCEPTANCE_GROUPS],
    ("checks.worst_ratio", "ratio", "lower", lambda trace, result: worst_check_ratio(result)),
    ("trace.overhead_s", "s", "lower", lambda trace, result: trace["overhead_s"]),
    ("trace.uncovered_s", "s", "lower", lambda trace, result: trace["uncovered_s"]),
]


def worst_check_ratio(result):
    """Largest measured/tolerance over the checks of a pass, median over passes."""
    ratios = [p["worst_check_ratio"] for p in result["passes"]
              if p["worst_check_ratio"] is not None]
    return statistics.median(ratios) if ratios else float("inf")


def per_layer_metrics(result):
    """{name: (value, unit)} for every per-layer metric."""
    trace = result["trace"]
    return {name: (get(trace, result), unit) for name, unit, _, get in PER_LAYER}
