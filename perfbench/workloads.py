"""The three benchmark workloads: their set-up, operations and output checks.

Each operation has a timed ``call`` into the program and an untimed
``verify`` that returns the exit code, the checks (measured against
tolerance) and SHA-256 digests of the outputs.  CLI operations take their
checks and digests from the manifest the command writes; library operations
are checked against the closed forms of the free Gaussian at the acceptance
tolerances.
"""
import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module objects so that the tracer's patches apply.
from bihj import autonomous, cli, gaussian, reconstruct
from bihj.congruence import LabelSet
from bihj.scenario import load_config

# acceptance tolerances: positions, exchange and reconstruction
POSITION_TOL = 1e-3
EXCHANGE_TOL = 1e-3
RECONSTRUCTION_TOL = 1e-3


@dataclass(frozen=True)
class Op:
    name: str
    call: object    # (state, out_dir, ctx) -> raw result; timed
    verify: object  # (state, out_dir, ctx, raw) -> (exit_code, checks, digests)
    span: str | None = None


def _check(name, measured, tolerance):
    return {"name": name, "measured": float(measured), "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance)}


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# ---------- CLI workloads ----------

def _cli_op(command, *extra):
    def call(state, out, ctx):
        argv = [command, *extra, "--config", state["config_path"], "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def verify(state, out, ctx, exit_code):
        manifest = json.loads((Path(out) / "manifest.json").read_text())
        digests = {k: v for k, v in manifest["files"].items() if v is not None}
        checks = [{k: c[k] for k in ("name", "measured", "tolerance", "passed")}
                  for c in manifest["checks"]]
        return exit_code, checks, digests

    return Op(command, call, verify, span=f"cli.{command}")


def prepare_cli(inputs):
    """Parse the generated scenario once, as the CLI does per command."""
    load_config(inputs["scenario_path"])
    return {"config_path": inputs["scenario_path"]}


CLI_ANALYTIC_OPS = (
    _cli_op("simulate"),
    _cli_op("compose"),
    _cli_op("reconstruct"),
    _cli_op("figure", "--id", "fig3"),
)

GRID_SAMPLED_OPS = (
    _cli_op("reconstruct"),
    _cli_op("compose"),
)


# ---------- autonomous-pair: library only, no files ----------

def prepare_autonomous(inputs):
    """Scenario parse and closed-form initial action profiles S_plus, S_minus."""
    config = load_config(inputs["scenario_path"])
    params = config.params
    g = gaussian.GaussianParams(config.initial_state.sigma0, params.hbar, params.mass)
    span = config.label_span
    labels = LabelSet.uniform(span["lo"], span["hi"], config.label_count)
    q0 = labels.values
    return {
        "g": g,
        "params": params,
        "rho_ref": config.rho_ref,
        "labels": labels,
        "S_plus0": gaussian.action_plus(g, q0, 0.0, config.rho_ref),
        "S_minus0": gaussian.action_minus(g, q0, 0.0, config.rho_ref),
        "probe_fractions": np.asarray(inputs["probe_fractions"], dtype=float),
        **inputs["autonomous"],
    }


def _propagate(state, out, ctx):
    ctx["bi"] = autonomous.propagate_autonomous(
        state["S_plus0"], state["S_minus0"], state["labels"], state["params"],
        state["dt"], state["steps"], store_every=state["store_every"],
        rho_ref=state["rho_ref"])
    return ctx["bi"]


def _verify_propagate(state, out, ctx, bi):
    q0 = state["labels"].values
    worst = 0.0
    for kind, c in (("plus", bi.plus), ("minus", bi.minus)):
        exact = q0[None, :] * gaussian.path_scale(state["g"], kind, bi.times)[:, None]
        worst = max(worst, float(np.abs(c.q - exact).max()))
    scale = float(np.abs(bi.minus.q).max())
    checks = [_check("autonomous_matches_closed_form", worst, POSITION_TOL * scale)]
    digests = {c: _digest(getattr(bi, c).q, getattr(bi, c).qdot, getattr(bi, c).J,
                          getattr(bi, c).chi) for c in ("plus", "minus")}
    return 0, checks, digests


def _exchange(state, out, ctx):
    return autonomous.exchange_pair(state["S_plus0"], state["S_minus0"], state["labels"],
                         state["params"], state["dt"], state["exchange_steps"])


def _verify_exchange(state, out, ctx, pair):
    conj_fwd, orig_back = pair
    checks = [_check("lagrangian_exchange", autonomous.exchange_mismatch(conj_fwd, orig_back),
                     EXCHANGE_TOL)]
    digests = {"conj_forward": _digest(conj_fwd.plus.q, conj_fwd.minus.q),
               "original_backward": _digest(orig_back.plus.q, orig_back.minus.q)}
    return 0, checks, digests


def _probe(state, out, ctx):
    """cross_map and the pair wavefunction at every stored time."""
    bi = ctx["bi"]
    rows = []
    for k, t in enumerate(bi.times):
        lo = max(bi.plus.q[k][0], bi.minus.q[k][0])
        hi = min(bi.plus.q[k][-1], bi.minus.q[k][-1])
        xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * state["probe_fractions"]
        cm = autonomous.cross_map(bi, t)
        psi = reconstruct.bihj_wavefunction_at(bi, xs, t)
        rows.append((float(t), xs, cm, psi))
    return rows


def _verify_probe(state, out, ctx, rows):
    g = state["g"]
    worst_psi = scale_psi = worst_cm = 0.0
    h = hashlib.sha256()
    for t, xs, cm, psi in rows:
        ref = gaussian.psi(g, xs, t)
        worst_psi = max(worst_psi, float(np.abs(psi - ref).max()))
        scale_psi = max(scale_psi, float(np.abs(ref).max()))
        ratio = gaussian.path_scale(g, "plus", t) / gaussian.path_scale(g, "minus", t)
        worst_cm = max(worst_cm, float(np.abs(cm.q_minus0 - cm.q_plus0 * ratio).max()))
        for arr in (cm.q_plus0, cm.q_minus0, cm.inverse_q_plus0, cm.inverse_q_minus0, psi):
            h.update(np.ascontiguousarray(arr).tobytes())
    label_scale = float(np.abs(state["labels"].values).max())
    checks = [_check("pair_wavefunction_closed_form", worst_psi, RECONSTRUCTION_TOL * scale_psi),
              _check("cross_map_closed_form", worst_cm, POSITION_TOL * label_scale)]
    return 0, checks, {"probes": h.hexdigest()}


AUTONOMOUS_OPS = (
    Op("propagate_autonomous", _propagate, _verify_propagate),
    Op("exchange_pair", _exchange, _verify_exchange),
    Op("cross_map_and_wavefunction", _probe, _verify_probe),
)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object  # inputs -> state; part of the timed set-up
    ops: tuple


# NOTES.md gives the reason for each workload.
WORKLOADS = {
    w.name: w for w in (
        Workload("cli-analytic", prepare_cli, CLI_ANALYTIC_OPS),
        Workload("autonomous-pair", prepare_autonomous, AUTONOMOUS_OPS),
        Workload("grid-sampled", prepare_cli, GRID_SAMPLED_OPS),
    )
}
