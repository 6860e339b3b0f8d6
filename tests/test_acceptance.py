"""Acceptance gate: every named check at its pinned tolerance.

The checks run once per module through the verify command's report; each
criterion prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete, or ``bihj verify`` for the same
suite plus the serialised report.
"""
import numpy as np
import pytest

from oracles import autonomous_pair, oracle_congruences, superposition_run

from bihj.acceptance import AcceptanceContext, run_verify
from bihj.autonomous import BiCongruence
from bihj.scenario import bundled_scenario, parse_config


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    return AcceptanceContext(tmp_path_factory.mktemp("acceptance"))


@pytest.fixture(scope="module")
def verify(context, tmp_path_factory):
    """The manifest and the results of the verify command's report."""
    return run_verify(context, tmp_path_factory.mktemp("verify"), echo=None)


@pytest.fixture(scope="module")
def outcomes(verify):
    return {r.name: r for r in verify[1]}


EXPECTED_CHECKS = [
    "bi_hj_plus_trajectory",
    "bi_hj_minus_trajectory",
    "mean_flow_trajectory",
    "composition_i_label_generator",
    "composition_i_composed_path",
    "composition_i_theorem_residual",
    "composition_ii_host_path",
    "composition_ii_label_generator",
    "composition_ii_composed_path",
    "composition_converse_label_generator",
    "composition_converse_composed_path",
    "composition_corollary_round_trip",
    "wavefunction_from_actions_center",
    "three_way_reconstruction",
    "probability_from_action_difference",
    "central_action_increment",
    "trajectory_density_ratio",
    "mixture_density_mismatch",
    "mixture_restored_by_sources",
    "composed_flow_conservation",
    "residual_convergence_hj",
    "residual_convergence_fokker_planck",
    "coupling_sign_lock",
    "autonomous_matches_reference",
    "autonomous_matches_closed_form",
    "eulerian_exchange",
    "eulerian_exchange_actions",
    "lagrangian_exchange",
    "superposition_reconstruction",
    "stationary_points_match_extrema",
    "norm_conservation",
    "jacobian_consistency",
    "action_gradient_identity",
    "jacobian_factorisation",
    "deterministic_outputs",
]


def test_suite_is_complete(outcomes):
    assert sorted(outcomes) == sorted(EXPECTED_CHECKS)
    assert len(outcomes) >= 12


@pytest.mark.parametrize("name", EXPECTED_CHECKS)
def test_acceptance_criterion(outcomes, name):
    res = outcomes[name]
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.name}: measured {res.measured:.3e} "
          f"(tolerance {res.tolerance:.3e})")
    assert res.passed, (f"{res.name}: measured {res.measured!r} exceeds "
                        f"tolerance {res.tolerance!r} ({res.detail})")


def test_key_targets_exposed(outcomes):
    """Spot-check that the published target values ride along with the checks."""
    assert outcomes["composition_i_label_generator"].target == pytest.approx(
        np.exp(np.pi / 4.0))
    assert outcomes["trajectory_density_ratio"].target == pytest.approx(
        np.exp(np.pi / 4.0))
    assert outcomes["probability_from_action_difference"].target == pytest.approx(
        (2.0 * np.pi) ** -0.5)


def test_verify_manifest_echoes_the_bundled_scenario_and_its_artefacts(verify):
    manifest, _ = verify
    assert manifest["config"] == parse_config(bundled_scenario()).echo
    diagnostics = manifest["diagnostics"]
    assert sorted(diagnostics) == ["autonomous", "canonical", "norm", "superposition"]
    assert sorted(diagnostics["canonical"]) == ["dbb", "half_plus", "minus", "plus"]
    checks = {c["name"]: c for c in manifest["checks"]}
    assert diagnostics["norm"]["norm_drift"] == checks["norm_conservation"]["measured"]
    assert "max_partner_extrapolation" in diagnostics["autonomous"]
    assert {"norm_drift", "boundary_density_ratio", "plus", "minus"} <= set(
        diagnostics["superposition"])


def _assert_congruences_equal(a, b):
    for name in ("times", "q", "qdot", "J", "chi"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.labels.values, b.labels.values)


def _assert_pairs_equal(a, b):
    _assert_congruences_equal(a.plus, b.plus)
    _assert_congruences_equal(a.minus, b.minus)
    assert a.rho_ref == b.rho_ref


FIELD_ARRAYS = ("rho", "S", "S_plus", "S_minus", "v", "v_plus", "v_minus", "u", "Q",
                "Q_plus", "Q_minus", "valid")


def test_scenario_artefacts_equal_their_builds_without_the_pipeline(context, verify, params, g):
    """The artefacts the checks read, built as scenario runs, equal bit for bit
    those the suite built with its own code before it ran the pipeline."""
    oracle = oracle_congruences(g)
    for flow, c in oracle.items():
        _assert_congruences_equal(context.oracle(flow), c)
    _assert_pairs_equal(context.runs["canonical"].pair,
                        BiCongruence(params, oracle["plus"], oracle["minus"]))
    _assert_pairs_equal(context.runs["autonomous"].autonomous, autonomous_pair(params, g))

    run = context.runs["superposition"]
    wave, fs, bi = run.wave, run.fields, run.pair
    ref_wave, ref_fs, ref_bi = superposition_run(params, g.sigma0)
    assert np.array_equal(wave.times, ref_wave.times)
    for s, r in zip(wave.snapshots, ref_wave.snapshots, strict=True):
        assert np.array_equal(s.values, r.values)
    for s, r in zip(fs.snapshots, ref_fs.snapshots, strict=True):
        for name in FIELD_ARRAYS:
            assert np.array_equal(getattr(s, name), getattr(r, name), equal_nan=True), name
    _assert_pairs_equal(bi, ref_bi)
