"""Fluid-vs-detailed delivered-fidelity parity across the whole catalog."""

import pytest

from repro.errors import ScenarioError
from repro.runtime.cli import main
from repro.scenarios import get_scenario, list_scenarios
from repro.trace import ChannelClosed, ChannelFidelity
from repro.verify.harness import (
    FIDELITY_ABS_TOL,
    PARITY_NOISE,
    compare_fidelity_runs,
    traced_run,
    verify_fidelity,
)


class TestFidelityParity:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_catalog_scenario_agrees_across_backends(self, name):
        # Every catalog scenario (fixed seeds live in the specs) must deliver
        # the same per-channel fidelity under both transport granularities
        # within the documented tolerance.
        divergences = verify_fidelity(get_scenario(name))
        assert not divergences, "\n".join(str(d) for d in divergences)

    def test_noise_is_applied_when_spec_has_none(self):
        spec = get_scenario("smoke")
        assert spec.noise is None
        run = traced_run(spec.with_noise(PARITY_NOISE))
        fidelities = run.of_kind(ChannelFidelity.kind)
        assert fidelities and len(fidelities) == len(run.of_kind(ChannelClosed.kind))

    def test_existing_noise_section_is_respected(self):
        spec = get_scenario("smoke_noisy")
        assert spec.noise is not None
        assert not verify_fidelity(spec)

    def test_missing_fidelity_reported_as_divergence(self):
        spec = get_scenario("smoke")
        tracked = traced_run(spec.with_noise(PARITY_NOISE))
        untracked = traced_run(spec)
        divergences = compare_fidelity_runs(tracked, untracked)
        assert any(d.aspect == "fidelity_missing" for d in divergences)

    def test_tolerance_violation_detected(self):
        spec = get_scenario("smoke").with_noise(PARITY_NOISE)
        a = traced_run(spec, backend="fluid")
        b = traced_run(spec, backend="detailed")
        # An absurdly tight tolerance cannot hide a single ULP of divergence
        # unless the values are bitwise equal; either outcome is legitimate,
        # but the documented tolerance must always pass.
        assert not compare_fidelity_runs(a, b, tolerance=FIDELITY_ABS_TOL)

    def test_loose_target_selects_level_zero_and_still_agrees(self):
        # Regression: a loose target makes the threshold selection pick zero
        # purification rounds; the detailed backend must then skip its queue
        # purifiers (not clamp to depth 1) so both backends report the
        # arrival fidelity at level 0.
        spec = get_scenario("smoke").with_noise({"target_fidelity": 0.99})
        assert not verify_fidelity(spec)
        for backend in ("fluid", "detailed"):
            fidelities = traced_run(spec, backend=backend).of_kind(ChannelFidelity.kind)
            assert {record.purification_level for record in fidelities} == {0}
            assert all(record.delivered_fidelity >= 0.99 for record in fidelities)

    def test_needs_two_backends(self):
        with pytest.raises(ScenarioError, match="at least two backends"):
            verify_fidelity(get_scenario("smoke"), backends=("fluid",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ScenarioError, match="unknown backends"):
            verify_fidelity(get_scenario("smoke"), backends=("fluid", "quantum"))


class TestFidelityCli:
    def test_verify_fidelity_reports_agreement(self, capsys):
        code = main(["verify", "fidelity", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 agreed, 0 diverged" in out

    def test_verify_fidelity_custom_tolerance(self, capsys):
        code = main(["verify", "fidelity", "smoke", "--tolerance", "0.5"])
        assert code == 0
        assert "tolerance 0.5" in capsys.readouterr().out
