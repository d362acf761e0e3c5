"""Scenario spec codec: round-trips, validation errors, overrides, hashing."""

import dataclasses
import math
import re
import time

import pytest

from repro.errors import ScenarioError
from repro.scenarios import NoiseSpec, ScenarioSpec, apply_overrides, deep_merge, get_scenario
from repro.scenarios.spec import (
    CLOCK_US_MAX,
    GENERATOR_BANDWIDTH_SCALE_RANGE,
    MAX_OFFERED_REQUESTS,
    NOISE_FIELDS,
    PHYSICS_FIELDS,
    ROUTING_FIELDS,
    RUNTIME_FIELDS,
    TENANT_FIELDS,
    TOPOLOGY_FIELDS,
    TRAFFIC_FIELDS,
    WORKLOAD_FIELDS,
    WORKLOAD_PARAM_FIELDS,
    NetworkSpec,
    PhysicsSpec,
    RoutingSpec,
    RuntimeSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
)


def minimal(name="t"):
    return {
        "name": name,
        "topology": {"kind": "ring", "width": 9},
        "workload": {"kind": "qft", "num_qubits": 8},
    }


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = ScenarioSpec.from_dict(minimal())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_fill_missing_sections(self):
        spec = ScenarioSpec.from_dict({"name": "defaults"})
        assert spec.topology == TopologySpec()
        assert spec.workload == WorkloadSpec()
        assert spec.physics == PhysicsSpec()
        assert spec.runtime == RuntimeSpec()

    def test_params_round_trip(self):
        data = minimal()
        data["workload"] = {"kind": "random", "num_qubits": 6, "params": {"seed": 9}}
        spec = ScenarioSpec.from_dict(data)
        assert spec.workload.params == {"seed": 9}
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown keys.*frobnicate"):
            ScenarioSpec.from_dict({**minimal(), "frobnicate": 1})

    def test_unknown_section_key(self):
        data = minimal()
        data["topology"]["wormholes"] = True
        with pytest.raises(ScenarioError, match="topology has unknown keys"):
            ScenarioSpec.from_dict(data)

    def test_removed_queue_depth_knob_is_unknown(self):
        # Each channel's purification depth comes from its EPR budget, so the
        # old physics.queue_depth knob is refused like any unknown key.
        data = minimal()
        data["physics"] = {"queue_depth": 3}
        with pytest.raises(ScenarioError, match="physics has unknown keys.*queue_depth"):
            ScenarioSpec.from_dict(data)

    def test_unknown_topology_kind(self):
        data = minimal()
        data["topology"]["kind"] = "hypercube"
        with pytest.raises(ScenarioError, match="topology.kind"):
            ScenarioSpec.from_dict(data)

    def test_unknown_workload_kind(self):
        data = minimal()
        data["workload"]["kind"] = "grover"
        with pytest.raises(ScenarioError, match="workload.kind"):
            ScenarioSpec.from_dict(data)

    def test_unknown_workload_param(self):
        data = minimal()
        data["workload"]["params"] = {"rounds": 2}  # qft takes none
        with pytest.raises(ScenarioError, match="does not take parameters"):
            ScenarioSpec.from_dict(data)

    def test_topology_option_the_fabric_does_not_take(self):
        data = minimal()
        data["topology"] = {"kind": "mesh", "options": {"oversubscription": 2}}
        with pytest.raises(
            ScenarioError, match=r"topology\.options \['oversubscription'\].*accepted: none"
        ):
            ScenarioSpec.from_dict(data)
        data["topology"] = {"kind": "leaf_spine", "width": 4, "options": {"hosts_per_router": 2}}
        with pytest.raises(ScenarioError, match=r"accepted: \['hosts_per_leaf'\]"):
            ScenarioSpec.from_dict(data)

    def test_bad_types_rejected(self):
        data = minimal()
        data["topology"]["width"] = "wide"
        with pytest.raises(ScenarioError, match="topology.width must be an integer"):
            ScenarioSpec.from_dict(data)

    def test_out_of_range_rejected(self):
        data = minimal()
        data["workload"]["num_qubits"] = 1
        with pytest.raises(ScenarioError, match="workload.num_qubits must be >= 2"):
            ScenarioSpec.from_dict(data)

    def test_bool_is_not_an_integer(self):
        data = minimal()
        data["topology"]["width"] = True
        with pytest.raises(ScenarioError, match="must be an integer"):
            ScenarioSpec.from_dict(data)

    def test_bad_allocator_rejected(self):
        data = minimal()
        data["runtime"] = {"allocator": "magic"}
        with pytest.raises(ScenarioError, match="runtime.allocator"):
            ScenarioSpec.from_dict(data)

    def test_bad_routing_rejected(self):
        data = minimal()
        data["runtime"] = {"routing": "zigzag"}
        with pytest.raises(ScenarioError, match="runtime.routing"):
            ScenarioSpec.from_dict(data)

    def test_backend_defaults_to_fluid(self):
        assert ScenarioSpec.from_dict(minimal()).runtime.backend == "fluid"

    def test_backend_accepted(self):
        data = minimal()
        data["runtime"] = {"backend": "detailed"}
        spec = ScenarioSpec.from_dict(data)
        assert spec.runtime.backend == "detailed"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_bad_backend_rejected(self):
        data = minimal()
        data["runtime"] = {"backend": "quantum"}
        with pytest.raises(ScenarioError, match="runtime.backend"):
            ScenarioSpec.from_dict(data)

    def test_with_backend_round_trip(self):
        spec = ScenarioSpec.from_dict(minimal())
        detailed = spec.with_backend("detailed")
        assert detailed.runtime.backend == "detailed"
        assert detailed.spec_hash != spec.spec_hash
        with pytest.raises(ScenarioError, match="runtime.backend"):
            spec.with_backend("bogus")

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioError, match="scenario.name"):
            ScenarioSpec.from_dict({"topology": {"kind": "mesh"}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            ScenarioSpec.from_dict([1, 2, 3])

    def test_unresolved_extends_rejected(self):
        with pytest.raises(ScenarioError, match="unresolved 'extends'"):
            ScenarioSpec.from_dict({**minimal(), "extends": "paper_baseline"})

    def test_zero_bandwidth_scale_rejected(self):
        data = minimal()
        data["physics"] = {"generator_bandwidth_scale": 0}
        with pytest.raises(ScenarioError, match="generator_bandwidth_scale"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("scale", [1e-310, 1e-7, 2e6])
    def test_bandwidth_scale_outside_its_range_rejected(self, scale):
        # At 1e-310 the fluid completion times overflow and a run ends with
        # no operation completed.
        data = minimal()
        data["physics"] = {"generator_bandwidth_scale": scale}
        with pytest.raises(ScenarioError, match="physics.generator_bandwidth_scale"):
            ScenarioSpec.from_dict(data)

    def test_bandwidth_scale_range_ends_accepted(self):
        for scale in GENERATOR_BANDWIDTH_SCALE_RANGE:
            data = minimal()
            data["physics"] = {"generator_bandwidth_scale": scale}
            assert ScenarioSpec.from_dict(data).physics.generator_bandwidth_scale == scale


    def test_logical_gate_time_is_bounded_above(self):
        # At 1e20 us the clock no longer resolves a channel's time.
        data = minimal()
        data["physics"] = {"logical_gate_us": 1e20}
        with pytest.raises(ScenarioError, match="physics.logical_gate_us"):
            ScenarioSpec.from_dict(data)
        data["physics"] = {"logical_gate_us": CLOCK_US_MAX}
        assert ScenarioSpec.from_dict(data).physics.logical_gate_us == CLOCK_US_MAX


#: Each section: its dataclass, its field declarations and the keys its
#: ``from_dict`` validates by hand.
SECTIONS = [
    (TopologySpec, TOPOLOGY_FIELDS, {"options"}),
    (WorkloadSpec, WORKLOAD_FIELDS, {"params"}),
    (PhysicsSpec, PHYSICS_FIELDS, set()),
    (NoiseSpec, NOISE_FIELDS, set()),
    (TenantSpec, TENANT_FIELDS, set()),
    (TrafficSpec, TRAFFIC_FIELDS, {"tenants"}),
    (RoutingSpec, ROUTING_FIELDS, set()),
    (NetworkSpec, {}, {"routing"}),
    (RuntimeSpec, RUNTIME_FIELDS, set()),
]


#: Every float field of the tables, as (scenario, dotted path).
FLOAT_FIELDS = [
    (base, f"{prefix}.{key}")
    for base, prefix, fields in [
        ("smoke", "physics", PHYSICS_FIELDS),
        ("smoke", "noise", NOISE_FIELDS),
        ("smoke", "network.routing", ROUTING_FIELDS),
        ("mesh_modexp", "workload.params", WORKLOAD_PARAM_FIELDS),
        ("service_smoke", "traffic", TRAFFIC_FIELDS),
        ("service_smoke", "traffic.tenants.bulk", TENANT_FIELDS),
    ]
    for key, decl in fields.items()
    if decl.kind is float
]


class TestDeclarations:
    def test_no_other_table_has_a_float_field(self):
        tables = [TOPOLOGY_FIELDS, WORKLOAD_FIELDS, RUNTIME_FIELDS]
        assert not [key for table in tables for key, decl in table.items() if decl.kind is float]

    @pytest.mark.parametrize("base, path", FLOAT_FIELDS)
    def test_float_field_given_a_huge_integer_is_refused(self, base, path):
        # float(10**400) raises OverflowError, which used to escape validation.
        data = apply_overrides(get_scenario(base).to_dict(), {path: 10**400})
        if path.startswith("network.routing."):
            data["network"]["routing"]["policy"] = "ecmp"
        with pytest.raises(ScenarioError, match=re.escape(path) + " must be finite"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "cls, declared, by_hand", SECTIONS, ids=[cls.__name__ for cls, _, _ in SECTIONS]
    )
    def test_declared_and_hand_validated_keys_are_exactly_the_fields(self, cls, declared, by_hand):
        fields = [field.name for field in dataclasses.fields(cls)]
        assert not set(declared) & by_hand
        assert sorted({*declared, *by_hand}) == sorted(fields)

    @pytest.mark.parametrize(
        "base, field, value",
        [
            ("smoke", "topology.width", 100_000),
            ("smoke", "physics.protocol", "foo"),
            ("service_smoke", "traffic.tenants.bulk.channels", 1_000_000),
            ("line_neighbours", "workload.params.rounds", 1_000_000),
        ],
    )
    def test_specs_that_never_finished_fail_validation_at_once(self, base, field, value):
        # Width 100,000 never finished machine build, a million channels per
        # request ran for over 40 s, a million nearest-neighbour rounds did
        # not finish in 30 s even under runtime.max_events, and an unknown
        # protocol got as far as machine build before failing without naming
        # the field.
        changes = {field: value}
        if field.endswith(".channels"):
            changes[field.replace(".channels", ".max_channels")] = value
        data = apply_overrides(get_scenario(base).to_dict(), changes)
        started = time.perf_counter()
        with pytest.raises(ScenarioError, match=re.escape(field)):
            ScenarioSpec.from_dict(data)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "base, field, value",
        [
            ("torus_permutation", "workload.params.seed", 1.5),
            ("torus_permutation", "workload.params.seed", True),
            ("mesh_modexp", "workload.params.split", 2.0),
            ("mesh_modexp", "workload.params.split", -1),
            ("mesh_modexp", "workload.params.split", "x"),
            ("mesh_modexp", "workload.params.split", float("nan")),
        ],
    )
    def test_workload_seed_and_split_are_validated(self, base, field, value):
        # A fractional or boolean seed ran as another seed under its own spec
        # hash, a split outside (0, 1) was clamped when the stream was built,
        # and a non-numeric split failed only there.
        with pytest.raises(ScenarioError, match=re.escape(field)):
            ScenarioSpec.from_dict(apply_overrides(get_scenario(base).to_dict(), {field: value}))


def _service(overrides):
    """service_smoke (tenants ``bulk``, poisson, and ``latency``, fixed) with overrides."""
    return ScenarioSpec.from_dict(apply_overrides(get_scenario("service_smoke").to_dict(), overrides))


class TestTrafficBounds:
    """Service mode draws every request before the engine starts, so a spec
    whose stream would not fit must fail validation, naming its fields."""

    def test_endless_horizon_rejected(self):
        with pytest.raises(ScenarioError, match=r"traffic\.duration_us must be <= 10000000000000\.0, got 1e\+300"):
            _service({"traffic.duration_us": 1e300})

    def test_horizon_is_bounded_by_the_clock(self):
        # Gaps at 1/1000 of the horizon keep the offered load at 2,000
        # requests, so only the clock bound can refuse these horizons.
        def horizon(duration):
            return {
                "traffic.duration_us": duration,
                "traffic.tenants.bulk.mean_interarrival_us": duration / 1000,
                "traffic.tenants.latency.mean_interarrival_us": duration / 1000,
            }

        for duration in (1e300, math.nextafter(CLOCK_US_MAX, math.inf)):
            with pytest.raises(ScenarioError, match=r"traffic\.duration_us must be <= 10000000000000\.0"):
                _service(horizon(duration))
        assert _service(horizon(CLOCK_US_MAX)).traffic.duration_us == CLOCK_US_MAX

    def test_zero_width_gap_rejected(self):
        # expovariate(1 / 5e-324) is 0.0: the arrival clock would never move.
        with pytest.raises(ScenarioError, match=r"traffic\.tenants\.bulk\.mean_interarrival_us"):
            _service({"traffic.tenants.bulk.mean_interarrival_us": 5e-324})

    def test_mmpp_burst_factor_counts_towards_the_bound(self):
        with pytest.raises(ScenarioError, match=r"traffic\.tenants\.bulk\.burst_factor \(now 1e\+300\)"):
            _service(
                {
                    "traffic.tenants.bulk.arrival_process": "mmpp",
                    "traffic.tenants.bulk.burst_factor": 1e300,
                }
            )

    def test_mmpp_quiet_phase_must_keep_a_rate(self):
        # 1e160 * 1e150 overflows: the quiet phase would draw at rate 0.
        with pytest.raises(ScenarioError, match="outside the float range"):
            _service(
                {
                    "traffic.tenants.bulk.arrival_process": "mmpp",
                    "traffic.tenants.bulk.mean_interarrival_us": 1e160,
                    "traffic.tenants.bulk.burst_factor": 1e150,
                }
            )

    def test_mmpp_phase_count_is_bounded(self):
        with pytest.raises(ScenarioError, match=r"traffic\.tenants\.bulk\.phase_us"):
            _service(
                {
                    "traffic.tenants.bulk.arrival_process": "mmpp",
                    "traffic.tenants.bulk.phase_us": 5e-324,
                }
            )

    def test_both_ends_of_the_offered_bound(self):
        # One fixed tenant offers exactly duration / mean requests.
        at_bound = {
            "traffic.duration_us": 1e6,
            "traffic.tenants.latency.mean_interarrival_us": 1e6 / (MAX_OFFERED_REQUESTS - 1),
            "traffic.tenants.bulk.mean_interarrival_us": 1e6,
        }
        assert _service(at_bound).traffic.duration_us == 1e6
        past = {**at_bound, "traffic.tenants.bulk.mean_interarrival_us": 1e6 / 1.5}
        with pytest.raises(ScenarioError, match="traffic.duration_us"):
            _service(past)

    def test_both_ends_of_the_phase_bound(self):
        mmpp = {"traffic.tenants.bulk.arrival_process": "mmpp", "traffic.duration_us": 4000.0}
        at_bound = {**mmpp, "traffic.tenants.bulk.phase_us": 4000.0 / MAX_OFFERED_REQUESTS}
        assert _service(at_bound).traffic.tenants["bulk"].phase_us == 4000.0 / MAX_OFFERED_REQUESTS
        past = {**mmpp, "traffic.tenants.bulk.phase_us": 4000.0 / (2 * MAX_OFFERED_REQUESTS)}
        with pytest.raises(ScenarioError, match="phase_us"):
            _service(past)


class TestNoiseSpec:
    def test_absent_noise_means_tracking_off(self):
        spec = ScenarioSpec.from_dict(minimal())
        assert spec.noise is None
        assert "noise" not in spec.to_dict()

    def test_explicit_null_noise_means_absent(self):
        spec = ScenarioSpec.from_dict({**minimal(), "noise": None})
        assert spec.noise is None

    def test_empty_noise_mapping_enables_tracking(self):
        spec = ScenarioSpec.from_dict({**minimal(), "noise": {}})
        assert spec.noise == NoiseSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_noise_fields_round_trip(self):
        data = {**minimal(), "noise": {"base_fidelity": 0.99, "target_fidelity": 0.999}}
        spec = ScenarioSpec.from_dict(data)
        assert spec.noise.base_fidelity == 0.99
        assert spec.noise.target_fidelity == 0.999
        assert spec.noise.gate_error is None
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_noise_key_rejected(self):
        with pytest.raises(ScenarioError, match="noise has unknown keys"):
            ScenarioSpec.from_dict({**minimal(), "noise": {"temperature": 4}})

    def test_out_of_range_noise_rejected(self):
        for key, bad in (
            ("base_fidelity", 0.0),
            ("base_fidelity", 1.5),
            ("gate_error", 1.0),
            ("measurement_error", -0.1),
            ("target_fidelity", 1.0),
            ("target_fidelity", 0.0),
        ):
            with pytest.raises(ScenarioError, match=f"noise.{key}"):
                ScenarioSpec.from_dict({**minimal(), "noise": {key: bad}})

    def test_non_finite_noise_rejected(self):
        # Regression: NaN slips through bare range checks (all comparisons
        # are False), so the codec must reject non-finite floats explicitly.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ScenarioError, match="must be finite"):
                ScenarioSpec.from_dict({**minimal(), "noise": {"gate_error": bad}})

    def test_non_finite_physics_floats_rejected(self):
        data = minimal()
        data["physics"] = {"logical_gate_us": float("nan")}
        with pytest.raises(ScenarioError, match="must be finite"):
            ScenarioSpec.from_dict(data)

    def test_with_noise_round_trip(self):
        spec = ScenarioSpec.from_dict(minimal())
        noisy = spec.with_noise({"base_fidelity": 0.995})
        assert noisy.noise.base_fidelity == 0.995
        assert noisy.spec_hash != spec.spec_hash
        assert noisy.with_noise(None) == spec
        with pytest.raises(ScenarioError, match="noise"):
            spec.with_noise({"bogus": 1})

    def test_noise_sweepable_as_dotted_override(self):
        data = apply_overrides(minimal(), {"noise.base_fidelity": 0.99})
        spec = ScenarioSpec.from_dict(data)
        assert spec.noise is not None
        assert spec.noise.base_fidelity == 0.99


class TestSpecHash:
    def test_name_and_description_do_not_affect_hash(self):
        a = ScenarioSpec.from_dict({**minimal("a"), "description": "x"})
        b = ScenarioSpec.from_dict({**minimal("b"), "description": "y"})
        assert a.spec_hash == b.spec_hash

    def test_content_changes_hash(self):
        a = ScenarioSpec.from_dict(minimal())
        data = minimal()
        data["workload"]["num_qubits"] = 6
        b = ScenarioSpec.from_dict(data)
        assert a.spec_hash != b.spec_hash

    def test_layout_aliases_normalise_to_one_hash(self):
        hashes = set()
        for alias in ("home_base", "homebase"):
            data = minimal()
            data["runtime"] = {"layout": alias}
            spec = ScenarioSpec.from_dict(data)
            assert spec.runtime.layout == "home_base"
            hashes.add(spec.spec_hash)
        assert len(hashes) == 1


class TestOverrides:
    def test_dotted_override(self):
        data = apply_overrides(minimal(), {"topology.kind": "mesh", "physics.purifiers": 2})
        assert data["topology"]["kind"] == "mesh"
        assert data["physics"]["purifiers"] == 2
        # The original is untouched.
        assert minimal()["topology"]["kind"] == "ring"

    def test_override_into_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="descends into non-mapping"):
            apply_overrides({"name": "x"}, {"name.deep": 1})

    def test_deep_merge_merges_sections(self):
        merged = deep_merge(
            {"physics": {"teleporters": 4, "purifiers": 1}},
            {"physics": {"purifiers": 2}},
        )
        assert merged == {"physics": {"teleporters": 4, "purifiers": 2}}
