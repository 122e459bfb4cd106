"""Registry semantics: registration, lookup, params, Scenario wiring."""

import pytest

from repro import Scenario
from repro.errors import LayoutError, ParameterError, SimulationError
from repro.scenario import scenario_config
from repro.layouts import HierarchicalLayout, LrcLayout, Raid50Layout
from repro.schemes import (
    SCHEME_REGISTRY,
    Geometry,
    Scheme,
    build_scheme_layout,
    register_scheme,
    scheme,
    scheme_names,
)


class TestRegistry:
    def test_lookup_roundtrip(self):
        for name in scheme_names():
            assert scheme(name) is SCHEME_REGISTRY[name]

    def test_unknown_scheme_lists_known_names(self):
        with pytest.raises(SimulationError, match="lrc"):
            scheme("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            @register_scheme
            class Impostor(Scheme):
                """Claims an already-taken name."""

                name = "lrc"

                def build_layout(self, geometry, **params):
                    """Never reached."""
                    raise AssertionError

    def test_unknown_param_rejected_with_declared_list(self):
        with pytest.raises(SimulationError, match="global_parities"):
            build_scheme_layout("lrc", bogus=1)

    def test_geometry_keys_split_from_scheme_knobs(self):
        layout = build_scheme_layout(
            "hierarchical", groups=5, stripe_width=4,
            inter_parities=2, intra_parities=0,
        )
        assert isinstance(layout, HierarchicalLayout)
        assert layout.n_disks == 20
        assert layout.inter_parities == 2

    def test_schemes_share_the_reference_geometry(self):
        disks = {
            name: build_scheme_layout(name).n_disks
            for name in scheme_names()
        }
        assert set(disks.values()) == {21}

    def test_layout_errors_propagate(self):
        with pytest.raises(LayoutError, match="width"):
            build_scheme_layout("lrc", groups=2, stripe_width=2)

    def test_describe_carries_the_protocol_row(self):
        row = scheme("xorbas").describe(Geometry())
        assert row["scheme"] == "xorbas"
        assert 0.0 < row["storage_efficiency"] < 1.0
        assert row["update_complexity"] >= 1
        assert row["reads_per_lost_unit"] > 0.0


class TestScenarioSchemeWiring:
    def test_scheme_builds_the_layout(self):
        s = Scenario(kind="rebuild", scheme="lrc")
        assert isinstance(s.layout, LrcLayout)
        assert s.layout.n_disks == 21

    def test_scheme_params_flow_through(self):
        s = Scenario(
            kind="rebuild", scheme="raid50",
            scheme_params={"groups": 4, "stripe_width": 5},
        )
        assert isinstance(s.layout, Raid50Layout)
        assert s.layout.n_disks == 20

    def test_replace_rederives_the_layout(self):
        s = Scenario(kind="rebuild", scheme="lrc")
        t = s.with_kind("serve")
        assert t.scheme == "lrc"
        assert isinstance(t.layout, LrcLayout)

    def test_needs_layout_or_scheme(self):
        with pytest.raises(SimulationError, match="layout= or scheme="):
            Scenario(kind="rebuild")

    def test_scheme_params_require_scheme(self):
        from repro import oi_raid

        with pytest.raises(SimulationError, match="scheme_params"):
            Scenario(
                kind="rebuild", layout=oi_raid(7, 3),
                scheme_params={"groups": 7},
            )

    def test_bad_scheme_param_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="no parameter"):
            Scenario(kind="rebuild", scheme="rep3", scheme_params={"x": 1})

    @pytest.mark.parametrize("scheme_name, knob, value, expects", [
        ("rs", "parities", "abc", "int"),
        ("rs", "parities", 2.5, "int"),
        ("rs", "parities", True, "int"),
        ("oi", "skewed", "maybe", "bool"),
        ("oi", "skewed", 1, "bool"),
    ])
    def test_wrong_typed_scheme_param_rejected_at_construction(
        self, scheme_name, knob, value, expects
    ):
        with pytest.raises(ParameterError) as caught:
            Scenario(
                kind="rebuild", scheme=scheme_name,
                scheme_params={knob: value},
            )
        assert str(caught.value) == (
            f"scheme {scheme_name!r} parameter {knob!r} "
            f"expects {expects}, got {value!r}"
        )

    def test_config_fingerprints_the_scheme(self):
        s = Scenario(
            kind="rebuild", scheme="lrc",
            scheme_params={"global_parities": 3},
        )
        cfg = scenario_config(s)
        assert cfg["scheme"] == "lrc"
        assert cfg["scheme_params"] == {"global_parities": 3}
