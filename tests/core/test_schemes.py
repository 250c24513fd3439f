"""Unit tests for scheme construction."""

import pytest

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan
from repro.core.schemes import SCHEME_NAMES, Scheme, make_scheme
from repro.errors import ConfigError


@pytest.fixture
def config():
    return SimConfig(epc_pages=64)


@pytest.fixture
def plan():
    return SipPlan(workload="t", threshold=0.05, instrumented=frozenset({1}))


class TestMakeScheme:
    def test_all_names_buildable(self, config, plan):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name, config, sip_plan=plan)
            assert scheme.name == name

    def test_unknown_name_rejected(self, config):
        with pytest.raises(ConfigError):
            make_scheme("turbo", config)

    def test_baseline_has_no_engines(self, config):
        scheme = make_scheme("baseline", config)
        assert scheme.build_dfp() is None
        assert scheme.sip_plan is None

    def test_dfp_has_valve_disabled(self, config):
        scheme = make_scheme("dfp", config)
        assert scheme.dfp_config is not None
        assert not scheme.dfp_config.valve_enabled

    def test_dfp_stop_has_valve_enabled(self, config):
        scheme = make_scheme("dfp-stop", config)
        assert scheme.dfp_config.valve_enabled

    @pytest.mark.parametrize("valve", [True, False])
    def test_scheme_name_decides_the_valve(self, plan, valve):
        config = SimConfig(epc_pages=64, valve_enabled=valve)
        for name in ("dfp", "dfp-stop", "hybrid"):
            scheme = make_scheme(name, config, sip_plan=plan)
            assert scheme.dfp_config == config.replace(valve_enabled=name != "dfp")

    def test_sip_requires_plan(self, config):
        with pytest.raises(ConfigError):
            make_scheme("sip", config)

    def test_hybrid_enables_both(self, config, plan):
        scheme = make_scheme("hybrid", config, sip_plan=plan)
        assert scheme.dfp_enabled and scheme.sip_enabled
        assert scheme.build_dfp() is not None
        assert scheme.sip_plan is plan

    def test_sip_scheme_has_no_dfp(self, config, plan):
        scheme = make_scheme("sip", config, sip_plan=plan)
        assert not scheme.dfp_enabled
        assert scheme.build_dfp() is None

    def test_config_parameters_propagate(self, plan):
        config = SimConfig(epc_pages=64, stream_list_length=11, load_length=7)
        scheme = make_scheme("hybrid", config, sip_plan=plan)
        assert scheme.dfp_config.stream_list_length == 11
        assert scheme.dfp_config.load_length == 7


class TestSchemeInvariants:
    def test_flags_follow_the_config_and_plan(self, config, plan):
        assert not Scheme(name="x").dfp_enabled
        assert not Scheme(name="x").sip_enabled
        assert Scheme(name="x", dfp_config=config).dfp_enabled
        assert Scheme(name="x", sip_plan=plan).sip_enabled
        with pytest.raises(AttributeError):
            Scheme(name="x").dfp_enabled = True

    def test_engines_are_fresh_per_build(self, config):
        scheme = make_scheme("dfp-stop", config)
        a, b = scheme.build_dfp(), scheme.build_dfp()
        assert a is not b
        a.preload_counter = 99
        assert b.preload_counter == 0
