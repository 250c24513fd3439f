"""Differential test: polling only when work is due changes nothing.

``SgxDriver.access`` and ``SgxDriver.poll`` skip ``SharedPlatform.poll``,
and the fault and SIP paths skip ``LoadChannel.advance_to``, while
``now`` is before both the next scan and ``channel.due``.  A channel
whose ``due`` always reads 0 makes every entry point poll and advance
unconditionally; every manifest must be byte-identical either way.
"""

import dataclasses
import json

import pytest

from repro.core.config import SimConfig
from repro.core.schemes import SCHEME_NAMES
from repro.enclave.loader import LoadChannel
from repro.enclave.platform import SharedPlatform
from repro.obs.manifest import build_manifest
from repro.sim.engine import prepare_sip_plan, simulate
from repro.sim.fleet import EPC_POLICIES, build_scenario, simulate_fleet
from repro.sim.tracecache import materialize
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

#: Small enough that the whole registry × scheme grid runs in seconds.
SCALE = 64


class AlwaysDueChannel(LoadChannel):
    """A channel that always has work due: every poll and advance runs."""

    due = property(lambda self: 0, lambda self, value: None)


def _always_polling(monkeypatch):
    monkeypatch.setattr("repro.enclave.platform.LoadChannel", AlwaysDueChannel)


def _dump(manifest) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True)


def test_always_due_channel_really_polls_every_access(monkeypatch):
    """Guard for the oracle: under the subclass every access polls."""
    calls = []
    real_poll = SharedPlatform.poll

    def counting_poll(self, now):
        calls.append(now)
        real_poll(self, now)

    monkeypatch.setattr(SharedPlatform, "poll", counting_poll)
    config = SimConfig.scaled(SCALE)
    workload = build_workload("lbm", scale=SCALE)
    blind = simulate(workload, config, "baseline")
    polls_when_due = len(calls)
    calls.clear()
    _always_polling(monkeypatch)
    simulate(workload, config, "baseline")
    assert len(calls) == blind.stats.accesses + 1  # every access + finish
    assert polls_when_due < len(calls)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_registry_manifests_match_always_polling(name, monkeypatch):
    config = SimConfig.scaled(SCALE).replace(sanitize=True)
    workload = build_workload(name, scale=SCALE)
    trace = materialize(workload, seed=0, input_set="ref")
    plan = prepare_sip_plan(workload, config)

    def manifests():
        return [
            _dump(
                build_manifest(
                    simulate(workload, config, scheme, trace=trace, sip_plan=plan)
                )
            )
            for scheme in SCHEME_NAMES
        ]

    when_due = manifests()
    _always_polling(monkeypatch)
    assert manifests() == when_due


@pytest.mark.parametrize("policy", EPC_POLICIES)
@pytest.mark.parametrize(
    "scenario, sip_tenants", [("smoke", False), ("steady-8", False), ("smoke", True)]
)
def test_fleet_manifests_match_always_polling(
    scenario, sip_tenants, policy, monkeypatch
):
    fleet = build_scenario(scenario, policy=policy)
    if sip_tenants:
        # A SIP return lets one tenant poll ahead of another's next
        # event, so the platform's never-backwards clamp runs too.
        schemes = ("sip", "hybrid", "baseline")
        fleet = dataclasses.replace(
            fleet,
            tenants=tuple(
                dataclasses.replace(spec, scheme=schemes[i % 3])
                for i, spec in enumerate(fleet.tenants)
            ),
        )

    def manifest():
        return _dump(simulate_fleet(fleet).manifest())

    when_due = manifest()
    _always_polling(monkeypatch)
    assert manifest() == when_due
