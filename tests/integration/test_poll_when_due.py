"""Differential test: the lean poll, landing and scan paths change nothing.

``SgxDriver.access``, ``SgxDriver.sip_prefetch`` and ``SgxDriver.poll``
skip ``SharedPlatform.poll``, and the fault, SIP and scan paths skip
``LoadChannel.advance_to``, while ``now`` is before both the next scan
and ``channel.due``; a fault on an idle channel skips its in-flight and
queued-burst probes.  A one-owner platform lands loads straight on its
driver, and a full EPC lands a page in its CLOCK victim's frame and
ring slot with one ``Epc.swap`` and one ``ClockEvictor.note_swap``.
The scan ages and credits only the pages ``access`` recorded as
touched since the previous scan.

The forced run undoes all of that: a channel whose ``due`` always reads
0 makes every entry point poll, advance and probe; every landing is
routed through ``SharedPlatform._on_load``; each swap runs as the
evict, note_evict, insert and note_insert it replaces (the EPC and the
ring keep disjoint state, so how the two pairs interleave is moot); and
every scan counts every owner's credited bytes over the whole status
table and ages the whole table with one translation, ignoring (and
clearing) the touched list.  Every manifest must be byte-identical
either way.
"""

import dataclasses
import json

import pytest

from repro.core.config import SimConfig
from repro.core.schemes import SCHEME_NAMES
from repro.enclave.driver import SgxDriver
from repro.enclave.epc import PAGE_ACCESSED, PAGE_RESIDENT, Epc
from repro.enclave.eviction import ClockEvictor
from repro.enclave.loader import LoadChannel
from repro.enclave.platform import _PAGE_CREDITED, SharedPlatform
from repro.obs.manifest import build_manifest
from repro.sim.engine import prepare_sip_plan, simulate
from repro.sim.fleet import EPC_POLICIES, build_scenario, simulate_fleet
from repro.sim.tracecache import materialize
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

#: Small enough that the whole registry × scheme grid runs in seconds.
SCALE = 64

#: Whole-table scan aging: every accessed byte becomes a clean resident
#: one (the credit, if any, was just taken); other bytes pass unchanged.
_SCAN_AGING = bytes(
    PAGE_RESIDENT if code & PAGE_ACCESSED else code for code in range(8)
) + bytes(range(8, 256))


class AlwaysDueChannel(LoadChannel):
    """A channel that always has work due: every poll and advance runs."""

    due = property(lambda self: 0, lambda self, value: None)


def _swap_by_evict_insert(self, victim, page, *, preloaded=False):
    code = self.evict(victim)
    self.insert(page, preloaded=preloaded)
    return code


def _note_swap_by_evict_insert(self, victim, page):
    self.note_evict(victim)
    self.note_insert(page)


def _scan_counting_every_owner(self, now):
    status = self.epc.status_table
    credits = [status.count(_PAGE_CREDITED, lo, hi) for lo, hi, _driver in self._owners]
    status[:] = status.translate(_SCAN_AGING)
    self.touched.clear()
    for (_lo, _hi, driver), credited in zip(self._owners, credits):
        driver._after_scan(now, credited)


def _always_polling(monkeypatch):
    """Force the paths the lean ones skip (see the module docstring)."""
    monkeypatch.setattr("repro.enclave.platform.LoadChannel", AlwaysDueChannel)
    register = SharedPlatform.register

    def routed_register(self, driver):
        register(self, driver)
        self.channel.apply_load = self._on_load

    monkeypatch.setattr(SharedPlatform, "register", routed_register)
    monkeypatch.setattr(Epc, "swap", _swap_by_evict_insert)
    monkeypatch.setattr(ClockEvictor, "note_swap", _note_swap_by_evict_insert)
    monkeypatch.setattr(SharedPlatform, "_scan", _scan_counting_every_owner)


def _dump(manifest) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True)


def _counting(monkeypatch, cls, name, calls):
    real = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


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


def test_forced_run_really_routes_and_evicts_the_old_way(monkeypatch):
    """Guard for the oracle: the forced run lands every load through
    ``_on_load`` and evicts through ``Epc.evict``; the lean run does
    neither, and swaps instead."""
    config = SimConfig.scaled(SCALE)
    workload = build_workload("lbm", scale=SCALE)
    calls = {}
    for cls, name in (
        (SgxDriver, "_apply_load"),
        (SharedPlatform, "_on_load"),
        (Epc, "evict"),
        (Epc, "swap"),
    ):
        _counting(monkeypatch, cls, name, calls)
    lean = simulate(workload, config, "dfp").stats
    landings = calls["_apply_load"]
    assert lean.evictions > 0
    assert calls == {"_apply_load": landings, "swap": lean.evictions}
    calls.clear()
    _always_polling(monkeypatch)
    forced = simulate(workload, config, "dfp").stats
    assert calls == {
        "_apply_load": landings,
        "_on_load": landings,
        "evict": forced.evictions,
    }


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
