"""Property-based tests: shared-platform invariants over generated fleets.

The generator builds whole :class:`FleetScenario`s: one to four
tenants of every scheme, under every frame policy, with arrivals,
durations, admission caps, open-loop request profiles, spin-up and an
EPC from barely larger than the concurrently admitted tenants up to
their combined footprint.  SIP and hybrid tenants get a precompiled
plan and a non-empty trace (profiling an empty trace raises
``WorkloadError`` by design).  Per-tenant preload counts are not
checked: a non-DFP tenant on a shared platform reports the channel's
preloads (``tests/sim/test_fleet.py::TestSharedPlatform``).

Two properties watch the frame manager's calls: every landing stays
within its tenant's quota, and a static partition with room for every
admitted ELRANGE never evicts a live neighbour's page.
"""

import json
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.core.instrumentation import SipPlan
from repro.core.schemes import SCHEME_NAMES
from repro.enclave.platform import FrameManager
from repro.obs.fleet_telemetry import FleetTelemetry, validate_fleet_timeseries
from repro.sim.fleet import EPC_POLICIES, FleetScenario, TenantSpec, simulate_fleet
from repro.workloads.requests import RequestProfile

from tests.conftest import ScriptedWorkload

EPC = 24
INSTRUCTIONS = {0: "i0", 1: "i1"}

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=80_000),
    ),
    min_size=1,
    max_size=60,
)

request_profiles = st.builds(
    RequestProfile,
    kind=st.sampled_from(["poisson", "uniform", "periodic"]),
    mean_gap_cycles=st.integers(min_value=1, max_value=200_000),
    events_per_request=st.integers(min_value=1, max_value=8),
    max_requests=st.none() | st.integers(min_value=1, max_value=6),
)


@st.composite
def tenants(draw, index):
    scheme = draw(st.sampled_from(SCHEME_NAMES))
    sip = scheme in ("sip", "hybrid")
    pages = draw(st.integers(min_value=1, max_value=24))
    trace = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=pages - 1),
                st.integers(min_value=1, max_value=60_000),
            ),
            min_size=1 if sip else 0,
            max_size=40,
        )
    )
    workload = ScriptedWorkload(
        trace, name=f"w{index}", footprint_pages=pages, instructions=INSTRUCTIONS
    )
    plan = None
    if sip:
        instrumented = draw(st.frozensets(st.sampled_from(sorted(INSTRUCTIONS))))
        plan = SipPlan(workload=workload.name, threshold=0.05, instrumented=instrumented)
    return TenantSpec(
        workload=workload,
        scheme=scheme,
        arrival=draw(st.integers(min_value=0, max_value=300_000)),
        requests=draw(st.none() | request_profiles),
        sip_plan=plan,
    )


@st.composite
def fleet_scenarios(draw, policies=EPC_POLICIES):
    count = draw(st.integers(min_value=1, max_value=4))
    specs = tuple(draw(tenants(index)) for index in range(count))
    policy = draw(st.sampled_from(policies))
    max_admitted = draw(st.none() | st.integers(min_value=1, max_value=count))
    footprint = sum(spec.workload.footprint_pages for spec in specs)
    # A partitioned policy needs a frame per admitted tenant.
    epc = (max_admitted or count) + draw(
        st.integers(min_value=0, max_value=3)
        | st.integers(min_value=0, max_value=footprint)
    )
    rebalance = st.integers(min_value=20_000, max_value=600_000)
    config = SimConfig(
        stream_list_length=draw(st.integers(min_value=1, max_value=8)),
        load_length=draw(st.integers(min_value=1, max_value=4)),
        scan_period_cycles=draw(st.integers(min_value=50_000, max_value=400_000)),
        valve_slack=draw(st.integers(min_value=0, max_value=16)),
        sanitize=True,
    )
    return FleetScenario(
        name="property-fleet",
        tenants=specs,
        policy=policy,
        epc_pages=epc,
        duration=draw(st.none() | st.integers(min_value=1, max_value=2_000_000)),
        seed=draw(st.integers(min_value=0, max_value=3)),
        config=config,
        max_admitted=max_admitted,
        spinup_pages=draw(st.integers(min_value=0, max_value=6)),
        rebalance_period_cycles=(
            draw(rebalance)
            if policy == "adaptive-quota"
            else draw(st.none() | rebalance)
        ),
        min_quota_pages=draw(st.integers(min_value=1, max_value=8)),
    )


@st.composite
def churn_scenarios(draw):
    """Static-partition fleets whose EPC holds every admitted ELRANGE.

    An admission cap of one or two queues the tenants, and each tenant
    touches every page of its footprint, so departed tenants' pages
    fill the EPC and later tenants must evict: the footprints sum past
    the EPC.
    """
    cap = draw(st.integers(min_value=1, max_value=2))
    largest = draw(st.integers(min_value=8, max_value=40))
    epc = cap * (largest + 64) + draw(st.integers(min_value=0, max_value=8))
    specs = []
    while sum(spec.workload.footprint_pages for spec in specs) <= epc:
        index = len(specs)
        scheme = draw(st.sampled_from(SCHEME_NAMES))
        pages = largest if index == 0 else draw(
            st.integers(min_value=largest // 2, max_value=largest)
        )
        order = list(range(pages))
        draw(st.randoms(use_true_random=False)).shuffle(order)
        compute = draw(st.integers(min_value=1, max_value=60_000))
        trace = [(page % 2, page, compute) for page in order]
        workload = ScriptedWorkload(
            trace, name=f"w{index}", footprint_pages=pages, instructions=INSTRUCTIONS
        )
        plan = None
        if scheme in ("sip", "hybrid"):
            plan = SipPlan(workload=workload.name, threshold=0.05, instrumented=frozenset({0}))
        specs.append(
            TenantSpec(
                workload=workload,
                scheme=scheme,
                arrival=draw(st.integers(min_value=0, max_value=300_000)),
                sip_plan=plan,
            )
        )
    return FleetScenario(
        name="property-churn",
        tenants=tuple(specs),
        policy="static-partition",
        epc_pages=epc,
        seed=draw(st.integers(min_value=0, max_value=3)),
        config=SimConfig(
            load_length=draw(st.integers(min_value=1, max_value=4)),
            scan_period_cycles=draw(st.integers(min_value=50_000, max_value=400_000)),
            sanitize=True,
        ),
        max_admitted=cap,
        spinup_pages=draw(st.integers(min_value=0, max_value=6)),
    )


@contextmanager
def after_each(method, check):
    """Run ``check(frames, *args, result)`` after every ``FrameManager.<method>`` call."""
    original = getattr(FrameManager, method)

    def checked(frames, *args):
        result = original(frames, *args)
        check(frames, *args, result)
        return result

    with mock.patch.object(FrameManager, method, checked):
        yield


def canonical(manifest):
    return json.dumps(manifest, indent=2, sort_keys=True)


def make_pair(events_a, events_b):
    a = ScriptedWorkload(
        [tuple(e) for e in events_a],
        name="a",
        footprint_pages=61,
        instructions=INSTRUCTIONS,
    )
    b = ScriptedWorkload(
        [tuple(e) for e in events_b],
        name="b",
        footprint_pages=61,
        instructions=INSTRUCTIONS,
    )
    return a, b


def config():
    return SimConfig(epc_pages=EPC, scan_period_cycles=400_000, valve_slack=8)


def run_shared(workloads, cfg, schemes):
    scenario = FleetScenario(
        name="property-shared",
        tenants=tuple(
            TenantSpec(workload=w, scheme=s)
            for w, s in zip(workloads, schemes)
        ),
        config=cfg,
    )
    return simulate_fleet(scenario).results


@given(fleet_scenarios())
@settings(max_examples=80, deadline=None)
def test_per_enclave_accounting_exact(scenario):
    """Every tenant's time buckets sum to its clock, and every access
    is a hit or a fault."""
    for result in simulate_fleet(scenario).results:
        assert result.stats.time.total == result.total_cycles
        assert (
            result.stats.epc_hits + result.stats.faults
            == result.stats.accesses
        )


@given(fleet_scenarios())
@settings(max_examples=40, deadline=None)
def test_shared_runs_deterministic(scenario):
    first = simulate_fleet(scenario).manifest()
    second = simulate_fleet(scenario).manifest()
    assert canonical(first) == canonical(second)


@given(fleet_scenarios())
@settings(max_examples=80, deadline=None)
def test_observed_fleet_is_sanitizer_clean_reconciled_and_passive(scenario):
    """Under ``sanitize=True`` a blind and an observed run both finish
    (the sanitizer raises on any violation); the observed run's time
    series reconciles with its fleet block; and the observed manifest
    minus the time series equals the blind manifest byte for byte."""
    assert scenario.config.sanitize
    blind = simulate_fleet(scenario).manifest()
    observed = simulate_fleet(scenario, telemetry=FleetTelemetry()).manifest()
    validate_fleet_timeseries(
        observed["fleet_timeseries"], fleet_block=observed["extra"]["fleet"]
    )
    stripped = {k: v for k, v in observed.items() if k != "fleet_timeseries"}
    assert canonical(stripped) == canonical(blind)


@given(fleet_scenarios(policies=("static-partition", "adaptive-quota")))
@settings(max_examples=60, deadline=None)
def test_landings_stay_within_quota(scenario):
    """After every landing of a tenant's page, the tenant holds at most
    its quota, or one page when its quota is zero: a tenant at quota
    zero with nothing resident may insert one page."""

    def within_quota(frames, driver, page, _result):
        state = frames.tenant(driver)
        assert state.resident <= max(state.quota, 1), (page, state.resident, state.quota)

    with after_each("note_insert", within_quota):
        simulate_fleet(scenario)


@given(churn_scenarios())
@settings(max_examples=40, deadline=None)
def test_static_partition_spares_live_tenants_when_every_elrange_fits(scenario):
    """With room for every admitted tenant's whole ELRANGE, a static
    partition evicts only departed tenants' pages or the loader's own;
    the generated churn always fills the EPC, so victims are taken."""
    victims = []

    def spares_live_tenants(frames, driver, victim):
        owner = driver.platform.owner_of(victim)
        assert owner is driver or not frames.tenant(owner).active, victim
        victims.append(victim)

    with after_each("select_victim", spares_live_tenants):
        simulate_fleet(scenario)
    assert victims


@given(events, events)
@settings(max_examples=60, deadline=None)
def test_contention_never_speeds_anyone_up(events_a, events_b):
    """Sharing the EPC with a competitor can never make a baseline
    run *faster* than running alone."""
    from repro.sim.engine import simulate

    a, b = make_pair(events_a, events_b)
    solo_a = simulate(a, config(), "baseline")
    a2, b2 = make_pair(events_a, events_b)
    shared = run_shared([a2, b2], config(), ["baseline", "baseline"])
    assert shared[0].total_cycles >= solo_a.total_cycles
