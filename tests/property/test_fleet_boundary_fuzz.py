"""Boundary fuzzing: fleet inputs fail only with the library's typed errors.

``SloSpec.parse`` and the ``TenantSpec``, ``RequestProfile`` and
``FleetScenario`` constructors are where a user's input enters the
fleet simulator.  Whatever they are handed, they either build a value
whose cycle and count fields are plain integers or raise a
:class:`~repro.errors.ReproError`: never a builtin ``TypeError`` or
``ValueError``, and never a float that a run would carry into its
output or hand to ``randrange``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schemes import SCHEME_NAMES
from repro.errors import ConfigError, ReproError, WorkloadError
from repro.obs.fleet_telemetry import SloSpec
from repro.sim.fleet import EPC_POLICIES, FleetScenario, TenantSpec
from repro.workloads.requests import RequestProfile

#: Anything a caller (or a JSON file) might put in a numeric field.
anything = st.one_of(
    st.integers(min_value=-3, max_value=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.just([1]),
)

slo_terms = st.lists(
    st.tuples(
        st.sampled_from(["wait_p99", "fault_rate", "residency", "p99", " ", ""]),
        st.sampled_from(["=", "==", ":", ""]),
        st.one_of(
            st.text(max_size=6),
            st.floats().map(repr),
            st.integers(min_value=-10, max_value=10**9).map(str),
            st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "1_0"]),
        ),
    ),
    max_size=4,
).map(lambda terms: ",".join(f"{k}{sep}{v}" for k, sep, v in terms))


def _build(factory, **fields):
    """Construct, or return the typed error; anything else escapes."""
    try:
        return factory(**fields)
    except ReproError as exc:
        return exc


def _ints_or_none(value, names, optional=()):
    for name in names:
        field = getattr(value, name)
        assert type(field) is int or (name in optional and field is None), (name, field)


@given(st.one_of(st.text(max_size=40), slo_terms))
@settings(max_examples=300)
def test_slo_parse_raises_only_typed_errors(text):
    _build(SloSpec.parse, text=text)


@given(
    st.one_of(st.sampled_from(SCHEME_NAMES + ("bogus",)), anything),
    anything,
    anything,
)
@settings(max_examples=300)
def test_tenant_spec_raises_only_typed_errors(scheme, arrival, scale):
    built = _build(TenantSpec, workload="lbm", scheme=scheme, arrival=arrival, scale=scale)
    if not isinstance(built, ReproError):
        _ints_or_none(built, ("arrival", "scale"))


@given(
    st.one_of(st.sampled_from(["poisson", "uniform", "periodic", "burst"]), anything),
    anything,
    anything,
    anything,
)
@settings(max_examples=300)
def test_request_profile_raises_only_typed_errors(kind, gap, events, cap):
    built = _build(
        RequestProfile,
        kind=kind,
        mean_gap_cycles=gap,
        events_per_request=events,
        max_requests=cap,
    )
    if not isinstance(built, ReproError):
        _ints_or_none(
            built,
            ("mean_gap_cycles", "events_per_request", "max_requests"),
            optional=("max_requests",),
        )


_OPTIONAL = ("epc_pages", "duration", "max_admitted", "rebalance_period_cycles")


@given(
    st.one_of(st.sampled_from(EPC_POLICIES + ("lru",)), anything),
    st.one_of(st.sampled_from(["ref", "train", "test"]), anything),
    st.fixed_dictionaries(
        {
            name: anything
            for name in _OPTIONAL + ("seed", "spinup_pages", "min_quota_pages")
        }
    ),
)
@settings(max_examples=300)
def test_fleet_scenario_raises_only_typed_errors(policy, input_set, fields):
    built = _build(
        FleetScenario,
        name="fuzz",
        tenants=(TenantSpec("lbm"),),
        policy=policy,
        input_set=input_set,
        **fields,
    )
    if not isinstance(built, ReproError):
        _ints_or_none(built, tuple(fields), optional=_OPTIONAL)


@pytest.mark.parametrize(
    "factory, fields, error",
    [
        (TenantSpec, {"workload": "lbm", "arrival": 1000.5}, ConfigError),
        (TenantSpec, {"workload": "lbm", "scale": True}, ConfigError),
        (
            RequestProfile,
            {"kind": "periodic", "events_per_request": 2.5, "max_requests": 3},
            WorkloadError,
        ),
        (RequestProfile, {"kind": "uniform", "mean_gap_cycles": 1000.5}, WorkloadError),
        (RequestProfile, {"max_requests": 3.0}, WorkloadError),
        (
            FleetScenario,
            {"name": "s", "tenants": (TenantSpec("lbm"),), "duration": 10.0**9},
            ConfigError,
        ),
        (
            FleetScenario,
            {"name": "s", "tenants": (TenantSpec("lbm"),), "spinup_pages": 1.5},
            ConfigError,
        ),
    ],
)
def test_non_integer_fields_are_rejected_at_construction(factory, fields, error):
    with pytest.raises(error, match="must be an integer"):
        factory(**fields)
