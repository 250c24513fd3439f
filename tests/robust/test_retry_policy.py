"""RetryPolicy and ExecutionPolicy: validation, defaults, resolution."""

import pytest

from repro.errors import ConfigError
from repro.robust import ExecutionPolicy, FaultPlan, RetryPolicy


class TestRetryPolicy:
    def test_defaults_are_the_pre_policy_behaviour(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert not policy.retries_enabled

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=0.5)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.4)
        assert policy.delay_for(4) == pytest.approx(0.5)  # capped
        assert policy.delay_for(10) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_delay=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy().delay_for(0)


class TestExecutionPolicy:
    def test_default_policy_is_not_resilient(self):
        policy = ExecutionPolicy()
        assert policy.jobs == 1
        assert not policy.is_resilient
        assert policy.timeout is None
        assert policy.max_attempts == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 4},
            {"retry": RetryPolicy(max_attempts=2)},
            {"timeout": 5.0},
            {"checkpoint_dir": "somewhere"},
            {"fault_plan": FaultPlan(crash_rate=0.1)},
        ],
    )
    def test_any_feature_makes_it_resilient(self, kwargs):
        assert ExecutionPolicy(**kwargs).is_resilient

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExecutionPolicy(jobs=0)
        with pytest.raises(ConfigError):
            ExecutionPolicy(timeout=-1.0)
        with pytest.raises(ConfigError):
            ExecutionPolicy(timeout=0.0)
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            ExecutionPolicy(resume=True)
