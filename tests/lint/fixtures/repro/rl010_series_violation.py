"""RL010 fixture: fleet time-series emission outside simulate_fleet."""

__all__ = ["sneaky_tick", "sneaky_rebalance"]


def sneaky_tick(telemetry, now):
    telemetry.series_tick(now)


def sneaky_rebalance(telemetry, now, before, after):
    telemetry.series_rebalance(now, before, after)
