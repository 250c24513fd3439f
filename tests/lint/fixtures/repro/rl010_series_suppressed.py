"""RL010 fixture: the series shapes, silenced or out of scope."""

__all__ = ["sanctioned_shim", "unrelated_attributes_are_fine"]


def sanctioned_shim(telemetry, now):
    telemetry.series_tick(now)  # repro-lint: disable=RL010  test shim


def unrelated_attributes_are_fine(telemetry, block):
    # Reads of the exported block and non-series methods are not
    # emission.
    windows = len(block["window_end"])
    telemetry.block()
    return windows
