"""Shared fixtures."""

import pytest


class LaunchLog:
    """Per-event view of one device: ``launches`` holds the
    ``LaunchRecord`` every ``Device.launch`` returned and ``intervals``
    the ``(start, end, category, utilization)`` every
    ``Timeline.record`` received, in call order."""

    def __init__(self):
        self.launches = []
        self.intervals = []


@pytest.fixture
def launch_log(monkeypatch):
    """``launch_log(dev)`` starts logging ``dev``'s launches and
    timeline records and returns the :class:`LaunchLog`.

    The device keeps per-category sums only, so a test that pins single
    launches wraps the instance's own ``launch`` and ``timeline.record``:
    the code under test runs unchanged (``LaunchProgram.replay`` looks
    ``device.launch`` up on the instance too).
    """

    def watch(dev):
        log = LaunchLog()
        launch, record = dev.launch, dev.timeline.record

        def logged_launch(*args, **kwargs):
            rec = launch(*args, **kwargs)
            log.launches.append(rec)
            return rec

        def logged_record(start, end, category, utilization=1.0):
            record(start, end, category, utilization)
            log.intervals.append((start, end, category, utilization))

        monkeypatch.setattr(dev, "launch", logged_launch)
        monkeypatch.setattr(dev.timeline, "record", logged_record)
        return log

    return watch
