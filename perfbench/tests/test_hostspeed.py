"""The host-speed reference that scales every reported time."""

from time import perf_counter, sleep

import pytest

import hostspeed


def test_scale_is_reference_time_over_mean_kernel_time():
    reference = hostspeed.Reference()
    reference.samples = [hostspeed.REFERENCE_S * 2, hostspeed.REFERENCE_S * 2]
    assert reference.scale == pytest.approx(0.5)


def test_scale_needs_a_sample():
    with pytest.raises(ValueError):
        hostspeed.Reference().scale


def test_keep_up_gives_the_kernel_its_share_of_the_time():
    started = perf_counter()
    reference = hostspeed.Reference(share=0.5)
    reference.keep_up()
    assert len(reference.samples) == 1
    sleep(0.2)
    reference.keep_up()
    kernel = sum(reference.samples)
    assert len(reference.samples) > 1 and all(value > 0 for value in reference.samples)
    assert kernel >= 0.5 * (perf_counter() - started - kernel) * 0.9


def test_local_scale_uses_the_samples_around_a_position():
    reference = hostspeed.Reference()
    slow, fast = hostspeed.REFERENCE_S * 2, hostspeed.REFERENCE_S
    reference.samples = [slow] * hostspeed.REACH * 2 + [fast] * hostspeed.REACH * 2
    assert reference.local_scale(hostspeed.REACH) == pytest.approx(0.5)
    assert reference.local_scale(len(reference.samples)) == pytest.approx(1.0)
    assert reference.scale == pytest.approx(hostspeed.REFERENCE_S / ((slow + fast) / 2))
