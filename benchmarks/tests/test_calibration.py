import time

import pytest

from calibration import REFERENCE_JOB_S, Calibration


def test_scaled_takes_out_the_jobs_and_rescales_by_the_trimmed_mean():
    calibration = Calibration()
    # One outlier at each end; 10% trimming drops one sample per end.
    calibration.samples = [0.001] + [2 * REFERENCE_JOB_S] * 8 + [0.5]
    assert calibration.job_s() == pytest.approx(2 * REFERENCE_JOB_S)
    inside = 3.0 + sum(calibration.samples)
    assert calibration.scaled(inside) == pytest.approx(1.5)
    assert calibration.scaled(3.0, jobs_inside=False) == pytest.approx(1.5)


def test_timer_samples_while_the_block_runs_and_stops_after():
    with Calibration() as calibration:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    count = len(calibration.samples)
    assert count >= 2
    time.sleep(0.25)
    assert len(calibration.samples) == count


def test_no_sample_is_an_error():
    with pytest.raises(RuntimeError):
        Calibration().scaled(1.0)
