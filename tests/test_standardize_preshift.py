"""A pre-shift or mean scaling that leaves a value at or below zero names the measure."""

import numpy as np
import pytest

from ccnet import DegenerateSampleError, MeasureVector, standardize, standardize_set


def tight(name="tight"):
    """Three distinct values 1 ulp apart at -1e6: the pre-shift rounds back to 0."""
    lo = -1e6
    mid = np.nextafter(lo, 0.0)
    return MeasureVector(name, [lo, mid, np.nextafter(mid, 0.0)])


def test_tight_signed_measure_is_named():
    with pytest.raises(DegenerateSampleError, match=r"^measure 'tight': the pre-shift"):
        standardize(tight())


def test_first_measure_at_fault_is_named_in_a_set():
    ok = MeasureVector("ok", [-3.0, 1.0, 2.0])
    with pytest.raises(DegenerateSampleError, match=r"^measure 'second'"):
        standardize_set([ok, tight("second"), tight("third")])


def test_resolvable_spread_at_the_same_magnitude_still_standardises():
    sm = standardize(MeasureVector("wide", [-1e6, -1e6 + 1.0, -1e6 + 3.0]))
    assert sm.params.pre_shift > 1e6
    assert abs(sm.values.mean()) < 1e-12


@pytest.mark.parametrize("values", [
    [1e308, 1.5e308, 1.7e308, 1.1e308],  # the mean overflows
    [5e-324, 1.0, 2.0, 3.0, 1e300],  # the smallest value underflows at mean one
    [-1.7e308, 0.0, 1.0, 1.7e308],  # the pre-shift overflows
], ids=["mean-overflow", "value-underflow", "shift-overflow"])
def test_values_beyond_the_float_range_at_mean_one_are_named(values):
    with pytest.raises(DegenerateSampleError, match=r"^measure 'big': the pre-shift and mean "
                                                    r"scaling leave a non-positive value; "):
        standardize_set([MeasureVector("ok", np.arange(1.0, len(values) + 1.0)),
                         MeasureVector("big", values)])
