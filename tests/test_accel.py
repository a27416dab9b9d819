"""The numpy hot kernels behind series translation and evaluation."""

import numpy as np

from weylcalc import accel


def test_translate_kernel_wrapper_types():
    out, mags = accel.translate_kernel(np.array([1.0, 1.0]), 0.5)
    assert out.dtype == np.complex128
    assert mags.dtype == np.float64
    # (z + 0.5) shifted: coefficients [1.5, 1]
    assert np.allclose(out, [1.5, 1.0])


def test_active_backend_is_reported():
    assert accel.backend() == "numpy"
