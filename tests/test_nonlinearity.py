import numpy as np
import pytest

from gpmg.errors import ConfigurationError, UsageError
from gpmg.nonlinearity import Nonlinearity, f_eval, fprime_eval
from field_oracle import F_eval


def test_power_law_values():
    nl = Nonlinearity(zeta=2.0)
    t = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(f_eval(nl, t), 2.0 * t)
    assert np.allclose(fprime_eval(nl, t), 2.0)
    assert np.allclose(F_eval(nl, t), t**2)


def test_general_sigma():
    nl = Nonlinearity(zeta=3.0, sigma=1.5)
    t = np.linspace(0.1, 2.0, 7)
    assert np.allclose(f_eval(nl, t), 3.0 * t**1.5)
    assert np.allclose(F_eval(nl, t), 3.0 * t**2.5 / 2.5)


def test_fprime_matches_finite_difference():
    nl = Nonlinearity(zeta=5.0, sigma=1.3)
    t = np.linspace(0.2, 4.0, 9)
    h = 1e-6
    fd = (f_eval(nl, t + h) - f_eval(nl, t - h)) / (2 * h)
    assert np.allclose(fprime_eval(nl, t), fd, rtol=1e-7)


def test_zero_coupling_is_identically_zero():
    nl = Nonlinearity(zeta=0.0)
    t = np.linspace(0.0, 10.0, 5)
    assert np.all(f_eval(nl, t) == 0.0)
    assert np.all(F_eval(nl, t) == 0.0)


def test_validation():
    with pytest.raises(ConfigurationError):
        Nonlinearity(zeta=-1.0)
    with pytest.raises(ConfigurationError):
        Nonlinearity(zeta=1.0, sigma=0.5)
    nl = Nonlinearity(zeta=1.0)
    with pytest.raises(UsageError):
        f_eval(nl, np.array([-0.1]))

