import numpy as np
import pytest

from gpmg.errors import ConfigurationError, UsageError
from gpmg.nonlinearity import (
    F_eval,
    Nonlinearity,
    check_assumptions,
    f_eval,
    fprime_eval,
)


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


def test_check_assumptions_passes_for_cubic():
    nl = Nonlinearity(zeta=1.0)
    report = check_assumptions(nl, np.linspace(1e-4, 10.0, 50))
    assert report.all_passed
    assert "[ok]" in str(report)
    assert "FLAG" not in str(report)


def test_check_assumptions_reports_failures():
    # sigma = 2 violates the subquadratic-growth hypothesis
    nl = Nonlinearity(zeta=1.0, sigma=2.0)
    report = check_assumptions(nl, np.linspace(1e-4, 10.0, 50))
    assert not report.all_passed
