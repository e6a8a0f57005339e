"""Invalid parameters of every closed-form kind: which error is raised, with
what message, and which check wins when two fail at once.

The order is fixed for each family: the convergence of the summed object
(the series' summability, the integrand's margin, the basic series'
annulus) is checked before the kind's own condition (a t interval,
a1 - b1 = a2 - b2, 0 < |z| <= 1).  Extra parameter keys are ignored and a
missing one raises KeyError.
"""

import pytest

from rbeta.bilateral import HKind, closed_form_H, series_spec_for
from rbeta.errors import ConstraintViolation, DomainError, PoleError
from rbeta.integrals import BetaKind, beta_integral_closed, integrand_spec_for
from rbeta.qseries import QKind, closed_form_q, psi_spec_for

SUMMABLE = "needs a summable series"
MARGIN = "needs a positive integrability margin"

H_ERRORS = [
    # t outside its interval, series summable
    (HKind.ONE_H1_MINUS_EXP, dict(a=0.3, b=1.7, t=4.0),
     ConstraintViolation, "t must lie in [-pi, pi]"),
    # t outside its interval and b - a <= 0: summability wins
    (HKind.ONE_H1_MINUS_EXP, dict(a=0.3, b=0.2, t=4.0),
     ConstraintViolation, SUMMABLE),
    (HKind.ONE_H1_PLUS_EXP, dict(a=0.3, b=1.7, t=-1.0),
     ConstraintViolation, "t must lie in [0, 2pi]"),
    (HKind.ONE_H1_PLUS_EXP, dict(a=0.3, b=0.2, t=7.0),
     ConstraintViolation, SUMMABLE),
    # at z = 1 the series needs Re sigma < -1
    (HKind.ONE_H1_PLUS_EXP, dict(a=0.3, b=0.8, t=0.0),
     ConstraintViolation, SUMMABLE),
    (HKind.GAUSS_2H2, dict(a=0.5, b=0.4, c=0.8, d=0.9),
     ConstraintViolation, SUMMABLE),
    (HKind.TWO_H2_MINUS1, dict(b1=0.1, b2=0.2, a1=0.3, a2=0.9),
     ConstraintViolation, "needs a1 - b1 = a2 - b2"),
    # unbalanced and not summable: summability wins
    (HKind.TWO_H2_MINUS1, dict(b1=-1.4, b2=-1.2, a1=-1.3, a2=-0.9),
     ConstraintViolation, SUMMABLE),
    (HKind.WELL_POISED_3H3, dict(a=0.2, b=0.5, c=0.5, d=0.5),
     ConstraintViolation, SUMMABLE),
    # Gamma(1 - a/2) at a pole, series summable
    (HKind.WELL_POISED_3H3, dict(a=2.0, b=0.5, c=0.5, d=0.5),
     PoleError, "gamma"),
    (HKind.VWP_4H4_MINUS1, dict(a=0.2, b=0.5, c=0.5, d=0.5),
     ConstraintViolation, SUMMABLE),
    (HKind.VWP_5H5, dict(a=0.2, b=0.5, c=0.5, d=0.5, e=0.5),
     ConstraintViolation, SUMMABLE),
]

BETA_ERRORS = [
    (BetaKind.RAMANUJAN_M2, dict(a1=-0.8, a2=-0.5, b1=-0.5, b2=0.2),
     ConstraintViolation, MARGIN),
    # a1 + b1 + 1 = 0 with a positive margin
    (BetaKind.RAMANUJAN_M2, dict(a1=-0.5, b1=-0.5, a2=0.5, b2=0.5),
     PoleError, "gamma"),
    (BetaKind.RAMANUJAN_M2_COS, dict(a1=0.1, a2=0.5, b1=0.2, b2=0.3),
     ConstraintViolation, "needs a1 - b1 = a2 - b2"),
    # nonpositive margin and a1 - b1 != a2 - b2: the margin wins
    (BetaKind.RAMANUJAN_M2_COS, dict(a1=-0.9, a2=-0.2, b1=-0.6, b2=-0.4),
     ConstraintViolation, MARGIN),
    (BetaKind.M3_COS, dict(a=-0.8, b1=-0.3, b2=-0.2, b3=-0.4),
     ConstraintViolation, MARGIN),
    (BetaKind.M3_PLAIN, dict(c1=-0.5, c2=-0.4, c3=-0.3),
     ConstraintViolation, MARGIN),
    (BetaKind.M4_PLAIN, dict(c1=-0.5, c2=-0.4, c3=-0.3, c4=-0.4),
     ConstraintViolation, MARGIN),
    (BetaKind.M4_VWP, dict(a=-0.5, b1=-0.1, b2=-0.2, b3=0.1),
     ConstraintViolation, MARGIN),
    (BetaKind.M4_VWP_SHIFTED, dict(a=0.3, c1=-0.4, c2=-0.2, c3=0.0),
     ConstraintViolation, MARGIN),
    (BetaKind.M5_VWP, dict(a=-0.6, b1=0.1, b2=0.0, b3=-0.1, b4=0.1),
     ConstraintViolation, MARGIN),
    (BetaKind.M5_VWP_SHIFTED, dict(a=0.3, c1=-0.5, c2=-0.4, c3=-0.2, c4=0.0),
     ConstraintViolation, MARGIN),
    (BetaKind.M5_VWP_THIRD, dict(c1=-0.5, c2=-0.4, c3=-0.2, c4=0.0),
     ConstraintViolation, MARGIN),
    (BetaKind.M6_RIEMANN, dict(a1=-0.5, a2=-0.5, a3=-0.5, a4=-0.5, a5=-0.5,
                               a6=-0.5),
     ConstraintViolation, MARGIN),
]

Q_ERRORS = [
    (QKind.RAMANUJAN_1PSI1, dict(a=0.3, b=0.7, z=1.5), 0.5,
     ConstraintViolation, "Ramanujan1psi1 series: |z|=1.5 not below 1"),
    (QKind.RAMANUJAN_1PSI1, dict(a=0.3, b=0.7, z=0.5), 0.5,
     ConstraintViolation, "not above annulus bound"),
    # the annulus is checked before the product lists are formed
    (QKind.RAMANUJAN_1PSI1, dict(a=0.3, b=0.7, z=0.0), 0.5,
     ConstraintViolation, "argument must be nonzero"),
    # a bad base and a z outside the annulus: the base wins
    (QKind.RAMANUJAN_1PSI1, dict(a=0.3, b=0.7, z=1.5), 1.5,
     DomainError, "base must satisfy"),
    # z = q a^2/(bcde) = 247
    (QKind.BAILEY_6PSI6, dict(a=2.0, b=0.3, c=0.3, d=0.3, e=0.3), 0.5,
     ConstraintViolation, "Bailey6psi6 series: |z|="),
    (QKind.Q_BINOMIAL_RATIO_LIMIT, dict(alpha=0.3, beta=0.6, z=1.5), 0.5,
     ConstraintViolation, "needs 0 < |z| <= 1"),
    (QKind.Q_BINOMIAL_RATIO_LIMIT, dict(alpha=0.3, beta=0.6, z=0.0), 0.5,
     ConstraintViolation, "needs 0 < |z| <= 1"),
    (QKind.Q_BINOMIAL_RATIO_LIMIT, dict(alpha=0.3, beta=0.6, z=1.5), 0.0,
     DomainError, "base must satisfy"),
]


def _ids(cases):
    return [f"{c[0].value}-{i}" for i, c in enumerate(cases)]


@pytest.mark.parametrize("kind,params,exc,fragment", H_ERRORS,
                         ids=_ids(H_ERRORS))
def test_h_closed_form_errors(kind, params, exc, fragment):
    with pytest.raises(exc) as info:
        closed_form_H(kind, params)
    assert type(info.value) is exc
    assert fragment in str(info.value)


@pytest.mark.parametrize("kind,params,exc,fragment", BETA_ERRORS,
                         ids=_ids(BETA_ERRORS))
def test_beta_closed_form_errors(kind, params, exc, fragment):
    with pytest.raises(exc) as info:
        beta_integral_closed(kind, params)
    assert type(info.value) is exc
    assert fragment in str(info.value)
    if exc is ConstraintViolation and fragment == MARGIN:
        assert f"{kind.value} needs" in str(info.value)


@pytest.mark.parametrize("kind,params,q,exc,fragment", Q_ERRORS,
                         ids=_ids(Q_ERRORS))
def test_q_closed_form_errors(kind, params, q, exc, fragment):
    with pytest.raises(exc) as info:
        closed_form_q(kind, params, q)
    assert type(info.value) is exc
    assert fragment in str(info.value)


# -- unknown kinds, missing and extra keys -----------------------------------

VALID = [
    (closed_form_H, series_spec_for, HKind.GAUSS_2H2,
     dict(a=0.1, b=0.2, c=1.3, d=1.4)),
    (closed_form_H, series_spec_for, HKind.ONE_H1_MINUS_EXP,
     dict(a=0.3, b=1.7, t=0.4)),
    (beta_integral_closed, integrand_spec_for, BetaKind.RAMANUJAN_M2_COS,
     dict(a1=0.1, a2=0.2, b1=0.3, b2=0.4)),
    (beta_integral_closed, integrand_spec_for, BetaKind.M4_VWP_SHIFTED,
     dict(a=0.3, c1=0.1, c2=0.2, c3=0.3)),
]


@pytest.mark.parametrize("value,spec_for,kind,params", VALID,
                         ids=[c[2].value for c in VALID])
def test_extra_keys_are_ignored_and_a_missing_key_raises(value, spec_for,
                                                         kind, params):
    assert value(kind, dict(params, zz=9.0)) == value(kind, params)
    assert spec_for(kind, dict(params, zz=9.0)) == spec_for(kind, params)
    for key in params:
        short = {k: v for k, v in params.items() if k != key}
        with pytest.raises(KeyError):
            value(kind, short)
        with pytest.raises(KeyError):
            spec_for(kind, short)


def test_q_extra_keys_are_ignored_and_a_missing_key_raises():
    params = dict(a=0.3, b=0.7, z=0.85 + 0.1j)
    assert (closed_form_q(QKind.RAMANUJAN_1PSI1, dict(params, zz=9.0), 0.5)
            == closed_form_q(QKind.RAMANUJAN_1PSI1, params, 0.5))
    for key in params:
        with pytest.raises(KeyError):
            closed_form_q(QKind.RAMANUJAN_1PSI1,
                          {k: v for k, v in params.items() if k != key}, 0.5)
    with pytest.raises(KeyError):
        closed_form_q(QKind.Q_BINOMIAL_RATIO_LIMIT, dict(alpha=0.3, z=0.5),
                      0.5)


def test_unknown_kinds_raise_value_error():
    with pytest.raises(ValueError):
        closed_form_H("nope", {})
    with pytest.raises(ValueError):
        beta_integral_closed("nope", {})
    with pytest.raises(ValueError):
        closed_form_q("nope", {}, 0.5)
    # the q-binomial limit has no series
    with pytest.raises(ValueError, match="no series spec"):
        psi_spec_for(QKind.Q_BINOMIAL_RATIO_LIMIT,
                     dict(alpha=0.3, beta=0.6, z=0.5), 0.5)

