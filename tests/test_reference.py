"""Every analytic key of the report against the 50-digit reference chain."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_dde import AnalysisConfig, ModelParams, PRESETS, analyze_params
from hopf_dde.config import SimSpec
from hopf_dde.report import parse_report, render_report

import reference_mp as ref
from reference_values import CASES

_CFG = AnalysisConfig(sim=SimSpec(enabled=False))
_KEYS = ("equilibrium.", "char.", "candidates.", "hopf.", "nf.", "rh_stable")


def reference_keys(p, br):
    """Report key -> reference Sized, count or label for the branch br of
    p, each stage fed the package's floats for its inputs.

    A key's bound is its Sized's running error bound s: a float
    evaluation of the definitional chain from the same inputs lies within
    u s of it to first order, and the package's closed forms and
    identities round no worse; s / |value| is the key's condition number.
    Three kinds of key carry more, set here:
    - x20, y20, rho1..rho3 carry (2 T + 1) s: _hill_log rounds
      t = ln a - n ln y10, whose terms sum to T = |ln a| + n |ln y10|, so
      f and 1 - f carry up to 2 T u, relative, into every term;
    - y10 carries ((2 T + 16) cond + 4) y10, cond = 2 x10/(y10 g'(y10)):
      the package's rounded y1-balance test, two terms of size x10 that
      carry the Hill term's error and a few roundings, errs by up to
      (2 T + 16) u x10, which moves the float where it flips by cond
      times that, relative, and the flip is two floats (4 u y10) wide;
    - g21, which the reference forms from the centre-manifold
      coefficients, carries the bound of the package's formula
      2 C1 - (i/omega)(g20 g11 - 2|g11|^2 - |g02|^2/3) on the reference's
      values: its terms' sizes over g21.re are g21.re's condition number.
    A label is None where the reference's sign is within its bound.
    """
    y10, cond = ref.y1_balance_root(p, br.eq.y10)
    T = abs(math.log(p.a)) + p.n * abs(math.log(br.eq.y10))
    eq = ref.equilibrium(p, br.eq.y10)
    out = {"equilibrium." + k: ref.Sized(x.v, (2 * T + 1) * x.s)
           for k, x in eq._asdict().items()}
    out["equilibrium.x10"] = eq.x10
    out["equilibrium.y10"] = ref.Sized(y10, float(((2 * T + 16) * cond + 4) * y10))
    cc = ref.char_coeffs(p, br.eq)
    out |= {"char." + k: x for k, x in cc._asdict().items()}
    out["rh_stable"] = _label(cc.margin, "false", "true")
    omega = ref.frequency(br.cc)
    out["candidates.count"] = int(omega is not None)
    if br.crossing is None or omega is None:
        return out
    taus = ref.ladder(br.crossing[0], br.cc, len(br.crossing[1]) - 1)
    out["candidates.0.omega"] = out["hopf.omega_c"] = omega
    out["candidates.0.tau.count"] = len(taus)
    out |= {f"candidates.0.tau.{k}": t for k, t in enumerate(taus)}
    hp = br.hopf
    if hp is None:
        return out
    out["hopf.tau_c"] = taus[0]
    dl, (closed, L1, L2) = ref.transversality(hp.omega_c, hp.tau_c, br.cc)
    out |= {"hopf.dlambda_dtau": dl, "hopf.dlambda_dtau_closed": closed,
            "hopf.L1": L1, "hopf.L2": L2}
    if br.nf is None:
        return out
    nf = ref.normal_form(p, br.eq, hp.omega_c, hp.tau_c, hp.dlambda_dtau,
                         hp.dlambda_dtau_closed)
    out |= {"nf." + k: x for k, x in nf._asdict().items() if isinstance(x, ref.Sized)}
    out |= {f"nf.E{j}.{k}": x for j, E in ((1, nf.E1), (2, nf.E2)) for k, x in enumerate(E)}
    i_w = ref.Sized(mpmath.mpc(0, 1)) / hp.omega_c
    printed = 2 * nf.C1 - i_w * (nf.g20 * nf.g11 - 2 * nf.g11 * nf.g11.conj()
                                 - nf.g02 * nf.g02.conj() / 3)
    out["nf.g21"] = ref.Sized(nf.g21.v, printed.s)
    out["nf.direction"] = _label(nf.mu2, "subcritical", "supercritical")
    out["nf.orbit_stability"] = _label(nf.beta2, "stable", "unstable")
    out["nf.period_trend"] = _label(nf.T2, "decreasing", "increasing")
    signs = [_label(x.re, False, True) for x in (dl, closed)]
    out["nf.transversality_conflict"] = (
        None if None in signs else str(signs[0] != signs[1]).lower())
    return out


def _label(x, negative, positive):
    return None if abs(x.v) <= x.s * 2.0**-53 else (negative, positive)[x.v > 0]


def worst_ratio(p):
    """The largest error of p's printed analytic keys over their bounds,
    and its key; fails on a printed key that the reference lacks, and on a
    count or label that differs from the reference's."""
    run = analyze_params(p, _CFG)
    printed = parse_report(render_report([run], _CFG))
    worst = (0.0, "")
    for i, br in enumerate(run.branches):
        want = reference_keys(p, br)
        pre = f"run.0.eq.{i}."
        for key, text in printed.items():
            key = key[len(pre):] if key.startswith(pre) else ""
            if not key.startswith(_KEYS):
                continue
            base, _, part = key.rpartition(".")
            x = want[base] if part in ("re", "im") else want[key]
            if not isinstance(x, ref.Sized):
                assert x is None or str(x) == text, (p, key, text, x)
                continue
            value = mpmath.mpc(x.v)
            value = value.real if part == "re" else value.imag if part == "im" else x.v
            # a value below the float range is good to the smallest normal
            err = abs(mpmath.mpf(float(text)) - value)
            worst = max(worst, (float(err / (x.s * 2.0**-53 + 2.0**-1022)), key))
    return worst


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rates=st.tuples(*[st.floats(-6.0, 0.0)] * 6), a=st.floats(-2.0, 2.0),
       n=st.sampled_from((1, 2, 4, 8, 35, 163)))
def test_report_keys_within_their_bounds(rates, a, n):
    # rates log-uniform down to 1e-6, a on [1e-2, 1e2]
    p = ModelParams(*(10.0 ** e for e in rates), a=10.0 ** a, n=n)
    ratio, key = worst_ratio(p)
    # the bounds are first order and held in floats: 1e-9 of slack for
    # both (x10 = 1/b1, one correctly rounded division, reaches 1 - 3e-15)
    assert ratio <= 1.0 + 1e-9, (p, key, ratio)


@pytest.mark.parametrize("case", list(CASES))
def test_reference_reproduces_the_frozen_cases(case):
    # CASES hold float values frozen at 17 digits. n = 164 amplifies the
    # rounding of its frozen y10 about 160-fold in f and all after it
    # (1.4e-14), and n163's delays carry its ill-conditioned ladder,
    # arg G = 1.8e-3 (3.0e-14): 5e-14 covers both; every other key agrees
    # to 4e-15
    p, want = PRESETS[case], CASES[case]
    eq = ref.equilibrium(p, ref.y1_balance_root(p)[0])
    cc = ref.char_coeffs(p, eq)
    omega = ref.frequency(cc)
    taus = ref.ladder(omega, cc, 3)
    dl, (closed, L1, L2) = ref.transversality(omega, taus[0], cc)
    got = (eq._asdict() | cc._asdict()
           | ref.normal_form(p, eq, omega, taus[0], dl, closed)._asdict()
           | dict(omega=omega, taus=taus, dl_implicit=dl, dl_closed=closed, L1=L1, L2=L2))
    for key, value in want.items():
        for w, g in zip(*([value, got[key]] if isinstance(value, list)
                          else [[value], [got[key]]])) if key != "n" else ():
            assert abs(w - g.v) <= 5e-14 * abs(g.v), (key, w, g.v)
