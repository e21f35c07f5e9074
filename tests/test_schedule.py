import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapsp.schedule import build_schedule, compute_beta


def test_beta_unweighted_case():
    # M = 1 kills the log term; with omega = 2.376 the offset term is
    # 1.376^2 / 3.376
    beta = compute_beta(256, 1, 2.376)
    assert beta == pytest.approx(1.376 ** 2 / 3.376)
    assert beta == pytest.approx(0.5608, abs=5e-4)


def test_beta_saturates_at_one():
    # beta reaches 1 exactly when M = n^(3 - omega)
    omega = 2.5
    n = 1024
    m_crit = n ** (3.0 - omega)
    assert compute_beta(n, math.ceil(m_crit), omega) == 1.0


def test_beta_monotone_in_m():
    betas = [compute_beta(512, m, 2.376) for m in (1, 2, 4, 8, 64)]
    assert betas == sorted(betas)


def test_beta_validation():
    with pytest.raises(ValueError):
        compute_beta(1, 1, 2.376)
    with pytest.raises(ValueError):
        compute_beta(8, 0, 2.376)
    with pytest.raises(ValueError):
        compute_beta(8, 1, 1.5)


def test_level_count_n256():
    sched = build_schedule(256, 1)
    # floor((1 - beta) * log2 n) = floor(0.43917 * 8) = 3, plus at most
    # one fix-up level for coverage at the small end
    top = max(lev.index for lev in sched.levels)
    assert top in (3, 4)
    assert math.floor((1.0 - sched.beta) * 8) == 3


def test_every_edge_count_covered():
    for (n, m) in ((16, 1), (16, 4), (64, 2), (128, 8), (256, 1), (100, 3)):
        sched = build_schedule(n, m)
        for c in range(1, sched.t_far):
            assert any(lev.t / 2.0 <= c < lev.t for lev in sched.levels), (n, m, c)


def test_schedule_shapes():
    sched = build_schedule(64, 4)
    assert sched.t_far == math.ceil(64 ** (1 - sched.beta))
    ts = [lev.t for lev in sched.levels]
    for a, b in zip(ts, ts[1:]):
        assert b == pytest.approx(a / 2)
    for lev in sched.levels:
        assert lev.k >= 1
        assert lev.gamma >= 0
    ks = [lev.k for lev in sched.levels]
    assert ks == sorted(ks, reverse=True)
    # rounding up by k overshoots by at most 2(k - 1), so this margin
    # makes rejection beyond d + K safe at every level
    assert sched.K >= 2 * max(ks) - 2
    assert sched.K >= 2


def test_forced_beta_and_levels():
    # a forced beta sets the level count as a computed one would:
    # floor((1 - beta) log2 n) + 1 levels cover every edge count below
    # t_far = ceil(n^(1 - beta)) = 8
    sched = build_schedule(64, 2, force_beta=0.5)
    assert sched.beta == 0.5
    assert sched.t_far == 8
    assert len(sched.levels) == 4
    with pytest.raises(ValueError):
        build_schedule(64, 2, force_beta=1.5)


def test_schedule_is_built_once_per_arguments():
    # a pure function of its arguments, returning a frozen value: repeated
    # calls share the cached instance, and other arguments get their own
    sched = build_schedule(64, 2, omega=2.5, force_beta=0.5)
    assert build_schedule(64, 2, omega=2.5, force_beta=0.5) is sched
    assert build_schedule(64, 2, omega=2.5) is not sched
    with pytest.raises(AttributeError):
        sched.K = 0


@given(st.integers(min_value=2, max_value=300),
       st.integers(min_value=1, max_value=16),
       st.floats(min_value=2.0, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_schedule_invariants_random(n, m, omega):
    sched = build_schedule(n, m, omega=omega)
    assert 0.0 <= sched.beta <= 1.0
    assert sched.t_far >= 1
    assert sched.K >= 2
    assert len(sched.levels) >= 1
    for c in range(1, sched.t_far):
        assert any(lev.t / 2.0 <= c < lev.t for lev in sched.levels)
