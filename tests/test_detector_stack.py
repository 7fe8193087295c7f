"""A stacked Detector equals one single-stream Detector per row, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocpd.calibration import STREAM_CALIBRATION, run_blocks
from pocpd.detector import Detector, StepTerm, WindowConfig
from pocpd.errors import NumericalError
from pocpd.model import ChangeSpec
from pocpd.monitor import Policy
from pocpd.scenarios import built_in_scenario

from test_detector import exact_scan


def stacked(terms: list) -> StepTerm:
    return StepTerm(*(np.array([getattr(t, f) for t in terms]) for f in ("a_tilde", "u", "w")))


def random_term(rng, q: int, w=None) -> StepTerm:
    """A step term whose w, when drawn afresh, has a random rank and rcond on
    both sides of RCOND_SKIP (as in test_certified_screen_matches_exact)."""
    if w is None:
        rank = int(rng.integers(0, q + 1))
        b = rng.normal(size=(q, rank)) * 10.0 ** rng.uniform(-6, 0, size=rank)
        w = 10.0 ** rng.uniform(-3, 3) * (b @ b.T)
    a = np.zeros((q, q)) if rng.random() < 0.3 else 0.9 * rng.normal(size=(q, q)) / q
    return StepTerm(a_tilde=a, u=rng.normal(size=q), w=w)


def assert_rows_equal(stack: Detector, got, singles: list, wants: list) -> None:
    """Row r of the stack's scan, ring and bounds equals singles[r]'s."""
    for r, (det, want) in enumerate(zip(singles, wants)):
        row = got.row(r)
        assert (row.t_stat, row.tau_hat) == (want.t_stat, want.tau_hat)
        for g, w in ((row.f_hat, want.f_hat), (row.sigma_f, want.sigma_f)):
            if w is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g, w)
        if want.tau_hat is None:
            assert got.t_stat[r] == 0.0 and np.isnan(got.f_hat[r]).all()
        for name in ("_G", "_s", "_M", "_lo", "_hi"):
            np.testing.assert_array_equal(getattr(stack, name)[r], getattr(det, name))


@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([3, 7, 15]),
    rows=st.sampled_from([1, 2, 7]),
    m1=st.integers(2, 12),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_stack_equals_single_detectors(seed, q, rows, m1, data):
    """Scans, g_next, rings and certified bounds of a stack equal those of
    one detector per row.  Rows draw their own terms, so some have no
    accepted candidate while others do, and the bounds go stale between
    scans on a random subset of steps."""
    m2 = data.draw(st.integers(0, m1 - 1))
    steps = data.draw(st.integers(1, 3 * m1))
    rng = np.random.default_rng(seed)
    window = WindowConfig(m1=m1, m2=m2)
    singles = [Detector(q, window) for _ in range(rows)]
    stack = Detector(q, window, rows=rows)
    ws = [None] * rows
    for _ in range(steps):
        terms = [random_term(rng, q, w if rng.random() < 0.4 else None) for w in ws]
        ws = [t.w for t in terms]
        for det, term in zip(singles, terms):
            det.push_step(term)
        stack.push_step(stacked(terms))
        if rng.random() < 0.3:
            continue
        got = stack.scan()
        assert_rows_equal(stack, got, singles, [det.scan() for det in singles])
        live = [r for r in range(rows) if got.tau_hat[r] is not None]
        if live:
            g = stack.g_next([got.tau_hat[r] for r in live], live)
            for i, r in enumerate(live):
                np.testing.assert_array_equal(g[i], singles[r].g_next(got.tau_hat[r]))


def assert_equal_to_exact(scans: list, singles: list) -> None:
    """Each single-stream scan equals exact_scan (the full-inverse scan) of
    the detector of its stream."""
    for got, det in zip(scans, singles, strict=True):
        _, want = exact_scan(det)
        assert (got.t_stat, got.tau_hat) == (want.t_stat, want.tau_hat)
        for g, w in ((got.f_hat, want.f_hat), (got.sigma_f, want.sigma_f)):
            if w is None:
                assert g is None
            else:
                np.testing.assert_array_equal(g, w)


def tie_term(rng, q: int, prev: StepTerm) -> StepTerm:
    """A step that ties neighbouring candidates, or a full-rank one.
    Transitions are zero, so candidates k - 1 and k differ by the step-k
    term: a zero step ties them exactly, and a step adding (u / 2, w / 8)
    after one adding (u, w) gives them s'M^{-1}s equal but for rounding
    (3s and 9M against s and M)."""
    zero = np.zeros((q, q))
    draw = rng.random()
    if draw < 0.3:
        return StepTerm(zero, np.zeros(q), zero)
    if draw < 0.6:
        return StepTerm(zero, prev.u / 2, prev.w / 8)
    b = rng.normal(size=(q, q))
    return StepTerm(zero, rng.normal(size=q), b @ b.T)


@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([1, 2, 3, 7, 15]),
    rows=st.sampled_from([1, 2, 7]),
    m1=st.integers(2, 12),
    ties=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_screened_stack_equals_full_inverse_scan(seed, q, rows, m1, ties, data):
    """Each row of a stack's scan, which inverts only the candidates its
    screen keeps, equals the scan that inverts every accepted candidate of
    one detector fed that row's terms, with and without tie_term's ties."""
    m2 = data.draw(st.integers(0, m1 - 1))
    steps = data.draw(st.integers(1, 3 * m1))
    rng = np.random.default_rng(seed)
    window = WindowConfig(m1=m1, m2=m2)
    singles = [Detector(q, window) for _ in range(rows)]
    stack = Detector(q, window, rows=rows)
    terms = [StepTerm(np.zeros((q, q)), np.zeros(q), np.zeros((q, q)))] * rows
    for _ in range(steps):
        if ties:
            terms = [tie_term(rng, q, prev) for prev in terms]
        else:
            terms = [random_term(rng, q) for _ in range(rows)]
        for det, term in zip(singles, terms):
            det.push_step(term)
        stack.push_step(stacked(terms))
        if rng.random() < 0.3:
            continue
        got = stack.scan()
        assert_equal_to_exact([got.row(r) for r in range(rows)], singles)


@pytest.mark.parametrize("q", [2, 3, 7, 15])
def test_near_ties_keep_both_candidates(q):
    """50 rows whose two candidates have s'M^{-1}s equal but for rounding
    (tie_term's 3s and 9M against s and M): each row's scan equals the
    full-inverse scan.  Without its radius, the screen drops the larger of
    the two in about one row in ten."""
    rng = np.random.default_rng(q)
    zero, rows = np.zeros((q, q)), 50
    window = WindowConfig(m1=3, m2=0)
    singles = [Detector(q, window) for _ in range(rows)]
    stack = Detector(q, window, rows=rows)
    b = rng.normal(size=(rows, q, q))
    first = [StepTerm(zero, u, w) for u, w in zip(rng.normal(size=(rows, q)), b @ b.swapaxes(1, 2))]
    for terms in (first, [StepTerm(zero, t.u / 2, t.w / 8) for t in first]):
        for det, term in zip(singles, terms):
            det.push_step(term)
        stack.push_step(stacked(terms))
    got = stack.scan()
    assert all(k is not None for k in got.tau_hat)
    assert_equal_to_exact([got.row(r) for r in range(rows)], singles)


@pytest.mark.parametrize("seed, rows, steps", [(0, None, 4), (7, 2, 2)])
def test_q2_statistic_takes_the_order_of_its_row_alone(seed, rows, steps):
    """einsum sums a q = 2 statistic in another order over a stack of one
    candidate.  Seed 0: one detector whose screen keeps one of its accepted
    candidates at the 4th step; the full-inverse scan sums over all of them.
    Seed 7: row 0 of a stack has one accepted candidate at the 2nd step,
    which its full-inverse scan sums alone."""
    rng = np.random.default_rng(seed)
    singles = [Detector(2, WindowConfig(m1=6, m2=0)) for _ in range(rows or 1)]
    stack = Detector(2, WindowConfig(m1=6, m2=0), rows=rows)
    for _ in range(steps):
        terms = [random_term(rng, 2) for _ in singles]
        for det, term in zip(singles, terms):
            det.push_step(term)
        stack.push_step(stacked(terms) if rows else terms[0])
        got = stack.scan()
        assert_equal_to_exact([got] if rows is None else [got.row(r) for r in range(rows)],
                              singles)


def test_screen_inverts_few_of_the_accepted_candidates(monkeypatch):
    """A 25-row bench-p10 in-control block with random masks, 75 steps:
    the scan inverts at most 10 % of the candidates its eigenvalue screen
    accepts."""
    accepted, inverted = [], []
    screen, inv = Detector._screen, np.linalg.inv

    def counted_screen(self, slots):
        ring, ok = screen(self, slots)
        accepted.append(int(ok.sum()))
        return ring, ok

    def counted_inv(a):
        inverted.append(len(a))
        return inv(a)

    monkeypatch.setattr(Detector, "_screen", counted_screen)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    scenario = replace(
        built_in_scenario("bench-p10", policy=Policy(kind="random"), seed=0),
        n0=25, changes=(ChangeSpec.none(7),), replications=25, horizon_cap=50,
    )
    [(lengths, error)] = run_blocks(scenario, STREAM_CALIBRATION, lambda s, rec: len(rec.masks))
    assert error is None and lengths == [75] * 25
    assert len(accepted) == len(inverted) > 0
    assert sum(inverted) <= 0.1 * sum(accepted)


def test_ties_go_to_the_most_recent_k_in_each_row():
    """Row 0 ties k = 0 and k = 1 exactly, row 1 prefers k = 0, row 2 has no
    accepted candidate."""
    q, zero, eye = 3, np.zeros((3, 3)), np.eye(3)
    e = np.array([1.0, 0.0, 0.0])
    rows = [
        # k = 0: s = 2e, M = 4I, statistic 1; k = 1: s = e, M = I, statistic 1.
        [StepTerm(zero, e, 3.0 * eye), StepTerm(zero, e, eye)],
        [StepTerm(zero, 3.0 * e, eye), StepTerm(zero, 0.0 * e, eye)],
        [StepTerm(zero, e, 0.0 * eye), StepTerm(zero, e, 0.0 * eye)],
    ]
    singles = [Detector(q, WindowConfig(m1=20, m2=0)) for _ in rows]
    stack = Detector(q, WindowConfig(m1=20, m2=0), rows=len(rows))
    for step in range(2):
        for det, terms in zip(singles, rows):
            det.push_step(terms[step])
        stack.push_step(stacked([terms[step] for terms in rows]))
    got = stack.scan()
    assert got.tau_hat == (1, 0, None)
    assert got.t_stat[0] == 1.0
    assert_rows_equal(stack, got, singles, [det.scan() for det in singles])


def test_nan_in_one_row_fails_the_stack():
    rng = np.random.default_rng(3)
    stack = Detector(3, WindowConfig(m1=10, m2=0), rows=3)
    for _ in range(4):
        terms = [random_term(rng, 3, np.eye(3)) for _ in range(3)]
        stack.push_step(stacked(terms))
    assert all(k is not None for k in stack.scan().tau_hat)
    terms = [random_term(rng, 3, np.eye(3)) for _ in range(3)]
    terms[1] = StepTerm(terms[1].a_tilde, np.array([np.nan, 0.0, 0.0]), terms[1].w)
    stack.push_step(stacked(terms))
    with pytest.raises(NumericalError, match="^scan statistic is not finite"):
        stack.scan()


def test_take_copies_rows():
    """take copies rows out of a stack: the copy goes on alone and leaves
    the stack as it is."""
    rng = np.random.default_rng(4)
    window = WindowConfig(m1=6, m2=1)
    stack = Detector(3, window, rows=3)
    for _ in range(5):
        stack.push_step(stacked([random_term(rng, 3, np.eye(3)) for _ in range(3)]))
    names = ("_G", "_s", "_M", "_lo", "_hi", "_a_prev")
    before = {name: getattr(stack, name).copy() for name in names}
    alone = stack.take([1])
    assert alone.rows == 1 and alone.n == stack.n == 5
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(alone, name)[0], value[1])
    alone.push_step(stacked([random_term(rng, 3, np.eye(3))]))
    for name, value in before.items():
        np.testing.assert_array_equal(getattr(stack, name), value)
    assert alone.n == 6 and stack.n == 5
