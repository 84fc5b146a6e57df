"""Paths of cobyla.py that the PyPRIMA comparisons in test_cobyla.py seldom or never reach.

The drop score of `_setdrop_tr` and the near-vertex test of `_vertex_value` are
checked against the numpy formulas PRIMA's port writes (kept here as
references) on inputs with NaN, ±inf, ties and a weight of exactly 1. A trial
point that rounds onto a vertex is driven through the generator and compared
with SciPy. The skipped `erri_ok` checks are compared with a copy of the
generator that checks after every update.
"""

from __future__ import annotations

import inspect
import math
import types

import numpy as np
from test_cobyla import assert_same_run

from qaoa_pca import cobyla as cobyla_module
from qaoa_pca.cobyla import RHOEND, _erri_ok, _setdrop_tr, _vertex_value
from qaoa_pca.optimizer import OptimizerConfig

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 2.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]


def reference_scores(ximproved, d, simid, delta, rho, sim):
    """The drop scores and squared distances as numpy arrays and np.maximum compute them."""
    n = d.size
    distsq = np.zeros(n + 1)
    if ximproved:
        diff = sim[:, :n] - d[:, None]
        distsq[:n] = np.add.reduce(diff * diff, axis=0)
        distsq[n] = np.add.reduce(d * d)
    else:
        distsq[:n] = np.add.reduce(sim[:, :n] * sim[:, :n], axis=0)
    scale = max(rho, delta / 10)
    score = np.empty(n + 1)
    score[:n] = abs(simid)
    score[n] = abs(1 - np.add.reduce(simid))
    score *= np.maximum(1, distsq / (scale * scale))
    if not ximproved:
        score[n] = -1
    return score, distsq


def reference_setdrop_tr(ximproved, d, simid, delta, rho, sim):
    """The drop choice as np.argmax makes it from the reference scores."""
    score, distsq = reference_scores(ximproved, d, simid, delta, rho, sim)
    score[np.isnan(score)] = -1
    if (score > 0).any():
        return int(np.argmax(score))
    if ximproved:
        return int(np.argmax(distsq))
    return None


def reference_vertex_index(x, sim):
    """The index np.argmin picks among the vertices and the pole, or None if it is not within 1e-4 RHOEND."""
    n = x.size
    distsq = np.empty(n + 1)
    step = x - sim[:, n]
    distsq[n] = np.add.reduce(step * step)
    diff = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
    distsq[:n] = np.add.reduce(diff * diff, axis=0)
    j = int(np.argmin(distsq))
    return j if distsq[j] <= (1e-4 * RHOEND) * (1e-4 * RHOEND) else None


def mixed(rng, shape, special_frac):
    """Normal draws at random scales, with a share of entries taken from SPECIAL."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    pick = rng.random(shape) < special_frac
    out[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return out


def setdrop_both(ximproved, d, simid, delta, rho, sim):
    colsq = np.add.reduce(sim[:, : d.size] * sim[:, : d.size], axis=0).tolist()
    got = _setdrop_tr(ximproved, d, simid, delta, rho, sim, colsq)
    return got, reference_setdrop_tr(ximproved, d, simid, delta, rho, sim)


def test_setdrop_tr_weight_of_one_and_ties_take_the_first_maximum():
    # columns of squared length 0.25 at scale 0.5 give weights of exactly 1
    sim = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    d = np.array([0.25, 0.25])
    with np.errstate(all="ignore"):
        for ximproved in (False, True):
            for simid in ([1.0, 1.0], [-1.0, 1.0], [math.inf, math.inf], [math.nan, 2.0], [0.0, -0.0],
                          [math.nan, math.nan], [1e300, -1e300], [0.5, 0.5]):
                got, want = setdrop_both(ximproved, d, np.array(simid), 0.5, 0.5, sim)
                assert got == want, (ximproved, simid, got, want)
        # a tie of two equal finite scores and of two infinite ones
        assert setdrop_both(False, d, np.array([1.0, 1.0]), 0.5, 0.5, sim)[0] == 0
        assert setdrop_both(False, d, np.array([1.0, math.inf]), 0.5, 0.5, sim)[0] == 1
        # an infinite distance times a zero score is NaN, which scores -1
        far = np.array([[math.inf, 0.0, 0.0], [0.0, 0.5, 0.0]])
        assert setdrop_both(False, d, np.array([0.0, 0.0]), 0.5, 0.5, far) == (None, None)


def test_setdrop_tr_matches_the_numpy_formula():
    rng = np.random.default_rng(100)
    seen = {"nan score": 0, "inf score": 0, "tied maximum": 0, "no positive score": 0}
    with np.errstate(all="ignore"):
        for trial in range(8000):
            n = (1, 2, 3, 5)[trial % 4]
            sim = mixed(rng, (n, n + 1), 0.15)
            d = mixed(rng, n, 0.15)
            simid = mixed(rng, n, 0.3)
            delta, rho = rng.choice([(0.5, 0.5), (0.05, 0.5), (1e-3, 1e-4), (2.0, 0.5)])
            ximproved = bool(rng.integers(2))
            got, want = setdrop_both(ximproved, d, simid, delta, rho, sim)
            assert got == want, (ximproved, sim, d, simid, delta, rho, got, want)

            score = reference_scores(ximproved, d, simid, delta, rho, sim)[0]
            seen["nan score"] += bool(np.isnan(score).any())
            score[np.isnan(score)] = -1
            seen["inf score"] += bool(np.isinf(score).any())
            seen["tied maximum"] += bool(score.max() > 0 and (score == score.max()).sum() > 1)
            seen["no positive score"] += bool(not (score > 0).any())
    assert min(seen.values()) >= 20, seen


def test_vertex_value_matches_argmin_on_nan_inf_and_ties():
    rng = np.random.default_rng(7)
    hits = misses = 0
    with np.errstate(all="ignore"):
        for trial in range(4000):
            n = int(rng.integers(1, 5))
            sim = mixed(rng, (n, n + 1), 0.1)
            fval = np.arange(n + 1, dtype=np.float64) + 10  # each value names its index
            kind = trial % 5
            if kind == 0:
                x = sim[:, n].copy()  # the pole
            elif kind == 1:
                x = sim[:, n] + sim[:, int(rng.integers(n))]  # a vertex
            elif kind == 2:
                x = sim[:, n] + sim[:, int(rng.integers(n))] + 1e-9 * rng.normal(size=n)
            elif kind == 3:
                sim[:, 0] = sim[:, n - 1]  # two equal vertices: the first is taken
                x = sim[:, n] + sim[:, 0]
            else:
                x = mixed(rng, n, 0.2)
            got = _vertex_value(x, sim, fval)
            j = reference_vertex_index(x, sim)
            assert (got is None) == (j is None), (x, sim, got, j)
            if j is not None:
                assert got == fval[j], (x, sim, got, j)
                hits += 1
            else:
                misses += 1
    assert hits > 500 and misses > 500


def test_vertex_value_never_matches_through_a_nan():
    sim = np.array([[0.5, 0.0, 1.0], [0.0, math.nan, 2.0]])
    fval = np.array([10.0, 11.0, 12.0])
    # x sits on vertex 0, but vertex 1 is NaN: np.argmin stops at the NaN, which is not close
    x = np.array([1.5, 2.0])
    assert reference_vertex_index(x, sim) is None
    assert _vertex_value(x, sim, fval) is None
    # inf - inf is NaN as well
    with np.errstate(invalid="ignore"):
        assert _vertex_value(np.array([math.inf, 2.0]), np.array([[0.5, 0.0, math.inf], [0.0, 0.5, 2.0]]), fval) is None


def test_erri_ok_twice_on_the_pair_it_returns_gives_the_same_answer():
    rng = np.random.default_rng(11)
    branches = {"passed": 0, "passed after a fresh inverse": 0, "failed": 0}
    with np.errstate(all="ignore"):
        for trial in range(600):
            n = int(rng.integers(1, 6))
            eye = np.eye(n)
            sim = rng.normal(size=(n, n + 1))
            kind = trial % 5
            if kind == 3 and n > 1:
                sim[:, 1] = sim[:, 0] + 1e-14 * rng.normal(size=n)  # nearly singular
            elif kind == 4:
                sim[rng.integers(n), 0] = math.nan  # no inverse checks out
            simi = np.linalg.inv(sim[:, :n])
            if kind == 1:
                simi = simi + rng.normal(size=(n, n)) * rng.choice([0.05, 0.3, 3.0])
            elif kind == 2:
                simi = simi.copy()
                simi[rng.integers(n), rng.integers(n)] = rng.choice([math.nan, math.inf])
            first, ok = _erri_ok(sim, simi, eye)
            again, ok_again = _erri_ok(sim, first, eye)
            assert ok_again == ok
            assert again.tobytes() == first.tobytes()
            if not ok:
                branches["failed"] += 1
            elif first is simi:
                branches["passed"] += 1
            else:
                branches["passed after a fresh inverse"] += 1
    assert all(branches.values()), branches


def test_trial_points_that_round_onto_a_vertex_match_scipy(monkeypatch):
    # near 1e13 to 1e15, x + d rounds onto the pole or a vertex, and the vertex's value is reused
    reused = []

    def counted(x, sim, fval):
        value = _vertex_value(x, sim, fval)
        reused.append(value is not None)
        return value

    monkeypatch.setattr(cobyla_module, "_vertex_value", counted)
    for scale in (1e13, 1e14, 1e15):
        for d in (1, 2, 3):
            x0 = scale * (1 + np.arange(d) / 7)

            def make_f(c=x0.copy()):
                return lambda x: float(np.sum((x - c - 0.3) ** 2))

            assert_same_run(make_f, x0, OptimizerConfig(max_evals=300))
    assert sum(reused) >= 20


def always_checking_cobyla():
    """A copy of cobyla() whose updatepole re-checks simi even when sim and simi are unchanged."""
    source = inspect.getsource(cobyla_module)
    skip = "(simi, True) if checked else erri_ok(sim, simi)"
    assert source.count(skip) == 1
    module = types.ModuleType("cobyla_always_checking")
    exec(compile(source.replace(skip, "erri_ok(sim, simi)"), cobyla_module.__file__, "exec"), module.__dict__)
    return module


def drive(module, f, x0, maxfun):
    """The points the generator yields and simi as it stands at each, with the number of checks."""
    checks = []
    check = module._erri_ok

    def counted(sim, simi, eye):
        checks.append(1)
        return check(sim, simi, eye)

    module._erri_ok = counted
    try:
        points, simis = [], []
        search = module.cobyla(x0, maxfun)
        try:
            x = next(search)
            while True:
                points.append(x.copy())
                simi = search.gi_frame.f_locals.get("simi")
                simis.append(None if simi is None else simi.copy())
                x = search.send(f(x))
        except StopIteration:
            pass
    finally:
        module._erri_ok = check
    return points, simis, len(checks)


def test_skipped_checks_give_the_same_points_and_simi_as_checking_every_time():
    always = always_checking_cobyla()
    skipped_total = 0
    problems = []
    for d in (1, 2, 3, 5):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        h = a @ a.T + 0.1 * np.eye(d)
        problems.append((lambda x, h=h: float(x @ h @ x + np.sin(3 * x).sum()), rng.normal(size=d), 400))
        problems.append((lambda x: float(np.abs(x - 0.3).max()), rng.normal(size=d), 400))
        problems.append((lambda x, c=1e14 * (1 + np.arange(d)): float(np.sum((x - c - 0.3) ** 2)),
                         1e14 * (1 + np.arange(d)), 200))

    for k, (f, x0, maxfun) in enumerate(problems):
        values = np.random.default_rng(k).standard_cauchy(maxfun).tolist()  # also values unrelated to x
        for make_f in (lambda: f, lambda: (lambda x, it=iter(values): next(it))):
            pts, simis, checks = drive(cobyla_module, make_f(), x0, maxfun)
            pts_all, simis_all, checks_all = drive(always, make_f(), x0, maxfun)
            assert len(pts) == len(pts_all)
            for i, (a, b) in enumerate(zip(pts, pts_all)):
                assert a.tobytes() == b.tobytes(), f"problem {k}, evaluation {i}: {a} != {b}"
            for i, (a, b) in enumerate(zip(simis, simis_all)):
                assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes()), (k, i)
            assert checks <= checks_all
            skipped_total += checks_all - checks
    assert skipped_total > 1000
