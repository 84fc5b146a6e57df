"""Unconstrained COBYLA as a generator: it yields each point to evaluate and receives f there.

Powell's linear-interpolation trust-region method (Powell 1994, "A direct
search optimization method that models the objective and constraint functions
by linear interpolation") in the PRIMA formulation (Zhang, arXiv:2302.13246),
with no constraints. The search keeps a simplex of n+1 points: `sim[:, n]` is
the best point (the pole), `sim[:, j]` for j < n holds the offset of vertex j
from it, and `simi` is the inverse of `sim[:, :n]`. The gradient of the linear
interpolant is g = (fval[:n] - fval[n]) @ simi, and each iteration tries the
step of length delta along -g, or moves a vertex to repair the geometry, or
shrinks rho, the resolution, until rho reaches RHOEND. The search starts at
rho = delta = RHOBEG; both radii are constants, because no run varies them.

It replays, operation for operation, PyPRIMA, the pure-Python PRIMA port
behind SciPy 1.17.1's `minimize(method="COBYLA")` called with no constraints,
down to that wrapper's first evaluation at x0 and its reuse of the last value
for a repeated point; tests/test_cobyla.py checks that both call f at the same
points. Without constraints the constraint violation is 0 everywhere, so the
merit function is f and the penalty stays at EPS: PyPRIMA's penalty update,
filter and history are left out, and so is its final choice of point, since
the caller sees every value and keeps its own best. The trust-region LP
reduces to one Givens QR of g and one step to the trust-region boundary.
Every reduction and small matrix product below is the numpy call that PRIMA
makes, on an array of the same shape and memory layout, because BLAS kernels
may fuse multiply-adds and a sum's order depends on the layout: the sums of
squares (`np.add.reduce`), the products with `simi` (`@`), the dot products
(`dot`), `np.linalg.inv`, `np.linalg.norm`, `np.hypot`, the 2-vector norm in
`_planerot`, and PRIMA's builtin `sum` over numpy scalars. Elementwise
arithmetic, comparisons, `max` of a list and `argmax`'s first-maximum rule
are written freely, in Python floats where that is cheaper at this size,
keeping numpy's NaN rules.

The search also skips work whose result it already has. PRIMA checks
after every update that simi still inverts sim (`erri_ok`); that check is a
function of sim and simi alone, and a second check of the same pair returns
the same simi and verdict, while a failed check ends the run. So the check
runs after every change to sim or simi and is skipped only when both are
unchanged since it last passed them (tests/test_cobyla_paths.py compares the
run with one that checks every time). simi @ d is formed once per trial step
and shared by the choice of the vertex to drop and the update of simi, and
the squared column lengths of sim, formed once per iteration, serve both the
geometry test and that choice.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
REALMIN = float(np.finfo(float).tiny)
REALMAX = float(np.finfo(float).max)
SQRT_REALMIN, SQRT_REALMAX_2 = math.sqrt(REALMIN), math.sqrt(REALMAX / 2.1)  # planerot's safe range
FUNCMAX = 1e30  # f is clipped to [-REALMAX, FUNCMAX], and NaN becomes FUNCMAX
ETA1, ETA2 = 0.1, 0.7  # ratio thresholds for shrinking and for expanding delta
GAMMA1, GAMMA2 = 0.5, 2.0  # delta shrink and expansion factors
GAMMA3 = 1.5  # delta at or below GAMMA3 * rho is set to rho
RHOBEG, RHOEND = 0.5, 1e-4  # the first and the last trust-region radius


def cobyla(x0, maxfun: int):
    """Minimize from x0 by COBYLA: yields each point at which f is needed, receives f there by send().

    The generator returns when the method stops: rho has reached RHOEND, the
    simplex has degenerated, x or f has become non-finite, or maxfun points
    have been evaluated (at least n+2, as PRIMA requires). A point that repeats the last evaluated one exactly is
    not yielded again; its value is reused. The yielded arrays must not be
    modified.
    """
    x = np.array(x0, dtype=np.float64)
    n = x.size
    if x.ndim != 1 or n < 1:
        raise ValueError(f"x0 must be a nonempty 1-d vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {x}")
    maxfun = max(maxfun, n + 2)
    eye = np.eye(n)

    # SciPy's wrapper evaluates f at x0 before PRIMA starts, and calls f again only at a new point
    last = [x.tolist(), (yield x)]  # the last point evaluated, as a list, and f there
    f = _moderatef(last[1])

    def evaluate(x):
        """f at x as PRIMA sees it; x is yielded unless it repeats the last point evaluated."""
        xs = x.tolist()
        if not all(map(math.isfinite, xs)):
            if any(map(math.isnan, xs)):
                return np.add.reduce(x)
            x = np.clip(x, -REALMAX, REALMAX)
            xs = x.tolist()
        if xs != last[0]:
            last[0] = xs
            last[1] = yield x
        return _moderatef(last[1])

    # initial simplex: x0 and x0 + RHOBEG e_j, the best point so far as pole
    sim = np.eye(n, n + 1) * RHOBEG
    sim[:, n] = x
    fval = np.zeros(n + 1) + REALMAX
    for k in range(n + 1):
        x = sim[:, n].copy()
        if k == 0:
            j = n
        else:
            j = k - 1
            x[j] += RHOBEG
            f = yield from evaluate(x)
        fval[j] = f
        if _stop(k, maxfun, f, x):
            return
        if j < n and fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, : j + 1] = -RHOBEG
    simi = np.linalg.inv(sim[:, :n])
    nf = n + 1

    checked = False  # _erri_ok has passed sim and simi as they are now

    def erri_ok(sim, simi):
        nonlocal checked
        simi, checked = _erri_ok(sim, simi, eye)
        return simi, checked

    def updatepole(sim, simi):
        """Make the best vertex the pole (PRIMA's findpole and updatepole): (simi, ok)."""
        phi = fval.tolist()
        phimin = min(phi)
        if not phimin < phi[n]:
            # the check gives the same answer on the same pair, and a failed one ends the run
            return (simi, True) if checked else erri_ok(sim, simi)
        jopt = next(i for i, v in enumerate(phi) if not v > phimin)
        sim[:, n] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= sim_jopt[:, None]
        simi[jopt, :] = -np.add.reduce(simi, axis=0)
        simi, ok = erri_ok(sim, simi)
        if ok:
            fval[jopt], fval[n] = fval[n], fval[jopt]
        return simi, ok

    def updatexfc(jdrop, d, simid, f, sim, simi):
        """Replace vertex jdrop by the point sim[:, n] + d with value f, then re-pole: (simi, ok).

        simid is simi @ d.
        """
        if jdrop is None:
            return simi, True
        if jdrop < n:
            sim[:, jdrop] = d
            simi_jdrop = simi[jdrop, :] / simi[jdrop, :].dot(d)
            simi -= simid[:, None] * simi_jdrop  # np.outer's products
            simi[jdrop, :] = simi_jdrop
        else:
            sim[:, n] += d
            sim[:, :n] -= d[:, None]
            sum_simi = np.add.reduce(simi, axis=0)
            simi += simid[:, None] * (sum_simi / (1 - sum(simid)))  # PRIMA's builtin sum, left to right
        simi, ok = erri_ok(sim, simi)
        if not ok:
            return simi, False
        fval[jdrop] = f
        return updatepole(sim, simi)

    rho = delta = RHOBEG
    d = None
    shortd = False
    ratio = -1
    jdrop_tr = 0
    small_radius = False
    for _ in range(10 * maxfun):
        simi, ok = updatepole(sim, simi)
        if not ok:
            return
        colsq = np.add.reduce(sim[:, :n] * sim[:, :n], axis=0).tolist()
        adequate_geo = all(v <= 4 * (delta * delta) for v in colsq)
        g = (fval[:n] - fval[n]) @ simi
        d = _trstep(g, delta)
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        # PRIMA's merit adds cpen times the constraint violation, here EPS * 0.0 = +0.0
        prerem = -d.dot(g) + 0.0
        trfail = not (prerem > 1.0e-6 * EPS * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f = _vertex_value(x, sim, fval)
            if f is None:
                f = yield from evaluate(x)
                nf += 1
            actrem = (fval[n] + 0.0) - (f + 0.0)
            ratio = _redrat(actrem, prerem)
            delta = _trrad(delta, dnorm, ratio)
            if delta <= GAMMA3 * rho:
                delta = rho
            simid = simi @ d
            jdrop_tr = _setdrop_tr(actrem > 0, d, simid, delta, rho, sim, colsq)
            simi, ok = updatexfc(jdrop_tr, d, simid, f, sim, simi)
            if not ok or _stop(nf, maxfun, f, x):
                return
        if not (shortd or trfail or ratio <= 0 or jdrop_tr is None):
            continue
        if not adequate_geo:
            colsq = np.add.reduce(sim[:, :n] * sim[:, :n], axis=0)
            if not (colsq <= 4 * (delta * delta)).all():
                jdrop_geo = np.argmax(colsq, axis=0)
                d = _geostep(simi[jdrop_geo, :], delta / 2, (fval[:n] - fval[n]) @ simi)
                x = sim[:, n] + d
                f = _vertex_value(x, sim, fval)
                if f is None:
                    f = yield from evaluate(x)
                    nf += 1
                simi, ok = updatexfc(jdrop_geo, d, simi @ d, f, sim, simi)
                if not ok or _stop(nf, maxfun, f, x):
                    return
        elif max(delta, dnorm) <= rho:
            if rho <= RHOEND:
                small_radius = True
                break
            delta = max(0.5 * rho, _redrho(rho))
            rho = _redrho(rho)
            simi, ok = updatepole(sim, simi)
            if not ok:
                return
    if d is None:
        return
    # a last short trust-region step that was never tried
    x = sim[:, n] + d
    if small_radius and shortd and np.linalg.norm(x - sim[:, n]) > 1.0e-3 * RHOEND and nf < maxfun:
        yield from evaluate(x)


def _erri_ok(sim, simi, eye):
    """PRIMA's check that simi inverts sim[:, :n], retrying with a fresh inverse: (simi, ok).

    Checking the pair it returns again gives the same simi and ok.
    """
    n = eye.shape[0]
    erri = abs(simi @ sim[:, :n] - eye).max()
    if not erri <= 0.1:  # above 0.1, or NaN
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = abs(simi_test @ sim[:, :n] - eye).max()
        if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
            simi, erri = simi_test, erri_test
    return simi, erri <= 1


def _vertex_value(x, sim, fval):
    """f at the vertex or pole (fval[n]) within 1e-4 RHOEND of x, or None if there is none."""
    n = x.size
    pole = sim[:, n]
    step = x - pole
    diff = x[:, None] - (pole[:, None] + sim[:, :n])
    distsq = np.add.reduce(diff * diff, axis=0).tolist() + [np.add.reduce(step * step)]
    dmin = min(distsq)
    # np.argmin would stop at a NaN, which is never close enough
    if dmin <= (1e-4 * RHOEND) * (1e-4 * RHOEND) and not any(map(math.isnan, distsq)):
        return fval[distsq.index(dmin)]
    return None


def _moderatef(f):
    """f as PRIMA's moderatef passes it on: NaN becomes FUNCMAX, the rest is clipped."""
    return FUNCMAX if math.isnan(f) else min(max(f, -REALMAX), FUNCMAX)


def _stop(nf, maxfun, f, x):
    """PRIMA's checkbreak with no constraints: out of evaluations, or a non-finite x or f."""
    return nf >= maxfun or not math.isfinite(f) or not all(map(math.isfinite, x.tolist()))


def _isminor(x, ref):
    """PRIMA's test that x is negligible next to ref."""
    refa = abs(ref) + 0.1 * abs(x)
    refb = abs(ref) + 0.2 * abs(x)
    return abs(ref) >= refa or refa >= refb


def _planerot(x0, x1):
    """(c, s) of the Givens rotation that takes [x0, x1] to [r, 0], as PRIMA's planerot builds them.

    x0 and x1 are finite and x1 is not 0.
    """
    a0, a1 = abs(x0), abs(x1)
    if a1 <= EPS * a0:
        return math.copysign(1.0, x0), 0.0
    if a0 <= EPS * a1:
        return 0.0, math.copysign(1.0, x1)
    if SQRT_REALMIN < min(a0, a1) and max(a0, a1) < SQRT_REALMAX_2:
        x = np.array((x0, x1))
        r = math.sqrt(x.dot(x))  # np.linalg.norm's BLAS dot, which may fuse
        return x0 / r, x1 / r
    if a0 > a1:
        t = x1 / x0
        u = math.copysign(max(1, abs(t), math.sqrt(1 + t * t)), x0)
        return 1 / u, t / u
    t = x0 / x1
    u = math.copysign(max(1, abs(t), math.sqrt(1 + t * t)), x1)
    return t / u, 1 / u


def _trstep(g, delta):
    """PRIMA's trstlp with no constraints: the step of length delta along -g, by its Givens QR path.

    g is scaled down first when it exceeds 1e12. A zero, negligible or
    non-finite gradient gives the zero step.
    """
    n = g.size
    zero = np.zeros(n)
    c = g.tolist()
    if not all(map(math.isfinite, c)):
        return zero  # c @ I in qradd_Rdiag leaves a NaN or negligible first entry: PRIMA's step is 0
    maxval = max(map(abs, c))
    if maxval > 1e12:
        scale = max(2 * REALMIN, 1 / maxval)
        c = [v * scale for v in c]
    # qradd_Rdiag(c, I): c @ I is c; entries negligible next to themselves become 0; Givens
    # rotations from the last entry up fold c onto its first, and z0 follows the first column
    # of I under them: eye[:, k] * cos + z0 * sin, row by row
    a = [abs(v) for v in c]
    cq = [0.0 if b >= b + 0.1 * b or b + 0.1 * b >= b + 0.2 * b else v for v, b in zip(c, a)]
    z0 = [0.0] * (n - 1) + [1.0]
    for k in range(n - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            # z0 is 0 above row k + 1, so row k becomes cos and each row below is scaled by sin
            cos, sin = _planerot(cq[k], cq[k + 1])
            z0[k] = cos
            for i in range(k + 1, n):
                z0[i] *= sin
            cq[k] = float(np.hypot(cq[k], cq[k + 1]))
        else:
            z0 = [0.0] * n
            z0[k] = 1.0
    # these products and PRIMA's BLAS ones may give a zero of z0 either sign; the zero drops out
    # of ss, and + 0.0 below makes every zero of d +0
    zdota = cq[0]
    if not (abs(zdota) > EPS**2 and not _isminor(zdota, a[0])):
        return zero
    # the step from 0 along sdirn to the boundary ||d|| = delta; sdirn . 0 is +-0, which drops out
    mult = -1 / zdota
    sdirn = np.array([mult * v for v in z0])
    dd = delta * delta
    ss = np.dot(sdirn, sdirn)
    if dd <= 0 or ss <= EPS * delta * delta:
        return zero
    step = math.sqrt(ss * dd) / ss  # one IEEE square root, as np.sqrt takes it
    if step <= 0 or not math.isfinite(step):
        return zero
    d = step * sdirn + 0.0
    # trstlp keeps d only if d and the multiplier of c are finite; far from overflow both are
    if not (delta < 1e290 and delta < 1e290 * zdota):
        vmult = max(0, -np.linalg.lstsq(np.array(c).reshape(n, 1), d, rcond=None)[0][0])
        if not (np.isfinite(np.add.reduce(abs(d))) and np.isfinite(vmult)):
            return zero
    return d


def _redrat(ared, pred):
    """The reduction ratio, as PRIMA's redrat defines it for a NaN or infinite reduction."""
    if math.isnan(ared):
        return -REALMAX
    if math.isnan(pred) or pred <= 0:
        return ETA1 / 2 if ared > 0 else -REALMAX
    if pred == math.inf and ared == math.inf:
        return 1
    if pred == math.inf and ared == -math.inf:
        return -REALMAX
    return ared / pred


def _trrad(delta, dnorm, ratio):
    """The next trust-region radius after a step of length dnorm with reduction ratio ratio."""
    if ratio <= ETA1:
        return GAMMA1 * dnorm
    if ratio <= ETA2:
        return max(GAMMA1 * delta, dnorm)
    return max(GAMMA1 * delta, GAMMA2 * dnorm)


def _redrho(rho):
    """The next resolution: a tenth of rho far from RHOEND, then a geometric step, then RHOEND."""
    rho_ratio = rho / RHOEND
    if rho_ratio > 250:
        return 0.1 * rho
    if rho_ratio <= 16:
        return RHOEND
    return math.sqrt(rho_ratio) * RHOEND


def _setdrop_tr(ximproved, d, simid, delta, rho, sim, colsq):
    """The vertex a trust-region point replaces, or None to keep the simplex.

    simid is simi @ d, and colsq the squared lengths of the columns of sim[:, :n].
    """
    n = d.size
    if ximproved:
        diff = sim[:, :n] - d[:, None]
        distsq = np.add.reduce(diff * diff, axis=0).tolist() + [np.add.reduce(d * d)]
    else:
        distsq = colsq + [0.0]
    scale = max(rho, delta / 10)
    scalesq = scale * scale
    score = [abs(v) for v in simid.tolist()] + [abs(1 - np.add.reduce(simid))]
    for j, dsq in enumerate(distsq):
        w = dsq / scalesq
        if not w <= 1:  # np.maximum(1, w): w itself when it is NaN
            score[j] *= w
    if not ximproved:
        score[n] = -1
    score = [-1 if math.isnan(v) else v for v in score]
    if any(v > 0 for v in score):
        return score.index(max(score))  # np.argmax: the first maximum
    if ximproved:
        return int(np.argmax(distsq))
    return None


def _geostep(row, delbar, g):
    """The geometry step of length delbar along a row of simi, signed against g."""
    d = delbar * (row / np.linalg.norm(row))
    dg = np.dot(d, g)
    return -d if -dg < dg else d
