"""Riemannian L-BFGS descent over K x r isometries, V^+ V = I (the complex Stiefel manifold).

:func:`segrent.convex_roof.roof_F` imports this module only when it searches, so the
commands that never search do not compile it at start-up.
"""

from __future__ import annotations

import math

import numpy as np

_VALUE_FLOOR = 1e-12     # objectives are nonnegative; a descent stops at ~0
_MEMORY = 8              # (s, y) pairs the L-BFGS descent keeps
_CURVATURE = 1e-12       # a pair is kept only if <s, y> > _CURVATURE |s| |y|
_ARMIJO = 1e-4           # sufficient decrease: f(t) <= f + _ARMIJO t <grad, d>
_LINE_TRIALS = 30        # trial points t = 1, 1/2, ... of one line search


def _retract(z: np.ndarray) -> np.ndarray:
    """Isometry V = Q diag(phase(diag R)) of z = QR: continuous in z, and I maps to I."""
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    return q * (d / np.abs(d))


def _vdot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space {xi : V^+ xi + xi^+ V = 0} at the isometry v."""
    a = v.conj().T @ g
    return g - v @ ((a + a.conj().T) / 2.0)


def _direction(v, g, pairs) -> np.ndarray:
    """L-BFGS direction -H g from the (s, y) pairs re-projected onto the tangent space at v."""
    pairs = [(s, y, _vdot(s, y)) for s, y in ((_tangent(v, s), _tangent(v, y)) for s, y in pairs)]
    pairs = [p for p in pairs if p[2] > 0.0]
    q, alphas = g, []
    for s, y, sy in reversed(pairs):
        alphas.append(_vdot(s, q) / sy)
        q = q - alphas[-1] * y
    if pairs:           # H_0 = <s, y> / <y, y> of the newest pair
        q = q * (pairs[-1][2] / _vdot(pairs[-1][1], pairs[-1][1]))
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q = q + (a - _vdot(y, q) / sy) * s
    return -q


def _descend(value, grad, v0: np.ndarray, max_iters: int, trace: list):
    """Riemannian L-BFGS descent of ``value`` over the isometries from v0. ``grad`` gives the
    Euclidean gradient for Re tr(A^+ B), projected here onto the tangent space at each
    point. An iteration is one Armijo line search along the L-BFGS direction d (-grad while
    the memory is empty) over _retract(v + t d), t = 1, 1/2, ... for at most _LINE_TRIALS
    trials. Returns (v, value, iterations, stop), stop being "floor" (the value reached ~0),
    "step" (the line search found no decrease, or d was not a descent direction) or
    "max_iters"; appends each iteration's value to ``trace``."""
    v, fval = v0, value(v0)
    g, pairs, iters, stop = _tangent(v0, grad(v0)), [], 0, "max_iters"
    while iters < max_iters and fval > _VALUE_FLOOR and stop != "step":
        d = _direction(v, g, pairs)
        slope, iters, t = _vdot(g, d), iters + 1, 1.0
        for _ in range(_LINE_TRIALS if slope < 0.0 else 0):
            trial = _retract(v + t * d)
            f_trial = value(trial)
            if fval - f_trial >= -_ARMIJO * t * slope:      # also a strict decrease
                g_trial = _tangent(trial, grad(trial))
                s, y = _tangent(trial, trial - v), g_trial - _tangent(trial, g)
                if _vdot(s, y) > _CURVATURE * math.sqrt(_vdot(s, s) * _vdot(y, y)):
                    pairs = (pairs + [(s, y)])[-_MEMORY:]
                v, fval, g = trial, f_trial, g_trial
                break
            t *= 0.5
        else:
            stop = "step"
        trace.append(fval)
    return v, fval, iters, "floor" if fval <= _VALUE_FLOOR else stop
