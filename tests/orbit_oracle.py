"""The tests' oracles for periodic orbits.

:func:`step` and :func:`iterate` walk the map one scalar step at a time,
independently of the batched kernel :func:`~tonguelab.cylmap.jet_pass`
that the package iterates the map with; :func:`is_walk` checks the
kernel's points against them.  :func:`solve_orbits_fixed_delta` runs the
package's fixed-drift Newton on a batch of starts, and
:func:`multistart_orbits` is a fixed-drift orbit search from a grid of
such starts.  It never evaluates the drift
profile, so it checks :func:`tonguelab.tongue.orbits_at`, which builds
its orbits from the profile's roots, by an independent route.  :func:`monodromy` multiplies
the tangent maps along an orbit one step at a time, independently of
the jet that the solvers read the monodromy off.
"""

import math

import numpy as np

from tonguelab.cylmap import MapParams, PhaseState
from tonguelab.orbits import _CONVERGED, _FIXED_DELTA, PeriodicOrbit, _newton, _orbit


def kick(m: MapParams, x: float) -> float:
    """The kick ``g(x) = -delta - eps * f(x)`` at the map's own drift."""
    return -m.delta - m.eps * m.f.eval(x)


def step(s: PhaseState, m: MapParams) -> PhaseState:
    """One application of the map."""
    g = kick(m, s.x)
    return PhaseState(s.x + s.y + m.mu + g, s.y + g)


def iterate(s0: PhaseState, m: MapParams, n: int) -> list[PhaseState]:
    """States ``[s0, step(s0), ..., step^n(s0)]`` (length n + 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [s0]
    s = s0
    for _ in range(n):
        s = step(s, m)
        out.append(s)
    return out


def is_walk(states, m: MapParams) -> bool:
    """Whether each state is the :func:`step` of the one before it, to
    ``1e-14 * max(1, |coordinate|)``.  A whole walk from the first state
    is no reference: numpy's batched and scalar sums of the same terms
    may differ in the last bit, and the map's stretching amplifies that
    step after step (to about 2e-13 relative in 9 steps at eps 0.5)."""
    def close(a, b):
        return abs(a - b) <= 1e-14 * max(1.0, abs(a))
    steps = [step(s, m) for s in states[:-1]]
    return all(close(s.x, b.x) and close(s.y, b.y) for s, b in zip(steps, states[1:]))


def monodromy(states, m: MapParams) -> np.ndarray:
    """Product of the tangent maps ``[[1 + g', 1], [g', 1]]`` along the orbit
    states (last factor first): the reference for the monodromy that the
    solvers read off :func:`~tonguelab.cylmap.jet_pass`."""
    fp = m.f.derivative()
    mat = np.eye(2)
    for s in states:
        gp = -m.eps * fp.eval(s.x)
        mat = np.array([[1.0 + gp, 1.0], [gp, 1.0]]) @ mat
    return mat


def orbit_distance(a: PeriodicOrbit, b: PeriodicOrbit) -> float:
    """Distance between two orbits as point sets on the cylinder.

    Minimum over cyclic alignments of the maximum pointwise distance,
    with x compared modulo 2 pi; a q-periodic orbit re-found from any of
    its q points therefore has distance ~0 to itself.
    """
    if len(a.states) != len(b.states):
        return math.inf
    q = len(a.states)
    best = math.inf
    two_pi = 2.0 * math.pi
    for shift in range(q):
        worst = 0.0
        for i in range(q):
            sa = a.states[i]
            sb = b.states[(i + shift) % q]
            dx = (sa.x - sb.x) % two_pi
            dx = min(dx, two_pi - dx)
            worst = max(worst, dx, abs(sa.y - sb.y))
        best = min(best, worst)
    return best


def solve_orbits_fixed_delta(starts, m: MapParams,
                             max_iter: int = 50) -> list[PeriodicOrbit | None]:
    """Damped Newton on the periodicity conditions at fixed drift, for a
    batch of ``(x0, y0)`` starts solved together.

    Returns one entry per start: ``None`` when the start does not converge
    within ``max_iter``, diverges, or meets a singular Newton system, and
    otherwise the orbit built from the batch's own final jet at the
    converged point.
    """
    pts = np.asarray(starts, dtype=float).reshape(-1, 2)
    u = np.array([pts[:, 0], pts[:, 1], np.full(len(pts), m.delta), np.full(len(pts), m.eps)])
    status, _, res, jac, path = _newton(u, m, _FIXED_DELTA, max_iter)
    return [_orbit(res[:, k], jac[..., k], path[..., k]) if status[k] == _CONVERGED else None
            for k in range(len(pts))]


def multistart_orbits(m: MapParams, x0_grid: int = 64,
                      y0_values: tuple[float, ...] = (0.0,),
                      dedupe_tol: float = 1e-6,
                      max_iter: int = 50) -> list[PeriodicOrbit]:
    """Fixed-delta orbit search from a grid of Newton starts, deduplicated.

    Starts that fail, including those on top of the saddle-node where the
    Newton system is singular, are skipped; everything that converges is
    kept once per orbit.
    """
    starts = [(float(x0), float(y0))
              for x0 in np.linspace(0.0, 2.0 * math.pi, x0_grid, endpoint=False)
              for y0 in y0_values]
    found: list[PeriodicOrbit] = []
    for orbit in solve_orbits_fixed_delta(starts, m, max_iter):
        if orbit is not None and all(orbit_distance(orbit, o) >= dedupe_tol for o in found):
            found.append(orbit)
    return found
