"""The float DPhi of an N = 1 map by the implicit-differentiation formula,
state by state: the oracle that the batched ``maps._jacobian_values`` must
match bit for bit in ``linearize_at`` and the beam checks."""

import numpy as np

from polykahan import maps
from polykahan.poly import DenominatorVanished, x


def dphi_by_formula(m, state, image, h):
    """Unit rows above the solved row -dE/dx / A, with E's partials taken
    by ``Polynomial.eval`` at (state, x_n = the image's last value, h)."""
    (dx,), ((A,),) = maps._partials(m)
    point = {v: float(s) for v, s in zip(m.state_vars, state)}
    point[x(1, m.n)] = image[-1]
    point[m.scheme.step] = float(h)
    a = A.eval(point)
    if a == 0:
        raise DenominatorVanished(f"denominator vanished at {point}")
    dphi = np.zeros((m.dim, m.dim))
    dphi[range(m.dim - 1), range(1, m.dim)] = 1.0
    dphi[-1] = [-d.eval(point) / a for d in dx]
    return dphi
