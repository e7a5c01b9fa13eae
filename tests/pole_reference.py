"""The pole sum's residual in complex arithmetic: the reference for the real
loop of oracle._pole_sum, which must keep its bits."""

import cmath
import math

from fermigas.oracle import _POLE_TERMS


def complex_residual(residual):
    """A twin of residual = oracle._pole_sum(...)[0] that sums the shell terms
    as complex numbers e^(i n theta) (q mu + i (p + r mu^2)) and reads their
    real parts.  The cubic's coefficient, the pole terms and the reflection
    weights are read from residual's closure, so the two differ only in how
    the shell sums are formed."""
    cells = dict(zip(residual.__code__.co_freevars,
                     (cell.cell_contents for cell in residual.__closure__)))
    zp, lam, c1, ks, js = (cells[name] for name in ("zp", "lam", "c1", "ks", "js"))
    t_abs, n_particles, weight = cells["t_abs"], cells["n_particles"], cells["weight"]
    ms = []

    def twin(mu):
        mb = mu + zp
        total = complex(mb * (mb * mb / 6.0 + c1) / lam, 0.0)
        slope = complex((0.5 * mb * mb + c1) / lam, 0.0)
        for terms, turns, omega in ((ks, mb, 2.0 * math.pi), (js, mb / lam, 2.0 * math.pi / lam)):
            w1, w = cmath.exp(complex(0.0, 2.0 * math.pi * math.remainder(turns, 1.0))), 1.0
            for n, (q, p, r) in enumerate(terms, 1):
                w *= w1
                c = complex(q * mb, p + r * mb * mb)
                total += w * c
                slope += w * complex(q - n * omega * c.imag, 2.0 * r * mb + n * omega * c.real)
        states, rate = total.real, slope.real
        x, xm = math.exp(-(mb + zp) / t_abs), 1.0
        for m in range(1, _POLE_TERMS + 1):
            if m > len(ms):
                ms.append(weight(m))
            wm, last = ms[m - 1]
            xm *= x
            size = abs(term := wm * xm)
            states, rate = states + term, rate - m * wm * xm / t_abs
            if last or (cut := 2.0 ** 60 * m * size) < states and cut < t_abs * rate:
                break
        return states / n_particles - 1.0, rate / n_particles

    return twin
