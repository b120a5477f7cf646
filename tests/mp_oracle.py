"""50-digit references for the side triple of a class, from its definition.

Test-only: it needs ``mpmath``, which the tests load with
``pytest.importorskip("mpmath")`` before importing this module.  Every
float it takes is read exactly, so its answers are those of the float
inputs, not of the numbers they were rounded from.
"""
import mpmath

mpmath.mp.dps = 50


def exact(z: complex) -> mpmath.mpc:
    return mpmath.mpc(z.real, z.imag)


def vertex_sides(A: complex, B: complex, C: complex) -> tuple:
    """The sides a = C - B, b = A - C, c = B - A of the float vertices, exactly."""
    A, B, C = exact(A), exact(B), exact(C)
    return (C - B, A - C, B - A)


def inscribed_sides(alpha: float, beta: float) -> tuple:
    """The sides 1 - e^{-2i alpha}, e^{2i beta} - 1 and e^{-2i alpha} - e^{2i beta}
    of the triangle (e^{2i beta}, e^{-2i alpha}, 1) inscribed in the unit
    circle, whose interior angles are (alpha, beta, -alpha - beta) mod pi."""
    ea, eb = mpmath.expj(-2 * mpmath.mpf(alpha)), mpmath.expj(2 * mpmath.mpf(beta))
    return (1 - ea, eb - 1, ea - eb)


def direction_error(sides: tuple, truth: tuple) -> float:
    """The largest error, in radians, of the direction of a float side over
    the largest side against that of the true side over the true largest."""
    p = max(range(3), key=lambda i: abs(truth[i]))
    got = [exact(z) for z in sides]
    return float(max(abs(mpmath.arg((got[i] / got[p]) / (truth[i] / truth[p])))
                     for i in range(3)))


def chordal_distance(sides: tuple, truth: tuple) -> float:
    """What ``shape.proj_dist`` measures, the sin of the Fubini-Study angle
    between the float triple and the true one, computed at 50 digits."""
    x = [exact(z) for z in sides]
    nx = mpmath.sqrt(sum(abs(v) ** 2 for v in x))
    ny = mpmath.sqrt(sum(abs(v) ** 2 for v in truth))
    inner = sum(mpmath.conj(y) * v for v, y in zip(x, truth)) / (nx * ny)
    return float(mpmath.sqrt(max(0, 1 - abs(inner) ** 2)))
