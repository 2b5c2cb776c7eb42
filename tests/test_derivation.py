"""Proofs of the closed forms, derived from the splitter convention.

analytic's closed forms are held to the Fock route numerically, at
cli.ORACLE_TOL on sampled inputs. These tests prove them instead: each is a
sympy identity in free drives, phases and angles, so it holds at every
input. The derivation shares nothing with analytic. It starts from optics'
reflection-phase convention at a station of angle x,

    lo+  ->  cos(x/2) c+  +  i sin(x/2) d+
    ph+  ->  i sin(x/2) c+  +  cos(x/2) d+,

and from the input weights w = detection.PAIR_WEIGHTS: the input is
sum_k w_k |beta1, k>_A |beta2, 1 - k>_B with beta = alpha e^{i phi}.

A state is written as its generating function, a function of the creation
operators that acts on the vacuum: the station input |beta> (x) |k> is
e^{-alpha^2/2} exp(beta lo+) ph+^k. Mixing substitutes the convention for
lo+ and ph+, and the amplitude of the occupation (c, d) is the function's
c-th derivative in c+ and d-th in d+ at 0, over sqrt(c! d!). Projected on
(1, 0), one photon at the counting port and none at the veto port, a
station's two inputs give its favorable amplitudes

    e(x) = e^{-alpha^2/2} (alpha e^{i phi} cos(x/2), i sin(x/2)).

The convention is unitary, so each station's two mixed terms stay
orthonormal and the probabilities of the -1 outcomes are

    P_A(x)    = sum_k |w_k|^2 |e_A(x)_k|^2
    P_B(y)    = sum_k |w_k|^2 |e_B(y)_{1-k}|^2
    P_AB(x,y) = |sum_k w_k e_A(x)_k e_B(y)_{1-k}|^2.

An identity is proved when the difference of its two sides reduces to the
expression 0: floats made rational (analytic's constants 0.5, 2.0, 0.25
are exact binary fractions), complex parts split, trigonometric functions
written as exponentials, powers combined and products expanded. Each step
rewrites the expression into an equal one, so 0 at the end is a proof.
"""

from functools import lru_cache

import sympy
from sympy import I, Matrix, cos, exp, pi, sin, sqrt

from homodyne_bell import analytic
from homodyne_bell.detection import PAIR_WEIGHTS

# creation operators: each station's input ports, then its output ports
LO, PH, C_OUT, D_OUT = sympy.symbols("lo ph c d")
FAVORABLE = (1, 0)
# a station's single-photon inputs (lo, ph): logical qubit states 0 and 1
LOGICAL = ((1, 0), (0, 1))

ALPHA1, ALPHA2 = sympy.symbols("alpha1 alpha2", positive=True)
PHI1, PHI2, X, X2, Y, Y2 = sympy.symbols("phi1 phi2 x x2 y y2", real=True)

WEIGHTS = tuple(sympy.nsimplify(w.real) + I * sympy.nsimplify(w.imag)
                for w in PAIR_WEIGHTS.tolist())


def residual(expr):
    """expr reduced as the module docstring says; 0 proves expr == 0."""
    expr = sympy.nsimplify(expr, rational=True)
    expr = sympy.expand_complex(expr).rewrite(exp)
    return sympy.expand(sympy.powsimp(sympy.expand(expr)))


def amplitude(state, modes, occupation):
    """Amplitude of `occupation` in the state with generating function
    `state` of the two creation operators `modes`."""
    (u, v), (nu, nv) = modes, occupation
    return (sympy.diff(state, u, nu, v, nv).subs({u: 0, v: 0})
            / sqrt(sympy.factorial(nu) * sympy.factorial(nv)))


def mixed(state, angle):
    """A station input's generating function after the splitter at `angle`
    (the convention of the module docstring)."""
    c, s = cos(angle / 2), sin(angle / 2)
    return state.subs({LO: c * C_OUT + I * s * D_OUT, PH: I * s * C_OUT + c * D_OUT},
                      simultaneous=True)


def station_input(alpha, phi, k):
    """|alpha e^{i phi}> (x) |k> at a station's (lo, ph) ports."""
    return exp(-alpha ** 2 / 2) * exp(alpha * exp(I * phi) * LO) * PH ** k


@lru_cache(maxsize=None)
def favorable(alpha, phi, angle):
    """e(angle): the favorable amplitudes of the station's inputs k = 0, 1."""
    return tuple(amplitude(mixed(station_input(alpha, phi, k), angle),
                           (C_OUT, D_OUT), FAVORABLE) for k in (0, 1))


def abs_sq(z):
    return z * sympy.conjugate(z)


def local_a(x):
    return sum(abs_sq(w) * abs_sq(e) for w, e in zip(WEIGHTS, favorable(ALPHA1, PHI1, x)))


def local_b(y):
    return sum(abs_sq(w) * abs_sq(e)
               for w, e in zip(WEIGHTS, favorable(ALPHA2, PHI2, y)[::-1]))


def joint(x, y):
    return abs_sq(sum(w * a * b for w, a, b in zip(
        WEIGHTS, favorable(ALPHA1, PHI1, x), favorable(ALPHA2, PHI2, y)[::-1])))


def derived_ch(x, x2, y, y2):
    """CH of the pairs (x, y), (x2, y), (x, y2), (x2, y2), signs +, +, -, +,
    minus P_A(x2) and P_B(y)."""
    return (joint(x, y) + joint(x2, y) - joint(x, y2) + joint(x2, y2)
            - local_a(x2) - local_b(y))


def test_convention_is_unitary():
    # the mixed images of orthonormal inputs stay orthonormal
    c, s = cos(X / 2), sin(X / 2)
    u = Matrix([[c, I * s], [I * s, c]])
    assert (u.H * u - sympy.eye(2)).applyfunc(residual) == sympy.zeros(2)


def test_favorable_amplitudes():
    e = favorable(ALPHA1, PHI1, X)
    stated = (exp(-ALPHA1 ** 2 / 2) * ALPHA1 * exp(I * PHI1) * cos(X / 2),
              exp(-ALPHA1 ** 2 / 2) * I * sin(X / 2))
    assert [residual(d - s) for d, s in zip(e, stated)] == [0, 0]


def test_factor_helpers_give_the_derived_triple():
    # probs_point's assembly: _shared, each setting's _station, then _local
    # and _joint
    root1, half1, root2, half2, shared = analytic._shared(
        sympy, ALPHA1 ** 2, ALPHA2 ** 2, PHI1, PHI2)
    a, b = analytic._station(sympy, root1, X), analytic._station(sympy, root2, Y)
    assert residual(analytic._local(half1, a) - local_a(X)) == 0
    assert residual(analytic._local(half2, b) - local_b(Y)) == 0
    assert residual(analytic._joint(shared, a, b) - joint(X, Y)) == 0


def test_ch_is_derived():
    ch = analytic._ch(sympy, ALPHA1 ** 2, ALPHA2 ** 2, PHI1, PHI2, X, X2, Y, Y2)
    assert residual(ch - derived_ch(X, X2, Y, Y2)) == 0


def test_printed_forms_are_ch_on_the_standard_quadruple():
    # xi = 2u and eta = 2v, so the half-angles are symbols; second settings
    # pi/2 off, one strength, dphi = phi2 - phi1
    u, v = sympy.symbols("u v", real=True)
    xi, eta = 2 * u, 2 * v
    ch = analytic._ch(sympy, ALPHA1 ** 2, ALPHA1 ** 2, PHI1, PHI2,
                      xi, xi + pi / 2, eta, eta + pi / 2)
    point = (xi, eta, PHI2 - PHI1, ALPHA1 ** 2)
    assert residual(analytic.ch_closed(point, sympy) - ch) == 0
    assert residual(analytic.chsh_closed(point, sympy) - (2 + 4 * ch)) == 0


def test_reduction_to_two_quadratic_forms():
    # CH = 1/2 e^{-alpha2^2} (w^T P w + w2^T Q w2) - P_A(x2), w = (sin(y/2),
    # cos(y/2)) and w2 likewise at y2: Bob's settings enter only through
    # two 2x2 quadratic forms
    s = sin(PHI1 - PHI2)

    def m(x):
        c, sx = cos(x / 2), sin(x / 2)
        return Matrix([[ALPHA1 ** 2 * c ** 2, s * ALPHA1 * c * sx],
                       [s * ALPHA1 * c * sx, sx ** 2]])

    d, damp = sympy.diag(1, ALPHA2), exp(-ALPHA1 ** 2)
    p = d * (damp * (m(X) + m(X2)) - sympy.eye(2)) * d
    q = d * damp * (m(X2) - m(X)) * d
    w, w2 = (Matrix([sin(y / 2), cos(y / 2)]) for y in (Y, Y2))
    reduced = (exp(-ALPHA2 ** 2) / 2 * ((w.T * p * w)[0] + (w2.T * q * w2)[0])
               - local_a(X2))
    assert residual(derived_ch(X, X2, Y, Y2) - reduced) == 0


def psi1():
    """psi1's logical amplitudes [Alice, Bob]: the input's component with one
    photon at each station, at one strength alpha1, unnormalized."""
    return Matrix(2, 2, lambda i, j: sum(
        w * amplitude(station_input(ALPHA1, PHI1, k), (LO, PH), LOGICAL[i])
        * amplitude(station_input(ALPHA1, PHI2, 1 - k), (LO, PH), LOGICAL[j])
        for k, w in enumerate(WEIGHTS)))


def station_observable(angle):
    """1 - 2 Pi at a station on its logical qubit, Pi the favorable
    projector: entry (j, l) is delta_jl - 2 conj(a_j) a_l, a_j the
    favorable amplitude of the single-photon input j."""
    a = [amplitude(mixed(LO ** lo * PH ** ph, angle), (C_OUT, D_OUT), FAVORABLE)
         for lo, ph in LOGICAL]
    return Matrix(2, 2, lambda j, l: int(j == l) - 2 * sympy.conjugate(a[j]) * a[l])


def expectation(psi, op_a, op_b):
    """<psi| op_a (x) op_b |psi> of unnormalized logical amplitudes psi."""
    return (psi.H * op_a * psi * op_b.T).trace()


def test_psi1_correlator_is_derived():
    psi = psi1()
    norm = expectation(psi, sympy.eye(2), sympy.eye(2))
    value = expectation(psi, station_observable(X), station_observable(Y))
    correlator = analytic._psi1_correlator(sin(PHI2 - PHI1), X, Y, m=sympy)
    assert residual(value - correlator * norm) == 0


def test_psi1_tsirelson_is_two_sqrt2():
    # psi1's spin correlation matrix T_ij = <sigma_i (x) sigma_j> has
    # T^T T = I at every phase, so Horodecki's maximal CHSH 2 sqrt(m1 + m2),
    # m1, m2 the two largest eigenvalues of T^T T, is 2 sqrt 2: the constant
    # the split report writes as psi1_tsirelson
    psi = psi1()
    norm = expectation(psi, sympy.eye(2), sympy.eye(2))
    paulis = (Matrix([[0, 1], [1, 0]]), Matrix([[0, -I], [I, 0]]),
              Matrix([[1, 0], [0, -1]]))
    t = Matrix(3, 3, lambda i, j: expectation(psi, paulis[i], paulis[j]))
    assert (t.T * t - norm ** 2 * sympy.eye(3)).applyfunc(residual) == sympy.zeros(3)


def test_station_effect_trace_bound():
    # the favorable effect E(x) = |e(x)><e(x)| has tr E(x) <= e^{-alpha^2}
    # max(alpha^2, 1): tr E(x) minus e^{-alpha^2} alpha^2 is
    # -e^{-alpha^2} (alpha^2 - 1) sin^2(x/2), and minus e^{-alpha^2} it is
    # e^{-alpha^2} (alpha^2 - 1) cos^2(x/2), so the difference from the
    # larger of the two is <= 0
    trace = sum(abs_sq(e) for e in favorable(ALPHA1, PHI1, X))
    damp, excess = exp(-ALPHA1 ** 2), ALPHA1 ** 2 - 1
    assert residual(trace - damp * ALPHA1 ** 2 + damp * excess * sin(X / 2) ** 2) == 0
    assert residual(trace - damp - damp * excess * cos(X / 2) ** 2) == 0


def test_printed_local_is_the_derived_local_times_e_to_minus_alpha_sq():
    # the erratum: the printed e^{-2 alpha^2} exponent is P_A damped once
    # more, by exactly e^{-alpha^2}
    printed = analytic.local_prob_printed_variant(X, ALPHA1 ** 2, m=sympy)
    assert residual(printed - local_a(X) * exp(-ALPHA1 ** 2)) == 0
