"""Problem representation for canonically perturbed conic programs.

A problem is

    min  1/2 x'Qx + c'x + c0 - <a, x>
    s.t. G(x) + b in K,

with G affine, G(x) = A0 + sum_i x_i Ai, and K a product of primitive
cone blocks.  The perturbation (a, b) is the canonical one: a tilts the
objective, b shifts the constraint.  Matrix-valued data lives in ambient
svec coordinates throughout (layout per the cones module).

A handful of built-in fixtures exercise the boundary cases of the
stability theory.  Each one is a `Fixture` holding everything
known about its problem (reference KKT pair, perturbation direction,
drift observable, closed-form oracle); one of them (``remark2``) has a
genuinely nonlinear constraint map, carried by callbacks.
"""

import functools
import json
import zlib

import numpy as np

from . import linalg
from .cones import Cone, svec
from .kkt import KKTPoint

SQRT2 = np.sqrt(2.0)


class ProblemFormatError(ValueError):
    """Malformed or inconsistent problem file."""


class ConicProgram:
    """Quadratic objective, affine constraint map, product-cone membership."""

    def __init__(self, n, Q, c, c0, A0, Ai, cone, name="",
                 g_callback=None, g_jac_callback=None):
        self.n = int(n)
        self.Q = np.asarray(Q, dtype=float).reshape(self.n, self.n)
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12 * max(1.0, np.max(np.abs(self.Q))):
            raise ProblemFormatError("objective matrix Q must be symmetric")
        self.Q = 0.5 * (self.Q + self.Q.T)
        self.c = np.asarray(c, dtype=float).reshape(self.n)
        self.c0 = float(c0)
        self.cone = cone
        self.name = name
        self.A0 = np.asarray(A0, dtype=float).reshape(cone.dim)
        Ai = np.asarray(Ai, dtype=float)
        if Ai.shape != (self.n, cone.dim):
            raise ProblemFormatError(
                "constraint columns have shape %s, expected (%d, %d)"
                % (Ai.shape, self.n, cone.dim))
        self.Ai = Ai
        # G as a dense (cone.dim x n) matrix: G(x) = A0 + Gmat @ x
        self.Gmat = Ai.T.copy()
        self._g_callback = g_callback
        self._g_jac_callback = g_jac_callback

    @property
    def is_affine(self):
        return self._g_callback is None

    # --- evaluators --------------------------------------------------------
    def objective(self, x, a=None):
        x = np.asarray(x, dtype=float)
        val = 0.5 * float(x @ self.Q @ x) + float(self.c @ x) + self.c0
        if a is not None:
            val -= float(np.asarray(a) @ x)
        return val

    def gradient(self, x, a=None):
        g = self.Q @ np.asarray(x, dtype=float) + self.c
        if a is not None:
            g = g - np.asarray(a, dtype=float)
        return g

    def constraint(self, x, b=None):
        x = np.asarray(x, dtype=float)
        if self._g_callback is not None:
            val = np.asarray(self._g_callback(x), dtype=float)
        else:
            val = self.A0 + self.Gmat @ x
        if b is not None:
            val = val + np.asarray(b, dtype=float)
        return val

    def constraint_jac(self, x=None):
        """G'(x) as a dense (cone.dim x n) matrix; constant when affine."""
        if self._g_jac_callback is not None:
            return np.atleast_2d(np.asarray(self._g_jac_callback(
                np.asarray(x, dtype=float)), dtype=float)).reshape(
                    self.cone.dim, self.n)
        return self.Gmat

    def adjoint(self, y, x=None):
        """G'(x)* applied to an ambient vector y."""
        return self.constraint_jac(x).T @ np.asarray(y, dtype=float)

    # --- serialization ------------------------------------------------------
    def to_dict(self):
        if not self.is_affine:
            raise ProblemFormatError("callback-based problems cannot be saved")
        return {
            "name": self.name,
            "n": self.n,
            "objective": {"Q": self.Q.tolist(), "c": self.c.tolist(),
                          "c0": self.c0},
            "constraint": {"A0": self.A0.tolist(), "Ai": self.Ai.tolist()},
            "cone": self.cone.to_spec(),
        }


class Perturbation:
    """Canonical perturbation pair (a, b)."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)

    def scaled(self, eps):
        return Perturbation(eps * self.a, eps * self.b)


# ---------------------------------------------------------------------------
# File format


def _require(cond, msg):
    if not cond:
        raise ProblemFormatError(msg)


def _floats(section, key):
    try:
        return np.asarray(section[key], dtype=float)
    except (TypeError, ValueError):
        raise ProblemFormatError("%s must be numeric and rectangular" % key)


def problem_from_dict(data):
    for key in ("name", "n", "objective", "constraint", "cone"):
        _require(key in data, "missing top-level key %r" % key)
    n = data["n"]
    # a JSON true is a bool, which Python counts as the int 1
    _require(type(n) is int and n >= 1, "n must be a positive integer")
    obj, con = data["objective"], data["constraint"]
    _require(isinstance(obj, dict) and isinstance(con, dict),
             "objective and constraint must be objects")
    for key in ("Q", "c", "c0"):
        _require(key in obj, "objective is missing %r" % key)
    for key in ("A0", "Ai"):
        _require(key in con, "constraint is missing %r" % key)
    try:
        cone = Cone.from_spec(data["cone"])
    except ValueError as exc:
        raise ProblemFormatError("cone: %s" % exc)
    Q = _floats(obj, "Q")
    _require(Q.shape == (n, n), "Q must be %d x %d" % (n, n))
    c = _floats(obj, "c")
    _require(c.shape == (n,), "c must have length %d" % n)
    A0 = _floats(con, "A0")
    _require(A0.shape == (cone.dim,),
             "A0 has length %d, ambient dimension is %d" % (A0.size, cone.dim))
    Ai = _floats(con, "Ai")
    _require(Ai.shape == (n, cone.dim),
             "Ai must be %d rows of length %d, got shape %s"
             % (n, cone.dim, Ai.shape))
    c0 = _floats(obj, "c0")
    _require(c0.shape == (), "c0 must be a number")
    for key, val in (("Q", Q), ("c", c), ("c0", c0), ("A0", A0), ("Ai", Ai)):
        _require(np.all(np.isfinite(val)), "%s has a non-finite entry" % key)
    return ConicProgram(n, Q, c, float(c0), A0, Ai, cone,
                        name=str(data["name"]))


def load_problem(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError("invalid JSON at line %d column %d: %s"
                                 % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise ProblemFormatError("JSON nested too deeply")
    _require(isinstance(data, dict), "top level must be an object")
    return problem_from_dict(data)


def load_problem_file(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemFormatError("not UTF-8 text: %s at byte %d"
                                     % (exc.reason, exc.start))
    return load_problem(text)


def save_problem(prog):
    return json.dumps(prog.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Fixtures
#
# Multiplier sign convention: y is the element of N_K(G(x) + b) appearing
# in the stationarity equation grad f - a + G'(x)* y = 0, so inequality
# multipliers are nonpositive.


class Fixture:
    """Everything known about one problem: the program, its unperturbed
    KKT pair (x, y) where known, the direction it is perturbed along, the
    drift observable its sweep fits, and an optional closed-form
    eps -> KKTPoint oracle that replaces the solver in that sweep.

    Without a studied direction, `default_direction` is drawn at first read.
    """

    def __init__(self, prog, reference=None, direction=None, observable="x",
                 oracle=None):
        self.prog = prog
        self.reference = reference
        if direction is not None:
            self.direction = direction
        self.observable = observable
        self.oracle = oracle

    direction = functools.cached_property(lambda f: default_direction(f.prog))


def default_direction(prog):
    """A unit direction (a, b) of prog's dimensions, seeded from its name."""
    rng = np.random.default_rng(zlib.crc32(prog.name.encode()))
    a = rng.standard_normal(prog.n)
    b = rng.standard_normal(prog.cone.dim)
    s = np.sqrt(a @ a + b @ b)
    return Perturbation(a / s, b / s)


def _example1():
    # min x1 + x1^2 + x2^2  s.t.  Diag(x) + eps*offdiag in PSD(2).
    cone = Cone([("psd", 2)])
    Q = np.diag([2.0, 2.0])
    c = np.array([1.0, 0.0])
    Ai = np.array([svec(np.diag([1.0, 0.0])), svec(np.diag([0.0, 1.0]))])
    prog = ConicProgram(2, Q, c, 0.0, np.zeros(3), Ai, cone, name="example1")
    offdiag = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Fixture(prog,
                   reference=(np.zeros(2), svec(np.diag([-1.0, 0.0]))),
                   direction=Perturbation(np.zeros(2), svec(offdiag)),
                   observable="x2", oracle=example1_oracle_point)


def oracle_example1(eps):
    """Perturbed solution of the offdiagonal-coupling fixture.

    Feasibility is x1 >= 0, x2 >= 0, x1*x2 >= eps^2; at the optimum the
    product constraint binds, reducing the problem to one variable whose
    stationarity equation 1 + 2*x1 - 2*eps^4/x1^3 = 0 is solved by
    bisection (the left side is increasing on (0, inf)), at most 200
    halvings, until one leaves the bracket unchanged: it is then a fixed
    point of the halving.
    """
    if not 0.0 < eps <= 0.1:
        raise ValueError("eps must lie in (0, 0.1]")
    hi = 1.0

    def phi(x1):
        return 1.0 + 2.0 * x1 - 2.0 * eps ** 4 / x1 ** 3

    # bring lo into the negative region without underflow trouble
    lo = eps ** 2
    while phi(lo) > 0:
        lo *= 0.5
    for _ in range(200):
        bracket = (lo, hi)
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            hi = mid
        else:
            lo = mid
        if (lo, hi) == bracket:
            break
    x1 = 0.5 * (lo + hi)
    return x1, eps ** 2 / x1


def example1_oracle_point(eps):
    """Perturbed example1 KKT pair: `oracle_example1` with its rank-one
    multiplier.  The active constraint matrix [[x1, eps], [eps, x2]] is
    singular with kernel direction u = (eps, -x1); stationarity fixes the
    diagonal of Y, which pins the scale of Y = -mu * u u'/|u|^2.
    """
    x1, x2 = oracle_example1(eps)
    u = np.array([eps, -x1])
    uu = np.outer(u, u) / float(u @ u)
    mu = (1.0 + 2.0 * x1) / uu[0, 0]
    return KKTPoint(np.array([x1, x2]), svec(-mu * uu), 0.0)


def _example2():
    # Variables (x, t): min x^2/2 + x + t  s.t.  x*I + t*A in PSD(2), t >= 0,
    # with A = [[1,-2],[-2,1]].  The multiplier set at the optimum (0,0) is
    # a nontrivial face, so uniqueness fails while the critical cone is {0};
    # the reference multiplier is a relative-interior element of it.
    cone = Cone([("orthant", 1), ("psd", 2)])
    A = np.array([[1.0, -2.0], [-2.0, 1.0]])
    Q = np.diag([1.0, 0.0])
    c = np.array([1.0, 1.0])
    Ai = np.array([
        np.concatenate(([0.0], svec(np.eye(2)))),
        np.concatenate(([1.0], svec(A))),
    ])
    prog = ConicProgram(2, Q, c, 0.0, np.zeros(4), Ai, cone, name="example2")
    Y = -np.array([[0.5, 0.25], [0.25, 0.5]])
    return Fixture(prog,
                   reference=(np.zeros(2), np.concatenate(([-1.0], svec(Y)))))


def example3_data():
    """Shared constants: B, its square roots, and the offset b."""
    B = np.array([[1.5, -2.0], [-2.0, 3.0]])
    vals, vecs = linalg.sym_eig(B)
    Bh = (vecs * np.sqrt(vals)) @ vecs.T
    Bih = np.linalg.inv(Bh)
    b = Bih @ np.array([2.5, -1.0])
    return B, Bh, Bih, b


def _example3():
    # Variables (x1, x2, t):
    #   min 1/2 ||x + b||^2 + t  s.t.  Diag(Bh x) + t*E + I in PSD(2), t >= 0,
    # perturbed in the PSD block by eps*diag(-1, 1).
    cone = Cone([("orthant", 1), ("psd", 2)])
    _, Bh, Bih, b = example3_data()
    Q = np.diag([1.0, 1.0, 0.0])
    c = np.array([b[0], b[1], 1.0])
    c0 = 0.5 * float(b @ b)
    E = np.ones((2, 2))
    Ai = np.array([
        np.concatenate(([0.0], svec(np.diag(Bh[:, 0])))),
        np.concatenate(([0.0], svec(np.diag(Bh[:, 1])))),
        np.concatenate(([1.0], svec(E))),
    ])
    A0 = np.concatenate(([0.0], svec(np.eye(2))))
    prog = ConicProgram(3, Q, c, c0, A0, Ai, cone, name="example3")
    x = Bih @ np.array([-1.0, -1.0])
    Ybar = np.array([[1.0, 0.0], [0.0, 0.0]])
    delta = np.diag([-1.0, 1.0])
    return Fixture(prog,
                   reference=(np.array([x[0], x[1], 0.0]),
                              np.concatenate(([0.0], svec(-Ybar)))),
                   direction=Perturbation(
                       np.zeros(3), np.concatenate(([0.0], svec(delta)))),
                   observable="multiplier-drift",
                   oracle=_example3_max_drift(Bih))


def example3_xi_range(eps):
    """The stated family bound |xi| <= sqrt(eps + 2*eps^2)."""
    return np.sqrt(eps + 2.0 * eps ** 2)


def oracle_example3(eps, xi):
    """Member of the perturbed solution family of the example3 fixture.

    x(eps) = B^(-1/2)(-1+eps, -1-eps), t = 0, dual matrix
    Y = [[1+2*eps, xi], [xi, eps]]; the scalar multiplier on t >= 0 is
    3*eps + 2*xi.  xi is accepted in the stated band
    |xi| <= sqrt(eps + 2*eps^2); note that the KKT sign condition on the
    scalar multiplier additionally needs xi <= -3*eps/2, so only that
    subrange yields a zero natural-map residual.
    """
    return _example3_member(example3_data()[2], eps, xi)


def _example3_member(Bih, eps, xi):
    """`oracle_example3` on B^(-1/2) = Bih."""
    if not 0.0 <= eps <= 0.1:
        raise ValueError("eps must lie in [0, 0.1]")
    bound = example3_xi_range(eps)
    if abs(xi) > bound * (1 + 1e-12):
        raise ValueError("xi = %g outside the family range +-%g" % (xi, bound))
    x = Bih @ np.array([-1.0 + eps, -1.0 - eps])
    Y = np.array([[1.0 + 2.0 * eps, xi], [xi, eps]])
    s = 3.0 * eps + 2.0 * xi
    y = np.concatenate(([s], svec(-Y)))
    return KKTPoint(np.array([x[0], x[1], 0.0]), y, 0.0)


def example3_max_drift_member(eps):
    """The family member of maximal multiplier drift that satisfies the
    KKT sign conditions (xi at the negative end of the band)."""
    return _example3_max_drift(example3_data()[2])(eps)


def _example3_max_drift(Bih):
    """`example3_max_drift_member` on B^(-1/2) = Bih: the fixture's oracle."""
    return lambda eps: _example3_member(Bih, eps, -example3_xi_range(eps))


def _example4():
    # X in S^2 through svec, so x = (X11, sqrt2*X12, X22):
    #   min 1/2 (X11 - 1)^2 + 1/2 (X22 - 2 X12)^2
    #   s.t. <E, X> <= 1, X PSD.
    cone = Cone([("orthant", 1), ("psd", 2)])
    Q = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 2.0, -SQRT2],
        [0.0, -SQRT2, 1.0],
    ])
    c = np.array([-1.0, 0.0, 0.0])
    Ai = np.array([
        np.concatenate(([-1.0], [1.0, 0.0, 0.0])),
        np.concatenate(([-SQRT2], [0.0, 1.0, 0.0])),
        np.concatenate(([-1.0], [0.0, 0.0, 1.0])),
    ])
    A0 = np.concatenate(([1.0], np.zeros(3)))
    prog = ConicProgram(3, Q, c, 0.5, A0, Ai, cone, name="example4")
    return Fixture(prog, reference=(np.array([1.0, 0.0, 0.0]), np.zeros(4)))


def _remark2():
    # min x^2/2  s.t.  x^6 sin(1/x) = 0; the constraint map is genuinely
    # nonlinear, carried by callbacks; the checks accept it at y = 0 only.
    cone = Cone([("zero", 1)])

    def g(x):
        v = float(x[0])
        if v == 0.0:
            return np.array([0.0])
        return np.array([v ** 6 * np.sin(1.0 / v)])

    def g_jac(x):
        v = float(x[0])
        if v == 0.0:
            return np.array([[0.0]])
        return np.array([[6.0 * v ** 5 * np.sin(1.0 / v)
                          - v ** 4 * np.cos(1.0 / v)]])

    prog = ConicProgram(1, np.array([[1.0]]), np.zeros(1), 0.0,
                        np.zeros(1), np.zeros((1, 1)), cone,
                        name="remark2", g_callback=g, g_jac_callback=g_jac)
    return Fixture(prog, reference=(np.zeros(1), np.zeros(1)))


_BUILTINS = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "example4": _example4,
    "remark2": _remark2,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def fixture(name):
    if name not in _BUILTINS:
        raise KeyError("unknown builtin %r; known: %s"
                       % (name, ", ".join(BUILTIN_NAMES)))
    return _BUILTINS[name]()


def builtin(name):
    return fixture(name).prog

