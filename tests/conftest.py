"""Shared test fixtures."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from conestab.cones import Cone, svec
from conestab.model import ConicProgram


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's instance generator, bench/gen.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload lists, bench/workloads.py, imported with
    its directory on the path for its siblings gen and oracle."""
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


@pytest.fixture(scope="session")
def planted(bench_gen):
    """planted(blocks, rank, k, seed) -> (prog, x, y): a KKT pair whose
    multiplier set has affine dimension k near y.

    s and y are drawn block by block with bench/gen.py's block builders
    and no borderline index, so y lies in ri N_K(s); D is k orthonormal
    directions of the normal span at s, and G = I - D D' makes
    ker G'* ∩ span N_K(s) = range D."""
    def build(blocks, rank, k, seed):
        rng = np.random.default_rng(seed)
        cone = Cone(blocks)
        m = cone.dim
        parts = [bench_gen._BLOCK[kind](rng, size, r, 0)[:2]
                 for (kind, size), r in zip(blocks, rank)]
        s = np.concatenate([p[0] for p in parts])
        y = np.concatenate([p[1] for p in parts])
        N = cone.frame(s).normal_span()
        D, _ = np.linalg.qr(N @ rng.standard_normal((N.shape[1], k)))
        G = np.eye(m) - D @ D.T
        R = rng.standard_normal((m, m))
        Q = R @ R.T / m + np.eye(m)
        x = s.copy()
        prog = ConicProgram(m, Q, -(Q @ x) - G.T @ y, 0.0, s - G @ x, G.T,
                            cone, name="planted-%d-%d" % (k, seed))
        return prog, x, y

    return build


@pytest.fixture(scope="session")
def well_conditioned_instance():
    """well_conditioned_instance(kind, seed) -> (prog, x, y): a randomly
    generated instance with a known KKT pair and no borderline structure
    (strict complementarity, surjective G').

    kind "orthant": bound-constrained strongly convex QP with a mixed
    active set.  kind "psd": strongly convex objective over PSD(2) with a
    rank-deficient optimum and a strictly complementary multiplier.
    """
    pairs = {
        "orthant": (Cone([("orthant", 3)]), np.array([1.0, 0.0, 0.0]),
                    np.array([0.0, -1.0, -2.0])),
        "psd": (Cone([("psd", 2)]), svec(np.diag([1.0, 0.0])),
                svec(np.diag([0.0, -1.5]))),
    }

    def build(kind, seed=0):
        cone, xbar, ybar = pairs[kind]
        rng = np.random.default_rng(seed)
        n = 3
        R = rng.standard_normal((n, n))
        Q = R @ R.T + n * np.eye(n)
        c = -(Q @ xbar) - ybar
        prog = ConicProgram(n, Q, c, 0.0, np.zeros(n), np.eye(n), cone,
                            name="gen-%s-%d" % (kind, seed))
        return prog, xbar.copy(), ybar.copy()

    return build
