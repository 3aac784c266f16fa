"""Shared test fixtures."""

import importlib.util
import pathlib

import numpy as np
import pytest

from conestab.cones import Cone
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
