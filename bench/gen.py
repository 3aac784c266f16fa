"""Seeded generator of conic programs with a known KKT pair and verdict.

Each instance is built from the constraint value s = G(x) and the
multiplier y block by block, so that s lies in K, y lies in the normal
cone N_K(s) and the index structure (active rank, borderline indices) is
exactly what was asked for.  The objective is then closed with
c = -Q x - G'* y, which makes (x, y) a KKT pair by construction.

Knobs:
  blocks   list of (kind, size), kind in orthant / soc / psd;
  rank     active rank per block: positive coordinates of an orthant
           block, positive eigenvalues of a PSD block, and for an SOC
           block 2 (interior), 1 (boundary ray) or 0 (s = 0);
  border   borderline indices per block, where s and y vanish together:
           PSD zero eigenvalues (beta), orthant corners, the SOC apex (1);
  g        "identity" (G = I) or "nonunique" (G = I - d d' with d in the
           normal span, so ker G'* meets it and the multipliers form a
           segment);
  q        "pd" (Q positive definite, SOSC holds) or "face-null" (Q zero
           along a face direction of K at s, so the solutions form a
           segment and robust isolated calmness fails).

The reference verdict is "holds" exactly for g = "identity", q = "pd".
"""

import numpy as np

from conestab import kkt
from conestab.cones import Cone, svec
from conestab.model import ConicProgram, save_problem

KKT_TOL = 1e-12


class Instance:
    """A generated program with its known KKT pair and reference verdict."""

    def __init__(self, prog, x, y, verdict):
        self.prog = prog
        self.x = x
        self.y = y
        self.verdict = verdict

    def to_json(self):
        return save_problem(self.prog)


def _orthonormal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _magnitudes(rng, k):
    return rng.uniform(0.5, 2.0, size=k)


def _orthant(rng, size, rank, border):
    n_active = size - rank - border
    if n_active < 0:
        raise ValueError("orthant(%d): rank + border exceeds size" % size)
    s = np.concatenate([_magnitudes(rng, rank), np.zeros(border + n_active)])
    y = np.concatenate([np.zeros(rank + border), -_magnitudes(rng, n_active)])
    perm = rng.permutation(size)
    s, y = s[perm], y[perm]
    # directions: a free coordinate (face), two strictly active ones (normal)
    inv = np.argsort(perm)
    face = [np.eye(size)[inv[i]] for i in range(rank)]
    normal = [np.eye(size)[inv[i]] for i in range(rank + border, size)]
    return s, y, face, normal


def _soc(rng, size, rank, border):
    if size < 2:
        raise ValueError("soc blocks need size >= 2")
    u = rng.standard_normal(size - 1)
    u /= np.linalg.norm(u)
    t, r = _magnitudes(rng, 2)
    if border:
        if rank:
            raise ValueError("an SOC apex has rank 0")
        return np.zeros(size), np.zeros(size), [], []
    if rank == 2:
        s = np.concatenate(([t], 0.5 * t * u))
        face = [np.eye(size)[k] for k in range(size)]
        return s, np.zeros(size), face, []
    if rank == 1:
        s = t * np.concatenate(([1.0], u))
        y = -r * np.concatenate(([1.0], -u))
        return s, y, [s / np.linalg.norm(s)], []
    y = -np.concatenate(([t], 0.5 * t * u))
    # e1 - e2 is indefinite for the cone; e0 - e1 would lie on its boundary
    normal = [np.eye(size)[1], np.eye(size)[2]] if size >= 3 else []
    return np.zeros(size), y, [], normal


def _psd(rng, n, rank, border):
    n_neg = n - rank - border
    if n_neg < 0:
        raise ValueError("psd(%d): rank + border exceeds the order" % n)
    P = _orthonormal(rng, n)
    lam_s = np.concatenate([_magnitudes(rng, rank), np.zeros(n - rank)])
    lam_y = np.concatenate([np.zeros(rank + border), -_magnitudes(rng, n_neg)])
    s = svec((P * lam_s) @ P.T)
    y = svec((P * lam_y) @ P.T)
    face = [svec(np.outer(P[:, i], P[:, i])) for i in range(rank)]
    normal = [svec(np.outer(P[:, i], P[:, i]))
              for i in range(rank + border, n)]
    return s, y, face, normal


_BLOCK = {"orthant": _orthant, "soc": _soc, "psd": _psd}


def _embed(vectors, offset, dim):
    out = []
    for v in vectors:
        e = np.zeros(dim)
        e[offset:offset + len(v)] = v
        out.append(e)
    return out


def make_instance(blocks, rank, border=None, g="identity", q="pd", seed=0):
    """Build an Instance; see the module docstring for the knobs."""
    if g not in ("identity", "nonunique") or q not in ("pd", "face-null"):
        raise ValueError("unknown g=%r or q=%r" % (g, q))
    border = list(border) if border is not None else [0] * len(blocks)
    if not len(blocks) == len(rank) == len(border):
        raise ValueError("blocks, rank and border need equal lengths")
    rng = np.random.default_rng(seed)
    cone = Cone(blocks)
    m = cone.dim
    s_parts, y_parts, faces, normals = [], [], [], []
    offset = 0
    for (kind, size), r, b, blk in zip(blocks, rank, border, cone.blocks):
        s, y, face, normal = _BLOCK[kind](rng, size, r, b)
        s_parts.append(s)
        y_parts.append(y)
        faces.extend(_embed(face, offset, m))
        # a normal-span direction d = n1 - n2 whose sign is indefinite
        if len(normal) >= 2:
            normals.append(_embed([normal[0] - normal[1]], offset, m)[0])
        offset += blk.dim
    s = np.concatenate(s_parts)
    y = np.concatenate(y_parts)
    G = np.eye(m)
    if g == "nonunique":
        if not normals:
            raise ValueError("g='nonunique' needs a block with two strictly "
                             "active normal directions")
        d = normals[0] / np.linalg.norm(normals[0])
        G = G - np.outer(d, d)
    R = rng.standard_normal((m, m))
    Q = R @ R.T / m + np.eye(m)
    if q == "face-null":
        if not faces:
            raise ValueError("q='face-null' needs a block with a face "
                             "direction")
        f = faces[0] / np.linalg.norm(faces[0])
        Pf = np.eye(m) - np.outer(f, f)
        Q = Pf @ Q @ Pf
    x = s.copy()  # G x = s in both choices of G, since d is orthogonal to s
    A0 = s - G @ x
    c = -(Q @ x) - G.T @ y
    label = "gen-%s-%s-%s-%d" % (
        "+".join("%s%d" % bs for bs in blocks), g, q, seed)
    prog = ConicProgram(m, Q, c, 0.0, A0, G.T, cone, name=label)
    res = kkt.natural_residual(prog, x, y)
    if not res <= KKT_TOL:
        raise AssertionError("generated pair is not KKT: residual %.3e" % res)
    verdict = "holds" if (g, q) == ("identity", "pd") else "fails"
    return Instance(prog, x, y, verdict)
