"""End-to-end acceptance suite.

Each test verifies one headline claim of the package at its stated
tolerance and prints a single PASS/FAIL line so the run log doubles as a
checklist.  Criteria 1-4 reproduce the four built-in fixtures, 5-6 are
bulk property suites for the projection calculus, and 7-9 stress the
verdict assembly, the solver, and the local error bound.
"""

import time

import numpy as np
import pytest

from conestab import conditions, kkt, model, sweep
from conestab.cones import (Cone, dir_deriv_fixed_point, dir_deriv_conditions,
                            smat)
from conestab.conditions import FAILS, HOLDS


def _report(capsys, ok, label, detail):
    with capsys.disabled():
        print("%s  %s  (%s)" % ("PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


def test_criterion_1_cube_root_drift_rate(capsys):
    """Primal drift of the coupled-diagonal fixture scales as eps^(2/3)."""
    t0 = time.monotonic()
    result = sweep.builtin_sweep("example1")
    slope, stderr = sweep.fit_exponent(result)
    # the generic solver must agree with the bisection oracle wherever
    # it converges on the same grid
    prog = model.builtin("example1")
    direction = model.fixture("example1").direction
    ref = kkt.KKTPoint(*model.fixture("example1").reference, 0.0)
    generic = sweep.run_sweep(prog, direction, reference=ref,
                              observable="x2")
    worst = 0.0
    n_compared = 0
    for rec in generic.records:
        if not rec.solved:
            continue
        x1, x2 = model.oracle_example1(rec.eps)
        worst = max(worst, abs(rec.dist_x - x2))
        n_compared += 1
    elapsed = time.monotonic() - t0
    ok = (0.64 <= slope <= 0.70 and n_compared >= 4 and worst <= 1e-6
          and elapsed < 5.0)
    _report(capsys, ok, "criterion 1: eps^(2/3) drift rate",
            "slope %.4f +- %.4f, solver-oracle gap %.2e over %d points, "
            "%.1fs" % (slope, stderr, worst, n_compared, elapsed))


def test_criterion_2_square_root_multiplier_drift(capsys):
    """The degenerate SDP family drifts in the multiplier like sqrt(eps)
    while SOSC holds and the strict constraint qualification fails."""
    t0 = time.monotonic()
    prog = model.builtin("example3")
    direction = model.fixture("example3").direction
    worst_res = 0.0
    for eps in [10.0 ** (-k / 2.0) for k in range(2, 13)]:
        bound = model.example3_xi_range(eps)
        for xi in (-bound, -0.75 * bound):
            pt = model.oracle_example3(eps, xi)
            worst_res = max(worst_res, kkt.natural_residual(
                prog, pt.x, pt.y, direction.scaled(eps)))
    result = sweep.builtin_sweep("example3")
    slope, stderr = sweep.fit_exponent(result)
    x, y = model.fixture("example3").reference
    sosc = conditions.check_sosc(prog, x, y)
    srcq = conditions.check_srcq(prog, x, y)
    seeds = []
    if srcq.witness is not None:
        seeds.append(np.concatenate([np.zeros(prog.n), srcq.witness]))
    probe = conditions.kernel_probe(prog, x, y, extra_seeds=seeds)
    elapsed = time.monotonic() - t0
    ok = (worst_res <= 1e-9 and 0.47 <= slope <= 0.53
          and sosc.status == HOLDS and srcq.status == FAILS
          and probe["min_residual"] <= conditions.KERNEL_FOUND_TOL
          and elapsed < 5.0)
    _report(capsys, ok, "criterion 2: sqrt(eps) multiplier drift",
            "family residual %.2e, slope %.4f +- %.4f, sosc %s, srcq %s, "
            "kernel residual %.2e, %.1fs"
            % (worst_res, slope, stderr, sosc.status, srcq.status,
               probe["min_residual"], elapsed))


def test_criterion_3_robustly_isolated_calm_fixture(capsys):
    """The degenerate-quartic fixture is robustly isolated calm: all
    qualifications hold, the affine-hull probe fails with the known
    witness, no kernel direction exists, and drift is Lipschitz."""
    t0 = time.monotonic()
    prog = model.builtin("example4")
    x, y = model.fixture("example4").reference
    nondeg = conditions.check_nondegeneracy(prog, x)
    srcq = conditions.check_srcq(prog, x, y)
    sosc = conditions.check_sosc(prog, x, y)
    hull = conditions.affine_hull_probe(prog, x, y)
    witness_ok = False
    if hull.witness is not None:
        D = smat(hull.witness)
        scale = max(np.linalg.norm(hull.witness), 1e-30)
        witness_ok = (abs(D[0, 0]) <= 1e-8 * scale
                      and abs(2.0 * D[0, 1] - D[1, 1]) <= 1e-8 * scale)
    probe = conditions.kernel_probe(prog, x, y, n_starts=200)
    result = sweep.builtin_sweep("example4")
    slope, _ = sweep.fit_exponent(result)
    kappa_hat = max(r.dist_x / r.eps for r in result.usable())
    elapsed = time.monotonic() - t0
    ok = (nondeg.status == HOLDS and srcq.status == HOLDS
          and sosc.status == HOLDS and hull.status == FAILS and witness_ok
          and probe["min_residual"] >= 1e-6 and slope >= 0.95
          and np.isfinite(kappa_hat) and elapsed < 10.0)
    _report(capsys, ok, "criterion 3: robust isolated calmness verified",
            "nondeg %s, srcq %s, sosc %s, hull %s (witness ok %s), "
            "kernel min %.2e, slope %.4f, kappa %.3f, %.1fs"
            % (nondeg.status, srcq.status, sosc.status, hull.status,
               witness_ok, probe["min_residual"], slope, kappa_hat, elapsed))


def test_criterion_4_nonunique_multipliers_with_stable_primal(capsys):
    """The nonunique-multiplier fixture keeps RCQ and a trivial critical
    cone: the primal still converges under perturbation."""
    t0 = time.monotonic()
    prog = model.builtin("example2")
    x, y = model.fixture("example2").reference
    rcq = conditions.check_rcq(prog, x)
    srcq = conditions.check_srcq(prog, x, y)
    mset = kkt.recover_multipliers(prog, x)
    cc = conditions.problem_critical_cone(prog, x, y)
    mults = [mset.representative]
    for k in range(mset.directions.shape[1]):
        mults.append(mset.representative + 1e-3 * mset.directions[:, k])
    robinson = conditions.check_robinson_sosc(prog, x, mults)
    result = sweep.builtin_sweep("example2")
    usable = result.usable()
    drift_shrinks = (len(usable) >= 4
                     and usable[-1].dist_x <= 1e-4 * usable[0].dist_x)
    elapsed = time.monotonic() - t0
    ok = (rcq.status == HOLDS and mset is not None and mset.affine_dim >= 1
          and srcq.status == FAILS and cc.is_subspace and cc.affine_dim == 0
          and robinson.status == HOLDS and drift_shrinks and elapsed < 5.0)
    _report(capsys, ok, "criterion 4: stable primal, nonunique multipliers",
            "rcq %s, mult dim %d, srcq %s, critical cone dim %d, "
            "robinson %s, final drift %.2e, %.1fs"
            % (rcq.status, mset.affine_dim, srcq.status, cc.affine_dim,
               robinson.status, usable[-1].dist_x if usable else np.inf,
               elapsed))


def test_criterion_5_projection_calculus_properties(capsys):
    """10^4 random trials: nonexpansiveness, Moreau decomposition,
    finite-difference agreement of the directional derivative, and
    positive homogeneity, with zero failures."""
    rng = np.random.default_rng(2024)
    t = 1e-6
    failures = 0
    n_trials = 10_000
    for _ in range(n_trials):
        kind = rng.choice(["orthant", "soc", "psd"])
        size = int(rng.integers(2, 6)) if kind != "psd" \
            else int(rng.integers(2, 4))
        cone = Cone([(kind, size)])
        u = 2.0 * rng.standard_normal(cone.dim)
        v = 2.0 * rng.standard_normal(cone.dim)
        pu, pv = cone.project(u), cone.project(v)
        if np.linalg.norm(pu - pv) > np.linalg.norm(u - v) + 1e-12:
            failures += 1
            continue
        q = -cone.project(-u)
        if (np.linalg.norm(pu + q - u) > 1e-10
                or abs(pu @ (u - pu)) > 1e-9):
            failures += 1
            continue
        frame = cone.frame(u)
        h = rng.standard_normal(cone.dim)
        d = frame.dir_deriv(h)
        fd = (cone.project(u + t * h) - pu) / t
        if np.linalg.norm(d - fd) > 10.0 * t * max(1.0, h @ h):
            failures += 1
            continue
        s = float(rng.uniform(0.1, 5.0))
        if np.linalg.norm(frame.dir_deriv(s * h) - s * d) > 1e-9 * s:
            failures += 1
    _report(capsys, failures == 0,
            "criterion 5: projection calculus properties",
            "%d/%d trials failed" % (failures, n_trials))


def test_criterion_6_derivative_characterization_equivalence(capsys):
    """1000 random direction pairs per cone type: the three-part
    membership characterization agrees with the fixed-point predicate
    dA = dir_deriv(frame; dA + dB) in every trial."""
    rng = np.random.default_rng(77)
    disagreements = 0
    per_type = 1000
    for kind, size in (("orthant", 4), ("soc", 4), ("psd", 3)):
        cone = Cone([(kind, size)])
        for _ in range(per_type):
            frame = cone.frame(rng.standard_normal(cone.dim))
            dA = rng.standard_normal(cone.dim)
            dB = rng.standard_normal(cone.dim)
            if rng.random() < 0.5:
                d = frame.dir_deriv(dA + dB)
                dA, dB = d, dA + dB - d
            conj = all(dir_deriv_conditions(frame, dA, dB, tol=1e-8))
            fixed = dir_deriv_fixed_point(frame, dA, dB, tol=1e-8)
            if conj != fixed:
                disagreements += 1
    _report(capsys, disagreements == 0,
            "criterion 6: derivative characterization equivalence",
            "%d disagreements over %d trials" % (disagreements,
                                                 3 * per_type))


def test_criterion_7_verdict_battery_consistency(capsys,
                                                 well_conditioned_instance):
    """On the four fixtures plus two generated instances, the kernel
    probe agrees with the SRCQ-and-SOSC verdict with no inconclusives."""
    cases = []
    for name in ("example1", "example2", "example3", "example4"):
        prog = model.builtin(name)
        x, y = model.fixture(name).reference
        cases.append((prog, x, y))
    cases.append(well_conditioned_instance("orthant", seed=0))
    cases.append(well_conditioned_instance("psd", seed=0))
    bad = []
    for prog, x, y in cases:
        report = conditions.assemble_report(prog, x, y)
        probe_status = report.kernel_probe["status"]
        if (report.theorem_verdict == "inconclusive"
                or probe_status == "inconclusive"
                or report.consistency_flag is not True):
            bad.append(prog.name)
    _report(capsys, not bad, "criterion 7: verdict battery consistency",
            "inconsistent cases: %s" % (bad or "none"))


def test_criterion_8_newton_robustness(capsys):
    """At least 95% of 100 seeded starts within radius 0.1 of the
    degenerate-quartic KKT point reach residual 1e-10 in 50 iterations."""
    prog = model.builtin("example4")
    x, y = model.fixture("example4").reference
    rng = np.random.default_rng(8)
    opts = kkt.SolveOptions(max_iter=50, residual_target=1e-10)
    n_ok = 0
    for _ in range(100):
        d = rng.standard_normal(7)
        d *= 0.1 * rng.random() / np.linalg.norm(d)
        start = kkt.KKTPoint(x + d[:3], y + d[3:], 0.0)
        pt = kkt.solve_kkt(prog, start=start, opts=opts)
        if pt.converged and pt.residual <= 1e-10:
            n_ok += 1
    _report(capsys, n_ok >= 95, "criterion 8: solver robustness",
            "%d/100 starts converged" % n_ok)


def test_criterion_9_local_error_bound(capsys):
    """A single fitted constant bounds distance-to-solution by the
    residual norm over 1000 sampled points within 1e-2."""
    prog = model.builtin("example4")
    x, y = model.fixture("example4").reference
    rng = np.random.default_rng(9)
    ref = np.concatenate([x, y])
    samples = []
    for _ in range(1000):
        d = rng.standard_normal(7)
        d *= 1e-2 * rng.random() ** (1.0 / 7.0) / np.linalg.norm(d)
        samples.append(d)
    kappa = 0.0
    for d in samples:
        res = kkt.natural_residual(prog, x + d[:3], y + d[3:])
        dist = np.linalg.norm(d)
        assert res > 0.0 or dist == 0.0
        if res > 0.0:
            kappa = max(kappa, dist / res)
    violations = 0
    for d in samples:
        res = kkt.natural_residual(prog, x + d[:3], y + d[3:])
        if np.linalg.norm(d) > kappa * res + 1e-12:
            violations += 1
    ok = np.isfinite(kappa) and kappa > 0.0 and violations == 0
    _report(capsys, ok, "criterion 9: local error bound",
            "fitted kappa %.3f, %d violations over 1000 samples"
            % (kappa, violations))
