"""Tests of the benchmark's own parts: generator, oracle, tracer.

    python3 -m pytest bench -q      (from the repository root)
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from conestab import conditions, kkt, model, sweep  # noqa: E402

KINDS = [
    ([("orthant", 6)], [2], [1], "identity", "pd"),
    ([("soc", 5)], [2], [0], "identity", "pd"),
    ([("soc", 5)], [1], [0], "identity", "pd"),
    ([("soc", 5)], [0], [0], "identity", "pd"),
    ([("soc", 5)], [0], [1], "identity", "pd"),
    ([("psd", 4)], [1], [1], "identity", "pd"),
    ([("psd", 4)], [1], [0], "nonunique", "pd"),
    ([("orthant", 5)], [1], [0], "nonunique", "pd"),
    ([("soc", 4)], [0], [0], "nonunique", "pd"),
    ([("psd", 4)], [2], [0], "identity", "face-null"),
    ([("orthant", 3), ("soc", 4), ("psd", 3)], [1, 1, 1], [1, 0, 1],
     "identity", "face-null"),
]


@pytest.mark.parametrize("blocks,rank,border,g,q", KINDS)
def test_generator_yields_kkt_pair(blocks, rank, border, g, q):
    inst = gen.make_instance(blocks, rank, border, g, q, seed=3)
    prog = model.load_problem(inst.to_json())
    assert kkt.natural_residual(prog, inst.x, inst.y) <= gen.KKT_TOL
    assert inst.verdict == ("holds" if (g, q) == ("identity", "pd")
                            else "fails")


def test_generator_is_seeded():
    a = gen.make_instance([("psd", 3)], [1], seed=5).to_json()
    b = gen.make_instance([("psd", 3)], [1], seed=5).to_json()
    c = gen.make_instance([("psd", 3)], [1], seed=6).to_json()
    assert a == b != c


def test_generated_structure():
    inst = gen.make_instance([("psd", 5)], [2], [1], "nonunique", "pd", seed=1)
    frame = inst.prog.cone.frame(inst.prog.constraint(inst.x) + inst.y)
    f = frame.frames[0]
    assert (len(f.alpha), len(f.beta), len(f.gamma)) == (2, 1, 2)
    mset = kkt.recover_multipliers(inst.prog, inst.x)
    assert mset.affine_dim == 1
    flat = gen.make_instance([("psd", 4)], [2], None, "identity", "face-null",
                             seed=1)
    cc = conditions.problem_critical_cone(flat.prog, flat.x, flat.y)
    assert conditions.check_sosc(flat.prog, flat.x, flat.y).fails
    assert cc.is_subspace


def test_generator_rejects_impossible_structure():
    with pytest.raises(ValueError):
        gen.make_instance([("psd", 3)], [2], [2])
    with pytest.raises(ValueError):
        gen.make_instance([("orthant", 3)], [3], None, "nonunique", "pd")


def _report(verdict, sosc_status="holds", note="exact subspace eigenvalue",
            srcq_status="holds"):
    return {"theorem_verdict": verdict,
            "srcq": {"status": srcq_status},
            "sosc": {"status": sosc_status, "note": note},
            "kernel_probe": {"status": "fails"},
            "multiplier_affine_dim": 2}


def test_oracle_flags_flipped_verdict():
    assert oracle.check_analyze(_report("holds"), "holds").ok
    flipped = oracle.check_analyze(_report("fails"), "holds")
    assert not flipped.ok and not flipped.known
    wrong = oracle.check_analyze(_report("holds"), "fails")
    assert not wrong.ok and not wrong.known


SAMPLED = "multi-start minimum (heuristic)"


def test_oracle_names_the_sampled_sosc_defect():
    out = oracle.check_analyze(_report("holds", note=SAMPLED), "fails",
                               ("identity", "face-null"))
    assert not out.ok
    assert out.defect == oracle.SAMPLED_SOSC and out.known
    out = oracle.check_analyze(_report("holds", note="grid + descent minimum"),
                               "fails", ("identity", "face-null"))
    assert out.known


@pytest.mark.parametrize("report,construction", [
    # nonunique multipliers: SRCQ must fail, a holds verdict is another defect
    (_report("holds", note=SAMPLED), ("nonunique", "pd")),
    # the same flip on a fixture is not the generated-instance defect
    (_report("holds", note=SAMPLED), None),
    # a vacuous SOSC is not a sampled minimum
    (_report("holds", note="critical cone is {0}; condition is vacuous"),
     ("identity", "face-null")),
    # a holds verdict without SRCQ holding is not the SOSC defect
    (_report("holds", note=SAMPLED, srcq_status="fails"),
     ("identity", "face-null")),
])
def test_oracle_leaves_other_flips_unknown(report, construction):
    out = oracle.check_analyze(report, "fails", construction)
    assert not out.ok and not out.known and out.defect is None


def test_oracle_checks_the_solved_reference():
    import numpy as np
    x, y = np.ones(3), np.zeros(2)
    assert oracle.check_reference(x + 1e-9, y, x, y).ok
    assert not oracle.check_reference(x, y + 1e-3, x, y).ok


def test_oracle_affine_dim_and_bands():
    assert oracle.check_analyze(_report("fails"), "fails", None, 2).ok
    assert not oracle.check_analyze(_report("fails"), "fails", None, 1).ok
    assert oracle.check_exponent(0.66, "example1").ok
    assert not oracle.check_exponent(0.9, "example1").ok
    assert not oracle.check_exponent(0.9, "generated").ok
    assert not oracle.check_exponent(None, "generated").ok
    assert not oracle.check_exit(4).ok


def test_self_time_arithmetic():
    tr = tracer.Tracer()
    root = tr.record("a", 0.0, 10.0)
    tr.record("b", 1.0, 3.0, parent=root)
    c2 = tr.record("b", 4.0, 8.0, parent=root)
    tr.record("b", 5.0, 6.0, parent=c2)
    st = tracer.self_times(tr.spans())
    assert st.tolist() == [4.0, 2.0, 3.0, 1.0]
    # nested spans of one name count once toward its time
    assert tracer.union_length([1.0, 4.0, 5.0], [3.0, 8.0, 6.0]) == 6.0
    assert tracer.union_length([], []) == 0.0


def test_summarize_counts_under_ancestors():
    tr = tracer.Tracer()
    kp = tr.record("conditions.kernel_probe", 0.0, 5.0)
    tr.record("cones.dir_deriv_jac", 1.0, 2.0, parent=kp)
    tr.record("cones.dir_deriv_jac", 6.0, 7.0)
    rs = tr.record("sweep.run_sweep", 10.0, 20.0)
    tr.record("kkt.solve_kkt_multistart", 11.0, 12.0, parent=rs)
    out = tracer.summarize(tr, passes=1)
    assert out["conditions.kernel_probe.tmatrix_evals"] == 1
    assert out["cones.dir_deriv_jac.calls"] == 2
    assert out["cones.dir_deriv_jac.s"] == 2.0
    assert out["sweep.cold_fallbacks"] == 1
    assert out["sweep.run_sweep.s"] == 10.0


def test_install_wraps_every_binding_and_uninstall_restores():
    import conestab
    from conestab import cones
    originals = (kkt.solve_kkt, sweep.solve_kkt, conditions.natural_residual,
                 model.svec, conestab.svec, cones.ConeFrame.cc_project)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        assert sweep.solve_kkt is kkt.solve_kkt is conestab.solve_kkt
        assert sweep.solve_kkt is not originals[0]
        assert conditions.natural_residual is kkt.natural_residual
        assert model.svec is cones.svec is conestab.svec
        inst = gen.make_instance([("psd", 3)], [1], seed=2)
        prog = model.load_problem(inst.to_json())
        pt = kkt.solve_kkt_multistart(prog)
        assert pt.converged
    finally:
        tracer.uninstall(tr)
    assert (kkt.solve_kkt, sweep.solve_kkt, conditions.natural_residual,
            model.svec, conestab.svec, cones.ConeFrame.cc_project) == originals
    names = {tr.names[i] for i in tr.spans()["name"]}
    assert {"model.load_problem", "kkt.solve_kkt", "cones.project",
            "linalg.sym_eig", "cones.svec"} <= names
    out = tracer.summarize(tr)
    assert out["kkt.newton_iters"] == pt.iterations
    assert out["kkt.solve_converged_ratio"] == 1.0


def test_workload_lists_build(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        ops = build(1, str(tmp_path))
        assert ops and all(op.kind in ("verdict", "sweep", "certify")
                           for op in ops), name
    sizes = [gen.make_instance(b, r, bo, g, q, seed=1).prog.cone.dim
             for b, r, bo, g, q in workloads.DEGENERATE]
    assert 6 <= min(sizes) and max(sizes) <= 20


def test_tail_mean_is_the_slowest_quarter():
    import run
    assert run.tail_mean([8.0, 1.0, 2.0, 7.0, 3.0, 4.0, 5.0, 6.0]) == 7.5
    assert run.tail_mean([2.0, 1.0]) == 2.0


def test_times_are_scaled_by_the_references_around_them(monkeypatch):
    import run

    class Op:
        kind = name = "noop"

        def call(self):
            return None

        def check(self, _result):
            return oracle.OK

    refs = iter([0.004, 0.012, 0.008])
    monkeypatch.setattr(hostspeed, "reference", lambda: next(refs))
    runner = run.Runner([Op(), Op()], calibrate=True)
    runner.one_pass()
    assert runner.refs == [0.004, 0.012, 0.008]
    (_, _, dt0, _, in0), (_, _, dt1, _, in1) = runner.samples
    assert in0 == in1 == []  # both far shorter than PERIOD_S
    (_, _, t0), (_, _, t1) = runner.scaled()
    assert t0 == pytest.approx(dt0 * hostspeed.REF_S / 0.008)
    assert t1 == pytest.approx(dt1 * hostspeed.REF_S / 0.010)
    assert hostspeed.scale(2.0, [0.5 * hostspeed.REF_S, hostspeed.REF_S,
                                 1.5 * hostspeed.REF_S]) == pytest.approx(2.0)


def test_sampler_takes_references_inside_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2.5 * hostspeed.PERIOD_S:
            pass
    assert len(sampler.refs) == 2
    assert sum(sampler.refs) <= sampler.spent
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
