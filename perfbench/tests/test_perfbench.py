"""Self-tests of the benchmark: span arithmetic, binding coverage of the
tracer, oracle pins and failure counting, and seeded inputs."""

from __future__ import annotations

import copy
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    inner = tr.wrap("inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(3.0)
        inner()

    outer = tr.wrap("outer", outer_body)
    outer()
    assert (tr.spans["outer"].calls, tr.spans["outer"].total_s, tr.spans["outer"].self_s) == (1, 8.0, 4.0)
    assert (tr.spans["inner"].calls, tr.spans["inner"].total_s, tr.spans["inner"].self_s) == (2, 4.0, 4.0)


def test_hook_time_is_charged_to_no_span():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def work(n):
        clock.advance(1.0)
        return n

    inner = tr.wrap("inner", work, hook=lambda args, result: clock.advance(10.0))
    outer = tr.wrap("outer", lambda: inner(5))
    assert outer() == 5
    assert tr.spans["inner"].self_s == 1.0
    assert tr.spans["outer"].self_s == 0.0
    assert tr.spans["outer"].total_s == 11.0


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.f = f  # `from .a import f`
    pkg.f = f
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, a, b


def test_patch_replaces_every_binding(fake_package):
    pkg, a, b = fake_package
    original = a.f
    tr = tracing.Tracer()
    assert tr.patch("a.f", "layer", package="fakepkg") == 3
    assert a.f is not original
    assert a.f(1) + b.f(1) + pkg.f(1) == 6
    assert tr.spans["layer"].calls == 3
    tr.unpatch()
    assert a.f is b.f is pkg.f is original


def test_missing_function_fails_loudly(fake_package):
    with pytest.raises(tracing.TracerError, match="no longer exists"):
        tracing.Tracer().patch("a.gone", "layer", package="fakepkg")
    with pytest.raises(tracing.TracerError, match="not imported"):
        tracing.Tracer().patch("nomodule.f", "layer", package="fakepkg")


def test_install_covers_the_program():
    import latvoa.cli  # imports every module the CLI uses

    main = latvoa.cli.main
    tr = tracing.Tracer()
    try:
        bindings = tracing.install(tr)
        # points_within is imported by name into screening and characters
        assert bindings["lattice.points_within"] >= 3
        assert bindings["screening.layer_basis"] >= 2
        assert bindings["vertexop.residue_op"] >= 3
        out = run_job(latvoa.cli, ["kernel", "--algebra", "A1", "--ell", "4", "--max-level", "1"])
        assert out["rc"] == 0
        layers = tracing.layer_metrics(tr)
        assert layers["lattice.enum_calls"] > 0 and layers["linalg.elim_calls"] > 0
        assert layers["screening.basis_calls"] > 0 and layers["cli.self_s"] > 0
    finally:
        tr.unpatch()
    assert latvoa.cli.main is main


def test_oracle_pins_match_the_q_series():
    from latvoa.characters import graded_dim_module, sf_characters
    from latvoa.lattice import ScreeningLattices
    from latvoa.rootdata import build_root_system

    for (algebra, module), want in oracle.KERNEL_INTERSECTIONS.items():
        chars = sf_characters(int(algebra[1:]), len(want))
        got = [int(c) for c in chars[oracle.CHI_OF_MODULE[module]].coeffs[: len(want)]]
        assert got == want, (algebra, module)
    for algebra, dims in oracle.LAYER_DIMS.items():
        sl = ScreeningLattices(build_root_system(algebra[0], int(algebra[1:])), 4)
        series = graded_dim_module(sl, sl.named_cosets()["blue"], len(dims) - 1)
        assert [int(c) for c in series.coeffs] == dims, algebra
    for algebra, (gram, q) in oracle.WEIGHT_DATA.items():
        sl = ScreeningLattices(build_root_system(algebra[0], int(algebra[1:])), 4)
        assert [list(row) for row in sl.space.gram] == gram
        assert list(sl.Q.coords) == q


def test_term_weights_reads_printed_states():
    state = (
        "1/2 * d phi[a1] * d phi[a1] * exp[2*a1 + 2*a2] + d phi[a1] * d phi[a2] * exp[2*a1 + 2*a2]"
        " - 1/2 * d^2 phi[a1] * exp[2*a1 + 2*a2]"
    )
    assert oracle.term_weights(state, "B2") == [Fraction(3)] * 3
    assert oracle.term_weights("-d phi[a1] * exp[a1]", "A1") == [Fraction(1)]
    assert oracle.term_weights("0", "A1") == []
    assert oracle.parse_momentum("-3/2*a1 - a2", 2) == [Fraction(-3, 2), Fraction(-1)]


def _kernel_job():
    import latvoa.cli

    job = {"argv": ["kernel", "--algebra", "B2", "--ell", "4", "--module", "blue", "--max-level", "2"]}
    return job, run_job(latvoa.cli, job["argv"])


def test_corrupted_kernel_answer_counts_as_failed():
    job, good = _kernel_job()
    assert oracle.check_job(job, good, GOLDEN) == []
    doc = json.loads(good["stdout"])
    doc["layers"][2]["intersection_dim"] += 1
    bad = dict(good, stdout=json.dumps(doc))
    raised = dict(good, rc=None, error="Traceback ...\nAssertionError: boom\n")
    failures = run.check_pass([job, job, job], [good, bad, raised], GOLDEN)
    assert len(failures) == 2
    assert "chi1" in failures[0] and "AssertionError" in failures[1]


def test_golden_prefix_catches_a_changed_basis():
    job, good = _kernel_job()
    doc = json.loads(good["stdout"])
    doc["layers"][0]["intersection_basis"] = ["2 * exp[0]"]
    problems = oracle.check_job(job, dict(good, stdout=json.dumps(doc)), GOLDEN)
    assert any("golden kernel_B2_l4_blue_lvl1" in p for p in problems)


def test_screen_apply_weight_change_is_caught():
    job = {"argv": ["screen-apply", "--algebra", "A1"], "h": "1", "fractional": False}
    doc = {"ok": True, "algebra": "A1", "state": "exp[2*a1]", "result": "-d phi[a1] * exp[a1]"}
    result = {"rc": 0, "stdout": json.dumps(doc), "error": None}
    assert oracle.check_job(job, result, GOLDEN) == []
    doc["result"] = "exp[a1]"
    assert oracle.check_job(job, dict(result, stdout=json.dumps(doc)), GOLDEN)


def test_same_seed_gives_same_screen_apply_states():
    pools = workloads.state_pools()
    first = workloads.screen_apply_jobs(7, pools)
    assert first == workloads.screen_apply_jobs(7, copy.deepcopy(pools))
    assert first != workloads.screen_apply_jobs(8, pools)
    assert len(first) == workloads.INTEGER_DRAWS + workloads.FRACTIONAL_DRAWS
    for job in first:
        state, algebra = oracle._flag(job["argv"], "--state"), job["argv"][2]
        assert set(oracle.term_weights(state, algebra)) == {Fraction(job["h"])}
    assert workloads.jobs_for("kernel", 3) == workloads.jobs_for("kernel", 3)


def test_paired_ratio_weights_jobs_by_reference_time():
    program = [[2.0, 10.0], [2.0, 30.0], [2.0, 20.0]]
    reference = [[1.0, 10.0], [1.0, 10.0], [1.0, 10.0]]
    # per-job median ratios 2 and 2, weights 1 and 10
    assert run.paired_ratio(program, reference) == 2.0
    assert run.paired_ratio([[3.0, 1.0]], [[1.0, 1.0]]) == 2.0


def test_compare_flags_a_metric_worse_than_its_bound(capsys):
    def runs(wall_rel, enum_s):
        return {
            ("kernel", 0): [{"metrics": {"wall_rel": wall_rel, "setup_s": 0.07}}],
            ("kernel", 1): [{"metrics": {"lattice.enum_s": enum_s}}],
        }

    compare.compare(runs(1.0, 2.0), runs(1.5, 1.0))
    out = capsys.readouterr().out
    assert "wall_rel" in out and "WORSE than bound" in out
    assert "setup_s" in out and "within bound" in out
    assert "lattice.enum_s" in out and "-50.0%" in out
