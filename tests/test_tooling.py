"""The audit script runs, and what it lists is what is kept on purpose;
flowlab starts without scipy."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: `scripts/idle_options.py` output.  Only program calls (`src/`,
#: `scripts/`, `perfbench/`) decide an option; a test's call does not.
#: Kept on purpose:
#: - two private helper literals, `_fd_jacobian(h)` and `_check_in_box(slack)`;
#: - `cli.main(argv)`: the tests drive the CLI in-process;
#: - `rebalance_sequence(L, T)`: the [eta e^{-LT}, eta^-1 e^{LT}] scale band,
#:   and `sectional_poincare(max_radius=None)`: the section-radius check.
#:   Only tests run either check today; both wait for ROADMAP item 10, the
#:   honest Lorenz radii, and removing them would loosen a check;
#: - `run_scenario(out, seed)`: the CLI passes None without --out or --seed;
#: - two exception annotations (pickling re-calls an exception with its
#:   message alone);
#: - two scenario handlers that share the `(sc, field, out)` signature of
#:   the handler table without using all of it.
#: Not listed, and kept too: every signature that `perfbench/` calls (such
#: as `assemble_block_system(enforce_radius, lip_samples, seed)`,
#: `psi_ambient`, `sample_orbit(tol)` and `flow_states_batch(t_eval)`).
#: The public definitions that only tests call are kept because:
#: - `custom_field` and `evaluate` are public API (ROADMAP item 9);
#: - the tangent-splitting path (`estimate_tangent_splitting`,
#:   `induce_from_tangent_splitting`) waits for ROADMAP item 4, the Lorenz
#:   singularity;
#: - `crossing_sequence` waits for items 12 and 16;
#: - `NormalMap.compose` waits for item 7.
#: The test oracles and record checks that only tests ran live in
#: `tests/oracles.py`.
ALLOWED = """\
idle default: 5
  cli.main(argv=None)
  fields._fd_jacobian(h=1e-06)
  flowbox._check_in_box(slack=1e-09)
  hyperbolic.rebalance_sequence(L=None)
  hyperbolic.rebalance_sequence(T=None)
filled default: 5
  cli.run_scenario(out=None)
  cli.run_scenario(seed=None)
  errors.HypothesisError.__init__(measured_sup=None)
  errors.CrossingError.__init__(k=None)
  poincare.sectional_poincare(max_radius=None)
idle scenario key: 0
unread parameter: 2
  cli._run_fixedpoint(field)
  cli._run_constants(out)
test-only definition: 6
  fields.custom_field
  fields.evaluate
  hyperbolic.estimate_tangent_splitting
  hyperbolic.induce_from_tangent_splitting
  poincare.NormalMap.compose
  reparam.crossing_sequence
"""


def test_idle_options_lists_only_what_is_kept_on_purpose():
    out = subprocess.run([sys.executable,
                          str(ROOT / "scripts" / "idle_options.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out == ALLOWED


def _idle_options():
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import idle_options
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return idle_options


def test_idle_options_finds_an_unread_parameter(tmp_path):
    # the audit gap of `_orbit_displacement(field, ...)`: a parameter that
    # every caller passes and the body never reads
    idle_options = _idle_options()
    pkg = tmp_path / "src" / "flowlab"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "def f(field, chart, eps):\n"
        "    g = lambda: chart\n"
        "    eps += 1\n"
        "    return g, eps\n\n\n"
        "class C:\n"
        "    def h(self, a):\n"
        "        return 0\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("f(1, 2, 3)\nC().h(4)\n")
    for d in ("scripts", "perfbench"):
        (tmp_path / d).mkdir()
    assert idle_options.scan(tmp_path)[2] == ["m.f(field)", "m.C.h(a)"]


def test_idle_options_counts_only_program_calls(tmp_path):
    # a default that only a test sets is idle, a None default that only a
    # test leaves out is filled, and a definition that no program calls is
    # skipped (the test-only list names it)
    pkg = tmp_path / "src" / "flowlab"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text("def f(x, knob=3, out=None):\n"
                              "    return x, knob, out\n\n\n"
                              "def oracle(y=1):\n    return y\n")
    for d in ("tests", "scripts", "perfbench"):
        (tmp_path / d).mkdir()
    (tmp_path / "scripts" / "s.py").write_text("f(1, out=2)\n")
    (tmp_path / "tests" / "t.py").write_text("f(1, knob=4)\nf(2)\n"
                                             "oracle(y=2)\n")
    idle, filled, _ = _idle_options().scan(tmp_path)
    assert idle == ["m.f(knob=3)"]
    assert filled == ["m.f(out=None)"]


def test_idle_options_finds_a_test_only_definition(tmp_path):
    # a public function or method that a script calls is not listed, nor
    # is a private one or a property; the ones that only tests call are,
    # a method as Class.method
    pkg = tmp_path / "src" / "flowlab"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text("def used():\n    pass\n\n\n"
                              "def oracle():\n    pass\n\n\n"
                              "class _Private:\n    pass\n\n\n"
                              "class C:\n"
                              "    def run(self):\n        pass\n\n"
                              "    def check(self):\n        pass\n\n"
                              "    def _helper(self):\n        pass\n\n"
                              "    @property\n"
                              "    def size(self):\n        return 0\n")
    (pkg / "__init__.py").write_text("from .m import oracle, used\n")
    for d in ("tests", "scripts", "perfbench"):
        (tmp_path / d).mkdir()
    (tmp_path / "tests" / "t.py").write_text(
        "from flowlab.m import _Private, C, oracle, used\n"
        "oracle()\nused()\n_Private()\n"
        "c = C()\nc.run()\nc.check()\nc._helper()\nc.size()\n")
    (tmp_path / "scripts" / "s.py").write_text("import flowlab\n"
                                               "flowlab.used()\n"
                                               "flowlab.m.C().run()\n")
    assert _idle_options().test_only(tmp_path) == ["m.oracle", "m.C.check"]


def test_flowlab_imports_no_scipy():
    # numpy is flowlab's only run-time dependency: scipy's import costs
    # most of a short run's start-up
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, flowlab, flowlab.cli\n"
         "print(sorted(m for m in sys.modules\n"
         "             if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, check=True, env=env).stdout
    assert out == "[]\n"
