"""Run the standing list of one-line mutants of ``src/chronodil`` against tier-1.

    python tools/mutants.py [PATTERN]

Each mutant is (file, exact old text, new text, reason). The tree is
copied once to a temporary directory; each mutant replaces its old text,
which must occur exactly once in its file, runs

    python -m pytest -q -x -p no:cacheprovider --deselect <7a>

in the copy, and puts the file back. A failing run kills the mutant. The
unmutated copy runs first and must pass. With PATTERN, only the mutants
whose reason contains it run.

One line per mutant reads ``killed`` or ``survived``. ``KNOWN_SURVIVORS``
lists the mutants tier-1 is known not to kill; the others must be killed.
Exit status: 0 when no mutant outside ``KNOWN_SURVIVORS`` survives, 1 when
one does or a mutant's old text is not found exactly once, 2 when the
unmutated tree fails. Needs no package beyond the test suite's own, and
is not part of tier-1: each mutant is a full pytest run, a few minutes in
all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = "tests/test_acceptance.py::test_criterion_07a_precision_excess_vs_ideal_term"

KIN, DIL, CLK, CFG = (f"src/chronodil/{name}.py" for name in
                      ("kinematics", "dilation", "clocks", "config"))
PRE, MEA, ORA, CLI = (f"src/chronodil/{name}.py" for name in
                      ("precision", "measurement", "oracle", "cli"))

MUTANTS = [
    # the mean clock time
    (KIN, "-m.mean_p2 / (2.0 * mass**2 * c**2)", "-1.01 * m.mean_p2 / (2.0 * mass**2 * c**2)",
     "r_factor: kinetic term x 1.01"),
    (KIN, "+ g * m.mean_x / c**2", "+ 1.01 * g * m.mean_x / c**2",
     "r_factor: height term x 1.01"),
    (KIN, "+ m.mean_p * g * t / (mass * c**2)", "+ 1.01 * m.mean_p * g * t / (mass * c**2)",
     "r_factor: momentum-gravity term x 1.01"),
    (KIN, "- gt * gt / 3.0\n", "- 1.01 * gt * gt / 3.0\n", "r_factor: fall term x 1.01"),
    (DIL, "correction = t * r * (1.0 + err)", "correction = t * r * (1.0 + 1.01 * err)",
     "mean_clock_time: error trace in the correction x 1.01"),
    (CLK, "rate=(2.0 / HBAR) * _dot(x, h).imag,",
     "rate=(2.0 / HBAR) * _dot(x, h).imag * 1.01 - 0.01,", "free_reading: tr E x 1.01"),
    (DIL, "+ g * x0 / c**2", "+ 1.01 * g * x0 / c**2", "classical proper time: g x0 term x 1.01"),
    # the coherence term
    (DIL, "motional = (cat.delta_x0", "motional = 1.01 * (cat.delta_x0",
     "t_coh: motional term x 1.01"),
    (DIL, "gravitational = g * cat.delta_x0", "gravitational = 1.01 * g * cat.delta_x0",
     "t_coh: gravitational term x 1.01"),
    (DIL, "phase_term = 2.0 *", "phase_term = 2.02 *", "t_coh: phase term x 1.01"),
    # the spread
    (PRE, "return t * t * (m.mean_p4 + m.var_p2)", "return 1.01 * t * t * (m.mean_p4 + m.var_p2)",
     "sigma_ideal_term x 1.01"),
    (PRE, "return (shift / (2.0 * s_nr) * brace1", "return (1.01 * shift / (2.0 * s_nr) * brace1",
     "sigma_NI: first term x 1.01"),
    (PRE, "- shift**2 / (8.0 * s_nr**3)", "- 1.01 * shift**2 / (8.0 * s_nr**3)",
     "sigma_NI: second term x 1.01"),
    (PRE, "- shift**2 / (2.0 * s_nr) * brace2", "- 1.01 * shift**2 / (2.0 * s_nr) * brace2",
     "sigma_NI: third term x 1.01"),
    (PRE, "- shift2 / (2.0 * s_nr) * brace3", "- 1.01 * shift2 / (2.0 * s_nr) * brace3",
     "sigma_NI: fourth term x 1.01"),
    # killed only by tests/test_invariants.py: (m, c) -> (3m, c/3) must leave <W> alone
    (PRE, "m.mean_p4 / (8.0 * mass**4 * c**4)", "m.mean_p4 / (8.0 * mass**4 * c**5)",
     "w_moments: c^-4 term of <W> with a mixed light-speed power"),
    # and by its mirror of conditioned_sigma: a 7.5 sigma_p cut below p0 drops
    # 3e-14 of the whole-line bin on one side only
    (MEA, "lo_c = max(lo, kstate.p0 - _SUPPORT_SIGMAS * sp)",
     "lo_c = max(lo, kstate.p0 - 7.5 * sp)",
     "conditioned_sigma: support cut at 7.5 sigma_p below p0"),
    (CLK, "d_q = (2.0 / HBAR)", "d_q = 1.01 * (2.0 / HBAR)", "sigma_NI: brace1 = dq/dt x 1.01"),
    (PRE, "brace2 = (rate - 1.0) * (rate + 1.0)", "brace2 = 1.01 * (rate - 1.0) * (rate + 1.0)",
     "sigma_NI: brace2 x 1.01"),
    (PRE, "brace3 = d2_q + 4.0 * free.mean * d2_t - 2.0",
     "brace3 = 1.01 * (d2_q + 4.0 * free.mean * d2_t - 2.0)", "sigma_NI: brace3 x 1.01"),
    (PRE, "+ 4.0 * free.mean * d2_t", "- 4.0 * free.mean * d2_t",
     "sigma_NI: sign of 4 <T> d^2<T>/dt^2 flipped"),
    # the measurement
    (MEA, "np.sqrt(clock.sigma_t0**2 + t * t * var_w)", "np.sqrt(clock.sigma_t0**2 + 0.0 * var_w)",
     "conditioned_sigma: full recovery"),
    (MEA, "_conditional_w_moments(kstate, *binning.edges(n), c)",
     "_conditional_w_moments(kstate, -math.inf, math.inf, c)", "conditioned_sigma: no recovery"),
    (MEA, "clock.sigma_t0**2 + t * t * var_w", "clock.sigma_t0**2 + 1.01 * t * t * var_w",
     "conditioned_sigma: variance x 1.01"),
    (MEA, "t * (1.0 + mean_w)", "t * (1.0 + 1.01 * mean_w)", "conditioned_sigma: mean x 1.01"),
    (MEA, "(-0.5 / mc2 + 3.0 * (p**2 + pc**2) / (8.0 * mc2**2))", "(-0.5 / mc2)",
     "conditioned_sigma: no c^-4 term"),
    # the input checks that no config rule repeats
    (MEA, "if not isinstance(clock, IdealisedClock):", "if False:",
     "conditioned_sigma: clock check removed"),
    (MEA, "if not isinstance(kstate, GaussianState):", "if False:",
     "conditioned_sigma: state check removed"),
    (DIL, "if not isinstance(cat, CatState):", "if False:", "t_coh: state check removed"),
    (CFG, "if num < 2:", "if False:", "linear_grid: fewer than two points accepted"),
    (MEA, "if n != 0 and self.delta_p == math.inf:", "if False:",
     "MomentumBinning: a bin other than 0 accepted at infinite width"),
    # the oracle and its verdict
    (ORA, "elapsed = t - i2 /", "elapsed = t - 1.01 * i2 /", "oracle: c2 coupling x 1.01"),
    (ORA, "elapsed + 3.0 * i4 /", "elapsed + 3.03 * i4 /", "oracle: c4 coupling x 1.01"),
    (ORA, "extent = (18.0 * base.sigma_x", "extent = (9.0 * base.sigma_x",
     "default grid: envelope of half the width"),
    (ORA, "/ np.dot(x, x))", "/ np.dot(x, x) / 2.0)", "fit exponent halved"),
    (ORA, "at_floor = all(r < floor for r in residuals)", "at_floor = True",
     "at_floor always true"),
    (ORA, '"abs", -5.0)', '"abs", -3.0)', "verify_sigma limit loosened from -5 to -3"),
    (ORA, '"rel", -1.8)', '"rel", -0.5)', "verify_mean_time limit loosened from -1.8 to -0.5"),
    (ORA, "result.correction)", "result.mean_t - result.mean_t_nr)",
     "verify_mean_time: correction formed as (reading + correction) - reading"),
    (ORA, "passed=resolved and (at_floor", "passed=(at_floor",
     "verdict: a correction below the floor passes again"),
    (ORA, "passed=resolved and (at_floor", "passed=(resolved or not at_floor) and (at_floor",
     "verdict: an unresolved correction whose residuals decay passes"),
    # the dense clock's read
    (CLK, "weight * mean.sum(axis=-1), weight * second.sum(axis=-1)",
     "mean.sum(axis=-1), second.sum(axis=-1)",
     "reading_stats: dense density read without its weight"),
    (CLK, "weight * mean.sum(axis=-1), weight * second.sum(axis=-1)",
     "weight * mean, weight * second", "reading_stats: dense density read without its row sum"),
    (PRE, "if np.abs(t2_cl - t_cl @ t_cl).max()", "if 0.0 * np.abs(t2_cl - t_cl @ t_cl).max()",
     "sigma_NI: projective rule removed"),
    (CFG, 'sigma_target = cfg.command == "verify" and', "sigma_target = False and",
     "config: verify target sigma accepted at g != 0"),
    # tolerance guards that must fail closed on NaN
    (CLK, "if not (abs(np.linalg.norm(psi) - 1.0) <= 1e-12):",
     "if abs(np.linalg.norm(psi) - 1.0) > 1e-12:", "ClockModel: unit-ket check passes a NaN norm"),
    (CLK, "if not (defect <= 1e-12 * np.abs(op).max()):", "if defect > 1e-12 * np.abs(op).max():",
     "ClockModel: Hermiticity check passes a NaN entry"),
    (KIN, "if not (captured >= 1.0 - 1e-6):", "if captured < 1.0 - 1e-6:",
     "to_grid: capture check passes a NaN grid"),
    (ORA, "if not (abs(worst - 1.0) <= 1e-8):", "if abs(worst - 1.0) > 1e-8:",
     "_check_norm: joint norm check passes a NaN state"),
    # the CSV's column labels
    (CLI, "sigma_i=br.sigma_i, sigma_ni=br.sigma_ni", "sigma_i=br.sigma_ni, sigma_ni=br.sigma_i",
     "CSV label swap: precision sigma_i and sigma_ni"),
    (CLI, "norm_factor(cat),\n                    t_sup=res.t_sup, t_mix=res.t_mix,",
     "norm_factor(cat),\n                    t_sup=res.t_mix, t_mix=res.t_sup,",
     "CSV label swap: coherence t_sup and t_mix"),
    (CLI, "delta_x0=separations,\n                    t_sup=res.t_sup, t_mix=res.t_mix,",
     "delta_x0=separations,\n                    t_sup=res.t_mix, t_mix=res.t_sup,",
     "CSV label swap: sweep t_sup and t_mix"),
    (CLI, "perturbative=report.perturbative,\n                     exact=report.exact,",
     "perturbative=report.exact,\n                     exact=report.perturbative,",
     "CSV label swap: verify perturbative and exact"),
    (CLI, "sigma_conditioned=conditioned.ravel(), sigma_nr=clock.sigma_t0,\n"
          "                     sigma_unconditioned=np.repeat(unconditioned.sigma_t_given_n, "
          "len(q_values)))",
     "sigma_conditioned=np.repeat(unconditioned.sigma_t_given_n, len(q_values)), "
     "sigma_nr=clock.sigma_t0,\n                     sigma_unconditioned=conditioned.ravel())",
     "CSV label swap: measurement sigma_conditioned and sigma_unconditioned"),
    # the measurement table's layout and its one bin
    (CLI, "t=np.repeat(times, len(q_values)), q=np.tile(q_values, len(times)),",
     "t=np.tile(times, len(q_values)), q=np.repeat(q_values, len(times)),",
     "measurement table: np.repeat and np.tile swapped"),
    (CLI, 'table.metadata.append(("bin", str(n)))', 'table.metadata.append(("bin", "0"))',
     "measurement: '# bin' line written as 0"),
    # an output path that cannot be opened
    (CLI, "except OSError as exc:", "except ZeroDivisionError as exc:",
     "main: OSError handler of --out removed"),
    # killed only where a test pins the floor: a correction of 2e-12 of the
    # reading is resolved; no verify case at a physical light speed kills them
    (ORA, "floor = 1e-12 * max(", "floor = 1e-9 * max(", "verdict floor raised to 1e-9"),
    (ORA, "floor = 1e-12 * max(", "floor = 1e-6 * max(", "verdict floor raised to 1e-6"),
]

KNOWN_SURVIVORS = []


def run_tier1(tree: Path) -> bool:
    """True when tier-1, less the known red, passes in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--deselect", KNOWN_RED], cwd=tree, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    return proc.returncode == 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pattern = argv[0] if argv else ""
    cases = [(m, False) for m in MUTANTS] + [(m, True) for m in KNOWN_SURVIVORS]
    cases = [(m, known) for m, known in cases if pattern in m[3]]
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "perfbench", "BENCH_*.json"))
        if not run_tier1(tree):
            print("the unmutated tree fails tier-1; no mutant can be judged")
            return 2
        killed = 0
        for (path, old, new, reason), known in cases:
            target = tree / path
            source = target.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print(f"STALE     {reason}: old text found {source.count(old)} times in {path}")
                status = 1
                continue
            start = time.perf_counter()
            target.write_text(source.replace(old, new), encoding="utf-8")
            try:
                survived = run_tier1(tree)
            finally:
                target.write_text(source, encoding="utf-8")
            killed += not survived
            verdict = "survived" if survived else "killed"
            note = " (known survivor)" if known else ""
            if survived and not known:
                note, status = " UNEXPECTED", 1
            print(f"{verdict:9s} {reason}{note} [{time.perf_counter() - start:.1f} s]", flush=True)
        print(f"{killed} of {len(cases)} mutants killed")
    return status


if __name__ == "__main__":
    sys.exit(main())
