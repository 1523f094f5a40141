"""Tests of the benchmark itself, outside the tier-1 tests/ path.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the short mode (a few operations of every workload with every
output check), show that each output check rejects a wrong output, and
that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from mcp_iso import search  # noqa: E402


def _run(case):
    capture = workloads.OutcomeCapture(search.brute_force_profile)
    search.brute_force_profile = capture
    try:
        return workloads.run_case(case, capture)
    finally:
        search.brute_force_profile = capture.fn


def _first(name, label_part):
    return next(c for c in workloads.build(name, 7) if label_part in c.label)


def test_short_mode_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--short", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 4


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 11), workloads.build(name, 11)
        assert [c.label for c in a] == [c.label for c in b]
        assert [c.label for c in a] != [c.label for c in workloads.build(name, 12)]


def test_profile_check_rejects_a_perturbed_row():
    case = _first("profile-sweep", "log-N3-D1")
    text = _run(case)
    assert oracles.check_profile([case], [text]) == []
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[5] = repr(float(fields[5]) * (1.0 + 1e-5))
    lines[5] = ",".join(fields)
    assert oracles.check_profile([case], ["\n".join(lines) + "\n"])


def test_search_check_rejects_wrong_count_and_content():
    case = dataclasses.replace(_first("search-1c", "cone"), grid=512)
    report, examined = _run(case)
    assert oracles.check_search([case], [(report, examined)]) == []
    assert oracles.check_search([case], [(report, examined + 1)])
    row = dataclasses.replace(report.rows[0], content=report.rows[0].content * 1.001)
    bad = dataclasses.replace(report, rows=(row,))
    assert oracles.check_search([case], [(bad, examined)])


def test_naive_two_component_matches_program_on_small_grids():
    case = _first("certify-2c", "cone")
    for n in (9, 13, 17):
        window, xs, prefix, tau, _ = oracles._certify_grid(dataclasses.replace(case, grid=n))
        cfg = search.SearchConfig(case.v, tau, grid_points=n, max_components=2, window=window)
        out = search.brute_force_profile(case.space, cfg)
        (content, _), count = oracles.naive_two_component(case.space, xs, prefix, case.v, tau)
        assert out.sets_examined == count
        assert math.isclose(out.content, content, rel_tol=1e-12)


def test_density_check_rejects_a_flipped_verdict():
    case = _first("density-check", "pw-bounded-fail")
    case = dataclasses.replace(case, n_check=256, n_min=128)
    verdict, n_min = _run(case)
    assert oracles.check_density([case], [(verdict, n_min)]) == []
    passing = dataclasses.replace(verdict, status="pass_sampled", witness=None)
    assert oracles.check_density([case], [(passing, n_min)])
    assert oracles.check_density([case], [(verdict, n_min + 1e-3)])


def test_linear_witness_agrees_with_pair_sweep():
    from mcp_iso.density import _sampled_witness

    rng = np.random.default_rng(0)
    for _ in range(200):
        xs = np.sort(rng.uniform(0.0, 3.0, 40))
        hv = np.exp(rng.normal(0.0, 0.3, 40)) * (1.0 + xs)
        D = 3.5 if rng.uniform() < 0.5 else math.inf
        N = float(rng.uniform(1.2, 4.0))
        w = _sampled_witness(xs, hv, D, N, oracles.REL_TOL)
        found = oracles.linear_witness(xs, hv, D, N)
        assert (w is None) == (found is None)
        if w is not None:
            i, j, side = found
            assert (w.x0, w.x1, w.side) == (xs[i], xs[j], side)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
