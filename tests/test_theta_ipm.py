"""The interior-point theta solver: convergence on unstructured graphs,
theta(G) * theta(complement G) = n on vertex-transitive graphs, degenerate
inputs, the time budget, the size guard, multiplicativity under the strong
product, and numpy as the only runtime dependency."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shancap.cli import run
from shancap.graphs import (complement, complete, cycle, from_edges,
                            strong_product)
from shancap.solvers import max_independent_set
from shancap.theta import MATRIX_LIMIT, ThetaError, lovasz_theta


def gnp(n, seed):
    """G(n, 1/2) drawn with one random.Random(seed) draw per vertex pair."""
    rng = random.Random(seed)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                          if (j - i) % q in squares])


def test_random_24_vertex_graph_converges():
    # the perfbench draw G(24,1/2)#3, where 20,000 ADMM steps stopped at a
    # width of 6e-4
    G = gnp(24, "G(24,1/2) #3")
    b = lovasz_theta(G)
    assert b.converged and b.width <= 1e-6
    assert b.iterations <= 50
    assert len(max_independent_set(G).vertices) <= b.hi


def test_random_24_vertex_graph_stops_within_18_iterations():
    # pushed on to a gap of 1e-12 the loop took 24 iterations and stopped
    # on a stall at a width of 1.3e-10
    b = lovasz_theta(gnp(24, "G(24,1/2) #3"))
    assert b.iterations <= 18
    assert b.width <= 1e-9


@pytest.mark.parametrize("G", [cycle(n) for n in range(5, 14)]
                         + [paley(13), paley(17)], ids=repr)
def test_vertex_transitive_theta_times_complement_is_n(G):
    a = lovasz_theta(G)
    b = lovasz_theta(complement(G))
    assert a.converged and b.converged
    assert abs(a.hi * b.hi - G.n) <= 1e-6
    assert abs(a.lo * b.lo - G.n) <= 1e-6


def test_degenerate_square_at_unreachable_tolerance():
    b = lovasz_theta(cycle(4), tol=1e-12)  # theta(C4) = 2
    assert b.lo <= 2.0 <= b.hi
    assert b.width < 1e-6
    assert b.converged == (b.width <= 1e-12)


def test_time_budget_returns_a_sound_unconverged_bracket():
    G = gnp(40, 40)
    full = lovasz_theta(G)
    assert full.converged
    start = time.monotonic()
    b = lovasz_theta(G, time_budget=1e-3)
    assert time.monotonic() - start < 1.0
    assert not b.converged
    assert b.lo <= full.hi and full.lo <= b.hi


def test_theta_verb_honours_the_time_budget(capsys):
    argv = ["theta", "power(cycle:7,2)", "--json", "--time-budget", "0.001"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is False
    assert run(argv + ["--strict"]) == 2


def test_size_guard_refuses_before_allocating(capsys):
    G = complete(200)  # 19,900 edges: a Schur matrix of 3.2 GB
    tracemalloc.start()
    try:
        with pytest.raises(ThetaError) as exc:
            lovasz_theta(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "19900" in str(exc.value) and str(MATRIX_LIMIT) in str(exc.value)
    assert peak < 1 << 20
    assert run(["theta", "complete:200"]) == 1
    assert "m = 19900 edges" in capsys.readouterr().err


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=40, deadline=None)
@given(tiny_graphs(), tiny_graphs())
def test_theta_multiplies_under_strong_product(G, H):
    a, b = lovasz_theta(G), lovasz_theta(H)
    c = lovasz_theta(strong_product(G, H))
    assert a.converged and b.converged and c.converged
    assert abs(c.hi - a.hi * b.hi) <= 1e-6 * a.hi * b.hi


def test_numpy_is_the_only_runtime_dependency():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, shancap; shancap.lovasz_theta(shancap.cycle(5)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'networkx', 'sympy', 'mpmath')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("budget", [-1.0, 0.0, float("nan")])
def test_time_budget_must_be_positive(budget, capsys):
    with pytest.raises(ThetaError):
        lovasz_theta(cycle(5), time_budget=budget)
    assert run(["theta", "cycle:5", "--time-budget", str(budget)]) == 1
    assert "time budget must be positive" in capsys.readouterr().err
