import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shancap.graphs import cycle, disjoint_union, from_edges, complete, strong_product
from shancap.umbrella import (DensityMatrixError, DensityUmbrella, UmbrellaError,
                              VectorUmbrella, density_from_vector,
                              odd_cycle_umbrella, purify_umbrella, purity,
                              tensor_umbrella, trivial_umbrella,
                              umbrella_from_json, umbrella_opening,
                              umbrella_to_json, umbrella_value,
                              verify_umbrella)


def closed_form(n):
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def test_odd_cycle_umbrella_values_and_residuals():
    for n in (5, 7, 9, 11):
        u = odd_cycle_umbrella(n)
        rep = verify_umbrella(u, cycle(n), orth_tol=1e-12)
        assert rep.valid
        assert rep.max_orthogonality_residual < 1e-12
        assert abs(umbrella_value(u) - closed_form(n)) < 1e-9


def test_pentagon_umbrella_is_three_dimensional():
    u = odd_cycle_umbrella(5)
    assert u.dim == 3
    assert abs(umbrella_value(u) - math.sqrt(5)) < 1e-9


def test_odd_cycle_umbrella_rejections():
    with pytest.raises(UmbrellaError):
        odd_cycle_umbrella(6)
    with pytest.raises(UmbrellaError):
        odd_cycle_umbrella(3)


def test_umbrella_value_trivial_and_opening():
    u = trivial_umbrella(4)
    assert umbrella_value(u) == 1.0
    assert verify_umbrella(u, complete(4)).valid
    u5 = odd_cycle_umbrella(5)
    assert abs(umbrella_opening(u5) * umbrella_value(u5) - 1.0) < 1e-12


def test_umbrella_value_infinite_when_decorrelated():
    states = np.array([[1.0, 0.0], [0.0, 1.0]])
    handle = np.array([1.0, 0.0])  # orthogonal to the second state
    u = VectorUmbrella(2, handle, states)
    assert umbrella_value(u) == math.inf
    rep = verify_umbrella(u, from_edges(2, [(0, 1)]))
    assert not rep.valid
    assert any(v[0] == "handle_correlation_zero" for v in rep.violations)


def test_verify_counts_and_swaps():
    u7 = odd_cycle_umbrella(7)
    assert verify_umbrella(u7, cycle(7)).valid
    rep = verify_umbrella(u7, cycle(5))
    assert not rep.valid and rep.violations[0][0] == "count"
    # swapping two states of the C5 umbrella breaks an orthogonality pair
    u5 = odd_cycle_umbrella(5)
    states = u5.states.copy()
    states[[0, 1]] = states[[1, 0]]
    swapped = VectorUmbrella(3, u5.handle, states)
    rep = verify_umbrella(swapped, cycle(5))
    assert not rep.valid
    assert any(v[0] == "orthogonality" for v in rep.violations)


def test_handle_rotation_strictly_increases_value():
    # the symmetric handle is optimal: rotating it breaks no orthogonality
    # constraint but strictly worsens the value
    u = odd_cycle_umbrella(5)
    axis = np.zeros(3)
    axis[0] = 1.0
    before = umbrella_value(u)
    for angle in (0.01, 0.05, 0.2):
        c = math.cos(angle) * u.handle + math.sin(angle) * axis
        c /= np.linalg.norm(c)
        tilted = VectorUmbrella(3, c, u.states)
        assert verify_umbrella(tilted, cycle(5)).valid
        assert umbrella_value(tilted) > before + 1e-6


def test_tensor_umbrella_multiplicative():
    u5 = odd_cycle_umbrella(5)
    t = tensor_umbrella(u5, u5)
    G = strong_product(cycle(5), cycle(5))
    assert verify_umbrella(t, G).valid
    assert abs(umbrella_value(t) - 5.0) < 1e-9

    u7 = odd_cycle_umbrella(7)
    t57 = tensor_umbrella(u5, u7)
    assert abs(umbrella_value(t57) - math.sqrt(5) * closed_form(7)) < 1e-9

    k1 = trivial_umbrella(1)
    same = tensor_umbrella(u5, k1)
    assert abs(umbrella_value(same) - umbrella_value(u5)) < 1e-12


def test_density_from_vector_preserves_value():
    u5 = odd_cycle_umbrella(5)
    d = density_from_vector(u5)
    assert umbrella_value(d) == umbrella_value(u5)
    assert verify_umbrella(d, cycle(5)).valid
    assert all(abs(purity(s) - 1.0) < 1e-12 for s in d.states)


def test_density_value_preservation_exact_rationals():
    # rational umbrella on C4: non-adjacent pairs (0,2) and (1,3) orthogonal
    F = Fraction
    states = np.empty((4, 2), dtype=object)
    states[0] = [F(1), F(0)]
    states[1] = [F(3, 5), F(4, 5)]
    states[2] = [F(0), F(1)]
    states[3] = [F(-4, 5), F(3, 5)]
    handle = np.empty(2, dtype=object)
    handle[:] = [F(4, 5), F(3, 5)]
    u = VectorUmbrella(2, handle, states)
    value_vec = umbrella_value(u)
    assert value_vec == F(625, 49)
    d = density_from_vector(u)
    assert umbrella_value(d) == value_vec  # bit-for-bit in exact arithmetic


def test_tensor_exact_rationals_multiplicative():
    F = Fraction
    states = np.empty((2, 2), dtype=object)
    states[0] = [F(1), F(0)]
    states[1] = [F(3, 5), F(4, 5)]
    handle = np.empty(2, dtype=object)
    handle[:] = [F(4, 5), F(3, 5)]
    u = VectorUmbrella(2, handle, states)  # valid for K2 (no non-edges)
    t = tensor_umbrella(u, u)
    assert umbrella_value(t) == umbrella_value(u) ** 2


def test_purity_values():
    assert abs(purity(np.eye(2) / 2) - 0.5) < 1e-12
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    assert abs(purity(np.outer(v, v)) - 1.0) < 1e-12
    assert abs(purity(np.diag([0.75, 0.25])) - 0.625) < 1e-12
    with pytest.raises(DensityMatrixError):
        purity(np.diag([0.75, 0.35]))  # trace 1.1
    with pytest.raises(DensityMatrixError):
        purity(np.array([[0.5, 0.9], [0.9, 0.5]]))  # not PSD


def test_purity_bounded_and_rank1_iff_one():
    rng = np.random.default_rng(12)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        rank = int(rng.integers(1, dim + 1))
        V = rng.normal(size=(dim, rank))
        A = V @ V.T
        A /= np.trace(A)
        p = purity(A)
        assert p <= 1.0 + 1e-12
        eigs = np.linalg.eigvalsh(A)
        if rank == 1:
            assert p > 1.0 - 1e-9
        if p > 1.0 - 1e-9:
            assert eigs[-2] < 1e-6  # second-largest eigenvalue vanished


def test_hs_orthogonality_iff_range_orthogonality():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = 6
        r1, r2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        disjoint = bool(rng.integers(0, 2))
        V1 = basis[:, :r1]
        V2 = basis[:, r1:r1 + r2] if disjoint else basis[:, :r2]
        A = V1 @ np.diag(rng.uniform(0.5, 1.5, r1)) @ V1.T
        B = V2 @ np.diag(rng.uniform(0.5, 1.5, r2)) @ V2.T
        hs = abs(float(np.sum(A * B)))
        # projector product norm measures range overlap
        P1 = V1 @ V1.T
        P2 = V2 @ V2.T
        overlap = float(np.linalg.norm(P1 @ P2, 2))
        assert (hs < 1e-10) == (overlap < 1e-8)


def test_purify_fixed_point_and_degenerate_flag():
    d = density_from_vector(odd_cycle_umbrella(5))
    res = purify_umbrella(d)
    assert res.degenerate_states == ()
    assert abs(res.value_after - res.value_before) < 1e-9
    assert np.allclose(res.umbrella.states, d.states, atol=1e-9)

    mixed = DensityUmbrella(2, np.eye(2) / 2,
                            np.stack([np.eye(2) / 2, np.eye(2) / 2]))
    res = purify_umbrella(mixed)
    assert res.degenerate_states == (0, 1)


def test_mixing_breaks_orthogonality():
    # mixing each projector with identity/3 destroys the de-correlation
    d = density_from_vector(odd_cycle_umbrella(5))
    mixed_states = np.stack([0.9 * s + 0.1 * np.eye(3) / 3 for s in d.states])
    mixed = DensityUmbrella(3, d.handle, mixed_states)
    rep = verify_umbrella(mixed, cycle(5))
    assert not rep.valid
    assert any(v[0] == "orthogonality" for v in rep.violations)


def test_purify_block_diagonal_mixed_umbrella():
    # two disjoint edges; states block-supported, mixed within their block
    G = disjoint_union(from_edges(2, [(0, 1)]), from_edges(2, [(0, 1)]))
    z = np.zeros((2, 2))
    b0 = np.diag([0.7, 0.3])
    b1 = np.diag([0.6, 0.4])
    s0 = np.block([[b0, z], [z, z]])
    s1 = np.block([[b1, z], [z, z]])
    s2 = np.block([[z, z], [z, b0]])
    s3 = np.block([[z, z], [z, b1]])
    u = DensityUmbrella(4, np.eye(4) / 4, np.stack([s0, s1, s2, s3]))
    rep = verify_umbrella(u, G)
    assert rep.valid
    res = purify_umbrella(u)
    rep2 = verify_umbrella(res.umbrella, G)
    assert rep2.valid
    assert all(abs(purity(s) - 1.0) < 1e-12 for s in res.umbrella.states)


def test_umbrella_json_roundtrip():
    u = odd_cycle_umbrella(7)
    back = umbrella_from_json(umbrella_to_json(u))
    assert isinstance(back, VectorUmbrella)
    assert np.array_equal(back.states, u.states)
    assert np.array_equal(back.handle, u.handle)
    # loading never trusts flags: the loaded object re-verifies cleanly
    assert verify_umbrella(back, cycle(7)).valid

    d = density_from_vector(u)
    back = umbrella_from_json(umbrella_to_json(d))
    assert isinstance(back, DensityUmbrella)
    assert np.array_equal(back.states, d.states)
    with pytest.raises(UmbrellaError):
        umbrella_from_json('{"dim": 3, "kind": "nonsense"}')


def test_tensor_of_vector_and_density_umbrellas():
    u5 = odd_cycle_umbrella(5)
    G = strong_product(cycle(5), cycle(5))
    for left, right in ((u5, density_from_vector(u5)),
                        (density_from_vector(u5), u5)):
        t = tensor_umbrella(left, right)
        assert isinstance(t, DensityUmbrella)
        rep = verify_umbrella(t, G)
        assert rep.valid
        assert 5.0 <= rep.value < 5.0 + 1e-9


@pytest.mark.parametrize("dim", [3.7, "3", True])
def test_umbrella_json_dim_must_be_an_integer(dim):
    doc = json.loads(umbrella_to_json(odd_cycle_umbrella(5)))
    doc["dim"] = dim
    with pytest.raises(UmbrellaError, match="dim must be an integer"):
        umbrella_from_json(json.dumps(doc))
