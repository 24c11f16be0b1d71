import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dgs_opt import build_gh_rule
from dgs_opt.quadrature import MAX_ORDER


def gaussian_moment(k: int) -> float:
    """Closed form of integral of v^k e^(-v^2) over the real line."""
    if k % 2 == 1:
        return 0.0
    return math.sqrt(math.pi) * math.factorial(k) / (math.factorial(k // 2) * 4.0 ** (k // 2))


def golub_welsch_reference(order: int, digits: int = 30):
    """Nodes and weights from the eigen-decomposition of the Hermite Jacobi
    matrix (zero diagonal, off-diagonal sqrt(k/2)) in ``digits``-digit
    arithmetic: nodes are the eigenvalues, weights sqrt(pi) times the squared
    first components of the unit eigenvectors."""
    with mpmath.workdps(digits):
        jacobi = mpmath.zeros(order, order)
        for k in range(1, order):
            jacobi[k - 1, k] = jacobi[k, k - 1] = mpmath.sqrt(mpmath.mpf(k) / 2)
        values, vectors = mpmath.eigsy(jacobi)
        pairs = sorted(
            (values[i], mpmath.sqrt(mpmath.pi) * vectors[0, i] ** 2) for i in range(order)
        )
        return (
            np.array([float(v) for v, _ in pairs]),
            np.array([float(w) for _, w in pairs]),
        )


# golub_welsch_reference(order) for each order compared, frozen: at 30
# digits order 64 takes about 9 s. Written by running this file.
REFERENCE_PATH = Path(__file__).with_name("data") / "golub_welsch_30_digits.json"
REFERENCE_ORDERS = (1, 2, 3, 5, 8, 13, 20, 40, MAX_ORDER)
LIVE_ORDERS = (1, 2, 3, 5, 8, 13)


def frozen_reference() -> dict:
    table = json.loads(REFERENCE_PATH.read_text())
    return {int(order): (np.array(rule["nodes"]), np.array(rule["weights"]))
            for order, rule in table.items()}


class TestBuildRule:
    def test_frozen_reference_is_the_live_one(self):
        frozen = frozen_reference()
        assert tuple(frozen) == REFERENCE_ORDERS
        for order in LIVE_ORDERS:
            for got, want in zip(frozen[order], golub_welsch_reference(order)):
                assert got.tobytes() == want.tobytes(), order

    def test_matches_reference_nodes_and_weights(self):
        for order, (nodes, weights) in frozen_reference().items():
            rule = build_gh_rule(order)
            np.testing.assert_allclose(rule.nodes, nodes, atol=1e-13)
            np.testing.assert_allclose(rule.weights, weights, atol=1e-13, rtol=1e-13)

    def test_symmetry_is_exact(self):
        # the sine-sum tables (smoothing._gh_nodes) drop the cosine part and
        # sum the sine part over the positive nodes only, since w_m v_m
        # cos(q v_m) cancels and w_m v_m sin(q v_m) repeats between v and -v;
        # -(+0.0) + 0.0 is +0.0, so the middle node at odd M must be +0.0
        for order in range(1, MAX_ORDER + 1):
            rule = build_gh_rule(order)
            assert (-rule.nodes[::-1] + 0.0).tobytes() == rule.nodes.tobytes(), order
            assert rule.weights[::-1].tobytes() == rule.weights.tobytes(), order

    def test_odd_order_has_exact_zero_node(self):
        for order in range(1, MAX_ORDER + 1, 2):
            assert build_gh_rule(order).nodes[order // 2] == 0.0

    def test_nodes_strictly_increasing(self):
        for order in range(1, MAX_ORDER + 1):
            assert np.all(np.diff(build_gh_rule(order).nodes) > 0)

    def test_weight_identities(self):
        for order in (1, 2, 5, 10, 30):
            rule = build_gh_rule(order)
            np.testing.assert_allclose(rule.weights.sum(), math.sqrt(math.pi), rtol=1e-14)
            if order >= 2:
                np.testing.assert_allclose(
                    (rule.weights * rule.nodes**2).sum(),
                    math.sqrt(math.pi) / 2.0,
                    rtol=1e-13,
                )

    def test_arrays_are_read_only(self):
        rule = build_gh_rule(5)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    @pytest.mark.parametrize("order", [0, -1, MAX_ORDER + 1])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            build_gh_rule(order)

    def test_built_once_per_order(self):
        assert build_gh_rule(7) is build_gh_rule(7)
        assert build_gh_rule(7) is not build_gh_rule(8)

    def test_float_order_is_a_type_error_even_once_cached(self):
        build_gh_rule(5)
        build_gh_rule(np.int64(5))  # an untyped cache would answer 5.0 with this rule
        with pytest.raises(TypeError):
            build_gh_rule(5.0)


class TestExactness:
    def test_polynomial_exactness_up_to_degree_2m_minus_1(self):
        for order in range(1, 11):
            rule = build_gh_rule(order)
            for k in range(2 * order):
                got = float(np.dot(rule.weights, rule.nodes**k))
                want = gaussian_moment(k)
                if want == 0.0:
                    assert abs(got) < 1e-10
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_degree_2m_is_not_exact(self):
        rule = build_gh_rule(3)
        got = float(np.dot(rule.weights, rule.nodes**6))
        assert abs(got - gaussian_moment(6)) > 1e-3

    def test_error_decreases_with_order(self):
        # smooth non-polynomial integrand: exact value of
        # integral cos(a v) e^(-v^2) dv is sqrt(pi) e^(-a^2/4)
        a = 3.0
        exact = math.sqrt(math.pi) * math.exp(-(a**2) / 4.0)
        errors = [
            abs(float(np.dot(rule.weights, np.cos(a * rule.nodes))) - exact)
            for rule in map(build_gh_rule, (2, 4, 6, 8, 10, 14, 18))
        ]
        assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-12


if __name__ == "__main__":
    table = {}
    for order in REFERENCE_ORDERS:
        nodes, weights = golub_welsch_reference(order)
        table[order] = {"nodes": nodes.tolist(), "weights": weights.tolist()}
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
