import numpy as np
import pytest

from netrev import SocialNetwork, generate


@pytest.fixture
def cycle4():
    """Unit 4-cycle: the bipartite workhorse with a known exact optimum."""
    return generate("cycle", 4)


@pytest.fixture
def dag4():
    """Complete DAG on 4 buyers with unit weights (edge i -> j for i < j)."""
    return generate("complete_dag", 4)


@pytest.fixture
def random_net():
    """Factory for seeded random instances: random_net(seed, n=6, directed=False)."""

    def make(seed, n=6, directed=False, density=0.6, self_weights=False):
        return generate(
            "random", n, directed=directed, density=density,
            weight_range=(0.1, 1.0),
            self_weight_range=(0.2, 1.0) if self_weights else None,
            seed=seed)

    return make


@pytest.fixture
def dense_weights():
    """Builder of a network's dense n x n matrix M[j, i], the influence of
    j on i (zero diagonal): an independent reference for the edge-list
    formulas, on small networks only."""

    def build(g):
        M = np.zeros((g.n, g.n))
        src, dst, w = g.influence_pairs()
        M[src, dst] = w
        return M

    return build


@pytest.fixture
def tiny_selfloop():
    """Single buyer with unit self-weight: smallest nontrivial market."""
    return SocialNetwork(False, 1, [], self_weights=np.array([1.0]))
