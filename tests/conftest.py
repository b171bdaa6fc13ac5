import numpy as np
import pytest

from contraction_lab.contraction import scalar_example_system
from contraction_lab.counterexample import build_counterexample, find_r_star


@pytest.fixture(scope="session")
def r_star_cert():
    return find_r_star((0.1, 4.0), 1e-13)


@pytest.fixture(scope="session")
def r_star(r_star_cert):
    return r_star_cert.r_star


@pytest.fixture(scope="session")
def forced_system(r_star):
    return build_counterexample(r_star)


@pytest.fixture(scope="session")
def scalar_system():
    return scalar_example_system()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def bit_test_states(rng, r_star):
    """``make(n)`` gives 100 states of dimension n for the batch/single bit
    tests: three with exact zeros (r* on the first axis, -2 on the last, the
    origin), then points of the ball of radius 10 that ges-sweep and
    ges-check sample."""

    def make(n):
        edges = np.zeros((3, n))
        edges[0, 0], edges[1, -1] = r_star, -2.0
        ball = rng.normal(size=(97, n))
        ball *= 10.0 * rng.uniform(size=(97, 1)) / np.linalg.norm(ball, axis=1, keepdims=True)
        return np.concatenate([edges, ball])

    return make
