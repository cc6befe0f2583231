import random

import pytest

from lieweyl import (
    I,
    PBWElement,
    Scalar,
    abelian,
    g2_algebra,
    kappa_algebra,
    su2_algebra,
)


def standard_algebras():
    """The desk-scale test bed: abelian, solvable 2d, su(2)-type, kappa."""
    return [
        abelian(2),
        g2_algebra(),
        su2_algebra(),
        kappa_algebra([I, Scalar(0), Scalar(0)]),
    ]


@pytest.fixture
def g2():
    return g2_algebra()


@pytest.fixture
def su2():
    return su2_algebra()


@pytest.fixture
def kappa3():
    return kappa_algebra([I, Scalar(0), Scalar(0)])


@pytest.fixture
def rng():
    return random.Random(12345)


def random_monomial(rng, n, max_degree):
    exps = [0] * n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(n)] += 1
    return PBWElement.monomial(n, tuple(exps))
