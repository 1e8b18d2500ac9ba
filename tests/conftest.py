import random

import pytest

from doubleposets import enumerate_family, pictures_count


@pytest.fixture(scope="session")
def dp_bases():
    """Canonical double poset isoclasses per size, 0 through 4."""
    return {n: enumerate_family("dp", n) for n in range(5)}


@pytest.fixture(scope="session")
def dp4_gram(dp_bases):
    """Full pairing matrix on the size-4 basis, both triangles counted.

    Takes 16-36 s on a 2-vCPU machine; both the symmetry and the
    rank criteria read from this one computation, so it must not be
    mirrored the way pairing_matrix is.
    """
    basis = dp_bases[4]
    return tuple(tuple(pictures_count(p, q) for q in basis) for p in basis)


@pytest.fixture()
def rng():
    return random.Random(987123)
