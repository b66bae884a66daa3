import pytest
from hypothesis import settings

from cycliso import (
    Presentation,
    build_Q,
    build_R,
    enumerate_quotient,
)

settings.register_profile("ci", derandomize=True, max_examples=100)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def tables():
    """Closed congruence tables, shared across the whole run.

    tables(which, n) -> CongruenceTable for the 'R' or 'Q' presentation,
    enumerated once with the default budget.
    """
    cache = {}

    def get(which, n):
        key = (which, n)
        if key not in cache:
            pres = build_R(n) if which == "R" else build_Q(n)
            cache[key] = enumerate_quotient(pres)
        return cache[key]

    return get


def drop_family(pres, label):
    """The presentation minus every relation tagged with `label`."""
    keep = [
        (rel, lab)
        for rel, lab in zip(pres.relations, pres.labels)
        if lab != label
    ]
    return Presentation(
        pres.name,
        pres.n,
        pres.alphabet,
        tuple(rel for rel, _ in keep),
        tuple(lab for _, lab in keep),
    )
