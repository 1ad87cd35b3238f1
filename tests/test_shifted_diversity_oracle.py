"""The shifted diversity engine against an independent oracle.

The engine runs the pair kernel over the down-sets of the dominance order,
counting toward r only the members that avoid element 1.  The oracle lists
every shifted k-uniform family with ``enumerate_shifted``, keeps the
intersecting ones, and scores each by its size when its diversity, read
from ``degree_profile``, is at least r.  The optimum and the maximizers,
one for one, must agree on every backend.
"""

import pytest

from setfam.bounds import Params
from setfam.errors import ParamRangeError
from setfam.family import degree_profile
from setfam.search import Problem, bound_for, problems, solve
from setfam.search.problems import enumerate_shifted


def _oracle(n: int, k: int, r: int):
    """(optimum, sorted member tuples of the maximizers)."""
    best, found = -1, []
    for fam in enumerate_shifted(n, k):
        members = fam.members
        if not members or degree_profile(fam)[1] < r:
            continue
        if any(not a & b for a in members for b in members):
            continue
        if len(members) >= best:
            if len(members) > best:
                best, found = len(members), []
            found.append(members)
    return best, sorted(found)


def _cases():
    for n in range(5, 9):
        for k in (2, 3):
            for r in range(0, n - k + 1):
                p = Params(n=n, k=k, r=r)
                try:
                    bound_for("diverse_intersecting_max", p)
                except ParamRangeError:
                    continue
                yield p


CASES = list(_cases())


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("p", CASES, ids=[f"n{p.n}-k{p.k}-r{p.r}" for p in CASES])
def test_shifted_diversity_engine_matches_the_oracle(request, monkeypatch, backend, p):
    if backend == "compiled":
        request.getfixturevalue("compiled")
    best, found = _oracle(p.n, p.k, p.r)
    seen = []
    engine = problems._solve_diversity_shifted

    def recording(*args):
        result = engine(*args)
        seen.append(result[1])
        return result

    monkeypatch.setattr(problems, "_solve_diversity_shifted", recording)
    rep = solve(Problem("diverse_intersecting_max", p, "shifted"), backend=backend)
    assert rep.optimum == best
    assert rep.maximizer_count == len(found)
    assert sorted(f.members for f in seen[0]) == found
