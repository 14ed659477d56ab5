"""Gates run over the exhaustive census of small cases in ``census.py``:
every case with k <= 3 nodes and an evenly strided quarter of k = 4."""

import itertools
from collections import Counter

import pytest

from sumgraph.queries import local_markov
from sumgraph.transform import stepwise_reduce, summary_from_parent

from census import dag_cases, dag_count
from conftest import same_graph
from test_decision_layer import confirmed_local_markov

# every fourth k = 4 case, starting from the first
K4_STRIDE = 4


@pytest.mark.parametrize("k, count", [(1, 3), (2, 18), (3, 216), (4, 5184)])
def test_census_counts_equal_the_closed_form(k, count):
    assert dag_count(k) == count
    assert sum(1 for _ in dag_cases(k)) == count


def census_slice():
    for k in (1, 2, 3):
        yield from dag_cases(k)
    yield from itertools.islice(dag_cases(4), 0, None, K4_STRIDE)


def test_stepwise_route_agrees_with_the_parent_route_on_the_census():
    cases = 0
    for g, spec in census_slice():
        ref = summary_from_parent(g, spec)
        for condition_first in (True, False):
            got = stepwise_reduce(g, spec, condition_first=condition_first)
            assert same_graph(got, ref), (g.amat.tolist(), spec, condition_first)
        cases += 1
    assert cases == 3 + 18 + 216 + 5184 // K4_STRIDE


def test_local_markov_equals_the_query_confirmation_on_the_census():
    # the reference still screens families 3 and 4 with the matrix tests
    # that local_markov leaves to the path criterion alone
    families = Counter()
    for g, spec in census_slice():
        s = summary_from_parent(g, spec)
        got = local_markov(s)
        assert got == confirmed_local_markov(s), (g.amat.tolist(), spec)
        families.update(st.family for st in got)
    # 278 statements of family 3 and 17 of family 4
    assert families[3] > 250 and families[4] > 10
