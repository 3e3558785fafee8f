"""Property tier for the N-D Pareto frontier (hypothesis).

The frontier feeds design decisions, so its math must hold for *any*
point cloud and *any* objective subset, not just the grids our
experiments happen to produce:

* strict dominance is a strict partial order (irreflexive, asymmetric,
  transitive);
* frontier membership is invariant under permutation of the points and
  of the objective columns;
* no frontier point dominates another frontier point, and every excluded
  point is dominated by some frontier point (soundness + completeness);
* the frontier equals a brute-force all-pairs oracle, in membership and
  in walk order, with and without constraints.

Uses hypothesis when available and skips cleanly otherwise (the CI image
installs it).
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sweep.aggregate import (  # noqa: E402
    OBJECTIVES,
    dominates,
    pareto_frontier,
    resolve_objectives,
)
from repro.sweep.constraints import (  # noqa: E402
    CONSTRAINT_METRICS,
    Constraint,
)


@dataclasses.dataclass
class FakePoint:
    """Just the metric attributes the objectives read."""

    speedup_vs_awb: float
    accuracy: float
    gcod_energy_j: float
    gcod_dram_bytes: float
    gcod_latency_s: float
    gcod_required_bw_gbps: float
    tdp_w: float
    area_mm2: float


#: Mix a coarse integer lattice into the floats so ties and exact
#: duplicates — the degenerate frontier cases — actually get generated.
metric = st.one_of(
    st.integers(0, 3).map(float),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)
points = st.builds(FakePoint, metric, metric, metric, metric, metric,
                   metric, metric, metric)
point_lists = st.lists(points, min_size=1, max_size=16)
objective_sets = st.lists(
    st.sampled_from(sorted(OBJECTIVES)), min_size=1, max_size=4, unique=True
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(p=points, objs=objective_sets)
def test_dominance_is_irreflexive(p, objs):
    assert not dominates(p, p, objs)


@settings(max_examples=150, deadline=None)
@given(p=points, q=points, objs=objective_sets)
def test_dominance_is_asymmetric(p, q, objs):
    assert not (dominates(p, q, objs) and dominates(q, p, objs))


@settings(max_examples=150, deadline=None)
@given(p=points, q=points, r=points, objs=objective_sets)
def test_dominance_is_transitive(p, q, r, objs):
    if dominates(p, q, objs) and dominates(q, r, objs):
        assert dominates(p, r, objs)


@settings(max_examples=100, deadline=None)
@given(pts=point_lists, objs=objective_sets)
def test_no_frontier_point_dominates_another(pts, objs):
    frontier = pareto_frontier(pts, objs)
    assert frontier  # a non-empty finite poset has maximal elements
    for a in frontier:
        for b in frontier:
            assert not dominates(a, b, objs)


@settings(max_examples=100, deadline=None)
@given(pts=point_lists, objs=objective_sets)
def test_every_excluded_point_is_dominated(pts, objs):
    frontier = pareto_frontier(pts, objs)
    frontier_ids = {id(p) for p in frontier}
    for p in pts:
        if id(p) not in frontier_ids:
            assert any(dominates(f, p, objs) for f in frontier)


@st.composite
def lists_with_permutation(draw):
    pts = draw(point_lists)
    return pts, draw(st.permutations(pts))


@settings(max_examples=100, deadline=None)
@given(pair=lists_with_permutation(), objs=objective_sets)
def test_frontier_invariant_under_point_permutation(pair, objs):
    pts, shuffled = pair
    assert {id(p) for p in pareto_frontier(pts, objs)} == {
        id(p) for p in pareto_frontier(shuffled, objs)
    }


@settings(max_examples=100, deadline=None)
@given(
    pts=point_lists,
    objs=objective_sets.filter(lambda o: len(o) > 1),
    data=st.data(),
)
def test_frontier_invariant_under_objective_permutation(pts, objs, data):
    shuffled_objs = data.draw(st.permutations(list(objs)))
    assert {id(p) for p in pareto_frontier(pts, objs)} == {
        id(p) for p in pareto_frontier(pts, tuple(shuffled_objs))
    }


@settings(max_examples=100, deadline=None)
@given(pts=point_lists)
def test_single_objective_frontier_is_the_argmax_set(pts):
    frontier = pareto_frontier(pts, ("speedup",))
    best = max(p.speedup_vs_awb for p in pts)
    assert all(p.speedup_vs_awb == best for p in frontier)
    assert len(frontier) == sum(
        1 for p in pts if p.speedup_vs_awb == best
    )


def brute_force_frontier(pts, objs, constraints=()):
    """The O(n^2) oracle: keep each feasible point that no feasible point
    dominates, then sort by descending scores, then grid index."""
    objs = resolve_objectives(objs)
    feasible = [(i, p) for i, p in enumerate(pts)
                if all(c.satisfied(p) for c in constraints)]
    kept = [(i, p) for i, p in feasible
            if not any(dominates(q, p, objs) for _, q in feasible)]
    kept.sort(key=lambda ip: tuple(-o.score(ip[1]) for o in objs)
              + (ip[0],))
    return [p for _, p in kept]


#: Small point lists over a coarse lattice: duplicates and exact ties on
#: some objectives are the common case, not the rare one.
lattice_points = st.builds(FakePoint, *[st.integers(0, 2).map(float)] * 8)
constraint_sets = st.lists(
    st.builds(
        Constraint,
        st.sampled_from(sorted(CONSTRAINT_METRICS.values(),
                               key=lambda m: m.name)),
        st.sampled_from(("<=", "<", ">=", ">")),
        st.integers(0, 3).map(float),
    ),
    max_size=2,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(pts=st.one_of(point_lists,
                     st.lists(lattice_points, min_size=0, max_size=24)),
       objs=st.one_of(objective_sets,
                      st.sampled_from(sorted(OBJECTIVES)).map(
                          lambda o: (o,))),
       constraints=constraint_sets)
def test_frontier_matches_brute_force(pts, objs, constraints):
    got = pareto_frontier(pts, objs, constraints)
    want = brute_force_frontier(pts, objs, constraints)
    assert [id(p) for p in got] == [id(p) for p in want]


def test_frontier_keeps_duplicates_in_grid_order():
    a, b, c = (FakePoint(2.0, 1.0, *[0.0] * 6),
               FakePoint(2.0, 1.0, *[0.0] * 6),
               FakePoint(1.0, 1.0, *[0.0] * 6))
    frontier = pareto_frontier([c, a, b], ("speedup", "accuracy"))
    assert [id(p) for p in frontier] == [id(a), id(b)]


def test_resolve_objectives_accepts_all_forms():
    default = resolve_objectives(None)
    assert tuple(o.name for o in default) == ("speedup", "accuracy")
    from_string = resolve_objectives("speedup, energy ,dram")
    assert tuple(o.name for o in from_string) == ("speedup", "energy",
                                                  "dram")
    assert resolve_objectives(from_string) == from_string
