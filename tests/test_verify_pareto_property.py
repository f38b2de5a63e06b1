"""Property tests: both Pareto engines agree on ties, duplicates, NaN.

The vectorized engine is only an optimization if it is *extensionally
equal* to the reference loop — same frontier, same order, same handling
of the degenerate inputs real metric matrices contain: exact ties,
duplicated vectors, and NaN metrics from infeasible configurations.
The fuzz generator is biased toward exactly those degeneracies (a tiny
value palette plus injected NaNs), and the handcrafted cases pin the
documented semantics one by one.
"""

import math
import random

import numpy as np
import pytest

import repro.core.pareto as pareto
from repro.core.pareto import dominates, pareto_frontier, pareto_frontier_mask
from repro.verify.fuzz import check_pareto_engines, gen_pareto_case

NAN = float("nan")


def frontiers(vectors):
    """The same frontier from every engine, asserted equal."""
    items = list(range(len(vectors)))

    def objectives(index):
        return vectors[index]

    python = pareto_frontier(items, objectives, engine="python")
    numpy_ = pareto_frontier(items, objectives, engine="numpy")
    auto = pareto_frontier(items, objectives, engine="auto")
    assert python == numpy_ == auto, (vectors, python, numpy_, auto)
    return python


def masks(vectors):
    """The frontier rows from both mask engines, asserted equal."""
    matrix = np.array(vectors, dtype=float)
    python, numpy_ = (
        np.flatnonzero(pareto_frontier_mask(matrix, engine=engine)).tolist()
        for engine in ("python", "numpy")
    )
    assert python == numpy_, (vectors, python, numpy_)
    return python


class TestEngineAgreementProperty:
    @pytest.mark.parametrize("seed", range(60))
    def test_generated_tie_heavy_matrices(self, seed):
        params = gen_pareto_case(random.Random(f"pareto:{seed}"))
        assert check_pareto_engines(params) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_continuous_matrices(self, seed):
        # No ties at all — the opposite regime from the palette cases.
        rng = random.Random(f"pareto-cont:{seed}")
        vectors = [
            tuple(rng.random() for _ in range(3)) for _ in range(40)
        ]
        frontier = frontiers(vectors)
        assert frontier  # some vector is always non-dominated


class TestTieSemantics:
    def test_equal_vectors_never_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_duplicates_keep_first_occurrence_only(self):
        vectors = [(1.0, 2.0), (0.0, 5.0), (1.0, 2.0), (1.0, 2.0)]
        assert frontiers(vectors) == [0, 1]

    def test_tied_in_one_dimension_both_survive(self):
        # Neither dominates: each is strictly better somewhere.
        vectors = [(1.0, 5.0), (1.0, 4.0), (2.0, 4.0)]
        # (1,4) dominates both neighbours in this palette... check:
        # (1,4) vs (1,5): no worse everywhere, better in dim 1 -> 1
        # dominates 0; (1,4) vs (2,4): dominates 2 as well.
        assert frontiers(vectors) == [1]

    def test_single_objective_minimum_wins_with_ties(self):
        vectors = [(3.0,), (1.0,), (1.0,), (2.0,)]
        assert frontiers(vectors) == [1]


class TestNaNSemantics:
    def test_nan_never_dominates_and_is_never_dominated(self):
        assert not dominates((NAN, 0.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (NAN, 0.0))
        assert not dominates((NAN,), (NAN,))

    def test_nan_vector_always_lands_on_frontier(self):
        vectors = [(0.0, 0.0), (NAN, 9.0), (5.0, 5.0)]
        frontier = frontiers(vectors)
        assert 0 in frontier  # the true optimum
        assert 1 in frontier  # incomparable, so kept
        assert 2 not in frontier  # dominated by (0, 0)

    def test_all_nan_matrix_keeps_everything(self):
        # One NaN object fills every slot, so the tuples are equal by
        # identity; NaN != NaN all the same, and no row is a duplicate.
        vectors = [(NAN, NAN), (NAN, NAN), (NAN, NAN)]
        assert frontiers(vectors) == [0, 1, 2]
        assert masks(vectors) == [0, 1, 2]

    def test_dedup_by_value_on_both_entry_points(self):
        # NaN rows never repeat one another; -0.0 repeats 0.0.
        vectors = [(1.0, NAN), (1.0, NAN), (0.0, 1.0), (-0.0, 1.0)]
        assert frontiers(vectors) == [0, 1, 2]
        assert masks(vectors) == [0, 1, 2]

    def test_partial_nan_still_orders_finite_dimensions(self):
        vectors = [(1.0, NAN), (2.0, NAN)]
        # dim 1 comparisons are all false -> neither strictly better
        # everywhere-comparable; both survive.
        assert frontiers(vectors) == [0, 1]
        assert all(
            math.isnan(vectors[i][1]) for i in frontiers(vectors)
        )


class TestBlockBoundary:
    @pytest.mark.parametrize("seed", range(40))
    def test_blocked_mask_matches_python_engine(self, seed, monkeypatch):
        # Seven-row blocks: matrices of up to 40 rows span up to six
        # blocks, with a partial last block in most of them.
        monkeypatch.setattr(pareto, "_BLOCK_ROWS", 7)
        rng = random.Random(f"pareto-block:{seed}")
        n = seed + 1
        dim = seed % 5 + 1
        vectors = [
            tuple(
                NAN if rng.random() < 0.07 else rng.choice((0.0, 1.0, 2.0))
                for _ in range(dim)
            )
            for _ in range(n)
        ]
        assert masks(vectors) == frontiers(vectors)
