"""Tests for assignment instances, solvers, and candidate scoring."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from conftest import read_candidates, read_instances

from allocsim import assignment
from allocsim.assignment import (
    Assignment,
    Candidate,
    CostMatrix,
    DuplicateAgent,
    FabricatedCost,
    InstanceTooLarge,
    MalformedCandidate,
    UnassignedTask,
    brute_force_solve,
    dump_candidates,
    dump_instances,
    generate_instance,
    hungarian_solve,
    parse_candidate_text,
    score_batch,
    validate,
)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def int_arrays(draw, max_n: int = 40) -> np.ndarray:
    """A square integer array of any int or uint dtype holding both ends of
    its cost range; the range spans one value, about the entry count, or
    anything up to the dtype's maximum (uint64 reaches past ``2**63``)."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    n = draw(st.sampled_from(range(1, max_n + 1)))  # integers() would favour n = 1
    top = int(np.iinfo(dtype).max)
    span = draw(st.one_of(
        st.integers(0, 3),
        st.integers(max(0, n * n - 2), n * n + 1),  # about as many values as entries
        st.integers(0, top),
    ))
    span = min(span, top)
    lo = draw(st.one_of(st.just(0), st.just(top - span), st.integers(0, top - span)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = rng.integers(lo, lo + span, size=(n, n), dtype=dtype, endpoint=True)
    cells = rng.permutation(n * n)
    array.flat[cells[0]] = lo + span
    array.flat[cells[-1]] = lo  # the last cell is the first one when n is 1
    return array


@st.composite
def other_matrices(draw) -> CostMatrix:
    """A small matrix built from rows, or from a float or bool array."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ints = rng.integers(0, draw(st.sampled_from([1, 4, 100, 2**63 - 1])), size=(n, n), endpoint=True)
    kind = draw(st.sampled_from(
        ["int-rows", "float-array", "whole-float-array", "float-rows", "bool-array", "bool-rows"]))
    if kind == "int-rows":
        return CostMatrix.from_rows(ints.tolist())
    if kind == "float-array":
        return CostMatrix(rng.random((n, n)) * 10.0 ** draw(st.integers(-5, 9)))
    if kind == "whole-float-array":
        return CostMatrix((ints % 1000).astype(float))
    if kind == "float-rows":
        return CostMatrix.from_rows((ints % 1000 + rng.random((n, n))).tolist())
    if kind == "bool-array":
        return CostMatrix(ints % 2 == 1)
    return CostMatrix.from_rows([[bool(v % 2) if (i + j) % 2 else int(v) for j, v in enumerate(row)]
                                 for i, row in enumerate(ints.tolist())])


def assert_same_text(got: str, expected: str) -> None:
    """``assert got == expected``, naming the first line that differs:
    pytest's diff of two long, repetitive texts can take minutes."""
    if got != expected:
        got_lines, expected_lines = got.splitlines(keepends=True), expected.splitlines(keepends=True)
        i = next((i for i, pair in enumerate(zip(got_lines, expected_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(expected_lines)))
        raise AssertionError(f"line {i}: {got_lines[i:i + 1]!r} != {expected_lines[i:i + 1]!r}")


def reference_optimum(matrix: CostMatrix) -> Assignment:
    """Plain-Python oracle: scan permutations in lexicographic order."""
    best_mapping = None
    best_cost = None
    for perm in itertools.permutations(range(matrix.n)):
        cost = matrix.cost_of(perm)
        if best_cost is None or cost < best_cost:
            best_cost, best_mapping = cost, perm
    return Assignment(tuple(best_mapping), best_cost)


def reference_canonical_solve(matrix: CostMatrix) -> Assignment:
    """The re-solve canonicaliser that :func:`hungarian_solve` replaced.

    Fixes each task in turn to the smallest free agent whose choice still
    admits an optimal completion, checked by solving the remaining
    sub-problem with ``linear_sum_assignment``: up to n^2 solves.
    """
    values = matrix.as_array()
    n = matrix.n

    def optimum(sub: np.ndarray) -> float:
        rows, cols = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum())

    target = optimum(values)
    mapping: list[int] = []
    free_agents = list(range(n))
    prefix_cost = 0.0
    for task in range(n):
        rest_tasks = np.arange(task + 1, n)
        for idx, agent in enumerate(free_agents):
            candidate_cost = prefix_cost + values[task, agent]
            if rest_tasks.size:
                rest_agents = free_agents[:idx] + free_agents[idx + 1 :]
                candidate_cost += optimum(values[np.ix_(rest_tasks, rest_agents)])
            if abs(candidate_cost - target) <= 1e-9 * max(1.0, abs(target)):
                mapping.append(agent)
                prefix_cost += values[task, agent]
                free_agents.pop(idx)
                break
        else:
            raise AssertionError("no agent preserves the optimum")
    return Assignment(tuple(mapping), matrix.cost_of(mapping))


def reference_lex_min_matching(tight: np.ndarray, cols: np.ndarray) -> list[int]:
    """The numpy walk that the bitset ``_lex_min_matching`` replaced.

    Same greedy order and reverse breadth-first search, one vectorised
    step per search level over a boolean matrix.
    """
    n = len(cols)
    cols = cols.copy()
    row_of = np.empty(n, dtype=np.intp)
    row_of[cols] = np.arange(n)
    first_tight = tight.argmax(axis=1)
    for task in range(n):
        current = cols[task]
        if first_tight[task] == current:
            continue
        if not (tight[task, :current] & (row_of[:current] > task)).any():
            continue  # every tight agent below ``current`` is taken by an earlier task
        reached = np.zeros(n, dtype=bool)
        reached[current] = True
        nxt = np.empty(n, dtype=np.intp)
        frontier = np.array([current])
        rows = np.arange(task + 1, n)
        while frontier.size and rows.size:
            hits = tight[np.ix_(rows, frontier)]
            hit = hits.any(axis=1)
            new_agents = cols[rows[hit]]
            nxt[new_agents] = frontier[hits[hit].argmax(axis=1)]
            reached[new_agents] = True
            frontier, rows = new_agents, rows[~hit]
        path = [int(np.flatnonzero(tight[task] & reached)[0])]
        while path[-1] != current:
            path.append(int(nxt[path[-1]]))
        movers = [task, *row_of[path[:-1]]]
        cols[movers] = path
        row_of[path] = movers
    return [int(a) for a in cols]


def reference_entry_check(values) -> None:
    """The per-entry loop that ``CostMatrix.__post_init__`` vectorised."""
    n = len(values)
    if n == 0:
        raise ValueError("cost matrix must be non-empty")
    for row in values:
        if len(row) != n:
            raise ValueError("cost matrix must be square")
        for v in row:
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"cost entries must be finite and >= 0, got {v!r}")


class TestGenerateInstance:
    def test_degenerate_range(self):
        m = generate_instance(1, seed=123, lo=7, hi=7)
        assert m.values == ((7,),)

    def test_deterministic(self):
        a = generate_instance(5, seed=99, lo=0, hi=50)
        b = generate_instance(5, seed=99, lo=0, hi=50)
        assert a == b

    def test_entries_in_range(self):
        m = generate_instance(4, seed=42, lo=0, hi=99)
        flat = [v for row in m.values for v in row]
        assert len(flat) == 16
        assert all(0 <= v <= 99 for v in flat)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(3, seed=0, lo=5, hi=1)
        with pytest.raises(ValueError):
            generate_instance(0, seed=0, lo=0, hi=1)
        with pytest.raises(ValueError):
            generate_instance(3, seed=0, lo=-1, hi=1)


class TestSolvers:
    def test_one_by_one(self):
        m = CostMatrix.from_rows([[5]])
        for solve in (hungarian_solve, brute_force_solve):
            result = solve(m)
            assert result.mapping == (0,)
            assert result.total_cost == 5

    def test_zero_diagonal(self):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        assert hungarian_solve(m).mapping == (0, 1)
        assert hungarian_solve(m).total_cost == 0

    def test_three_by_three_known_optimum(self):
        m = CostMatrix.from_rows([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        expected = reference_optimum(m)
        assert expected.mapping == (1, 0, 2) and expected.total_cost == 5
        for solve in (hungarian_solve, brute_force_solve):
            result = solve(m)
            assert result.mapping == (1, 0, 2)
            assert result.total_cost == 5

    def test_all_equal_ties_break_lexicographically(self):
        m = CostMatrix.from_rows([[1, 1], [1, 1]])
        assert brute_force_solve(m).mapping == (0, 1)
        assert hungarian_solve(m).mapping == (0, 1)

    def test_cross_oracle_on_seeded_matrices(self):
        for seed in range(50):
            n = 2 + seed % 7
            m = generate_instance(n, seed=seed, lo=0, hi=30)
            h = hungarian_solve(m)
            b = brute_force_solve(m)
            assert h.total_cost == b.total_cost
            assert h.mapping == b.mapping

    def test_hungarian_matches_plain_reference(self):
        for seed in range(20):
            m = generate_instance(2 + seed % 5, seed=1000 + seed, lo=0, hi=12)
            assert hungarian_solve(m) == reference_optimum(m)

    def test_brute_force_bound(self):
        m = generate_instance(10, seed=1, lo=0, hi=5)
        with pytest.raises(InstanceTooLarge):
            brute_force_solve(m)

    def test_solver_output_validates_clean(self):
        for seed in range(10):
            m = generate_instance(4, seed=seed, lo=0, hi=20)
            solved = hungarian_solve(m)
            report = validate(m, Candidate(solved.mapping, solved.total_cost))
            assert report.is_valid

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_row_shift_invariance(self, k, seed):
        m = generate_instance(4, seed=seed, lo=30, hi=60)
        base_h = hungarian_solve(m)
        shifted_rows = [list(row) for row in m.values]
        shifted_rows[2] = [v + k for v in shifted_rows[2]]
        shifted = CostMatrix.from_rows(shifted_rows)
        for solve in (hungarian_solve, brute_force_solve):
            result = solve(shifted)
            assert result.total_cost == base_h.total_cost + k
            assert result.mapping == base_h.mapping


TIE_LABELS = ["0..0", "0..1", "0..3", "0..99", "one-decimal"]


def _tie_heavy_rows(label: str, n: int):
    """An n x n matrix of one tie-heavy kind: integer costs 0..hi or one-decimal floats."""
    if label == "one-decimal":
        rng = np.random.default_rng(500 + n)
        return (rng.integers(0, 30, size=(n, n)) / 10).tolist()
    hi = int(label[3:])
    return generate_instance(n, seed=7919 * hi + n, lo=0, hi=hi).values


def _tight_subgraph(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tight edges and optimal matching that ``hungarian_solve`` walks."""
    rows, cols = linear_sum_assignment(values)
    matched = values[rows, cols]
    d = assignment._agent_potentials(values, cols)
    u = matched - d[cols]
    tight = values - u[:, None] - d[None, :] <= 1e-9 * max(1.0, abs(float(matched.sum())))
    return tight, cols


# the re-solve reference makes up to n^2 LSA calls, about 0.8 s at n=129
# with few ties, so the cheap tie-heavy kinds go furthest
CANONICAL_SIZES = {
    "0..0": (*range(1, 33), 33, 64, 65, 129),
    "0..1": (*range(1, 33), 33, 64, 65, 129),
    "0..3": (*range(1, 33), 33, 64, 65, 129),
    "0..99": (*range(1, 33), 33, 64, 65),
    "one-decimal": (*range(1, 33), 33, 64, 65),
}
# 63-65 and 127-129 straddle the 64-bit words of the bitsets
WALK_SIZES = (*range(1, 34), 63, 64, 65, 127, 128, 129)


class TestCanonicalSolve:
    @pytest.mark.parametrize("label", TIE_LABELS)
    def test_matches_resolve_reference(self, label):
        for n in CANONICAL_SIZES[label]:
            m = CostMatrix.from_rows(_tie_heavy_rows(label, n))
            assert hungarian_solve(m) == reference_canonical_solve(m), (label, n)

    @pytest.mark.parametrize("label", TIE_LABELS)
    def test_bitset_walk_matches_numpy_walk(self, label):
        for n in WALK_SIZES:
            tight, cols = _tight_subgraph(CostMatrix.from_rows(_tie_heavy_rows(label, n)).as_array())
            assert assignment._lex_min_matching(tight, cols) == reference_lex_min_matching(tight, cols), (label, n)

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.8])
    def test_bitset_walk_on_random_graphs_with_a_planted_matching(self, density):
        rng = np.random.default_rng(int(density * 100))
        for n in WALK_SIZES:
            cols = rng.permutation(n)
            tight = rng.random((n, n)) < density
            tight[np.arange(n), cols] = True
            assert assignment._lex_min_matching(tight, cols) == reference_lex_min_matching(tight, cols), n

    def test_one_lsa_call_per_solve(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(values.shape)
            return linear_sum_assignment(values)

        monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
        matrices = [generate_instance(n, seed=n, lo=0, hi=hi) for n in (1, 9, 40) for hi in (0, 3, 99)]
        for m in matrices:
            hungarian_solve(m)
        assert calls == [(m.n, m.n) for m in matrices]


class TestCostMatrixChecks:
    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(((1, 2), (3,)), id="ragged-short"),
            pytest.param(((1, 2), (3, 4, 5)), id="ragged-long"),
            pytest.param(((1, -1), (3, 2)), id="negative"),
            pytest.param(((1, 2), (-0.5, 2)), id="negative-float"),
            pytest.param(((1, 2), (float("nan"), 2)), id="nan"),
            pytest.param(((1, float("inf")), (3, 2)), id="inf"),
            pytest.param(((1, None), (3, 2)), id="none"),
            pytest.param((("1", "2"), ("3", "4")), id="strings"),
            pytest.param(((1, -1), (3,)), id="negative-before-ragged"),
            pytest.param(((1, 2), (3, -1), (4,)), id="ragged-row-after-negative"),
            pytest.param(((1, 2), (None, -1)), id="none-before-negative"),
            pytest.param(((1, 2), (3, 1 + 2j)), id="complex"),
            pytest.param(((1, 2), (3, 2**70)), id="huge-int"),
            pytest.param((), id="empty"),
        ],
    )
    def test_first_bad_entry_raises_as_the_loop_does(self, values):
        with pytest.raises(Exception) as expected:
            reference_entry_check(values)
        with pytest.raises(expected.type) as got:
            CostMatrix(values)
        assert str(got.value) == str(expected.value)

    def test_error_messages(self):
        with pytest.raises(ValueError, match="^cost matrix must be square$"):
            CostMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError, match=r"^cost entries must be finite and >= 0, got -1$"):
            CostMatrix(((1, -1), (3, 2)))
        with pytest.raises(ValueError, match=r"^cost entries must be finite and >= 0, got nan$"):
            CostMatrix(((1, 2), (float("nan"), 2)))
        with pytest.raises(TypeError, match="isfinite"):
            CostMatrix(((1, None), (3, 2)))
        with pytest.raises(TypeError, match="isfinite"):
            CostMatrix((("1", "2"), ("3", "4")))

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(((0, 2), (3, 4)), id="ints"),
            pytest.param(((0.5, 2), (3, -0.0)), id="floats"),
            pytest.param(((True, False), (1, 0)), id="bools"),
            pytest.param(((np.int64(3), 2**63), (1, 0)), id="numpy-and-big-ints"),
        ],
    )
    def test_accepts_what_the_loop_accepts(self, values):
        reference_entry_check(values)
        assert CostMatrix(values).values == values

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(((0, 2), (3, 4)), id="ints"),
            pytest.param(((0.5, 2), (3, -0.0)), id="floats"),
            pytest.param(((True, False), (1, 0)), id="bools"),
            pytest.param(((np.int64(3), 2**63), (1, 0)), id="numpy-and-big-ints"),
            # an object-dtype row fails the one-array check, so the entry loop accepts it
            pytest.param(((1, 2), np.array([3, 4], dtype=object)), id="entry-loop"),
        ],
    )
    def test_as_array_is_read_only_float(self, values):
        array = CostMatrix(values).as_array()
        assert array.dtype == np.float64
        assert np.array_equal(array, np.asarray(values, dtype=float))
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 7.0

    @pytest.mark.parametrize(
        "array",
        [
            pytest.param(np.array([[7]]), id="one-by-one"),
            pytest.param(np.zeros((4, 4), dtype=np.int64), id="all-zero"),
            pytest.param(np.random.default_rng(1).integers(0, 100, size=(9, 9)), id="int64"),
            pytest.param(np.array([[3, 0], [1, 2]], dtype=np.int32), id="int32"),
            pytest.param(np.array([[255, 0], [1, 2]], dtype=np.uint8), id="uint8"),
        ],
    )
    def test_array_built_matrix_is_the_rows_built_one(self, array):
        array = array.copy()
        built, rows = CostMatrix(array), CostMatrix.from_rows(array.tolist())
        assert built == rows and hash(built) == hash(rows) and repr(built) == repr(rows)
        assert json.dumps(built.to_json_dict()) == json.dumps(rows.to_json_dict())
        got, expected = built.as_array(), rows.as_array()
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert not got.flags.writeable
        array[0, 0] = 0 if array[0, 0] else 1  # the matrix keeps nothing of the caller's array
        assert built == rows and np.array_equal(built.as_array(), expected)

    @pytest.mark.parametrize(
        "array",
        [
            pytest.param(np.array([[1, -1], [3, 2]]), id="negative"),
            pytest.param(np.array([[0.5, 2.0], [-0.5, 1.0]]), id="negative-float"),
            pytest.param(np.arange(6).reshape(2, 3), id="non-square"),
            pytest.param(np.zeros((0, 0), dtype=np.int64), id="empty"),
            pytest.param(np.zeros((0, 3), dtype=np.int64), id="empty-rows"),
            pytest.param(np.arange(4), id="one-dimensional"),
        ],
    )
    def test_bad_array_raises_as_its_rows_do(self, array):
        with pytest.raises(Exception) as expected:
            CostMatrix.from_rows(array.tolist())
        with pytest.raises(expected.type) as got:
            CostMatrix(array)
        assert str(got.value) == str(expected.value)

    def test_kept_array_stays_out_of_equality_hash_and_repr(self):
        a = CostMatrix(((0, 2), (3, 4)))
        b = CostMatrix(((0, 2), (3, 4)))
        assert a.as_array() is not b.as_array()
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "CostMatrix(values=((0, 2), (3, 4)))"


class TestValidate:
    def test_duplicate_agent_also_leaves_a_slot_unserved(self):
        m = generate_instance(2, seed=0, lo=0, hi=9)
        report = validate(m, Candidate((0, 0)))
        assert report.kinds() == {"DuplicateAgent", "UnassignedTask"}
        assert DuplicateAgent(0, (0, 1)) in report.violations
        assert UnassignedTask(1) in report.violations

    def test_fabricated_cost(self):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        report = validate(m, Candidate((1, 0), claimed_cost=0))
        assert report.violations == (FabricatedCost(0, 18.0),)

    def test_honest_optimum_is_valid(self):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        assert validate(m, Candidate((0, 1), claimed_cost=0)).is_valid

    def test_explicitly_unassigned_task(self):
        m = generate_instance(2, seed=0, lo=0, hi=9)
        report = validate(m, Candidate((0, None)))
        assert report.violations == (UnassignedTask(1),)

    def test_garbage_never_raises(self):
        m = generate_instance(3, seed=0, lo=0, hi=9)
        for mapping in (None, (), ("x", "y", "z"), (9, 9, 9), (0,), (0, 1, 2, 0)):
            report = validate(m, Candidate(mapping))
            assert not report.is_valid
        report = validate(m, Candidate((0, "zebra", 2)))
        assert any(isinstance(v, MalformedCandidate) for v in report.violations)

    @pytest.mark.parametrize("claimed", ["0", float("nan"), float("inf"), -float("inf"), True, False, [0], 10**400],
                             ids=lambda v: repr(v)[:12])
    def test_claimed_cost_not_a_finite_number_is_malformed(self, claimed):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        report = validate(m, Candidate((0, 1), claimed_cost=claimed))
        assert report.violations == (MalformedCandidate(f"claimed cost {claimed!r} is not a finite number"),)
        # without a mapping the claim is flagged as well
        assert validate(m, Candidate(None, claimed_cost=claimed)).violations[0] == report.violations[0]

    @pytest.mark.parametrize("claimed", [0, 0.0, np.int64(0), np.float32(0), 2**70], ids=repr)
    def test_claimed_cost_of_any_int_or_float_is_graded(self, claimed):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        report = validate(m, Candidate((0, 1), claimed_cost=claimed))
        assert report.violations == (() if claimed == 0 else (FabricatedCost(claimed, 0.0),))

    def test_free_form_claimed_cost_is_graded_not_raised(self):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        for text in ('{"mapping": [0, 1], "total_cost": "5"}', '{"mapping": [0, 1], "claimed_cost": NaN}'):
            assert validate(m, parse_candidate_text(text, 2)).kinds() == {"MalformedCandidate"}

    def test_no_claimed_cost_skips_fabrication_check(self):
        m = CostMatrix.from_rows([[0, 9], [9, 0]])
        assert validate(m, Candidate((0, 1))).is_valid

    def test_valid_permutations_produce_no_false_positives(self):
        m = generate_instance(4, seed=5, lo=0, hi=9)
        for perm in itertools.permutations(range(4)):
            report = validate(m, Candidate(perm, claimed_cost=m.cost_of(perm)))
            assert report.is_valid, perm


class TestScoreBatch:
    def test_oracle_replay_scores_perfectly(self):
        instances = [generate_instance(3, seed=s, lo=0, hi=20) for s in range(8)]
        candidates = []
        for m in instances:
            solved = hungarian_solve(m)
            candidates.append(Candidate(solved.mapping, solved.total_cost))
        score = score_batch(instances, candidates)
        assert score.accuracy == 1.0
        assert score.validity_rate == 1.0

    def test_all_invalid(self):
        instances = [generate_instance(2, seed=s, lo=0, hi=9) for s in range(4)]
        candidates = [Candidate((0, 0))] * 4
        score = score_batch(instances, candidates)
        assert score.accuracy == 0.0
        assert score.validity_rate == 0.0

    def test_constructed_seven_valid_four_optimal(self):
        # 10 instances: 3 invalid, 3 valid-but-suboptimal, 4 optimal
        instances = [generate_instance(3, seed=100 + s, lo=0, hi=20) for s in range(10)]
        candidates: list[Candidate] = []
        for i, m in enumerate(instances):
            optimal = brute_force_solve(m)
            if i < 3:
                candidates.append(Candidate((0, 0, 0)))  # duplicate agent: invalid
            elif i < 6:
                worse = None
                for perm in itertools.permutations(range(3)):
                    if m.cost_of(perm) > optimal.total_cost:
                        worse = perm
                        break
                assert worse is not None, "needs a suboptimal permutation; reseed"
                candidates.append(Candidate(worse, m.cost_of(worse)))
            else:
                candidates.append(Candidate(optimal.mapping, optimal.total_cost))
        score = score_batch(instances, candidates)
        assert score.validity_rate == pytest.approx(0.7)
        assert score.accuracy == pytest.approx(0.4)
        assert score.accuracy <= score.validity_rate

    def test_cost_equality_beats_mapping_equality(self):
        # two optimal mappings; the non-canonical one still counts unless strict
        m = CostMatrix.from_rows([[1, 1], [1, 1]])
        other = Candidate((1, 0), 2)
        assert score_batch([m], [other]).accuracy == 1.0
        assert score_batch([m], [other], strict_mapping=True).accuracy == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_batch([generate_instance(2, 0, 0, 9)], [])
        m = generate_instance(2, 0, 0, 9)
        with pytest.raises(ValueError, match="references"):
            score_batch([m], [Candidate((0, 1))], references=[])

    @pytest.mark.parametrize("strict", [False, True])
    def test_given_references_score_as_solved_ones(self, strict):
        # ties make non-canonical optima, which only strict scoring rejects
        instances = [generate_instance(4, seed=s, lo=0, hi=2) for s in range(12)]
        rng = np.random.default_rng(3)
        candidates = []
        for i, m in enumerate(instances):
            if i % 3 == 0:
                candidates.append(Candidate((0, 0, 1, 2)))  # invalid
            elif i % 3 == 1:
                perm = tuple(int(x) for x in rng.permutation(4))
                candidates.append(Candidate(perm, m.cost_of(perm)))
            else:
                solved = brute_force_solve(m)
                candidates.append(Candidate(solved.mapping, solved.total_cost))
        references = [hungarian_solve(m) for m in instances]
        given = score_batch(instances, candidates, strict_mapping=strict, references=references)
        assert given == score_batch(instances, candidates, strict_mapping=strict)
        assert 0 < given.accuracy < given.validity_rate < 1

    def test_accuracy_never_exceeds_validity_on_random_batches(self):
        rng = np.random.default_rng(7)
        instances = [generate_instance(3, seed=int(s), lo=0, hi=9) for s in rng.integers(0, 1000, 30)]
        candidates = []
        for m in instances:
            roll = rng.random()
            if roll < 0.3:
                candidates.append(Candidate((0, 0, 1)))
            elif roll < 0.6:
                perm = tuple(int(x) for x in rng.permutation(3))
                candidates.append(Candidate(perm, m.cost_of(perm)))
            else:
                solved = hungarian_solve(m)
                candidates.append(Candidate(solved.mapping, solved.total_cost))
        score = score_batch(instances, candidates)
        assert score.accuracy <= score.validity_rate


class TestParsingAndSerialization:
    def test_parse_json_blob(self):
        candidate = parse_candidate_text(
            'Sure! {"mapping": [1, 0], "claimed_cost": 7} is my answer.', 2
        )
        assert candidate.mapping == (1, 0)
        assert candidate.claimed_cost == 7

    def test_parse_task_arrow_pairs(self):
        candidate = parse_candidate_text(
            "Task 0 -> agent 2, task 1 -> agent 0, task 2 -> agent 1. Total cost: 14", 3
        )
        assert candidate.mapping == (2, 0, 1)
        assert candidate.claimed_cost == 14.0

    @pytest.mark.parametrize("agent_word", ["agent ", ""])
    @pytest.mark.parametrize("separator", ["->", ":", "→", "="])
    def test_parse_each_pair_separator(self, separator, agent_word):
        text = f"task 0 {separator} {agent_word}2, Task 1{separator}{agent_word}0, task 2 {separator}{agent_word}1"
        assert parse_candidate_text(text, 3).mapping == (2, 0, 1)

    def test_unparseable_text(self):
        candidate = parse_candidate_text("no assignments here at all", 3)
        assert candidate.mapping is None

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_parser_never_raises(self, text):
        parse_candidate_text(text, 4)

    def test_instances_round_trip(self):
        instances = [generate_instance(3, seed=s, lo=0, hi=9) for s in range(3)]
        text = dump_instances(instances)
        assert read_instances(text) == instances
        assert dump_instances(read_instances(text)) == text

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[[0, 12], [3, 4]], [[1, 0, 2], [2, 2, 2], [9, 99, 1234567]]], id="ints"),
            pytest.param([[[0.5, 1e-7], [3.0, 1.5e300]], [[0.1]]], id="floats"),
            pytest.param([[[0, 1.5], [3, 4]]], id="int-and-float"),
            pytest.param([[[0, 1], [2, 3]], [[0.5]]], id="int-and-float-matrices"),
            pytest.param([[[True, 1], [3, 4]]], id="bool"),
            pytest.param([[[False, True], [True, False]]], id="bools-only"),
            pytest.param([[[7]]], id="one-by-one"),
            pytest.param([], id="empty"),
        ],
    )
    def test_instances_text_is_json_dumps(self, rows):
        instances = [CostMatrix.from_rows(r) for r in rows]
        expected = json.dumps([m.to_json_dict() for m in instances], indent=2, sort_keys=True)
        assert dump_instances(instances) == expected
        assert dump_instances(iter(instances)) == expected
        assert read_instances(expected) == instances

    def test_instances_text_of_array_built_matrices(self):
        rng = np.random.default_rng(13)
        arrays = [CostMatrix(np.array([[0]])), CostMatrix(np.zeros((3, 3), dtype=np.int64))]
        arrays += [generate_instance(n, seed=n, lo=0, hi=hi) for n in (1, 2, 7, 40) for hi in (0, 3, 99, 10**12)]
        rows = [CostMatrix.from_rows([[0, 12], [3, 4]])]
        floats = [CostMatrix(rng.random((3, 3))), CostMatrix.from_rows([[0.5, 1e-7], [3.0, 1.5e300]])]
        bools = [CostMatrix.from_rows([[True, 1], [3, 4]]), CostMatrix(np.eye(2, dtype=bool))]
        batches = [[arrays[0]], arrays, arrays + rows, rows + arrays + floats, floats + arrays, arrays + bools, bools[1:]]
        for instances in batches:
            expected = json.dumps([m.to_json_dict() for m in instances], indent=2, sort_keys=True)
            assert_same_text(dump_instances(instances), expected)
            assert read_instances(expected) == instances

    def test_numpy_scalar_entries_are_not_json(self):
        with pytest.raises(TypeError):
            dump_instances([CostMatrix.from_rows([[np.int64(2), 1], [3, 4]])])

    def test_instances_text_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            shape = (int(rng.integers(1, 6)),) * 2
            ints = [generate_instance(shape[0], int(rng.integers(1000)), 0, int(rng.integers(1, 10**6)))]
            floats = [CostMatrix.from_rows((rng.random(shape) * 10.0 ** rng.integers(-5, 9)).tolist())]
            for instances in (ints, floats, ints + floats):
                expected = json.dumps([m.to_json_dict() for m in instances], indent=2, sort_keys=True)
                assert dump_instances(instances) == expected

    @given(int_arrays())
    @settings(max_examples=150, deadline=None)
    def test_instances_text_of_any_int_array(self, array):
        matrix = CostMatrix(array)
        text, solved = dump_instances([matrix]), hungarian_solve(matrix)
        assert_same_text(text, json.dumps([matrix.to_json_dict()], indent=2, sort_keys=True))
        array[:] = np.where(array == 0, 1, 0)  # the matrix keeps nothing of the caller's array
        assert_same_text(dump_instances([matrix]), text)
        assert hungarian_solve(matrix) == solved

    @given(st.lists(st.one_of(int_arrays(max_n=12).map(CostMatrix), other_matrices()), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_instances_text_of_mixed_batches(self, instances):
        expected = json.dumps([m.to_json_dict() for m in instances], indent=2, sort_keys=True)
        assert_same_text(dump_instances(instances), expected)

    def test_candidates_round_trip(self):
        candidates = [
            Candidate((0, 1), 3.0, "raw"),
            Candidate(None, None, "garbage"),
        ]
        text = dump_candidates(candidates)
        assert read_candidates(text) == candidates
