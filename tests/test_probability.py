import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peerlab import (
    DimensionMismatch,
    Distribution,
    EmptyAlphabet,
    FullJointPrior,
    JointDistribution,
    NegativeWeight,
    TransitionMatrix,
    WrongRank,
    ZeroConditioningEvent,
    ZeroMass,
    apply_channel,
    condition_on,
    identity_channel,
    make_distribution,
    marginals,
    permutation_channel,
    product_of_marginals,
    push_first,
    sample,
)
from peerlab.errors import PeerLabError
from peerlab.probability import _is_permutation, _validated_tables

import oracles

SWAP = permutation_channel([1, 0])
GARBLE = TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


def dists(m=None):
    sizes = st.just(m) if m else st.integers(2, 4)
    return sizes.flatmap(
        lambda k: st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    ).map(make_distribution)


def joints(mx=None, my=None):
    sx = st.just(mx) if mx else st.integers(2, 4)
    sy = st.just(my) if my else st.integers(2, 4)
    return st.tuples(sx, sy).flatmap(
        lambda s: st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        )
    ).map(lambda rows: JointDistribution(np.array(rows) / np.sum(rows)))


def channels(m_in, m_out=None):
    m_out = m_out or m_in
    return st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=m_out, max_size=m_out),
        min_size=m_in,
        max_size=m_in,
    ).map(lambda rows: TransitionMatrix(np.array(rows) / np.sum(rows, axis=1, keepdims=True)))


class TestMakeDistribution:
    def test_symmetric_pair(self):
        assert np.allclose(make_distribution([1, 1]).weights, [0.5, 0.5])

    def test_normalizes_with_zero(self):
        assert np.allclose(make_distribution([2, 0, 2]).weights, [0.5, 0, 0.5])

    def test_already_normalized_unchanged(self):
        w = [0.4, 0.1, 0.1, 0.4]
        assert np.allclose(make_distribution(w).weights, w)

    def test_errors(self):
        with pytest.raises(EmptyAlphabet):
            make_distribution([])
        with pytest.raises(NegativeWeight):
            make_distribution([0.5, -0.1])
        with pytest.raises(ZeroMass):
            make_distribution([0.0, 0.0])

    @pytest.mark.parametrize("weights", [[np.inf, 1.0], [np.inf, -np.inf], [-np.inf, 1.0],
                                         [np.inf, np.nan]])
    def test_non_finite_raises_without_runtime_warning(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegativeWeight):
                make_distribution(weights)

    def test_rounding_noise_clipped(self):
        w = make_distribution([-1e-13, 1.0]).weights
        assert w[0] == 0.0 and w[1] == pytest.approx(1.0, abs=1e-12)


class TestMarginals:
    def test_canonical(self, canonical_joint):
        mx, my = marginals(canonical_joint)
        assert np.allclose(mx.weights, [0.5, 0.5])
        assert np.allclose(my.weights, [0.5, 0.5])

    def test_point_mass(self):
        mx, my = marginals(JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert np.allclose(mx.weights, [1, 0])
        assert np.allclose(my.weights, [1, 0])

    def test_uniform(self):
        mx, my = marginals(JointDistribution(np.full((2, 2), 0.25)))
        assert np.allclose(mx.weights, [0.5, 0.5])
        assert np.allclose(my.weights, [0.5, 0.5])

    def test_conditional_mode_rejected(self):
        tensor = JointDistribution(np.full((2, 2, 2), 0.125))
        with pytest.raises(WrongRank):
            marginals(tensor)

    @given(joints())
    @settings(max_examples=60, deadline=None)
    def test_matches_row_and_column_sum_oracle(self, j):
        mx, my = marginals(j)
        assert np.allclose(mx.weights, oracles.row_sums(j.table.tolist()), atol=1e-12)
        assert np.allclose(my.weights, oracles.col_sums(j.table.tolist()), atol=1e-12)


class TestProductOfMarginals:
    def test_canonical_outer_product(self, canonical_joint):
        v = product_of_marginals(canonical_joint)
        assert np.allclose(v.table, 0.25)

    def test_independent_fixed_point(self):
        j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert np.allclose(product_of_marginals(j).table, j.table, atol=1e-12)

    def test_deterministic_variables(self):
        j = JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(product_of_marginals(j).table, j.table)


class TestPushFirst:
    def test_identity(self, canonical_joint):
        out = push_first(canonical_joint, identity_channel(2))
        assert np.array_equal(out.table, canonical_joint.table)

    def test_swap_relabels_rows(self, canonical_joint):
        out = push_first(canonical_joint, SWAP)
        assert np.allclose(out.table, [[0.1, 0.4], [0.4, 0.1]])

    def test_full_garbling_gives_independence(self, canonical_joint):
        out = push_first(canonical_joint, GARBLE)
        assert np.allclose(out.table, 0.25)

    def test_dimension_mismatch(self, canonical_joint):
        with pytest.raises(DimensionMismatch):
            push_first(canonical_joint, identity_channel(3))

    @given(joints(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_marginal_commutes_with_channel(self, j, data):
        ch = data.draw(channels(j.shape[0]))
        lhs = marginals(push_first(j, ch))[0].weights
        rhs = apply_channel(marginals(j)[0], ch).weights
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(joints(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mass_preserved(self, j, data):
        ch = data.draw(channels(j.shape[0]))
        assert abs(push_first(j, ch).table.sum() - 1.0) <= 1e-12

    def test_permutation_roundtrip_exact(self, canonical_joint):
        perm = permutation_channel([1, 0])
        back = push_first(push_first(canonical_joint, TransitionMatrix(perm.rows.T)), perm)
        assert np.array_equal(back.table, canonical_joint.table)


class TestApplyChannel:
    def test_identity(self):
        d = Distribution(np.array([0.3, 0.7]))
        assert np.allclose(apply_channel(d, identity_channel(2)).weights, [0.3, 0.7])

    def test_swap(self):
        d = Distribution(np.array([0.3, 0.7]))
        assert np.allclose(apply_channel(d, SWAP).weights, [0.7, 0.3])

    def test_garble_to_uniform(self):
        d = Distribution(np.array([0.3, 0.7]))
        assert np.allclose(apply_channel(d, GARBLE).weights, [0.5, 0.5])


class TestConditionOn:
    def test_uniform_tensor(self):
        tensor = JointDistribution(np.full((2, 2, 2), 0.125))
        assert np.allclose(condition_on(tensor, 1).table, 0.25)

    def test_zero_conditioning_event(self):
        t = np.zeros((2, 2, 2))
        t[0] = 0.25
        tensor = JointDistribution(t)
        with pytest.raises(ZeroConditioningEvent):
            condition_on(tensor, 1)

    def test_world_model_slice(self, two_state_world):
        cond = condition_on(two_state_world.signal_pair_tensor(), 0)
        assert np.allclose(cond.table, np.outer([0.8, 0.2], [0.8, 0.2]), atol=1e-12)

    def test_renormalizes(self):
        t = np.array([[[0.2, 0.1], [0.1, 0.1]], [[0.3, 0.1], [0.05, 0.05]]])
        cond = condition_on(JointDistribution(t), 0)
        assert abs(cond.table.sum() - 1.0) <= 1e-12


class TestSampling:
    def test_point_mass_constant(self):
        d = Distribution(np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(sample(d, seed=123, count=5), [1, 1, 1, 1, 1])

    def test_law_of_large_numbers(self):
        d = Distribution(np.array([0.5, 0.5]))
        draws = sample(d, seed=42, count=100_000)
        assert abs(np.mean(draws == 0) - 0.5) < 0.01

    def test_reproducible(self):
        d = Distribution(np.array([0.25, 0.25, 0.5]))
        a = sample(d, seed=7, count=1000)
        b = sample(d, seed=7, count=1000)
        assert a.tobytes() == b.tobytes()

    def test_negative_count_rejected(self):
        with pytest.raises(DimensionMismatch):
            sample(Distribution(np.array([1.0])), seed=0, count=-1)


class TestTransitionMatrix:
    def test_permutation_flag(self):
        assert SWAP.is_permutation
        assert not GARBLE.is_permutation
        assert identity_channel(3).is_permutation
        assert not TransitionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]])).is_permutation

    def test_rectangular_never_permutation(self):
        rect = TransitionMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert not rect.is_permutation

    def test_row_sum_validated(self):
        with pytest.raises(ZeroMass):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    # offsets on both sides of the tolerances: 1e-12 around 0, 1e-12 + 1e-5 around 1
    NEAR = st.sampled_from((0.0, 1e-12, 2e-12, 1e-5, 1e-5 + 1e-12, 1e-5 + 2e-12, 1.1e-5)) | (
        st.floats(0.0, 2e-5))

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_permutation_test_matches_isclose(self, m, m_out, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        base = np.zeros((m, m_out))
        base[np.arange(m), rng.integers(0, m_out, m)] = 1.0  # sometimes two 1s in a column
        if data.draw(st.booleans()) and m == m_out:
            base = np.eye(m)[rng.permutation(m)]
        sign = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=base.size,
                                  max_size=base.size))
        near = data.draw(st.lists(self.NEAR, min_size=base.size, max_size=base.size))
        arr = base + np.reshape(sign, base.shape) * np.reshape(near, base.shape)
        assert _is_permutation(arr) == oracles.isclose_is_permutation(arr)


class TestValidatedTables:
    """One validator checks a JointDistribution table and a stack of tables alike."""

    @staticmethod
    def stack(rank: int) -> np.ndarray:
        shape = (2, 3) if rank == 2 else (2, 2, 3)
        rng = np.random.default_rng(rank)
        return rng.dirichlet(np.ones(math.prod(shape)), size=4).reshape((4,) + shape)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_valid_stack_passes_read_only(self, rank):
        stack = self.stack(rank)
        out = _validated_tables(stack, rank=rank)
        assert np.array_equal(out, stack) and not out.flags.writeable
        assert stack.flags.writeable and not np.shares_memory(out, stack)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("bad", ["nan", "negative", "heavy", "light"])
    def test_one_bad_table_raises_as_joint_distribution(self, rank, position, bad):
        stack = self.stack(rank)
        table = stack[position].reshape(-1)
        if bad == "nan":
            table[1] = np.nan
        elif bad == "negative":
            table[0], table[1] = table[0] + 1e-6, -1e-6
        else:
            table[0] += 1e-8 if bad == "heavy" else -1e-8
        with pytest.raises(PeerLabError) as single:
            JointDistribution(stack[position])
        with pytest.raises(PeerLabError) as stacked:
            _validated_tables(stack, rank=rank)
        assert type(stacked.value) is type(single.value)
        assert type(single.value) is (ZeroMass if bad in ("heavy", "light") else NegativeWeight)


def _bad(values, kind: str, rank: int) -> np.ndarray:
    """``values`` (mass 1, at least two cells in its first row) with the fault ``kind``."""
    arr = np.array(values, dtype=np.float64)
    cells = arr.reshape(-1)
    if kind == "empty":
        return np.zeros((0,) * rank)
    if kind == "wrong rank":
        return arr[0] if rank > 1 else arr[None, :]
    if kind in ("nan", "inf"):
        cells[0] = np.nan if kind == "nan" else np.inf
    elif kind in ("-0.1", "-1e-13"):  # the mass moves to the next cell
        cells[1] += cells[0] - float(kind)
        cells[0] = float(kind)
    else:
        cells[0] += float(kind.removeprefix("mass 1 "))
    return arr


RAISES = {"empty": EmptyAlphabet, "nan": NegativeWeight, "inf": NegativeWeight,
          "-0.1": NegativeWeight, "-1e-13": None, "mass 1 +2e-9": ZeroMass,
          "mass 1 -2e-9": ZeroMass, "wrong rank": WrongRank}
BUILDERS = {  # the constructor, a valid input, its rank, and the field holding the entries
    "Distribution": (Distribution, [0.5, 0.5], 1, "weights"),
    "TransitionMatrix": (TransitionMatrix, [[0.5, 0.5], [0.25, 0.75]], 2, "rows"),
    "JointDistribution": (JointDistribution, [[0.25, 0.25], [0.1, 0.4]], 2, "table"),
    "FullJointPrior": (FullJointPrior, [[0.25, 0.25], [0.1, 0.4]], 2, "tensor"),
    # normalizes, so a mass off by 2e-9 is not a fault
    "make_distribution": (make_distribution, [0.5, 0.5], 1, "weights"),
}


@pytest.mark.parametrize("kind", list(RAISES))
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_probability_objects_raise_one_error_type_per_fault(name, kind):
    """Every probability object is checked by ``_validated_tables``: a fault raises one type,
    whichever object meets it, and noise above -1e-12 is clipped to 0."""
    build, values, rank, field = BUILDERS[name]
    want = None if name == "make_distribution" and kind.startswith("mass") else RAISES[kind]
    arr = _bad(values, kind, rank)
    if want is None:
        entries = getattr(build(arr), field)
        assert np.all(entries >= 0.0) and not entries.flags.writeable
    else:
        with pytest.raises(want):
            build(arr)


@pytest.mark.parametrize("kind", ["clean", "-1e-13"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_caller_array_stays_writable_and_unshared(name, kind):
    """The validator keeps a private copy, clipped or not: the caller's float64 array stays
    writable and unchanged, and a later write to it leaves the object as it was."""
    build, values, rank, field = BUILDERS[name]
    arr = np.array(values, dtype=np.float64) if kind == "clean" else _bad(values, kind, rank)
    given = arr.copy()
    entries = getattr(build(arr), field)
    assert arr.flags.writeable and np.array_equal(arr, given)
    kept = entries.copy()
    arr[...] = 7.0
    assert np.array_equal(entries, kept)
