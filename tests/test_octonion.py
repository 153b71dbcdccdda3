import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from cayleykit.octonion import (
    DEFAULT_TABLE,
    DIM,
    FANO_TRIPLES,
    MUL_BLOCK_ROWS,
    MultiplicationTable,
    Stream,
    clifford_involutions,
    conj_arrays,
    mul_arrays,
    product_matrices,
    uniform_blocks,
)

RNG = np.random.default_rng(20260823)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
oct_array = arrays(np.float64, (8,), elements=finite)


def reference_table():
    """Rebuild the table straight from the seven lines, no closure logic.

    Each line (a, b, c) is read cyclically: consecutive products advance
    along the line with a plus sign, reversed products pick up a minus.
    """
    sign = np.zeros((DIM, DIM), dtype=int)
    index = np.zeros((DIM, DIM), dtype=int)
    sign[0, :] = sign[:, 0] = 1
    index[0, :] = np.arange(DIM)
    index[:, 0] = np.arange(DIM)
    for i in range(1, DIM):
        sign[i, i], index[i, i] = -1, 0
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            sign[x + 1, y + 1], index[x + 1, y + 1] = 1, z + 1
            sign[y + 1, x + 1], index[y + 1, x + 1] = -1, z + 1
    return sign, index


def test_table_matches_line_oracle():
    sign, index = reference_table()
    assert np.array_equal(DEFAULT_TABLE.sign, sign)
    assert np.array_equal(DEFAULT_TABLE.index, index)


def test_generated_table_is_total():
    # every off-line pair must have been filled by the cyclic closure
    for i in range(1, DIM):
        for j in range(1, DIM):
            s, k = DEFAULT_TABLE.product(i, j)
            assert s in (-1, 1)
            if i == j:
                assert (s, k) == (-1, 0)
            else:
                assert k not in (0, i, j)


BASIS = np.eye(DIM)
ONE, E = BASIS[0], BASIS[1:]  # real unit and imaginary units e_0 .. e_6


def test_frozen_witnesses():
    assert np.array_equal(mul_arrays(E[0], E[1]), E[3])
    assert np.array_equal(mul_arrays(mul_arrays(E[0], E[1]), E[2]), -E[5])
    assert np.array_equal(mul_arrays(E[0], mul_arrays(E[1], E[2])), E[5])
    # one witness per line
    for a, b, c in FANO_TRIPLES:
        assert np.array_equal(mul_arrays(E[a], E[b]), E[c])


def test_two_sided_unit_and_squares():
    for i in range(7):
        assert np.array_equal(mul_arrays(ONE, E[i]), E[i])
        assert np.array_equal(mul_arrays(E[i], ONE), E[i])
        assert np.array_equal(mul_arrays(E[i], E[i]), -ONE)


def test_alternative_laws_bulk():
    a = RNG.uniform(-1.0, 1.0, (100000, 8))
    b = RNG.uniform(-1.0, 1.0, (100000, 8))
    ab = mul_arrays(a, b)
    scale = np.abs(ab).max(axis=-1) + 1.0
    left = mul_arrays(a, ab) - mul_arrays(mul_arrays(a, a), b)
    right = mul_arrays(ab, b) - mul_arrays(a, mul_arrays(b, b))
    assert (np.abs(left).max(axis=-1) / scale).max() <= 1e-12
    assert (np.abs(right).max(axis=-1) / scale).max() <= 1e-12


def test_norm_multiplicativity_bulk():
    a = RNG.uniform(-1.0, 1.0, (100000, 8))
    b = RNG.uniform(-1.0, 1.0, (100000, 8))
    na, nb = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
    rel = np.abs(np.linalg.norm(mul_arrays(a, b), axis=-1) - na * nb) / (na * nb)
    assert rel.max() <= 1e-12


def test_conjugation_reverses_products():
    a = RNG.uniform(-1.0, 1.0, (10000, 8))
    b = RNG.uniform(-1.0, 1.0, (10000, 8))
    lhs = conj_arrays(mul_arrays(a, b))
    rhs = mul_arrays(conj_arrays(b), conj_arrays(a))
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(lhs).max())


def test_moufang_identity():
    # (xy)(zx) = x((yz)x) holds in alternative algebras and breaks for
    # generic sign flips, so it guards the table beyond bilinearity
    x, y, z = RNG.uniform(-1.0, 1.0, (3, 1000, 8))
    lhs = mul_arrays(mul_arrays(x, y), mul_arrays(z, x))
    rhs = mul_arrays(x, mul_arrays(mul_arrays(y, z), x))
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(lhs).max())


def test_polarized_norm_identity():
    a, b, c = RNG.uniform(-1.0, 1.0, (3, 5000, 8))
    lhs = np.einsum("...i,...i->...", mul_arrays(a, b), mul_arrays(a, c))
    rhs = np.einsum("...i,...i->...", a, a) * np.einsum("...i,...i->...", b, c)
    assert np.abs(lhs - rhs).max() <= 1e-11 * (1.0 + np.abs(rhs).max())


@given(oct_array, oct_array)
def test_alternative_left_property(a, b):
    lhs = mul_arrays(a, mul_arrays(a, b))
    rhs = mul_arrays(mul_arrays(a, a), b)
    assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())


@given(oct_array, oct_array)
def test_norm_multiplicative_property(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    assert abs(np.linalg.norm(mul_arrays(a, b)) - na * nb) <= 1e-10 * (1.0 + na * nb)


@given(oct_array)
def test_conjugate_recovers_norm(a):
    sq = mul_arrays(a, conj_arrays(a))
    assert abs(sq[0] - a @ a) <= 1e-10 * (1.0 + sq[0])
    assert np.abs(sq[1:]).max() <= 1e-10 * (1.0 + abs(sq[0]))


def test_structure_tensor_frozen():
    t = DEFAULT_TABLE.structure_tensor()
    assert t.shape == (8, 8, 8)
    with pytest.raises(ValueError):
        t[0, 0, 0] = 2.0
    # cached object is reused
    assert DEFAULT_TABLE.structure_tensor() is t


def _reorder_bound(a, b):
    """Rounding bound for summing the eight a_i b_j terms of a component in
    another order: 8 eps times sum_ij |a_i b_j|, per row."""
    scale = np.abs(a).sum(-1) * np.abs(b).sum(-1)
    return 8.0 * np.finfo(float).eps * np.asarray(scale)[..., None]


@pytest.mark.parametrize("shape_a, shape_b", [
    ((8,), (8,)),
    ((8,), (37, 8)),
    ((37, 8), (8,)),
    ((2, 3, 8), (3, 8)),
    ((0, 8), (0, 8)),
    ((MUL_BLOCK_ROWS + 1, 8), (MUL_BLOCK_ROWS + 1, 8)),
    # one operand shared by a stack, on the right and on the left, ending in a partial block
    ((3, MUL_BLOCK_ROWS + 1, 8), (MUL_BLOCK_ROWS + 1, 8)),
    ((MUL_BLOCK_ROWS + 1, 8), (2, MUL_BLOCK_ROWS + 1, 8)),
])
def test_mul_arrays_matches_einsum_oracle(shape_a, shape_b):
    a = RNG.uniform(-1.0, 1.0, shape_a)
    b = RNG.uniform(-1.0, 1.0, shape_b)
    got, want = mul_arrays(a, b), oracles.mul_einsum(a, b)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _reorder_bound(a, b))
    out = np.empty(want.shape)
    assert mul_arrays(a, b, out=out) is out and np.array_equal(out, got)
    if {len(shape_a), len(shape_b)} == {2, 3}:
        # a stack writes through a (rows, k, 8) view of out, so a slab of a larger array will do
        k, rows, _ = want.shape
        slab = np.empty((k + 1, rows + 3, 8))[1:, :rows]
        assert mul_arrays(a, b, out=slab) is slab and np.array_equal(slab, got)
    # multiples of 1/8 in [-1, 1]: every product and partial sum is exact, so
    # any summation order gives the same bits
    a, b = (RNG.integers(-8, 9, shape) / 8.0 for shape in (shape_a, shape_b))
    assert np.array_equal(mul_arrays(a, b), oracles.mul_einsum(a, b))


def test_product_matrices_act_on_both_sides():
    x, y = RNG.uniform(-1.0, 1.0, (2, 37, 8))
    right, left = product_matrices(x), product_matrices(x, left=True)
    assert right.shape == left.shape == (37, 8, 8)
    # y R_x = y x and y L_x = x y, each within the rounding of a reordered sum
    got = np.matmul(y[:, None], right)[:, 0]
    assert np.all(np.abs(got - oracles.mul_einsum(y, x)) <= _reorder_bound(x, y))
    got = np.matmul(y[:, None], left)[:, 0]
    assert np.all(np.abs(got - oracles.mul_einsum(x, y)) <= _reorder_bound(x, y))
    # every entry is a signed copy of one coordinate of x
    for matrices in (left, right):
        assert (np.abs(matrices)[..., None] == np.abs(x)[:, None, None, :]).any(axis=-1).all()


def test_mul_arrays_uses_the_given_table(tmp_path):
    sign = DEFAULT_TABLE.sign.copy()
    sign[3, 5] = -sign[3, 5]
    path = tmp_path / "flipped.csv"
    MultiplicationTable(sign, DEFAULT_TABLE.index).save(path)
    flipped = MultiplicationTable.load(path)
    a, b = RNG.uniform(-1.0, 1.0, (2, MUL_BLOCK_ROWS + 1, 8))
    got = mul_arrays(a, b, flipped)
    assert np.all(np.abs(got - oracles.mul_einsum(a, b, flipped)) <= _reorder_bound(a, b))
    assert np.abs(got - mul_arrays(a, b)).max() > 0.1


def _anticommutators(inv):
    pairs = np.einsum("iab,jbc->ijac", inv, inv)
    return pairs + pairs.transpose(1, 0, 2, 3)


def test_clifford_involutions():
    inv = clifford_involutions()
    assert np.array_equal(inv, oracles.clifford_by_products())
    assert np.array_equal(inv, inv.transpose(0, 2, 1))
    # I_i I_j + I_j I_i = 2 delta_ij, exactly: every entry is a signed 0 or 1
    want = 2.0 * np.eye(9)[:, :, None, None] * np.eye(16)
    assert np.abs(_anticommutators(inv) - want).max() == 0.0
    # a flipped table sign breaks the relations
    sign = DEFAULT_TABLE.sign.copy()
    sign[3, 5] = -sign[3, 5]
    table = MultiplicationTable(sign, DEFAULT_TABLE.index)
    flipped = clifford_involutions(table)
    assert np.array_equal(flipped, oracles.clifford_by_products(table))
    assert np.abs(_anticommutators(flipped) - want).max() >= 2.0


def test_stream_is_splitmix64():
    # the published first outputs of SplitMix64 seeded 1234567, each as two draws, low half first
    assert oracles.splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973,
                                              9817491932198370423]
    for key, count in ((1234567, 3), (Stream(9, 2).key, 9000)):  # 9,000 outputs: two pieces
        stream = Stream()
        stream.key = key
        draws = np.rint(stream.random(2 * count) * 2**32).astype(np.uint64)
        want = [half for z in oracles.splitmix64(key, count) for half in (z % 2**32, z >> 32)]
        assert draws.tolist() == want
        assert stream.draw == 2 * count


def test_stream_starts_at_any_draw():
    # draws taken from any offset, odd ones and those past a piece of 16,384 draws too, are a
    # slice of one long draw, and so are draws taken a part at a time
    whole = Stream(3).uniform(-1.0, 1.0, 40_000)
    for offset in (0, 1, 2, 16_383, 16_384, 16_385, 33_001):
        stream = Stream(3)
        stream.draw = offset
        assert np.array_equal(stream.uniform(-1.0, 1.0, 40_000 - offset), whole[offset:])
    stream, parts = Stream(3), []
    for size in (1, 16_384, 7, 20_000, 3_608):
        parts.append(stream.uniform(-1.0, 1.0, size))
    assert np.array_equal(np.concatenate(parts), whole)
    # every draw kind reads the same draws: random is the unsigned reading of uniform's
    unsigned = Stream(3).random(40_000)
    assert np.array_equal(np.where(whole < 0.0, whole + 2.0, whole) / 2.0, unsigned)


def test_stream_spawns_new_keys():
    parent = Stream(5)
    first, second = parent.spawn(2), parent.spawn(1)
    keys = {stream.key for stream in (parent, *first, *second)}
    assert len(keys) == 4
    assert [child.key for child in Stream(5).spawn(3)] == [child.key for child in (*first, *second)]
    assert all(child.draw == 0 for child in first)


def test_stream_draws_stay_in_range_with_sane_moments():
    stream = Stream(11, 4)
    u = stream.random(1_000_000)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 2e-3 and abs(u.var() - 1.0 / 12.0) < 2e-3
    v = stream.uniform(-1.0, 1.0, (1000, 1000))
    assert v.shape == (1000, 1000) and -1.0 <= v.min() and v.max() < 1.0
    assert abs(v.mean()) < 4e-3 and abs(v.var() - 1.0 / 3.0) < 4e-3
    w = stream.uniform(3.0, 5.0, 100_000)
    assert 3.0 <= w.min() and w.max() < 5.0 and abs(w.mean() - 4.0) < 2e-2
    k = stream.integers(1, 16, (3, 100_000, 1))
    assert k.shape == (3, 100_000, 1) and k.dtype == np.int64
    counts = np.bincount(k.ravel(), minlength=16)
    assert counts[0] == 0 and np.abs(counts[1:] / 20_000 - 1.0).max() < 0.03
    high = np.arange(1, 6)[:, None]  # per-row bounds
    rows = stream.integers(0, high, (5, 10_000))
    assert (rows.min(axis=1) == 0).all() and (rows.max(axis=1) == high[:, 0] - 1).all()
    z = stream.standard_normal((500_001,))
    assert z.shape == (500_001,) and np.isfinite(z).all()
    assert abs(z.mean()) < 1e-2 and abs(z.std() - 1.0) < 1e-2 and abs((z**4).mean() - 3.0) < 5e-2
    assert abs((z > 1.959964).mean() - 0.025) < 2e-3
    assert stream.standard_normal((2, 3, 8)).shape == (2, 3, 8)


def test_uniform_blocks_continue_the_flat_draws():
    # from any first block, and at any block size, the blocks continue two spawned streams
    # draw for draw as one flat uniform(-1, 1) call on each takes them
    stop = 2 * MUL_BLOCK_ROWS + 5
    want = np.stack([child.uniform(-1.0, 1.0, (stop, 3)) for child in Stream(7).spawn(2)])
    for starts in (range(0, stop, MUL_BLOCK_ROWS), range(MUL_BLOCK_ROWS, stop, MUL_BLOCK_ROWS),
                   range(0, stop, 100), range(300, stop, 100), range(1, stop, 2)):
        blocks = [block.copy() for block in uniform_blocks(Stream(7), starts, stop, 3)]
        assert [len(x) for x, _ in blocks] == [min(starts.step, stop - s) for s in starts]
        assert np.array_equal(np.concatenate(blocks, axis=1), want[:, starts.start:]), starts
    # a numpy generator has no stream to start at a row: it is refused, not drawn from
    with pytest.raises(TypeError):
        next(uniform_blocks(np.random.default_rng(7), range(0, 10, 5), 10, 3))


def test_mul_arrays_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mul_arrays(np.ones((8, 7)), np.ones((8, 7)))
    with pytest.raises(ValueError):
        mul_arrays(np.ones((5, 7)), np.ones((5, 8)))
    with pytest.raises(ValueError):
        mul_arrays(np.ones((2, 8)), np.ones((3, 8)))
    # an out that reshape would copy would leave the products unseen
    for out in (np.empty((4, 8)), np.empty((8, 5)).T):
        with pytest.raises(ValueError):
            mul_arrays(np.ones((5, 8)), np.ones((5, 8)), out=out)


def test_table_save_load_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    DEFAULT_TABLE.save(path)
    back = MultiplicationTable.load(path)
    assert np.array_equal(back.sign, DEFAULT_TABLE.sign)
    assert np.array_equal(back.index, DEFAULT_TABLE.index)


def test_table_load_rejects_malformed(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("1,2,3\n")
    with pytest.raises(ValueError):
        MultiplicationTable.load(short)
    zero = tmp_path / "zero.csv"
    DEFAULT_TABLE.save(zero)
    rows = zero.read_text().splitlines()
    parts = rows[3].split(",")
    parts[0] = "0"
    rows[3] = ",".join(parts)
    zero.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        MultiplicationTable.load(zero)


def test_table_constructor_validation():
    sign = np.ones((8, 8), dtype=int)
    index = np.zeros((8, 8), dtype=int)
    with pytest.raises(ValueError):
        MultiplicationTable(sign[:4], index[:4])
    bad_sign = sign.copy()
    bad_sign[1, 1] = 0
    with pytest.raises(ValueError):
        MultiplicationTable(bad_sign, index)
    bad_index = index.copy()
    bad_index[2, 2] = 9
    with pytest.raises(ValueError):
        MultiplicationTable(sign, bad_index)
