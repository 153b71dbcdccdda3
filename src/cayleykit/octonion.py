"""Octonion (Cayley number) arithmetic over the canonical real basis.

The algebra lives on R^8 with basis ``(1, e_0, ..., e_6)``.  All products
are generated from seven cyclic triples

    (i, i+1, i+3)  mod 7,      i = 0..6,

each meaning ``e_i e_{i+1} = e_{i+3}`` together with the cyclic rotations
of that relation.  The remaining rules are ``e_i^2 = -1`` and
anticommutativity of distinct imaginary units.  Every ordered pair of
distinct imaginary units appears in exactly one triple, so the table
closes without conflicts; :meth:`MultiplicationTable.generate` asserts
this while filling in the 8 x 8 signed index table.

The product is not associative but alternative: any two elements generate
an associative subalgebra.  The conjugation ``x -> x*`` negates the
imaginary part, and the Euclidean norm is multiplicative.  These are the
facts the verification suites exercise numerically.
"""

from __future__ import annotations

import csv

import numpy as np

# e_i e_{i+1} = e_{i+3}, indices mod 7
FANO_TRIPLES = tuple((i, (i + 1) % 7, (i + 3) % 7) for i in range(7))

DIM = 8


class MultiplicationTable:
    """Signed product table for the basis (1, e_0, ..., e_6).

    Entry ``(i, j)`` holds the product of basis elements ``i`` and ``j``
    as a pair (sign, index), both 8 x 8 integer arrays.  Index 0 is the
    real unit, index ``k`` with ``k >= 1`` is ``e_{k-1}``.
    """

    def __init__(self, sign: np.ndarray, index: np.ndarray):
        sign = np.asarray(sign, dtype=np.int64)
        index = np.asarray(index, dtype=np.int64)
        if sign.shape != (DIM, DIM) or index.shape != (DIM, DIM):
            raise ValueError("table must be 8 x 8")
        if not np.all(np.isin(sign, (-1, 1))) or index.min() < 0 or index.max() >= DIM:
            raise ValueError("malformed table entries")
        self.sign = sign
        self.index = index
        self._tensor = None

    @classmethod
    def generate(cls) -> "MultiplicationTable":
        """Close the seven cyclic triples into the full signed table."""
        sign = np.zeros((DIM, DIM), dtype=np.int64)
        index = np.full((DIM, DIM), -1, dtype=np.int64)

        def put(i, j, s, k):
            # each slot must be written exactly once
            if index[i, j] != -1:
                raise AssertionError(f"table conflict at ({i}, {j})")
            sign[i, j] = s
            index[i, j] = k

        put(0, 0, 1, 0)
        for i in range(1, DIM):
            put(0, i, 1, i)      # 1 * e = e
            put(i, 0, 1, i)
            put(i, i, -1, 0)     # e^2 = -1
        for a, b, c in FANO_TRIPLES:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                put(x + 1, y + 1, 1, z + 1)
                put(y + 1, x + 1, -1, z + 1)
        if index.min() < 0:
            raise AssertionError("table left incomplete by the triples")
        return cls(sign, index)

    def product(self, i: int, j: int) -> tuple[int, int]:
        """Product of basis elements ``i`` and ``j`` as (sign, index)."""
        return int(self.sign[i, j]), int(self.index[i, j])

    def structure_tensor(self) -> np.ndarray:
        """Dense (8, 8, 8) tensor C with e_i e_j = sum_k C[i, j, k] e_k."""
        if self._tensor is None:
            c = np.zeros((DIM, DIM, DIM))
            ii, jj = np.meshgrid(range(DIM), range(DIM), indexing="ij")
            c[ii, jj, self.index] = self.sign
            c.setflags(write=False)
            self._tensor = c
        return self._tensor

    def save(self, path) -> None:
        """Write the table as CSV of signed entries ``sign * (index + 1)``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for i in range(DIM):
                writer.writerow(int(self.sign[i, j] * (self.index[i, j] + 1)) for j in range(DIM))

    @classmethod
    def load(cls, path) -> "MultiplicationTable":
        """Read a table written by :meth:`save` (the ``--mul-table`` file)."""
        with open(path, newline="") as fh:
            rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("table file must contain an 8 x 8 grid")
        packed = np.array(rows, dtype=np.int64)
        if np.any(packed == 0) or np.any(np.abs(packed) > DIM):
            raise ValueError("entries must be nonzero signed indices in 1..8")
        return cls(np.sign(packed), np.abs(packed) - 1)


DEFAULT_TABLE = MultiplicationTable.generate()


# rows per block of every sampled kernel: the (rows, 8, 8) product matrices take 512 KiB
# and the curvature sweep's (rows, 120) bivectors 0.94 MiB, inside a 2 MiB L2 cache
MUL_BLOCK_ROWS = 1024


def uniform_blocks(rng: np.random.Generator, starts: range, stop: int, dim: int):
    """Row pairs (x, y) uniform in [-1, 1)^dim as ``uniform(-1, 1)`` draws them, one (2, rows, dim)
    view per first row in ``starts``, which the next block overwrites; the last ends at ``stop``.
    x and y each continue a stream spawned off ``rng``, started ``dim`` draws (one per double)
    per row in at ``starts.start``, so no value depends on the block size."""
    streams = rng.spawn(2)
    for stream in streams:
        stream.bit_generator.advance(dim * starts.start)
    draws = np.empty((2, min(starts.step, stop - starts.start), dim))
    for start in starts:
        block = draws[:, :min(starts.step, stop - start)]
        for stream, out in zip(streams, block):
            stream.random(out=out)
        block *= 2.0
        block -= 1.0
        yield block


def product_matrices(x, table: MultiplicationTable = DEFAULT_TABLE, left: bool = False) -> np.ndarray:
    """The 8 x 8 matrices of y -> y x (or y -> x y with ``left``), one per row of ``x``.

    They act on row vectors: ``y @ product_matrices(x)`` is the product y x.  One GEMM
    against the flattened structure tensor builds them all; every entry is a signed
    copy of one x_i, so exact.  Every product of the package is taken by ``mul_arrays``,
    which builds its matrices here, so one patch reaches them all.
    """
    c = table.structure_tensor()
    flat = (c if left else c.transpose(1, 0, 2)).reshape(DIM, DIM * DIM)
    x = np.asarray(x, dtype=float)
    return (x @ flat).reshape(x.shape[:-1] + (DIM, DIM))


def mul_arrays(a, b, table: MultiplicationTable = DEFAULT_TABLE,
               out: np.ndarray | None = None) -> np.ndarray:
    """Batched octonion product on trailing axes of length 8.

    Leading axes broadcast.  One operand is shared and the other is a stack
    on it: each block of rows builds the shared operand's matrices with
    ``product_matrices``, once, and multiplies the stack's rows of the block
    by them in one batched (k, 8) @ (8, 8) matmul.  A (rows, 8) operand
    against a (k, rows, 8) stack is shared, as left matrices when it is the
    left factor; the stack and ``out`` are read as (rows, k, 8) views, so
    ``out`` may be any (k, rows, 8) array, a slab of a larger one too.
    Otherwise b is shared by a stack of one, and ``out`` is a C-contiguous
    array of the broadcast shape.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (DIM,) or b.shape[-1:] != (DIM,):
        raise ValueError(f"octonion arrays need a trailing axis of 8, got {a.shape} and {b.shape}")
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape) if out is None else out
    left = a.ndim == 2 and b.ndim == 3 and b.shape[1:] == a.shape
    stacked = left or (a.ndim == 3 and b.ndim == 2 and a.shape[1:] == b.shape)
    if out.shape != shape or not (stacked or out.flags.c_contiguous):
        raise ValueError(f"out must be an array of shape {shape}, C-contiguous unless one operand"
                         " is shared by a stack")
    if stacked:
        shared, stack = (a, b) if left else (b, a)
        stack, products = stack.transpose(1, 0, 2), out.transpose(1, 0, 2)
    else:
        if a.shape != b.shape or a.ndim != 2:  # otherwise the rows of a, b and out line up already
            a, b = (np.broadcast_to(x, shape).reshape(-1, DIM) for x in (a, b))
        shared, stack, products = b, a[:, None, :], out.reshape(-1, 1, DIM)
    for start in range(0, len(shared), MUL_BLOCK_ROWS):
        rows = slice(start, start + MUL_BLOCK_ROWS)
        np.matmul(stack[rows], product_matrices(shared[rows], table, left), out=products[rows])
    return out


def clifford_involutions(table: MultiplicationTable = DEFAULT_TABLE) -> np.ndarray:
    """The Spin(9) Clifford system on O^2: I_u(x, y) = (u y*, x* u) for u in the basis
    (1, e_0, ..., e_6) and I_9 = diag(1_8, -1_8), with I_i I_j + I_j I_i = 2 delta_ij."""
    c = table.structure_tensor()
    conj = conj_arrays(np.ones(DIM))
    out = np.zeros((DIM + 1, 2 * DIM, 2 * DIM))
    out[:DIM, :DIM, DIM:] = c.transpose(0, 2, 1) * conj  # (u y*)_k = sum_j C[u, j, k] y*_j
    out[:DIM, DIM:, :DIM] = c.transpose(1, 2, 0) * conj  # (x* u)_k = sum_i C[i, u, k] x*_i
    out[DIM] = np.diag(np.repeat([1.0, -1.0], DIM))
    return out


def spin9_generators(table: MultiplicationTable = DEFAULT_TABLE) -> np.ndarray:
    """The 36 generators I_i I_j (i < j) of spin(9) in so(16), each as its 120 coordinates
    (I_i I_j)[p, q] (p < q) on the bivectors e_p ^ e_q: a (36, 120) array, both pairs in
    ``np.triu_indices`` order."""
    inv = clifford_involutions(table)
    i, j = np.triu_indices(len(inv), 1)
    p, q = np.triu_indices(2 * DIM, 1)
    return (inv[i] @ inv[j])[:, p, q]


def conj_arrays(a, out: np.ndarray | None = None) -> np.ndarray:
    """x -> x*, the imaginary part negated; written into ``out`` if given."""
    return np.multiply(a, np.repeat([1.0, -1.0], [1, DIM - 1]), out=out)
