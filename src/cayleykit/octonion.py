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


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2^64 over the golden ratio, made odd
# the finalizer's steps: z ^= z >> shift, then z *= multiplier, the last without one
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)), (np.uint64(27), np.uint64(0x94D049BB133111EB)),
        (np.uint64(31), None))
_RAMP = np.arange(1, 8193, dtype=np.uint64) * np.uint64(_GAMMA)  # (i + 1) gamma for one piece


def _mix(z: int) -> int:
    """SplitMix64's finalizer on one 64-bit word."""
    for shift, mult in _MIX:
        z = (z ^ z >> int(shift)) * int(mult or 1) & _MASK64
    return z


class Stream:
    """Counter-based draws: SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as a counter.

    Output i of the stream keyed k is SplitMix64's finalizer of k + (i + 1) gamma; its low,
    then its high 32 bits are draws 2i and 2i + 1.  ``draw`` is the next draw taken: set it,
    and the stream starts there, so draws taken at an offset are a slice of one long draw.
    The key folds in ``words``, 64 bits at a time, as (seed, suite) keys a suite's stream.
    Each double is one draw: unsigned over 2^32 in [0, 1), or signed over 2^31 in [-1, 1).
    """

    def __init__(self, *words: int):
        self.key, self.draw, self.spawned = 0, 0, 0
        for word in words:
            while True:
                self.key = _mix(_mix(self.key + _GAMMA & _MASK64) ^ word & _MASK64)
                word >>= 64
                if not word:
                    break

    def spawn(self, n: int) -> list["Stream"]:
        """``n`` streams keyed by (this key, the count spawned before each)."""
        self.spawned += n
        return [Stream(self.key, child) for child in range(self.spawned - n, self.spawned)]

    def _doubles(self, size, out, dtype: str, scale: float) -> np.ndarray:
        """The next draws, read as ``dtype`` and times ``scale``, into ``out`` or a new array,
        one piece of up to 2 len(_RAMP) draws at a time."""
        out = np.empty(size) if out is None else out
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        flat, done = out.reshape(-1), 0
        while done < flat.size:
            first, skip = divmod(self.draw, 2)
            z = _RAMP[:min(len(_RAMP), (skip + flat.size - done + 1) // 2)] + np.uint64(
                self.key + first * _GAMMA & _MASK64)
            shifted = np.empty_like(z)
            for shift, mult in _MIX:
                z ^= np.right_shift(z, shift, out=shifted)
                if mult is not None:
                    z *= mult
            bits = z.astype("<u8", copy=False).view(dtype)[skip:skip + flat.size - done]
            np.multiply(bits, scale, out=flat[done:done + len(bits)])
            done += len(bits)
            self.draw += len(bits)
        return out

    def random(self, size=(), out: np.ndarray | None = None) -> np.ndarray:
        """Doubles in [0, 1), each a draw over 2^32, into a C-contiguous ``out`` if given."""
        return self._doubles(size, out, "<u4", 2.0**-32)

    def uniform(self, low: float, high: float, size=(), out: np.ndarray | None = None) -> np.ndarray:
        """Doubles in [low, high): the midpoint plus the half width times a signed draw over
        2^31, so ``uniform(-1, 1)`` is one pass."""
        out = self._doubles(size, out, "<i4", 2.0**-31)
        if high - low != 2.0:
            out *= (high - low) / 2.0
        if low + high != 0.0:
            out += (low + high) / 2.0
        return out

    def integers(self, low, high, size=()) -> np.ndarray:
        """Integers in [low, high), the bounds broadcast against ``size``: each is low plus the
        floor of a ``random`` draw times high - low, so its bias is under (high - low) / 2^32."""
        return low + np.floor(self.random(size) * np.subtract(high, low)).astype(np.int64)

    def standard_normal(self, size=()) -> np.ndarray:
        """Box-Muller on pairs of ``random`` draws: radii from the first half, angles from the
        second."""
        count = int(np.prod(size))
        u = self.random((2, -(-count // 2)))
        radius = np.sqrt(-2.0 * np.log1p(-u[0]))
        return np.concatenate([radius * np.cos(2.0 * np.pi * u[1]),
                               radius * np.sin(2.0 * np.pi * u[1])])[:count].reshape(size)


def uniform_blocks(stream: Stream, starts: range, stop: int, dim: int):
    """Row pairs (x, y) uniform in [-1, 1)^dim, one (2, rows, dim) view per first row in
    ``starts``, which the next block overwrites; the last ends at ``stop``.  x and y each draw
    from a stream spawned off ``stream`` as ``uniform(-1, 1)`` does, started at the block's
    first row, ``dim`` draws per row, so no value depends on the block size or the first block."""
    if not isinstance(stream, Stream):
        raise TypeError(f"uniform_blocks draws from a Stream, not a {type(stream).__name__}")
    streams = stream.spawn(2)
    for child in streams:
        child.draw = dim * starts.start
    draws = np.empty((2, min(starts.step, stop - starts.start), dim))
    for start in starts:
        block = draws[:, :min(starts.step, stop - start)]
        for child, out in zip(streams, block):
            child.uniform(-1.0, 1.0, out=out)
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
