"""Gaussian coefficient draws and the random processes built on them.

Every process of the laboratory is a linear combination of a shared
pair of standard Gaussian coefficient vectors (a, b):

* F_n — eigenfunction sum over the two boundary families,
* f_n — sqrt(omega) * F_n,
* X_n — half-frequency trigonometric sum in the variable Omega(x),
* X_n_raw — X_n / sqrt(omega) (the unweighted comparison process),
* Y_n — X_n in the variable y = Omega(x): the half-frequency sum of
  cos(k y/2), sin(k y/2), which X_n and X_n_raw pull back to,
* T_n — the classic stationary trigonometric polynomial,
* perturbed — T_n with cos(kx), sin(kx) perturbed by the fixed family
  eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k), so that
  |eps_k| <= 1/(2k) and |eps_k'| <= 1, and the same for eta_k.

Coefficients come from a counter-based generator keyed by
(master_seed, n, replicate_id, stream), so draws are reproducible and
independent of evaluation or scheduling order: a and b are the standard
normals of numpy's Philox seeded by SeedSequence(master_seed,
spawn_key=(n, replicate_id, stream)) for streams 0 and 1.
sample_coefficient_block() derives those keys for a block of ids in one
pass: numpy's SeedSequence(master_seed, spawn_key=(n,)) mixes the words
the block shares, the id and stream words are mixed into its pool for
every id at once in uint32 arithmetic (SeedSequence's own hash, whose
constant has advanced 16 + 4*(L - 4) times over those L words), and one
Philox is re-keyed with counter 0 for each row, from a state of plain
ints, which its setter takes faster than numpy arrays.
sample_coefficients() is its one-id case, so a block and single draws
give the same bits.  numpy.random is loaded with this module, not
lazily on the first draw, so the processes the package forks inherit
it.

Each kind is defined once, in process_rows(): the kind at points x as
row matrices (ProcessRows), which combine() turns into values and
slopes for one draw or a whole matrix of draws.  Eigenfunction sums
take their stored (psi, psi') samples as rows on the storage grid and
interpolate them with a cubic Hermite rule elsewhere; the trigonometric
kinds are cosine/sine rows in closed form, whose slopes follow from the
same rows, each table in one product with the values.  perturbed's
family only shifts frequencies by one, so a draw of it is a
trigonometric polynomial of frequencies 1..n+1: its rows are the
cosine/sine rows of those frequencies, the first n of which are T_n's,
and combine maps each draw onto their coefficients
(_perturbed_coefficients).  A large table is filled by row halves in
two threads, joined before its build returns (_in_row_halves), with the
bits of a one-thread fill.  RandomProcess (one draw of any kind), the
harness's grid samples and the second-order diagnostics all read this
one table, and build_process refuses what it refuses.  unit_blocks
reads a kind back at the unit coefficient vectors a_1, b_1, ..., a_n,
b_n, building each block's rows alone (process_rows' start), so no
caller holds the whole table.
"""

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
# loaded here, not lazily by numpy on the first draw, so that forked
# children inherit it
from numpy.random import Generator, Philox, SeedSequence

from .errors import (DomainError, PreconditionError, check_order,
                     non_negative_int, positive_integral)
from .weights import default_grid, omega_map

KINDS = ("F_n", "f_n", "X_n", "X_n_raw", "Y_n", "T_n", "perturbed")


@dataclass(frozen=True, eq=False)
class CoefficientDraw:
    master_seed: int
    n: int
    replicate_id: int
    a: np.ndarray
    b: np.ndarray
    seed: int  # derived record seed, for provenance columns


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
ID_LIMIT = 2 ** 32  # a replicate id is one 32-bit word of the key
_KEY_BLOCK = 256  # ids whose keys sample_coefficient_block holds at once


def _hash_constants(hash_const, mult, count):
    """The next `count` steps of a hash constant: the (count, 1) uint32
    values hashmix xors with and multiplies by, and the constant after."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = hash_const * mult & _MASK32
        mults.append(hash_const)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None], hash_const)


def _hash(words, xors, mults):
    h = words ^ xors
    h *= mults
    h ^= h >> 16
    return h


def _mix_word(pool, word, hash_const):
    """SeedSequence.mix_entropy for one entropy word past the pool size,
    for pools (..., 4, m) of m sequences at once: the mixed pools and
    the advanced hash constant."""
    xors, mults, hash_const = _hash_constants(hash_const, _MULT_A, _POOL_SIZE)
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hash(word, xors, mults)
    mixed ^= mixed >> 16
    return mixed, hash_const


_STATE_XORS, _STATE_MULTS, _ = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)


def _uint64_state(pool, count):
    """SeedSequence.generate_state(count, np.uint64) for pools (..., 4, m),
    count <= 2: a (..., count, m) uint64 array."""
    w = _hash(pool[..., :2 * count, :], _STATE_XORS[:2 * count],
              _STATE_MULTS[:2 * count]).astype(np.uint64)
    return w[..., 0::2, :] | (w[..., 1::2, :] << np.uint64(32))


def _words(value):
    """How many uint32 words SeedSequence makes of a non-negative int."""
    return max(1, -(-value.bit_length() // 32))


def _id_words(ids):
    """Replicate ids as the uint32 words SeedSequence makes of them."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise PreconditionError("replicate_ids must be a sequence of "
                                "integers, got %r" % (ids,))
    if ids.min() < 0 or ids.max() >= ID_LIMIT:
        raise PreconditionError("replicate_ids must lie in [0, 2**32)")
    return ids.astype(np.uint32)


def _check_block_out(out, m, n):
    """out=(A, B, seeds) refused by name unless A and B are writable
    C-contiguous float64 arrays of shape (m, n) and seeds one of uint64
    and shape (m,)."""
    for name, arr, dtype, shape in zip(("A", "B", "seeds"), out,
                                       (np.float64, np.float64, np.uint64),
                                       ((m, n), (m, n), (m,))):
        if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
                and arr.shape == shape and arr.flags.c_contiguous
                and arr.flags.writeable):
            raise PreconditionError(
                "out's %s must be a writable C-contiguous %s array of shape "
                "%s, got %r" % (name, np.dtype(dtype).name, shape,
                                getattr(arr, "shape", arr)))


def sample_coefficient_block(master_seed, n, replicate_ids, out=None):
    """The draws of a block of replicate ids: (A, B, seeds), row i of the
    (m, n) arrays A and B holding a and b of replicate_ids[i], and seeds
    its uint64 record seed, the first uint64 of
    SeedSequence(master_seed, spawn_key=(n, rid)).generate_state.  The
    keys are derived as the module docstring says; every id must lie in
    [0, 2**32).

    out=(A, B, seeds) are writable C-contiguous arrays of those shapes
    and dtypes (float64, float64, uint64) to fill, such as the buffers
    that a covariance_check half reuses for each of its blocks; by
    default they are allocated.  Either way they get the same bits."""
    n = positive_integral("n", n)
    master_seed = non_negative_int("master_seed", master_seed)
    m = len(replicate_ids)
    if out is None:
        out = (np.empty((m, n)), np.empty((m, n)),
               np.empty(m, dtype=np.uint64))
    else:
        _check_block_out(out, m, n)
    A, B, seeds = out

    prefix = SeedSequence(entropy=master_seed, spawn_key=(n,))
    # mix_entropy advanced its hash constant 16 times over the first
    # four words and 4 times per word after them
    prefix_words = max(_POOL_SIZE, _words(master_seed)) + _words(n)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * (prefix_words - _POOL_SIZE),
                               _MASK32 + 1) & _MASK32
    tags = np.arange(2, dtype=np.uint32)[:, None, None]  # streams 0 and 1
    bitgen = Philox(prefix)
    gen = Generator(bitgen)
    # a fresh Philox's state at counter 0, in plain ints
    state = bitgen.state
    state["state"] = {"counter": [0] * 4, "key": None}
    state["buffer"] = state["buffer"].tolist()
    for lo in range(0, m, _KEY_BLOCK):
        # the ids and keys of _KEY_BLOCK draws at a time, so they never
        # sit beside every row of a large block
        block = _id_words(replicate_ids[lo:lo + _KEY_BLOCK])
        pool, block_const = _mix_word(prefix.pool[:, None], block, hash_const)
        seeds[lo:lo + block.size] = _uint64_state(pool, 1)[0]
        streams, _ = _mix_word(pool, tags, block_const)
        keys = _uint64_state(streams, 2).transpose(0, 2, 1).tolist()
        for rows, stream_keys in zip((A, B), keys):
            for row, key in zip(rows[lo:], stream_keys):
                state["state"]["key"] = key
                bitgen.state = state
                gen.standard_normal(out=row)
    return A, B, seeds


def sample_coefficients(master_seed, n, replicate_id):
    """2n standard Gaussians from a counter-based derivation of
    (master_seed, n, replicate_id); streams 0/1 feed a/b.  The one-id
    case of sample_coefficient_block."""
    replicate_id = non_negative_int("replicate_id", replicate_id)
    if replicate_id >= ID_LIMIT:
        raise PreconditionError("replicate_id must be below 2**32, got %d"
                                % replicate_id)
    A, B, seeds = sample_coefficient_block(master_seed, n, [replicate_id])
    return CoefficientDraw(master_seed=int(master_seed), n=int(n),
                           replicate_id=replicate_id, a=A[0], b=B[0],
                           seed=int(seeds[0]))


def _hermite_weights(x, h, n_cells):
    xs = np.asarray(x, dtype=float)
    idx = np.clip((xs / h).astype(int), 0, n_cells - 1)
    s = xs / h - idx
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    d00 = (6.0 * s * s - 6.0 * s) / h
    d10 = 3.0 * s * s - 4.0 * s + 1.0
    d01 = (6.0 * s - 6.0 * s * s) / h
    d11 = 3.0 * s * s - 2.0 * s
    return idx, (h00, h10 * h, h01, h11 * h), (d00, d10, d01, d11)


def hermite_rows(funcs, dfuncs, h, x):
    """Evaluate every row of (funcs, dfuncs) samples at the points x
    with the cubic Hermite rule.  Returns (vals, derivs) of shape
    (rows, len(x))."""
    idx, wv, wd = _hermite_weights(x, h, funcs.shape[1] - 1)
    # both end columns of each cell in one gather per table, interleaved,
    # since they share cache lines
    ends = np.stack((idx, idx + 1), axis=1).ravel()
    f = np.take(funcs, ends, axis=1)
    g = np.take(dfuncs, ends, axis=1)
    f0, f1 = f[:, 0::2], f[:, 1::2]
    g0, g1 = g[:, 0::2], g[:, 1::2]
    vals = wv[0] * f0 + wv[1] * g0 + wv[2] * f1 + wv[3] * g1
    ders = wd[0] * f0 + wd[1] * g0 + wd[2] * f1 + wd[3] * g1
    return vals, ders


@dataclass(frozen=True, eq=False)
class ProcessRows:
    """One process kind at points x as row matrices, row k-1 for a_k/b_k.

    The value is factor * (a @ ra + b @ rb).  The slope of that sum
    comes from stored slope rows, a @ da + b @ db, or, for the
    trigonometric kinds (da is None), from the trig rule
    dphase * ((b*freq) @ ra - (a*freq) @ rb): ra/rb are then the cosine
    and sine rows of freq * phase(x), and dphase = phase'(x) (None for
    1).  combine runs that rule as one product per table, each left
    operand stacking the value's coefficients on the slope's.  A
    pointwise factor g (None for 1) enters by the product rule with its
    derivative dfactor.  perturbed rows hold one row more than a draw
    has coefficients, the cosine and sine rows of frequencies 1..n+1,
    and combine maps each draw onto them first.
    """

    ra: np.ndarray
    rb: np.ndarray
    da: np.ndarray = None
    db: np.ndarray = None
    freq: np.ndarray = None
    dphase: np.ndarray = None
    factor: np.ndarray = None
    dfactor: np.ndarray = None
    perturbed: bool = False

    def prefix(self, n):
        """The rows of the first n coefficients: n rows, one more for
        perturbed; dphase, factor and dfactor are per point.  A run's
        rows at each n of its n_list, and T_n's view of perturbed's
        table, are such prefixes."""
        n += self.perturbed
        return replace(self, **{f: getattr(self, f)[:n]
                                for f in ("ra", "rb", "da", "db", "freq")
                                if getattr(self, f) is not None})

    def out_rows(self, m, deriv=True):
        """combine's out rows for m draws: m for values alone, 3m with
        slopes, 4m with trig slopes."""
        return m * (1 + deriv * (2 + (self.da is None)))


# entries (2 MB) from which a table's rows are filled in two threads
_SPLIT_MIN = 1 << 18


def _in_row_halves(rows, cols, fill):
    """fill(lo, hi) over the rows of a rows x cols table: the lower half
    in this thread and the upper half in a second one, joined before
    this returns, so no thread outlives the call.  numpy's elementwise
    loops release the GIL, and each entry gets the bits a one-thread
    fill gives it.  A table of fewer than _SPLIT_MIN entries, such as
    the diagnostics' few hundred points, is filled here alone.  An
    exception in either half is raised here."""
    if rows < 2 or rows * cols < _SPLIT_MIN:
        fill(0, rows)
        return
    mid = rows // 2
    failed = []

    def upper():
        try:
            fill(mid, rows)
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=upper)
    thread.start()
    try:
        fill(0, mid)
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _trig_rows(freq, phase, **fields):
    """The cosine and sine rows of freq * phase, filled by row halves."""
    rb = np.empty((len(freq), len(phase)))  # the phases, then their sines
    ra = np.empty_like(rb)

    def fill(lo, hi):
        ph = np.multiply(freq[lo:hi, None], phase[None, :], out=rb[lo:hi])
        np.cos(ph, out=ra[lo:hi])
        np.sin(ph, out=ph)

    _in_row_halves(len(freq), len(phase), fill)
    return ProcessRows(ra, rb, freq=freq, **fields)


def _perturbed_coefficients(A, B, freq):
    """perturbed's scaled coefficients A and B (n per draw) as those of
    its cosine and sine rows of frequencies freq = 1..n+1.  The family
    eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k) moves b_k/(2k)
    onto cos((k+1)x) and a_k/(2k) onto sin((k+1)x), so frequency j takes
    a_j + b_{j-1}/(2(j-1)) and b_j + a_{j-1}/(2(j-1)), with a_{n+1} =
    b_{n+1} = 0 and no shifted term at j = 1."""
    shape = A.shape[:-1] + freq.shape
    A_all, B_all = np.zeros(shape), np.zeros(shape)
    A_all[..., :-1] = A
    B_all[..., :-1] = B
    two_k = 2.0 * freq[:-1]
    A_all[..., 1:] += B / two_k
    B_all[..., 1:] += A / two_k
    return A_all, B_all


def _family_pair(kind, basis_pair, n):
    """basis_pair as (C, D), refused unless it is ordered C then D, both
    families hold at least n pairs, and both are sampled on one grid."""
    if basis_pair is None:
        raise PreconditionError("kind %r needs the (C, D) eigenbasis pair" % kind)
    bc_c, bc_d = basis_pair
    if bc_c.bc.value != "C" or bc_d.bc.value != "D":
        raise PreconditionError("basis_pair must be ordered (C family, D family)")
    if bc_c.k_max < n or bc_d.k_max < n:
        raise PreconditionError(
            "eigenbasis too small: need %d pairs, have (%d, %d)"
            % (n, bc_c.k_max, bc_d.k_max))
    if bc_c.grid != bc_d.grid:
        raise PreconditionError(
            "the two family bases use different grids: C on %d points, "
            "D on %d" % (bc_c.grid.count, bc_d.grid.count))
    return bc_c, bc_d


def _omega_at(kind, weight, x):
    """omega at the points x; a missing weight is refused by name."""
    if weight is None:
        raise PreconditionError("kind %r needs a weight" % kind)
    return np.asarray(weight.eval(x), dtype=float)


def process_rows(kind, n, x=None, weight=None, basis_pair=None, grid=None,
                 start=0):
    """The table of process kinds: `kind` at the points x as rows, for
    the coefficients start+1..n (0 <= start < n): the frequencies
    start+1..n of a trigonometric kind, and one more for perturbed, or
    the basis rows start:n of an eigenfunction kind.  Row k-1-start
    depends on k alone, so a block of rows has the bits of the same rows
    of the whole table.

    x=None means the points of `grid`, on which the X kinds tabulate
    Omega too; there the eigenfunction kinds take their stored samples
    as rows, elsewhere they interpolate them with the cubic Hermite rule.
    The order n is checked first (check_order), the basis pair by
    _family_pair and the weight by _omega_at.
    """
    n = check_order(n)
    on_grid = x is None
    if grid is None and (on_grid or kind in ("X_n", "X_n_raw")):
        why = ("x=None means the grid's points" if on_grid
               else "the X kinds tabulate Omega on it")
        raise PreconditionError("kind %r needs a grid: %s" % (kind, why))
    if on_grid:
        x = grid.points
    k = np.arange(start + 1, n + 1, dtype=float)
    if kind in ("F_n", "f_n"):
        bc_c, bc_d = _family_pair(kind, basis_pair, n)
        own = [(bc.funcs[start:n], bc.dfuncs[start:n]) for bc in (bc_c, bc_d)]
        if not on_grid:
            own = [hermite_rows(f, d, bc_c.grid.h, x) for f, d in own]
        (ra, da), (rb, db) = own
        rows = ProcessRows(ra, rb, da, db)
        if kind == "F_n":
            return rows
        root = np.sqrt(_omega_at(kind, weight, x))
        dfactor = 0.5 * np.asarray(weight.deriv1(x), dtype=float) / root
        return replace(rows, factor=root, dfactor=dfactor)
    if kind in ("X_n", "X_n_raw"):
        om = _omega_at(kind, weight, x)
        rows = _trig_rows(0.5 * k, omega_map(weight, grid).forward(x),
                          dphase=om)
        if kind == "X_n":
            return rows
        root = np.sqrt(om)
        dfactor = (-0.5 * np.asarray(weight.deriv1(x), dtype=float)
                   / (om * root))
        return replace(rows, factor=1.0 / root, dfactor=dfactor)
    if kind == "Y_n":
        return _trig_rows(0.5 * k, x)
    if kind == "T_n":
        return _trig_rows(k, x)
    if kind == "perturbed":
        return _trig_rows(np.append(k, n + 1.0), x, perturbed=True)
    raise DomainError("unknown process kind %r (choose from %s)"
                      % (kind, ", ".join(KINDS)))


def _stacked_matmul(stacked, R, out):
    """stacked @ R into out, stacked holding two halves of m rows: one
    GEMM, which sums each row apart from the others, so each half keeps
    its own product's bits; at m = 1 numpy hands each half to GEMV,
    whose bits GEMM does not keep, so there the halves run apart."""
    if len(stacked) == 2:
        np.matmul(stacked[:1], R, out=out[:1])
        np.matmul(stacked[1:], R, out=out[1:])
    else:
        np.matmul(stacked, R, out=out)


def combine(rows, A, B, deriv=True, out=None):
    """(values, slopes or None) at the rows' points of the draws whose
    scaled coefficients are A and B: one draw per row of A and B, or
    one draw as two vectors.

    out is a C-contiguous float buffer of at least rows.out_rows(m,
    deriv) rows for m draws, allocated by default: the values fill its
    first m rows, the slopes the next m, and the rest is scratch (values
    alone take m rows and a temporary).  The trig slope rule runs as
    [A; B*freq] @ ra and [B; A*freq] @ rb, whose top halves sum to the
    values and bottom halves subtract to the slopes; for one draw each
    half runs alone (_stacked_matmul).  The bits are those of the plain
    expressions A @ ra + B @ rb and so on, for perturbed rows after
    _perturbed_coefficients has mapped A and B onto them.
    """
    lead, width = A.shape[:-1], rows.ra.shape[1]
    A, B = A.reshape(-1, A.shape[-1]), B.reshape(-1, B.shape[-1])
    if rows.perturbed:
        A, B = _perturbed_coefficients(A, B, rows.freq)
    m = len(A)
    need = rows.out_rows(m, deriv)
    if out is None:
        out = np.empty((need, width))
    vals = out[:m]
    ders, tmp = (out[m:2 * m], out[need - m:need]) if deriv else (None, None)
    if deriv and rows.da is None:
        # the left operands [A; B*freq] and [B; A*freq]
        coef = np.empty((2, 2 * m, len(rows.ra)))
        coef[0, :m], coef[1, :m] = A, B
        np.multiply(B, rows.freq, out=coef[0, m:])
        np.multiply(A, rows.freq, out=coef[1, m:])
        _stacked_matmul(coef[0], rows.ra, out[:2 * m])
        _stacked_matmul(coef[1], rows.rb, out[2 * m:4 * m])
        vals += out[2 * m:3 * m]
        ders -= out[3 * m:4 * m]
        if rows.dphase is not None:
            ders *= rows.dphase
    else:
        np.matmul(A, rows.ra, out=vals)
        vals += np.matmul(B, rows.rb, out=tmp)
        if deriv:
            np.matmul(A, rows.da, out=ders)
            ders += np.matmul(B, rows.db, out=tmp)
    if rows.factor is not None:
        if deriv:
            ders *= rows.factor
            ders += np.multiply(rows.dfactor, vals, out=tmp)
        vals *= rows.factor
    shape = lead + (width,)
    return vals.reshape(shape), ders.reshape(shape) if deriv else None


_UNIT_BLOCK = 64


def unit_blocks(kind, n, x=None, deriv=True, **rows):
    """kind's values and slopes (None unless deriv) at the unit
    coefficient vectors a_1, b_1, ..., a_n, b_n, in blocks of
    _UNIT_BLOCK: (lo, hi, vals, ders) for vectors lo..hi-1, a_k's row
    at 2(k-1) - lo and b_k's after it.  Each block builds only the rows
    of its own coefficients lo//2+1..hi//2 (process_rows(kind, hi // 2,
    x, start=lo // 2, **rows)), and combines them into one out buffer
    allocated once, so each yield overwrites the block before it.  The
    size is fixed, so a vector's bits do not depend on n; n is the
    caller's to check."""
    unit = np.zeros((2, _UNIT_BLOCK, _UNIT_BLOCK // 2))
    unit[0, 0::2] = unit[1, 1::2] = np.eye(_UNIT_BLOCK // 2)
    for lo in range(0, 2 * n, _UNIT_BLOCK):
        hi = min(lo + _UNIT_BLOCK, 2 * n)
        block = process_rows(kind, hi // 2, x, start=lo // 2, **rows)
        if lo == 0:  # the first block is the largest
            out = np.empty((block.out_rows(hi, deriv), block.ra.shape[1]))
        A, B = unit[:, :hi - lo, :(hi - lo) // 2]
        yield (lo, hi) + combine(block, A, B, deriv, out)


@dataclass(frozen=True, eq=False)
class RandomProcess:
    """One draw of a process kind, its coefficients scaled by 1/sqrt(n).

    Use build_process() to construct; value(x), deriv(x) and samples(x)
    are vectorized, deterministic given the fields, and one combine call
    each on the kind's rows at x.
    """

    kind: str
    n: int
    draw: CoefficientDraw
    weight: object = None
    basis: tuple = None
    grid: object = None

    def value(self, x):
        return self._at(x, False)

    def deriv(self, x):
        return self._at(x, True)

    def samples(self, x):
        """(values, slopes) at the points x."""
        return self._combine(x, True)

    def _combine(self, x, deriv):
        rows = process_rows(self.kind, self.n,
                            np.atleast_1d(np.asarray(x, dtype=float)),
                            weight=self.weight, basis_pair=self.basis,
                            grid=self.grid)
        root = 1.0 / math.sqrt(self.n)
        return combine(rows, self.draw.a * root, self.draw.b * root, deriv)

    def _at(self, x, deriv):
        out = self._combine(x, deriv)[deriv]
        return float(out[0]) if np.ndim(x) == 0 else out

    def omega(self, x):
        """Omega(x) of this process's weight."""
        if self.weight is None:
            raise PreconditionError("kind %r has no weight, so no Omega"
                                    % (self.kind,))
        return omega_map(self.weight, self.grid).forward(x)

    def stationary_pullback(self):
        """The Y_n process this X kind reduces to in the variable
        y = Omega(x), on the same draw."""
        if self.kind not in ("X_n", "X_n_raw"):
            raise DomainError("stationary_pullback needs an X-kind process, "
                              "got %r" % (self.kind,))
        return RandomProcess("Y_n", self.n, self.draw)


def build_process(kind, n, draw, weight=None, basis_pair=None):
    """A RandomProcess of `kind` on the draw, its grid and by default its
    weight the basis pair's for the eigenfunction kinds.  Every refusal
    but the draw's n is process_rows', from the rows at no points."""
    if draw.n != n:
        raise PreconditionError("draw has n=%d but the process wants n=%d"
                                % (draw.n, n))
    grid = default_grid()
    if kind in ("F_n", "f_n") and basis_pair is not None:
        weight = weight if weight is not None else basis_pair[0].weight
        grid = basis_pair[0].grid
    process_rows(kind, n, np.empty(0), weight=weight, basis_pair=basis_pair,
                 grid=grid)
    return RandomProcess(kind, n, draw, weight, basis_pair, grid)
