"""Gaussian coefficient draws and the random processes built on them.

Every process of the laboratory is a linear combination of a shared
pair of standard Gaussian coefficient vectors (a, b):

* F_n — eigenfunction sum over the two boundary families,
* f_n — sqrt(omega) * F_n,
* X_n — half-frequency trigonometric sum in the variable Omega(x),
* X_n_raw — X_n / sqrt(omega) (the unweighted comparison process),
* T_n / C_n — classic stationary trigonometric polynomials,
* perturbed — T_n with cos(kx), sin(kx) perturbed by the fixed family
  eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k), so that
  |eps_k| <= 1/(2k) and |eps_k'| <= 1, and the same for eta_k.

Coefficients come from a counter-based generator keyed by
(master_seed, n, replicate_id, stream), so draws are reproducible and
independent of evaluation or scheduling order.

Each kind is defined once, in process_rows(): the kind at points x as
row matrices (ProcessRows), which combine() turns into values and
slopes for one draw or a whole matrix of draws.  Eigenfunction sums
take their stored (psi, psi') samples as rows on the storage grid and
interpolate them with a cubic Hermite rule elsewhere; the trigonometric
kinds are cosine/sine rows in closed form, whose slopes follow from the
same rows; perturbed adds its family, itself cosine/sine rows, to T_n's
and stores the slopes.  RandomProcess, the harness's grid samples and
the second-order diagnostics all read this one table.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PreconditionError
from .weights import default_grid, omega_map

KINDS = ("F_n", "f_n", "X_n", "X_n_raw", "T_n", "C_n", "perturbed")


@dataclass(frozen=True, eq=False)
class CoefficientDraw:
    master_seed: int
    n: int
    replicate_id: int
    a: np.ndarray
    b: np.ndarray
    seed: int  # derived record seed, for provenance columns

    def same_draw(self, other):
        return (self.master_seed == other.master_seed and self.n == other.n
                and self.replicate_id == other.replicate_id)


def sample_coefficients(master_seed, n, replicate_id):
    """2n standard Gaussians from a counter-based derivation of
    (master_seed, n, replicate_id); streams 0/1 feed a/b."""
    if n < 1 or int(n) != n:
        raise PreconditionError("n must be a positive integer, got %r" % (n,))
    if master_seed < 0 or replicate_id < 0:
        raise PreconditionError("master_seed and replicate_id must be non-negative")
    n = int(n)

    def stream(tag):
        ss = np.random.SeedSequence(entropy=int(master_seed),
                                    spawn_key=(n, int(replicate_id), tag))
        return np.random.Generator(np.random.Philox(ss)).standard_normal(n)

    ss_rec = np.random.SeedSequence(entropy=int(master_seed),
                                    spawn_key=(n, int(replicate_id)))
    seed = int(ss_rec.generate_state(1, dtype=np.uint64)[0])
    return CoefficientDraw(master_seed=int(master_seed), n=n,
                           replicate_id=int(replicate_id),
                           a=stream(0), b=stream(1), seed=seed)


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


def hermite_rows(funcs, dfuncs, h, x, want_deriv=False):
    """Evaluate every row of (funcs, dfuncs) samples at the points x
    with the cubic Hermite rule.  Returns (vals, derivs or None) of
    shape (rows, len(x))."""
    idx, wv, wd = _hermite_weights(x, h, funcs.shape[1] - 1)
    f0 = funcs[:, idx]
    f1 = funcs[:, idx + 1]
    g0 = dfuncs[:, idx]
    g1 = dfuncs[:, idx + 1]
    vals = wv[0] * f0 + wv[1] * g0 + wv[2] * f1 + wv[3] * g1
    if not want_deriv:
        return vals, None
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
    1).  A pointwise factor g (None for 1) enters by the product rule
    with its derivative dfactor.  Kinds with uses_b False read a only.
    """

    ra: np.ndarray
    rb: np.ndarray
    da: np.ndarray = None
    db: np.ndarray = None
    freq: np.ndarray = None
    dphase: np.ndarray = None
    factor: np.ndarray = None
    dfactor: np.ndarray = None
    uses_b: bool = True


def _trig_rows(freq, phase, **fields):
    ph = freq[:, None] * phase[None, :]
    return ProcessRows(np.cos(ph), np.sin(ph), freq=freq, **fields)


def process_rows(kind, n, x=None, weight=None, basis_pair=None, grid=None,
                 deriv=True):
    """The table of process kinds: `kind` at the points x as rows.

    x=None means the points of `grid`; there the eigenfunction kinds
    take their stored samples as rows, elsewhere they interpolate them
    with the cubic Hermite rule.  Without deriv the slope rows and the
    factor's derivative are left out.  Preconditions are build_process's.
    """
    on_grid = x is None
    if on_grid:
        x = grid.points
    k = np.arange(1, n + 1, dtype=float)
    if kind in ("F_n", "f_n"):
        bc_c, bc_d = basis_pair
        if on_grid:
            rows = ProcessRows(bc_c.funcs[:n], bc_d.funcs[:n],
                               bc_c.dfuncs[:n], bc_d.dfuncs[:n])
        else:
            h = bc_c.grid.h
            ra, da = hermite_rows(bc_c.funcs[:n], bc_c.dfuncs[:n], h, x, deriv)
            rb, db = hermite_rows(bc_d.funcs[:n], bc_d.dfuncs[:n], h, x, deriv)
            rows = ProcessRows(ra, rb, da, db)
        if kind == "F_n":
            return rows
        root = np.sqrt(np.asarray(weight.eval(x), dtype=float))
        dfactor = (0.5 * np.asarray(weight.deriv1(x), dtype=float) / root
                   if deriv else None)
        return replace(rows, factor=root, dfactor=dfactor)
    if kind in ("X_n", "X_n_raw"):
        om = np.asarray(weight.eval(x), dtype=float)
        rows = _trig_rows(0.5 * k, omega_map(weight, grid).forward(x),
                          dphase=om)
        if kind == "X_n":
            return rows
        root = np.sqrt(om)
        dfactor = (-0.5 * np.asarray(weight.deriv1(x), dtype=float)
                   / (om * root) if deriv else None)
        return replace(rows, factor=1.0 / root, dfactor=dfactor)
    if kind == "T_n":
        return _trig_rows(k, x)
    if kind == "C_n":
        return _trig_rows(k, x, uses_b=False)
    if kind == "perturbed":
        # cos(kx) + eps_k(x) and sin(kx) + eta_k(x) for the fixed family
        # eps_k = sin((k+1)x)/(2k), eta_k = cos((k+1)x)/(2k): the rows of
        # frequencies 1..n+1 once, rows 2..n+1 reused for eps_k and eta_k
        kc = k[:, None]
        ph = np.arange(1, n + 2, dtype=float)[:, None] * x[None, :]
        cos_all, sin_all = np.cos(ph), np.sin(ph)
        del ph
        c, s, c1, s1 = cos_all[:n], sin_all[:n], cos_all[1:], sin_all[1:]
        da = db = None
        if deriv:
            db = kc * c
            db += -(kc + 1) * s1 / (2.0 * kc)
            da = (-kc) * s
            da += (kc + 1) * c1 / (2.0 * kc)
        ra = c + s1 / (2.0 * kc)
        s += c1 / (2.0 * kc)  # in place only after ra: s and s1 share rows
        return ProcessRows(ra, s, da, db)
    raise DomainError("unknown process kind %r (choose from %s)"
                      % (kind, ", ".join(KINDS)))


def combine(rows, A, B, deriv=True):
    """(values, slopes or None) at the rows' points of the draws whose
    scaled coefficients are A and B: one draw per row of A and B, or
    one draw as two vectors."""
    if not rows.uses_b:
        B = np.zeros_like(B)
    vals = A @ rows.ra + B @ rows.rb
    ders = None
    if deriv:
        if rows.da is not None:
            ders = A @ rows.da + B @ rows.db
        else:
            ders = (B * rows.freq) @ rows.ra - (A * rows.freq) @ rows.rb
            if rows.dphase is not None:
                ders *= rows.dphase
    if rows.factor is not None:
        if deriv:
            ders = rows.dfactor * vals + rows.factor * ders
        vals = rows.factor * vals
    return vals, ders


class _RowsProcess:
    """value/deriv of one draw, scaled by 1/sqrt(n) into (_a, _b), from
    the rows that self.rows(x, deriv) gives."""

    def __init__(self, draw, n):
        self.draw = draw
        self.n = n
        root = 1.0 / math.sqrt(n)
        self._a = draw.a * root
        self._b = draw.b * root

    def value(self, x):
        return self._eval(x, False)

    def deriv(self, x):
        return self._eval(x, True)

    def samples(self, x):
        """(values, slopes) at the points x, from one combine call."""
        return combine(self.rows(np.atleast_1d(np.asarray(x, dtype=float))),
                       self._a, self._b)

    def _eval(self, x, deriv):
        xs = np.asarray(x, dtype=float)
        vals, ders = combine(self.rows(np.atleast_1d(xs), deriv),
                             self._a, self._b, deriv)
        out = ders if deriv else vals
        return float(out[0]) if xs.ndim == 0 else out


class _HalfFreqPoly(_RowsProcess):
    """Stationary pullback: (1/sqrt n) sum a_k cos(k y/2) + b_k sin(k y/2)."""

    def rows(self, y, deriv=True):
        return _trig_rows(0.5 * np.arange(1, self.n + 1), y)


class RandomProcess(_RowsProcess):
    """One evaluable Gaussian random function bound to a draw.

    Use build_process() to construct; value(x) and deriv(x) are
    vectorized and deterministic given the fields.
    """

    def __init__(self, kind, n, draw, weight=None, basis=None, grid=None):
        super().__init__(draw, n)
        self.kind = kind
        self.weight = weight
        self.basis = basis
        self.grid = grid if grid is not None else default_grid()

    def rows(self, x, deriv=True):
        """This process at the points x as rows (see process_rows)."""
        return process_rows(self.kind, self.n, x, weight=self.weight,
                            basis_pair=self.basis, grid=self.grid,
                            deriv=deriv)

    def omega(self, x):
        """Omega(x) for the kinds built on the change of variables."""
        return omega_map(self.weight, self.grid).forward(x)

    def stationary_pullback(self):
        """The half-frequency polynomial this process reduces to in
        the variable y = Omega(x) (shares the coefficient draw)."""
        if self.kind not in ("X_n", "X_n_raw"):
            raise DomainError("stationary_pullback needs an X-kind process, "
                              "got %r" % (self.kind,))
        return _HalfFreqPoly(self.draw, self.n)


def build_process(kind, n, draw, weight=None, basis_pair=None, grid=None):
    """Construct a RandomProcess, checking the preconditions of the
    requested kind."""
    if kind not in KINDS:
        raise DomainError("unknown process kind %r (choose from %s)"
                          % (kind, ", ".join(KINDS)))
    if draw.n != n:
        raise PreconditionError("draw has n=%d but the process wants n=%d"
                                % (draw.n, n))
    basis = None
    if kind in ("F_n", "f_n"):
        if basis_pair is None:
            raise PreconditionError("kind %r needs the (C, D) eigenbasis pair" % kind)
        bc_c, bc_d = basis_pair
        if bc_c.bc.value != "C" or bc_d.bc.value != "D":
            raise PreconditionError("basis_pair must be ordered (C family, D family)")
        if bc_c.k_max < n or bc_d.k_max < n:
            raise PreconditionError(
                "eigenbasis too small: need %d pairs, have (%d, %d)"
                % (n, bc_c.k_max, bc_d.k_max))
        if bc_c.grid.count != bc_d.grid.count:
            raise PreconditionError("the two family bases use different grids")
        weight = weight if weight is not None else bc_c.weight
        basis = (bc_c, bc_d)
        grid = bc_c.grid
    if kind in ("X_n", "X_n_raw", "f_n") and weight is None:
        raise PreconditionError("kind %r needs a weight" % kind)
    return RandomProcess(kind, n, draw, weight=weight, basis=basis, grid=grid)


def _expect_kind(proc, kind):
    if proc.kind != kind:
        raise PreconditionError("expected a %s process, got %r" % (kind, proc.kind))


def eval_epsilon(proc_f, proc_X, x):
    """eps_n(x) = f_n(x) - X_n(x) for processes sharing one draw."""
    _expect_kind(proc_f, "f_n")
    _expect_kind(proc_X, "X_n")
    if not proc_f.draw.same_draw(proc_X.draw):
        raise PreconditionError("eval_epsilon needs processes with a shared draw")
    return proc_f.value(x) - proc_X.value(x)


def eval_epsilon_sup(proc_f, proc_X):
    """sup of |eps_n| over the storage grid."""
    x = proc_f.grid.points
    return float(np.max(np.abs(eval_epsilon(proc_f, proc_X, x))))
