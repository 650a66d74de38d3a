import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su11
from su11 import (
    CCParameters,
    CoefficientSequence,
    DomainError,
    ExponentPair,
    ZeroSequenceError,
    proof_ledger,
    sequence_from_text,
    sequence_to_text,
)
from su11.extended import mp_product
from su11.inequality_harness import _TraceGrids
import su11.nft_core as nft_core
from su11.nft_core import (
    _factor, _fold_rows, _grid_phases, _phases, linear_fourier_on_grid,
    product_on_grid_arrays,
)
from su11 import verification
from su11.verification import (
    SuiteReport, frequency_support_suite, parseval_suite, random_window_sequence,
    reversed_order_product, su11_membership_suite,
)

from conftest import random_sequence_draw


def _at(seq, t):
    """(a(t), b(t)) at one point."""
    a, b = product_on_grid_arrays(seq, np.array([t]))
    return complex(a[0]), complex(b[0])

# ---------------------------------------------------------------------------
# factor coefficients (A_n, B_n)


def test_derive_zero_entry_gives_identity_factor():
    assert _factor(0j) == (1.0, 0j)


def test_derive_half():
    A, B = _factor(0.5 + 0j)
    assert A == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)
    assert B == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)


def test_unit_modulus_rejected():
    with pytest.raises(DomainError):
        CoefficientSequence(0, (1.0,))
    with pytest.raises(DomainError):
        CoefficientSequence(0, (1.0 - 1e-13,))  # inside the disk, past the guard


def test_derive_group_relation_within_8_ulp():
    rng = np.random.default_rng(7)
    for _ in range(50):
        seq = random_sequence_draw(rng)
        for v in seq.values:
            A, B = _factor(v)
            residual = A * A - abs(B) ** 2 - 1.0
            assert abs(residual) <= 8 * np.finfo(float).eps * max(1.0, A * A)


def _scalar_factor(v: complex) -> tuple[float, complex]:
    """The factor formula on one entry, with Python's complex ``abs``."""
    m = abs(v)
    A = 1.0 / math.sqrt((1.0 - m) * (1.0 + m))
    return A, v * A


_EDGE = 1.0 - 2e-12  # a modulus just inside the guard


@given(st.lists(st.complex_numbers(max_magnitude=_EDGE, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
@example([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
@example([0.5 + 0j, -0.25 + 0j, complex(0.7, -0.0), 0.3j, -0.6j, complex(-0.0, 0.45)])
@example([complex(_EDGE, 0.0), complex(0.0, -_EDGE),
          complex(_EDGE * math.cos(1.0), _EDGE * math.sin(1.0))])
def test_array_factor_is_the_scalar_formula_bitwise(values):
    """``_factor`` over an array gives, entry by entry and in any shape, the
    bits of the formula on the scalar entry with Python's complex ``abs``."""
    A_ref, B_ref = zip(*(_scalar_factor(v) for v in values))
    A_ref, B_ref = np.array(A_ref), np.array(B_ref, dtype=complex)
    vals = np.array(values, dtype=complex)
    for shape in ((-1,), (1, -1), (-1, 1)):
        A, B = _factor(vals.reshape(shape))
        assert A.shape == B.shape == vals.reshape(shape).shape
        assert np.array_equal(A.ravel().view(np.uint64), A_ref.view(np.uint64))
        assert np.array_equal(B.ravel().view(np.uint64), B_ref.view(np.uint64))


# ---------------------------------------------------------------------------
# product closed forms


def test_empty_product_is_identity():
    a, b = _at(CoefficientSequence(0, ()), 0.37)
    assert a == 1.0 and b == 0.0
    a, b = _at(CoefficientSequence(3, (0j, 0j)), 0.9)
    assert a == 1.0 and b == 0.0


def test_two_half_closed_form_t0(two_half):
    a, b = _at(two_half, 0.0)
    assert a == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert b == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert abs(a) ** 2 - abs(b) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_two_half_closed_form_thalf(two_half):
    a, b = _at(two_half, 0.5)
    assert a == pytest.approx(1.0, rel=1e-14)
    assert abs(b) < 1e-14
    # |a(1/2)| = 1: a zero of the weight function
    assert abs(a) == pytest.approx(1.0, abs=1e-14)


def test_two_half_closed_form_generic_t(two_half):
    # a(t) = A^2 + |B|^2 e^{-2 pi i t}, b(t) = A B (1 + e^{2 pi i t})
    for t in (0.1, 0.37, 0.73):
        a, b = _at(two_half, t)
        e = np.exp(2j * np.pi * t)
        assert a == pytest.approx(4 / 3 + (1 / 3) / e, rel=1e-13)
        assert b == pytest.approx((2 / 3) * (1 + e), rel=1e-13)


def test_grid_matches_scalar(two_half):
    rng = np.random.default_rng(5)
    for seq, grid in ((two_half, 8), (random_sequence_draw(rng), 64),
                      (random_sequence_draw(rng), 37)):
        a, b = product_on_grid_arrays(seq, np.arange(grid) / grid)
        assert a.shape == b.shape == (grid,)
        for j in range(grid):
            ref_a, ref_b = _at(seq, j / grid)
            assert a[j] == ref_a and b[j] == ref_b  # same kernel, bitwise


def test_grid_single_factor_constant():
    seq = CoefficientSequence(0, (0.5,))
    a, b = product_on_grid_arrays(seq, np.arange(8) / 8)
    assert a == pytest.approx(np.full(8, 2 / math.sqrt(3)), rel=1e-15)
    assert b == pytest.approx(np.full(8, 1 / math.sqrt(3)), rel=1e-15)


def test_grid_two_point(two_half):
    a, b = product_on_grid_arrays(two_half, np.array([0.0, 0.5]))
    assert a[0] == pytest.approx(5 / 3, rel=1e-14)
    assert a[1] == pytest.approx(1.0, rel=1e-14)
    assert abs(b[1]) < 1e-14


def test_grid_phases_gather_matches_exp_path_bytewise():
    """Rows gathered from the root-of-unity tables equal ``_phases`` on the
    same points byte for byte: full and odd-point levels, negative n,
    |n| up to 5000, grids 1 to 2**14.  A non-power-of-two grid takes
    ``_phases`` itself; past |n| * grid = 2**53 the gather stays exact, the
    row of ``n mod grid``."""
    rng = np.random.default_rng(11)
    ns = [0, 1, -1, 2, -3, 5000, -5000, *rng.integers(-5000, 5001, 12).tolist()]
    grids = [2**e for e in range(15)] + [12, 37]
    for grid in grids:
        for odd in (False, True):
            ts = (np.arange(1, grid, 2) if odd else np.arange(grid)) / grid
            for n in ns:
                assert _grid_phases(n, grid, odd).tobytes() == _phases(n, ts).tobytes()
    big = 2**45  # n * k / grid is no longer exact at grid 2**10
    assert _grid_phases(big + 1, 1024).tobytes() == _grid_phases(1, 1024).tobytes()
    entries = [(n, complex(*rng.normal(size=2))) for n in range(-7, 9)]
    for grid in (1, 64, 4096, 12):
        ts = np.arange(grid) / grid
        total = np.zeros(grid, dtype=complex)
        for n, v in entries:
            total += v * _phases(n, ts)
        assert linear_fourier_on_grid(entries, grid).tobytes() == total.tobytes()


# ---------------------------------------------------------------------------
# the fast kernel against the extended-precision oracle


_entries = st.lists(
    st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=12
)


def _sequence(offset, polar):
    return CoefficientSequence(offset, tuple(m * complex(math.cos(ph), math.sin(ph))
                                             for m, ph in polar))


@given(_entries, st.integers(-20, 20), st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_product_matches_mp_oracle(polar, offset, t):
    """Binary64 kernel vs the mpmath product at 30 digits, relative to |a|
    (the scale of both entries, since |b| < |a|)."""
    seq = _sequence(offset, polar)
    a, b = product_on_grid_arrays(seq, np.array([t]))
    a_mp, b_mp = (complex(x) for x in mp_product(seq, t))
    assert abs(a[0] - a_mp) <= 1e-12 * abs(a_mp)
    assert abs(b[0] - b_mp) <= 1e-12 * abs(a_mp)


@given(_entries, st.integers(-20, 20), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_reversal_conjugates_a_and_keeps_b(polar, offset, t):
    """Every factor M satisfies M = J M^T J for the antidiagonal flip J, so
    multiplying in decreasing n maps (a, b) to (conj(a), b)."""
    seq = _sequence(offset, polar)
    a, b = product_on_grid_arrays(seq, np.array([t]))
    a_rev, b_rev = reversed_order_product(seq, t)
    assert abs(a_rev - np.conj(a[0])) <= 1e-12 * abs(a[0])
    assert abs(b_rev - b[0]) <= 1e-12 * abs(a[0])


def _convergence_tests(node):
    """Comparisons that mention rel_tol and no literal operand (the
    validation ``rel_tol > 0`` is not a convergence test)."""
    found = []
    for cmp in ast.walk(node):
        if not isinstance(cmp, ast.Compare):
            continue
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(cmp)}
        operands = [cmp.left, *cmp.comparators]
        if "rel_tol" in names and not any(isinstance(o, ast.Constant) for o in operands):
            found.append(cmp)
    return found


def _calls_factor(node) -> bool:
    return isinstance(node, ast.Call) and "_factor" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_factor_kernel_and_one_phase_builder(monkeypatch):
    """The factor coefficients are computed in one place, called once by
    each of the two fold loops (no per-entry factor loop), and the phases
    e^{2 pi i n t} are built only by nft_core._phases (extended.py, the
    independent oracle, is exempt); the grid levels' root-of-unity tables
    are built through it too, and a power-of-two grid gathers from them at
    any index, past 2**53 too, so it never reaches the rounded
    ``float(n) * t``.  Only spectral_norms._refine tests
    convergence, and WeightSampler is the only sampler class.  The walk and
    the parseval blocks fold in one place (``spectral_norms._logsq_level``),
    and only spectral_norms takes a level's even points
    (``_refined_level``)."""
    built = []

    def spy(n, ts):
        built.append((n, ts.tobytes()))
        return _phases(n, ts)

    monkeypatch.setattr(nft_core, "_phases", spy)
    monkeypatch.delitem(nft_core._ROOTS, 32, raising=False)
    _grid_phases(5, 32)
    _grid_phases(-7, 32, True)
    _grid_phases(2**62 + 3, 32)
    _grid_phases(-2**61 - 1, 32, True)
    assert built == [(1, (np.arange(32) / 32).tobytes())]

    root = Path(su11.__file__).parent
    coeff, phase = "(1.0 - m) * (1.0 + m)", re.compile(r"np\.exp\(2j|cmath\.exp")
    coeff_count, stray = 0, []
    convergence, in_refine, samplers = 0, 0, []
    factor_calls, factor_sites, even_points, walk_folds = 0, [], [], {}
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        even_points += [path.name for node in ast.walk(tree) if isinstance(node, ast.Slice)
                        and isinstance(node.step, ast.Constant) and node.step.value == 2
                        and (node.lower is None or getattr(node.lower, "value", None) == 0)]
        if path.name in ("extremizer_search.py", "spectral_norms.py"):
            walk_folds[path.name] = sum(isinstance(node, ast.Call)
                                        and getattr(node.func, "id", None) == "_fold_rows"
                                        for node in ast.walk(tree))
        convergence += len(_convergence_tests(tree))
        samplers += [f"{path.name}:{cls.name}" for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef)
                     and any(isinstance(f, ast.FunctionDef) and f.name == "on_grid"
                             for f in cls.body)]
        if path.name == "spectral_norms.py":
            refine = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_refine")
            in_refine = len(_convergence_tests(refine))
        factor_calls += sum(map(_calls_factor, ast.walk(tree)))
        factor_sites += [(path.name, fn.name) for fn in ast.walk(tree)
                         if isinstance(fn, ast.FunctionDef)
                         for call in ast.walk(fn) if _calls_factor(call)]
        if path.name == "extended.py":
            continue
        coeff_count += text.count(coeff)
        allowed = range(0)
        if path.name == "nft_core.py":
            fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_phases")
            allowed = range(fn.lineno, fn.end_lineno + 1)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if phase.search(line) and lineno not in allowed:
                stray.append(f"{path.name}:{lineno}")
    assert coeff_count == 1
    assert factor_sites == [("nft_core.py", "_fold"), ("nft_core.py", "_fold_rows")]
    assert factor_calls == 2
    assert "ndenumerate" not in (root / "nft_core.py").read_text()
    assert stray == []
    assert in_refine >= 1 and convergence == in_refine
    assert samplers == ["spectral_norms.py:WeightSampler"]
    assert walk_folds == {"extremizer_search.py": 0, "spectral_norms.py": 1}
    assert even_points and set(even_points) == {"spectral_norms.py"}


def _functions(tree, prefix=""):
    """Every function of ``tree`` with its ``Class.name`` qualified name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield f"{prefix}{node.name}", node


def test_refine_norms_is_the_only_writer_of_a_samplers_norms():
    """``WeightSampler._norms`` is touched only where ``__init__`` makes it
    and where ``_memo`` hands out one memo of it; ``_memo`` is called
    only by ``norm``, which reads the memo and never writes it, and by
    ``spectral_norms._refine_norms``, the one writer."""
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"}
    touches, memo_calls, norm_writes = [], [], []
    for path in sorted(Path(su11.__file__).parent.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            where = f"{path.name}:{name}"
            nodes = list(ast.walk(fn))
            if any(isinstance(n, ast.Attribute) and n.attr == "_norms" for n in nodes):
                touches.append(where)
            if any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "_memo"
                   for n in nodes):
                memo_calls.append(where)
            if name == "WeightSampler.norm":
                norm_writes += [n for n in nodes if isinstance(n, ast.Subscript)
                                and isinstance(n.ctx, ast.Store)
                                or isinstance(n, ast.Call)
                                and getattr(n.func, "attr", None) in mutators]
    assert touches == ["spectral_norms.py:WeightSampler.__init__",
                       "spectral_norms.py:WeightSampler._memo"]
    assert memo_calls == ["spectral_norms.py:WeightSampler.norm",
                          "spectral_norms.py:_refine_norms"]
    assert norm_writes == []


def test_norm_result_holds_only_what_it_reports():
    """``NormResult``'s fields are exactly the keys of its ``to_dict``, and
    no module of the package reads an attribute named ``history``: the
    refinement steps live only in ``_refine``'s own record."""
    norm = su11.NormResult(1.0, 256, 0.0, True)
    assert [f.name for f in dataclasses.fields(norm)] == list(norm.to_dict())
    readers = [f"{path.name}:{node.lineno}"
               for path in sorted(Path(su11.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "history"]
    assert readers == []


def test_fold_rows_at_per_row_points_is_each_product_at_its_point():
    """Rows folded at their own scalar ``t`` (phases of shape (rows, 1)) give
    each row's |a| and |b| at one point bit for bit, zero rows and interior
    zeros included, and agree with the extended-precision product.  So does
    each row folded alone, a block of shape (1, 1), where a product written
    onto a one-element operand would round differently."""
    rng = np.random.default_rng(21)
    seqs = [random_window_sequence(rng, 12, 0.9) for _ in range(40)]
    seqs += [CoefficientSequence(-6, (0j,) * 12), CoefficientSequence(-2, (0.4, 0j, 0j, -0.3j)),
             CoefficientSequence(5, (0.8j,))]
    ts = rng.uniform(0.0, 1.0, len(seqs))
    rows = np.zeros((len(seqs), 12), dtype=complex)
    for r, seq in enumerate(seqs):
        rows[r, seq.offset + 6:seq.offset + 6 + len(seq.values)] = seq.values
    a, b = _fold_rows(rows, lambda k: _phases(k - 6, ts[:, None]), 1)
    assert a.shape == b.shape == (len(seqs), 1)
    for r, (seq, t) in enumerate(zip(seqs, ts)):
        a1, b1 = product_on_grid_arrays(seq, np.array([t]))
        assert np.abs(a[r]).tobytes() == np.abs(a1).tobytes()
        assert np.abs(b[r]).tobytes() == np.abs(b1).tobytes()
    for r, (seq, t) in enumerate(zip(seqs, ts)):  # one row at one point, shape (1, 1)
        a1, b1 = _fold_rows(rows[r:r + 1], lambda k: _phases(k - 6, ts[r:r + 1, None]), 1)
        assert a1.shape == (1, 1)
        assert np.abs(a1[0]).tobytes() == np.abs(a[r]).tobytes()
        assert np.abs(b1[0]).tobytes() == np.abs(b[r]).tobytes()
    for r in (0, 1, len(seqs) - 2, len(seqs) - 1):
        a_mp, b_mp = (complex(x) for x in mp_product(seqs[r], float(ts[r])))
        assert abs(a[r, 0] - a_mp) <= 1e-13 * abs(a_mp)
        assert abs(b[r, 0] - b_mp) <= 1e-13 * abs(a_mp)


def _membership_per_draw(n_draws: int, seed: int) -> SuiteReport:
    """The membership suite as one product per draw, at its one point."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport("su11-membership", seed)
    for _ in range(n_draws):
        seq = random_window_sequence(rng, 12, 0.9)
        t = float(rng.uniform(0.0, 1.0))
        a, b = product_on_grid_arrays(seq, np.array([t]))
        asq = abs(complex(a[0])) ** 2
        det_rel = abs(asq - abs(complex(b[0])) ** 2 - 1.0) / asq
        mod_a = math.sqrt(asq)
        rep.n_checked += 1
        rep.worst["det_rel"] = max(rep.worst.get("det_rel", det_rel), det_rel)
        rep.worst["abs_a_min"] = min(rep.worst.get("abs_a_min", mod_a), mod_a)
        if det_rel > 1e-10 or mod_a < 1.0 - 1e-12:
            rep.fail(F=seq.to_json_dict(), t=t, det_rel=det_rel, abs_a=mod_a)
    return rep


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_membership_batches_equal_one_product_per_draw(monkeypatch, chunk):
    """The suite's batch folds report what one product per draw reports,
    across chunk boundaries (the default chunk holds every draw here)."""
    if chunk is not None:
        monkeypatch.setattr(verification, "_DRAW_CHUNK", chunk)
    for seed, n_draws in ((1, 30), (20260808, 45), (90210, 23)):
        assert (su11_membership_suite(n_draws, seed).to_dict()
                == _membership_per_draw(n_draws, seed).to_dict())


@pytest.mark.parametrize("chunk", [1, 7])
def test_parseval_and_band_check_batches_keep_every_report(monkeypatch, chunk):
    """The parseval and band-check suites report the same bytes whatever
    their draw chunk; at one draw per chunk every parseval block and every
    band-check fold holds one row.  Seed 1391071104 takes the parseval
    re-check."""
    runs = ((1, 40), (90210, 40), (1391071104, 100))
    want = [(parseval_suite(n, seed).to_dict(), frequency_support_suite(n, seed).to_dict())
            for seed, n in runs]
    monkeypatch.setattr(verification, "_DRAW_CHUNK", chunk)
    assert want == [(parseval_suite(n, seed).to_dict(), frequency_support_suite(n, seed).to_dict())
                    for seed, n in runs]


# ---------------------------------------------------------------------------
# SU(1,1) membership and |a| >= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_su11_membership_random(seed):
    rng = np.random.default_rng(seed)
    seq = random_sequence_draw(rng)
    t = float(rng.uniform(0, 1))
    a, b = product_on_grid_arrays(seq, np.array([t]))
    asq = abs(complex(a[0])) ** 2
    assert abs(asq - abs(complex(b[0])) ** 2 - 1.0) <= 1e-10 * asq
    assert math.sqrt(asq) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# truncations: partial products and the ledger's reduced rows


def test_trace_single_entry():
    seq = CoefficientSequence(0, (0.5,))
    red, lin = _TraceGrids(seq).level(4)
    # row 0 is the empty truncation N = N_min - 1
    assert np.all(red[0] == 0.0) and np.all(lin[0] == 0.0)
    # reduced final: ra = 0, rb = b0 / A0 = F0, at every t
    assert red[1] == pytest.approx(np.full(4, 0.5), rel=1e-14)
    assert lin[1] == pytest.approx(np.full(4, 0.5), rel=1e-14)
    a, _ = product_on_grid_arrays(seq, np.arange(4) / 4)
    assert a == pytest.approx(np.full(4, 2 / math.sqrt(3)), rel=1e-14)


def test_trace_two_half(two_half):
    a, b = product_on_grid_arrays(two_half, np.array([0.0]))
    assert a[0] == pytest.approx(5 / 3, rel=1e-13)
    assert b[0] == pytest.approx(4 / 3, rel=1e-13)
    red, lin = _TraceGrids(two_half).level(2)
    # t = 0: (ra, rb) = (1/4, 1); t = 1/2: (ra, rb) = (-1/4, 0)
    assert red[2] == pytest.approx([1.25, 0.25], rel=1e-13)
    assert lin[2] == pytest.approx([1.0, 0.0], abs=1e-15)


def test_trace_requires_nonzero(quad):
    with pytest.raises(ZeroSequenceError):
        proof_ledger(CoefficientSequence(0, (0j,)), ExponentPair(1.5),
                     CCParameters(1, 1, 1), quad)


def test_trace_consistency_vs_matrix_oracle():
    """Independent oracle: accumulate plain 2x2 complex matrices and check,
    at every truncation N, the kernel's product of the truncated sequence
    and the ledger's reduced rows |ra| + |rb| (ra = a / prod(A) - 1,
    rb = b / prod(A)) and |sum_{n <= N} F_n e^{2 pi i n t}|, at 200 random
    (F, t) draws, t on the ledger's grid level of 1024 points."""
    rng = np.random.default_rng(20260808)
    for _ in range(200):
        seq = random_sequence_draw(rng, max_window=8)
        if seq.is_zero():
            continue
        j = int(float(rng.uniform(0, 1)) * 1024)
        t = j / 1024
        ts = np.array([t])
        red, lin = _TraceGrids(seq).level(1024)[:, :, j:j + 1]
        assert red[0, 0] == 0.0 and lin[0, 0] == 0.0

        entries = seq.window_entries()
        mat = np.eye(2, dtype=complex)
        prod_a = 1.0
        hat = 0j
        for k, (n, v) in enumerate(entries, start=1):
            A = 1.0 / math.sqrt(1.0 - abs(v) ** 2)
            B = v * A
            e = np.exp(2j * np.pi * n * t)
            mat = mat @ np.array([[A, B * e], [np.conj(B * e), A]])
            prod_a *= A
            hat += v * e
            truncated = CoefficientSequence(entries[0][0], tuple(w for _, w in entries[:k]))
            a_k, b_k = (x[0] for x in product_on_grid_arrays(truncated, ts))
            assert abs(a_k - mat[0, 0]) <= 1e-12 * abs(mat[0, 0])
            assert abs(b_k - mat[0, 1]) <= 1e-12 * max(abs(mat[0, 1]), 1.0)
            reduced = abs(mat[0, 0] / prod_a - 1.0) + abs(mat[0, 1] / prod_a)
            assert abs(red[k, 0] - reduced) <= 1e-10 * max(1.0, reduced)
            assert abs(lin[k, 0] - abs(hat)) <= 1e-12 * max(1.0, abs(hat))


# ---------------------------------------------------------------------------
# multiplication order


def test_order_sensitivity():
    """Order matters: an adjacent factor swap changes b, while the exact
    reversal symmetry maps (a, b) to (conj(a), b); the two-term closed form
    pins a's oscillation at frequency -1."""
    from su11.verification import (
        _adjacent_swap_product,
        order_sensitivity_suite,
        reversed_order_product,
    )

    rep = order_sensitivity_suite(seed=20260808)
    assert rep.passed, rep.failures
    assert rep.worst["b_swap_diff"] > 1e-3
    assert rep.worst["reversal_symmetry_err"] < 1e-12

    vals = (0.4, 0.3j, -0.2 + 0.1j)
    seq = CoefficientSequence(0, vals)
    t = 0.21
    fwd_a, fwd_b = _at(seq, t)
    a_rev, b_rev = reversed_order_product(seq, t)
    assert b_rev == pytest.approx(fwd_b, rel=1e-13)
    assert a_rev == pytest.approx(fwd_a.conjugate(), rel=1e-13)
    assert abs(_adjacent_swap_product(vals, t) - fwd_b) > 1e-3


# ---------------------------------------------------------------------------
# linear transform


def test_linear_fourier_constant():
    seq = CoefficientSequence(0, (0.5,))
    # the 10-point grid holds t = 0, 0.3 and 0.9
    assert linear_fourier_on_grid(seq.window_entries(), 10) == pytest.approx(np.full(10, 0.5))


def test_linear_fourier_cancellation(two_half):
    val = linear_fourier_on_grid(two_half.window_entries(), 2)[1]  # t = 1/2
    assert abs(val) < 1e-15


def test_linear_fourier_truncation_drops_tail(two_half):
    # the sum over n <= 0 only: the pairs are cut, not the grid
    head = two_half.window_entries()[:1]
    assert linear_fourier_on_grid(head, 10) == pytest.approx(np.full(10, 0.5))


# ---------------------------------------------------------------------------
# sequence bookkeeping and serialization


def test_support_ignores_padding_zeros():
    seq = CoefficientSequence(-2, (0j, 0.1, 0j, 0.2, 0j))
    assert seq.support() == (-1, 1)
    # interior zero is kept in the window walk
    assert [n for n, _ in seq.window_entries()] == [-1, 0, 1]


def test_text_round_trip():
    seq = CoefficientSequence(-3, (0.123456789012345 + 0.5j, -0.25, 0j))
    text = sequence_to_text(seq)
    back = sequence_from_text(text)
    assert back.offset == seq.offset
    assert back.values == seq.values  # exact decimal round-trip


def test_empty_text_rejected():
    with pytest.raises(ValueError, match="line 1"):
        sequence_from_text("")


def test_text_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        sequence_from_text("0.1 0.2\n")
    with pytest.raises(DomainError, match="line 3"):
        sequence_from_text("offset 0\n0.1 0.0\n0.99 0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        sequence_from_text("offset 0\nnot a number\n")


def test_json_round_trip():
    seq = CoefficientSequence(2, (0.1 - 0.2j, 0.3))
    blob = json.dumps(seq.to_json_dict())
    back = CoefficientSequence.from_json_dict(json.loads(blob))
    assert back == seq


@given(
    st.lists(
        st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=8,
    ),
    st.integers(-10, 10),
)
@settings(max_examples=80, deadline=None)
def test_serialization_round_trip_property(values, offset):
    seq = CoefficientSequence(offset, tuple(values))
    assert sequence_from_text(sequence_to_text(seq)) == seq
    assert CoefficientSequence.from_json_dict(seq.to_json_dict()) == seq
