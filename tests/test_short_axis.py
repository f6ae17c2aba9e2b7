"""The kernels that analysis and covering write elementwise on columns keep
the bits of their short-axis reduction forms (oracles.KERNEL_REFS): on
random rows whose magnitudes span 1e-150 to 1e150, on rows of signed
zeros, and on the states of a recorded engine run."""

import numpy as np
import pytest

from twowell import analysis as an
from twowell import covering as cv
from twowell import engine as en
from twowell import inapprox as ia

import oracles

DELTA = 0.5
N = 4000


def _wide(rng, *shape):
    """Random signs and magnitudes log-uniform in [1e-150, 1e150], about 5%
    of the entries +0 or -0."""
    x = rng.choice([-1.0, 1.0], size=shape) \
        * 10.0 ** rng.uniform(-150.0, 150.0, size=shape)
    zero = rng.random(shape) < 0.05
    x[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return x


def _zeros(rng, *shape):
    """Mostly +0 and -0, with some +-1 and +-the smallest subnormal, so
    whole rows of signed zeros occur."""
    return rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324],
                      size=shape)


@pytest.fixture(params=["wide", "zeros"])
def draw(request):
    gen = {"wide": _wide, "zeros": _zeros}[request.param]
    rng = np.random.default_rng(7)
    return lambda *shape: gen(rng, *shape)


def _owners(rng, n, m):
    """m owner ids in [-1, n), about a quarter -1."""
    return np.where(rng.random(m) < 0.25, -1,
                    rng.integers(0, n, size=m)).astype(np.intp)


def _assert_bits(got, want):
    got = got if isinstance(got, (tuple, list)) else (got,)
    want = want if isinstance(want, (tuple, list)) else (want,)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _cells(draw, rng, n, r, offs=True):
    return an.CellFields(draw(r, 2, 2), rng.integers(0, r, size=n),
                         draw(r), draw(n, 2) if offs else None)


class TestRandomRows:
    def test_tri_perimeters(self, draw):
        verts = draw(N, 3, 2)
        _assert_bits(cv.tri_perimeters(verts),
                     oracles.tri_perimeters_ref(verts))

    @pytest.mark.parametrize("table", [True, False])
    def test_grad_jump_terms(self, draw, table):
        rng = np.random.default_rng(1)
        grads, dt = draw(N, 2, 2), draw(N)
        gid = rng.integers(0, N, size=N) if table else None
        lo, ro = _owners(rng, N, N), _owners(rng, N, N)
        _assert_bits(an.grad_jump_terms(grads, lo, ro, dt, gid=gid),
                     oracles.grad_jump_terms_ref(grads, lo, ro, dt, gid=gid))

    def test_continuity_terms(self, draw):
        rng = np.random.default_rng(2)
        cells = _cells(draw, rng, N, 50)
        lo, ro = _owners(rng, N, N), _owners(rng, N, N)
        p_lo, p_hi = draw(N, 2), draw(N, 2)
        args = (cells.grads, cells.offs, lo, ro, p_lo, p_hi)
        _assert_bits(an.continuity_terms(*args, gid=cells.gid),
                     oracles.continuity_terms_ref(*args, gid=cells.gid))

    def test_trace_terms(self, draw):
        # intervals on the sides of the unit square (a coordinate 0 drawn
        # with either sign), and a third of them off it
        rng = np.random.default_rng(3)
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        hull = np.stack([sq, np.roll(sq, -1, axis=0)], axis=1)
        side = hull[rng.integers(0, 4, size=N)]
        t = rng.choice([0.0, 0.25, 0.5, 1.0], size=(2, N, 1))
        pts = [side[:, 0] + ti * (side[:, 1] - side[:, 0]) for ti in t]
        for p in pts:
            p[p == 0.0] = rng.choice([0.0, -0.0], size=int((p == 0).sum()))
            off = rng.random(N) < 1 / 3
            p[off] = draw(int(off.sum()), 2)
        cells = _cells(draw, rng, N, 50)
        lo, ro = _owners(rng, N, N), _owners(rng, N, N)
        args = (cells.grads, cells.offs, draw(2, 2), hull, lo, ro, *pts,
                np.abs(draw(N)), 1.0)
        got = an.trace_terms(*args, gid=cells.gid)
        assert np.count_nonzero(got[0]) and np.count_nonzero(got[1])
        _assert_bits(got, oracles.trace_terms_ref(*args, gid=cells.gid))

    def test_edge_chunk(self, draw):
        verts = draw(N, 3, 2)
        frame = an._frame(verts)
        eid = np.arange(3 * N)
        _assert_bits(an._edge_chunk(verts, frame, eid),
                     oracles.edge_chunk_ref(verts, frame, eid))

    def test_pair_twins(self, draw):
        # groups of 10 cells and a table of 13 pairs of their edges; about
        # half the pairs get their endpoints shared (reversed, a zero with
        # the other sign), the others keep random ones
        rng = np.random.default_rng(4)
        groups, P = N // 10, 10
        table = np.stack([rng.integers(0, P, 13), rng.integers(0, 3, 13),
                          rng.integers(0, P, 13), rng.integers(0, 3, 13)],
                         axis=1)
        verts = draw(groups * P, 3, 2)
        flat = verts.reshape(-1, 2)
        first = np.arange(0, groups * P, P)
        for i, j, k, l in table:
            on = first[rng.random(groups) < 0.5]
            e, f = 3 * (on + i) + j, 3 * (on + k) + l
            e0, e1 = an._edge_ends(verts, e)
            v = 3 * (f // 3)
            flat[v + f % 3] = np.where(e1 == 0.0, -e1, e1)
            flat[v + (f % 3 + 1) % 3] = e0
        got = np.full((groups * P, 3), -1, dtype=np.int32)
        want = got.copy()
        an.pair_twins(got, verts, first, table)
        oracles.pair_twins_ref(want, verts, first, table)
        assert 0 < np.count_nonzero(got >= 0) < got.size
        _assert_bits(got, want)

    @pytest.mark.parametrize("offs", [True, False])
    def test_twin_terms(self, draw, offs):
        rng = np.random.default_rng(5)
        verts = draw(N, 3, 2)
        cells = _cells(draw, rng, N, 50, offs)
        twins = np.full(3 * N, -1, dtype=np.int32)
        e = rng.permutation(3 * N)[:2 * N]
        twins[e[0::2]], twins[e[1::2]] = e[1::2], e[0::2]
        twins = twins.reshape(N, 3)
        rows = np.concatenate([np.sort(rng.choice(N, N // 2, replace=False)),
                               np.arange(N)])
        for diam in (1.0, an._frame(verts)[1]):
            _assert_bits(an._twin_terms(verts, twins, cells, diam, rows),
                         oracles.twin_terms_ref(verts, twins, cells, diam,
                                                rows))


@pytest.fixture(scope="module")
def engine_runs():
    """Two runs of one engine config, full checks: the package's own, and
    one with every kernel replaced by its reference; per run the metric
    rows and every sweep_totals call's (verts, prev, totals, cells).  At
    this budget step 2 covers some pieces of a diamond and keeps their
    siblings, so twins dissolve."""
    cfg = en.EngineConfig(cell_budget=120_000, max_steps=2, checks="full")
    out = {}
    for name in ("package", "reference"):
        mp = pytest.MonkeyPatch()
        calls = []
        sweep_totals = an.sweep_totals

        def recorded(verts, prev, cells, twins):
            tot = sweep_totals(verts, prev, cells, twins)
            calls.append((verts, prev, tot, cells))
            return tot

        try:
            mp.setattr(an, "sweep_totals", recorded)
            if name == "reference":
                for (module, attr), ref in oracles.KERNEL_REFS.items():
                    mp.setattr(module, attr, ref)
            eng = en.Engine(en.unit_square_domain(),
                            ia.stage_representative(2, DELTA), DELTA, cfg)
            eng.run()
        finally:
            mp.undo()
        out[name] = (eng.metrics.rows, calls)
    return out


TOTALS = ("line", "overlap", "edge_hash", "twins", "twin_terms") \
    + an.TERM_COLUMNS


class TestRecordedRun:
    def test_run_keeps_its_bits(self, engine_runs):
        rows, calls = engine_runs["package"]
        ref_rows, ref_calls = engine_runs["reference"]
        assert len(rows) == len(ref_rows) == 3
        for row, ref in zip(rows, ref_rows):
            assert list(row) == list(ref)
            _assert_bits([row[k] for k in row], [ref[k] for k in ref])
        assert len(calls) == len(ref_calls) == 3
        for (verts, _, tot, _), (ref_verts, _, ref, _) in zip(calls,
                                                              ref_calls):
            _assert_bits(verts, ref_verts)
            _assert_bits([getattr(tot, k) for k in TOTALS],
                         [getattr(ref, k) for k in TOTALS])

    def test_lost_twins_are_evaluated_again(self, engine_runs):
        # a kept cell that lost a twin is evaluated again (the rows
        # sweep_totals selects with or-ed columns), so every cell's twin
        # terms are those of its current twins
        (_, _, last, _), (verts, prev, tot, cells) = \
            engine_runs["package"][1][1:]
        _, prev_index, n_kept = prev
        had = np.take(last.twins, prev_index[:n_kept], axis=0) >= 0
        assert np.count_nonzero(had & (tot.twins[:n_kept] < 0))
        _assert_bits(tot.twin_terms, oracles.twin_terms_ref(
            verts, tot.twins, cells, tot.frame[1], np.arange(verts.shape[0])))

    def test_kernels_on_the_last_state(self, engine_runs):
        verts, _, tot, cells = engine_runs["package"][1][-1]
        sw = an.sweep_intervals(verts, tot.frame)
        lo, ro = sw.left_owner, sw.right_owner
        _assert_bits(cv.tri_perimeters(verts),
                     oracles.tri_perimeters_ref(verts))
        _assert_bits(
            an.grad_jump_terms(cells.grads, lo, ro, sw.dt, gid=cells.gid),
            oracles.grad_jump_terms_ref(cells.grads, lo, ro, sw.dt,
                                        gid=cells.gid))
        args = (cells.grads, cells.offs, lo, ro, sw.point_lo, sw.point_hi)
        _assert_bits(an.continuity_terms(*args, gid=cells.gid),
                     oracles.continuity_terms_ref(*args, gid=cells.gid))
        args = (cells.grads, cells.offs, cells.M, cells.hull_segments, lo, ro,
                sw.point_lo, sw.point_hi, sw.dt, sw.frame[1])
        _assert_bits(an.trace_terms(*args, gid=cells.gid),
                     oracles.trace_terms_ref(*args, gid=cells.gid))
        eid = np.arange(3 * verts.shape[0])
        _assert_bits(an._edge_chunk(verts, tot.frame, eid),
                     oracles.edge_chunk_ref(verts, tot.frame, eid))
