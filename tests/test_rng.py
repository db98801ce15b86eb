"""Stream identity, reproducibility, and sampler support checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidisc_lab.domains import alpha_from_a
from bidisc_lab.groups import su11_orbit_invariant
from bidisc_lab.maps import map_H
from bidisc_lab.mobius import pseudo_hyperbolic
from bidisc_lab.rng import (
    RowErrors,
    _batch,
    _FirstRaises,
    _row_max,
    ball_from_uniforms,
    disc_from_uniforms,
    uniform_block,
)

# Frozen at first build: PCG64 seeded with SeedSequence([42, 0]).  The
# generator is documented as portable, so this value must never drift.
GOLDEN_FIRST_UNIFORM = 0.7739560485559633


def _row(seed, stream, k):
    return uniform_block(seed, stream, k, 0, 1)[0]


def test_golden_first_draw():
    assert _row(42, 0, 1)[0] == GOLDEN_FIRST_UNIFORM


def test_same_stream_reproduces():
    np.testing.assert_array_equal(_row(42, 5, 10), _row(42, 5, 10))


def test_distinct_streams_differ():
    assert not np.array_equal(_row(42, 1, 4), _row(42, 2, 4))


def test_distinct_seeds_differ():
    assert not np.array_equal(_row(1, 0, 4), _row(2, 0, 4))


@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1))
def test_any_stream_is_reproducible(seed: int, stream: int):
    assert _row(seed, stream, 1)[0] == _row(seed, stream, 1)[0]


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
def test_stream_ids_must_be_uint64(seed, stream):
    with pytest.raises(ValueError):
        uniform_block(seed, stream, 1, 0, 1)


def test_a_block_row_is_the_stream_jumped_to_that_row():
    block = uniform_block(42, 7, 5, 0, 20)
    np.testing.assert_array_equal(uniform_block(42, 7, 5, 13, 20), block[13:])
    np.testing.assert_array_equal(uniform_block(42, 7, 1, 0, 100).reshape(20, 5), block)


def test_disc_sampler_respects_radius():
    u = uniform_block(42, 0, 2, 0, 500)
    assert np.abs(disc_from_uniforms(u[:, 0], u[:, 1], 0.3)).max() < 0.3


def test_bidisc_and_ball_samplers():
    u = uniform_block(42, 0, 4, 0, 200)
    z, w = disc_from_uniforms(u[:, 0], u[:, 1], 0.95), disc_from_uniforms(u[:, 2], u[:, 3], 0.95)
    assert np.abs(z).max() < 0.95 and np.abs(w).max() < 0.95
    a, b = ball_from_uniforms(u, 0.95)
    assert (np.abs(a) ** 2 + np.abs(b) ** 2).max() < 0.95**2


def test_inverse_transform_disc_is_area_uniform():
    u = np.random.default_rng(0).random((2, 100_000))
    z = disc_from_uniforms(u[0], u[1], 0.3)
    assert np.abs(z).max() < 0.3
    # area-uniform: |z|^2 / rmax^2 is uniform on [0, 1), mean 1/2, and the angle is uniform
    assert np.mean(np.abs(z) ** 2) / 0.09 == pytest.approx(0.5, abs=0.005)
    assert abs(np.mean(z)) < 0.003


def test_inverse_transform_ball_is_volume_uniform():
    a, b = ball_from_uniforms(np.random.default_rng(1).random((100_000, 4)), 0.5)
    r2 = (np.abs(a) ** 2 + np.abs(b) ** 2) / 0.25
    # volume-uniform in R^4: (|p| / rmax)^4 is uniform on [0, 1); on each sphere |a|^2 / |p|^2 is too
    assert np.mean(r2 * r2) == pytest.approx(0.5, abs=0.005)
    assert np.mean(np.abs(a) ** 2 / 0.25 / r2) == pytest.approx(0.5, abs=0.005)
    assert abs(np.mean(a)) < 0.003 and abs(np.mean(b)) < 0.003


@pytest.mark.parametrize("rmax", [0.0, 1.0, 1.5, -0.2])
def test_bad_radius_rejected(rmax):
    with pytest.raises(ValueError):
        disc_from_uniforms(0.5, 0.5, rmax)
    with pytest.raises(ValueError):
        ball_from_uniforms(np.full(4, 0.5), rmax)


def test_row_errors_never_flagged_is_all_ok_without_messages():
    rows = RowErrors(5)
    rows.flag(np.zeros(5, dtype=bool), "unused")
    rows.flag(np.zeros(5, dtype=bool), lambda r: pytest.fail("no row failed, so no message is built"))
    assert rows._message is None  # no row failed: no message array yet
    assert rows.ok.tolist() == [True] * 5
    assert [rows.message[r] for r in range(5)] == [None] * 5


def test_row_errors_keep_each_rows_first_message():
    rows = RowErrors(4)
    rows.flag(np.array([False, True, False, False]), "first")
    rows.flag(np.array([False, True, True, False]), "second")
    rows.flag(np.array([True, True, True, False]), lambda r: f"third at {r}")
    assert rows.ok.tolist() == [False, False, False, True]
    assert rows.message.tolist() == ["third at 0", "first", "second", None]


def test_row_errors_build_a_callable_message_only_for_newly_failed_rows():
    rows = RowErrors(6)
    asked = []

    def message(r):
        asked.append(r)
        return f"row {r}"

    rows.flag(np.array([False, True, False, True, False, False]), message)
    rows.flag(np.array([True, True, False, True, False, True]), message)
    rows.flag(np.array([True, False, False, False, False, True]), message)  # nothing new
    assert asked == [1, 3, 0, 5]
    assert rows.message.tolist() == ["row 0", "row 1", None, "row 3", None, "row 5"]


def test_first_raises_raises_the_first_bad_rows_text():
    rows = _FirstRaises(4)
    rows.flag(np.zeros(4, dtype=bool), lambda r: pytest.fail("no row failed"))
    asked = []

    def message(r):
        asked.append(r)
        return f"row {r} is bad"

    with pytest.raises(ValueError, match="^row 2 is bad$"):
        rows.flag(np.array([False, False, True, True]), message)
    assert asked == [2]
    with pytest.raises(ValueError, match="^plain text$"):
        rows.flag(np.array([False, True, False, True]), "plain text")
    assert rows.ok.all()


def test_first_raises_keeps_no_row_flags():
    """Its ok is a read-only all-True view: no row fails without raising."""
    ok = _FirstRaises(5).ok
    assert ok.shape == (5,) and ok.dtype == bool and ok.all() and not ok.flags.writeable


def test_a_copy_of_row_errors_carries_the_messages_and_fails_apart():
    rows = RowErrors(4)
    rows.flag(np.array([False, True, False, False]), "first")
    copied = rows.copy()
    assert type(copied) is RowErrors
    assert copied.ok.tolist() == [True, False, True, True]
    assert copied.message.tolist() == [None, "first", None, None]
    copied.flag(np.array([True, True, False, False]), "second")
    assert copied.ok.tolist() == [False, False, True, True]
    assert copied.message.tolist() == ["second", "first", None, None]
    assert rows.ok.tolist() == [True, False, True, True]
    assert rows.message.tolist() == [None, "first", None, None]
    fresh = RowErrors(3).copy()  # no message array yet: the copy builds its own on first failure
    fresh.flag(np.array([False, False, True]), "third")
    assert fresh.message.tolist() == [None, None, "third"]


def test_batch_returns_ready_rows_as_they_are():
    """1-d arrays of the requested dtype and of one shape are the batch itself: no conversion, no view."""
    z, w = np.array([0.1 + 0.2j, 0.3j]), np.array([0.5 + 0j, -0.25 + 0.5j])
    (z2, w2), rows, single = _batch(None, z, w)
    assert z2 is z and w2 is w and not single and len(rows.ok) == 2
    x = np.array([0.25, 0.5, 0.75])
    (x2,), rows, single = _batch(RowErrors(3), x, dtype=float)
    assert x2 is x and not single


@pytest.mark.parametrize(
    "values, dtype, want, single",
    [
        ((0.5,), complex, [[0.5 + 0j]], True),  # a point is the batch of one
        ((np.float64(0.5), 0.25j), complex, [[0.5 + 0j], [0.25j]], True),
        ((np.array([0.5, 0.25]), np.array([0.25j, 0j])), complex, [[0.5 + 0j, 0.25 + 0j], [0.25j, 0j]], False),
        ((np.array([0.5j, 0.25j]), 0.1), complex, [[0.5j, 0.25j], [0.1 + 0j, 0.1 + 0j]], False),  # a broadcast
        ((np.array([0.5j]), np.array([1j, 2j])), complex, [[0.5j, 0.5j], [1j, 2j]], False),
        (([0.5, 0.25],), complex, [[0.5 + 0j, 0.25 + 0j]], False),  # a list
        ((np.array([1, 2]),), float, [[1.0, 2.0]], False),  # integers, asked for floats
    ],
)
def test_batch_converts_any_other_values_into_rows(values, dtype, want, single):
    arrays, rows, got_single = _batch(None, *values, dtype=dtype)
    assert got_single == single
    assert [a.tolist() for a in arrays] == want
    assert all(a.dtype == dtype and a.shape == (len(want[0]),) for a in arrays) and len(rows.ok) == len(want[0])
    assert not any(a is v for a, v in zip(arrays, values))


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 3)])
def test_row_max_is_numpys_reduction_bit_for_bit(shape):
    """Every row of a few entries drawn from signed zeros, NaN, +-inf and finite values, plus random rows.

    A zero maximum is compared by value: on a row mixing 0.0 and -0.0,
    numpy's reduction returns either zero, by the loop it dispatches.
    """
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1.5, 5e-324]
    m = int(np.prod(shape))
    rows = np.array(list(itertools.product(special, repeat=min(m, 3))))
    if m > 3:  # the last columns from a random row's entries
        fill = np.random.default_rng(7).choice(special, size=(len(rows), m - 3))
        rows = np.concatenate([fill, rows], axis=1)
    rows = np.concatenate([rows, uniform_block(5, 0, m, 0, 300) - 0.5])
    a = rows.reshape((len(rows),) + shape)
    axes = tuple(range(1, a.ndim))
    got, want = _row_max(a), a.max(axis=axes)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(a),)
    zero = want == 0.0
    assert zero.any() and (got[zero] == 0.0).all()
    np.testing.assert_array_equal(got[~zero].view(np.uint64), want[~zero].view(np.uint64))
    np.testing.assert_array_equal(_row_max(a > 0.0), (a > 0.0).any(axis=axes))


_GRID = np.full((2, 3), 0.3 + 0.1j)  # 2-d: would be flattened to 6 rows
_COLUMN = np.full(2, -0.2j)


@pytest.mark.parametrize(
    "fn, args",
    [
        (pseudo_hyperbolic, (_GRID, _GRID.conj())),
        (pseudo_hyperbolic, (_COLUMN, _GRID)),  # broadcasting does not rescue a 2-d value
        (map_H, (_GRID, _GRID.conj())),
        (alpha_from_a, (_GRID.real,)),
        (su11_orbit_invariant, (_GRID, _GRID.conj())),
    ],
    ids=["pseudo_hyperbolic", "pseudo_hyperbolic-broadcast", "map_H", "alpha_from_a", "su11_orbit_invariant"],
)
def test_a_batch_value_with_more_than_one_axis_is_rejected(fn, args):
    """A batch is 1-d arrays, one entry per row: a 2-d value names the shapes instead of being silently flattened."""
    with pytest.raises(ValueError, match=r"1-d arrays with one entry per row, got shapes .*\(2, 3\)"):
        fn(*args)
