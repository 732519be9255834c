import hashlib
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

import linksig.verify
from linksig.errors import ZeroLinkingError
from linksig.torus_rep import (
    angle_pair,
    h_invariant,
    lattice_strips,
    sigma_torus_closed,
    strip_h,
    strip_potential_sign,
)
from linksig.verify import (
    SENTINEL,
    check_mod4_congruence,
    region_grid,
    sweep_main_identity,
)


def test_sweep_hopf_links_all_zero():
    report = sweep_main_identity(1, 50, verbose=True)
    assert report.failed == 0
    assert report.skipped_on_roots == 0
    assert report.checked == 49 * 49
    assert all(rec["h"] == 0 and rec["sigma"] == [0, 0] for rec in report.points)


def test_sweep_report_json_schema_and_determinism():
    a = sweep_main_identity(3, 24).to_json()
    b = sweep_main_identity(3, 24).to_json()
    assert a == b
    assert list(a.keys()) == ["ell", "resolution", "checked", "failed", "skipped_on_roots"]
    assert a["ell"] == 3 and a["resolution"] == 24
    assert a["checked"] + a["skipped_on_roots"] == 23 * 23


def test_region_grid_values():
    grid = region_grid(2, 20)
    # row-major: values[p-1][q-1] for alpha = (p/20, q/20) * pi
    assert grid.values[9][9] == 1  # the center of the diamond
    assert grid.values[0][0] == 0  # the outer region
    assert grid.values[4][4] == SENTINEL  # p + q = 10 is the sum line pi/2
    assert grid.values[14][4] == SENTINEL  # p - q = 10 is the difference line
    neg = region_grid(-2, 20)
    assert neg.values[9][9] == -1
    grid3 = region_grid(3, 24)
    assert grid3.values[11][11] == 2  # innermost region of ell = 3
    assert grid3.values[2][2] == 0
    assert grid3.values[5][5] == 1  # middle band between the root lines


def test_region_grid_is_the_kernel_row_by_row():
    for ell, res in ((3, 2), (-4, 7), (5, 9)):
        expected = []
        for p in range(1, res):
            row = [lattice_strips(ell, p, q, res) for q in range(1, res)]
            expected.append([SENTINEL if ij is None else strip_h(ell, *ij) for ij in row])
        assert region_grid(ell, res).values == expected


def test_region_grid_holds_each_cell_once():
    # each row is built straight from the walk, so building the grid peaks
    # near what the grid holds, not at a flat list of its cells beside it
    region_grid(3, 8)
    tracemalloc.start()
    try:
        grid = region_grid(3, 201)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(row) for row in grid.values] == [200] * 200
    assert peak < 1.5 * held, (held, peak)


def test_every_grid_check_rejects_a_resolution_below_two():
    # one rule for every grid check: ell, then res an int, not a bool, >= 2
    for check in (sweep_main_identity, region_grid, check_mod4_congruence):
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            check(2, 1)
        for res in (2.5, True, "8", 8.0):
            with pytest.raises(TypeError, match=rf"^resolution {re.escape(repr(res))} is no int$"):
                check(3, res)
        with pytest.raises(TypeError, match="^ell '3' is no int$"):
            check("3", 8)
        with pytest.raises(ZeroLinkingError):
            check(0, 10)


def _lines_between(ell, res, s_low, s_high):
    """Count root-locus lines with s_low < res*m/|ell| < s_high."""
    big_l = abs(ell)
    hits = 0
    for m in range(1, 2 * big_l):
        if m == big_l:
            continue
        c = Fraction(res * m, big_l)
        if s_low < c < s_high:
            hits += 1
    return hits


def test_region_grid_locally_constant_and_unit_jumps():
    for ell, res in ((3, 60), (7, 60)):
        grid = region_grid(ell, res).values
        for i in range(res - 1):
            for j in range(res - 2):
                a, b = grid[i][j], grid[i][j + 1]
                if a == SENTINEL or b == SENTINEL:
                    continue
                # stepping q by one cell moves both the sum and the difference
                crossings = _lines_between(ell, res, (i + 1) + (j + 1), (i + 1) + (j + 2))
                crossings += _lines_between(
                    ell, res, (i + 1) - (j + 2) + res, (i + 1) - (j + 1) + res
                )
                if crossings == 0:
                    assert a == b
                elif crossings == 1:
                    assert abs(a - b) == 1


def test_region_jump_across_single_sentinel_line():
    # ell = 2, res = 20: crossing the single sum line p+q = 10 changes h by 1
    grid = region_grid(2, 20).values
    assert grid[4][4] == SENTINEL
    assert abs(grid[4][3] - grid[4][5]) == 1


def test_mod4_counts_a_flipped_potential_sign_as_a_failure(monkeypatch):
    # the opposite sign moves 2 + ell + sign by 2 mod 4: every point fails
    def flipped(ell, i):
        return -strip_potential_sign(ell, i)

    monkeypatch.setattr(linksig.verify, "strip_potential_sign", flipped)
    report = check_mod4_congruence(2, 8)
    assert report.checked > 0
    assert report.failed == report.checked
    assert report.failed != 0


def test_sweep_counts_pinned_at_res_120():
    # (checked, failed, skipped_on_roots) of criterion 1, recorded from the
    # Fraction-based sweep that the lattice kernel replaced
    pinned = {
        1: (14161, 0, 0),
        2: (13925, 0, 236),
        3: (13693, 0, 468),
        4: (13465, 0, 696),
        5: (13241, 0, 920),
        6: (13021, 0, 1140),
    }
    for big_l, counts in pinned.items():
        for ell in (big_l, -big_l):
            r = sweep_main_identity(ell, 120)
            assert (r.checked, r.failed, r.skipped_on_roots) == counts, ell


def test_mod4_reports_pinned_at_res_64():
    # (checked, failed, skipped_on_roots), recorded from the Fraction-based
    # sweep that the lattice kernel replaced
    pinned = {
        1: (3969, 0, 0),
        2: (3845, 0, 124),
        3: (3969, 0, 0),
        4: (3609, 0, 360),
        5: (3969, 0, 0),
        6: (3845, 0, 124),
        7: (3969, 0, 0),
        8: (3185, 0, 784),
        9: (3969, 0, 0),
        10: (3845, 0, 124),
    }
    for ell, counts in pinned.items():
        r = check_mod4_congruence(ell, 64)
        assert (r.checked, r.failed, r.skipped_on_roots) == counts


def test_verbose_sweep_records_match_scalar_queries():
    for ell, res in ((3, 24), (-4, 17)):
        report = sweep_main_identity(ell, res, verbose=True)
        assert len(report.points) == report.checked
        for rec in report.points:
            alpha = angle_pair(*rec["alpha"])
            assert rec["h"] == h_invariant(ell, alpha)
            assert rec["sigma"] == [
                sigma_torus_closed(ell, alpha),
                sigma_torus_closed(ell, alpha.flip_alpha2()),
            ]


def test_mod4_report_json_pinned():
    assert json.dumps(check_mod4_congruence(3, 24).to_json()) == (
        '{"ell": 3, "resolution": 24, "checked": 445, "failed": 0, '
        '"skipped_on_roots": 84}'
    )


def test_verbose_sweep_json_pinned():
    text = json.dumps(sweep_main_identity(3, 8, verbose=True).to_json())
    assert text.startswith(
        '{"ell": 3, "resolution": 8, "checked": 49, "failed": 0, "skipped_on_roots": 0, '
        '"points": [{"alpha": ["1/8", "1/8"], "h": 0, "sigma": [2, -2], "pass": true}, '
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c298c49e48baddf0049ac5889256c4631f3179ce9675969b18f8c35d92a558b5"
    )
