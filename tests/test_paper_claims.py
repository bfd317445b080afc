"""The abstract's two sign laws and their independence of large parts, on 50 x 300 power-weight grids.

The abstract says the terminal signs depend on which of 2, 3, 4, 5 are
excluded and on n mod r, and not on the excluded integers k > 4.  Each law is
checked on a base set and on three tails of it: one more atom, another atom,
and an infinite family.  The scope is sets where 2 or 3 is allowed: where both
are excluded, and on 2,4,5 with 8 excluded too, the tail parts are among the
leading parts and the observed pattern does change.
"""

import pytest

from eulerprod import default_predictions, exceptions_from_spec, stabilization, sweep, weight_from_spec

N_MAX, ELL_MAX = 50, 300

# base set -> (tails of it, terminal sign at n = 2 mod 3, largest observed threshold there)
LAWS = {
    # 3 and 4 allowed, 2 excluded
    "2": (("2,5", "2,7", "2 + multiples:5"), -1, 37),
    # 2 and 3 allowed, 4 excluded
    "4": (("4,5", "4,7", "4 + powers:5"), 1, 22),
}
FAMILIES = [(base, spec) for base, (tails, _, _) in LAWS.items() for spec in (base, *tails)]


@pytest.fixture(scope="module")
def grids():
    power = weight_from_spec("power")
    out = {}
    for _, spec in FAMILIES:
        grid = sweep(exceptions_from_spec(spec), power, N_MAX, ELL_MAX)
        out[spec] = grid, stabilization(grid, default_predictions(grid))
    return out


@pytest.mark.parametrize("base,spec", FAMILIES)
def test_sign_law_at_two_mod_three(grids, base, spec):
    _, want, onset = LAWS[base]
    _, rows = grids[spec]
    columns = [row for row in rows if row.n >= 5 and row.n % 3 == 2]
    assert len(columns) == 16
    for row in columns:
        assert row.stabilized and row.terminal_sign == want, row
        assert row.threshold <= onset, row


@pytest.mark.parametrize("base,spec", [(base, spec) for base, spec in FAMILIES if spec != base])
def test_tail_leaves_the_last_rows_unchanged(grids, base, spec):
    # every column 1..50, not only n = 2 mod 3
    base_grid, tail_grid = grids[base][0], grids[spec][0]
    assert tail_grid.signs[-2:] == base_grid.signs[-2:]


@pytest.mark.parametrize("base,spec", FAMILIES)
def test_no_stabilized_column_contradicts_a_decided_verdict(grids, base, spec):
    _, rows = grids[spec]
    decided = [row for row in rows if row.agrees is not None]
    assert len(decided) >= 48
    assert [row for row in decided if row.stabilized and not row.agrees] == []
