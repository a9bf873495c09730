"""A prepared right operand, and leg tables kept across `Algebra.mul_into` calls.

A check groups the operand it multiplies by in every part once
(`Algebra.prepare`), and every product of an algebra shares its blocks' rows
(`Algebra._rows`), which a clash on one leg reads, and its leg tables
(`Algebra._tables`) for clashes on more legs.  A row names its denominator,
and each call maps that to its own part of its own accumulator, so sharing
changes no sum: products with a prepared operand and shared tables equal
the same products formed fresh, over differing scales, operand denominators
and parts, and with tables built to a low reach by one call and extended by
a later one.
"""

import gc
import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, fresh_algebra, random_table
from qtwist import build_context, preset
from qtwist.algebra import Algebra, TensorElement, _from_parts
from qtwist.verify import check_intertwine, check_qybe
from test_accumulate import _algebra, _grouped_tensor, _reaches, _row_reaches
from test_lead_split import ORDER, _tensor

ALGEBRAS = (
    "poincare-null-plane",
    "jordanian-borel",
    "shift-ring(3)",
    "rotated-null-plane twin",
    "4x4 rational",
)


def _named_algebra(name):
    """A new algebra, so that no earlier test has filled its tables."""
    if name == "4x4 rational":
        rng = random.Random("shared/4x4")
        return Algebra(4, 4, ORDER, random_table(rng, 4, 4, ORDER, max_terms=3, rational=True))
    if name == "rotated-null-plane twin":
        return fresh_algebra(_algebra(name))
    return fresh_algebra(cached_context(name, ORDER).algebra)


def _fresh(alg, a, b, scale, part):
    """``scale * a * b`` or its `part`, from an unprepared `b`, on a new copy of
    `alg` whose tables are its own."""
    own, acc = fresh_algebra(alg), {}
    own.mul_into(acc, a._on(own), b._on(own), scale, part)
    return _from_parts(alg, a.legs, acc)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_shared_tables_and_a_prepared_operand_match_fresh_products(name):
    """Each call adds its product to an empty accumulator and to a running one
    of its leg count; the calls mix 2 and 3 legs.  The first left operand of
    each leg count has terms at power ``ORDER - 1`` only, so its tables reach
    no further than power 1; a later one at power 0 extends them."""
    alg = _named_algebra(name)
    assert alg.order == ORDER
    rng = random.Random(f"shared/{name}")
    right = {legs: _grouped_tensor(rng, alg, legs, (0, 1)) for legs in (2, 3)}
    prepared = {legs: alg.prepare(b) for legs, b in right.items()}
    assert all(prepared[legs] == right[legs] for legs in right)
    calls = [(_grouped_tensor(rng, alg, legs, (ORDER - 1,)), Q(1, 3), None) for legs in (2, 3)]
    for legs in (3, 2):
        calls.append((_grouped_tensor(rng, alg, legs, (0,)), Q(-2, 5), "corr"))
        calls.append((_tensor(rng, alg, legs), 7, "lead"))
        calls.append((_tensor(rng, alg, legs), Q(5, 2), None))
        calls.append((_grouped_tensor(rng, alg, legs, (0, 1)), Q(-1, 6), "corr"))
    assert len({a.den for a, _, _ in calls} | {b.den for b in right.values()}) > 2
    running = {2: {}, 3: {}}
    assert not alg._tables
    wants = {legs: alg.tensor_zero(legs) for legs in (2, 3)}
    for i, (a, scale, part) in enumerate(calls):
        want = _fresh(alg, a, right[a.legs], scale, part)
        wants[a.legs] = wants[a.legs] + want
        alone = {}
        for acc in (alone, running[a.legs]):
            alg.mul_into(acc, a, prepared[a.legs], scale, part)
        assert _from_parts(alg, a.legs, alone) == want
        assert _from_parts(alg, a.legs, running[a.legs]) == wants[a.legs]
        if i == 1:
            reaches = _reaches(alg)
    # Some table was built short of the order and extended later.
    assert any(reach < ORDER for reach in reaches.values())
    later = _reaches(alg)
    assert any(later[key] > reach for key, reach in reaches.items())


def _instrument(monkeypatch, cold=False):
    """Record the operands `Algebra.prepare` groups, each `mul_into` call and
    each table or block's rows that `mul_into` builds or extends, as
    ``((legs, key), reach)`` or ``(("rows", field), reach)``; with `cold`,
    each product starts from empty tables and rows, as if they lived for one
    product."""
    seen = {"grouped": [], "calls": [], "log": []}
    prepare, mul_into = Algebra.prepare, Algebra.mul_into
    leg_table, leg_rows = Algebra._leg_table, Algebra._leg_rows

    def counted_prepare(self, b):
        seen["grouped"].append(b)
        return prepare(self, b)

    def logged_mul_into(self, acc, a, b, scale=1, part=None, order=None):
        seen["calls"].append((b, part))
        if cold:
            self._tables.clear()
            self._rows.clear()
        mul_into(self, acc, a, b, scale, part, order)

    def logged_leg_table(self, legs, clash, key, room):
        entry = leg_table(self, legs, clash, key, room)
        seen["log"].append(((legs, key), entry[0]))
        return entry

    def logged_leg_rows(self, field, room):
        old, entry = self._rows.get(field), leg_rows(self, field, room)
        if entry is not old:
            seen["log"].append((("rows", field), entry[0]))
        return entry

    monkeypatch.setattr(Algebra, "prepare", counted_prepare)
    monkeypatch.setattr(Algebra, "mul_into", logged_mul_into)
    monkeypatch.setattr(Algebra, "_leg_table", logged_leg_table)
    monkeypatch.setattr(Algebra, "_leg_rows", logged_leg_rows)
    return seen


def _all_reaches(alg):
    """The reaches of `_reaches` and of `_row_reaches`, keyed as `_instrument` logs them."""
    return _reaches(alg) | {("rows", field): reach for field, reach in _row_reaches(alg).items()}


def _builds(before, log):
    """The reaches after the logged builds, from the reaches `before` them;
    each build must make a table or rows that were missing or raise their reach."""
    built = dict(before)
    for path, reach in log:
        assert reach > built.get(path, -1)
        built[path] = reach
    return built


def test_qybe_groups_r23_once_and_builds_each_table_once_per_extension(monkeypatch):
    ctx = build_context(preset("poincare-null-plane").with_order(4))
    r = ctx.universal_r
    alg, r23 = r.algebra, r.embed(3, (1, 2))
    # The symmetry search is cached on the algebra for its lifetime.
    assert alg.symmetries
    keys, before = set(vars(alg)), _all_reaches(alg)
    seen = _instrument(monkeypatch)
    assert check_qybe(ctx).passed
    parts = sum(part == "lead" for _, part in seen["calls"])
    by_r23 = [part for b, part in seen["calls"] if b._groups is not None and b == r23]
    assert parts > 1 and by_r23.count("lead") == by_r23.count("corr") == parts
    assert sum(b == r23 for b in seen["grouped"]) == 1
    # Each build makes a table or rows or extends them.
    assert _builds(before, seen["log"]) == _all_reaches(alg)
    shared = len(seen["log"])
    # A second check builds only keys or fields not seen yet or extensions of
    # reach, and some are extended: building R left its rows whole as far as
    # qybe reads them, not as far as intertwining does.
    before, seen["log"] = _all_reaches(alg), []
    assert check_intertwine(ctx).passed
    assert _builds(before, seen["log"]) == _all_reaches(alg)
    assert any(path in before for path, _ in seen["log"])
    # Both checks again build nothing.
    seen["log"].clear()
    assert check_qybe(ctx).passed and check_intertwine(ctx).passed
    assert seen["log"] == []
    monkeypatch.undo()
    # Tables and rows made for each product instead build more, for the same report.
    seen = _instrument(monkeypatch, cold=True)
    assert check_qybe(ctx).passed
    assert len(seen["log"]) > shared
    monkeypatch.undo()
    del seen
    # Nothing prepared outlives the checks; the tables and rows stay on the algebra.
    assert check_qybe(ctx).passed and check_intertwine(ctx).passed
    gc.collect()
    assert set(vars(alg)) == keys and alg._tables and alg._rows
    assert r._groups is None
    assert not [el for el in gc.get_objects() if isinstance(el, TensorElement) and el._groups is not None]
