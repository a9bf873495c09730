"""A prepared right operand, and leg tables kept across `Algebra.mul_into` calls.

A check groups the operand it multiplies by in every part once
(`Algebra.prepare`) and keeps the leg tables of its products for the whole
check.  A table row names its denominator, and each call maps that to its
own part of its own accumulator, so sharing changes no sum: products with
a prepared operand and shared tables equal the same products formed fresh,
over differing scales, operand denominators and parts, and with tables
built to a low reach by one call and extended by a later one.
"""

import gc
import random
from fractions import Fraction as Q

import pytest

from helpers import cached_context, random_table
from qtwist.algebra import Algebra, TensorElement, _from_parts
from qtwist.verify import check_intertwine, check_qybe
from test_accumulate import _algebra, _grouped_tensor, _reaches
from test_lead_split import ORDER, _tensor

ALGEBRAS = (
    "poincare-null-plane",
    "jordanian-borel",
    "shift-ring(3)",
    "rotated-null-plane twin",
    "4x4 rational",
)


def _named_algebra(name):
    if name == "4x4 rational":
        rng = random.Random("shared/4x4")
        return Algebra(4, 4, ORDER, random_table(rng, 4, 4, ORDER, max_terms=3, rational=True))
    if name == "rotated-null-plane twin":
        return _algebra(name)
    return cached_context(name, ORDER).algebra


def _fresh(alg, a, b, scale, part):
    """``scale * a * b`` or its `part`, from an unprepared `b` and tables of its own."""
    acc = {}
    alg.mul_into(acc, a, b, scale, part)
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
    tables, running = {}, {2: {}, 3: {}}
    wants = {legs: alg.tensor_zero(legs) for legs in (2, 3)}
    for i, (a, scale, part) in enumerate(calls):
        want = _fresh(alg, a, right[a.legs], scale, part)
        wants[a.legs] = wants[a.legs] + want
        alone = {}
        for acc in (alone, running[a.legs]):
            alg.mul_into(acc, a, prepared[a.legs], scale, part, tables)
        assert _from_parts(alg, a.legs, alone) == want
        assert _from_parts(alg, a.legs, running[a.legs]) == wants[a.legs]
        if i == 1:
            reaches = _reaches(tables)
    # Some table was built short of the order and extended later.
    assert any(reach < ORDER for reach in reaches.values())
    later = _reaches(tables)
    assert any(later[key] > reach for key, reach in reaches.items())


class _Logged(dict):
    """Stands for the tables a check keeps: each table that `mul_into` builds or
    extends is logged as ``(path, reach)``, `path` naming its legs and the
    left X parts plus right H parts on its clash legs."""

    def __init__(self, log, path=()):
        super().__init__()
        self.log, self.path = log, path

    def setdefault(self, key, default=None):
        if key not in self:
            dict.__setitem__(self, key, _Logged(self.log, self.path + (key,)))
        return self[key]

    def __setitem__(self, key, entry):
        self.log.append((self.path + (key,), entry[0]))
        dict.__setitem__(self, key, entry)


def _instrument(monkeypatch, share):
    """Record the operands `Algebra.prepare` groups and each `mul_into` call,
    and log table builds, with the tables a check passes (`share`) or with
    fresh ones for each call."""
    seen = {"grouped": [], "calls": [], "log": [], "tables": {}}
    prepare, mul_into = Algebra.prepare, Algebra.mul_into

    def counted_prepare(self, b):
        seen["grouped"].append(b)
        return prepare(self, b)

    def logged_mul_into(self, acc, a, b, scale=1, part=None, tables=None):
        seen["calls"].append((b, part))
        if tables is not None:
            if share:
                # One logged stand-in per tables dict that a check passes.
                tables = seen["tables"].setdefault(id(tables), (tables, _Logged(seen["log"])))[1]
            else:
                tables = _Logged(seen["log"])
        mul_into(self, acc, a, b, scale, part, tables)

    monkeypatch.setattr(Algebra, "prepare", counted_prepare)
    monkeypatch.setattr(Algebra, "mul_into", logged_mul_into)
    return seen


def test_qybe_groups_r23_once_and_builds_each_table_once_per_extension(monkeypatch):
    ctx = cached_context("poincare-null-plane", 4)
    r = ctx.universal_r
    alg, r23 = r.algebra, r.embed(3, (1, 2))
    # The symmetry search is cached on the algebra for its lifetime.
    assert alg.symmetries
    keys = set(vars(alg))
    seen = _instrument(monkeypatch, share=True)
    assert check_qybe(ctx).passed
    parts = sum(part == "lead" for _, part in seen["calls"])
    by_r23 = [part for b, part in seen["calls"] if b._groups is not None and b == r23]
    assert parts > 1 and by_r23.count("lead") == by_r23.count("corr") == parts
    assert sum(b == r23 for b in seen["grouped"]) == 1
    # One tables dict for the whole check, and each build extends its table.
    assert len(seen["tables"]) == 1
    built = {}
    for path, reach in seen["log"]:
        assert reach > built.get(path, -1)
        built[path] = reach
    shared = len(seen["log"])
    assert shared > len(built)
    # A second check starts from tables of its own.
    assert check_intertwine(ctx).passed
    assert len(seen["tables"]) == 2
    monkeypatch.undo()
    # Tables made for each product instead build more, for the same report.
    seen = _instrument(monkeypatch, share=False)
    assert check_qybe(ctx).passed
    assert len(seen["log"]) > shared
    monkeypatch.undo()
    del seen
    # Nothing prepared or tabled outlives the checks, on the algebra or off it.
    assert check_qybe(ctx).passed and check_intertwine(ctx).passed
    gc.collect()
    assert set(vars(alg)) == keys
    assert r._groups is None
    assert not [el for el in gc.get_objects() if isinstance(el, TensorElement) and el._groups is not None]
