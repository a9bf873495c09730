"""Workload inputs, generated from the seed before any measured process starts.

Every random choice comes from ``random.Random("<workload>/<seed>")``, whose
string seeding is a stable digest, so a seed names the same inputs in every
process and under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qtwist import AlgebraSpec, build_context, preset, validate_spec, write_spec_file
from qtwist.linalg import inverse

# Single-value mutations per target kind and preset.  A fixed mix, because
# a free choice of target alone moved the sweep time by 10% between seeds.
MUTANTS_PER_KIND = 2
MUTATION_PRESETS = (
    ("poincare-null-plane", 3),
    ("jordanian-borel", 4),
    ("shift-ring(3)", 3),
)

# The rotated null-plane spec is accepted only inside one structural class:
# a twist of ROTATED_PHI_TERMS terms and an R-matrix of ROTATED_R_TERMS terms
# at order 3, with a bracket table of ROTATED_TABLE_TERMS terms, and a
# rotation of determinant other than +-1 so that B and r carry non-integer
# rationals.  Unbounded draws ran from 4 s to 22 s.  Inside the class every
# seed gives about the same load; tables of 126 terms ran 5% slower.
ROTATION_ENTRIES = (-1, 0, 1)
ROTATED_ORDER = 3
ROTATED_PHI_TERMS = 104
ROTATED_R_TERMS = 885
ROTATED_TABLE_TERMS = (110, 120)
MAX_DRAWS = 2000


def _det3(s):
    return (
        s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
        - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
        + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0])
    )


def rotate_h_basis(base, s, name):
    """The spec in the H basis H'_a = sum_j s[j][a] H_j, without xi.

    B and r transform contravariantly, as in the rank-invariance test of
    the model; the declared xi is dropped so the suite must choose one.
    """
    m, n = base.m, base.n
    sinv = inverse([list(row) for row in s])
    B = [
        [
            [
                sum(sinv[b][i] * s[j][a] * base.B[i][j][mu] for i in range(m) for j in range(m))
                for mu in range(n)
            ]
            for a in range(m)
        ]
        for b in range(m)
    ]
    r = [[sum(sinv[b][i] * base.r[i][mu] for i in range(m)) for mu in range(n)] for b in range(m)]
    return AlgebraSpec(name=name, m=m, n=n, B=B, r=r, order=base.order)


def _table_terms(ctx):
    alg = ctx.algebra
    return sum(len(alg.bracket(j, mu)) for j in range(alg.m) for mu in range(alg.n))


def draw_rotation(rng):
    """Draw H-basis rotations of the null-plane preset until one is in class."""
    base = preset("poincare-null-plane").with_order(ROTATED_ORDER)
    lo, hi = ROTATED_TABLE_TERMS
    for draw in range(1, MAX_DRAWS + 1):
        s = [[Fraction(rng.choice(ROTATION_ENTRIES)) for _ in range(3)] for _ in range(3)]
        if abs(_det3(s)) < 2:
            continue
        spec = rotate_h_basis(base, s, "rotated-null-plane")
        ctx = build_context(spec)
        if len(ctx.phi.terms) != ROTATED_PHI_TERMS or not lo <= _table_terms(ctx) <= hi:
            continue
        if len(ctx.universal_r.terms) != ROTATED_R_TERMS or not validate_spec(spec).passed:
            continue
        record = {
            "rotation": [[int(v) for v in row] for row in s],
            "det": int(_det3(s)),
            "draws": draw,
            "phi_terms": len(ctx.phi.terms),
            "r_terms": len(ctx.universal_r.terms),
            "table_terms": _table_terms(ctx),
        }
        return spec, record
    raise RuntimeError(f"no rotation in class after {MAX_DRAWS} draws")


def _r_entry(rng, m, n, diagonal):
    """An entry of the m-by-n r, on or off the diagonal when both exist.

    A mutation off the diagonal makes phi and R denser than one on it, so
    the plan takes as many of each as it can and the sweep's cost does not
    hang on the draw.
    """
    cells = [(i, mu) for i in range(m) for mu in range(n) if (i == mu) == diagonal]
    return list(rng.choice(cells or [(i, mu) for i in range(m) for mu in range(n)]))


def mutation_plan(rng):
    """MUTANTS_PER_KIND mutants of each kind, for each preset, in a fixed order."""
    mutants = []
    for name, order in MUTATION_PRESETS:
        ctx = build_context(preset(name).with_order(order))
        m, n = ctx.spec.m, ctx.spec.n
        draws = {
            "B": lambda k: [rng.randrange(m), rng.randrange(m), rng.randrange(n)],
            "r": lambda k: _r_entry(rng, m, n, diagonal=k % 2 == 0),
            "phi": lambda k: rng.randrange(len(ctx.phi.terms)),
            "rmat": lambda k: rng.randrange(len(ctx.universal_r.terms)),
        }
        for target, draw in draws.items():
            for k in range(MUTANTS_PER_KIND):
                mutants.append({"preset": name, "target": target, "at": draw(k)})
    return mutants


def make_inputs(workload, seed, workdir, root):
    """Inputs document for the worker, and a record of what was drawn.

    `workdir` is where generated spec files go; paths in the document are
    relative to `root`, the checkout the worker runs from.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "nullplane-n5":
        spec = {"preset": "poincare-null-plane", "order": 5}
        return {"kind": "genuine", "spec": spec, "reference": "reference/nullplane-n5.json"}, {}
    if workload == "rotated-n3":
        spec, record = draw_rotation(rng)
        path = workdir / "rotated-null-plane.json"
        write_spec_file(spec, path)
        item = {"spec_path": str(path.relative_to(root)), "order": ROTATED_ORDER}
        return {"kind": "genuine", "spec": item, "reference": "reference/rotated-n3.json"}, record
    if workload == "mutation-sweep":
        specs = [{"preset": name, "order": order} for name, order in MUTATION_PRESETS]
        mutants = mutation_plan(rng)
        return {"kind": "mutation", "specs": specs, "mutants": mutants}, {"mutants": len(mutants)}
    raise ValueError(f"unknown workload {workload!r}")
