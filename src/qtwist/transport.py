"""Linear changes of the H basis, applied to tensors leg by leg.

The substitution ``H_i -> sum_lam forms[i][lam] H_lam`` with every X fixed
sends a normal-ordered monomial ``H^a X^b`` to the expanded product of the
linear forms of its H factors, followed by ``X^b``.  The H factors commute
and already stand left of every X, so the image is normal-ordered as it is:
no bracket is consulted.  Between two algebras whose bracket tables
correspond under the substitution, the map is an algebra isomorphism.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import _FIELD, _W, _from_parts
from .errors import ShapeError


class BasisChange:
    """The substitution ``H_i -> sum_lam forms[i][lam] H_lam`` from `source` to `target`.

    Calling it on a tensor of `source` returns the image in `target`.  The
    image of each monomial is cached per leg field.
    """

    def __init__(self, source, target, forms):
        self.source = source
        self.target = target
        self._forms = tuple(
            tuple((lam, Fraction(c)) for lam, c in enumerate(row) if c) for row in forms
        )
        self._images = {}

    def _image(self, field):
        """Image of the monomial with leg field `field`: ``((target field, num), ...), den``."""
        cached = self._images.get(field)
        if cached is not None:
            return cached
        units, x = self.target._units, field & self.source._x_mask
        # The image of H^a has total degree |a|; while that fits, no sum carries.
        h = self.source._mono(field).h
        if sum(h) > _FIELD:
            raise ShapeError(f"an H degree of {sum(h)} does not fit a {_W}-bit field")
        acc = {0: Fraction(1)}
        for i, e in enumerate(h):
            for _ in range(e):
                nxt = {}
                for f, c in acc.items():
                    for lam, coeff in self._forms[i]:
                        key = f + units[lam]
                        nxt[key] = nxt.get(key, 0) + c * coeff
                acc = {f: c for f, c in nxt.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        image = tuple((f | x, c.numerator * (den // c.denominator)) for f, c in acc.items())
        self._images[field] = image, den
        return image, den

    def __call__(self, tensor):
        tensor = tensor._on(self.source)
        ps, shifts = self.source._layout(tensor.legs)[:2]
        mask = self.source._leg_mask
        # Numerator sums keyed by their denominator: the tensor's times those
        # of its leg images.  The two algebras share their key layout.
        parts = {}
        for key, v in tensor.nums.items():
            combos = [(key >> ps << ps, v, tensor.den)]
            for s in shifts:
                image, den = self._image((key >> s) & mask)
                combos = [
                    (out + (tf << s), c * num, d * den) for out, c, d in combos for tf, num in image
                ]
            for out, c, d in combos:
                acc = parts.setdefault(d, {})
                acc[out] = acc.get(out, 0) + c
        return _from_parts(self.target, tensor.legs, parts)
