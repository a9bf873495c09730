"""Linear changes of the H basis, applied to tensors leg by leg.

The substitution ``H_i -> sum_lam forms[i][lam] H_lam`` with every X fixed
sends a normal-ordered monomial ``H^a X^b`` to the product of the linear
forms of its H factors, times ``X^b``.  The forms are pure-H, so that
product consults no bracket.  Between two algebras whose bracket tables
correspond under the substitution, the map is an algebra isomorphism.
Each leg goes through `Algebra.substitute_leg`, the loop of the coproduct.
"""

from __future__ import annotations

from .algebra import Monomial


class BasisChange:
    """The substitution ``H_i -> sum_lam forms[i][lam] H_lam`` from `source` to `target`.

    Calling it on a tensor of `source` returns the image in `target`.  The
    image of each monomial is cached, as an element of `target`.
    """

    def __init__(self, source, target, forms):
        self.source, self.target = source, target
        m, n = target.m, target.n
        # The image of H_i, an element of `target`.
        self._forms = tuple(
            target.element({(0, Monomial.h_gen(m, n, lam)): c for lam, c in enumerate(row)})
            for row in forms
        )
        self._images = {}

    def _image(self, mono, room=0):
        """Image of `mono`: that of its first H factor times that of the rest.

        It has power 0, so it reaches any `room`.  The product that builds an
        image refuses a factor whose exponents could leave a key field, so a
        monomial of too high an H degree raises ShapeError before any key can
        wrap.
        """
        image = self._images.get(mono)
        if image is None:
            peeled = mono.peel()
            if peeled is None or peeled[0] >= len(self._forms):
                image = self.target.element({(0, mono): 1})
            else:
                i, rest = peeled
                image = self._forms[i] * self._image(rest)
            self._images[mono] = image
        return image

    def __call__(self, tensor):
        for leg in range(tensor.legs):
            tensor = self.target.substitute_leg(tensor, leg, self._image, 1)
        return tensor
