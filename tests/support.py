"""Helpers shared by the test modules.

* :func:`pivot`: the coordinate at which a packed vector leads.
* :func:`minor` and :func:`rooted`: minors whose elements and
  contracted set are kept in the root's indices, for the rank oracles
  that ask the root for r(A | C) - r(C).  A minor reads its parent's
  points and records nothing of the root, so a test takes these masks
  from the minors it builds itself.
"""

import weakref

from matzero.matroid import as_mask, mask_bits, mask_of

# minor -> (root, kept root elements, contracted root mask)
_ROOTED = weakref.WeakKeyDictionary()


def pivot(field, v: int) -> int:
    """The index of the first nonzero coordinate of a packed vector;
    -1 for zero."""
    return ((v & -v).bit_length() - 1) // field.width


def rooted(m):
    """(root, kept, contracted mask) of m in its root's elements: a root
    keeps every element and contracts none; a minor must come from
    :func:`minor`."""
    if m.root is m:
        return m, tuple(range(m.n)), 0
    return _ROOTED[m]


def minor(m, delete=(), contract=()):
    """``m.minor(delete, contract)``, recorded for :func:`rooted`."""
    root, kept, cmask = rooted(m)
    out = m.minor(delete=delete, contract=contract)
    if out is not m:
        gone = as_mask(m.n, delete) | as_mask(m.n, contract)
        _ROOTED[out] = (
            root,
            tuple(k for i, k in enumerate(kept) if not (1 << i) & gone),
            cmask | mask_of(kept[i] for i in mask_bits(as_mask(m.n, contract))),
        )
    return out
