"""Subword-complex oracle for AD(w): each member is a minimal transversal
of RP(w), decided without enumerating RP(w).

Q is the staircase word: its rows read from the top, each from right to
left, with cell (r, c) the letter s_{r+c-1}.  A reduced pipe dream of w
is a subword of Q that is a reduced word for w, so a cell set S misses
some reduced pipe dream of w exactly when Q with S's letters removed
still holds a reduced word for w, that is, when its Demazure product is
>= w in Bruhat order (Knutson and Miller, "Subword complexes in Coxeter
groups", Adv. Math. 2004).  So a member a is a minimal transversal of
RP(w) iff delta(Q - a) is not >= w, and delta(Q - (a - c)) >= w for each
cell c of a.

Independent of ``enumerate_rp``, ``fold_rows``, MMCS, lanes and ``trace``:
it shares only ``antidiagonal_family`` (the code under test), the
``Permutation`` value, ``bruhat_geq`` and ``grid.cells``.
"""

from pipedual.antidiagonals import antidiagonal_family
from pipedual.grid import cells
from pipedual.permutations import Permutation, bruhat_geq


def staircase_word(n):
    """The (bit index, letter k) of each cell of Q, in word order."""
    return [
        ((r - 1) * n + c - 1, r + c - 1) for r in range(1, n) for c in range(n - r, 0, -1)
    ]


def demazure(n, word, removed):
    """The Demazure product of the word's letters whose cells are not in
    ``removed``: s_k acts on the right only where it raises the length."""
    images = list(range(1, n + 1))
    for bit, k in word:
        if bit not in removed and images[k - 1] < images[k]:
            images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


def flagged_members(w, masks=None):
    """The masks (the members of AD(w) by default) that are not minimal
    transversals of RP(w)."""
    word = staircase_word(w.n)
    if masks is None:
        masks = antidiagonal_family(w).masks

    def meets_every_dream(removed):
        return not bruhat_geq(demazure(w.n, word, removed), w)

    bad = []
    for mask in masks:
        a = set(cells(mask))
        if not meets_every_dream(a) or any(meets_every_dream(a - {c}) for c in a):
            bad.append(mask)
    return bad
