"""Ladder-move pipe dream search: the reference enumerator for the tests.

Bergeron and Billey ("RC-graphs and Schubert polynomials", Experiment.
Math. 1993) show that every reduced pipe dream of w is reached from the
bottom one by ladder moves.  A ladder move reads two adjacent columns of
the grid and nothing else, so this search shares no pipe, slot or
reducedness rule with the enumerator under test.
"""

from pipedual.permutations import Permutation
from pipedual.transversals import SetFamily


def ladder_enumerate_rp(w: Permutation) -> SetFamily:
    """All reduced pipe dreams of w: the bottom one, closed under ladder moves.

    The bottom dream crosses the first c_i boxes of row i, where
    c_i = #{j > i : w(j) < w(i)}.  A ladder move takes a cross at (i, j)
    whose east box (i, j + 1) is an elbow and climbs the rows r = i - 1,
    i - 2, ... while (r, j) and (r, j + 1) both cross.  If the climb stops
    at a row r >= 1 where both are elbows, the cross moves to (r, j + 1).
    Box (r, c) is bit (r - 1) * n + c - 1, so a box and its east box are
    the bit pair 3 << b, and the pair above is 3 << b - n.  Every cross
    lies in the staircase r + c <= n, the bottom ones and each moved one
    (r + j + 1 <= i + j), so no cross has its east box in the next row.
    """
    n, v = w.n, w.images
    bottom = 0
    for i in range(n):
        bottom |= (1 << sum(v[j] < v[i] for j in range(i + 1, n))) - 1 << i * n
    seen, queue = {bottom}, [bottom]
    for mask in queue:  # breadth first: the loop reads what it appends
        for b in range(n * n - 1):
            if mask >> b & 3 != 1:
                continue  # not a cross with an elbow east of it
            r = b - n
            while r >= 0 and mask >> r & 3 == 3:
                r -= n
            if r >= 0 and not mask >> r & 3:
                moved = mask ^ 1 << b ^ 2 << r
                if moved not in seen:
                    seen.add(moved)
                    queue.append(moved)
    return SetFamily(n, seen)
