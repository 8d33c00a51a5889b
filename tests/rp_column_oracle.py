"""Column-order pipe dream search: the reference enumerator for the tests.

Independent of the row-by-row construction in ``pipedual.pipedreams``.
It walks the staircase boxes column by column from the left, each column
from the bottom, forward from the identity, and cuts a branch when a pair
of pipes would cross twice, when the crossing budget length(w) is
exceeded, when the boxes left cannot hold enough crossings, or when a
column cannot leave w^-1(c) in slot c.
"""

from pipedual.permutations import Permutation, length
from pipedual.transversals import SetFamily


def column_enumerate_rp(w: Permutation) -> SetFamily:
    """All reduced pipe dreams tracing to w, by the column-order search.

    The west and south pipes of box (r, c) sit in the adjacent frontier
    slots r + c - 1 and r + c; a crossing swaps them and an elbow leaves
    them.  Two adjacent pipes have met at a crossing exactly when the
    larger one sits in the lower-numbered slot.  Column c touches ever
    lower slots, so w^-1(c) can only move down in it and must end in slot
    c.  The search keeps the crossings still to try on an explicit stack.
    """
    n = w.n
    target = w.inverse().images  # target[c-1] must exit north at column c
    budget = length(w)
    # per box: its bit, its west slot, the pipe that must leave slot c at
    # the top of its column c, and whether it is that top box
    boxes = [
        ((r - 1) * n + c - 1, r + c - 1, target[c - 1], r == 1)
        for c in range(1, n)
        for r in range(n - c, 0, -1)
    ]
    end = len(boxes)
    slack = end - budget  # the elbows a dream of w has on the staircase
    slots = list(range(n + 1))  # slots[k]: the pipe in slot k (0 unused)
    path = [0] * budget  # path[:depth]: crossing boxes of the current branch
    pending = []  # (box, depth there): crossings to try
    results = []
    mask = i = depth = 0
    while True:
        if i - depth <= slack:
            if i == end:
                results.append(mask)
            else:
                _, k, want, top = boxes[i]
                a, b = slots[k], slots[k + 1]
                if (
                    depth < budget
                    and (b == want if top else a != want)
                    and a < b
                ):
                    pending.append((i, depth))
                if a == want if top else b != want:
                    i += 1
                    continue
        if not pending:
            return SetFamily(n, results)
        i, back = pending.pop()
        while depth > back:  # unwind the branch back to box i
            depth -= 1
            bit, k, _, _ = boxes[path[depth]]
            slots[k], slots[k + 1] = slots[k + 1], slots[k]
            mask ^= 1 << bit
        bit, k, _, _ = boxes[i]
        slots[k], slots[k + 1] = slots[k + 1], slots[k]
        mask |= 1 << bit
        path[depth] = i
        depth += 1
        i += 1
