"""Hot inner loops of the word aligner, in numpy.

Both kernels run over one flat "event" layout. A group is one column word of
one sentence pair; its events are the candidate rows for that word, NULL
first and then every row position in order. ``group_ptr`` delimits the
groups: the events of group g are ``[group_ptr[g], group_ptr[g + 1])``.

The probability table is stored sparsely over co-occurring (row word,
column word) pairs in CSR form, and ``event_slot`` maps each event to its
table slot.
"""

import numpy as np


def em_sweep(probs, event_slot, group_ptr, row_ptr, ll_const, iterations):
    """All EM sweeps of one direction: E-step counts and corpus
    log-likelihood, then M-step, ``iterations`` times.

    Returns the row-normalised table after the last sweep and the
    log-likelihood of every sweep, each under the table entering it. Group
    sizes, row sizes and the starts of the non-empty rows are the same on
    every sweep, so they are worked out once.
    """
    group_starts = group_ptr[:-1]
    group_sizes = np.diff(group_ptr)
    row_sizes = np.diff(row_ptr)
    full = row_sizes > 0
    # an empty row has no slot to divide, so only the non-empty rows are summed
    row_starts, full_sizes = row_ptr[:-1][full], row_sizes[full]
    history = []
    for _ in range(iterations):
        w = np.take(probs, event_slot)
        z = np.add.reduceat(w, group_starts)
        history.append(float(np.log(z).sum()) - ll_const)
        w /= np.repeat(z, group_sizes)
        probs = np.bincount(event_slot, weights=w, minlength=probs.size)
        probs /= np.repeat(np.add.reduceat(probs, row_starts), full_sizes)
    return probs, history


def segment_sum(values, ptr):
    """Sum of every segment ``[ptr[i], ptr[i + 1])``, 0 for an empty one.

    ``np.add.reduceat`` alone cannot take an empty segment: it returns the
    element at its start, or fails when that start is past the end. So it
    runs over the starts of the non-empty segments only, each of which then
    ends where the next one starts.
    """
    sizes = np.diff(ptr)
    sums = np.zeros(sizes.size)
    full = sizes > 0
    sums[full] = np.add.reduceat(values, ptr[:-1][full])
    return sums


def segment_argmax(weights, group_ptr):
    """Best row position of every group, or -1 where the group gets no link.

    The first event of a group is NULL and the rest are row positions 0, 1,
    ... in order. The best position has the highest positive weight, the
    lowest position winning ties. It is kept only if its weight is at least
    NULL's, so NULL must strictly beat every position to absorb the word. A
    group with no positive position weight, including a NULL-only group,
    gets -1; so does any group whose NULL weight is NaN.
    """
    best_pos = np.full(group_ptr.size - 1, -1, dtype=np.int64)
    starts = group_ptr[:-1]
    sizes = np.diff(group_ptr)
    # NaN and non-positive weights can never win; NULL is compared apart
    cand = np.where(weights > 0.0, weights, 0.0)
    cand[starts] = 0.0
    best = np.maximum.reduceat(cand, starts)
    hits = np.flatnonzero((cand > 0.0) & (cand == np.repeat(best, sizes)))
    group = np.searchsorted(group_ptr, hits, side="right") - 1
    first = np.ones(hits.size, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    hits, group = hits[first], group[first]
    keep = best[group] >= weights[starts[group]]
    best_pos[group[keep]] = hits[keep] - starts[group[keep]] - 1
    return best_pos
