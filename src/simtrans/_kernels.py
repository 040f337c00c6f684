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


def em_sweep(probs, event_slot, group_ptr, row_ptr, ll_const):
    """One EM sweep: E-step counts and corpus log-likelihood, then M-step.

    Returns the row-normalised table and the log-likelihood under the table
    entering the sweep.
    """
    w = probs[event_slot]
    z = np.add.reduceat(w, group_ptr[:-1])
    ll = float(np.log(z).sum()) - ll_const
    c = w / np.repeat(z, np.diff(group_ptr))
    counts = np.bincount(event_slot, weights=c, minlength=probs.size)
    row_sums = segment_sum(counts, row_ptr)
    new_probs = counts / np.repeat(row_sums, np.diff(row_ptr))
    return new_probs, ll


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
