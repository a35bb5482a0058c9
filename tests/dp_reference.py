"""The scalar dynamic program over one entropy table, kept as the reference
for `qcorr.ccm`'s stacked one: subsets in ascending mask order, each
representative's cuts in ascending order of block A, one Python float
operation at a time."""

import math


def scalar_values(entropy_bits, rep):
    """The value of every mask of the table `entropy_bits` (in bits, indexed
    by mask), whose masks share the entries of their representative
    `rep[mask]`."""
    full = len(entropy_bits) - 1
    value_bits = [0.0] * (full + 1)
    for mask in range(1, full + 1):  # ascending, so every proper submask comes first
        if rep[mask] != mask:
            value_bits[mask] = value_bits[rep[mask]]
        elif mask & (mask - 1):  # a single qubit has value 0
            weight = float(1 << (bin(mask).count("1") - 2))
            low, h_s, best, sub = mask & -mask, entropy_bits[mask], math.inf, 0
            rest = mask ^ low
            while sub != rest:  # the submasks of rest in ascending order; block B may not be empty
                a, b = low | sub, rest ^ sub
                dist = entropy_bits[a] + entropy_bits[b] - h_s
                if dist < 0.0:
                    dist = 0.0  # mutual information is non-negative; round-off only
                cost = weight * dist + value_bits[a] + value_bits[b]
                if cost < best:
                    best = cost
                sub = (sub - rest) & rest
            value_bits[mask] = best
    return value_bits
