"""Ground truth for the league search on small instances.

Exhaustive enumeration of every assignment plus an analytic lower bound.
Both exist to check the search, not the objective, and enumeration is guarded
to desk scale. It walks the prefix tree of assignments: a node at depth k
holds the per-VM loads of one choice of VMs for the first k arriving tasks,
and its m children add the next task's length / speed to one VM each. Every
load is thus 0.0 plus the loads kernel's quotients in arrival order, the sum
its bincount makes, so every makespan is bit-identical to the kernel's.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Assignment, ProblemInstance, makespan

ENUMERATION_LIMIT = 10**7

# Load cells per enumerated chunk: bounds the memory the enumeration holds at once.
_CHUNK_CELLS = 1 << 14


def brute_force_optimum(instance: ProblemInstance) -> tuple[Assignment, float]:
    """Enumerate all m^n assignments and return a makespan-minimal one.

    A tree level is m copies of the last side by side plus one strided add,
    grown in chunks of at most about _CHUNK_CELLS loads. Ties go to the
    lexicographically smallest vm_of whatever the arrival order: a chunk's
    tied leaves become vm_of codes (task 0 the most significant base-m
    digit) and the least (makespan, code) wins.
    """
    n, m = len(instance.tasks), len(instance.vms)
    if m**n > ENUMERATION_LIMIT:
        raise ValueError(f"instance too large to enumerate: {m}^{n} > {ENUMERATION_LIMIT}")
    place = m ** np.arange(n - 1, -1, -1)  # digit weights; task 0 is the most significant
    weight = place[instance.arrival]  # digit weight of the k-th arriving task
    dur = instance.lengths[instance.arrival, None] / instance.speeds  # the kernel's quotients, by arrival

    def grow(loads: np.ndarray, k: int) -> np.ndarray:
        """The next level: its column j*c + i is column i with arrival k on VM j."""
        grown = np.concatenate([loads] * m, axis=1)
        grown.reshape(m * m, -1)[:: m + 1] += dur[k][:, None]  # row v of every block j == v
        return grown

    def best(loads: np.ndarray, codes: np.ndarray, k: int) -> tuple[float, int]:
        """Least (makespan, code) below the columns of loads, which place arrivals 0..k-1."""
        if k == n or loads.size * m ** (n - k) <= _CHUNK_CELLS:
            for j in range(k, n):
                loads = grow(loads, j)
            ms = np.maximum.reduce(loads, axis=0)
            low = ms.min()
            # Leaf column s * len(codes) + i extends column i by arrivals k.. with base-m digits s.
            suffix, prefix = np.divmod(np.flatnonzero(ms == low), len(codes))
            ties = codes[prefix] + (suffix[:, None] // m ** np.arange(n - k) % m) @ weight[k:]
            return float(low), int(ties.min())
        # Only a single node is too large for a chunk: grow it while the frontier fits one.
        while len(codes) == 1 or loads.size * m <= _CHUNK_CELLS:
            loads, codes, k = grow(loads, k), (codes + (np.arange(m) * weight[k])[:, None]).ravel(), k + 1
        width = max(1, _CHUNK_CELLS // m ** (n - k + 1))  # columns whose subtrees fill a chunk
        return min(best(loads[:, a : a + width], codes[a : a + width], k) for a in range(0, len(codes), width))

    code = best(np.zeros((m, 1)), np.zeros(1, dtype=np.int64), 0)[1]
    vm_of = Assignment(tuple((code // place % m).tolist()))
    # Report the canonical model evaluation of the winning assignment.
    return vm_of, makespan(instance, vm_of).makespan_s


def lower_bound(instance: ProblemInstance) -> float:
    """max(total work / total capacity, longest task / fastest VM), in seconds."""
    lengths, speeds = instance.lengths.tolist(), instance.speeds.tolist()
    work, capacity = sum(lengths), sum(speeds)
    if math.isinf(work) or math.isinf(capacity):
        # Sum both at scale 2^-e < 1/count instead: no normal term rounds, and the quotient is the same.
        e = max(len(lengths), len(speeds)).bit_length()
        work, capacity = (sum(math.ldexp(x, -e) for x in values) for values in (lengths, speeds))
    return max(work / capacity, max(lengths) / max(speeds))
