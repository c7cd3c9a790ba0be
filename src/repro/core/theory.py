"""Closed-form bounds from the paper, for benches to compare against.

Each function cites the lemma/theorem it encodes.  Where the paper states an
O(.) bound, we implement the explicit expression proved in the text (with
its constants), so measured quantities can be checked against it directly.
"""

from __future__ import annotations

import math
from typing import List, Tuple

#: the golden ratio phi = (1 + sqrt 5)/2 (Sect. 4).
PHI = (1 + math.sqrt(5)) / 2

#: gamma = ln 2 - 1/e, the constant in Lemma 6's X^t_p bound.
GAMMA = math.log(2) - 1 / math.e


def log_star(n: float, base: float = 2.0) -> int:
    """Iterated logarithm log*_base(n): #logs until the value drops <= 1."""
    if n <= 1:
        return 0
    count = 0
    value = float(n)
    while value > 1:
        value = math.log(value, base)
        count += 1
    return count


# ----------------------------------------------------------------------
# Section 2: the (s_i) sequence and skeleton bounds
# ----------------------------------------------------------------------

def s_sequence(D: int, limit: float) -> List[int]:
    """The sequence s_0 = s_1 = D, s_i = s_{i-1}^{s_{i-1}} (Sect. 2),
    truncated once a term exceeds ``limit`` (they grow as a power tower).
    """
    if D < 4:
        raise ValueError("the analysis requires D >= 4 (Lemma 1)")
    seq = [D, D]
    while seq[-1] <= limit:
        prev = seq[-1]
        # s^s overflows floats quickly; cap via logarithm first.
        if prev * math.log(prev) > math.log(limit) + math.log(4):
            nxt = int(limit) + 1
        else:
            nxt = prev**prev
        seq.append(nxt)
    return seq


def num_phases(n: int, D: int) -> int:
    """The number of rounds L with n = s_1^2 ... s_{L-1}^2 s_L (Lemma 1(1)
    gives L <= log* n - log* D + 1); for arbitrary n, the L at which the
    cumulative density product first reaches n.
    """
    seq = s_sequence(D, n)
    density = 1.0
    for L in range(1, len(seq)):
        density *= seq[L] if L == len(seq) - 1 else seq[L] ** 2
        if density >= n:
            return L
    return max(1, len(seq) - 1)


def skeleton_size_bound(n: int, D: int) -> float:
    """Lemma 6's explicit expected-size bound:

    n (D/e + 1 - 2/e + (1 + 1/D)(ln(D+2) - gamma + 1) + (ln D + 0.2)/D).
    """
    if D < 4:
        raise ValueError("Lemma 6 requires D >= 4")
    return n * (
        D / math.e
        + 1
        - 2 / math.e
        + (1 + 1 / D) * (math.log(D + 2) - GAMMA + 1)
        + (math.log(D) + 0.2) / D
    )


def skeleton_distortion_bound(n: int, D: int, eps: float = 1.0) -> float:
    """Theorem 2's distortion bound eps^-1 2^{log* n - log* D + 7} log_D n.

    With ``eps = 1`` this reduces to (a constant times) Lemma 5's
    O(2^{log* n - log* D} log_D n) bound for the exact-n algorithm.
    """
    if n < 2:
        return 1.0
    return (
        (1.0 / eps)
        * 2.0 ** (log_star(n) - log_star(D) + 7)
        * math.log(n, D)
    )


def skeleton_time_bound(n: int, D: int, eps: float) -> float:
    """Theorem 2: O(t + log n) rounds with t = eps^-1 2^{log* n - log* D}
    log_D n.  Returned without the O-constant.
    """
    t = (1.0 / eps) * 2.0 ** (log_star(n) - log_star(D)) * math.log(n, D)
    return t + math.log2(max(2, n))


# ----------------------------------------------------------------------
# Section 4: Fibonacci numbers, sampling probabilities, C/I bounds
# ----------------------------------------------------------------------

def fib(k: int) -> int:
    """The k-th Fibonacci number (F_0 = 0, F_1 = 1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fibonacci_spanner_order_max(n: int) -> int:
    """The maximum order o = floor(log_phi log n) (Sect. 4.1)."""
    if n < 4:
        return 1
    return max(1, int(math.log(math.log(n, 2), PHI)))


def golden_ratio_exponent(o: int) -> float:
    """alpha = 1/(F_{o+3} - 1), the size exponent of Lemma 8."""
    return 1.0 / (fib(o + 3) - 1)


def fib_sampling_probabilities(n: int, o: int, ell: float) -> List[float]:
    """Lemma 8's sampling probabilities q_1 .. q_o.

    q_i = n^{-f_i alpha} * ell^{-g_i beta + h_i}, with
    f_i = g_i = F_{i+2} - 1,  h_i = F_{i+3} - (i + 2),
    alpha = 1/(F_{o+3} - 1),  beta = phi.

    Probabilities are clamped into (0, 1]; q_{o+1} = 1/n is implicit.
    """
    if o < 1:
        raise ValueError("order must be >= 1")
    if ell <= 1:
        raise ValueError("ell must exceed 1")
    alpha = golden_ratio_exponent(o)
    qs = []
    for i in range(1, o + 1):
        f_i = fib(i + 2) - 1
        h_i = fib(i + 3) - (i + 2)
        log_q = -f_i * alpha * math.log(n) + (-f_i * PHI + h_i) * math.log(ell)
        qs.append(min(1.0, math.exp(log_q)))
    return qs


def fibonacci_size_bound(n: int, o: int, ell: float) -> float:
    """Lemma 8: E|S| <= o n + O(n^{1 + 1/(F_{o+3}-1)} ell^phi).

    Returned without the O-constant (we use constant 1, plus the forest
    term), which is what shape-checks in the benches compare growth against.
    """
    alpha = golden_ratio_exponent(o)
    return o * n + n ** (1 + alpha) * ell**PHI


def lemma9_recurrences(ell: int, i_max: int) -> Tuple[List[float], List[float]]:
    """Exact C^i_ell and I^i_ell values via Lemma 9's recurrences.

    I^0 = 1, I^1 = ell + 1, C^0 = 1, C^1 = ell + 2, and for i >= 2:
      I^i = 2 I^{i-2} + I^{i-1} + ell^i + (ell - 1) ell^{i-2}
      C^i = max(ell C^{i-1},
                (ell - 1) C^{i-1} + 2(I^{i-2} + I^{i-1}) + ell^{i-1})

    Returns ``(C, I)`` as lists indexed by i in [0, i_max].
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    I = [1.0, float(ell + 1)]
    C = [1.0, float(ell + 2)]
    for i in range(2, i_max + 1):
        I.append(
            2 * I[i - 2] + I[i - 1] + float(ell) ** i
            + (ell - 1) * float(ell) ** (i - 2)
        )
        C.append(
            max(
                ell * C[i - 1],
                (ell - 1) * C[i - 1] + 2 * (I[i - 2] + I[i - 1])
                + float(ell) ** (i - 1),
            )
        )
    return C[: i_max + 1], I[: i_max + 1]


def lemma10_i_bound(ell: int, i: int) -> float:
    """Lemma 10's closed-form upper bound on I^i_ell."""
    if ell == 1:
        return (2 ** (i + 2)) / 3  # exact value is (2^{i+2} - 1 or 2)/3
    if ell == 2:
        return (i + 2 / 3) * 2**i + 1 / 3
    c_prime = 1 + (2 * ell + 1) / ((ell + 1) * (ell - 2))
    return c_prime * float(ell) ** i


def lemma10_c_bound(ell: int, i: int) -> float:
    """Lemma 10's closed-form upper bound on C^i_ell."""
    if ell == 1:
        return float(2 ** (i + 1))
    if ell == 2:
        return 3 * (i + 1) * 2.0**i
    c_prime = 1 + (2 * ell + 1) / ((ell + 1) * (ell - 2))
    c_ell = 3 + (6 * ell - 2) / (ell * (ell - 2))
    return min(
        c_ell * float(ell) ** i,
        float(ell) ** i + 2 * c_prime * i * float(ell) ** (i - 1),
    )


def theorem7_distortion_bound(d: int, o: int, eps: float) -> float:
    """Theorem 7's staged multiplicative distortion bound at distance d.

    With ell = 3o/eps + 2:
      d = 1        ->  2^{o+1}
      d = 2^o      ->  3(o + 1)
      d = ell'^o   ->  3 + (6 ell' - 2)/(ell' (ell' - 2))   for ell' >= 3
      d = (3o/e')^o -> 1 + e'   for e' in [eps, 1]

    For general d we take the bound of the largest stage whose threshold
    d meets, i.e. the best (smallest) multiplier the theorem guarantees.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    ell_max = 3 * o / eps + 2
    best = float(2 ** (o + 1))
    if d >= 2**o:
        best = min(best, 3.0 * (o + 1))
    # stage 3: largest integer ell' >= 3 with ell'^o <= d (capped by ell-2).
    if d >= 3**o:
        ell_prime = min(int(d ** (1.0 / o) + 1e-9), int(ell_max) - 2)
        if ell_prime >= 3:
            best = min(
                best,
                3 + (6 * ell_prime - 2) / (ell_prime * (ell_prime - 2)),
            )
    # stage 4: smallest eps' in [eps, 1] with (3o/eps')^o <= d.
    if d >= (3 * o) ** o:
        eps_prime = max(eps, (3 * o) / d ** (1.0 / o))
        if eps_prime <= 1:
            best = min(best, 1 + eps_prime)
    return best


def corollary2_betas(
    n: int, eps: float, t: float, ell_prime: int = 3
) -> Tuple[float, float, float]:
    """Corollary 2's additive terms for the combined spanner.

    With o = log_phi log n and message length O(n^{1/t}), the spanner is
    simultaneously a (3(log_phi log n + t), beta_1)-, (3 + rho, beta_2)-
    and (1 + eps', beta_3)-spanner, where

      beta_1 = 2^t (log n)^{log_phi 2},
      beta_2 = ell'^{log_phi log n + t}   (rho = (6 ell' - 2)/(ell'(ell'-2))),
      beta_3 = (3 (log_phi log n + t) / eps')^{log_phi log n + t}.

    Returns ``(beta_1, beta_2, beta_3)`` evaluated at eps' = eps.
    """
    if n < 4:
        raise ValueError("n too small for the asymptotic formulas")
    log_n = math.log2(n)
    o_plus_t = math.log(log_n, PHI) + t
    beta_1 = 2**t * log_n ** math.log(2, PHI)
    beta_2 = float(ell_prime) ** o_plus_t
    beta_3 = (3 * o_plus_t / eps) ** o_plus_t
    return beta_1, beta_2, beta_3


def elkin_zhang_beta(n: int, eps: float, t: float) -> float:
    """The beta of Elkin–Zhang's sparsest spanner (Sect. 1.2):

    beta = (eps^-1 t^2 log n log log n)^{t log log n}.

    The paper's comparison target for the Fibonacci beta (bench E15's
    asymptotic sidebar).
    """
    if n < 16:
        raise ValueError("n too small for log log n")
    log_n = math.log2(n)
    loglog_n = math.log2(log_n)
    base = (t**2) * log_n * loglog_n / eps
    return base ** (t * loglog_n)


# ----------------------------------------------------------------------
# Per-protocol budgets for the differential fuzzer (repro.fuzz)
# ----------------------------------------------------------------------

def baswana_sen_size_bound(n: int, k: int) -> float:
    """The corrected Baswana–Sen size recurrence (Lemma 6 discussion):

    E|S| <= k n + (1 + log2 k) n^{1 + 1/k}.

    The log k factor is this paper's correction to the commonly cited
    O(k n^{1+1/k}); the explicit (1 + log2 k) constant makes the bound a
    usable per-run budget for small n (a size-0 additive constant would
    reject honest runs on tiny hosts).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        return 0.0
    if k == 1:
        # k = 1 returns the whole graph; the only bound is m <= n(n-1)/2.
        return n * (n - 1) / 2
    return k * n + (1 + math.log2(k)) * n ** (1 + 1 / k)


def additive2_size_bound(n: int) -> float:
    """Size budget for the additive-2 construction (Sect. 1.2 baseline):

    with threshold T = ceil(sqrt(n log n)), light edges contribute
    <= n T, heavy-vertex joining edges <= n, and the dominator BFS
    forests <= 4 sqrt(n log n) * n edges (twice the expected 2 n ln n / T
    dominators, each owning a spanning forest) — O(n^{3/2} log^{1/2} n)
    with explicit constants.
    """
    if n < 2:
        return 1.0
    log_n = max(1.0, math.log(n))
    threshold = math.ceil(math.sqrt(n * log_n))
    return n * threshold + n + 4 * math.sqrt(n * log_n) * n


def deterministic_threshold(D: int, i: int) -> int:
    """The superphase-``i`` degree threshold t_i = (D+1)^(2^i) - 1.

    The doubly-exponential threshold schedule of Elkin–Matar
    (arXiv:1907.10895, superclustering phases): a cluster is *high* in
    superphase i iff it sees >= t_i distinct adjacent clusters.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if i < 0:
        raise ValueError("superphase index must be >= 0")
    return (D + 1) ** (2**i) - 1


def deterministic_phase_count(n: int, D: int) -> int:
    """Superphase budget L of the deterministic protocol.

    Superphase i shrinks the cluster count to
    n_{i+1} <= n_i / (t_i + 1) = n_i / (D+1)^(2^i) (each center absorbs
    its >= t_i + 1 closed-neighborhood clusters, and center closed
    neighborhoods are disjoint because centers of a distance-2 ruling
    set are pairwise at cluster-distance >= 3).  Once t_i >= n every
    cluster is low-degree and dies, so the protocol halts by the first
    superphase i with t_i >= n — L = i + 1 superphases in total
    (cf. the O(log log n) superclustering phases of arXiv:1907.10895).
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if n < 1:
        return 1
    i = 0
    while deterministic_threshold(D, i) < n:
        i += 1
    return i + 1


def deterministic_radius_bound(i: int) -> int:
    """Cluster-radius bound r_i = (5^i - 1)/2 at superphase i.

    A wave-1 joiner re-roots its radius-r tree (depth <= 2r) under a
    center vertex, and a wave-2 joiner hangs under a wave-1 joiner, so
    r_{i+1} <= r_i + 2 (2 r_i + 1) = 5 r_i + 2 with r_0 = 0.
    """
    if i < 0:
        raise ValueError("superphase index must be >= 0")
    return (5**i - 1) // 2


def deterministic_size_bound(n: int, D: int) -> float:
    """Size budget of the deterministic skeleton: n (D+1) L + n.

    A cluster dying in superphase i keeps < t_i interconnection edges
    (one minimum boundary edge per adjacent cluster), so deaths cost
    <= n_i (t_i - 1) <= n (D+1)^(2^i) / (D+1)^(2^i - 1) = n (D+1) edges
    per superphase; joins add one edge each, <= n overall.  Linear in n
    for fixed D, like Lemma 6's randomized bound — the deterministic
    construction trades its larger constant for a far tighter
    worst-case stretch (:func:`deterministic_stretch_bound`).
    """
    if n < 1:
        return 0.0
    return float(n * (D + 1) * deterministic_phase_count(n, D) + n)


def deterministic_stretch_bound(n: int, D: int) -> float:
    """Worst-case stretch 2 * 5^(L-1) - 1 of the deterministic skeleton.

    A host edge (u, v) is either eventually intra-cluster (tree detour
    <= 2 r_i when the shared cluster dies) or covered when u's cluster
    dies in superphase i by its interconnection edge to v's cluster:
    detour <= 2 r_i + 1 + 2 r_i = 4 r_i + 1 = 2 * 5^i - 1 tree edges.
    Deaths happen no later than superphase L - 1, giving 2 * 5^(L-1) - 1
    — a worst-case (not with-high-probability) guarantee, unlike the
    randomized skeleton's Theorem 2 distortion.
    """
    phases = deterministic_phase_count(n, D)
    return float(4 * deterministic_radius_bound(phases - 1) + 1)


def protocol_size_budget(protocol: str, n: int, **params: float) -> float:
    """The analytic edge-count budget the fuzzer holds ``protocol`` to:
    the bound its registry row (:mod:`repro.core.protocols`) names, at
    the parameters the run resolves from ``params``.  ``survey`` builds
    no spanner and has no budget (``ValueError``)."""
    # Function-local: the registry imports this module's bounds.
    from repro.core.protocols import protocol_spec

    spec = protocol_spec(protocol)
    if spec.size_bound is None:
        raise ValueError(f"no size budget for protocol {protocol!r}")
    return spec.size_bound(n, spec.resolve(params))


def protocol_stretch_budget(
    protocol: str, n: int, **params: float
) -> Tuple[float, float]:
    """The ``(alpha, beta)`` stretch guarantee the fuzzer verifies, read
    like :func:`protocol_size_budget`.  Fibonacci's is the uniform
    envelope of Theorem 7's staged curve (checked separately via
    :func:`theorem7_distortion_bound`)."""
    from repro.core.protocols import protocol_spec

    spec = protocol_spec(protocol)
    if spec.stretch_bound is None:
        raise ValueError(f"no stretch budget for protocol {protocol!r}")
    return spec.stretch_bound(n, spec.resolve(params))


# ----------------------------------------------------------------------
# Section 3: lower-bound predictions
# ----------------------------------------------------------------------

def theorem3_expected_stretch(
    d: int, tau: int, c: float, mu: int
) -> float:
    """Theorem 3's lower bound on E[delta_H(u, v)] for a pair at distance d:

    d + 2(1 - 1/c)/(tau + 2) * (d - 3 tau - 11) - 1.
    """
    discount = max(0.0, (d - 3 * tau - 11) / (tau + 2))
    return d + 2 * (1 - 1 / c) * discount - 1


def theorem5_time_lower_bound(n: int, delta: float, beta: float) -> float:
    """Theorem 5: any additive-beta spanner of size n^{1+delta} needs
    Omega(sqrt(n^{1-delta} / beta)) rounds.  Returned without the constant.
    """
    return math.sqrt(n ** (1 - delta) / beta)


def theorem6_time_lower_bound(n: int, sigma: float, eps: float) -> float:
    """Theorem 6: d + O(d^{1-eps}) spanners of size n^{1+sigma} need
    Omega(n^{eps (1 - sigma)/(1 + eps)}) rounds.
    """
    return n ** (eps * (1 - sigma) / (1 + eps))


def critical_edge_discard_probability(c: float, mu: int) -> float:
    """p = 1 - 1/c - 1/(c mu): the per-critical-edge discard probability a
    size-(n^{1+delta}) spanner is forced into on G(tau, chi, mu) (Sect. 3).
    """
    return 1 - 1 / c - 1 / (c * mu)
