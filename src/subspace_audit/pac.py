"""Sample budgets and the exact one-sided error law for subsampled queries.

The subsampled band test errs only by accepting a measure the full scan would
reject.  With `size` bins drawn uniformly without replacement out of
`total_bins`, of which `violating_bins` violate the band, that happens exactly
when the sample misses every violating bin, so the error probability is
hypergeometric — a constant-free oracle for every Monte-Carlo experiment in
this package.

The budget formulas bound that error a priori through a range-space argument:
the band constraints form two families of axis-aligned half-spaces, each of
VC dimension at most n + 1, whose union has dimension O(n log n) in the
number of encoded features; feeding that dimension into the classical
epsilon-net sample bound gives a sufficient number of sampled bins
(`sample_size(eps, delta_prob, vc_dimension_bound(n))`; a caller who prefers
the per-family dimension passes d = n + 1 instead).  The asymptotic
statements carry no constants, so explicit ones are pinned here to make the
numbers reproducible: the net bound's as module constants, and the union
constant as the default that `sample-size --union-constant` overrides.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

from .errors import ParameterError

# constants of the two-term epsilon-net bound in `sample_size`
NET_CONSTANT = 8.0
TAIL_CONSTANT = 4.0
TAIL_LOG_NUMERATOR = 2.0


def vc_dimension_bound(n_features: int, union_constant: float = 2.0) -> int:
    """Ceiled O(n log n) bound on the dimension of the union range space.

    Evaluates ceil(union_constant * (n + 1) * log2(n + 2)) and never returns
    less than n + 1, the dimension of a single half-space family.
    """
    if n_features < 1:
        raise ParameterError("n_features must be at least 1")
    try:
        scale = (n_features + 1) * math.log2(n_features + 2)
    except OverflowError:  # an int beyond the float range
        scale = math.inf
    if scale == math.inf:
        raise ParameterError("n_features is too large for a finite bound")
    raw = union_constant * scale
    if not 0 < raw < math.inf:
        raise ParameterError("union_constant must be positive and give a finite bound")
    return max(math.ceil(raw), n_features + 1)


def sample_size(eps: float, delta_prob: float, vc_dim: int) -> int:
    """Bin budget sufficient for an eps-net at confidence 1 - delta_prob.

    Classical two-term bound with the Haussler-Welzl constants:

        s = ceil(max((NET_CONSTANT * d / eps) * ln(NET_CONSTANT * d / eps),
                     (TAIL_CONSTANT / eps) * ln(TAIL_LOG_NUMERATOR / delta_prob)))

    The result is non-increasing in eps and delta_prob and non-decreasing in
    vc_dim.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie strictly inside (0, 1)")
    if not 0.0 < delta_prob < 1.0:
        raise ParameterError("delta_prob must lie strictly inside (0, 1)")
    if vc_dim < 1:
        raise ParameterError("vc_dim must be at least 1")
    net_arg = NET_CONSTANT * vc_dim / eps
    net_term = net_arg * math.log(net_arg) if net_arg > 1.0 else 0.0
    tail_term = (TAIL_CONSTANT / eps) * math.log(TAIL_LOG_NUMERATOR / delta_prob)
    if max(net_term, tail_term) == math.inf:
        raise ParameterError("the sample budget overflows: eps too small or vc_dim too large")
    return max(1, math.ceil(max(net_term, tail_term)))


def analytic_false_positive(total_bins: int, violating_bins: int, size: int) -> float:
    """P[a uniform without-replacement sample of `size` bins misses all violators].

    Exactly C(total - violating, size) / C(total, size), evaluated via
    log-gamma so grids up to ~1e9 bins stay in floating range.  Returns 1.0
    when nothing violates (the TRUE verdict is then correct, so no error
    occurs) and 0.0 once the sample is too large to avoid the violating set.
    Always at most (1 - violating/total)**size, the with-replacement bound.
    """
    if total_bins < 1:
        raise ParameterError("total_bins must be at least 1")
    if not 0 <= violating_bins <= total_bins:
        raise ParameterError("violating_bins must lie in [0, total_bins]")
    if not 1 <= size <= total_bins:
        raise ParameterError("size must lie in [1, total_bins]")
    if violating_bins == 0:
        return 1.0
    clean = total_bins - violating_bins
    if size > clean:
        return 0.0
    log_p = _log_comb(clean, size) - _log_comb(total_bins, size)
    return min(1.0, math.exp(log_p))


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
