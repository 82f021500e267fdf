"""Bundled experiment families used by the reproduction suites.

The Gaussian means are the classic three-hypothesis setup where hypothesis 2
is hard to tell from the truth (KL 0.02) and hypothesis 3 is easy (KL 0.5).

The discrete table is this package's stand-in for a three-point family whose
published counterpart is only available as a plot: the exact probabilities
are not recoverable, so these values are chosen to reproduce the same regime
structure and a likelihood bound of about 3.5 (self-computed, see
``likelihood_bound``), not to match any exact source values:

* hypothesis 2 is close to hypothesis 1 (KL 0.050) while the complement
  mixture is far (KL 0.463), so with a small self-weight the mislearning
  condition fires for tx = 2;
* hypothesis 3 is well separated (KL 2.721), so the collapse-to-zero
  condition fires for tx = 3 on every network: as defined here that
  condition reads only alpha, which is 1 on every network of two or more
  agents, so it does not depend on the network;
* max |log ratio| between hypotheses 1 and 3 is log(0.8/0.024) = 3.507.
"""

from __future__ import annotations

from .likelihoods import DiscreteFamily, GaussianFamily

BUNDLED_GAUSSIAN_MEANS = (0.0, 0.2, 1.0)

BUNDLED_DISCRETE_PMF = (
    (0.800, 0.176, 0.024),
    (0.700, 0.200, 0.100),
    (0.024, 0.176, 0.800),
)


def bundled_gaussian_family() -> GaussianFamily:
    return GaussianFamily(BUNDLED_GAUSSIAN_MEANS)


def bundled_discrete_family() -> DiscreteFamily:
    return DiscreteFamily(BUNDLED_DISCRETE_PMF)
