"""The coefficients a synthetic sample's generator implies.

A comparator for fits on `scorecraft.data_io.gen_synthetic` samples: under
class-conditional independence the population log odds are additive in
the attributes, so these coefficients are the population's own scorecard.
"""

import math

import numpy as np

from scorecraft.data_io import DataError


def implied_true_beta(cfg):
    """Coefficients the generator implies under class-conditional independence.

    Intercept log(n_good/n_bad); attribute weight log(PGood/PBad) where both
    class probabilities are positive, 0 where both are zero.  An attribute
    drawn by only one class has no finite weight and raises.
    """
    cfg.validate()
    beta = np.zeros(cfg.spec.q)
    beta[0] = math.log(cfg.n_good / cfg.n_bad)
    for ch in cfg.spec.characteristics:
        pg = np.asarray(cfg.good_probs[ch.name], dtype=float)
        pb = np.asarray(cfg.bad_probs[ch.name], dtype=float)
        for k, att in enumerate(ch.attributes):
            if pg[k] > 0 and pb[k] > 0:
                beta[att.att_index] = math.log(pg[k] / pb[k])
            elif pg[k] == 0 and pb[k] == 0:
                beta[att.att_index] = 0.0
            else:
                raise DataError(
                    f"attribute {att.att_index} ({ch.name!r}) is drawn by only "
                    "one class; its implied weight is not finite"
                )
    return beta
