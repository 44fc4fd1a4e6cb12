"""Polya-inverse Gamma random variates and the Gibbs samplers they enable:
fully Bayesian inference of Dirichlet concentration parameters and of the
gamma shape parameter, with Laplace-transform and quadrature oracles."""

from .chain import ChainConfig, PosteriorSamples
from .dirichlet import (AlphaPrior, CountMatrix, DirichletChainState,
                        posterior_predictive, quadrature_posterior, run_chain,
                        run_chain_homogeneous)
from .gammashape import (GammaShapeChainState, GammaShapePrior, ShapeHyper,
                         run_shape_chain, shape_hyper,
                         shape_posterior_quadrature)
from .pig import (PigParams, PigSamplerConfig, pig_laplace_closed,
                  pig_laplace_product, pig_sample)
from .rng import (BIT_GENERATOR, child_rng, dirichlet_log_sample, make_rng,
                  truncated_normal_sample)
from .special import EULER_GAMMA, digamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "AlphaPrior", "BIT_GENERATOR", "ChainConfig", "CountMatrix",
    "DirichletChainState", "EULER_GAMMA", "GammaShapeChainState",
    "GammaShapePrior", "PigParams", "PigSamplerConfig", "PosteriorSamples",
    "ShapeHyper", "child_rng", "digamma", "dirichlet_log_sample", "log_gamma",
    "make_rng", "pig_laplace_closed", "pig_laplace_product", "pig_sample",
    "posterior_predictive", "quadrature_posterior", "run_chain",
    "run_chain_homogeneous", "run_shape_chain", "shape_hyper",
    "shape_posterior_quadrature", "truncated_normal_sample",
]
