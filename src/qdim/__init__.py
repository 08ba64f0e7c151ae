"""Quantization dimensions of conformal measures on 1-D iterated function systems.

The pipeline: describe a contraction system and a summable potential
family, compute the two-parameter pressure and its temperature
function, solve the fixed point that yields the quantization dimension,
then check the prediction empirically by sampling the measure and
optimizing codebooks.
"""

__version__ = "0.1.0"

from .errors import (BracketError, DegenerateSystemError, NonSummableError,
                     NumericalFailure, QdimError, SpecFormatError)
from .ifs import (AnalyticBranch1D, FiniteAlphabet, GeometricTail, IfsSystem,
                  InfiniteAlphabet, PowerLawTail, Similarity1D, Word, cantor_system,
                  compose_and_derivative, cylinder_interval, gauss_system,
                  geometric_similarity_system, similarity_system)
from .measure import (SampleSet, cylinder_mass, load_sample, sample_measure,
                      save_sample, wasserstein_1d)
from .potentials import (ConstantLogWeights, DerivativeFamily, FiniteWeights,
                         GeometricWeights, PotentialFamily, birkhoff_sum,
                         derivative_family, geometric_weight_family,
                         log_weight_family, normalize_pressure)
from .pressure import (FigureData, PressureEstimate, QdimSolution, SweepResult,
                       TemperatureSample, beta_of_q,
                       estimate_pressure, hausdorff_dim, is_multiplicative,
                       legendre_and_figure_data, solve_quantization_dim,
                       temperature_curve, theta_of_q, truncation_sweep,
                       truncation_tail_bound)
from .quantizer import (AntichainResult, Codebook, QuantizationRun,
                        antichain_codebook, estimate_Dr, lloyd_optimize,
                        quant_error)
from .specio import load_spec
