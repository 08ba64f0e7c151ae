"""Quantization dimensions of conformal measures on 1-D iterated function systems.

The pipeline: describe a contraction system and a summable potential
family, compute the two-parameter pressure and its temperature
function, solve the fixed point that yields the quantization dimension,
then check the prediction empirically by sampling the measure and
optimizing codebooks.

The sampling stack, ``qdim.measure`` and ``qdim.quantizer``, loads on
first use: both modules are in ``sys.modules`` from ``import qdim`` on,
but their code runs only when one of their attributes is first read.
The theory commands (``pressure``, ``beta``, ``qdim``, ``dimh``,
``sweep``, ``figure1``) never run it.  ``import qdim`` exposes the same
names as before, ``qdim.sample_measure`` and ``qdim.Codebook`` among
them; reading one of those loads its module.
"""

__version__ = "0.1.0"

from .errors import (BracketError, DegenerateSystemError, NonSummableError,
                     NumericalFailure, QdimError, SpecFormatError)
from .ifs import (AnalyticBranch1D, FiniteAlphabet, GeometricTail, IfsSystem,
                  InfiniteAlphabet, PowerLawTail, Similarity1D, Word, cantor_system,
                  compose_and_derivative, cylinder_interval, gauss_system,
                  geometric_similarity_system, similarity_system)
from .potentials import (ConstantLogWeights, DerivativeFamily, FiniteWeights,
                         GeometricWeights, PotentialFamily, birkhoff_sum,
                         derivative_family, geometric_weight_family,
                         log_weight_family, normalize_pressure)
from .pressure import (BetaSolution, FigureData, PressureEstimate, QdimSolution,
                       SweepResult, TemperatureSample, beta_of_q,
                       estimate_pressure, hausdorff_dim, is_multiplicative,
                       legendre_and_figure_data, solve_beta, solve_quantization_dim,
                       temperature_curve, theta_of_q, truncation_sweep,
                       truncation_tail_bound)
from .specio import load_spec

# each name a lazily loaded module re-exports here -> that module
_LAZY_OWNER = {
    **dict.fromkeys(("SampleSet", "cylinder_mass", "load_sample", "sample_measure",
                     "save_sample", "wasserstein_1d"), "measure"),
    **dict.fromkeys(("AntichainResult", "Codebook", "QuantizationRun",
                     "antichain_codebook", "estimate_Dr", "lloyd_optimize", "quant_error"),
                    "quantizer"),
}


def _lazy_submodule(name: str):
    """Register ``qdim.<name>`` in sys.modules; its code runs at first attribute access."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


measure = _lazy_submodule("measure")
quantizer = _lazy_submodule("quantizer")


def __getattr__(name: str):
    owner = _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__():
    return sorted({*globals(), *_LAZY_OWNER})
