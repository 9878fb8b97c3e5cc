"""squeezeamp: numerical toolkit for squeezing-based amplification of
harmonic-oscillator displacements (squeeze -> displace -> anti-squeeze ->
sideband readout), with a motional-decoherence model and the fitting and
projection-noise statistics pipeline used to analyze such experiments.
"""

__version__ = "0.1.0"

from .fock import (
    FockSpace,
    MotionalState,
    DensityOperator,
    fock_state,
    vacuum,
    ladder_lowering,
    number_operator,
    fidelity,
)
from .gaussian import (
    Displacement,
    SqueezeParam,
    displacement_operator,
    coherent_state,
    squeezed_vacuum,
    displaced_squeezed_populations,
    amplify_displacement,
    squeeze_db,
)
from .lindblad import NoiseParams, PulseSequence, Segment, run_sequence
from .frame import amplification_sequence, amplify_with_noise
from .fitting import RabiTrace, FitResult, fit_state_model, extract_populations
from .experiments import ExperimentConfig, SweepResult
