"""flashlab: EPR experiments for relativistic flash-collapse models.

Simulates the flash process of a relativistic spontaneous-collapse
theory next to a preferred-frame variant and a local hidden-variable
model, classifies each against quantum agreement, no-signalling,
locality, effective locality, and effective causality, and certifies,
over every side A table against side B's best response, that no
deterministic strategy with pre-given randomness can match the quantum
correlations while staying effectively causal.
"""

from .classify import (
    ClassificationReport,
    ClassifyConfig,
    TestResult,
    classify,
    default_frames_probe,
)
from .determinism import (
    Certificate,
    CertifyConfig,
    DeterministicStrategy,
    InfluenceEvidence,
    JanusRealization,
    chsh_of,
    enumerate_strategies,
    epr_filter,
    influence_witness_search,
    janus_run,
    no_effectively_causal_nonlocal_determinism_check,
    past_influence_probe,
    wigner_check,
)
from .minkowski import (
    Event,
    Frame,
    Region,
    SimultaneityTie,
    boost,
    interval,
    order_flip_rapidity,
    precedes,
    regions_spacelike,
    spacelike,
)
from .models import (
    EnsembleRequest,
    ExperimentRun,
    Flash,
    FlashEnsemble,
    InconclusiveRunError,
    ModelId,
    ModelParams,
    ensembles,
    run_model,
    write_flash_csv,
)
from .quantum import (
    NormalizationError,
    Outcome,
    PureState,
    Setting,
    SettingPair,
    ZeroProbabilityError,
    born_conditional,
    born_joint,
    born_marginal,
    chsh_value,
    collapse,
    correlator,
    singlet,
)
from .randomness import BitsExhausted, mix_seed

__version__ = "0.1.0"
