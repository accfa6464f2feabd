"""Training-set selection toolkit: URS, FPS and gradient-guided FPS over
labeled datasets, with a kernel-ridge-regression benchmark harness."""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    GenerationError,
    LabeledSet,
    synth_boltzmann_set,
)
from .experiments import (  # noqa: F401
    CurvePoint,
    DegenerateDistributionError,
    ExperimentPlan,
    ForceNormBin,
    ReplicateError,
    bin_errors_by_force_norm,
    cross_validate,
    kde_1d,
    learning_curve,
    run_experiment,
    selection_heatmap_2d,
)
from .krr import (  # noqa: F401
    FactorizationError,
    fit,
    fit_prefixes,
    predict,
)
from .sampling import (  # noqa: F401
    CapacityError,
    SamplerConfig,
    SelectionResult,
    beta_schedule,
    fps,
    ggfps,
    ggfps_chains,
    select,
    urs,
)
from .surfaces import (  # noqa: F401
    AdversarialToy,
    StyblinskiTang,
    adversarial_value_and_gradient,
    st_gradient,
    st_value,
    uniform_domain_sample,
)
