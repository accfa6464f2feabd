"""Training-set selection toolkit: URS, FPS and gradient-guided FPS over
labeled datasets, with a kernel-ridge-regression benchmark harness."""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    Configuration,
    GenerationError,
    LabeledSet,
    XyzParseError,
    descriptor_local_radial,
    gradient_norm,
    labeled_set_from_configurations,
    parse_extended_xyz,
    synth_boltzmann_set,
    write_extended_xyz,
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
    KernelSpec,
    assemble_kernel,
    fit,
    fit_prefixes,
    predict,
)
from .sampling import (  # noqa: F401
    BetaSchedule,
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
    SurfaceSpec,
    adversarial_value_and_gradient,
    st_gradient,
    st_value,
    surface_from_spec,
    uniform_domain_sample,
)
