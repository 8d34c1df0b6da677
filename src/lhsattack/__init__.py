"""Decision-based boundary attack with Latin hypercube gradient sampling.

A query-efficient black-box adversarial attack engine: the target model is
visible only as a sign oracle (+1 = adversarial, -1 = not), and the attack
walks the decision boundary toward the original input, estimating the
boundary normal from batches of signed probes. Probe noise can be drawn by
Latin hypercube sampling — one sample per equal-probability stratum and
dimension — or by plain independent sampling, and the two are coupled per
seed so their comparison is paired.

Layout: :mod:`~lhsattack.samplers` (noise batches and the normal quantile
transform), :mod:`~lhsattack.oracles` (sign oracles, query ledger, line
protocol, weights files), :mod:`~lhsattack.attack` (the boundary walk),
:mod:`~lhsattack.harness` (experiment configs, batch runs, CSV reports),
:mod:`~lhsattack.cli` (command-line front end).
"""

from .attack import (
    AttackConfig,
    AttackTrace,
    BoundaryPoint,
    GradientEstimate,
    TraceRow,
    bin_search,
    clip,
    estimate_gradient,
    initialize_adversarial,
    run_attack,
    schedule_probe_step,
    schedule_samples,
    schedule_step_size,
    step_forward,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateSampleError,
    EstimateDegenerateError,
    InitFailedError,
    LhsAttackError,
    OracleFailedError,
    ProtocolError,
    QueryBudgetExceededError,
    StepFailedError,
    WeightsFormatError,
)
from .harness import (
    ExperimentConfig,
    OracleSpecConfig,
    PointsConfig,
    SummaryRow,
    build_oracle,
    distortion_at_budget,
    emit_trace_csv,
    parse_config,
    run_experiment,
    serialize_config,
)
from .oracles import (
    ExternalOracle,
    HalfspaceOracle,
    HypersphereOracle,
    MeteredOracle,
    MlpLayer,
    MlpModel,
    MlpOracle,
    QueryLedger,
    load_mlp,
    mlp_forward,
    save_mlp,
    serve_oracle,
    true_gradient,
)
from .samplers import (
    SampleBatch,
    batch_discrepancy,
    inverse_normal_cdf,
    lhs_normal,
    normal_cdf,
    normalize_rows,
    srs_normal,
)

__version__ = "0.1.0"
