"""Autotuning toolkit for package build configurations.

Models build outcomes over a dependency graph with factorized good/bad
densities, adaptively samples configurations likely to build, analyzes
which packages and version pairs drive failure, and simulates build
campaigns over deduplicated dependency DAGs.
"""
from .analysis import (
    CompatibilityMatrix,
    ForbiddenPair,
    ImportanceEntry,
    extract_constraints,
    importance_ranking,
    js_divergence,
    pair_compatibility,
)
from .buildsim import (
    BuildDag,
    NodeStatus,
    PlantedRuleSet,
    SimReport,
    SyntheticOracle,
    build_dag,
    generate_benchmark,
    simulate,
    synthetic_oracle,
)
from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    config_digest,
    load_graph,
    random_configuration,
    save_graph,
    space_size,
    validate_graph,
)
from .dataset import (
    BuildRecord,
    Dataset,
    DatasetError,
    DatasetOracle,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .metrics import (
    ExperimentReport,
    auprc,
    auprc_experiment,
    sweep_experiment,
)
from .rng import derive_seed, substream
from .sampler import (
    STRATEGIES,
    BuildOracle,
    NoCandidatesError,
    ObservationHistory,
    RunResult,
    SamplerConfig,
    run,
    run_many,
)
from .surrogate import (
    FactorModel,
    crowd_score_many,
    expected_improvement_many,
    fit,
    load_model,
    save_model,
)

__version__ = "0.1.0"
