"""Stochastic bandits over undirected feedback graphs.

Simulation of UCB and Thompson-sampling policies that learn from
neighborhood observations, exact maximum-independent-set machinery, the
gap-band decomposition behind the improved regret analysis, closed-form
bound evaluation, and a brute-force verifier for the core band-budget
inequality.
"""

from .bounds import (
    BoundReport,
    alpha_log_factor,
    bound_report,
    confidence_scale,
    gap_free_regret_bound,
    hardness,
    log_alpha_bound,
    log_horizon_bound,
    ucbn_regret_bound,
)
from .env import BERNOULLI, BanditInstance, GapProfile, gaps, observe, sample_round
from .errors import CapabilityError, ConfigError, GraphBanditsError, InputError
from .graph import (
    DEFAULT_EXACT_LIMIT,
    FeedbackGraph,
    IndependentSetResult,
    complete,
    cycle,
    disjoint_cliques,
    edgeless,
    erdos_renyi,
    independence_number,
    max_independent_set,
    parse_graph_spec,
    star,
)
from .lemma import (
    BandBudgetReport,
    SequenceInstance,
    VerificationReport,
    all_max_sequence,
    exhaustive_verify,
    verify_decomposition,
    verify_instance,
    verify_sequence,
)
from .phases import (
    PhaseBand,
    PhaseDecomposition,
    RegretMass,
    decompose,
    max_phase_index,
    phase_of,
    regret_mass,
)
from .policies import (
    POLICY_NAMES,
    TsNPolicy,
    Ucb1Policy,
    UcbNPolicy,
    exploration_bonus,
    make_policy,
)
from .sim import (
    EpisodeResult,
    ExperimentConfig,
    RegretReport,
    SweepRow,
    default_checkpoints,
    episode_stream,
    run_episode,
    run_experiment,
    sweep_alpha,
    write_report,
)
from .config import experiment_config_from_dict, load_experiment_config

__version__ = "0.1.0"
