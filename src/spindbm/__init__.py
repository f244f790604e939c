"""Deep Boltzmann machines on +-1 spins with coupled-chain unbiased gradients.

The package trains two-hidden-layer Boltzmann machines end to end. The
log-likelihood gradient is estimated without bias by running pairs of
Metropolis-Hastings chains under a lag-1 maximal coupling, initializing
them near local modes of the energy found by discrete block search so
the chains meet almost immediately. Exact enumeration oracles for tiny
models certify the estimators, and a benchmark harness compares the
Metropolis coupling against the classical Gibbs-based one.
"""

from .bench import (ALL_ARMS, BenchArm, BenchRecord, emit_csv,
                    run_coupling_sweep, summarize)
from .coupling import (CoupledRun, CouplingTruncatedError, coupling_time_stats,
                       gibbs_couple_joint, mh_couple_joint, mh_couple_posterior,
                       mh_coupled_trajectory, mh_step, telescope_estimate,
                       telescope_terms)
from .data import (BinaryDataset, Mask, binarize_u8, debinarize_u8,
                   load_idx_images, lower_half_mask, read_rows, rectangle_mask,
                   spins_to_images, synthetic_patterns, to_spin_dataset)
from .model import (CheckpointError, DbmParams, DbmShape, DimensionError,
                    GradEstimate, HiddenState, JointState, energy,
                    grad_energy_even_marginal, grad_energy_odd_marginal,
                    grad_energy_odd_posterior, grad_from_rows, load_params,
                    save_params, uniform_spins)
from .oracle import (ExactDistribution, SizeCapError, enumerate_joint,
                     enumerate_posterior, exact_grad_loglik, exact_loglik,
                     exact_mh_transition_matrix)
from .search import (SearchDivergenceError, SearchResult, block_minimize_joint,
                     block_minimize_posterior, gibbs_sweep_joint,
                     gibbs_sweep_posterior, local_search_clamped,
                     local_search_joint, local_search_posterior)
from .training import (MeanFieldState, NonFiniteUpdateError, StepMetrics,
                       TrainConfig, complete, init_params, init_persistent_chains,
                       make_optimizer, mean_field_posterior,
                       negative_phase_estimate, pcd_step,
                       positive_phase_estimate, sample, train, train_step,
                       unbiasedness_report)

__version__ = "0.1.0"
