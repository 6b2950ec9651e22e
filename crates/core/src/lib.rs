//! # thunderserve-core
//!
//! The paper's primary contribution: the two-level scheduling algorithm of
//! §3 plus the lightweight rescheduling mechanism of §3.4.
//!
//! Scheduling is posed as a hierarchical optimization problem:
//!
//! * **Upper level** ([`tabu`]): partition the available GPUs into model
//!   serving groups and designate each group's phase (prefill or decode).
//!   The space is searched with tabu search (Algorithm 1), seeded by
//!   hierarchical clustering on the inter-GPU bandwidth matrix and explored
//!   with four neighbourhood moves: *flip* a group's phase, *split* a group,
//!   *merge* two groups, and *move* GPUs between groups.
//! * **Lower level** ([`parallel`], [`mod@orchestrate`]): for a fixed group
//!   construction, deduce each group's optimal parallel configuration
//!   (Algorithm 2 — TP confined to single-type, single-node GPU sets;
//!   pipeline stages ordered by the bitmask routing DP; layers partitioned
//!   proportionally to stage capacity) and solve the capacity-bounded
//!   transportation problem that routes request flow across (prefill,
//!   decode) replica pairs.
//!
//! [`reschedule`] implements the lightweight variant: only phase flips and
//! re-orchestration, with parallel configurations frozen and no parameter
//! reloads, so it completes in milliseconds of compute and zero service
//! interruption.
//!
//! # Examples
//!
//! ```
//! use thunderserve_core::{Scheduler, SchedulerConfig};
//! use ts_cluster::presets;
//! use ts_common::{ModelSpec, SimDuration, SloSpec};
//! use ts_workload::spec;
//!
//! let cluster = presets::network_case_cluster(presets::ETH_40GBPS);
//! let slo = SloSpec::new(
//!     SimDuration::from_secs(2),
//!     SimDuration::from_millis(150),
//!     SimDuration::from_secs(20),
//! );
//! let mut cfg = SchedulerConfig::fast(); // trimmed search for doctests
//! cfg.seed = 7;
//! let scheduler = Scheduler::new(cfg);
//! let result = scheduler
//!     .schedule(&cluster, &ModelSpec::llama_13b(), &spec::coding(1.0), &slo)
//!     .unwrap();
//! let (prefill, decode) = result.plan.phase_ratio();
//! assert!(prefill >= 1 && decode >= 1);
//! ```

pub mod candidate;
pub mod config;
pub mod orchestrate;
pub mod parallel;
pub mod reschedule;
pub mod scheduler;
pub mod tabu;

pub use config::SchedulerConfig;
pub use orchestrate::orchestrate;
pub use parallel::deduce_parallel_config;
pub use reschedule::{full_reschedule, lightweight_reschedule, RescheduleOutcome};
pub use scheduler::{ModelEstimate, MultiScheduleResult, ScheduleResult, Scheduler};
