//! # ts-common
//!
//! Shared vocabulary types for the ThunderServe serving stack.
//!
//! This crate defines the small, dependency-free data model that every other
//! crate in the workspace builds on: identifiers ([`GpuId`], [`RequestId`]),
//! simulated time ([`SimTime`], [`SimDuration`]), model descriptions
//! ([`ModelSpec`]), inference phases ([`Phase`]), parallelism configurations
//! ([`ParallelConfig`]), serving requests ([`Request`]), service-level
//! objectives ([`SloSpec`]) and the deployment-plan data model
//! ([`DeploymentPlan`]) produced by the scheduler and consumed by the
//! simulator and runtime.
//!
//! # Examples
//!
//! ```
//! use ts_common::{ModelSpec, ParallelConfig, Phase};
//!
//! let model = ModelSpec::llama_30b();
//! assert!(model.param_count() > 30_000_000_000 / 2); // ~32.5B params
//! let pc = ParallelConfig::new(2, 2).unwrap();
//! assert_eq!(pc.world_size(), 4);
//! assert_eq!(Phase::Prefill.opposite(), Phase::Decode);
//! ```

pub mod catalog;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod model;
pub mod par;
pub mod parallel;
pub mod phase;
pub mod plan;
pub mod plan_io;
pub mod request;
pub mod rng;
pub mod slab;
pub mod slo;
pub mod stats;
pub mod time;

pub use catalog::{validate_catalog, ServedModel};
pub use error::{Error, Result};
pub use ids::{GpuId, GroupId, ModelId, NodeId, RequestId};
pub use model::{DType, ModelSpec};
pub use par::{resolve_threads, with_worker_pool, ShardedCache};
pub use parallel::ParallelConfig;
pub use phase::Phase;
pub use plan::{DeploymentPlan, GroupSpec, ModelRouting, RoutingMatrix, RoutingSupport, StageSpec};
pub use request::Request;
pub use rng::{derive_seed, seeded_rng};
pub use slab::{Slab, SlabKey};
pub use slo::{SloKind, SloSpec};
pub use stats::percentile;
pub use time::{SimDuration, SimTime};
