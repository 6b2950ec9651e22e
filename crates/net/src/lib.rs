//! # ts-net
//!
//! A deterministic, event-driven **flow-level network fabric** for the
//! serving simulator.
//!
//! The legacy KV-transfer model charges each prefill→decode transfer a
//! fixed alpha-beta cost and serializes transfers only on the sender's
//! uplink — receiver downlinks, shared node NICs and concurrent flows never
//! contend. That is optimistic on exactly the slow, shared cloud networks
//! the paper targets (§5, Table 5). This crate supplies the standard
//! substitution for packet-level simulation: model every transfer as a
//! *fluid flow* over a small set of capacitated links and share each link's
//! bandwidth **max-min fairly** among the flows crossing it, reallocating
//! whenever a flow starts or finishes.
//!
//! * [`topology`] — the link graph derived from a [`ts_cluster::Cluster`]:
//!   per-node NIC uplinks/downlinks, intra-node buses and one inter-node
//!   fabric link per unordered node pair;
//! * [`maxmin`] — the progressive-filling max-min fair allocator, run over
//!   path classes (one per distinct path, with a member count) so a round
//!   costs touched links × classes, not links × flows; it keeps its inputs
//!   up to date as members come and go, so a fill rebuilds nothing;
//! * [`flow`] — [`flow::FlowFabric`], the event-driven flow registry: each
//!   change costs one fill over the live path classes and one pass over
//!   the flows, which drains them, re-estimates every completion and
//!   caches the earliest, so its caller needs a single re-armed timer
//!   rather than one event per estimate.
//!
//! Determinism: flows live in a vector sorted by the caller's flow id, and
//! the allocator iterates links and classes in index order with
//! lowest-index tie-breaking — so the allocation (and therefore every
//! completion estimate) depends only on the *set* of active flows, never
//! on the order they were inserted.

pub mod flow;
pub mod maxmin;
pub mod topology;

pub use flow::{FabricWork, FlowFabric};
pub use topology::FabricTopology;
