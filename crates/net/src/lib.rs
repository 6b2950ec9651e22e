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
//! bandwidth **max-min fairly** among the flows crossing it, recomputing
//! the allocation whenever a flow starts or finishes.
//!
//! * [`topology`] — the link graph derived from a [`ts_cluster::Cluster`]:
//!   per-node NIC uplinks/downlinks, intra-node buses and pairwise
//!   inter-node fabric links;
//! * [`maxmin`] — the progressive-filling max-min fair allocator;
//! * [`flow`] — [`flow::FlowFabric`], the event-driven flow registry: it
//!   tracks remaining bytes per flow, re-estimates every flow's completion
//!   time after each change, and names the earliest one, so its caller
//!   needs a single cancellable timer rather than one event per estimate.
//!
//! Determinism: flows live in a [`std::collections::BTreeMap`] keyed by the
//! caller's flow id, and the allocator iterates links and flows in index
//! order with lowest-index tie-breaking — so the allocation (and therefore
//! every completion estimate) depends only on the *set* of active flows,
//! never on the order they were inserted.

pub mod flow;
pub mod maxmin;
pub mod topology;

pub use flow::FlowFabric;
pub use maxmin::max_min_allocate;
pub use topology::FabricTopology;
