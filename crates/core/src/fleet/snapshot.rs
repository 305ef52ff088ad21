//! Versioned instance checkpoints: everything a [`Middleware`] needs to
//! resume byte-identically after a crash.
//!
//! A [`Snapshot`] captures the *dynamic* state of one middleware
//! instance — logical time, per-channel ring state, supervision records,
//! pending reflective emissions and the opaque per-component /
//! per-feature state exposed through
//! [`Component::snapshot_state`](crate::component::Component::snapshot_state) —
//! together with a signature of the graph *structure* it was taken from.
//! Restoring applies that state into a structurally identical instance
//! (typically rebuilt by the same factory that built the original), so
//! component code and wiring come from the factory while every counter,
//! buffer and RNG position comes from the checkpoint. The contract,
//! proven by `tests/fleet_recovery.rs`: a restored instance stepped `k`
//! times produces byte-identical trees, history and health to the
//! original stepped `k` times without interruption.
//!
//! [`Middleware`]: crate::Middleware

use crate::channel::ChannelLayerSnapshot;
use crate::data::{DataItem, Value};
use crate::distribution::Deployment;
use crate::graph::{NodeId, ProcessingGraph};
use crate::supervision::HealthRegistry;
use crate::SimTime;

/// Version tag written into every [`Snapshot`].
///
/// Version rules: the number is bumped whenever the captured state's
/// shape changes incompatibly (a field added to the channel ring state,
/// a different health-registry layout, a field dropped, …).
/// [`Middleware::restore`](crate::Middleware::restore) rejects
/// snapshots whose version differs from the build's — a fleet never
/// silently resumes from a checkpoint it may misinterpret.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Structural identity of one node, used to verify that a snapshot is
/// restored into the graph it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeSignature {
    pub id: NodeId,
    pub name: String,
    pub inputs: Vec<Option<NodeId>>,
    pub features: Vec<String>,
}

/// The structure signature of a whole graph: node ids are allocated
/// sequentially and never reused, so a factory rebuilding the same
/// pipeline reproduces identical ids and the signatures compare equal.
pub(crate) fn structure_signature(graph: &ProcessingGraph) -> Vec<NodeSignature> {
    graph
        .node_ids()
        .filter_map(|id| graph.info(id).ok())
        .map(|info| NodeSignature {
            id: info.id,
            name: info.descriptor.name,
            inputs: info.inputs,
            features: info.features.into_iter().map(|f| f.name).collect(),
        })
        .collect()
}

/// A checkpoint of one middleware instance; see the module docs.
///
/// Snapshots are in-memory values (cheap: payloads stay behind shared
/// `Arc`s) created by [`Middleware::snapshot`](crate::Middleware::snapshot)
/// and consumed by [`Middleware::restore`](crate::Middleware::restore).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) version: u32,
    pub(crate) structure: Vec<NodeSignature>,
    pub(crate) now: SimTime,
    pub(crate) steps_run: u64,
    pub(crate) channels: ChannelLayerSnapshot,
    pub(crate) health: HealthRegistry,
    pub(crate) pending: Vec<(NodeId, DataItem)>,
    pub(crate) deployment: Option<Deployment>,
    /// Opaque per-component state, only for components that returned
    /// `Some` from `snapshot_state`.
    pub(crate) component_state: Vec<(NodeId, Value)>,
    /// Opaque per-feature state, keyed by `(node, feature index)`.
    pub(crate) feature_state: Vec<((NodeId, usize), Value)>,
}

impl Snapshot {
    /// The format version the snapshot was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Simulated time at capture.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine steps the instance had run at capture.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Number of nodes in the captured structure.
    pub fn node_count(&self) -> usize {
        self.structure.len()
    }
}
