//! The engine: one sequential loop that runs a middleware step.
//!
//! Each step delivers due remote messages and out-of-band reflective
//! emissions, ticks every live source in id order, then drains one FIFO
//! item queue a node at a time. Every per-node unit of work (consume
//! features → `on_input` → produce features, or a source tick) runs
//! behind a panic fence under the node's fault policy; routing and
//! channel bookkeeping follow in emission order. Per-node processing
//! order — and therefore every channel data tree, sink delivery and
//! [`HealthRegistry`] outcome — is a function of the input trace alone.
//!
//! Scheduling is not part of the positioning process the middleware
//! makes translucent, so it is not swappable: parallelism lives one
//! level up, in the fleet's shard scheduler
//! ([`crate::fleet::FleetScheduler`]), where whole instances are the
//! unit of work and share nothing.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::channel::ChannelLayer;
use crate::component::ComponentCtx;
use crate::data::{DataItem, DataKind, Payload, PayloadArena, Value};
use crate::distribution::Deployment;
use crate::feature::{FeatureAction, FeatureHost};
use crate::graph::{Node, NodeId, ProcessingGraph};
use crate::supervision::{FaultAction, HealthRegistry};
use crate::{CoreError, SimDuration, SimTime};

/// Everything one engine step may touch, borrowed from the
/// [`Middleware`](crate::Middleware) for the duration of the step (or
/// batch of steps).
pub(crate) struct EngineCtx<'a> {
    pub(crate) graph: &'a mut ProcessingGraph,
    pub(crate) channels: &'a mut ChannelLayer,
    pub(crate) health: &'a mut HealthRegistry,
    pub(crate) deployment: Option<&'a mut Deployment>,
    pub(crate) now: SimTime,
    /// The shard's payload arena, when interning is enabled. Output is
    /// byte-identical without it, since an interned and a plain payload
    /// holding the same value are indistinguishable.
    pub(crate) arena: Option<&'a mut PayloadArena>,
    /// Logical time driving arena reclamation: advanced once per
    /// completed step ([`EngineCtx::end_step`]), seeded from the
    /// middleware's step counter.
    pub(crate) watermark: u64,
    /// One-entry memo for [`ProcessingGraph::kind_id`] resolution,
    /// keyed by the address and length of a `Cow::Borrowed(&'static
    /// str)` kind. Statics are never freed, so pointer identity implies
    /// string identity; owned kinds bypass the memo. `(0, 0, None)`
    /// matches nothing. Sound across the context's lifetime because the
    /// kind table cannot change while the engine mutably borrows the
    /// graph.
    kind_memo: (usize, usize, Option<u16>),
}

/// How many completed steps between arena reclamation sweeps (a power
/// of two so the stride check folds to a mask). See
/// [`EngineCtx::end_step`].
const ARENA_ADVANCE_STRIDE: u64 = 8;

/// A queue entry: deliver `item` to input `port` of node.
type Entry = (NodeId, usize, DataItem);

/// FIFO entry queue with an inline head slot. In a linear pipeline the
/// queue never holds more than one in-flight entry, so the common case
/// stays out of the ring buffer entirely: no growth check, no index
/// arithmetic, no heap allocation — one `Option` on the stack. Order is
/// exactly FIFO: the slot is filled only when it is free *and* the ring
/// is empty (so everything in `rest` is younger than `head`), and pops
/// always drain the slot first.
#[derive(Default)]
struct RunQueue {
    head: Option<Entry>,
    rest: VecDeque<Entry>,
}

impl RunQueue {
    #[inline]
    fn push_back(&mut self, entry: Entry) {
        if self.head.is_none() && self.rest.is_empty() {
            self.head = Some(entry);
        } else {
            self.rest.push_back(entry);
        }
    }

    #[inline]
    fn pop_front(&mut self) -> Option<Entry> {
        match self.head.take() {
            Some(e) => Some(e),
            None => self.rest.pop_front(),
        }
    }
}

// ---------------------------------------------------------------------
// Per-node units of work
// ---------------------------------------------------------------------

/// Runs the consume-direction features of a node over an incoming item.
/// Returns the (possibly replaced) item and any data the features added.
fn consume_features(
    node: &mut Node,
    item: DataItem,
    now: SimTime,
) -> Result<(Option<DataItem>, Vec<DataItem>), CoreError> {
    let component = &mut node.component;
    let features = &mut node.features;
    let mut extras = Vec::new();
    let mut current = Some(item);
    for slot in features.iter_mut() {
        let mut host = FeatureHost::new(component.as_mut(), now);
        if let Some(it) = current.take() {
            let kind_before = it.kind.clone();
            match slot.feature.on_consume(it, &mut host)? {
                FeatureAction::Continue(out) => {
                    if out.kind != kind_before {
                        return Err(CoreError::ComponentFailure {
                            component: slot.descriptor.name.clone(),
                            reason: format!(
                                "feature changed item kind {kind_before} -> {}; features cannot change the data type (paper §2.1)",
                                out.kind
                            ),
                        });
                    }
                    current = Some(out);
                }
                FeatureAction::Drop => current = None,
            }
        }
        extras.extend(host.take_emitted());
    }
    Ok((current, extras))
}

/// Runs the produce-direction features over an item the node emitted,
/// pushing the surviving item (first) plus feature-added data onto
/// `out`, in routing order. Featureless nodes — the common case — pass
/// the item straight through with no intermediate collection.
fn produce_features(
    node: &mut Node,
    item: DataItem,
    now: SimTime,
    out: &mut Vec<DataItem>,
) -> Result<(), CoreError> {
    if node.features.is_empty() {
        out.push(item);
        return Ok(());
    }
    let component = &mut node.component;
    let features = &mut node.features;
    let insert_at = out.len();
    let mut current = Some(item);
    for slot in features.iter_mut() {
        let mut host = FeatureHost::new(component.as_mut(), now);
        if let Some(it) = current.take() {
            let kind_before = it.kind.clone();
            match slot.feature.on_produce(it, &mut host)? {
                FeatureAction::Continue(next) => {
                    if next.kind != kind_before {
                        return Err(CoreError::ComponentFailure {
                            component: slot.descriptor.name.clone(),
                            reason: format!(
                                "feature changed item kind {kind_before} -> {}; features cannot change the data type (paper §2.1)",
                                next.kind
                            ),
                        });
                    }
                    current = Some(next);
                }
                FeatureAction::Drop => current = None,
            }
        }
        out.extend(host.take_emitted());
    }
    if let Some(it) = current {
        // The survivor routes before the feature-added extras.
        out.insert(insert_at, it);
    }
    Ok(())
}

/// The node-local part of a source tick: `on_tick`, then the produce
/// features over every emission. Items ready for routing are pushed to
/// `out` incrementally, so on a mid-way fault `out` holds exactly the
/// emissions that completed their feature pass before the fault.
fn tick_unit(
    node: &mut Node,
    now: SimTime,
    out: &mut Vec<DataItem>,
    emit: &mut Vec<DataItem>,
    arena: Option<&mut PayloadArena>,
) -> Result<(), CoreError> {
    // Featureless nodes — the common case — emit straight into the
    // routing buffer: no per-emission feature pass, no second move.
    if node.features.is_empty() {
        let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(out), arena);
        let r = node.component.on_tick(&mut ctx);
        let mut buf = ctx.take_emitted();
        if r.is_err() {
            // A failing tick routes nothing, same as the feature path
            // where `emitted` dies with the context.
            buf.clear();
        }
        *out = buf;
        return r;
    }
    let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(emit), arena);
    node.component.on_tick(&mut ctx)?;
    let mut emitted = ctx.take_emitted();
    for item in emitted.drain(..) {
        produce_features(node, item, now, out)?;
    }
    *emit = emitted;
    Ok(())
}

/// The node-local part of one item delivery: consume features,
/// `on_input`, produce features over every emission. Push order into
/// `out` (extras first, then per-emission outputs) is the routing
/// order.
fn input_unit(
    node: &mut Node,
    port: usize,
    item: DataItem,
    now: SimTime,
    out: &mut Vec<DataItem>,
    emit: &mut Vec<DataItem>,
    arena: Option<&mut PayloadArena>,
) -> Result<(), CoreError> {
    // Featureless fast path, mirroring `tick_unit`: deliver and emit
    // straight into the routing buffer.
    if node.features.is_empty() {
        let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(out), arena);
        let r = node.component.on_input(port, item, &mut ctx);
        let mut buf = ctx.take_emitted();
        if r.is_err() {
            // A failing delivery routes nothing, matching the feature
            // path where `emitted` dies with the context.
            buf.clear();
        }
        *out = buf;
        return r;
    }
    let (passed, extras) = consume_features(node, item, now)?;
    out.extend(extras);
    let Some(item) = passed else { return Ok(()) };
    let mut ctx = ComponentCtx::with_buffer(now, std::mem::take(emit), arena);
    node.component.on_input(port, item, &mut ctx)?;
    let mut emitted = ctx.take_emitted();
    for item in emitted.drain(..) {
        produce_features(node, item, now, out)?;
    }
    *emit = emitted;
    Ok(())
}

/// Reusable per-engine buffers for the unit path.
/// `out` collects a unit's routed outputs; `emit` is loaned to
/// [`ComponentCtx`] so component emissions reuse one allocation across
/// every unit of a step — and, for batched callers, across steps.
#[derive(Default)]
struct Scratch {
    out: Vec<DataItem>,
    emit: Vec<DataItem>,
}

/// Renders a caught panic payload for fault records; panics carry a
/// `&str` or `String` message in practice.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// EngineCtx — routing, supervision bookkeeping, shared step scaffolding
// ---------------------------------------------------------------------

impl EngineCtx<'_> {
    pub(crate) fn new<'a>(
        graph: &'a mut ProcessingGraph,
        channels: &'a mut ChannelLayer,
        health: &'a mut HealthRegistry,
        deployment: Option<&'a mut Deployment>,
        now: SimTime,
        arena: Option<&'a mut PayloadArena>,
        watermark: u64,
    ) -> EngineCtx<'a> {
        EngineCtx {
            graph,
            channels,
            health,
            deployment,
            now,
            arena,
            watermark,
            kind_memo: (0, 0, None),
        }
    }

    /// Marks one step complete: bumps the logical-time watermark and
    /// periodically lets the arena seal/retire generations against it.
    /// Called after every successfully drained step.
    ///
    /// Reclamation is amortized over [`ARENA_ADVANCE_STRIDE`] steps:
    /// sealing less often only delays when slots recycle (the free list
    /// self-balances by allocating fresh slots in the meantime) — the
    /// bytes flowing through the graph are untouched either way, since
    /// the arena changes where values live, never what they are.
    fn end_step(&mut self) {
        self.watermark += 1;
        if self.watermark.is_multiple_of(ARENA_ADVANCE_STRIDE) {
            if let Some(arena) = self.arena.as_deref_mut() {
                arena.advance(self.watermark);
            }
        }
    }

    /// Best-effort display name of a node.
    fn node_name(&self, id: NodeId) -> String {
        self.graph
            .node(id)
            .map(|n| n.descriptor.name.clone())
            .unwrap_or_else(|| format!("{id:?}"))
    }

    /// Channel bookkeeping plus downstream fan-out for one finished item.
    fn route_item(
        &mut self,
        id: NodeId,
        item: DataItem,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let now = self.now;
        if let Some(tree) = self.channels.record(id, &item) {
            // Channel Features are the only user code on the routing
            // path; the panic fence sits exactly here so the pure
            // bookkeeping around it stays fence-free.
            let EngineCtx {
                graph, channels, ..
            } = self;
            let caught = catch_unwind(AssertUnwindSafe(|| {
                channels.apply_features(graph, &tree, now)
            }));
            let emitted = match caught {
                Ok(r) => r?,
                Err(payload) => {
                    return Err(CoreError::ComponentFailure {
                        component: self.node_name(id),
                        reason: format!("panic: {}", panic_message(payload.as_ref())),
                    })
                }
            };
            for (node, extra) in emitted {
                self.route_item(node, extra, queue)?;
            }
        }
        // Split the borrows so the downstream slice resolves once per
        // item while the deployment stays mutably reachable.
        let EngineCtx {
            graph,
            deployment,
            kind_memo,
            ..
        } = self;
        let downstream = graph.downstream(id);
        // Resolve the item's kind against the dense kind table once;
        // each edge check is then a `u16` comparison, not a string one.
        // Static kinds (the `kinds::*` constants, i.e. every hot path)
        // resolve by pointer identity against the memo instead of a
        // string search.
        let kind_id = match item.kind.as_static() {
            Some(s) => {
                let key = (s.as_ptr() as usize, s.len());
                if (key.0, key.1) == (kind_memo.0, kind_memo.1) {
                    kind_memo.2
                } else {
                    let resolved = graph.kind_id(&item.kind);
                    *kind_memo = (key.0, key.1, resolved);
                    resolved
                }
            }
            None => graph.kind_id(&item.kind),
        };
        // Single-edge fast path — the overwhelmingly common shape in a
        // linear pipeline: one acceptance check, item moved, no counting
        // pass.
        if let [(target, port)] = *downstream {
            if graph.accepts_by_id(target, port, kind_id) {
                match deployment.as_deref_mut() {
                    Some(d) if d.crosses_hosts(id, target) => {
                        d.send(now, id, target, port, item);
                    }
                    _ => queue.push_back((target, port, item)),
                }
            }
            return Ok(());
        }
        let mut remaining = downstream
            .iter()
            .filter(|&&(t, p)| graph.accepts_by_id(t, p, kind_id))
            .count();
        let mut item = Some(item);
        for &(target, port) in downstream {
            if !graph.accepts_by_id(target, port, kind_id) {
                continue;
            }
            remaining -= 1;
            // The last accepting edge takes the item by move; earlier
            // edges clone (cheap: payload and attrs are Arc-shared).
            let routed = if remaining == 0 {
                item.take()
                    .expect("exactly `remaining` accepting edges follow")
            } else {
                item.as_ref()
                    .expect("exactly `remaining` accepting edges follow")
                    .clone()
            };
            // Cross-host edges go through the deployment's link model.
            match deployment.as_deref_mut() {
                Some(d) if d.crosses_hosts(id, target) => {
                    d.send(now, id, target, port, routed);
                }
                _ => queue.push_back((target, port, routed)),
            }
        }
        Ok(())
    }

    /// Delivers due remote messages and routes out-of-band reflective
    /// emissions — the common step prelude.
    fn drain_prelude(
        &mut self,
        pending: Vec<(NodeId, DataItem)>,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let now = self.now;
        if let Some(dep) = self.deployment.as_deref_mut() {
            for (target, port, item) in dep.take_due(now) {
                if self.graph.contains(target) {
                    queue.push_back((target, port, item));
                }
            }
        }
        for (node, item) in pending {
            if self.graph.contains(node) {
                self.route_item(node, item, queue)?;
            }
        }
        Ok(())
    }

    /// Applies a contained fault to the node per its policy.
    fn resolve_fault(&mut self, id: NodeId, err: CoreError) -> Result<(), CoreError> {
        match self.health.on_fault(id, self.now, &err.to_string()) {
            FaultAction::Propagate => Err(err),
            FaultAction::Drop => Ok(()),
            FaultAction::Restart | FaultAction::Quarantine => {
                if let Some(node) = self.graph.node_mut(id) {
                    node.component.on_reset();
                }
                Ok(())
            }
        }
    }

    /// Routes what a unit produced and settles its supervision outcome.
    ///
    /// Routing happens even when the unit faulted mid-way: `out` holds
    /// exactly the items that were ready to route before the fault hit. Routing errors — including Channel Feature panics,
    /// fenced inside [`route_item`](Self::route_item) — are attributed
    /// to the node like any other fault. `out` is drained, not consumed,
    /// so callers can reuse one buffer across units.
    fn finish_unit(
        &mut self,
        id: NodeId,
        unit: Result<(), CoreError>,
        out: &mut Vec<DataItem>,
        queue: &mut RunQueue,
    ) -> Result<(), CoreError> {
        let mut route = Ok(());
        for item in out.drain(..) {
            route = self.route_item(id, item, queue);
            if route.is_err() {
                // The drain guard discards what's left unrouted.
                break;
            }
        }
        let err = match (route, unit) {
            (Err(e), _) => Some(e),
            (Ok(()), Err(e)) => Some(e),
            (Ok(()), Ok(())) => None,
        };
        match err {
            Some(e) => self.resolve_fault(id, e),
            None => {
                self.health.record_success(id, self.now);
                Ok(())
            }
        }
    }

    /// Ticks one source: unit, then routing + supervision.
    /// `scratch.out` is drained before return.
    fn run_source(
        &mut self,
        id: NodeId,
        queue: &mut RunQueue,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let unit = match self.graph.node_mut(id) {
            None => Err(CoreError::UnknownNode(id)),
            Some(node) => {
                let now = self.now;
                let arena = self.arena.as_deref_mut();
                let Scratch { out, emit } = scratch;
                let caught =
                    catch_unwind(AssertUnwindSafe(|| tick_unit(node, now, out, emit, arena)));
                match caught {
                    Ok(r) => r,
                    Err(payload) => Err(CoreError::ComponentFailure {
                        component: self.node_name(id),
                        reason: format!("panic: {}", panic_message(payload.as_ref())),
                    }),
                }
            }
        };
        self.finish_unit(id, unit, &mut scratch.out, queue)
    }

    /// Processes one queue entry: unit, then routing + supervision.
    /// `scratch.out` is drained before return.
    fn run_entry(
        &mut self,
        id: NodeId,
        port: usize,
        item: DataItem,
        queue: &mut RunQueue,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        let unit = match self.graph.node_mut(id) {
            None => Err(CoreError::UnknownNode(id)),
            Some(node) => {
                let now = self.now;
                let arena = self.arena.as_deref_mut();
                let Scratch { out, emit } = scratch;
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    input_unit(node, port, item, now, out, emit, arena)
                }));
                match caught {
                    Ok(r) => r,
                    Err(payload) => Err(CoreError::ComponentFailure {
                        component: self.node_name(id),
                        reason: format!("panic: {}", panic_message(payload.as_ref())),
                    }),
                }
            }
        };
        self.finish_unit(id, unit, &mut scratch.out, queue)
    }

    /// Runs `steps` engine steps back to back, advancing `self.now` by
    /// `tick` after every completed step. Each step delivers due remote
    /// messages and `pending` out-of-band emissions (first step only),
    /// ticks all live sources, then drains the item queue. A single step
    /// is a one-step batch with a zero tick.
    ///
    /// The source list (structure cannot change mid-batch), the FIFO
    /// queue and the per-unit routing scratch are hoisted across the
    /// whole batch, so the inner loop allocates nothing of its own.
    ///
    /// # Errors
    ///
    /// Propagates the first fault of a node whose policy is
    /// `Propagate`; faults under any other policy are contained. Stops
    /// at the first step error, leaving `self.now` at the failing step's
    /// time (so the caller can recover the completed-step count).
    pub(crate) fn step_batch(
        &mut self,
        mut pending: Vec<(NodeId, DataItem)>,
        steps: u64,
        tick: SimDuration,
    ) -> Result<(), CoreError> {
        let sources = self.graph.sources();
        let mut queue = RunQueue::default();
        let mut scratch = Scratch::default();
        for _ in 0..steps {
            self.drain_prelude(std::mem::take(&mut pending), &mut queue)?;
            self.drain(&sources, &mut queue, &mut scratch)?;
            self.now += tick;
            self.end_step();
        }
        Ok(())
    }

    /// One step's drain over a precomputed source list: tick every live
    /// source in id order, then FIFO-drain the queue one node at a time.
    /// `scratch` is the reusable per-unit output buffer.
    fn drain(
        &mut self,
        sources: &[NodeId],
        queue: &mut RunQueue,
        scratch: &mut Scratch,
    ) -> Result<(), CoreError> {
        for &src in sources {
            if self.health.is_quarantined(src, self.now) {
                continue;
            }
            self.run_source(src, queue, scratch)?;
        }
        while let Some((node, port, item)) = queue.pop_front() {
            // Items addressed to a quarantined node are dropped: the
            // breaker is open, nothing may excite the component.
            if self.health.is_quarantined(node, self.now) {
                continue;
            }
            self.run_entry(node, port, item, queue, scratch)?;
        }
        Ok(())
    }

    /// Block ingest: every `lines` element becomes one engine step in
    /// which `source` emits the line as a [`Value::Text`] item of `kind`
    /// — interned straight into the arena when one is attached — instead
    /// of being ticked. Produce features, routing, channel bookkeeping,
    /// supervision and the watermark advance are exactly the per-step
    /// machinery, with the queue and routing scratch hoisted across the
    /// whole block (the same hoisting [`EngineCtx::step_batch`] does), so
    /// the per-line path allocates nothing in steady state.
    ///
    /// Returns the number of lines ingested (= steps run). Lines offered
    /// while the source is quarantined are consumed and dropped, exactly
    /// as a quarantined source's tick is skipped.
    pub(crate) fn ingest_batch(
        &mut self,
        mut pending: Vec<(NodeId, DataItem)>,
        source: NodeId,
        kind: &DataKind,
        lines: &[&str],
        tick: SimDuration,
    ) -> Result<u64, CoreError> {
        if !self.graph.contains(source) {
            return Err(CoreError::UnknownNode(source));
        }
        let mut queue = RunQueue::default();
        let mut scratch = Scratch::default();
        let mut ingested = 0u64;
        for &line in lines {
            self.drain_prelude(std::mem::take(&mut pending), &mut queue)?;
            if !self.health.is_quarantined(source, self.now) {
                // Build the item as if `source` emitted it this tick.
                let payload = match self.arena.as_deref_mut() {
                    Some(arena) => arena.intern_with(|slot| match slot {
                        // Reuse the recycled slot's String capacity.
                        Value::Text(s) => {
                            s.clear();
                            s.push_str(line);
                        }
                        other => *other = Value::Text(line.to_string()),
                    }),
                    None => Payload::new(Value::Text(line.to_string())),
                };
                let item = DataItem::new(kind.clone(), self.now, payload);
                // The unit for an injected emission is the produce-feature
                // pass alone (there is no on_tick); panics are contained
                // and attributed to the source like any tick fault. A
                // featureless source runs no user code here, so the
                // panic fence is skipped.
                let unit = match self.graph.node_mut(source) {
                    None => Err(CoreError::UnknownNode(source)),
                    Some(node) if node.features.is_empty() => {
                        scratch.out.push(item);
                        Ok(())
                    }
                    Some(node) => {
                        let now = self.now;
                        let out = &mut scratch.out;
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            produce_features(node, item, now, out)
                        }));
                        match caught {
                            Ok(r) => r,
                            Err(payload) => Err(CoreError::ComponentFailure {
                                component: self.node_name(source),
                                reason: format!("panic: {}", panic_message(payload.as_ref())),
                            }),
                        }
                    }
                };
                self.finish_unit(source, unit, &mut scratch.out, &mut queue)?;
                // One panic fence around the whole drain instead of one
                // per unit: `current` names the node whose unit is in
                // flight, so a caught unwind is attributed and settled
                // exactly as the per-unit fence in
                // [`run_entry`](Self::run_entry) would —
                // the unit's partial emissions still route, the fault
                // policy still applies, and the drain resumes.
                let mut current = source;
                loop {
                    let caught = {
                        let (cur, q, s) = (&mut current, &mut queue, &mut scratch);
                        catch_unwind(AssertUnwindSafe(|| -> Result<(), CoreError> {
                            while let Some((node, port, item)) = q.pop_front() {
                                if self.health.is_quarantined(node, self.now) {
                                    continue;
                                }
                                *cur = node;
                                let unit = match self.graph.node_mut(node) {
                                    None => Err(CoreError::UnknownNode(node)),
                                    Some(n) => input_unit(
                                        n,
                                        port,
                                        item,
                                        self.now,
                                        &mut s.out,
                                        &mut s.emit,
                                        self.arena.as_deref_mut(),
                                    ),
                                };
                                self.finish_unit(node, unit, &mut s.out, q)?;
                            }
                            Ok(())
                        }))
                    };
                    match caught {
                        Ok(r) => {
                            r?;
                            break;
                        }
                        Err(payload) => {
                            let err = CoreError::ComponentFailure {
                                component: self.node_name(current),
                                reason: format!("panic: {}", panic_message(payload.as_ref())),
                            };
                            self.finish_unit(current, Err(err), &mut scratch.out, &mut queue)?;
                        }
                    }
                }
            }
            ingested += 1;
            self.now += tick;
            self.end_step();
        }
        Ok(ingested)
    }
}
