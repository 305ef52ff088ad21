//! Timing decorators for the traced run. Each wraps a component or
//! feature behind the public `Component` / `ComponentFeature` /
//! `ChannelFeature` traits, forwards every call unchanged, and adds the
//! wall time of the hot hook to a shared [`Clock`]. The engine calls
//! hooks one at a time and routes emissions after a hook returns, so a
//! hook's wall time is that layer's self time.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use perpos_core::channel::ChannelHost;
use perpos_core::component::{ComponentCtx, ComponentDescriptor, MethodSpec};
use perpos_core::prelude::*;

/// Accumulated self time and call count of one layer. Only the
/// stepping thread writes it; the atomics exist because components must
/// be `Send`, and publish nothing but the statistic itself.
#[derive(Debug, Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    pub fn add(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.ns
            .store(self.ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        self.calls
            .store(self.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    /// `(ns, calls)` now, to measure a later stretch against.
    pub fn reading(&self) -> (u64, u64) {
        (self.ns(), self.calls())
    }
    /// Self nanoseconds per call since `before` (0 without calls).
    pub fn ns_per_call_since(&self, before: (u64, u64)) -> f64 {
        match self.calls() - before.1 {
            0 => 0.0,
            calls => (self.ns() - before.0) as f64 / calls as f64,
        }
    }
}

/// A component whose `on_input` and `on_tick` are timed.
pub struct Timed<C> {
    inner: C,
    clock: Arc<Clock>,
}

impl<C: Component> Timed<C> {
    pub fn new(inner: C, clock: Arc<Clock>) -> Self {
        Timed { inner, clock }
    }
}

impl<C: Component> Component for Timed<C> {
    fn descriptor(&self) -> ComponentDescriptor {
        self.inner.descriptor()
    }
    fn on_input(
        &mut self,
        port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        let start = Instant::now();
        let result = self.inner.on_input(port, item, ctx);
        self.clock.add(start);
        result
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        let start = Instant::now();
        let result = self.inner.on_tick(ctx);
        self.clock.add(start);
        result
    }
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        self.inner.invoke(method, args)
    }
    fn methods(&self) -> Vec<MethodSpec> {
        self.inner.methods()
    }
    fn on_reset(&mut self) {
        self.inner.on_reset();
    }
    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

/// A Component Feature whose interception hooks are timed.
pub struct TimedFeature<F> {
    inner: F,
    clock: Arc<Clock>,
}

impl<F: ComponentFeature + 'static> TimedFeature<F> {
    pub fn new(inner: F, clock: Arc<Clock>) -> Self {
        TimedFeature { inner, clock }
    }
}

impl<F: ComponentFeature + 'static> ComponentFeature for TimedFeature<F> {
    fn descriptor(&self) -> FeatureDescriptor {
        self.inner.descriptor()
    }
    fn on_consume(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let start = Instant::now();
        let result = self.inner.on_consume(item, host);
        self.clock.add(start);
        result
    }
    fn on_produce(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        let start = Instant::now();
        let result = self.inner.on_produce(item, host);
        self.clock.add(start);
        result
    }
    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        host: &mut FeatureHost<'_>,
    ) -> Result<Value, CoreError> {
        self.inner.invoke(method, args, host)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

/// A Channel Feature whose `apply` is timed.
pub struct TimedChannelFeature<F> {
    inner: F,
    clock: Arc<Clock>,
}

impl<F: ChannelFeature + 'static> TimedChannelFeature<F> {
    pub fn new(inner: F, clock: Arc<Clock>) -> Self {
        TimedChannelFeature { inner, clock }
    }
}

impl<F: ChannelFeature + 'static> ChannelFeature for TimedChannelFeature<F> {
    fn descriptor(&self) -> FeatureDescriptor {
        self.inner.descriptor()
    }
    fn apply(&mut self, tree: &DataTree, host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        let start = Instant::now();
        let result = self.inner.apply(tree, host);
        self.clock.add(start);
        result
    }
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        self.inner.invoke(method, args)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
    fn snapshot_state(&self) -> Option<Value> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, state: &Value) {
        self.inner.restore_state(state);
    }
}

/// Attaches `feature` to `node`, wrapped in a [`TimedFeature`] when a
/// clock is given.
pub fn attach_feature(
    mw: &mut Middleware,
    node: NodeId,
    feature: impl ComponentFeature + 'static,
    clock: Option<&Arc<Clock>>,
) -> Result<(), CoreError> {
    match clock {
        Some(clock) => mw.attach_feature(node, TimedFeature::new(feature, Arc::clone(clock))),
        None => mw.attach_feature(node, feature),
    }
}

/// Attaches `feature` to `channel`, wrapped in a [`TimedChannelFeature`]
/// when a clock is given.
pub fn attach_channel_feature(
    mw: &mut Middleware,
    channel: ChannelId,
    feature: impl ChannelFeature + 'static,
    clock: Option<&Arc<Clock>>,
) -> Result<(), CoreError> {
    match clock {
        Some(clock) => mw.attach_channel_feature(
            channel,
            TimedChannelFeature::new(feature, Arc::clone(clock)),
        ),
        None => mw.attach_channel_feature(channel, feature),
    }
}

/// The clocks of one traced pipeline, by layer.
#[derive(Debug, Default)]
pub struct Probes {
    pub parser: Arc<Clock>,
    pub interpreter: Arc<Clock>,
    pub feature: Arc<Clock>,
    pub channel: Arc<Clock>,
    pub pf: Arc<Clock>,
}

impl Probes {
    /// Self time of every wrapped layer together.
    pub fn wrapped_ns(&self) -> u64 {
        [
            &self.parser,
            &self.interpreter,
            &self.feature,
            &self.channel,
            &self.pf,
        ]
        .iter()
        .map(|c| c.ns())
        .sum()
    }
}
