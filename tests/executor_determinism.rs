//! Engine determinism suite: the engine's two ways of executing a run —
//! a [`Middleware::step`] loop and one [`Middleware::step_batch`] call,
//! which hoists the source list, queue and routing scratch across steps
//! — must be *observationally identical*: byte-identical channel data
//! trees, identical provider delivery history, and identical per-node
//! health records for the same trace, including traces with injected
//! panics and errors. Batching is a pure performance knob: it can never
//! change what the positioning process computes.

#![allow(clippy::unwrap_used)]
use std::any::Any;

use perpos::core::channel::{ChannelFeature, ChannelHost, DataTree};
use perpos::prelude::*;

/// A Channel Feature that records the exact rendered form of every data
/// tree it is applied to — the byte-level observable the determinism
/// contract is stated over.
#[derive(Default)]
struct TreeLog {
    rendered: Vec<String>,
}

impl TreeLog {
    const NAME: &'static str = "TreeLog";
}

impl ChannelFeature for TreeLog {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
    }
    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        self.rendered.push(tree.render());
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A stateful Component Feature tagging each produced item with a
/// sequence number — exercises the copy-on-write attribute path and the
/// per-node feature-call ordering across steps.
struct SeqTag {
    next: i64,
}

impl ComponentFeature for SeqTag {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("SeqTag").method(MethodSpec::new("seq", "() -> int"))
    }
    fn on_produce(
        &mut self,
        mut item: DataItem,
        _host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        self.next += 1;
        item.attrs.insert("seq", Value::Int(self.next));
        Ok(FeatureAction::Continue(item))
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A two-port merge that XOR-folds whichever branch delivers — arrival
/// *order* at a merge is exactly what a wrong schedule would scramble,
/// so its output is a sensitive determinism probe.
struct XorMerge;

impl Component for XorMerge {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::merge(
            "merge",
            vec![
                InputSpec::new("a", vec![kinds::RAW_STRING]),
                InputSpec::new("b", vec![kinds::RAW_STRING]),
            ],
            vec![kinds::RAW_STRING],
        )
    }
    fn on_input(
        &mut self,
        port: usize,
        item: DataItem,
        ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        if let Some(v) = item.payload.as_i64() {
            ctx.emit_value(
                kinds::RAW_STRING,
                Value::Int((v ^ 0x5a).wrapping_add(port as i64)),
            );
        }
        Ok(())
    }
}

fn source(name: &str, stride: i64) -> impl Component {
    let mut i = 0i64;
    FnSource::new(name.to_string(), kinds::RAW_STRING, move |_| {
        i += stride;
        Some(Value::Int(i))
    })
}

fn stage(name: &str, mut f: impl FnMut(i64) -> i64 + Send + 'static) -> impl Component {
    FnProcessor::new(
        name.to_string(),
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        move |item| item.payload.as_i64().map(|v| Value::Int(f(v)).into()),
    )
}

/// Everything the contract quantifies over, rendered to strings so the
/// comparison is byte-exact.
#[derive(Debug, PartialEq)]
struct Observed {
    trees: Vec<Vec<String>>,
    history: String,
    health: Vec<String>,
    steps: u64,
    now: SimTime,
}

/// Builds the shared scenario — three sources, two branches merging
/// into a two-port processor, a third independent branch, a stateful
/// feature on one branch — runs it for 100 steps, as one `step_batch`
/// call when `batched` and as a `step` loop otherwise, and collects
/// every observable. `faulty` additionally injects seeded panics and
/// errors under `DropItem` and `Quarantine` policies.
fn run_scenario(batched: bool, faulty: bool) -> Observed {
    let mut mw = Middleware::new();
    let src_a = mw.add_component(source("src-a", 1));
    let src_b = mw.add_component(source("src-b", 10));
    let src_c = mw.add_component(source("src-c", 100));
    let pa1 = mw.add_component(stage("pa1", |v| v * 2));
    let pa2 = mw.add_component(stage("pa2", |v| v + 3));
    let pb1 = mw.add_component(stage("pb1", |v| v - 1));
    let merge = mw.add_component(XorMerge);
    let pc1 = mw.add_component(stage("pc1", |v| v * 7));
    let app = mw.application_sink();
    mw.connect(src_a, pa1, 0).unwrap();
    mw.connect(pa1, pa2, 0).unwrap();
    mw.connect(pa2, merge, 0).unwrap();
    mw.connect(src_b, pb1, 0).unwrap();
    mw.connect(pb1, merge, 1).unwrap();
    mw.connect_to_sink(merge, app).unwrap();
    mw.connect(src_c, pc1, 0).unwrap();
    mw.connect_to_sink(pc1, app).unwrap();
    mw.attach_feature(pa1, SeqTag { next: 0 }).unwrap();

    if faulty {
        mw.attach_feature(
            pb1,
            FaultInjector::with_seed(42)
                .with_panic_rate(0.15)
                .with_error_rate(0.15),
        )
        .unwrap();
        mw.set_fault_policy(pb1, FaultPolicy::DropItem).unwrap();
        mw.attach_feature(pc1, FaultInjector::with_seed(7).with_panic_rate(0.3))
            .unwrap();
        mw.set_fault_policy(pc1, FaultPolicy::quarantine_default())
            .unwrap();
    }

    let channels: Vec<_> = mw.channels().iter().map(|c| c.id).collect();
    for &ch in &channels {
        mw.attach_channel_feature(ch, TreeLog::default()).unwrap();
    }
    let provider = mw.location_provider(Criteria::new()).unwrap();
    let tick = SimDuration::from_millis(100);
    if batched {
        mw.step_batch(100, tick).unwrap();
    } else {
        for _ in 0..100 {
            mw.step().unwrap();
            mw.advance_clock(tick);
        }
    }

    let trees = channels
        .iter()
        .map(|&ch| {
            mw.with_channel_feature_mut(ch, TreeLog::NAME, |log: &mut TreeLog| log.rendered.clone())
                .unwrap()
        })
        .collect();
    let health = mw
        .structure()
        .iter()
        .map(|n| format!("{}: {:?}", n.descriptor.name, mw.node_health(n.id)))
        .collect();
    Observed {
        trees,
        history: format!("{:?}", provider.history()),
        health,
        steps: mw.steps_run(),
        now: mw.now(),
    }
}

#[test]
fn executors_produce_identical_data_trees() {
    let looped = run_scenario(false, false);
    let batched = run_scenario(true, false);
    assert!(
        looped.trees.iter().all(|t| !t.is_empty()),
        "every channel must derive trees: {looped:?}"
    );
    assert!(!looped.history.is_empty());
    assert_eq!(looped.steps, 100);
    assert_eq!(looped, batched);
}

#[test]
fn executors_agree_under_injected_faults() {
    let looped = run_scenario(false, true);
    let batched = run_scenario(true, true);
    let total_faults = |o: &Observed| o.health.iter().filter(|h| !h.contains("faults: 0")).count();
    assert!(
        total_faults(&looped) >= 2,
        "both injectors must have fired: {:?}",
        looped.health
    );
    assert_eq!(looped, batched);
}

#[test]
fn healthy_branches_survive_a_quarantined_one() {
    // Not a loop-vs-batch comparison: a sanity check that the fault
    // scenario above still delivers data from the clean branches, so
    // the equality assertions are about a live system, not a dead one.
    let batched = run_scenario(true, true);
    assert!(
        batched.trees.iter().any(|t| !t.is_empty()),
        "clean branches keep deriving trees: {batched:?}"
    );
}
