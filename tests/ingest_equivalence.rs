//! Block-ingest equivalence: [`Middleware::ingest_batch`] must be a
//! *transport*, not a semantic: feeding N pre-lexed lines through it is
//! observationally byte-identical to an N-step run whose source emits
//! the same lines from `on_tick` — trees, history, channel counters,
//! health, clocks — including with seeded panics and quarantines firing
//! mid-drain (the batch path hoists its panic fence around the whole
//! per-line drain; attribution and fault policy must come out exactly
//! as the per-unit fence produces them).

#![allow(clippy::unwrap_used)]
use std::any::Any;
use std::sync::Arc;

use perpos::core::channel::{ChannelFeature, ChannelHost, ChannelId, DataTree};
use perpos::prelude::*;

/// Records the rendered form of every tree it observes.
#[derive(Default)]
struct TreeLog(Vec<String>);

impl TreeLog {
    const NAME: &'static str = "TreeLog";
}

impl ChannelFeature for TreeLog {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new(Self::NAME)
    }
    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        self.0.push(tree.render());
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn trace_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("$GPGGA,123519,4807.038,N,01131.000,E,1,08,0.9,545.4,M,{i:05}"))
        .collect()
}

/// src -> upper -> tail -> app, optionally with a panic injector
/// (dropped per item) on `upper` and an error injector (quarantining)
/// on `tail`.
fn build(lines: Arc<Vec<String>>, scripted: bool, faulty: bool) -> (Middleware, NodeId, ChannelId) {
    let mut mw = Middleware::new();
    let mut i = 0usize;
    let src = mw.add_component(FnSource::new("trace", kinds::RAW_STRING, move |_| {
        if !scripted {
            return None;
        }
        let line = lines.get(i)?;
        i += 1;
        Some(Value::Text(line.clone()))
    }));
    let upper = mw.add_component(FnProcessor::new(
        "upper",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |item| {
            item.payload
                .as_text()
                .map(|t| Value::Text(t.to_ascii_uppercase()).into())
        },
    ));
    let tail = mw.add_component(FnRelay::new(
        "tail",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
    ));
    let app = mw.application_sink();
    mw.connect(src, upper, 0).unwrap();
    mw.connect(upper, tail, 0).unwrap();
    let port = mw.connect_to_sink(tail, app).unwrap();
    let channel = mw.channel_into(app, port).unwrap();
    mw.attach_channel_feature(channel, TreeLog::default())
        .unwrap();
    mw.subscribe_channel_history(channel, 32).unwrap();
    if faulty {
        mw.attach_feature(
            upper,
            FaultInjector::with_seed(42)
                .with_panic_rate(0.2)
                .with_error_rate(0.1),
        )
        .unwrap();
        mw.set_fault_policy(upper, FaultPolicy::DropItem).unwrap();
        mw.attach_feature(tail, FaultInjector::with_seed(7).with_panic_rate(0.25))
            .unwrap();
        mw.set_fault_policy(tail, FaultPolicy::quarantine_default())
            .unwrap();
    }
    (mw, src, channel)
}

fn observe(
    mw: &mut Middleware,
    channel: ChannelId,
) -> (Vec<String>, Vec<String>, Value, Vec<String>, u64, SimTime) {
    let trees = mw
        .with_channel_feature_mut(channel, TreeLog::NAME, |log: &mut TreeLog| log.0.clone())
        .unwrap();
    let history = mw
        .channel_history(channel)
        .unwrap()
        .iter()
        .map(DataTree::render)
        .collect();
    let stats = mw.channel_stats(channel).unwrap();
    let health = mw
        .structure()
        .iter()
        .map(|n| format!("{}: {:?}", n.descriptor.name, mw.node_health(n.id)))
        .collect();
    (
        trees,
        history,
        Value::from(format!("{stats:?}")),
        health,
        mw.steps_run(),
        mw.now(),
    )
}

fn assert_ingest_equals_tick(faulty: bool, arena: bool) {
    let lines = Arc::new(trace_lines(150));
    let tick = SimDuration::from_micros(50);

    let (mut ticked, _, tick_chan) = build(Arc::clone(&lines), true, faulty);
    ticked.set_arena_enabled(arena);
    ticked.step_batch(lines.len() as u64, tick).unwrap();

    let (mut batched, src, batch_chan) = build(Arc::clone(&lines), false, faulty);
    batched.set_arena_enabled(arena);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let ingested = batched
        .ingest_batch(src, kinds::RAW_STRING, &refs, tick)
        .unwrap();
    assert_eq!(ingested, lines.len() as u64);

    let tick_view = observe(&mut ticked, tick_chan);
    let batch_view = observe(&mut batched, batch_chan);
    assert!(!tick_view.0.is_empty(), "the pipeline produced trees");
    assert_eq!(
        tick_view, batch_view,
        "ingest_batch diverged from the tick loop (faulty={faulty}, arena={arena})"
    );
}

#[test]
fn block_ingest_equals_scripted_tick_loop() {
    assert_ingest_equals_tick(false, true);
}

#[test]
fn block_ingest_equals_scripted_tick_loop_without_arena() {
    assert_ingest_equals_tick(false, false);
}

#[test]
fn block_ingest_equivalence_holds_under_injected_faults() {
    assert_ingest_equals_tick(true, true);
    assert_ingest_equals_tick(true, false);
}

#[test]
fn faulty_ingest_actually_exercised_the_fault_paths() {
    // Keep the equivalence above honest: the seeded injectors must have
    // fired during the batched run — at least one dropped panic on
    // `upper` and at least one quarantine on `tail`.
    let lines = Arc::new(trace_lines(150));
    let (mut mw, src, _) = build(Arc::clone(&lines), false, true);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    mw.ingest_batch(src, kinds::RAW_STRING, &refs, SimDuration::from_micros(50))
        .unwrap();
    let faults: u64 = mw
        .structure()
        .iter()
        .map(|n| mw.node_health(n.id).faults)
        .sum();
    assert!(faults >= 2, "injectors never fired (faults={faults})");
}
