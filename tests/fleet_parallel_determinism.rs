//! Parallel fleet determinism suite: a [`FleetPool`] stepped by the
//! work-stealing scheduler — at any worker count, with any shard
//! visitation order — must be *byte-identical* to the serial run. Not
//! statistically close: the same `ShardStats` counters, the same
//! checkpoint contents, the same per-instance channel histories, health
//! records and clocks, under seeded environmental faults that exercise
//! the whole escalation ladder (containment, checkpoint-restart,
//! quarantine), under both tree policies, and
//! through mid-soak checkpoint/restore. This is the contract
//! `perpos_core::fleet::scheduler` states; here it is pinned against a
//! chaotic fleet rather than argued from the chunk-alignment proof.

#![allow(clippy::unwrap_used)]
use perpos::core::channel::{ChannelId, TreePolicy};
use perpos::core::component::{ComponentCtx, ComponentDescriptor};
use perpos::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-step failure probability of a faulty instance's source — high
/// enough that 96 rounds of a 24-instance fleet walk every rung of the
/// escalation ladder (the tests assert they did).
const STEP_FAIL_PROB: f64 = 0.05;

const ROUNDS: u64 = 96;

fn tick() -> SimDuration {
    SimDuration::from_millis(100)
}

/// A counting source whose counter rides through checkpoints while its
/// fault schedule stays environmental: the RNG is not snapshotted and
/// is reseeded per incarnation (same contract as the fleet soak bench).
struct FlakySource {
    counter: i64,
    rng: Option<StdRng>,
}

impl Component for FlakySource {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("flaky", vec![kinds::RAW_STRING])
    }
    fn on_input(
        &mut self,
        _p: usize,
        _i: DataItem,
        _c: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Ok(())
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if let Some(rng) = self.rng.as_mut() {
            if rng.gen::<f64>() < STEP_FAIL_PROB {
                return Err(CoreError::ComponentFailure {
                    component: "flaky".to_string(),
                    reason: "injected fault".to_string(),
                });
            }
        }
        self.counter += 1;
        ctx.emit_value(kinds::RAW_STRING, Value::Int(self.counter));
        Ok(())
    }
    fn snapshot_state(&self) -> Option<Value> {
        Some(Value::Int(self.counter))
    }
    fn restore_state(&mut self, state: &Value) {
        if let Some(v) = state.as_i64() {
            self.counter = v;
        }
    }
}

/// Builds one instance: flaky source, pass-through stage, history
/// subscription on the application channel. Structure is identical for
/// every index, so the returned node/channel ids hold fleet-wide.
fn build_instance(policy: TreePolicy, rng: Option<StdRng>) -> (Middleware, NodeId, ChannelId) {
    let mut mw = Middleware::new();
    mw.set_tree_policy(policy);
    let src = mw.add_boxed_component(Box::new(FlakySource { counter: 0, rng }));
    let stage = mw.add_component(FnProcessor::new(
        "stage",
        vec![kinds::RAW_STRING],
        kinds::RAW_STRING,
        |i| Some(i.payload.clone()),
    ));
    let app = mw.application_sink();
    mw.connect(src, stage, 0).unwrap();
    let port = mw.connect_to_sink(stage, app).unwrap();
    let channel = mw.channel_into(app, port).unwrap();
    mw.subscribe_channel_history(channel, 64).unwrap();
    (mw, src, channel)
}

/// The fleet factory: every third instance is faulty. Restart reseeding
/// uses one incarnation counter per index, so the seed of incarnation
/// `n` of instance `i` is a pure function of `(i, n)` — byte-identical
/// whatever order a parallel scheduler rebuilds crashed instances in.
fn chaotic_factory(
    policy: TreePolicy,
    capacity: usize,
) -> impl Fn(usize) -> Middleware + Send + Sync + 'static {
    let incarnations: Arc<Vec<AtomicU64>> =
        Arc::new((0..capacity).map(|_| AtomicU64::new(0)).collect());
    move |index| {
        let rng = (index % 3 == 0).then(|| {
            let n = incarnations[index].fetch_add(1, Ordering::Relaxed);
            StdRng::seed_from_u64(
                0xc4a05 ^ (index as u64).wrapping_mul(0x9E37_79B9) ^ n.wrapping_mul(0xC0FF_EE11),
            )
        });
        build_instance(policy, rng).0
    }
}

/// Quarantine-prone configuration: small shards, a tight fault window
/// and a short backoff, so 96 chaotic rounds make every shard visit
/// Backoff and some visit Quarantined — and come back.
fn config(scheduler: FleetScheduler) -> FleetConfig {
    FleetConfig {
        shards: 4,
        instances: 24,
        checkpoint_every: 4,
        shard_fault_threshold: 4,
        shard_fault_window: 8,
        shard_backoff: 4,
        seed: 0xf1ee7,
        scheduler,
    }
}

fn pool(policy: TreePolicy, scheduler: FleetScheduler) -> FleetPool {
    FleetPool::new(config(scheduler), chaotic_factory(policy, 24))
}

/// Everything the byte-equality contract is stated over: supervision
/// counters, latest checkpoint contents, and per-instance rendered
/// histories, health records and clocks.
type Observation = (
    Vec<ShardStats>,
    Vec<String>,
    Vec<(Vec<String>, Value, u64, SimTime)>,
);

fn observe(pool: &FleetPool, src: NodeId, chan: ChannelId) -> Observation {
    let stats = pool.stats().shards;
    let mut checkpoints = Vec::new();
    let mut instances = Vec::new();
    for shard in pool.shards() {
        for i in 0..shard.len() {
            checkpoints.push(format!("{:?}", shard.checkpoint(i)));
            let mw = shard.instance(i).unwrap();
            let trees: Vec<String> = mw
                .channel_history(chan)
                .unwrap()
                .iter()
                .map(|t| t.render())
                .collect();
            instances.push((
                trees,
                mw.node_health(src).to_value(),
                mw.steps_run(),
                mw.now(),
            ));
        }
    }
    (stats, checkpoints, instances)
}

/// Ids shared by every instance the factory builds (identical
/// structure), taken from a probe instance.
fn probe_ids(policy: TreePolicy) -> (NodeId, ChannelId) {
    let (_, src, chan) = build_instance(policy, None);
    (src, chan)
}

/// Asserts the chaos actually exercised the ladder: containment alone
/// would make the equality below vacuous.
fn assert_chaotic(stats: &FleetStats) {
    assert!(stats.instance_faults() > 0, "faults fired");
    assert!(stats.restarts() > 0, "checkpoint-restarts fired");
    assert!(stats.quarantines() > 0, "quarantines fired");
    assert!(stats.missed_steps() > 0, "backoff skipped rounds");
}

#[test]
fn work_stealing_matches_serial_across_executors_and_policies() {
    // Every shard executor — work stealing at 1, 2 and 8 workers and
    // seeded permuted visitation — reproduces the serial bytes under
    // both tree policies.
    for policy in [TreePolicy::Lazy, TreePolicy::Eager] {
        let (src, chan) = probe_ids(policy);
        let mut serial = pool(policy, FleetScheduler::Serial);
        serial.run(ROUNDS, tick());
        assert_chaotic(&serial.stats());
        let reference = observe(&serial, src, chan);
        let schedulers = [1usize, 2, 8]
            .map(|workers| FleetScheduler::WorkStealing { workers })
            .into_iter()
            .chain([FleetScheduler::Permuted { seed: 3 }]);
        for scheduler in schedulers {
            let mut other = pool(policy, scheduler);
            other.run(ROUNDS, tick());
            assert_eq!(
                reference,
                observe(&other, src, chan),
                "{scheduler:?} diverged from serial ({policy:?})"
            );
        }
    }
}

#[test]
fn unaligned_multi_call_splits_agree() {
    // A run() call end is observable by design — a fault's missed-step
    // accounting is charged against the chunk it happened in, and a
    // call end cuts the final chunk short of the checkpoint cadence.
    // The determinism contract is therefore stated per call sequence:
    // for the SAME sequence of run() calls, every scheduler produces
    // the same bytes, however awkwardly the call ends straddle the
    // cadence. The pool's round cursor keeps the outer chunks of later
    // calls aligned to the cadence mid-stream.
    let policy = TreePolicy::Lazy;
    let (src, chan) = probe_ids(policy);

    let splits: [&[u64]; 3] = [&[37, 59], &[5, 91], &[1, 2, 3, 90]];
    for (w, split) in [(2usize, 0usize), (8, 1), (2, 2)] {
        let mut serial = pool(policy, FleetScheduler::Serial);
        for &rounds in splits[split] {
            serial.run(rounds, tick());
        }
        let reference = observe(&serial, src, chan);

        let mut ws = pool(policy, FleetScheduler::WorkStealing { workers: w });
        for &rounds in splits[split] {
            ws.run(rounds, tick());
        }
        assert_eq!(
            reference,
            observe(&ws, src, chan),
            "split {:?} at {w} workers diverged from the same-split serial run",
            splits[split]
        );
    }
}

#[test]
fn permuted_visitation_matches_serial() {
    // The permuted scheduler is the loom-free interleaving sanitizer:
    // serial execution, shard visitation shuffled per chunk from a
    // seed. Any seed must reproduce the serial bytes — shard order is
    // not allowed to be observable.
    let policy = TreePolicy::Lazy;
    let (src, chan) = probe_ids(policy);
    let mut serial = pool(policy, FleetScheduler::Serial);
    serial.run(ROUNDS, tick());
    let reference = observe(&serial, src, chan);
    for seed in [0u64, 1, 42, 0xdead_beef] {
        let mut permuted = pool(policy, FleetScheduler::Permuted { seed });
        permuted.run(ROUNDS, tick());
        assert_eq!(
            reference,
            observe(&permuted, src, chan),
            "permuted visitation (seed {seed:#x}) diverged from serial"
        );
    }
}

#[test]
fn mid_soak_checkpoints_restore_identically_from_any_scheduler() {
    // The checkpoints a parallel soak captures are the same bytes the
    // serial soak captures — and restoring one into a fresh instance
    // and stepping on produces the same continuation either way.
    let policy = TreePolicy::Lazy;
    let (src, chan) = probe_ids(policy);

    let mut serial = pool(policy, FleetScheduler::Serial);
    serial.run(40, tick());
    let mut ws = pool(policy, FleetScheduler::WorkStealing { workers: 8 });
    ws.run(40, tick());

    let mut restored_pair = Vec::new();
    for p in [&serial, &ws] {
        let snap = p.shards()[1].checkpoint(2).unwrap().clone();
        assert!(snap.steps_run() > 0 && snap.steps_run() % 4 == 0);
        let (mut fresh, _, _) = build_instance(policy, None);
        fresh.restore(&snap).unwrap();
        fresh.step_batch(23, tick()).unwrap();
        restored_pair.push((
            format!("{snap:?}"),
            fresh
                .channel_history(chan)
                .unwrap()
                .iter()
                .map(|t| t.render())
                .collect::<Vec<_>>(),
            fresh.node_health(src).to_value(),
            fresh.steps_run(),
            fresh.now(),
        ));
    }
    assert_eq!(
        restored_pair[0], restored_pair[1],
        "a checkpoint captured under work stealing restores and continues \
         byte-identically to its serial twin"
    );
}

#[test]
fn scheduler_switches_mid_soak_do_not_change_the_trace() {
    // Flipping the scheduler between run() calls — serial, stealing,
    // permuted — is purely operational: the trace stays the one the
    // serial scheduler produces for the same call sequence (call ends
    // themselves are observable; see unaligned_multi_call_splits_agree).
    let policy = TreePolicy::Eager;
    let (src, chan) = probe_ids(policy);
    let mut serial = pool(policy, FleetScheduler::Serial);
    serial.run(30, tick());
    serial.run(33, tick());
    serial.run(33, tick());
    let reference = observe(&serial, src, chan);

    let mut mixed = pool(policy, FleetScheduler::Serial);
    mixed.run(30, tick());
    mixed.set_scheduler(FleetScheduler::WorkStealing { workers: 4 });
    mixed.run(33, tick());
    mixed.set_scheduler(FleetScheduler::Permuted { seed: 7 });
    mixed.run(33, tick());
    assert_eq!(
        reference,
        observe(&mixed, src, chan),
        "mid-soak scheduler switches leaked into the trace"
    );
}
