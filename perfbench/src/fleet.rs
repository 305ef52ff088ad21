//! The `fleet_soak` workload: 10,240 Fig. 1 pipelines in a serial
//! [`FleetPool`], each replaying a shared line set from its own offset.
//! Every tenth instance carries a seeded [`FaultInjector`] on its Parser
//! that raises errors and panics, so the supervision ladder (checkpoint,
//! restart, watchdog) runs throughout. One batch is one `run(1)` round.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use perpos_analysis::gate::config_gate;
use perpos_analysis::TypeCatalog;
use perpos_core::prelude::*;
use perpos_geo::Point2;
use perpos_sensors::{FaultInjector, Trajectory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::status_kib;
use crate::input::{self, frame};
use crate::pipeline::{self, Environmental, FactoryEnv};
use crate::probe::{attach_feature, Probes};
use crate::report::{Layer, Run};
use crate::stats;

/// Receiver sessions × epochs of the shared line set.
const SESSIONS: u64 = 200;
const EPOCHS: u64 = 100;
/// Every `FAULTY_STRIDE`-th instance is faulty (10 %).
const FAULTY_STRIDE: usize = 10;
/// Per-item fault rates of a faulty instance's injector.
const ERROR_RATE: f64 = 0.01;
const PANIC_RATE: f64 = 0.005;
/// Rounds stepped before timing; the supervision counters and accuracy
/// are read at this fixed point, so they repeat exactly per seed.
const PREFIX_ROUNDS: u64 = 16;
/// Fewest checkpoint cycles a timed phase may end with: 25 cycles are
/// 200 rounds, so the round tail reaches p90 (20 rounds beyond it) on
/// every run and every run reports the same percentile.
const MIN_CYCLES: u64 = 25;
/// Pool builds timed for `setup_s` before the timed phase, and again
/// after it; the best one is reported. A slow stretch of the host rarely
/// covers both groups, half a minute apart.
const SETUP_BUILDS: usize = 4;
/// Percentile of a round kind's shard steps taken as the undisturbed
/// step time (see [`Phase::best_rounds`]).
const SHARD_STEP_PCT: f64 = 2.0;
/// Instances sampled for accuracy, and for snapshot/restore timing.
const ACCURACY_STRIDE: usize = 4;
const SNAPSHOT_STRIDE: usize = 160;

fn walk() -> Trajectory {
    Trajectory::new(
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(300.0, 0.0),
            Point2::new(300.0, 200.0),
            Point2::new(0.0, 200.0),
            Point2::new(0.0, 0.0),
        ],
        1.4,
    )
    .looping()
}

/// The shared replay input.
struct Input {
    lines: Arc<[String]>,
    /// Ground truth per line, for GGA lines.
    truth: Vec<Option<Point2>>,
    offsets: Arc<Vec<i64>>,
}

fn input(seed: u64, instances: usize) -> Input {
    let rendered = input::render_urban(&walk(), SESSIONS, EPOCHS, seed);
    let truth = rendered
        .iter()
        .map(|l| input::is_gga(&l.text).then_some(l.truth))
        .collect();
    let lines: Arc<[String]> = rendered.into_iter().map(|l| l.text).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ff5e7);
    let offsets = (0..instances)
        .map(|_| rng.gen_range(0..lines.len() as i64))
        .collect();
    Input {
        lines,
        truth,
        offsets: Arc::new(offsets),
    }
}

/// Config JSON → a ready pool: parse, gate, then `FleetPool::new`
/// building and checkpointing every instance.
fn build(seed: u64, input: &Input, probes: Option<&Arc<Probes>>) -> Result<FleetPool, CoreError> {
    let env = FactoryEnv {
        lines: Some(Arc::clone(&input.lines)),
        filter: None,
        probes: probes.cloned(),
    };
    let factories = pipeline::factories(&env);
    let config = pipeline::parse_config(pipeline::FLEET_CONFIG)?;
    config_gate(TypeCatalog::probe(&factories))(&config)?;
    let spec = config
        .fleet
        .clone()
        .ok_or_else(|| CoreError::ComponentFailure {
            component: "config".into(),
            reason: "fleet workload needs a fleet block".into(),
        })?;
    let instances = spec.instances;
    // Restart reseeding keys on (index, incarnation), never on a
    // factory-global counter, so the fault schedule is a pure function
    // of the instance.
    let incarnations: Arc<Vec<AtomicU64>> =
        Arc::new((0..instances).map(|_| AtomicU64::new(0)).collect());
    let offsets = Arc::clone(&input.offsets);
    let feature_clock = probes.map(|p| Arc::clone(&p.feature));
    let pool = FleetPool::new(spec.to_fleet_config(), move |index| {
        let mut mw = Middleware::new();
        let nodes = config
            .instantiate(&mut mw, &factories)
            .expect("configuration gated at pool construction");
        let gps = pipeline::node(&nodes, "gps0");
        mw.invoke(gps, "seek", &[Value::Int(offsets[index])])
            .expect("replay source seeks");
        if index % FAULTY_STRIDE == 0 {
            let n = incarnations[index].fetch_add(1, Ordering::Relaxed);
            let injector = Environmental(
                FaultInjector::with_seed(
                    seed ^ (index as u64).wrapping_mul(0x9E37_79B9) ^ n.wrapping_mul(0xC0FF_EE11),
                )
                .with_error_rate(ERROR_RATE)
                .with_panic_rate(PANIC_RATE),
            );
            let parser = pipeline::node(&nodes, "parse0");
            attach_feature(&mut mw, parser, injector, feature_clock.as_ref())
                .expect("parser accepts the injector");
        }
        mw
    });
    Ok(pool)
}

/// Positions delivered by every instance so far. A restarted instance
/// comes back with a fresh Positioning Layer, so its count restarts
/// from zero; `last` tracks each instance's previous reading.
fn delivered_since(pool: &FleetPool, last: &mut Vec<u64>) -> u64 {
    let mut total = 0;
    let mut i = 0;
    last.resize(pool.instances(), 0);
    for shard in pool.shards() {
        for j in 0..shard.len() {
            let now = shard
                .instance(j)
                .and_then(|mw| mw.location_provider(Criteria::new()).ok())
                .map_or(0, |p| p.delivered_count());
            total += if now >= last[i] { now - last[i] } else { now };
            last[i] = now;
            i += 1;
        }
    }
    total
}

/// The deterministic state of the pool after the prefix rounds.
#[derive(Debug, Clone, PartialEq)]
struct Prefix {
    totals: FleetTotals,
    availability: f64,
    err_p95: f64,
    delivered: u64,
}

fn prefix(pool: &mut FleetPool, input: &Input, last: &mut Vec<u64>) -> (Prefix, bool) {
    let tick = SimDuration::from_secs(1);
    for _ in 0..PREFIX_ROUNDS {
        pool.run(1, tick);
    }
    let delivered = delivered_since(pool, last);
    // Accuracy of sampled healthy instances: every position maps back
    // through its timestamp (one step per second from t = 0) and the
    // instance's offset to the line it was interpreted from.
    let frame = frame();
    let mut errors = Vec::new();
    let mut ok = true;
    let mut index = 0;
    for shard in pool.shards() {
        for j in 0..shard.len() {
            if index % ACCURACY_STRIDE == 1 {
                let mw = shard.instance(j).expect("index within shard");
                let history = mw
                    .location_provider(Criteria::new())
                    .map(|p| p.history())
                    .unwrap_or_default();
                for item in history {
                    let step = item.timestamp.since(SimTime::ZERO).as_micros() / 1_000_000;
                    let line = (input.offsets[index] as u64 + step) as usize % input.lines.len();
                    match (input.truth[line], item.payload.as_position()) {
                        (Some(truth), Some(p)) => {
                            errors.push(frame.to_local(p.coord()).distance(&truth));
                        }
                        _ => ok = false,
                    }
                }
            }
            index += 1;
        }
    }
    let totals = pool.totals();
    let p = Prefix {
        availability: totals.availability(),
        totals,
        err_p95: if errors.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&stats::sorted(&errors), 95.0)
        },
        delivered,
    };
    (p, ok && !errors.is_empty())
}

/// One timed round, as the shards saw it.
struct Round {
    /// 0 for a checkpoint round, 1 for a plain one.
    kind: usize,
    /// Wall seconds of the whole `run(1)` call.
    secs: f64,
    /// Shards that stepped (were not quarantined), and the faults they
    /// restarted from.
    live_shards: u64,
    faults: u64,
}

struct Phase {
    /// Whole checkpoint cycles timed, and the positions they delivered.
    cycles: u64,
    positions: u64,
    rounds: Vec<Round>,
    /// Seconds of every fault-free shard step, by round kind, from the
    /// shards' public wall clocks.
    clean_steps: [Vec<f64>; 2],
    /// Seconds of every plain-round shard step that restarted exactly one
    /// instance.
    one_fault_steps: Vec<f64>,
    /// Best rest of a round (the pool's own work between shards), by kind.
    rest: stats::BestOf,
    wrapped_ns: u64,
    live_steps: u64,
}

fn timed(
    pool: &mut FleetPool,
    seconds: f64,
    probes: Option<&Probes>,
    last: &mut Vec<u64>,
) -> Phase {
    let tick = SimDuration::from_secs(1);
    let cadence = pool.config().checkpoint_every;
    let mut phase = Phase {
        cycles: 0,
        positions: 0,
        rounds: Vec::new(),
        clean_steps: [Vec::new(), Vec::new()],
        one_fault_steps: Vec::new(),
        rest: stats::BestOf::new(2),
        wrapped_ns: 0,
        live_steps: 0,
    };
    let live0 = pool.totals().live_steps;
    let wrapped0 = probes.map_or(0, Probes::wrapped_ns);
    let mut rounds = pool.shards()[0].steps_run();
    let mut shard_before: Vec<(u64, ShardStats)> = pool
        .shards()
        .iter()
        .map(|s| (s.wall_ns(), s.stats()))
        .collect();
    let start = Instant::now();
    // Whole checkpoint cycles only, so the timed rounds hold the cadence's
    // exact mix of plain and checkpoint rounds.
    while start.elapsed().as_secs_f64() < seconds || phase.cycles < MIN_CYCLES {
        for _ in 0..cadence {
            let t = Instant::now();
            pool.run(1, tick);
            let s = t.elapsed().as_secs_f64();
            rounds += 1;
            let kind = usize::from(!rounds.is_multiple_of(cadence));
            let mut round = Round {
                kind,
                secs: s,
                live_shards: 0,
                faults: 0,
            };
            let mut in_shards = 0.0;
            for (shard, before) in pool.shards().iter().zip(&mut shard_before) {
                let now = (shard.wall_ns(), shard.stats());
                let step_s = (now.0 - before.0) as f64 / 1e9;
                in_shards += step_s;
                // A quarantined shard skips its step and costs nothing.
                if now.1.live_steps > before.1.live_steps {
                    let faults = now.1.instance_faults - before.1.instance_faults;
                    round.live_shards += 1;
                    round.faults += faults;
                    match faults {
                        0 => phase.clean_steps[kind].push(step_s),
                        1 if kind == 1 => phase.one_fault_steps.push(step_s),
                        _ => {}
                    }
                }
                *before = now;
            }
            phase.rest.record(kind, (s - in_shards).max(0.0));
            phase.rounds.push(round);
        }
        phase.positions += delivered_since(pool, last);
        phase.cycles += 1;
    }
    phase.wrapped_ns = probes.map_or(0, Probes::wrapped_ns) - wrapped0;
    phase.live_steps = pool.totals().live_steps - live0;
    phase
}

impl Phase {
    /// Every timed round at its undisturbed cost, given the work it did:
    /// its stepping shards at the undisturbed fault-free shard step of
    /// its kind, plus its restarts at the undisturbed cost of one, plus
    /// the best rest of its kind.
    ///
    /// A round never repeats and is too long to meet a whole fast stretch
    /// of the host, but its shards are alike by construction (equal
    /// instance counts, the same share of faulty instances), so every
    /// fault-free shard step of a kind repeats the same few milliseconds
    /// of work, and a low percentile of them measures that work for the
    /// reason single-instance batches report their best pass. A restart
    /// costs what a one-fault step costs beyond a fault-free one.
    fn best_rounds(&self) -> Vec<f64> {
        let low = |v: &[f64]| stats::percentile(&stats::sorted(v), SHARD_STEP_PCT);
        let clean = [low(&self.clean_steps[0]), low(&self.clean_steps[1])];
        let restart = (low(&self.one_fault_steps) - clean[1]).max(0.0);
        self.rounds
            .iter()
            .map(|r| {
                r.live_shards as f64 * clean[r.kind]
                    + r.faults as f64 * restart
                    + self.rest.times()[r.kind]
            })
            .collect()
    }

    /// Positions per second over the timed rounds at their undisturbed
    /// cost.
    fn best_rate(&self) -> f64 {
        self.positions as f64 / self.best_rounds().iter().sum::<f64>()
    }

    /// Every timed round's wall seconds as measured.
    fn raw_rounds(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.secs).collect()
    }

    /// Median measured round of `kind`, in milliseconds.
    fn median_ms(&self, kind: usize) -> f64 {
        let secs: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.secs)
            .collect();
        stats::median(&secs) * 1e3
    }
}

/// Median microseconds to snapshot, and to restore, sampled instances.
fn snapshot_restore_us(pool: &mut FleetPool) -> (f64, f64, bool) {
    let mut snap_us = Vec::new();
    let mut restore_us = Vec::new();
    let mut ok = true;
    let per_shard = pool.shards()[0].len();
    for index in (0..pool.instances()).step_by(SNAPSHOT_STRIDE) {
        let shard = pool.shard_mut(index / per_shard).expect("shard exists");
        let mw = shard
            .instance_mut(index % per_shard)
            .expect("instance exists");
        let t = Instant::now();
        let snap = mw.snapshot();
        snap_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        ok &= mw.restore(&snap).is_ok();
        restore_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (stats::median(&snap_us), stats::median(&restore_us), ok)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Run, CoreError> {
    // Injected panics are contained by the engine's fence; keep their
    // messages off stderr (and out of the timings).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected panic"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("injected panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let config = pipeline::parse_config(pipeline::FLEET_CONFIG)?;
    let instances = config.fleet.as_ref().map_or(0, |f| f.instances);
    let input = input(seed, instances);

    let mut setup = Vec::with_capacity(2 * SETUP_BUILDS);
    let timed_build = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let built = build(seed, &input, None);
        setup.push(t.elapsed().as_secs_f64());
        built
    };
    let mut instance_kb = 0.0;
    let mut pool = None;
    for i in 0..SETUP_BUILDS {
        drop(pool.take());
        let rss0 = status_kib("VmRSS").unwrap_or(0);
        let built = timed_build(&mut setup)?;
        if i == 0 {
            let rss1 = status_kib("VmRSS").unwrap_or(0);
            instance_kb = rss1.saturating_sub(rss0) as f64 / instances as f64;
        }
        pool = Some(built);
    }
    let mut pool = pool.expect("at least one build");
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let mut last = Vec::new();
    let (p0, p0_ok) = prefix(&mut pool, &input, &mut last);
    let peak_rss_mb = crate::host::peak_rss_mb();
    let t = timed(&mut pool, phase_s, None, &mut last);
    drop(pool);
    for _ in 0..SETUP_BUILDS {
        drop(timed_build(&mut setup)?);
    }

    let mut run = Run {
        attempted: t.rounds.len() as u64,
        setup_s: setup.iter().copied().fold(f64::INFINITY, f64::min),
        positions_per_s: t.best_rate(),
        repeats: t.cycles,
        err_m_p95: p0.err_p95,
        availability: p0.availability,
        peak_rss_mb,
        determinism: vec![
            ("availability".into(), p0.availability),
            ("err_m_p95".into(), p0.err_p95),
            ("delivered_prefix".into(), p0.delivered as f64),
            (
                "instance_faults_prefix".into(),
                p0.totals.instance_faults as f64,
            ),
        ],
        ..Run::default()
    };
    let mut checks = vec![
        ("prefix_positions_map_to_gga_lines".to_string(), p0_ok),
        (
            "faults_injected_and_recovered".to_string(),
            p0.totals.instance_faults > 0 && p0.totals.total_restarts() > 0,
        ),
        (
            "availability_in_range".to_string(),
            p0.availability > 0.9 && p0.availability < 1.0,
        ),
    ];
    run.batch_best_s = t.best_rounds();
    run.batch_tail_s = t.raw_rounds();

    if trace {
        let probes = Arc::new(Probes::default());
        let mut pool = build(seed, &input, Some(&probes))?;
        let mut last = Vec::new();
        let (tp, tp_ok) = prefix(&mut pool, &input, &mut last);
        let prefix_feature_calls = probes.feature.calls();
        checks.push((
            "traced_prefix_equals_untraced".to_string(),
            tp_ok
                && tp.totals == p0.totals
                && tp.err_p95.to_bits() == p0.err_p95.to_bits()
                && tp.delivered == p0.delivered,
        ));
        let before = [&probes.parser, &probes.interpreter, &probes.feature].map(|c| c.reading());
        let tt = timed(&mut pool, phase_s, Some(&probes), &mut last);
        run.attempted += tt.rounds.len() as u64;
        let (snap_us, restore_us, restore_ok) = snapshot_restore_us(&mut pool);
        checks.push(("snapshot_restore_roundtrip".to_string(), restore_ok));
        let round_ns: f64 = tt.raw_rounds().iter().sum::<f64>() * 1e9;
        let engine_ns = (round_ns - tt.wrapped_ns as f64).max(0.0);
        let traced_rate = tt.best_rate();
        let x = &tp.totals;
        run.layers = vec![
            Layer::new(
                "parser.self_ns_per_item",
                probes.parser.ns_per_call_since(before[0]),
            ),
            Layer::new(
                "interpreter.self_ns_per_item",
                probes.interpreter.ns_per_call_since(before[1]),
            ),
            Layer::new(
                "feature.self_ns_per_item",
                probes.feature.ns_per_call_since(before[2]),
            ),
            Layer::new("feature.calls", prefix_feature_calls as f64),
            Layer::new(
                "engine.self_ns_per_step",
                engine_ns / tt.live_steps.max(1) as f64,
            ),
            Layer::new("engine.share", engine_ns / round_ns.max(1.0)),
            Layer::new("positioning.delivered", tp.delivered as f64),
            Layer::new("fleet.round_ms_plain_p50", tt.median_ms(1)),
            Layer::new("fleet.round_ms_checkpoint_p50", tt.median_ms(0)),
            Layer::new("fleet.snapshot_us", snap_us),
            Layer::new("fleet.restore_us", restore_us),
            Layer::new("fleet.checkpoints", x.checkpoints as f64),
            Layer::new("fleet.restarts", x.restarts as f64),
            Layer::new("fleet.cold_restarts", x.cold_restarts as f64),
            Layer::new("fleet.quarantines", x.quarantines as f64),
            Layer::new("supervision.faults", x.instance_faults as f64),
            Layer::new("fleet.instance_kb", instance_kb),
            Layer::new("trace.overhead", run.positions_per_s / traced_rate - 1.0),
        ];
    }
    run.checks = checks;
    Ok(run)
}
