//! The single-instance workloads: `nmea_replay`, `nmea_translucent` and
//! `fusion_pf`. One caller on one thread drives pre-rendered NMEA text
//! through `scan_block` → `Middleware::ingest_batch` and pulls the
//! newest position after every batch (a closed loop).

use std::sync::Arc;
use std::time::Instant;

use perpos_core::prelude::*;
use perpos_fusion::LikelihoodFeature;
use perpos_geo::Point2;
use perpos_model::demo_building;
use perpos_sensors::codec::scan_block;
use perpos_sensors::{HdopFeature, NumberOfSatellitesFeature, Trajectory};

use crate::host::peak_rss_mb;
use crate::input::{self, frame, Defect, Line};
use crate::pipeline::{self, FactoryEnv, TreeReader};
use crate::probe::{attach_channel_feature, attach_feature, Clock, Probes};
use crate::report::{Layer, Run};
use crate::stats;

/// Lines per replay block: a sentence burst as read from a capture file
/// or a serial port.
const BLOCK_LINES: usize = 250;
/// Receiver sessions × epochs rendered for the replay workloads (one
/// pass).
const NMEA_SESSIONS: u64 = 200;
const NMEA_EPOCHS: u64 = 100;
/// Receiver sessions × epochs of the fusion workload: two laps of the
/// there-and-back corridor walk per session, so the replayed trace loops
/// seamlessly; enough sessions that the error percentile barely moves
/// between seeds.
const FUSION_SESSIONS: u64 = 24;
const FUSION_EPOCHS: u64 = 79;
/// Share of lines the block lexer must reject, and the share the Parser
/// must reject.
const LEXER_DEFECTS: f64 = 0.01;
const PARSER_DEFECTS: f64 = 0.005;
/// Simulated time between ingested lines.
const LINE_TICK_US: u64 = 1_000;
/// Trees the translucent workload's history subscription retains.
const HISTORY: usize = 16;
/// Builds per set-up sample. Samples are spread over the timed phase
/// ([`SETUP_EVERY_S`] apart) and the best one is reported, for the same
/// reason batches report their best pass (see [`timed_phase`]).
const SETUP_BUILDS: usize = 16;
const SETUP_EVERY_S: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Replay,
    Translucent,
    Fusion,
}

/// One unit of closed-loop work: a block of text and what the input
/// generator knows about it.
struct Batch {
    text: String,
    /// Lines the lexer should reject.
    rejected: usize,
    /// For every line the lexer should accept, in order: the ground
    /// truth if the line is a GGA sentence.
    accepted: Vec<Option<Point2>>,
    /// Fusion: the receiver epoch the batch belongs to.
    epoch: u64,
}

struct Plan {
    batches: Vec<Batch>,
    /// Simulated seconds one pass spans (fusion clock alignment).
    pass_secs: u64,
    align_clock: bool,
}

fn urban_block_walk() -> Trajectory {
    Trajectory::new(
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            Point2::new(400.0, 250.0),
            Point2::new(0.0, 250.0),
            Point2::new(0.0, 0.0),
        ],
        1.4,
    )
    .looping()
}

/// The Fig. 5/6 corridor walk in the demo building, there and back:
/// a 39.5 s lap at 1 m/s.
fn corridor_walk() -> Trajectory {
    let out = [
        Point2::new(1.0, 5.25),
        Point2::new(12.5, 5.25),
        Point2::new(12.5, 8.0),
        Point2::new(18.0, 8.0),
    ];
    let mut points = out.to_vec();
    points.extend(out.iter().rev().skip(1));
    Trajectory::new(points, 1.0).looping()
}

fn batch_of(lines: &[Line], epoch: u64) -> Batch {
    Batch {
        text: input::block(lines),
        rejected: lines
            .iter()
            .filter(|l| l.defect == Some(Defect::Lexer))
            .count(),
        accepted: lines
            .iter()
            .filter(|l| l.defect != Some(Defect::Lexer))
            .map(|l| input::is_gga(&l.text).then_some(l.truth))
            .collect(),
        epoch,
    }
}

fn plan(kind: Kind, seed: u64) -> Plan {
    if kind == Kind::Fusion {
        let mut lines = input::render_urban(&corridor_walk(), FUSION_SESSIONS, FUSION_EPOCHS, seed);
        input::corrupt(&mut lines, seed, LEXER_DEFECTS, PARSER_DEFECTS);
        let batches = lines
            .chunk_by(|a, b| a.epoch == b.epoch)
            .map(|epoch| batch_of(epoch, epoch[0].epoch))
            .collect();
        Plan {
            batches,
            pass_secs: FUSION_SESSIONS * FUSION_EPOCHS,
            align_clock: true,
        }
    } else {
        let mut lines = input::render_urban(&urban_block_walk(), NMEA_SESSIONS, NMEA_EPOCHS, seed);
        input::corrupt(&mut lines, seed, LEXER_DEFECTS, PARSER_DEFECTS);
        // Whole blocks only, so every batch carries the same line count.
        let batches = lines
            .chunks_exact(BLOCK_LINES)
            .map(|b| batch_of(b, 0))
            .collect();
        Plan {
            batches,
            pass_secs: 0,
            align_clock: false,
        }
    }
}

struct Instance {
    mw: Middleware,
    src: NodeId,
    parser: NodeId,
    provider: LocationProvider,
    /// The observed channel: the application channel, or the filter's
    /// input channel on `fusion_pf`.
    channel: ChannelId,
}

/// Config JSON → ready to step: parse, gate, instantiate, attach the
/// workload's features.
fn build(kind: Kind, seed: u64, probes: Option<&Arc<Probes>>) -> Result<Instance, CoreError> {
    let likelihood = LikelihoodFeature::new();
    let env = FactoryEnv {
        lines: None,
        filter: (kind == Kind::Fusion)
            .then(|| (Arc::new(demo_building()), likelihood.handle(), seed ^ 0x9f)),
        probes: probes.cloned(),
    };
    let factories = pipeline::factories(&env);
    let mut mw = Middleware::new();
    let config = match kind {
        Kind::Fusion => pipeline::FUSION_CONFIG,
        _ => pipeline::NMEA_CONFIG,
    };
    let nodes = pipeline::instantiate(config, &factories, &mut mw)?;
    let src = pipeline::node(&nodes, "gps0");
    let parser = pipeline::node(&nodes, "parse0");
    let app = mw.application_sink();
    let app_channel = mw
        .channel_into(app, 0)
        .expect("the configuration delivers to the application");
    let channel = match kind {
        Kind::Replay => app_channel,
        Kind::Translucent => {
            let feature = probes.map(|p| &p.feature);
            attach_feature(&mut mw, parser, HdopFeature::new(), feature)?;
            attach_feature(&mut mw, parser, NumberOfSatellitesFeature::new(), feature)?;
            attach_channel_feature(
                &mut mw,
                app_channel,
                TreeReader::default(),
                probes.map(|p| &p.channel),
            )?;
            mw.subscribe_channel_history(app_channel, HISTORY)?;
            app_channel
        }
        Kind::Fusion => {
            let pf = pipeline::node(&nodes, "pf0");
            let pf_channel = mw
                .channel_into(pf, 0)
                .expect("the interpreter feeds the filter");
            attach_feature(
                &mut mw,
                parser,
                HdopFeature::new(),
                probes.map(|p| &p.feature),
            )?;
            attach_channel_feature(&mut mw, pf_channel, likelihood, probes.map(|p| &p.channel))?;
            pf_channel
        }
    };
    let provider = mw.location_provider(Criteria::new().kind(kinds::POSITION_WGS84))?;
    Ok(Instance {
        mw,
        src,
        parser,
        provider,
        channel,
    })
}

/// Seconds per build of [`SETUP_BUILDS`] back-to-back builds. Built
/// instances are dropped after the clock stops.
fn setup_sample(kind: Kind, seed: u64) -> Result<f64, CoreError> {
    let mut built = Vec::with_capacity(SETUP_BUILDS);
    let start = Instant::now();
    for _ in 0..SETUP_BUILDS {
        built.push(build(kind, seed, None)?);
    }
    let secs = start.elapsed().as_secs_f64() / SETUP_BUILDS as f64;
    drop(std::hint::black_box(built));
    Ok(secs)
}

/// Deterministic results of one full pass over the plan.
#[derive(Debug, Clone, PartialEq)]
struct PassCounts {
    delivered: u64,
    rejected: u64,
    materialized: u64,
    outputs: u64,
    dropped: u64,
    parser_errors: i64,
    arena_interned: u64,
    arena_recycled: u64,
    arena_escaped: u64,
    /// p95 position error of the pass, metres.
    err_p95: f64,
    /// Position pulled after each batch.
    pulls: Vec<Option<Position>>,
}

/// Closed-loop driver of one instance over the cycled plan.
struct Driver<'a> {
    inst: Instance,
    plan: &'a Plan,
    buf: Vec<&'a str>,
    next: usize,
    pass: u64,
    attempted: u64,
    failed: u64,
}

/// Wall-time split of one batch (traced runs).
#[derive(Default)]
struct Split {
    scan_ns: u64,
    lines: u64,
    ingest_ns: u64,
    wrapped_ns: u64,
    steps: u64,
    pull_ns: u64,
    pulls: u64,
}

impl<'a> Driver<'a> {
    fn new(inst: Instance, plan: &'a Plan) -> Self {
        Driver {
            inst,
            plan,
            buf: Vec::with_capacity(BLOCK_LINES),
            next: 0,
            pass: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs the next batch; returns its wall seconds and the pulled
    /// position. Checks the lexer and ingest counts against the input
    /// generator's; a mismatch or an engine error counts the batch failed.
    fn batch(
        &mut self,
        probes: Option<&Probes>,
        split: Option<&mut Split>,
    ) -> (f64, Option<Position>, usize) {
        let index = self.next;
        let batch = &self.plan.batches[index];
        self.align_clock();
        let wrapped_before = probes.map_or(0, Probes::wrapped_ns);
        let start = Instant::now();
        let report = scan_block(&batch.text, &mut self.buf);
        let scanned = Instant::now();
        let ingested = self.inst.mw.ingest_batch(
            self.inst.src,
            kinds::RAW_STRING,
            &self.buf,
            SimDuration::from_micros(LINE_TICK_US),
        );
        let stepped = Instant::now();
        let pulled = self.inst.provider.last_position();
        let end = Instant::now();
        if let Some(split) = split {
            split.scan_ns += (scanned - start).as_nanos() as u64;
            split.lines += (report.parsed + report.skipped) as u64;
            split.ingest_ns += (stepped - scanned).as_nanos() as u64;
            split.wrapped_ns += probes.map_or(0, Probes::wrapped_ns) - wrapped_before;
            split.steps += report.parsed as u64;
            split.pull_ns += (end - stepped).as_nanos() as u64;
            split.pulls += 1;
        }
        self.attempted += 1;
        let ok = report.skipped == batch.rejected
            && report.parsed == batch.accepted.len()
            && matches!(ingested, Ok(n) if n as usize == batch.accepted.len());
        if !ok {
            self.failed += 1;
        }
        self.next += 1;
        if self.next == self.plan.batches.len() {
            self.next = 0;
            self.pass += 1;
        }
        ((end - start).as_secs_f64(), pulled, index)
    }

    /// Fusion: moves the clock to the next batch's receiver epoch, so the
    /// filter's motion model sees real time between fixes.
    fn align_clock(&mut self) {
        if self.plan.align_clock {
            let epoch = self.plan.batches[self.next].epoch;
            let due =
                SimTime::ZERO + SimDuration::from_secs(self.pass * self.plan.pass_secs + epoch);
            let now = self.inst.mw.now();
            if due > now {
                self.inst.mw.advance_clock(due.since(now));
            }
        }
    }

    fn counts_now(&mut self) -> (u64, ChannelStats, i64, ArenaStats) {
        let stats = self
            .inst
            .mw
            .channel_stats(self.inst.channel)
            .expect("the observed channel exists");
        let errors = self
            .inst
            .mw
            .invoke(self.inst.parser, "errorCount", &[])
            .ok()
            .and_then(|v| v.as_i64())
            .unwrap_or(-1);
        (
            self.inst.provider.delivered_count(),
            stats,
            errors,
            self.inst.mw.arena_stats(),
        )
    }

    /// Runs one whole pass, mapping every delivered position back to the
    /// line it came from to measure its error against ground truth.
    fn accuracy_pass(&mut self) -> PassCounts {
        assert_eq!(self.next, 0, "passes start at the first batch");
        let (d0, c0, e0, a0) = self.counts_now();
        let mut errors = Vec::new();
        let mut pulls = Vec::with_capacity(self.plan.batches.len());
        let mut rejected = 0u64;
        let frame = frame();
        for _ in 0..self.plan.batches.len() {
            self.align_clock();
            let before_t = self.inst.mw.now();
            let before_n = self.inst.provider.delivered_count();
            let (_, pulled, index) = self.batch(None, None);
            let batch = &self.plan.batches[index];
            rejected += batch.rejected as u64;
            pulls.push(pulled);
            let new = (self.inst.provider.delivered_count() - before_n) as usize;
            let history = self.inst.provider.history();
            if new > history.len() {
                self.failed += 1;
                continue;
            }
            for item in &history[history.len() - new..] {
                // Line k of the batch runs at `before + k * tick`.
                let k = (item.timestamp.since(before_t).as_micros() / LINE_TICK_US) as usize;
                match (batch.accepted.get(k), item.payload.as_position()) {
                    (Some(Some(truth)), Some(p)) => {
                        errors.push(frame.to_local(p.coord()).distance(truth));
                    }
                    _ => self.failed += 1,
                }
            }
        }
        let (d1, c1, e1, a1) = self.counts_now();
        PassCounts {
            delivered: d1 - d0,
            rejected,
            materialized: c1.materialized - c0.materialized,
            outputs: c1.outputs - c0.outputs,
            dropped: c1.dropped - c0.dropped,
            parser_errors: e1 - e0,
            arena_interned: a1.interned - a0.interned,
            arena_recycled: a1.recycled - a0.recycled,
            arena_escaped: a1.escaped - a0.escaped,
            err_p95: if errors.is_empty() {
                f64::NAN
            } else {
                stats::percentile(&stats::sorted(&errors), 95.0)
            },
            pulls,
        }
    }
}

/// What a timed phase measured.
struct Phase {
    /// Best wall seconds of every batch of the plan over the passes run.
    best: stats::BestOf,
    /// Every batch's wall seconds, in the order run. The phase starts at
    /// the plan's first batch, so each whole pass is one run of the plan.
    raw: Vec<f64>,
    passes: u64,
    split: Split,
}

/// Fewest full passes a timed phase makes, so every batch has several
/// timings to take its best of.
const MIN_PASSES: u64 = 5;
/// Share of each batch's timings the tail is taken over, its fastest
/// tenth: a quarter still let the host's bursts through (see the README).
const TAIL_SHARE: f64 = 0.1;

/// Runs whole passes over the plan for at least `seconds`, keeping every
/// batch's best time and checking every batch and every pass against
/// pass zero. Interference on a shared host only ever adds time, and on
/// a small VM it comes as a slow mode whose share of a run varies from
/// run to run: a median over the run measures that share, while a
/// batch's best over many passes measures the program.
fn timed_phase(
    d: &mut Driver<'_>,
    pass0: &PassCounts,
    seconds: f64,
    probes: Option<&Probes>,
    stateless: bool,
    mut setup_sample: impl FnMut(),
) -> Phase {
    let mut out = Phase {
        best: stats::BestOf::new(d.plan.batches.len()),
        raw: Vec::new(),
        passes: 0,
        split: Split::default(),
    };
    let mut pass_start = d.counts_now();
    let start = Instant::now();
    let mut next_setup = SETUP_EVERY_S;
    while start.elapsed().as_secs_f64() < seconds || out.passes < MIN_PASSES {
        let split = probes.is_some().then_some(&mut out.split);
        let (s, pulled, index) = d.batch(probes, split);
        out.best.record(index, s);
        out.raw.push(s);
        if stateless && pulled != pass0.pulls[index] {
            d.failed += 1;
        }
        if d.next == 0 {
            out.passes += 1;
            let now = d.counts_now();
            if now.0 - pass_start.0 != pass0.delivered
                || now.1.materialized - pass_start.1.materialized != pass0.materialized
            {
                d.failed += 1;
            }
            pass_start = now;
        }
        if start.elapsed().as_secs_f64() >= next_setup {
            setup_sample();
            next_setup += SETUP_EVERY_S;
        }
    }
    out
}

/// Runs the workload: untraced (`trace == false`) or split between an
/// untraced and a traced half.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Run, CoreError> {
    let plan = plan(kind, seed);
    let stateless = kind != Kind::Fusion;
    let mut run = Run::default();

    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let mut setup = vec![setup_sample(kind, seed)?];
    let mut d = Driver::new(build(kind, seed, None)?, &plan);
    let pass0 = d.accuracy_pass();
    // A second untimed pass warms caches.
    for _ in 0..plan.batches.len() {
        d.batch(None, None);
    }
    run.peak_rss_mb = peak_rss_mb();
    let mut setup_err = None;
    let t = timed_phase(
        &mut d,
        &pass0,
        phase_s,
        None,
        stateless,
        || match setup_sample(kind, seed) {
            Ok(s) => setup.push(s),
            Err(e) => setup_err = Some(e),
        },
    );
    if let Some(e) = setup_err {
        return Err(e);
    }
    let (attempted, failed) = (d.attempted, d.failed);
    drop(d);

    let mut checks = vec![
        ("delivered_per_pass_nonzero", pass0.delivered > 0),
        ("err_finite", pass0.err_p95.is_finite()),
        (
            "replay_trees_lazy",
            kind != Kind::Replay || pass0.materialized == 0,
        ),
        (
            "translucent_trees_all_materialized",
            kind != Kind::Translucent || pass0.materialized == pass0.outputs,
        ),
    ];
    let mut extra = Vec::new();
    if kind == Kind::Fusion {
        // Fig. 6's shape: the filter must beat the raw fixes it refines.
        let mut raw = Driver::new(build(Kind::Replay, seed, None)?, &plan);
        let raw_pass = raw.accuracy_pass();
        checks.push(("raw_pass_clean", raw.failed == 0));
        checks.push(("pf_beats_raw_gps", pass0.err_p95 < raw_pass.err_p95));
        extra.push(("raw_gps_err_m_p95".to_string(), raw_pass.err_p95));
    }

    run.attempted = attempted;
    run.failed = failed;
    run.setup_s = setup.iter().copied().fold(f64::INFINITY, f64::min);
    run.positions_per_s = pass0.delivered as f64 / t.best.total();
    run.batch_best_s = t.best.times().to_vec();
    run.batch_tail_s = stats::quietest_share(&t.raw, plan.batches.len(), TAIL_SHARE);
    run.repeats = t.passes;
    run.err_m_p95 = pass0.err_p95;
    run.availability = 1.0 - failed as f64 / attempted as f64;
    run.determinism = vec![
        ("delivered_per_pass".into(), pass0.delivered as f64),
        ("lines_rejected_per_pass".into(), pass0.rejected as f64),
        ("materialized_per_pass".into(), pass0.materialized as f64),
        ("err_m_p95".into(), pass0.err_p95),
    ];
    run.extra = extra;

    if trace {
        let probes = Arc::new(Probes::default());
        let mut d = Driver::new(build(kind, seed, Some(&probes))?, &plan);
        let before_pass = snapshot_clocks(&probes);
        let traced0 = d.accuracy_pass();
        let pass_calls = snapshot_clocks(&probes).map(|c| c.1);
        let pass_calls: [u64; 5] = std::array::from_fn(|i| pass_calls[i] - before_pass[i].1);
        checks.push((
            "traced_pass_equals_untraced",
            traced0.delivered == pass0.delivered
                && traced0.rejected == pass0.rejected
                && traced0.materialized == pass0.materialized
                && traced0.err_p95.to_bits() == pass0.err_p95.to_bits()
                && traced0.pulls == pass0.pulls,
        ));
        for _ in 0..plan.batches.len() {
            d.batch(None, None);
        }
        let before = snapshot_clocks(&probes);
        let tt = timed_phase(&mut d, &pass0, phase_s, Some(&probes), stateless, || {});
        run.attempted += d.attempted;
        run.failed += d.failed;
        let traced_rate = pass0.delivered as f64 / tt.best.total();
        run.layers = layers(&probes, &before, &pass_calls, &tt, &traced0);
        run.layers.push(Layer::new(
            "trace.overhead",
            run.positions_per_s / traced_rate - 1.0,
        ));
    }
    run.checks = checks
        .into_iter()
        .map(|(name, ok)| (name.to_string(), ok))
        .collect();
    Ok(run)
}

/// Every clock in [`clocks`] order, to subtract the warm-up's share.
fn snapshot_clocks(p: &Probes) -> [(u64, u64); 5] {
    clocks(p).map(|c| c.reading())
}

fn clocks(p: &Probes) -> [&Clock; 5] {
    [&p.parser, &p.interpreter, &p.feature, &p.channel, &p.pf]
}

fn layers(
    p: &Probes,
    before: &[(u64, u64); 5],
    pass_calls: &[u64; 5],
    t: &Phase,
    pass: &PassCounts,
) -> Vec<Layer> {
    let c = clocks(p);
    let s = &t.split;
    let engine_ns = s.ingest_ns.saturating_sub(s.wrapped_ns) as f64;
    let total_ns = (s.scan_ns + s.ingest_ns + s.pull_ns) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        Layer::new(
            "codec.scan_ns_per_line",
            s.scan_ns as f64 / s.lines.max(1) as f64,
        ),
        Layer::new("codec.lines_rejected", pass.rejected as f64),
        Layer::new("parser.self_ns_per_item", c[0].ns_per_call_since(before[0])),
        Layer::new("parser.errors", pass.parser_errors as f64),
        Layer::new(
            "interpreter.self_ns_per_item",
            c[1].ns_per_call_since(before[1]),
        ),
        Layer::new(
            "feature.self_ns_per_item",
            c[2].ns_per_call_since(before[2]),
        ),
        Layer::new("feature.calls", pass_calls[2] as f64),
        Layer::new("channel.outputs", pass.outputs as f64),
        Layer::new("channel.materialized", pass.materialized as f64),
        Layer::new(
            "channel.materialized_ratio",
            ratio(pass.materialized, pass.outputs),
        ),
        Layer::new("channel.dropped", pass.dropped as f64),
        Layer::new(
            "channel.apply_ns_per_tree",
            c[3].ns_per_call_since(before[3]),
        ),
        Layer::new("arena.interned", pass.arena_interned as f64),
        Layer::new(
            "arena.recycled_ratio",
            ratio(pass.arena_recycled, pass.arena_interned),
        ),
        Layer::new("arena.escaped", pass.arena_escaped as f64),
        Layer::new("engine.self_ns_per_step", engine_ns / s.steps.max(1) as f64),
        Layer::new("engine.share", engine_ns / total_ns.max(1.0)),
        Layer::new("positioning.delivered", pass.delivered as f64),
        Layer::new(
            "positioning.pull_ns",
            s.pull_ns as f64 / s.pulls.max(1) as f64,
        ),
        Layer::new("pf.self_ns_per_update", c[4].ns_per_call_since(before[4])),
        Layer::new("pf.updates", pass_calls[4] as f64),
        Layer::new(
            "likelihood.applies",
            if pass_calls[4] > 0 {
                pass_calls[3] as f64
            } else {
                0.0
            },
        ),
    ]
}
