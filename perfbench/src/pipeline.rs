//! The benchmark's positioning processes: graph configurations (JSON
//! under `perfbench/configs/`), the component factories they are
//! instantiated through, and the few components and features the
//! workloads need beyond the shipped ones.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use perpos_analysis::gate::config_gate;
use perpos_analysis::TypeCatalog;
use perpos_core::channel::ChannelHost;
use perpos_core::component::{ComponentCtx, ComponentDescriptor, MethodSpec};
use perpos_core::prelude::*;
use perpos_fusion::{LikelihoodHandle, ParticleFilter};
use perpos_model::Building;
use perpos_sensors::{Interpreter, Parser};

use crate::input::frame;
use crate::probe::{Probes, Timed};

pub const NMEA_CONFIG: &str = include_str!("../configs/nmea.json");
pub const FUSION_CONFIG: &str = include_str!("../configs/fusion.json");
pub const FLEET_CONFIG: &str = include_str!("../configs/fleet.json");

/// Particles of the fusion workload's filter (the paper's Fig. 6 size).
pub const PARTICLES: usize = 800;

/// A source replaying a shared line set from a cursor, one line per
/// tick. With no lines it emits nothing and is driven by
/// `Middleware::ingest_batch` instead. The cursor is checkpointed, so a
/// restored fleet instance resumes where its checkpoint left it.
/// Reflective method: `seek(line: int)`.
pub struct ReplaySource {
    lines: Arc<[String]>,
    cursor: usize,
}

impl ReplaySource {
    pub fn new(lines: Arc<[String]>) -> Self {
        ReplaySource { lines, cursor: 0 }
    }
}

impl Component for ReplaySource {
    fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor::source("nmea_replay", vec![kinds::RAW_STRING])
            .with_effects(EffectSpec::new().stateful(true))
    }
    fn on_input(
        &mut self,
        port: usize,
        _item: DataItem,
        _ctx: &mut ComponentCtx<'_>,
    ) -> Result<(), CoreError> {
        Err(CoreError::ComponentFailure {
            component: "nmea_replay".into(),
            reason: format!("replay source has no input port {port}"),
        })
    }
    fn on_tick(&mut self, ctx: &mut ComponentCtx<'_>) -> Result<(), CoreError> {
        if self.lines.is_empty() {
            return Ok(());
        }
        let line = &self.lines[self.cursor];
        self.cursor = (self.cursor + 1) % self.lines.len();
        ctx.emit_with(kinds::RAW_STRING, |slot| match slot {
            Value::Text(text) => {
                text.clear();
                text.push_str(line);
            }
            other => *other = Value::Text(line.clone()),
        });
        Ok(())
    }
    fn invoke(&mut self, method: &str, args: &[Value]) -> Result<Value, CoreError> {
        match method {
            "seek" => {
                let at = args.first().and_then(Value::as_i64).ok_or_else(|| {
                    CoreError::BadArguments {
                        method: method.into(),
                        reason: "expected one int".into(),
                    }
                })?;
                self.cursor = usize::try_from(at).unwrap_or(0) % self.lines.len().max(1);
                Ok(Value::Null)
            }
            other => Err(CoreError::NoSuchMethod {
                target: "nmea_replay".into(),
                method: other.into(),
            }),
        }
    }
    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::new("seek", "(line: int) -> null")]
    }
    fn snapshot_state(&self) -> Option<Value> {
        Some(Value::Int(self.cursor as i64))
    }
    fn restore_state(&mut self, state: &Value) {
        if let Some(at) = state.as_i64() {
            self.cursor = usize::try_from(at).unwrap_or(0);
        }
    }
}

/// The application-side Channel Feature of the translucent workload: it
/// reads every delivered position's data tree, as a seamful application
/// inspecting satellite counts and HDOP would.
#[derive(Debug, Default)]
pub struct TreeReader {
    /// Sentences seen carrying both annotations.
    annotated: u64,
}

impl ChannelFeature for TreeReader {
    fn descriptor(&self) -> FeatureDescriptor {
        FeatureDescriptor::new("TreeReader")
    }
    fn apply(&mut self, tree: &DataTree, _host: &mut ChannelHost<'_>) -> Result<(), CoreError> {
        for node in tree.items_of_kind(&kinds::NMEA_SENTENCE) {
            if node.item.attr("hdop").is_some() && node.item.attr("satellites").is_some() {
                self.annotated += 1;
            }
        }
        std::hint::black_box(self.annotated);
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A Component Feature whose state is environmental: it forwards every
/// hook but is left out of checkpoints, so a restarted instance draws a
/// fresh fault schedule instead of replaying the crash it was restored
/// from (the instance factory reseeds it per incarnation).
pub struct Environmental<F>(pub F);

impl<F: ComponentFeature + 'static> ComponentFeature for Environmental<F> {
    fn descriptor(&self) -> FeatureDescriptor {
        self.0.descriptor()
    }
    fn on_consume(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        self.0.on_consume(item, host)
    }
    fn on_produce(
        &mut self,
        item: DataItem,
        host: &mut FeatureHost<'_>,
    ) -> Result<FeatureAction, CoreError> {
        self.0.on_produce(item, host)
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// What the factories need besides the component types themselves.
pub struct FactoryEnv {
    /// Lines the replay source ticks out (empty for ingest-driven runs).
    pub lines: Option<Arc<[String]>>,
    /// Building and likelihood handle for the particle filter.
    pub filter: Option<(Arc<Building>, LikelihoodHandle, u64)>,
    /// Layer clocks when the run is traced.
    pub probes: Option<Arc<Probes>>,
}

fn boxed<C: Component + 'static>(c: C) -> Box<dyn Component> {
    Box::new(c)
}

/// The factory map a configuration is instantiated through. With probes,
/// the Parser, Interpreter and particle filter come wrapped in timing
/// decorators; their descriptors are unchanged.
pub fn factories(env: &FactoryEnv) -> BTreeMap<String, ComponentFactory> {
    let mut map: BTreeMap<String, ComponentFactory> = BTreeMap::new();
    let lines: Arc<[String]> = env.lines.clone().unwrap_or_else(|| Arc::from(Vec::new()));
    map.insert(
        "nmea_replay".into(),
        Box::new(move || boxed(ReplaySource::new(Arc::clone(&lines)))),
    );
    let probes = env.probes.clone();
    map.insert(
        "parser".into(),
        Box::new(move || match &probes {
            Some(p) => boxed(Timed::new(Parser::new(), Arc::clone(&p.parser))),
            None => boxed(Parser::new()),
        }),
    );
    let probes = env.probes.clone();
    map.insert(
        "interpreter".into(),
        Box::new(move || match &probes {
            Some(p) => boxed(Timed::new(Interpreter::new(), Arc::clone(&p.interpreter))),
            None => boxed(Interpreter::new()),
        }),
    );
    if let Some((building, handle, seed)) = env.filter.clone() {
        let probes = env.probes.clone();
        map.insert(
            "particle_filter".into(),
            Box::new(move || {
                let pf = ParticleFilter::new("PF", frame(), 1)
                    .with_seed(seed)
                    .with_particles(PARTICLES)
                    .with_likelihood(handle.clone())
                    .with_building(Arc::clone(&building), 0);
                match &probes {
                    Some(p) => boxed(Timed::new(pf, Arc::clone(&p.pf))),
                    None => boxed(pf),
                }
            }),
        );
    }
    map
}

/// Parses a configuration's JSON.
pub fn parse_config(json: &str) -> Result<GraphConfig, CoreError> {
    serde_json::from_str(json).map_err(|e| CoreError::ComponentFailure {
        component: "config".into(),
        reason: format!("bad configuration JSON: {e}"),
    })
}

/// The real set-up path: parse the configuration JSON, gate it through
/// the static analysis against a catalog probed from the factories, and
/// instantiate it. Returns the instance-name → node map.
pub fn instantiate(
    config_json: &str,
    factories: &BTreeMap<String, ComponentFactory>,
    mw: &mut Middleware,
) -> Result<BTreeMap<String, NodeId>, CoreError> {
    let gate = config_gate(TypeCatalog::probe(factories));
    parse_config(config_json)?.instantiate_checked(mw, factories, &gate)
}

/// Looks up a configured instance.
pub fn node(nodes: &BTreeMap<String, NodeId>, name: &str) -> NodeId {
    *nodes
        .get(name)
        .unwrap_or_else(|| panic!("configuration names no instance {name:?}"))
}
