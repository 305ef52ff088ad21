//! Analysis of an instantiated processing graph via its reflective
//! structure ([`NodeInfo`] list).
//!
//! The live graph validates every *edge* as it is built, but whole-graph
//! properties — nothing dangling, everything reaching a sink, features
//! not conflicting — hold only if someone checks them. This module is
//! that check: it re-verifies type flow under the *current* feature set
//! (P001), finds dangling required inputs with role awareness (P002),
//! unsatisfied feature requirements (P003), dead components (P004),
//! cycles in hypothetical structures (P005) and feature conflicts
//! (P006). It runs on the output of `Middleware::structure()` or on a
//! simulated structure produced by [`crate::adaptation`].

use std::collections::{BTreeMap, BTreeSet};

use perpos_core::assembly::FleetSpec;
use perpos_core::component::ComponentRole;
use perpos_core::graph::{NodeId, NodeInfo};

use crate::diagnostic::{Code, Diagnostic, Report, Severity};

/// Deployment context of a live structure, for the effect checks
/// (P018–P020). A reflected [`NodeInfo`] list records components and
/// wires but not whether the graph is replicated into a fleet, so
/// callers that know supply it here. The default (no fleet) makes the
/// effect checks vacuous, matching [`analyze_structure`].
#[derive(Debug, Clone, Default)]
pub struct StructureContext {
    /// Fleet deployment the instance belongs to (`None` = standalone).
    pub fleet: Option<FleetSpec>,
}

impl StructureContext {
    /// Declares the fleet deployment (builder style).
    pub fn with_fleet(mut self, fleet: FleetSpec) -> StructureContext {
        self.fleet = Some(fleet);
        self
    }
}

/// Analyzes a live (or simulated) process structure with no deployment
/// context: the effect checks (P018–P020) assume no fleet. Use
/// [`analyze_structure_in`] when fleet membership is known.
pub fn analyze_structure(nodes: &[NodeInfo]) -> Report {
    analyze_structure_in(nodes, &StructureContext::default())
}

/// Analyzes a live (or simulated) process structure in a known
/// deployment context, so the effect checks see the fleet it runs in.
pub fn analyze_structure_in(nodes: &[NodeInfo], ctx: &StructureContext) -> Report {
    let mut report = Report::new();
    let by_id: BTreeMap<NodeId, &NodeInfo> = nodes.iter().map(|n| (n.id, n)).collect();

    check_type_flow(nodes, &by_id, &mut report);
    check_dangling_inputs(nodes, &mut report);
    check_feature_requirements(nodes, &by_id, &mut report);
    check_cycles(nodes, &by_id, &mut report);
    check_dead_components(nodes, &by_id, &mut report);
    check_feature_conflicts(nodes, &mut report);

    // Semantic dataflow analyses (P010-P014) over the same structure.
    let mut flow = crate::dataflow::FlowGraph::from_structure(nodes);
    flow.fleet = ctx.fleet.clone();
    let (_, dataflow_report) = crate::domains::analyze_dataflow(&flow);
    report.merge(dataflow_report);

    // Effect & determinism checks (P018-P020) against the declared
    // deployment context.
    crate::effects::effect_diagnostics(&flow, &mut report);

    report
}

/// A node's display name for diagnostic paths: `name (node#N)`.
fn label(n: &NodeInfo) -> String {
    format!("{} ({})", n.descriptor.name, n.id)
}

/// The kinds a node can currently produce: declared output plus
/// everything attached features add.
fn effective_provides(n: &NodeInfo) -> Vec<String> {
    let mut kinds: Vec<String> = n
        .descriptor
        .output
        .as_ref()
        .map(|o| o.provides.iter().map(|k| k.as_str().to_string()).collect())
        .unwrap_or_default();
    for f in &n.features {
        for k in &f.adds_kinds {
            let s = k.as_str().to_string();
            if !kinds.contains(&s) {
                kinds.push(s);
            }
        }
    }
    kinds
}

/// P001: every wired edge must still type-check under the current
/// feature set (detaching a feature can remove the kind an edge relied
/// on; connect-time validation cannot see that happen later).
fn check_type_flow(nodes: &[NodeInfo], by_id: &BTreeMap<NodeId, &NodeInfo>, report: &mut Report) {
    for n in nodes {
        for (port, producer) in n.inputs.iter().enumerate() {
            let Some(pid) = producer else { continue };
            let Some(p) = by_id.get(pid) else { continue };
            let Some(spec) = n.descriptor.inputs.get(port) else {
                report.push(
                    Diagnostic::new(
                        Code::P007,
                        Severity::Error,
                        format!(
                            "wire into port {port} of {} but only {} port(s) are declared",
                            label(n),
                            n.descriptor.inputs.len()
                        ),
                        vec![label(p), format!("{}(port {port})", label(n))],
                    )
                    .with_hint("disconnect the out-of-range wire"),
                );
                continue;
            };
            if spec.accepts.is_empty() {
                continue;
            }
            let provides = effective_provides(p);
            let accepts: Vec<String> = spec
                .accepts
                .iter()
                .map(|k| k.as_str().to_string())
                .collect();
            if !provides.iter().any(|k| accepts.contains(k)) {
                report.push(
                    Diagnostic::new(
                        Code::P001,
                        Severity::Error,
                        format!(
                            "{} effectively provides [{}] but port {:?} accepts [{}]",
                            label(p),
                            provides.join(", "),
                            spec.name,
                            accepts.join(", ")
                        ),
                        vec![label(p), format!("{}(port {port})", label(n))],
                    )
                    .with_hint(
                        "re-attach the feature providing the missing kind, or rewire the port",
                    ),
                );
            }
        }
    }
}

/// P002: unconnected input ports. Processors and merges need every
/// declared port (error); a sink's many any-kind ports are optional, but
/// a sink with no input at all receives nothing (warning).
fn check_dangling_inputs(nodes: &[NodeInfo], report: &mut Report) {
    for n in nodes {
        match n.descriptor.role {
            ComponentRole::Source => {}
            ComponentRole::Sink => {
                if !n.inputs.iter().any(Option::is_some) {
                    report.push(
                        Diagnostic::new(
                            Code::P002,
                            Severity::Warning,
                            format!("sink {} has no connected input", label(n)),
                            vec![label(n)],
                        )
                        .with_hint("connect the end of the positioning process to this sink"),
                    );
                }
            }
            ComponentRole::Processor | ComponentRole::Merge => {
                for (port, producer) in n.inputs.iter().enumerate() {
                    if producer.is_none() {
                        let name = n
                            .descriptor
                            .inputs
                            .get(port)
                            .map(|s| s.name.clone())
                            .unwrap_or_default();
                        report.push(
                            Diagnostic::new(
                                Code::P002,
                                Severity::Error,
                                format!(
                                    "input port {name:?} (index {port}) of {} is not connected",
                                    label(n)
                                ),
                                vec![format!("{}(port {port})", label(n))],
                            )
                            .with_hint("connect a producer or remove the component"),
                        );
                    }
                }
            }
        }
    }
}

/// P003: a port's `required_features` must all be attached to the wired
/// producer (detaching a feature after connecting breaks this silently).
fn check_feature_requirements(
    nodes: &[NodeInfo],
    by_id: &BTreeMap<NodeId, &NodeInfo>,
    report: &mut Report,
) {
    for n in nodes {
        for (port, producer) in n.inputs.iter().enumerate() {
            let Some(pid) = producer else { continue };
            let Some(p) = by_id.get(pid) else { continue };
            let Some(spec) = n.descriptor.inputs.get(port) else {
                continue;
            };
            let attached: BTreeSet<&str> = p.features.iter().map(|f| f.name.as_str()).collect();
            for feature in &spec.required_features {
                if !attached.contains(feature.as_str()) {
                    report.push(
                        Diagnostic::new(
                            Code::P003,
                            Severity::Error,
                            format!(
                                "port {:?} of {} requires feature {:?}, which is not \
                                 attached to producer {}",
                                spec.name,
                                label(n),
                                feature,
                                label(p)
                            ),
                            vec![label(p), format!("{}(port {port})", label(n))],
                        )
                        .with_hint(format!("attach feature {feature:?} to {}", label(p))),
                    );
                }
            }
        }
    }
}

/// P005: cycles. A live `ProcessingGraph` is acyclic by construction, so
/// this only fires on simulated structures (adaptation plans), where it
/// predicts the `CycleDetected` the real graph would raise.
fn check_cycles(nodes: &[NodeInfo], by_id: &BTreeMap<NodeId, &NodeInfo>, report: &mut Report) {
    let mut state: BTreeMap<NodeId, u8> = BTreeMap::new(); // 1 = visiting, 2 = done
    for start in nodes {
        if state.contains_key(&start.id) {
            continue;
        }
        let mut stack = vec![(start.id, 0usize)];
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            if *next == 0 {
                state.insert(id, 1);
            }
            let outs = by_id.get(&id).map(|n| n.outputs.as_slice()).unwrap_or(&[]);
            if let Some(&(succ, _)) = outs.get(*next) {
                *next += 1;
                match state.get(&succ) {
                    None => stack.push((succ, 0)),
                    Some(1) => {
                        let members: Vec<String> = stack
                            .iter()
                            .skip_while(|(n, _)| *n != succ)
                            .map(|(n, _)| by_id.get(n).map(|i| label(i)).unwrap_or_default())
                            .collect();
                        report.push(
                            Diagnostic::new(
                                Code::P005,
                                Severity::Error,
                                format!(
                                    "structure contains a cycle through {}",
                                    members.join(" -> ")
                                ),
                                members,
                            )
                            .with_hint(
                                "positioning processes are DAGs; remove one edge of the cycle",
                            ),
                        );
                    }
                    Some(_) => {}
                }
            } else {
                state.insert(id, 2);
                stack.pop();
            }
        }
    }
}

/// P004: components with no directed path to any sink.
fn check_dead_components(
    nodes: &[NodeInfo],
    by_id: &BTreeMap<NodeId, &NodeInfo>,
    report: &mut Report,
) {
    let mut alive: BTreeSet<NodeId> = nodes
        .iter()
        .filter(|n| n.descriptor.role == ComponentRole::Sink)
        .map(|n| n.id)
        .collect();
    let mut frontier: Vec<NodeId> = alive.iter().copied().collect();
    while let Some(id) = frontier.pop() {
        let Some(n) = by_id.get(&id) else { continue };
        for producer in n.inputs.iter().flatten() {
            if alive.insert(*producer) {
                frontier.push(*producer);
            }
        }
    }
    for n in nodes {
        if !alive.contains(&n.id) {
            report.push(
                Diagnostic::new(
                    Code::P004,
                    Severity::Warning,
                    format!(
                        "{} has no path to any sink; its output is never consumed",
                        label(n)
                    ),
                    vec![label(n)],
                )
                .with_hint("connect it (transitively) to a sink, or remove it"),
            );
        }
    }
}

/// P006: conflicting features on one component — two features adding the
/// same data kind (consumers cannot tell which produced an item) or
/// exposing the same reflective method name (dispatch is first-match,
/// silently shadowing the later feature).
fn check_feature_conflicts(nodes: &[NodeInfo], report: &mut Report) {
    for n in nodes {
        let mut kind_owner: BTreeMap<&str, &str> = BTreeMap::new();
        let mut method_owner: BTreeMap<&str, &str> = BTreeMap::new();
        for f in &n.features {
            for k in &f.adds_kinds {
                if let Some(first) = kind_owner.insert(k.as_str(), f.name.as_str()) {
                    report.push(
                        Diagnostic::new(
                            Code::P006,
                            Severity::Warning,
                            format!(
                                "features {:?} and {:?} on {} both add kind {:?}",
                                first,
                                f.name,
                                label(n),
                                k.as_str()
                            ),
                            vec![label(n)],
                        )
                        .with_hint("detach one of the features or change what it adds"),
                    );
                }
            }
            for m in &f.methods {
                if let Some(first) = method_owner.insert(m.name.as_str(), f.name.as_str()) {
                    report.push(
                        Diagnostic::new(
                            Code::P006,
                            Severity::Warning,
                            format!(
                                "features {:?} and {:?} on {} both expose method {:?}; \
                                 reflective dispatch will always pick {:?}",
                                first,
                                f.name,
                                label(n),
                                m.name,
                                first
                            ),
                            vec![label(n)],
                        )
                        .with_hint("rename one method or invoke the feature explicitly by name"),
                    );
                }
            }
        }
    }
}
