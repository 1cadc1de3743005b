//! Deterministic mid-run fault injection and run control.
//!
//! The paper's deployment story is *continuous* operation: RLI runs on live
//! routers where links fail, line cards degrade and loss bursts appear —
//! not only in the static pre-configured anomalies the accuracy scenarios
//! inject. A [`FaultScript`] is an ordered list of timed [`FaultEvent`]s
//! applied *inside* the engine as simulated time passes:
//!
//! * **Link failure/recovery** — an egress `(node, port)` goes
//!   administratively dead; the forwarder is offered a
//!   [`reroute`](crate::network::Forwarder::reroute) (ECMP alternative
//!   where one exists), otherwise the packet blackholes as a counted
//!   route drop. Packets already serialised onto the wire still arrive.
//! * **Switch service-time degradation** — every port of a switch gains
//!   extra processing delay at onset and returns to its baseline at
//!   clearance (the dynamic generalisation of the experiment layer's
//!   static `SwitchAnomaly` queue override).
//! * **Loss bursts** — every packet arriving at a node inside the window
//!   is dropped (and emitted as a [`RouteDrop`](crate::network::HopKind)
//!   hop event, so drop-aware taps account for it like any other death).
//!
//! Scripts are plain data: derived from a scenario's point seed they make
//! fault-bearing runs exactly as deterministic — and as thread-count
//! invariant under the sweep executor — as fault-free ones. An **empty**
//! script is guaranteed byte-identical to a run without one; the engine's
//! fault hooks reduce to a skipped `Option` check per event.

use crate::network::{Network, NodeId, PortId};
use rlir_net::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// What a scripted fault transition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The egress link behind `(node, port)` fails: subsequent forwards
    /// onto it are rerouted (if the forwarder knows an alternative) or
    /// blackholed as route drops. In-flight packets are unaffected.
    LinkDown {
        /// The switch owning the egress port.
        node: NodeId,
        /// The failed egress port.
        port: PortId,
    },
    /// The egress link behind `(node, port)` recovers.
    LinkUp {
        /// The switch owning the egress port.
        node: NodeId,
        /// The recovered egress port.
        port: PortId,
    },
    /// Service-time degradation onset: every port of `node` gains `extra`
    /// processing delay on top of its configured baseline.
    SlowSwitch {
        /// The degraded switch.
        node: NodeId,
        /// Additional per-packet processing delay.
        extra: SimDuration,
    },
    /// Degradation clearance: every port of `node` returns to the
    /// processing delay it had before the first uncleared
    /// [`FaultKind::SlowSwitch`].
    ClearSwitch {
        /// The recovered switch.
        node: NodeId,
    },
    /// Loss-burst onset: every packet arriving at `node` is dropped.
    LossBurstStart {
        /// The lossy switch.
        node: NodeId,
    },
    /// Loss-burst end.
    LossBurstEnd {
        /// The recovered switch.
        node: NodeId,
    },
    /// A measurement tap at `node` crashes. Packets still flow — the
    /// *measurement* instance dies, not the switch — so this transition is
    /// a no-op on the network; it is delivered to the run's
    /// [`HopSink`](crate::network::HopSink) via
    /// [`on_fault`](crate::network::HopSink::on_fault) so a measurement
    /// plane can discard the tap's window state and account the outage.
    TapDown {
        /// The node whose taps crash.
        node: NodeId,
    },
    /// The measurement tap(s) at `node` recover and re-attach cold.
    TapUp {
        /// The node whose taps recover.
        node: NodeId,
    },
}

/// One timed fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time at which the transition takes effect. The engine
    /// applies it before processing any packet event at `at` or later.
    pub at: SimTime,
    /// The transition.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered script of fault transitions.
///
/// Events are kept sorted by time (stable, so same-time events apply in
/// construction order). The script is borrowed by the engine for the
/// duration of a run; see [`crate::network::RunOptions`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// Build a script from transitions (sorted stably by time).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultScript { events }
    }

    /// The script with no faults — guaranteed byte-identical to running
    /// without a script at all.
    pub fn empty() -> Self {
        FaultScript::default()
    }

    /// True if the script holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The transitions, in application order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Append a transition, keeping the script time-ordered.
    pub fn push(&mut self, ev: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= ev.at);
        self.events.insert(pos, ev);
    }

    /// Time of the earliest transition, if any — the fault *onset* a
    /// detection-latency metric measures from.
    pub fn first_onset(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.at)
    }
}

/// The set of administratively-dead egress ports at one switch, handed to
/// [`Forwarder::reroute`](crate::network::Forwarder::reroute) so a
/// topology-aware forwarder can pick a live ECMP alternative.
#[derive(Debug, Clone, Copy)]
pub struct DeadPorts<'a> {
    node: NodeId,
    dead: &'a BTreeSet<(NodeId, PortId)>,
}

impl DeadPorts<'_> {
    /// True if `port` at this switch is currently dead.
    pub fn is_dead(&self, port: PortId) -> bool {
        self.dead.contains(&(self.node, port))
    }
}

/// Live fault state the engine advances as its clock passes scripted
/// transition times.
#[derive(Debug)]
pub(crate) struct FaultState<'a> {
    script: &'a [FaultEvent],
    /// Next unapplied script index.
    next: usize,
    /// Currently-dead egress ports.
    dead: BTreeSet<(NodeId, PortId)>,
    /// Nodes inside a loss burst.
    lossy: BTreeSet<NodeId>,
    /// Per-port baseline processing delays of currently-degraded switches,
    /// saved at the first uncleared onset.
    slowed: BTreeMap<NodeId, Vec<SimDuration>>,
}

impl<'a> FaultState<'a> {
    pub(crate) fn new(script: &'a FaultScript) -> Self {
        FaultState {
            script: script.events(),
            next: 0,
            dead: BTreeSet::new(),
            lossy: BTreeSet::new(),
            slowed: BTreeMap::new(),
        }
    }

    /// Apply every transition due at or before `at`. Transitions between
    /// two packet events apply lazily at the later event — equivalent,
    /// since fault state is only *read* when packets are processed. (The
    /// sink hears of them from the engine's emitter, see
    /// [`HopSink::on_fault`](crate::network::HopSink::on_fault).)
    pub(crate) fn advance(&mut self, at: SimTime, network: &mut Network) {
        while let Some(ev) = self.script.get(self.next) {
            if ev.at > at {
                break;
            }
            self.next += 1;
            match ev.kind {
                FaultKind::LinkDown { node, port } => {
                    self.dead.insert((node, port));
                }
                FaultKind::LinkUp { node, port } => {
                    self.dead.remove(&(node, port));
                }
                FaultKind::SlowSwitch { node, extra } => {
                    let ports = &mut network.nodes[node].ports;
                    self.slowed.entry(node).or_insert_with(|| {
                        ports
                            .iter()
                            .map(|p| p.queue.config().processing_delay)
                            .collect()
                    });
                    for p in ports.iter_mut() {
                        let d = p.queue.config().processing_delay + extra;
                        p.queue.set_processing_delay(d);
                    }
                }
                FaultKind::ClearSwitch { node } => {
                    if let Some(baseline) = self.slowed.remove(&node) {
                        let ports = &mut network.nodes[node].ports;
                        for (p, d) in ports.iter_mut().zip(baseline) {
                            p.queue.set_processing_delay(d);
                        }
                    }
                }
                FaultKind::LossBurstStart { node } => {
                    self.lossy.insert(node);
                }
                FaultKind::LossBurstEnd { node } => {
                    self.lossy.remove(&node);
                }
                // Measurement-plane transitions: no network effect.
                FaultKind::TapDown { .. } | FaultKind::TapUp { .. } => {}
            }
        }
    }

    /// True while `node` is inside a loss burst.
    pub(crate) fn lossy(&self, node: NodeId) -> bool {
        self.lossy.contains(&node)
    }

    /// True if egress `(node, port)` is currently dead.
    pub(crate) fn is_dead(&self, node: NodeId, port: PortId) -> bool {
        self.dead.contains(&(node, port))
    }

    /// The dead-port view for `node`, as handed to `Forwarder::reroute`.
    pub(crate) fn dead_ports(&self, node: NodeId) -> DeadPorts<'_> {
        DeadPorts {
            node,
            dead: &self.dead,
        }
    }
}

/// Cooperative early-termination flag for an engine run — the
/// closed-loop detector's termination hook.
///
/// Cloneable and cheap; a sink (e.g. an online change detector wrapping
/// the measurement plane) holds one clone and raises it mid-run, and the
/// engine loop checks it before each event, draining nothing further once
/// set. Single-threaded by construction (the engine is single-threaded;
/// sweep parallelism is across runs, never within one).
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Rc<Cell<bool>>);

impl StopFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Request the run stop before its next event.
    pub fn request_stop(&self) {
        self.0.set(true);
    }

    /// True once a stop has been requested.
    pub fn is_set(&self) -> bool {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_sorts_and_reports_onset() {
        let s = FaultScript::new(vec![
            FaultEvent {
                at: SimTime::from_nanos(500),
                kind: FaultKind::LossBurstEnd { node: 1 },
            },
            FaultEvent {
                at: SimTime::from_nanos(100),
                kind: FaultKind::LossBurstStart { node: 1 },
            },
        ]);
        assert_eq!(s.first_onset(), Some(SimTime::from_nanos(100)));
        assert!(matches!(
            s.events()[0].kind,
            FaultKind::LossBurstStart { .. }
        ));
        let mut s2 = FaultScript::empty();
        assert!(s2.is_empty());
        s2.push(s.events()[1]);
        s2.push(s.events()[0]);
        assert_eq!(s2, s);
    }

    #[test]
    fn stop_flag_shares_state_across_clones() {
        let a = StopFlag::new();
        let b = a.clone();
        assert!(!a.is_set());
        b.request_stop();
        assert!(a.is_set());
    }
}
