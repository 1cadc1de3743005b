//! Spans recorded from outside the program.
//!
//! The ledger wraps each layer's public boundary in its own adapter types
//! (see `adapters.rs`); every adapter is generic over a [`Probe`]. The
//! untraced repetitions instantiate the adapters with [`Off`], whose
//! `time` is the bare call, so end-to-end numbers carry no tracing cost at
//! all; one traced repetition instantiates them with a [`Sampler`].
//!
//! Per-call spans are far too short to time one by one: an `Instant` pair
//! costs about as much as the calls it brackets. The sampler therefore
//! counts every call, times one call in `stride` (a prime, so it cannot
//! lock onto the engine's arrive/enqueue/dequeue rhythm), subtracts a
//! calibrated empty-span cost from each timed call, and scales the sampled
//! time by `calls / sampled`.
//!
//! A stride is only sound where call costs are of one kind. The
//! watermark-driven calls are not: almost all return at once, and every
//! half reorder window one of them flushes the whole window. A stride
//! misses exactly the calls that carry the time (the first ledger did, and
//! booked 0.56 s of plane flushing to the engine). Those spans are
//! [`SpanId::heavy_tailed`] and are timed on **every** call — which costs
//! enough to distort everything around them, so it happens in a second
//! pass of the traced repetition ([`Pass::HeavyTailed`]) that times
//! nothing else, and only their own numbers are taken from that pass.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The per-call span names: the leaves under `sim.run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    TraceNext,
    SenderObserve,
    TopoRoute,
    PlaneHop,
    PlaneWatermark,
    SentinelHop,
    SentinelWatermark,
    DetectPoll,
    CaptureHop,
    CaptureWatermark,
}

impl SpanId {
    pub const ALL: [SpanId; 10] = [
        SpanId::TraceNext,
        SpanId::SenderObserve,
        SpanId::TopoRoute,
        SpanId::PlaneHop,
        SpanId::PlaneWatermark,
        SpanId::SentinelHop,
        SpanId::SentinelWatermark,
        SpanId::DetectPoll,
        SpanId::CaptureHop,
        SpanId::CaptureWatermark,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanId::TraceNext => "trace.next",
            SpanId::SenderObserve => "rli.sender.observe",
            SpanId::TopoRoute => "topo.route",
            SpanId::PlaneHop => "plane.on_hop",
            SpanId::PlaneWatermark => "plane.on_watermark",
            SpanId::SentinelHop => "sentinel.on_hop",
            SpanId::SentinelWatermark => "sentinel.on_watermark",
            SpanId::DetectPoll => "detect.poll",
            SpanId::CaptureHop => "capture.on_hop",
            SpanId::CaptureWatermark => "capture.on_watermark",
        }
    }

    /// Whether the span's call costs are heavy-tailed (see the module
    /// docs): timed on every call, in a pass of their own.
    pub fn heavy_tailed(self) -> bool {
        matches!(
            self,
            SpanId::PlaneWatermark
                | SpanId::SentinelWatermark
                | SpanId::DetectPoll
                | SpanId::CaptureWatermark
        )
    }
}

/// Which spans a [`Sampler`] times; it counts the calls of all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// One call in `stride` of every span that is not heavy-tailed.
    Uniform { stride: u64 },
    /// Every call of the heavy-tailed spans, nothing else.
    HeavyTailed,
}

/// What an adapter calls around each crossing of a layer boundary.
pub trait Probe {
    /// Run `f`, attributing it to span `id`.
    fn time<R>(&self, id: SpanId, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: `time` is the call itself and compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn time<R>(&self, _id: SpanId, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Calls counted (every one).
    pub calls: u64,
    /// Calls timed (one in `stride`).
    pub sampled: u64,
    /// Raw nanoseconds over the timed calls, empty-span cost included.
    pub sampled_ns: u64,
}

impl SpanStat {
    /// Estimated seconds inside the span over all calls: the timed calls,
    /// less `span_cost_ns` each, scaled up to the call count.
    pub fn busy_s(&self, span_cost_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net = (self.sampled_ns as f64 - self.sampled as f64 * span_cost_ns).max(0.0);
        net / self.sampled as f64 * self.calls as f64 / 1e9
    }
}

#[derive(Default)]
struct Slot {
    stride: u64,
    calls: AtomicU64,
    until_sample: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

/// `counter += n` as a relaxed load and store, not a locked read-modify-
/// write: the counters are statistics, and the sharded engine's `Sync`
/// bound on its forwarder is the only reason they are atomics at all — the
/// ledger never drives a sampled adapter from two threads.
#[inline(always)]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Relaxed).wrapping_add(n), Relaxed);
}

/// The stride sampler (see the module docs).
pub struct Sampler {
    slots: [Slot; SpanId::ALL.len()],
}

/// One call in 61 is timed.
pub const DEFAULT_STRIDE: u64 = 61;

impl Sampler {
    pub fn new(pass: Pass) -> Self {
        Sampler {
            slots: SpanId::ALL.map(|id| {
                let stride = match (pass, id.heavy_tailed()) {
                    (Pass::Uniform { stride }, false) => stride.max(1),
                    (Pass::HeavyTailed, true) => 1,
                    // Counted, never timed.
                    _ => u64::MAX,
                };
                Slot {
                    stride,
                    until_sample: AtomicU64::new(stride),
                    ..Slot::default()
                }
            }),
        }
    }

    pub fn stat(&self, id: SpanId) -> SpanStat {
        let slot = &self.slots[id as usize];
        SpanStat {
            calls: slot.calls.load(Relaxed),
            sampled: slot.sampled.load(Relaxed),
            sampled_ns: slot.sampled_ns.load(Relaxed),
        }
    }
}

impl Probe for Sampler {
    #[inline]
    fn time<R>(&self, id: SpanId, f: impl FnOnce() -> R) -> R {
        let slot = &self.slots[id as usize];
        bump(&slot.calls, 1);
        let left = slot.until_sample.load(Relaxed) - 1;
        if left != 0 {
            slot.until_sample.store(left, Relaxed);
            return f();
        }
        slot.until_sample.store(slot.stride, Relaxed);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        bump(&slot.sampled, 1);
        bump(&slot.sampled_ns, ns);
        out
    }
}

/// What an empty timed span reads, in nanoseconds: the part of the
/// `Instant` pair that falls inside the measured interval. Median of five
/// batch means, so one preempted batch cannot inflate it.
pub fn calibrate_span_cost_ns() -> f64 {
    let mut means: Vec<f64> = (0..5)
        .map(|_| {
            let s = Sampler::new(Pass::Uniform { stride: 1 });
            for i in 0..20_000u64 {
                s.time(SpanId::TraceNext, || std::hint::black_box(i));
            }
            let st = s.stat(SpanId::TraceNext);
            st.sampled_ns as f64 / st.sampled as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[means.len() / 2]
}

/// The one-shot spans (`workload ▸ {setup, run ▸ {sim.run ▸ …, report.*}}`)
/// as a tree of totals; a span's self time is its total minus its
/// children's totals.
#[derive(Debug, Default)]
pub struct SpanTree {
    nodes: Vec<(String, Option<usize>, f64)>,
}

impl SpanTree {
    /// Add span `name` of `total_s` seconds under `parent`; returns its index.
    pub fn add(&mut self, name: &str, parent: Option<usize>, total_s: f64) -> usize {
        self.nodes.push((name.to_string(), parent, total_s));
        self.nodes.len() - 1
    }

    /// Total minus direct children. Sampled children are estimates, so the
    /// result can dip below zero; the caller gates on that instead of this
    /// function hiding it.
    pub fn self_s(&self, idx: usize) -> f64 {
        let children: f64 = self
            .nodes
            .iter()
            .filter(|(_, parent, _)| *parent == Some(idx))
            .map(|(_, _, total)| total)
            .sum();
        self.nodes[idx].2 - children
    }

    /// `(name, depth, total_s, self_s)` rows in insertion order.
    pub fn rows(&self) -> Vec<(&str, usize, f64, f64)> {
        (0..self.nodes.len())
            .map(|i| {
                let mut depth = 0;
                let mut at = self.nodes[i].1;
                while let Some(p) = at {
                    depth += 1;
                    at = self.nodes[p].1;
                }
                (
                    self.nodes[i].0.as_str(),
                    depth,
                    self.nodes[i].2,
                    self.self_s(i),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let mut t = SpanTree::default();
        let workload = t.add("workload", None, 10.0);
        let setup = t.add("setup", Some(workload), 2.0);
        let run = t.add("run", Some(workload), 7.5);
        let sim = t.add("sim.run", Some(run), 6.0);
        t.add("plane.on_hop", Some(sim), 3.5);
        t.add("topo.route", Some(sim), 1.0);
        t.add("report.finish", Some(run), 1.0);
        assert_eq!(t.self_s(workload), 0.5);
        assert_eq!(t.self_s(setup), 2.0);
        assert_eq!(t.self_s(run), 0.5, "grandchildren are not subtracted twice");
        assert_eq!(t.self_s(sim), 1.5);
        let rows = t.rows();
        assert_eq!(rows[3], ("sim.run", 2, 6.0, 1.5));
        assert_eq!(rows[4].1, 3);
    }

    #[test]
    fn oversampled_children_show_as_negative_self_time() {
        let mut t = SpanTree::default();
        let sim = t.add("sim.run", None, 1.0);
        t.add("plane.on_hop", Some(sim), 1.2);
        assert!(t.self_s(sim) < 0.0);
    }

    #[test]
    fn off_probe_is_the_bare_call() {
        assert_eq!(Off.time(SpanId::TopoRoute, || 7), 7);
    }

    #[test]
    fn sampler_counts_every_call_and_times_one_in_stride() {
        let s = Sampler::new(Pass::Uniform { stride: 7 });
        for _ in 0..700 {
            s.time(SpanId::PlaneHop, || ());
        }
        s.time(SpanId::TopoRoute, || ());
        let st = s.stat(SpanId::PlaneHop);
        assert_eq!((st.calls, st.sampled), (700, 100));
        assert_eq!(s.stat(SpanId::TopoRoute).calls, 1);
        assert_eq!(s.stat(SpanId::TopoRoute).sampled, 0);
        assert_eq!(s.stat(SpanId::DetectPoll), SpanStat::default());
    }

    #[test]
    fn each_pass_times_its_own_spans_and_counts_all() {
        let uniform = Sampler::new(Pass::Uniform { stride: 1 });
        let heavy = Sampler::new(Pass::HeavyTailed);
        for s in [&uniform, &heavy] {
            for _ in 0..10 {
                s.time(SpanId::PlaneHop, || ());
                s.time(SpanId::PlaneWatermark, || ());
            }
        }
        let sampled = |s: &Sampler, id| (s.stat(id).calls, s.stat(id).sampled);
        assert_eq!(sampled(&uniform, SpanId::PlaneHop), (10, 10));
        assert_eq!(sampled(&uniform, SpanId::PlaneWatermark), (10, 0));
        assert_eq!(sampled(&heavy, SpanId::PlaneHop), (10, 0));
        assert_eq!(sampled(&heavy, SpanId::PlaneWatermark), (10, 10));
    }

    #[test]
    fn the_exact_pass_catches_the_calls_a_stride_would_miss() {
        // 600 calls, three of which (the 7th, 207th, 407th) carry all the
        // time — the shape of a watermark span. No multiple of 61 is among
        // them: a stride would have read this span as free.
        let exact = Sampler::new(Pass::HeavyTailed);
        for i in 1..=600u64 {
            exact.time(SpanId::PlaneWatermark, || {
                if i % 200 == 7 {
                    spin(Duration::from_millis(2));
                }
            });
        }
        let st = exact.stat(SpanId::PlaneWatermark);
        assert_eq!((st.calls, st.sampled), (600, 600));
        assert!(
            st.busy_s(0.0) >= 0.006,
            "exact pass saw {} s",
            st.busy_s(0.0)
        );
    }

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn calibrated_sampler_recovers_a_known_cost() {
        let cost = calibrate_span_cost_ns();
        assert!(cost > 0.0 && cost < 5_000.0, "span cost {cost} ns");
        // 2000 calls of ~20 µs each, one in 7 timed: the estimate must land
        // near 40 ms. The spin can only overshoot (preemption), never
        // undershoot, hence the asymmetric band.
        let s = Sampler::new(Pass::Uniform { stride: 7 });
        for _ in 0..2_000 {
            s.time(SpanId::PlaneHop, || spin(Duration::from_micros(20)));
        }
        let busy = s.stat(SpanId::PlaneHop).busy_s(cost);
        assert!((0.039..0.120).contains(&busy), "estimated {busy} s");
    }

    #[test]
    fn calibration_removes_the_empty_span_cost() {
        let cost = calibrate_span_cost_ns();
        let s = Sampler::new(Pass::Uniform { stride: 1 });
        for i in 0..50_000u64 {
            s.time(SpanId::PlaneHop, || std::hint::black_box(i));
        }
        let st = s.stat(SpanId::PlaneHop);
        let raw_s = st.sampled_ns as f64 / 1e9;
        // Uncorrected, 50k empty spans read as raw_s of "work"; corrected,
        // at most a third of that survives (scheduling noise).
        assert!(
            st.busy_s(cost) <= raw_s / 3.0 + 1e-4,
            "{} vs raw {raw_s}",
            st.busy_s(cost)
        );
        assert_eq!(st.busy_s(1e12), 0.0, "never negative");
    }
}
