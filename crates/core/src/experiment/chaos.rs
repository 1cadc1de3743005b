//! Seeded chaos campaigns: the survivability harness.
//!
//! One `u64` seed names an entire reproducible campaign of correlated
//! failures — link flaps, gray-loss ramps, tap crash/recovery pairs and a
//! mid-run latency degradation — generated by [`rlir_sim::ChaosConfig`]
//! and applied to the fat-tree experiment's run. The online
//! [`EpochDetector`](crate::detect::EpochDetector) watches every campaign;
//! the report carries the operator's survivability quantities:
//!
//! * detection rate, time-to-localize (vs the degradation onset), and
//!   false positives — including a fault-free **baseline leg** that must
//!   stay silent;
//! * tap crash/recovery accounting: outages absorbed, observations lost
//!   while down, epochs recovered cold after restart;
//! * **tenant cross-talk**: the plane is run victim-alone vs
//!   victim-plus-flooding-tenant and the victim's per-epoch estimates are
//!   compared bit-for-bit ([`ChaosReport::cross_talk_max_abs_ns`] must be
//!   exactly `0.0` — the isolation property);
//! * a **hostile-ingest leg**: a seed-corrupted in-memory capture is
//!   replayed through the lenient pcap path and every skip/resync/clamp
//!   counter is surfaced, with strict-vs-lenient agreement verified on
//!   the clean capture first.

use super::fattree::{run_fattree_faulted, FatTreeExpConfig, ANOMALY};
use crate::deployment::SenderSet;
use crate::detect::DetectorConfig;
use crate::plane::{MeasurementPlane, PlaneConfig, TapPoint, TapSpec};
use rlir_net::clock::ClockModel;
use rlir_net::packet::{Packet, SenderId};
use rlir_net::time::{SimDuration, SimTime};
use rlir_net::FlowKey;
use rlir_rli::{RliSender, StaticPolicy};
use rlir_sim::{
    run_network_streamed_source, ChaosConfig, FaultEvent, FaultKind, Forwarder, Network, NodeId,
    Port, QueueConfig, RouteDecision, RunOptions, SortedVecSource,
};
use rlir_topo::FatTree;
use rlir_trace::{EntryMap, PcapRecords, PcapReplaySource, PcapWriter};
use std::net::Ipv4Addr;

/// Configuration of the chaos-campaign harness.
#[derive(Debug, Clone)]
pub struct ChaosCampaignConfig {
    /// Base fat-tree experiment every campaign runs on.
    pub base: FatTreeExpConfig,
    /// Seeded campaigns to run.
    pub campaigns: usize,
    /// Master chaos seed; campaign `i` uses a splitmix-derived child.
    pub chaos_seed: u64,
    /// Records in the hostile-ingest leg's synthetic capture.
    pub ingest_records: u64,
}

impl ChaosCampaignConfig {
    /// Defaults: the k = 4 paper fabric with 1 ms epochs, three seeded
    /// campaigns of one flap + one gray ramp + two tap outages each, a
    /// 400 µs degradation for the TTL measurement, onsets in the second
    /// quarter of the run so every tap has settled epochs before and
    /// after its outage.
    pub fn paper(seed: u64, duration: SimDuration) -> Self {
        let mut base = FatTreeExpConfig::paper(seed, duration);
        base.plane.epoch = Some(SimDuration::from_millis(1));
        ChaosCampaignConfig {
            base,
            campaigns: 3,
            chaos_seed: seed,
            ingest_records: 2_000,
        }
    }

    /// A quarter of the run: both the start and the width of the campaign
    /// onset window, so onsets fall in the run's second quarter.
    fn quarter(&self) -> SimDuration {
        SimDuration::from_nanos(self.base.duration.as_nanos() / 4)
    }
}

/// Correlated link-flap episodes per campaign.
const FLAPS: usize = 1;
/// Gray-loss ramps per campaign.
const GRAY_RAMPS: usize = 1;
/// Tap crash/recovery pairs per campaign.
const TAP_OUTAGES: usize = 2;
/// Shortest fault hold time (the longest is an eighth of the run).
const MIN_HOLD: SimDuration = SimDuration::from_millis(1);
/// Corruption splices applied to the hostile-ingest leg's capture.
const INGEST_CORRUPTIONS: usize = 6;

/// Outcome of one seeded campaign.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    /// Campaign ordinal.
    pub campaign: usize,
    /// The campaign's derived chaos seed — replays the script bit-for-bit.
    pub seed: u64,
    /// Fault transitions in the generated script.
    pub events: usize,
    /// Earliest scripted onset, ns.
    pub first_onset_ns: u64,
    /// The degradation onset TTL is measured against, ns.
    pub degrade_onset_ns: u64,
    /// The detector fired.
    pub detected: bool,
    /// The alarm fired before *any* scripted onset — a false positive.
    pub false_positive: bool,
    /// Detection watermark − degradation onset, ns.
    pub ttl_ns: Option<u64>,
    /// Packets killed by the fault script (loss bursts + dead links).
    pub fault_drops: u64,
    /// Tap outages the plane absorbed.
    pub tap_outages: u64,
    /// Non-empty epochs produced at or after cold tap recoveries.
    pub recovered_epochs: u64,
    /// Observations lost to tap outages.
    pub lost_window_obs: u64,
    /// Regular observations shed by plane budgets.
    pub shed: u64,
    /// Plane-wide pending high-water mark.
    pub peak_pending_total: usize,
}

/// The hostile-ingest leg: lenient replay of a seed-corrupted capture.
#[derive(Debug, Clone)]
pub struct IngestLeg {
    /// Records in the clean synthetic capture.
    pub records: u64,
    /// Corruption splices applied.
    pub corruptions: usize,
    /// Injections the lenient replay still produced.
    pub emitted: u64,
    /// Records the lenient decoder skipped.
    pub skipped_records: u64,
    /// Bytes the lenient decoder discarded.
    pub skipped_bytes: u64,
    /// Resync scans performed.
    pub resyncs: u64,
    /// Time regressions clamped by the lenient replay.
    pub clamped_regressions: u64,
    /// Records dropped by the duplicate-identity cap.
    pub dup_capped: u64,
    /// Strict and lenient replays agreed record-for-record on the clean
    /// capture (the oracle check; must always be true).
    pub strict_matches_lenient_on_clean: bool,
}

/// Aggregate of the whole harness.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-campaign outcomes.
    pub campaigns: Vec<ChaosCampaign>,
    /// Campaigns with a post-onset detection.
    pub detected: usize,
    /// Campaigns whose alarm fired before any scripted onset.
    pub false_positives: usize,
    /// Mean TTL over detected campaigns, ns (`NaN` if none).
    pub mean_ttl_ns: f64,
    /// Tap outages absorbed across campaigns.
    pub total_tap_outages: u64,
    /// Cold-recovered epochs across campaigns.
    pub total_recovered_epochs: u64,
    /// Outage-lost observations across campaigns.
    pub total_lost_window_obs: u64,
    /// The fault-free baseline leg raised an alarm (must be `false`:
    /// zero false positives at baseline load).
    pub baseline_false_positive: bool,
    /// Worst per-epoch |victim-alone − victim-with-flood| estimate
    /// difference, ns — the tenant isolation property; exactly `0.0`
    /// when isolation holds.
    pub cross_talk_max_abs_ns: f64,
    /// The hostile-ingest leg.
    pub ingest: IngestLeg,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign vocabulary for a fat-tree: aggregation switches flap
/// their core-facing uplinks (reroutes exist), aggs + cores take gray
/// loss, and the tap-hosting nodes (cores, destination ToR) take outages.
fn chaos_config(cfg: &ChaosCampaignConfig, tree: &FatTree, seed: u64) -> ChaosConfig {
    let half = tree.half();
    let mut c = ChaosConfig::new(seed);
    c.flap_candidates = tree
        .aggs()
        .map(|a| (a, (half..2 * half).collect()))
        .collect();
    c.gray_candidates = tree.aggs().chain(tree.cores()).collect();
    c.tap_candidates = tree
        .cores()
        .chain(std::iter::once(cfg.base.dst_tor(tree)))
        .collect();
    c.flaps = FLAPS;
    c.gray_ramps = GRAY_RAMPS;
    c.tap_outages = TAP_OUTAGES;
    c.start = SimTime::from_nanos(cfg.quarter().as_nanos());
    c.span = cfg.quarter();
    c.min_hold = MIN_HOLD;
    c.max_hold = SimDuration::from_nanos((cfg.base.duration.as_nanos() / 8).max(2));
    c
}

/// Run the harness: baseline leg, `campaigns` seeded campaigns, the
/// isolation cross-talk check and the hostile-ingest leg.
pub fn run_chaos(cfg: &ChaosCampaignConfig) -> ChaosReport {
    let tree = FatTree::new(cfg.base.k, cfg.base.hash);

    // Baseline: fault-free run under the same detector. Any alarm here is
    // a false positive by construction.
    let detector = DetectorConfig::default();
    let baseline = run_fattree_faulted(&cfg.base, None, Some(&detector));
    let baseline_false_positive = baseline.detection.is_some();

    let mut state = cfg.chaos_seed ^ 0xA5A5_5A5A_C3C3_3C3C;
    let mut campaigns = Vec::with_capacity(cfg.campaigns);
    let mut ttl_sum = 0.0f64;
    let mut detected = 0usize;
    let mut false_positives = 0usize;
    for i in 0..cfg.campaigns {
        let seed = splitmix(&mut state);
        let chaos = chaos_config(cfg, &tree, seed);
        let mut script = chaos.generate();
        // The detectable anomaly: a latency degradation at a seed-drawn
        // core, so TTL is measurable against a known onset.
        let mut s2 = seed ^ 0x0DD0_FEED_BEEF_CAFE;
        let cores: Vec<NodeId> = tree.cores().collect();
        let victim = cores[(splitmix(&mut s2) % cores.len() as u64) as usize];
        let quarter = cfg.quarter().as_nanos();
        let degrade_onset_ns = quarter + splitmix(&mut s2) % quarter.max(1);
        script.push(FaultEvent {
            at: SimTime::from_nanos(degrade_onset_ns),
            kind: FaultKind::SlowSwitch {
                node: victim,
                extra: ANOMALY,
            },
        });
        let first_onset_ns = script.first_onset().map_or(0, |t| t.as_nanos());

        let run = run_fattree_faulted(&cfg.base, Some(&script), Some(&detector));
        let false_positive = run
            .detection
            .as_ref()
            .is_some_and(|d| d.at.as_nanos() < first_onset_ns);
        let ttl_ns = run
            .detection
            .as_ref()
            .and_then(|d| d.at.as_nanos().checked_sub(degrade_onset_ns));
        if let Some(t) = ttl_ns {
            detected += 1;
            ttl_sum += t as f64;
        }
        if false_positive {
            false_positives += 1;
        }
        campaigns.push(ChaosCampaign {
            campaign: i,
            seed,
            events: script.events().len(),
            first_onset_ns,
            degrade_onset_ns,
            detected: run.detection.is_some(),
            false_positive,
            ttl_ns,
            fault_drops: run.fault_drops,
            tap_outages: run.outcome.tap_outages,
            recovered_epochs: run.outcome.recovered_epochs,
            lost_window_obs: run.outcome.lost_window_obs,
            shed: run.outcome.shed,
            peak_pending_total: run.outcome.peak_pending_total,
        });
    }

    let total_tap_outages = campaigns.iter().map(|c| c.tap_outages).sum();
    let total_recovered_epochs = campaigns.iter().map(|c| c.recovered_epochs).sum();
    let total_lost_window_obs = campaigns.iter().map(|c| c.lost_window_obs).sum();
    ChaosReport {
        detected,
        false_positives,
        mean_ttl_ns: if detected > 0 {
            ttl_sum / detected as f64
        } else {
            f64::NAN
        },
        total_tap_outages,
        total_recovered_epochs,
        total_lost_window_obs,
        baseline_false_positive,
        cross_talk_max_abs_ns: isolation_cross_talk(cfg.chaos_seed),
        ingest: ingest_leg(cfg),
        campaigns,
    }
}

// ---------------------------------------------------------------------------
// Tenant isolation cross-talk probe
// ---------------------------------------------------------------------------

struct Chain;
impl Forwarder for Chain {
    fn route(&self, _node: NodeId, _p: &Packet) -> RouteDecision {
        RouteDecision::Forward(0)
    }
}

/// Processing-dominated queues: per-hop delay is occupancy-independent,
/// so the victim's packet timing is bit-identical with and without the
/// flood — any estimate difference can only come from plane-side
/// cross-talk.
fn probe_qcfg() -> QueueConfig {
    QueueConfig {
        rate_bps: 8_000_000_000_000,
        capacity_bytes: 1 << 24,
        processing_delay: SimDuration::from_micros(10),
    }
}

fn probe_flow(i: u8) -> FlowKey {
    FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, i),
        5000 + i as u16,
        Ipv4Addr::new(10, 9, 0, 1),
        80,
    )
}

fn probe_ref_key(port: u16) -> FlowKey {
    FlowKey::udp(
        Ipv4Addr::new(10, 0, 0, 250),
        port,
        Ipv4Addr::new(10, 9, 0, 250),
        rlir_net::wire::RLI_UDP_PORT,
    )
}

/// One probe run: two disjoint chains (`a0→a1→host`, `b0→b1→host`), the
/// victim tap (tenant 0) on chain A, the flood tap (tenant 1) on chain B,
/// one shared plane budget. Returns the victim tap's per-epoch
/// `(estimated, est_mean)` series.
fn probe_run(with_flood: bool) -> Vec<(u64, u64)> {
    let mut net = Network::default();
    let a0 = net.add_node("A0");
    let a1 = net.add_node("A1");
    let b0 = net.add_node("B0");
    let b1 = net.add_node("B1");
    let link = SimDuration::from_nanos(100);
    net.add_port(a0, Port::to_switch(probe_qcfg(), a1, link));
    net.add_port(a1, Port::to_host(probe_qcfg(), link));
    net.add_port(b0, Port::to_switch(probe_qcfg(), b1, link));
    net.add_port(b1, Port::to_host(probe_qcfg(), link));

    let mut injections: Vec<(NodeId, Packet)> = Vec::new();
    // Victim workload: modest, always under its guaranteed share, metered
    // by an in-band sender at its chain's head.
    let sender = RliSender::new(
        SenderId(1),
        ClockModel::perfect(),
        StaticPolicy::one_in(10),
        vec![probe_ref_key(40_000)],
    );
    let mut senders = SenderSet::one(a0, sender);
    for i in 0..2_000u64 {
        let at = SimTime::from_nanos(i * 2_000);
        let p = Packet::regular(i, probe_flow((i % 3) as u8), 700, at);
        injections.push((a0, p));
    }
    // Flood workload: 10× the victim's rate, squeezed into the same span —
    // far beyond tenant 1's share of the plane budget.
    if with_flood {
        for i in 0..20_000u64 {
            let p = Packet::regular(
                1 << 32 | i,
                probe_flow(200 + (i % 3) as u8),
                700,
                SimTime::from_nanos(i * 200),
            );
            injections.push((b0, p));
        }
    }

    let mut plane = MeasurementPlane::with_config(PlaneConfig {
        reorder_window: SimDuration::from_micros(10),
        epoch: Some(SimDuration::from_micros(500)),
        pending_budget: Some(128),
    });
    // Both tenants are declared in BOTH runs, so the share split is
    // identical; only the flood's traffic differs.
    plane.set_tenant_weight(0, 1);
    plane.set_tenant_weight(1, 1);
    let mut victim = TapSpec::new("victim", TapPoint::NodeArrival(a1), SenderId(1));
    victim.truth = crate::plane::TruthRef::SinceInjection;
    victim.tenant = 0;
    plane.attach(victim);
    let mut flood = TapSpec::new("flood", TapPoint::NodeArrival(b1), SenderId(2));
    flood.tenant = 1;
    plane.attach(flood);

    let source = SortedVecSource::new(injections);
    run_network_streamed_source(
        net,
        &Chain,
        source,
        &mut plane,
        RunOptions {
            senders: Some(&mut senders),
            ..RunOptions::default()
        },
        |_| {},
    );
    let report = plane.finish();
    report.taps[0]
        .report
        .epochs
        .iter()
        .map(|e| (e.estimated, e.est_mean().unwrap_or(f64::NAN).to_bits()))
        .collect()
}

/// The isolation property, measured: worst per-epoch absolute difference
/// of the victim's estimates between a victim-alone and a
/// victim-plus-flood run. `0.0` iff the series are bit-identical
/// (epoch-count or estimate mismatches report as `INFINITY`).
fn isolation_cross_talk(_seed: u64) -> f64 {
    let alone = probe_run(false);
    let flooded = probe_run(true);
    if alone.len() != flooded.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for ((n_a, m_a), (n_f, m_f)) in alone.iter().zip(&flooded) {
        if n_a != n_f {
            return f64::INFINITY;
        }
        let (a, f) = (f64::from_bits(*m_a), f64::from_bits(*m_f));
        let d = if m_a == m_f { 0.0 } else { (a - f).abs() };
        if !d.is_finite() {
            return f64::INFINITY;
        }
        worst = worst.max(d);
    }
    worst
}

// ---------------------------------------------------------------------------
// Hostile-ingest leg
// ---------------------------------------------------------------------------

fn drain_source<R: std::io::Read>(src: &mut PcapReplaySource<R>) -> Vec<(u64, u64)> {
    use rlir_sim::InjectionSource;
    let mut out = Vec::new();
    while src.peek().is_some() {
        let (_, p) = src.next_injection().expect("peeked");
        out.push((p.id.0 & 0xFFFF, p.created_at.as_nanos()));
    }
    out
}

/// Build a clean in-memory capture, verify strict == lenient on it, then
/// corrupt it from the chaos seed and replay leniently.
fn ingest_leg(cfg: &ChaosCampaignConfig) -> IngestLeg {
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory writer");
    for i in 0..cfg.ingest_records {
        w.write(&Packet::regular(
            i,
            probe_flow((i % 5) as u8),
            600 + (i % 7) as u32 * 100,
            SimTime::from_nanos(i * 400),
        ))
        .expect("in-memory write");
    }
    let clean = w.finish().expect("in-memory finish");

    // Oracle check on the clean capture.
    let strict = {
        let mut s = PcapReplaySource::new(
            PcapRecords::new(clean.as_slice()).expect("clean header"),
            EntryMap::Fixed(0),
            1_000,
        );
        drain_source(&mut s)
    };
    let lenient_clean = {
        let mut s = PcapReplaySource::new(
            PcapRecords::new(clean.as_slice()).expect("clean header"),
            EntryMap::Fixed(0),
            1_000,
        )
        .lenient();
        drain_source(&mut s)
    };
    let agree = strict == lenient_clean;

    // Seed-deterministic corruption: byte flips and garbage splices in
    // the record area.
    let mut bytes = clean;
    let mut state = cfg.chaos_seed ^ 0x15EC_7ED1_0C0D_EC0D;
    for _ in 0..INGEST_CORRUPTIONS {
        let body = bytes.len() - 24;
        let at = 24 + (splitmix(&mut state) as usize) % body;
        if splitmix(&mut state).is_multiple_of(2) {
            bytes[at] ^= (splitmix(&mut state) as u8) | 1;
        } else {
            let junk = vec![0xA5u8; 7 + (splitmix(&mut state) as usize % 23)];
            bytes.splice(at..at, junk);
        }
    }

    let mut src = PcapReplaySource::new(
        PcapRecords::new(bytes.as_slice()).expect("header area untouched"),
        EntryMap::Fixed(0),
        1_000,
    )
    .lenient();
    let emitted = drain_source(&mut src).len() as u64;
    IngestLeg {
        records: cfg.ingest_records,
        corruptions: INGEST_CORRUPTIONS,
        emitted,
        skipped_records: src.decoder().skipped_records(),
        skipped_bytes: src.decoder().skipped_bytes(),
        resyncs: src.decoder().resyncs(),
        clamped_regressions: src.clamped_regressions(),
        dup_capped: src.dup_capped(),
        strict_matches_lenient_on_clean: agree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlir_rli::PolicyKind;

    fn quick_cfg() -> ChaosCampaignConfig {
        let mut cfg = ChaosCampaignConfig::paper(43, SimDuration::from_millis(30));
        cfg.base.policy = PolicyKind::Static { n: 30 };
        cfg.campaigns = 1;
        cfg.ingest_records = 400;
        cfg
    }

    #[test]
    fn campaign_recovers_taps_and_stays_honest() {
        // The quick configuration, then the defaults at master seed
        // 0xC405: two 30 ms campaigns.
        let mut defaults = ChaosCampaignConfig::paper(0xC405, SimDuration::from_millis(30));
        defaults.campaigns = 2;
        for cfg in [quick_cfg(), defaults] {
            let rep = run_chaos(&cfg);
            assert_eq!(rep.campaigns.len(), cfg.campaigns);
            for c in &rep.campaigns {
                assert!(c.events > 0, "campaign {} generated no faults", c.campaign);
            }
            // The acceptance property: outages absorbed, state lost while
            // down is accounted, and recovery produced fresh epochs.
            assert!(rep.total_tap_outages > 0, "no tap outage was delivered");
            assert!(rep.total_lost_window_obs > 0, "outage lost nothing?");
            assert!(
                rep.total_recovered_epochs > 0,
                "no epochs recovered after tap restart"
            );
            // Baseline silence: zero false positives at baseline load.
            assert!(!rep.baseline_false_positive);
            // Isolation: flood in tenant 1 must not move tenant 0's estimates.
            assert_eq!(rep.cross_talk_max_abs_ns, 0.0, "tenant cross-talk");
            // Hostile ingest: the oracle agreed, the damage was counted.
            assert!(rep.ingest.strict_matches_lenient_on_clean);
            assert!(rep.ingest.emitted > 0);
            assert!(
                rep.ingest.skipped_records + rep.ingest.clamped_regressions + rep.ingest.resyncs
                    > 0,
                "corruption left no trace in the counters"
            );
        }
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let cfg = quick_cfg();
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a.campaigns[0].seed, b.campaigns[0].seed);
        assert_eq!(a.campaigns[0].events, b.campaigns[0].events);
        assert_eq!(
            a.campaigns[0].lost_window_obs,
            b.campaigns[0].lost_window_obs
        );
        assert_eq!(a.campaigns[0].ttl_ns, b.campaigns[0].ttl_ns);
        let mut c2 = cfg.clone();
        c2.chaos_seed ^= 0xDEAD;
        let c = run_chaos(&c2);
        assert_ne!(a.campaigns[0].seed, c.campaigns[0].seed);
    }
}
