//! Reference-packet injection policies.
//!
//! §3.2/§4.1: "An RLI sender can inject reference packets statically or
//! adaptively. Static injection scheme is a way to inject a reference packet
//! after every n regular packets, which we call 1-and-n scheme. Adaptive
//! scheme dynamically adjusts the injection rate based on the link
//! utilization of a link where the sender is running. The injection rate is
//! controlled by a decreasing function of link utilization … between
//! 1-and-10 and 1-and-300."
//!
//! RLIR's answer to unknown cross traffic is the static scheme at a
//! worst-case-safe rate (1-and-100 in the paper's experiments).

use rlir_stats::UtilizationEstimator;

/// Decides, for every regular packet the sender observes, whether to inject
/// a reference packet after it.
pub trait InjectionPolicy {
    /// Observe one regular packet (`now_ns`, `bytes`); return `true` to
    /// inject a reference packet immediately after it.
    fn on_regular(&mut self, now_ns: u64, bytes: u32) -> bool;

    /// The current 1-and-n spacing (for introspection/telemetry).
    fn current_n(&self) -> u32;
}

/// The paper's static *1-and-n* scheme.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    n: u32,
    since_last: u32,
}

impl StaticPolicy {
    /// Inject one reference after every `n` regular packets (`n ≥ 1`).
    pub fn one_in(n: u32) -> Self {
        assert!(n >= 1, "1-and-n requires n >= 1");
        StaticPolicy { n, since_last: 0 }
    }

    /// The paper's worst-case-safe RLIR setting, 1-and-100.
    pub fn paper_default() -> Self {
        Self::one_in(100)
    }
}

impl InjectionPolicy for StaticPolicy {
    fn on_regular(&mut self, _now_ns: u64, _bytes: u32) -> bool {
        self.since_last += 1;
        if self.since_last >= self.n {
            self.since_last = 0;
            true
        } else {
            false
        }
    }

    fn current_n(&self) -> u32 {
        self.n
    }
}

/// Knobs of the adaptive policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Densest spacing (paper: 10 → 1-and-10).
    pub min_n: u32,
    /// Sparsest spacing (paper: 300 → 1-and-300).
    pub max_n: u32,
    /// Utilization at or below which the densest rate is used.
    pub low_util: f64,
    /// Utilization at or above which the sparsest rate is used.
    pub high_util: f64,
    /// Link rate used for the utilization estimate, bits/s.
    pub link_rate_bps: u64,
    /// Averaging window for the utilization estimate, ns.
    pub window_ns: u64,
    /// EWMA smoothing factor across windows.
    pub alpha: f64,
}

impl AdaptiveConfig {
    /// Paper-configured adaptive scheme on an OC-192 sender link.
    pub fn paper_default() -> Self {
        AdaptiveConfig {
            min_n: 10,
            max_n: 300,
            low_util: 0.30,
            high_util: 0.90,
            link_rate_bps: 9_953_000_000,
            window_ns: 1_000_000, // 1 ms windows
            alpha: 0.25,
        }
    }
}

/// The adaptive scheme: spacing `n` grows from `min_n` to `max_n` as local
/// link utilization rises from `low_util` to `high_util` (injection rate is
/// a *decreasing* function of utilization). The geometric interpolation
/// keeps the rate transition smooth across the order-of-magnitude span.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    cfg: AdaptiveConfig,
    util: UtilizationEstimator,
    since_last: u32,
}

impl AdaptivePolicy {
    /// Build from configuration.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(cfg.min_n >= 1 && cfg.max_n >= cfg.min_n, "bad n range");
        assert!(
            (0.0..1.0).contains(&cfg.low_util) && cfg.high_util > cfg.low_util,
            "bad utilization knots"
        );
        AdaptivePolicy {
            util: UtilizationEstimator::new(cfg.link_rate_bps, cfg.window_ns, cfg.alpha),
            cfg,
            since_last: 0,
        }
    }

    /// The paper's adaptive configuration.
    pub fn paper_default() -> Self {
        Self::new(AdaptiveConfig::paper_default())
    }

    /// Current local-utilization estimate in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.util.utilization()
    }

    /// Spacing for a given utilization.
    fn n_for_utilization(cfg: &AdaptiveConfig, u: f64) -> u32 {
        let span = cfg.high_util - cfg.low_util;
        let x = ((u - cfg.low_util) / span).clamp(0.0, 1.0);
        let ratio = cfg.max_n as f64 / cfg.min_n as f64;
        (cfg.min_n as f64 * ratio.powf(x)).round() as u32
    }
}

impl InjectionPolicy for AdaptivePolicy {
    fn on_regular(&mut self, now_ns: u64, bytes: u32) -> bool {
        self.util.record(now_ns, bytes);
        self.since_last += 1;
        if self.since_last >= self.current_n() {
            self.since_last = 0;
            true
        } else {
            false
        }
    }

    fn current_n(&self) -> u32 {
        Self::n_for_utilization(&self.cfg, self.util.utilization())
    }
}

/// Enum-dispatch policy used on the sender hot path.
///
/// [`crate::RliSender`] consults its policy once per observed regular
/// packet; boxing that behind `dyn InjectionPolicy` costs an indirect call
/// per packet. The two shipped policies are dispatched statically through
/// this enum; the trait remains the extension point — any other
/// implementation rides along as [`Policy::Custom`] (still boxed, still
/// object-dispatched), and the differential test below pins the enum and
/// boxed forms to identical injection sequences.
pub enum Policy {
    /// The static 1-and-n scheme, statically dispatched.
    Static(StaticPolicy),
    /// The adaptive scheme, statically dispatched.
    Adaptive(AdaptivePolicy),
    /// An out-of-tree policy behind the extension trait.
    Custom(Box<dyn InjectionPolicy + Send>),
}

impl std::fmt::Debug for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Static(p) => f.debug_tuple("Static").field(p).finish(),
            Policy::Adaptive(p) => f.debug_tuple("Adaptive").field(p).finish(),
            Policy::Custom(p) => f
                .debug_tuple("Custom")
                .field(&format_args!("1-and-{}", p.current_n()))
                .finish(),
        }
    }
}

impl InjectionPolicy for Policy {
    #[inline]
    fn on_regular(&mut self, now_ns: u64, bytes: u32) -> bool {
        match self {
            Policy::Static(p) => p.on_regular(now_ns, bytes),
            Policy::Adaptive(p) => p.on_regular(now_ns, bytes),
            Policy::Custom(p) => p.on_regular(now_ns, bytes),
        }
    }

    fn current_n(&self) -> u32 {
        match self {
            Policy::Static(p) => p.current_n(),
            Policy::Adaptive(p) => p.current_n(),
            Policy::Custom(p) => p.current_n(),
        }
    }
}

impl From<StaticPolicy> for Policy {
    fn from(p: StaticPolicy) -> Self {
        Policy::Static(p)
    }
}

impl From<AdaptivePolicy> for Policy {
    fn from(p: AdaptivePolicy) -> Self {
        Policy::Adaptive(p)
    }
}

impl From<Box<dyn InjectionPolicy + Send>> for Policy {
    fn from(p: Box<dyn InjectionPolicy + Send>) -> Self {
        Policy::Custom(p)
    }
}

/// Serialisable policy selector used by experiment configs.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Static 1-and-n.
    Static {
        /// The spacing n.
        n: u32,
    },
    /// Adaptive with explicit knobs.
    Adaptive(AdaptiveConfig),
}

impl PolicyKind {
    /// Instantiate the policy (enum-dispatched on the hot path).
    pub fn build(&self) -> Policy {
        match self {
            PolicyKind::Static { n } => Policy::Static(StaticPolicy::one_in(*n)),
            PolicyKind::Adaptive(cfg) => Policy::Adaptive(AdaptivePolicy::new(*cfg)),
        }
    }

    /// Short label used in figure legends ("Static"/"Adaptive").
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Static { .. } => "Static",
            PolicyKind::Adaptive(_) => "Adaptive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_one_in_three() {
        let mut p = StaticPolicy::one_in(3);
        let fired: Vec<bool> = (0..9).map(|i| p.on_regular(i, 100)).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(p.current_n(), 3);
    }

    #[test]
    fn static_one_in_one_fires_every_time() {
        let mut p = StaticPolicy::one_in(1);
        assert!(p.on_regular(0, 1));
        assert!(p.on_regular(1, 1));
    }

    #[test]
    fn paper_static_default_is_1_in_100() {
        let mut p = StaticPolicy::paper_default();
        let fired = (0..1000).filter(|i| p.on_regular(*i, 100)).count();
        assert_eq!(fired, 10);
    }

    #[test]
    fn adaptive_n_is_decreasing_rate_function() {
        let cfg = AdaptiveConfig::paper_default();
        assert_eq!(AdaptivePolicy::n_for_utilization(&cfg, 0.0), 10);
        assert_eq!(AdaptivePolicy::n_for_utilization(&cfg, 0.22), 10);
        assert_eq!(AdaptivePolicy::n_for_utilization(&cfg, 0.30), 10);
        assert_eq!(AdaptivePolicy::n_for_utilization(&cfg, 0.95), 300);
        let mid = AdaptivePolicy::n_for_utilization(&cfg, 0.60);
        assert!((10..300).contains(&mid), "mid spacing {mid}");
        // Monotone non-decreasing in utilization.
        let mut last = 0;
        for i in 0..=20 {
            let n = AdaptivePolicy::n_for_utilization(&cfg, i as f64 / 20.0);
            assert!(n >= last);
            last = n;
        }
    }

    #[test]
    fn adaptive_at_paper_load_uses_highest_rate() {
        // §4.2: "we observe about 22% link utilization, which always
        // triggers the highest injection rate (1-and-10)".
        let mut p = AdaptivePolicy::paper_default();
        // Offer ~22% of 9.953 Gb/s for 50 ms: 0.22·9.953e9/8 B/s.
        let bytes_per_ms = (0.22 * 9.953e9 / 8.0 / 1000.0) as u32;
        let mut fired = 0u32;
        let mut total = 0u32;
        for ms in 0..50u64 {
            // 200 packets per ms window.
            for i in 0..200u64 {
                total += 1;
                if p.on_regular(ms * 1_000_000 + i * 5_000, bytes_per_ms / 200) {
                    fired += 1;
                }
            }
        }
        assert_eq!(p.current_n(), 10, "utilization {:.3}", p.utilization());
        // ~1 in 10 fired.
        let rate = fired as f64 / total as f64;
        assert!((0.08..=0.12).contains(&rate), "rate {rate}");
    }

    #[test]
    fn adaptive_backs_off_under_load() {
        let mut p = AdaptivePolicy::paper_default();
        // Offer ~95% load for 50 ms.
        let bytes_per_pkt = (0.95 * 9.953e9 / 8.0 / 1000.0 / 200.0) as u32;
        for ms in 0..50u64 {
            for i in 0..200u64 {
                p.on_regular(ms * 1_000_000 + i * 5_000, bytes_per_pkt);
            }
        }
        assert!(p.current_n() > 200, "n = {}", p.current_n());
    }

    #[test]
    fn policy_kind_builds_and_labels() {
        let mut s = PolicyKind::Static { n: 2 }.build();
        assert!(!s.on_regular(0, 1));
        assert!(s.on_regular(1, 1));
        assert_eq!(PolicyKind::Static { n: 2 }.label(), "Static");
        let a = PolicyKind::Adaptive(AdaptiveConfig::paper_default());
        assert_eq!(a.label(), "Adaptive");
        assert_eq!(a.build().current_n(), 10);
    }

    /// Feed the same (time, bytes) stream through a policy and record the
    /// firing sequence.
    fn fire_sequence(p: &mut dyn InjectionPolicy, pkts: usize) -> Vec<bool> {
        (0..pkts)
            .map(|i| p.on_regular(i as u64 * 4_000, 400 + (i as u32 * 37) % 1100))
            .collect()
    }

    #[test]
    fn enum_dispatch_matches_boxed_static() {
        let mut devirt = Policy::from(StaticPolicy::one_in(23));
        let mut boxed =
            Policy::from(Box::new(StaticPolicy::one_in(23)) as Box<dyn InjectionPolicy + Send>);
        assert!(matches!(boxed, Policy::Custom(_)));
        assert_eq!(
            fire_sequence(&mut devirt, 500),
            fire_sequence(&mut boxed, 500)
        );
        assert_eq!(devirt.current_n(), boxed.current_n());
    }

    #[test]
    fn enum_dispatch_matches_boxed_adaptive() {
        let mut devirt = Policy::from(AdaptivePolicy::paper_default());
        let mut boxed = Policy::from(
            Box::new(AdaptivePolicy::paper_default()) as Box<dyn InjectionPolicy + Send>
        );
        assert_eq!(
            fire_sequence(&mut devirt, 2_000),
            fire_sequence(&mut boxed, 2_000)
        );
        assert_eq!(devirt.current_n(), boxed.current_n());
    }
}
