//! Admission: the per-tap buffer cap, the plane-wide pending budget and
//! its per-tenant shares, and the books of whatever is refused.

use super::{ColdTap, HotTap, MeasurementPlane, PlaneConfig};
use rlir_net::time::SimTime;

/// Which tenant a tap belongs to (an operator-assigned opaque id).
///
/// The plane's multi-tenant dimension: several measurement customers —
/// different teams, different tools — share one fabric's hop-event
/// stream, and the plane's [`PlaneConfig::pending_budget`] becomes a
/// *hierarchy*: the plane-wide cap is split into per-tenant weighted
/// shares (set via [`MeasurementPlane::set_tenant_weight`]; unseen
/// tenants default to weight 1) with work-conserving borrowing: a tenant
/// under its share is always admitted; one over its share may borrow
/// headroom only while every other tenant's unused share remains
/// *reserved*. A flooding tenant therefore inflates only its own
/// [`TenantReport::shed`] — it can never displace another tenant's
/// guaranteed share, and the isolation tests pin a victim tenant's epoch
/// estimates byte-identical with and without the flood. Every tap
/// defaults to tenant `0`; a single-tenant plane reproduces the flat
/// budget's admissions bit-for-bit.
pub type TenantId = u32;

/// What [`MeasurementPlane::admit`] decided about one observation.
pub(super) enum Admission {
    /// Lost, late or shed: counted, nothing to store.
    Refused,
    /// An ordered tap: feed the receiver now.
    Ordered,
    /// Append to the tap's run.
    Buffered,
}

/// Plane-wide pending-observation accounting: the live total across every
/// tap's reorder window, and its high-water mark — what the global
/// [`PlaneConfig::pending_budget`] bounds.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PendingTotals {
    pub(super) pending: usize,
    pub(super) peak: usize,
}

/// One tenant's live budget state (see [`TenantId`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct TenantState {
    id: TenantId,
    weight: u64,
    /// This tenant's guaranteed slice of the plane-wide cap:
    /// `cap × weight / Σweights` (recomputed at attach/weight change).
    share: usize,
    /// Live buffered observations across the tenant's taps (references
    /// included, mirroring the plane-wide total).
    pub(super) pending: usize,
    peak_pending: usize,
    /// Regular observations that reached the admission decision.
    offered: u64,
    /// Regulars admitted into a reorder window.
    admitted: u64,
    /// Regulars shed (per-tap cap or budget hierarchy).
    shed: u64,
}

impl TenantState {
    /// The tenant's final books.
    pub(super) fn report(&self) -> TenantReport {
        TenantReport {
            id: self.id,
            weight: self.weight,
            share: self.share,
            offered: self.offered,
            admitted: self.admitted,
            shed: self.shed,
            peak_pending: self.peak_pending,
        }
    }
}

/// Final per-tenant budget accounting (see [`TenantId`]).
#[derive(Debug, Clone, Copy)]
pub struct TenantReport {
    /// The tenant id.
    pub id: TenantId,
    /// Its configured weight.
    pub weight: u64,
    /// Its guaranteed share of the plane-wide cap (0 when no budget was
    /// configured).
    pub share: usize,
    /// Regular observations that reached the admission decision.
    pub offered: u64,
    /// Regulars admitted into a reorder window. Per tenant,
    /// `admitted + shed == offered`.
    pub admitted: u64,
    /// Regulars shed by per-tap caps or the budget hierarchy.
    pub shed: u64,
    /// High-water mark of this tenant's buffered observations.
    pub peak_pending: usize,
}

impl<'a> MeasurementPlane<'a> {
    /// Set a tenant's budget weight (creating the tenant if unseen) and
    /// recompute every tenant's guaranteed share. Taps register their
    /// tenant at [`attach`](MeasurementPlane::attach) with weight 1; call
    /// this before or after attaching to skew the split. Shares divide
    /// [`PlaneConfig::pending_budget`] as `cap × weight / Σweights`
    /// (integer floor, so Σshares ≤ cap and borrowing headroom exists).
    pub fn set_tenant_weight(&mut self, tenant: TenantId, weight: u64) {
        let slot = self.tenant_slot(tenant);
        self.tenants[slot].weight = weight.max(1);
        self.recompute_shares();
    }

    /// The tenant's slot in first-seen order, creating it at weight 1.
    pub(super) fn tenant_slot(&mut self, tenant: TenantId) -> usize {
        if let Some(i) = self.tenants.iter().position(|t| t.id == tenant) {
            return i;
        }
        self.tenants.push(TenantState {
            id: tenant,
            weight: 1,
            share: 0,
            pending: 0,
            peak_pending: 0,
            offered: 0,
            admitted: 0,
            shed: 0,
        });
        self.recompute_shares();
        self.tenants.len() - 1
    }

    fn recompute_shares(&mut self) {
        let Some(cap) = self.cfg.pending_budget else {
            return;
        };
        let total: u64 = self.tenants.iter().map(|t| t.weight).sum();
        if total == 0 {
            return;
        }
        for t in &mut self.tenants {
            t.share = ((cap as u64).saturating_mul(t.weight) / total) as usize;
        }
    }

    /// Decide what happens to an observation the tap's meter / reference
    /// map let through, and keep the books of whatever is refused.
    #[inline]
    pub(super) fn admit(
        tap: &mut HotTap,
        cold: &mut ColdTap<'a>,
        cfg: PlaneConfig,
        totals: &mut PendingTotals,
        tenants: &mut [TenantState],
        at: SimTime,
        regular: bool,
    ) -> Admission {
        if tap.down {
            // The measurement instance is crashed: the crossing happened,
            // nothing observed it. Accounted, never estimated.
            cold.lost_window_obs += 1;
            return Admission::Refused;
        }
        if at < tap.resume_at {
            // Recovered mid-epoch: discard until the resume boundary so
            // the cold restart produces clean whole-epoch snapshots.
            cold.lost_window_obs += 1;
            return Admission::Refused;
        }
        if at < tap.flushed_to {
            // Behind what was already fed (a buffered tap's closed window,
            // an ordered tap's last observation): feeding it would hand the
            // receiver time-travelling input. Count it and move on.
            cold.late += 1;
            return Admission::Refused;
        }
        if tap.ordered {
            tap.flushed_to = at;
            return Admission::Ordered;
        }
        let slot = tap.tenant_slot as usize;
        if regular {
            tenants[slot].offered += 1;
            // Hierarchical budget: a tenant under its guaranteed share is
            // always admitted; one at-or-over its share may borrow free
            // headroom only while every other tenant's unused share stays
            // reserved — so Σ(admissions) never exceeds the cap and no
            // flood can displace a guaranteed share. With one tenant,
            // share == cap and the rule is bit-identical to the flat
            // `pending >= budget` check.
            let over_budget = cfg.pending_budget.is_some_and(|cap| {
                tenants[slot].pending >= tenants[slot].share && {
                    let reserved: usize = tenants
                        .iter()
                        .map(|t| t.share.saturating_sub(t.pending))
                        .sum();
                    totals.pending + reserved >= cap
                }
            });
            if tap.run.len() >= tap.max_buffer || over_budget {
                // Per-window cap or exhausted budget share: shed the
                // observation but keep the books honest — it was seen at
                // the point and will never be estimated. References are
                // always admitted (see TapSpec docs).
                cold.shed += 1;
                tenants[slot].shed += 1;
                cold.rx.on_shed(at);
                return Admission::Refused;
            }
            tenants[slot].admitted += 1;
        }
        totals.pending += 1;
        totals.peak = totals.peak.max(totals.pending);
        let t = &mut tenants[slot];
        t.pending += 1;
        t.peak_pending = t.peak_pending.max(t.pending);
        Admission::Buffered
    }
}
