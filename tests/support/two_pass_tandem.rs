//! The seed's two-pass tandem, kept as the streaming tandem's differential
//! oracle: buffer every switch-1 survivor, then merge the buffer with the
//! cross stream into switch 2. It allocates a whole-trace buffer, which is
//! why the product streams instead. The includer brings `Delivery`,
//! `FifoQueue`, `TandemConfig`, `TandemResult`, `TandemStats` and `Verdict`
//! into scope (`rlir_sim` from an integration test, `super::*` from
//! `rlir_sim::pipeline`'s own unit tests).

use super::{Delivery, FifoQueue, TandemConfig, TandemResult, TandemStats, Verdict};
use rlir_net::packet::Packet;
use rlir_net::time::SimTime;

/// `run_tandem` the seed's way.
pub fn run_tandem_two_pass(
    cfg: &TandemConfig,
    upstream: impl Iterator<Item = Packet>,
    cross: impl Iterator<Item = Packet>,
) -> TandemResult {
    let mut sw1 = FifoQueue::new(cfg.switch1);
    let mut sw2 = FifoQueue::new(cfg.switch2);

    // Pass 1: upstream through switch 1. Survivors arrive at switch 2 after
    // the link delay; FIFO order is preserved so the output stays sorted.
    let mut from_sw1: Vec<(Packet, SimTime, SimTime)> = Vec::new();
    for p in upstream {
        match sw1.offer(p.created_at, &p) {
            Verdict::Departs(egress) => {
                from_sw1.push((p, egress, egress + cfg.link_delay));
            }
            Verdict::Dropped => {}
        }
    }

    // Pass 2: merge switch-1 output with cross arrivals (both sorted) into
    // switch 2, recording deliveries.
    let mut deliveries = Vec::with_capacity(from_sw1.len());
    let mut cross = cross.peekable();
    let mut sw1_out = from_sw1.into_iter().peekable();
    loop {
        let take_cross = match (sw1_out.peek(), cross.peek()) {
            (None, None) => break,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some((u, _, ua)), Some(c)) => {
                // Deterministic tie-break on (time, id).
                (c.created_at, c.id) < (*ua, u.id)
            }
        };
        if take_cross {
            let p = cross.next().expect("peeked");
            let at = p.created_at;
            if let Verdict::Departs(out) = sw2.offer(at, &p) {
                if cfg.record_cross {
                    deliveries.push(Delivery {
                        packet: p,
                        sent_at: at,
                        sw1_egress: None,
                        delivered_at: out,
                    });
                }
            }
        } else {
            let (p, egress1, at2) = sw1_out.next().expect("peeked");
            if let Verdict::Departs(out) = sw2.offer(at2, &p) {
                deliveries.push(Delivery {
                    packet: p,
                    sent_at: p.created_at,
                    sw1_egress: Some(egress1),
                    delivered_at: out,
                });
            }
        }
    }

    TandemResult {
        deliveries,
        stats: TandemStats {
            sw1,
            sw2,
            horizon: cfg.horizon,
        },
    }
}
