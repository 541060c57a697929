//! Property-based tests of the simulator's core invariants: packet
//! conservation, FIFO ordering, and capacity ceilings, over randomised
//! topologies and traffic.

use abwe::netsim::{
    packet_to, Agent, AgentId, BusyLog, CountingSink, Ctx, FlowId, Impairment, ImpairmentConfig,
    LinkConfig, LinkId, LossModel, Packet, PacketKind, PathId, SimDuration, SimTime, Simulator,
};
use proptest::prelude::*;

/// Sends `n` packets with the given gaps (cycled) and sizes (cycled).
struct ScriptedSender {
    path: PathId,
    dst: AgentId,
    gaps_us: Vec<u32>,
    sizes: Vec<u32>,
    n: u32,
    sent: u32,
}

impl Agent for ScriptedSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule_in(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.sent >= self.n {
            return;
        }
        let size = self.sizes[self.sent as usize % self.sizes.len()];
        let p = packet_to(
            self.dst,
            self.path,
            FlowId(0),
            size,
            self.sent as u64,
            PacketKind::Data,
        );
        ctx.send(p);
        self.sent += 1;
        let gap = self.gaps_us[self.sent as usize % self.gaps_us.len()];
        ctx.schedule_in(SimDuration::from_micros(gap as u64), 0);
    }
}

/// Records arrival order for FIFO checks.
#[derive(Default)]
struct OrderSink {
    seqs: Vec<u64>,
    bytes: u64,
    first: Option<abwe::netsim::SimTime>,
    last: Option<abwe::netsim::SimTime>,
}

impl Agent for OrderSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, p: Packet) {
        self.seqs.push(p.seq);
        self.bytes += p.size as u64;
        if self.first.is_none() {
            self.first = Some(ctx.now());
        }
        self.last = Some(ctx.now());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// injected = delivered + dropped + expired at quiescence, for any
    /// topology depth, queue bound, gap and size pattern.
    #[test]
    fn packet_conservation(
        hops in 1usize..5,
        queue_kb in prop::option::of(4u64..64),
        gaps in prop::collection::vec(10u32..5000, 1..6),
        sizes in prop::collection::vec(40u32..1500, 1..6),
        n in 1u32..400,
    ) {
        let mut sim = Simulator::new();
        let links: Vec<LinkId> = (0..hops)
            .map(|_| {
                let mut cfg = LinkConfig::new(10e6, SimDuration::from_millis(1));
                cfg.queue_bytes = queue_kb.map(|k| k * 1024);
                sim.add_link(cfg)
            })
            .collect();
        let path = sim.add_path(links);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(ScriptedSender {
            path,
            dst: sink,
            gaps_us: gaps,
            sizes,
            n,
            sent: 0,
        }));
        sim.run_to_quiescence();
        let c = sim.counters();
        prop_assert_eq!(
            c.injected,
            c.delivered + sim.total_drops() + c.ttl_expired
        );
        let delivered = sim.agent::<CountingSink>(sink).packets;
        prop_assert_eq!(delivered, c.delivered);
    }

    /// A single flow through a FIFO path arrives in send order, always.
    #[test]
    fn fifo_ordering(
        hops in 1usize..4,
        gaps in prop::collection::vec(1u32..2000, 1..5),
        sizes in prop::collection::vec(40u32..1500, 1..5),
        n in 2u32..300,
    ) {
        let mut sim = Simulator::new();
        let links: Vec<LinkId> = (0..hops)
            .map(|_| sim.add_link(LinkConfig::new(20e6, SimDuration::from_micros(500))))
            .collect();
        let path = sim.add_path(links);
        let sink = sim.add_agent(Box::new(OrderSink::default()));
        sim.add_agent(Box::new(ScriptedSender {
            path,
            dst: sink,
            gaps_us: gaps,
            sizes,
            n,
            sent: 0,
        }));
        sim.run_to_quiescence();
        let s: &OrderSink = sim.agent(sink);
        prop_assert_eq!(s.seqs.len(), n as usize, "unbounded queues drop nothing");
        for w in s.seqs.windows(2) {
            prop_assert!(w[0] < w[1], "FIFO violated: {:?}", &s.seqs);
        }
    }

    /// Two impairments built from the same config and seed make the
    /// same ingress/egress decisions forever — the property the whole
    /// fault-injection layer's reproducibility rests on.
    #[test]
    fn impairment_decisions_replay_bit_identically(
        seed in 0u64..u64::MAX,
        p_loss in 0.0f64..1.0,
        p_gb in 0.0f64..1.0,
        p_bg in 0.001f64..1.0,
        loss_bad in 0.0f64..1.0,
        reorder in prop::option::of((0.0f64..1.0, 1u64..10_000)),
        jitter_us in prop::option::of(1u64..10_000),
        bursty in 0u32..2,
        draws in 1usize..500,
    ) {
        let loss = if bursty == 1 {
            LossModel::GilbertElliott {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_bad,
                loss_good: 0.0,
            }
        } else {
            LossModel::Iid { p: p_loss }
        };
        let mut config = ImpairmentConfig::none().with_loss(loss);
        if let Some((prob, extra_us)) = reorder {
            config = config.with_reorder(prob, SimDuration::from_micros(extra_us));
        }
        if let Some(us) = jitter_us {
            config = config.with_jitter(SimDuration::from_micros(us));
        }
        let mut a = Impairment::new(config.clone(), seed);
        let mut b = Impairment::new(config, seed);
        for i in 0..draws {
            prop_assert_eq!(a.ingress(), b.ingress(), "ingress diverged at draw {}", i);
            prop_assert_eq!(
                a.egress_extra(),
                b.egress_extra(),
                "egress diverged at draw {}",
                i
            );
        }
    }

    /// Conservation holds with injected loss in the path: every packet
    /// is delivered, queue-dropped, impaired, or expired.
    #[test]
    fn packet_conservation_under_impairment(
        p in 0.0f64..0.6,
        imp_seed in 0u64..u64::MAX,
        queue_kb in prop::option::of(4u64..64),
        gaps in prop::collection::vec(10u32..5000, 1..6),
        n in 1u32..400,
    ) {
        let mut sim = Simulator::new();
        let mut cfg = LinkConfig::new(10e6, SimDuration::from_millis(1));
        cfg.queue_bytes = queue_kb.map(|k| k * 1024);
        let link = sim.add_link(cfg);
        sim.impair_link(link, ImpairmentConfig::iid_loss(p), imp_seed);
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        sim.add_agent(Box::new(ScriptedSender {
            path,
            dst: sink,
            gaps_us: gaps,
            sizes: vec![1200],
            n,
            sent: 0,
        }));
        sim.run_to_quiescence();
        let c = sim.counters();
        prop_assert_eq!(
            c.injected,
            c.delivered + sim.total_drops() + sim.total_impaired() + c.ttl_expired
        );
    }

    /// Delivered throughput never exceeds the narrowest link's capacity.
    #[test]
    fn capacity_is_a_ceiling(
        capacity_mbps in 1u32..100,
        burst in 50u32..400,
        size in 100u32..1500,
    ) {
        let capacity = capacity_mbps as f64 * 1e6;
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(capacity, SimDuration::ZERO));
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(OrderSink::default()));
        // blast packets back-to-back (1 us apart), far above capacity
        sim.add_agent(Box::new(ScriptedSender {
            path,
            dst: sink,
            gaps_us: vec![1],
            sizes: vec![size],
            n: burst,
            sent: 0,
        }));
        sim.run_to_quiescence();
        let s: &OrderSink = sim.agent(sink);
        let (Some(first), Some(last)) = (s.first, s.last) else {
            return Ok(());
        };
        if last > first {
            let rate = (s.bytes - size as u64) as f64 * 8.0
                / last.since(first).as_secs_f64();
            prop_assert!(
                rate <= capacity * 1.001,
                "delivered {rate} b/s over a {capacity} b/s link"
            );
        }
    }
}

/// The `(u64, u64)` merge the packed [`BusyLog`] must reproduce.
fn reference_push(log: &mut Vec<(u64, u64)>, s: u64, e: u64) {
    if let Some(last) = log.last_mut() {
        if s <= last.1 {
            last.1 = last.1.max(e);
            return;
        }
    }
    log.push((s, e));
}

/// One push of a busy-log script: how the interval starts relative to
/// the previous one (0 touch, 1 overlap, 2 short gap, 3 gap past
/// `u32::MAX` ns) and how long it lasts (0 empty, 1 short, 2 past
/// `u32::MAX` ns).
fn busy_step() -> impl Strategy<Value = (u8, u64, u8, u64)> {
    (0u8..4, 1u64..5_000_000_000, 0u8..3, 1u64..10_000_000_000)
}

const PAST_EPOCH_NS: u64 = 1 << 32;

/// `(start, end)` of each step, laid out from time zero.
fn busy_script(steps: &[(u8, u64, u8, u64)]) -> Vec<(u64, u64)> {
    let (mut last_start, mut cursor) = (0, 0);
    steps
        .iter()
        .map(|&(gap_kind, gap, len_kind, len)| {
            let s = match gap_kind {
                0 => cursor,
                1 => last_start + (cursor - last_start) / 2,
                2 => cursor + gap % 10_000,
                _ => cursor + PAST_EPOCH_NS + gap,
            };
            let e = s + match len_kind {
                0 => 0,
                1 => len % 20_000,
                _ => PAST_EPOCH_NS + len,
            };
            last_start = s;
            cursor = cursor.max(e);
            (s, e)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The packed `u32`-offset log reads back exactly what a plain
    /// `(u64, u64)` merge holds, whole and through any clipped window,
    /// for touching, overlapping, gapped and over-long busy periods,
    /// from time zero up to the last representable nanosecond.
    #[test]
    fn busy_log_matches_a_u64_merge(
        steps in prop::collection::vec(busy_step(), 1..40),
        near_max in 0u8..2,
        slack in 0u64..3,
        windows in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..6),
    ) {
        let script = busy_script(&steps);
        let script = if near_max == 1 {
            // shift so the last end lands within a few ns of u64::MAX
            let last_end = script.iter().map(|&(_, e)| e).max().unwrap_or(0);
            let shift = u64::MAX - slack - last_end;
            script.iter().map(|&(s, e)| (s + shift, e + shift)).collect()
        } else {
            script
        };
        let mut log = BusyLog::default();
        let mut reference = Vec::new();
        for &(s, e) in &script {
            log.push(SimTime::from_nanos(s), SimTime::from_nanos(e));
            reference_push(&mut reference, s, e);
        }
        let packed: Vec<(u64, u64)> = log.intervals().collect();
        prop_assert_eq!(&packed, &reference);
        let total: u64 = reference.iter().map(|&(s, e)| e - s).sum();
        prop_assert_eq!(log.total_busy(), SimDuration::from_nanos(total));

        let lo = script[0].0;
        let hi = script.iter().map(|&(_, e)| e).max().unwrap_or(lo);
        let at = |f: f64| lo + (((hi - lo) as f64 * f) as u64).min(hi - lo);
        let random = windows.iter().map(|&(fa, fb)| (at(fa.min(fb)), at(fa.max(fb))));
        // windows on the exact edges of busy and idle periods
        let edges = reference
            .iter()
            .zip(reference.iter().skip(1))
            .flat_map(|(x, y)| [*x, (x.1, y.0)]);
        for (a, b) in random.chain(edges) {
            let expected: Vec<(u64, u64)> = reference
                .iter()
                .filter_map(|&(s, e)| {
                    let (cs, ce) = (s.max(a), e.min(b));
                    (cs < ce).then_some((cs, ce))
                })
                .collect();
            let windowed: Vec<(u64, u64)> = log
                .clipped(SimTime::from_nanos(a), SimTime::from_nanos(b))
                .collect();
            prop_assert_eq!(windowed, expected, "window [{}, {})", a, b);
        }
    }
}
