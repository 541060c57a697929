//! Probing endpoints and per-stream measurements.
//!
//! [`ProbeSender`] transmits one [`StreamSpec`] at a time;
//! [`ProbeReceiver`] records, for every probing packet, when it was sent
//! and when it arrived. A [`StreamResult`] packages one stream's records
//! with the derived quantities all the tools consume: the one-way-delay
//! series (for trend analysis — Fallacy 8 is precisely that OWDs carry
//! more information than the single `Ro/Ri` ratio) and the input/output
//! rates.

use std::collections::BTreeMap;

use abw_netsim::{
    gap_for_rate, packet_to, Agent, AgentId, Ctx, FlowId, Packet, PacketKind, PathId, SimDuration,
    SimTime, Simulator,
};

use crate::stream::StreamSpec;
use crate::tools::{
    Action, Estimator, LoadRampSample, LoadRampSpec, Observation, ProbeSpec, Verdict,
};

/// Token that fires the launch of a pending stream.
const TOKEN_LAUNCH: u64 = u64::MAX;

/// The probing sender agent: idle until a stream is armed, then emits the
/// stream's packets at their exact offsets.
pub struct ProbeSender {
    path: PathId,
    dst: AgentId,
    flow: FlowId,
    /// Stream waiting for the launch timer.
    pending: Option<(StreamSpec, u32)>,
    /// Stream currently on the wire.
    current: Option<(StreamSpec, u32)>,
    /// Total probing packets sent.
    pub sent_packets: u64,
    /// Total probing bytes sent.
    pub sent_bytes: u64,
}

impl ProbeSender {
    /// A sender probing `path` towards the receiver `dst`.
    pub fn new(path: PathId, dst: AgentId, flow: FlowId) -> Self {
        ProbeSender {
            path,
            dst,
            flow,
            pending: None,
            current: None,
            sent_packets: 0,
            sent_bytes: 0,
        }
    }

    /// Arms `spec` as the next stream; it launches when the launch timer
    /// (scheduled by [`ProbeRunner`]) fires.
    ///
    /// Panics if a stream is already armed — streams must not overlap.
    pub fn arm(&mut self, spec: StreamSpec, stream_id: u32) {
        assert!(
            self.pending.is_none(),
            "a stream is already armed; streams must not overlap"
        );
        self.pending = Some((spec, stream_id));
    }
}

impl Agent for ProbeSender {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_LAUNCH {
            let (spec, id) = self.pending.take().expect("launch with no armed stream");
            // schedule one timer per packet at its exact offset
            for (k, off) in spec.offsets().into_iter().enumerate() {
                ctx.schedule_in(off, k as u64);
            }
            self.current = Some((spec, id));
            return;
        }
        // per-packet timer: token is the packet index
        let (spec, id) = self.current.as_ref().expect("packet timer with no stream");
        let size = spec.size();
        let p = packet_to(
            self.dst,
            self.path,
            self.flow,
            size,
            token,
            PacketKind::Probe { stream: *id },
        );
        ctx.send(p);
        self.sent_packets += 1;
        self.sent_bytes += size as u64;
    }
}

/// One probing packet's life: sequence number, send time, arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Sequence number within the stream.
    pub seq: u32,
    /// Send timestamp (stamped by the sender).
    pub sent_at: SimTime,
    /// Arrival timestamp at the receiver.
    pub recv_at: SimTime,
}

/// The probing receiver agent: records every probing packet by stream id.
///
/// Streams live in a `BTreeMap` so traversal order is deterministic by
/// construction (D2), not only after the sort in [`ProbeReceiver::take`].
#[derive(Default)]
pub struct ProbeReceiver {
    streams: BTreeMap<u32, Vec<ProbeRecord>>,
}

impl ProbeReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        ProbeReceiver::default()
    }

    /// Packets received so far for `stream`.
    pub fn received(&self, stream: u32) -> usize {
        self.streams.get(&stream).map_or(0, Vec::len)
    }

    /// Removes and returns the records of `stream`, sorted by sequence.
    pub fn take(&mut self, stream: u32) -> Vec<ProbeRecord> {
        let mut v = self.streams.remove(&stream).unwrap_or_default();
        v.sort_by_key(|r| r.seq);
        v
    }
}

impl Agent for ProbeReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let PacketKind::Probe { stream } = packet.kind else {
            return;
        };
        self.streams.entry(stream).or_default().push(ProbeRecord {
            seq: packet.seq as u32,
            sent_at: packet.sent_at,
            recv_at: ctx.now(),
        });
    }
}

/// Everything measured about one probing stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The stream that was sent.
    pub spec: StreamSpec,
    /// Stream id.
    pub stream_id: u32,
    /// Per-packet records, sorted by sequence; lost packets are absent.
    pub records: Vec<ProbeRecord>,
}

impl StreamResult {
    /// Packets received.
    pub fn received(&self) -> usize {
        self.records.len()
    }

    /// Packets lost. Saturating: duplicate records (e.g. from a
    /// misbehaving path) can make `received > sent`, which counts as
    /// zero lost rather than underflowing.
    pub fn lost(&self) -> usize {
        (self.spec.count() as usize).saturating_sub(self.records.len())
    }

    /// Loss fraction in `[0, 1]`; zero for an empty spec (never NaN).
    pub fn loss_fraction(&self) -> f64 {
        let count = self.spec.count();
        if count == 0 {
            return 0.0;
        }
        self.lost() as f64 / count as f64
    }

    /// One-way delays (seconds) of the received packets, in sequence
    /// order. Clock offset does not matter for trend analysis; only
    /// differences are used.
    pub fn owds(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.recv_at.since(r.sent_at).as_secs_f64())
            .collect()
    }

    /// OWDs shifted so the minimum is zero — convenient for plotting
    /// (Figure 5 plots "relative OWD").
    pub fn relative_owds(&self) -> Vec<f64> {
        let owds = self.owds();
        let min = owds.iter().cloned().fold(f64::INFINITY, f64::min);
        owds.iter().map(|d| d - min).collect()
    }

    /// The nominal input rate of the stream in bits/s.
    pub fn input_rate_bps(&self) -> f64 {
        self.spec.nominal_rate_bps()
    }

    /// Measured output rate `Ro` in bits/s: `(n-1) * L * 8 / span` over
    /// the received packets. `None` with fewer than 2 arrivals or a
    /// zero-length span.
    ///
    /// The span is the min-to-max arrival time, **not** first-to-last of
    /// the sequence-sorted records: under reordering the last sequence
    /// number can arrive before the first, which would make a
    /// sequence-based span negative and silently discard the stream.
    pub fn output_rate_bps(&self) -> Option<f64> {
        if self.records.len() < 2 {
            return None;
        }
        let first_ns = self.records.iter().map(|r| r.recv_at).min()?;
        let last_ns = self.records.iter().map(|r| r.recv_at).max()?;
        let span = last_ns.since(first_ns).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        Some((self.records.len() - 1) as f64 * self.spec.size() as f64 * 8.0 / span)
    }

    /// `Ro / Ri`; `None` when the output rate is unmeasurable.
    pub fn rate_ratio(&self) -> Option<f64> {
        Some(self.output_rate_bps()? / self.input_rate_bps())
    }

    /// Gaps of consecutive (by sequence) packet pairs: `(input gap,
    /// output gap)` in seconds. Pairs broken by a loss are skipped, and
    /// so are pairs whose arrival order was inverted by reordering or
    /// jitter — a negative output gap is not a dispersion sample (found
    /// by the scenario fuzzer: the subtraction underflowed and
    /// panicked).
    pub fn pair_gaps(&self) -> Vec<(f64, f64)> {
        self.records
            .windows(2)
            .filter(|w| w[1].seq == w[0].seq + 1 && w[1].recv_at >= w[0].recv_at)
            .map(|w| {
                (
                    w[1].sent_at.since(w[0].sent_at).as_secs_f64(),
                    w[1].recv_at.since(w[0].recv_at).as_secs_f64(),
                )
            })
            .collect()
    }
}

/// Orchestrates probing streams over a simulator: arms the sender, runs
/// the event loop until the stream drains, and collects the result.
///
/// A [`Session`] calls [`ProbeRunner::run_stream`] once per stream a
/// tool requests; iterative tools (TOPP, Pathload, pathChirp, IGI)
/// choose each next rate from the previous result — exactly the
/// structure of Equation 10.
pub struct ProbeRunner {
    /// The [`ProbeSender`] agent.
    pub sender: AgentId,
    /// The [`ProbeReceiver`] agent.
    pub receiver: AgentId,
    /// Idle gap inserted before each stream (lets queues drain between
    /// streams; the paper's tools space streams for the same reason).
    pub stream_gap: SimDuration,
    /// Extra time to wait for in-flight packets after the last send.
    pub drain_timeout: SimDuration,
    next_stream_id: u32,
}

impl ProbeRunner {
    /// A runner with a 50 ms inter-stream gap and 1 s drain timeout.
    pub fn new(sender: AgentId, receiver: AgentId) -> Self {
        ProbeRunner {
            sender,
            receiver,
            stream_gap: SimDuration::from_millis(50),
            drain_timeout: SimDuration::from_secs(1),
            next_stream_id: 0,
        }
    }

    /// Sends one stream and returns its measurements. The simulation
    /// advances until every packet arrived or the drain timeout expires
    /// (lost packets simply stay absent from the result).
    pub fn run_stream(&mut self, sim: &mut Simulator, spec: &StreamSpec) -> StreamResult {
        let _prof = abw_obs::prof::span("probe.stream");
        let id = self.next_stream_id;
        self.next_stream_id += 1;

        sim.agent_mut::<ProbeSender>(self.sender)
            .arm(spec.clone(), id);
        let launch_at = sim.now() + self.stream_gap;
        sim.schedule_timer(self.sender, launch_at, TOKEN_LAUNCH);

        let expected = spec.count() as usize;
        let deadline = launch_at + spec.duration() + self.drain_timeout;
        // advance in slices so we can stop as soon as the stream is in;
        // the final slice is clamped so a lossy stream costs exactly the
        // drain timeout, never a slice more
        let slice = SimDuration::from_millis(5);
        while sim.now() < deadline {
            let step = slice.min(deadline.since(sim.now()));
            sim.run_for(step);
            if sim.agent::<ProbeReceiver>(self.receiver).received(id) >= expected {
                break;
            }
        }
        let records = sim.agent_mut::<ProbeReceiver>(self.receiver).take(id);
        StreamResult {
            spec: spec.clone(),
            stream_id: id,
            records,
        }
    }
}

/// Routing facts a session needs for probing primitives that bypass the
/// [`ProbeRunner`] (BFind's load ramp installs its own agent on the
/// probed path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionRoute {
    pub(crate) path: PathId,
    pub(crate) hops: usize,
    pub(crate) dst: AgentId,
}

/// The generic session driver: owns **all** simulator interaction on
/// behalf of an [`Estimator`].
///
/// [`Session::step`] executes exactly one tool action — materialise a
/// probing stream (or load-ramp epoch), advance the simulation until it
/// drains, and feed the [`Observation`] back on the next call — so
/// multiple sessions can interleave in one simulation and a session can
/// keep re-estimating against time-varying cross traffic (the
/// `tracking` experiment). [`Session::drive`] loops `step` to
/// completion; it is the one way to run a tool to its verdict.
///
/// The session owns its [`ProbeRunner`], so every round it drives
/// continues one stream-id sequence: driving several tools in a row on
/// one session (as the `tight_vs_narrow` experiment does) never reuses
/// an id.
pub struct Session {
    runner: ProbeRunner,
    route: Option<SessionRoute>,
    load_agent: Option<AgentId>,
    /// When the current estimation round started (set lazily by the
    /// first `step`, cleared on `Done` so the next round re-stamps).
    round_start: Option<SimTime>,
    last: Option<Observation>,
}

impl Session {
    /// A session owning its runner.
    pub fn new(runner: ProbeRunner) -> Session {
        Session {
            runner,
            route: None,
            load_agent: None,
            round_start: None,
            last: None,
        }
    }

    /// A routed session: like [`Session::new`] but able to execute
    /// [`ProbeSpec::LoadRamp`] actions on the given path.
    pub(crate) fn with_route(
        runner: ProbeRunner,
        path: PathId,
        hops: usize,
        dst: AgentId,
    ) -> Session {
        Session {
            runner,
            route: Some(SessionRoute { path, hops, dst }),
            load_agent: None,
            round_start: None,
            last: None,
        }
    }

    /// The session's probe runner (e.g. to adjust `stream_gap`).
    pub fn runner_mut(&mut self) -> &mut ProbeRunner {
        &mut self.runner
    }

    /// Executes one estimator action: asks `tool` for its next move
    /// (feeding back the last observation), emits any trace events the
    /// decision buffered, and either runs the requested probing action
    /// or returns the final verdict (stamped with the round's elapsed
    /// simulated time).
    pub fn step(&mut self, sim: &mut Simulator, tool: &mut dyn Estimator) -> Option<Verdict> {
        let started = *self.round_start.get_or_insert(sim.now());
        let action = tool.next(self.last.take().as_ref());
        for ev in tool.take_events() {
            sim.emit(ev.kind, &ev.fields);
        }
        match action {
            Action::Send(spec) => {
                self.last = Some(self.execute(sim, spec));
                None
            }
            Action::Done(mut verdict) => {
                verdict.set_elapsed(sim.now().since(started).as_secs_f64());
                self.round_start = None;
                self.pause_load(sim);
                Some(verdict)
            }
        }
    }

    /// Drives `tool` to completion and returns its verdict.
    pub fn drive(&mut self, sim: &mut Simulator, tool: &mut dyn Estimator) -> Verdict {
        let _prof = abw_obs::prof::span("session.drive");
        loop {
            if let Some(verdict) = self.step(sim, tool) {
                return verdict;
            }
        }
    }

    /// Drives `tool` until it finishes or the simulated clock reaches
    /// `deadline`, whichever comes first. `None` means the deadline cut
    /// the round short: the estimator is abandoned mid-decision and the
    /// session is reset (round stamp cleared, any load ramp paused) so
    /// the caller can start a fresh round on the same session.
    ///
    /// The check runs between steps — one step materialises a whole
    /// probing stream and drains it — so the clock can overshoot the
    /// deadline by up to one stream's duration, never by more.
    pub fn drive_until(
        &mut self,
        sim: &mut Simulator,
        tool: &mut dyn Estimator,
        deadline: SimTime,
    ) -> Option<Verdict> {
        let _prof = abw_obs::prof::span("session.drive");
        loop {
            if sim.now() >= deadline {
                self.round_start = None;
                self.last = None;
                self.pause_load(sim);
                return None;
            }
            if let Some(verdict) = self.step(sim, tool) {
                return Some(verdict);
            }
        }
    }

    fn execute(&mut self, sim: &mut Simulator, spec: ProbeSpec) -> Observation {
        match spec {
            ProbeSpec::Stream { spec, pre_gap } => {
                let runner = &mut self.runner;
                match pre_gap {
                    Some(gap) => {
                        let saved = runner.stream_gap;
                        runner.stream_gap = gap;
                        let r = runner.run_stream(sim, &spec);
                        runner.stream_gap = saved;
                        Observation::Stream(r)
                    }
                    None => Observation::Stream(runner.run_stream(sim, &spec)),
                }
            }
            ProbeSpec::LoadRamp(ramp) => self.execute_load_ramp(sim, &ramp),
        }
    }

    fn execute_load_ramp(&mut self, sim: &mut Simulator, ramp: &LoadRampSpec) -> Observation {
        let route = self
            .route
            .expect("load-ramp probing needs a routed session (Scenario::session)");
        let agent = match self.load_agent {
            Some(id) => {
                let a = sim.agent_mut::<LoadProbeAgent>(id);
                if !a.running {
                    a.running = true;
                    sim.schedule_timer(id, sim.now(), TOKEN_LOAD);
                    sim.schedule_timer(id, sim.now(), TOKEN_TRACE);
                }
                id
            }
            None => {
                // non-rate parameters (packet sizes, trace cadence) are
                // fixed by the first epoch's spec for the agent's lifetime
                let id = sim.add_agent(Box::new(LoadProbeAgent::new(
                    route.path, route.hops, route.dst, ramp,
                )));
                sim.agent_mut::<LoadProbeAgent>(id).running = true;
                sim.schedule_timer(id, sim.now(), TOKEN_LOAD);
                sim.schedule_timer(id, sim.now(), TOKEN_TRACE);
                self.load_agent = Some(id);
                id
            }
        };
        sim.agent_mut::<LoadProbeAgent>(agent).load_rate_bps = ramp.rate_bps;
        sim.run_for(ramp.epoch);
        let a = sim.agent_mut::<LoadProbeAgent>(agent);
        Observation::LoadRamp(LoadRampSample {
            hop_rtts: a.drain(),
            probe_packets: a.packets,
        })
    }

    /// Quiesces the load-ramp agent (if any) so a finished round stops
    /// injecting traffic while the session stays reusable.
    fn pause_load(&mut self, sim: &mut Simulator) {
        if let Some(id) = self.load_agent {
            let a = sim.agent_mut::<LoadProbeAgent>(id);
            a.running = false;
            a.load_rate_bps = 0.0;
        }
    }
}

/// Token for the load-stream timer of [`LoadProbeAgent`].
const TOKEN_LOAD: u64 = 1;
/// Token for the traceroute-round timer of [`LoadProbeAgent`].
const TOKEN_TRACE: u64 = 2;

/// The load-ramp probing agent (BFind's primitive): a rate-adjustable
/// UDP load stream plus periodic TTL-limited traceroute rounds, with
/// per-hop RTT collection.
struct LoadProbeAgent {
    path: PathId,
    hops: usize,
    dst: AgentId,
    load_rate_bps: f64,
    load_size: u32,
    probe_size: u32,
    trace_interval: SimDuration,
    load_seq: u64,
    trace_seq: u64,
    /// RTTs collected since the last drain, per hop.
    rtt_samples: Vec<Vec<f64>>,
    packets: u64,
    running: bool,
}

impl LoadProbeAgent {
    fn new(path: PathId, hops: usize, dst: AgentId, spec: &LoadRampSpec) -> Self {
        LoadProbeAgent {
            path,
            hops,
            dst,
            load_rate_bps: 0.0,
            load_size: spec.load_packet_size,
            probe_size: spec.probe_size,
            trace_interval: spec.trace_interval,
            load_seq: 0,
            trace_seq: 0,
            rtt_samples: vec![Vec::new(); hops],
            packets: 0,
            running: false,
        }
    }

    fn drain(&mut self) -> Vec<Vec<f64>> {
        std::mem::replace(&mut self.rtt_samples, vec![Vec::new(); self.hops])
    }
}

impl Agent for LoadProbeAgent {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_LOAD => {
                if !self.running {
                    return;
                }
                if self.load_rate_bps > 0.0 {
                    let p = packet_to(
                        self.dst,
                        self.path,
                        FlowId(u32::MAX - 1),
                        self.load_size,
                        self.load_seq,
                        PacketKind::Data,
                    );
                    ctx.send(p);
                    self.load_seq += 1;
                    self.packets += 1;
                    ctx.schedule_in(gap_for_rate(self.load_size, self.load_rate_bps), TOKEN_LOAD);
                } else {
                    // idle baseline: poll for a rate change
                    ctx.schedule_in(SimDuration::from_millis(10), TOKEN_LOAD);
                }
            }
            TOKEN_TRACE => {
                if !self.running {
                    return;
                }
                // One probe per link. A probe measuring link k must cross
                // link k's queue, so it expires at the NEXT router
                // (ttl = k + 2); the reply attributes to link k. The last
                // link has no router behind it, so its probe travels the
                // full path addressed back to this agent (an echo whose
                // one-way delay includes the last queue; the baseline
                // difference cancels the missing reverse delay).
                for hop in 0..self.hops {
                    let mut p = packet_to(
                        self.dst,
                        self.path,
                        FlowId(u32::MAX - 2),
                        self.probe_size,
                        self.trace_seq,
                        PacketKind::Data,
                    );
                    if hop + 1 < self.hops {
                        p.ttl = hop as u8 + 2;
                    } else {
                        p.dst = ctx.self_id();
                    }
                    ctx.send(p);
                    self.trace_seq += 1;
                    self.packets += 1;
                }
                ctx.schedule_in(self.trace_interval, TOKEN_TRACE);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        match packet.kind {
            PacketKind::TtlExceeded {
                router,
                orig_sent_at,
                ..
            } => {
                // expired at router `router` ⇒ crossed the queue of link
                // `router - 1`
                let rtt = ctx.now().since(orig_sent_at).as_secs_f64();
                let link = (router as usize).saturating_sub(1);
                if let Some(bucket) = self.rtt_samples.get_mut(link) {
                    bucket.push(rtt);
                }
            }
            PacketKind::Data => {
                // the self-addressed full-path echo: attribute to the
                // last link
                let owd = ctx.now().since(packet.sent_at).as_secs_f64();
                if let Some(bucket) = self.rtt_samples.last_mut() {
                    bucket.push(owd);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abw_netsim::LinkConfig;

    /// Idle 50 Mb/s link: measurements must match the fluid model with
    /// zero cross traffic (Ro = Ri, flat OWDs).
    fn idle_sim() -> (Simulator, ProbeRunner) {
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_millis(2)));
        let path = sim.add_path(vec![link]);
        let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
        let sender = sim.add_agent(Box::new(ProbeSender::new(path, receiver, FlowId(0))));
        let runner = ProbeRunner::new(sender, receiver);
        (sim, runner)
    }

    #[test]
    fn idle_link_passes_stream_unchanged() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 50,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 50);
        assert_eq!(r.lost(), 0);
        let ratio = r.rate_ratio().unwrap();
        assert!((ratio - 1.0).abs() < 1e-6, "Ro/Ri = {ratio}");
        // all OWDs identical: serialisation + propagation
        let owds = r.owds();
        let expected = 1500.0 * 8.0 / 50e6 + 0.002;
        for &d in &owds {
            assert!((d - expected).abs() < 1e-9, "OWD {d}");
        }
    }

    #[test]
    fn overloading_stream_expands() {
        // probing at 80 Mb/s over a 50 Mb/s link: Ro must be ~50 Mb/s
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 80e6,
            size: 1500,
            count: 100,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 100);
        let ro = r.output_rate_bps().unwrap();
        assert!((ro - 50e6).abs() / 50e6 < 0.01, "Ro = {ro}");
        // OWDs must increase monotonically
        let owds = r.owds();
        assert!(owds.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn sequential_streams_do_not_interfere() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Periodic {
            rate_bps: 80e6,
            size: 1500,
            count: 20,
        };
        let a = runner.run_stream(&mut sim, &spec);
        let b = runner.run_stream(&mut sim, &spec);
        assert_eq!(a.received(), 20);
        assert_eq!(b.received(), 20);
        assert_ne!(a.stream_id, b.stream_id);
        // the second stream starts on an empty queue: same OWD profile
        let (oa, ob) = (a.relative_owds(), b.relative_owds());
        for (x, y) in oa.iter().zip(&ob) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn pair_gaps_expand_at_the_narrow_link() {
        let (mut sim, mut runner) = idle_sim();
        // intra-pair rate 100 Mb/s over a 50 Mb/s link: output gap equals
        // the link serialisation time of 240 us
        let spec = StreamSpec::Pair {
            rate_bps: 100e6,
            size: 1500,
        };
        let r = runner.run_stream(&mut sim, &spec);
        let gaps = r.pair_gaps();
        assert_eq!(gaps.len(), 1);
        let (g_in, g_out) = gaps[0];
        assert!((g_in - 120e-6).abs() < 1e-9);
        assert!((g_out - 240e-6).abs() < 1e-9, "output gap {g_out}");
    }

    fn record(seq: u32, sent_ns: u64, recv_ns: u64) -> ProbeRecord {
        ProbeRecord {
            seq,
            sent_at: SimTime::from_nanos(sent_ns),
            recv_at: SimTime::from_nanos(recv_ns),
        }
    }

    #[test]
    fn lost_saturates_on_duplicate_records() {
        // 3 records against a 2-packet pair spec: a duplicated arrival
        // must read as 0 lost, not underflow
        let r = StreamResult {
            spec: StreamSpec::Pair {
                rate_bps: 10e6,
                size: 1500,
            },
            stream_id: 0,
            records: vec![
                record(0, 0, 1_000),
                record(1, 500, 1_500),
                record(1, 500, 1_500),
            ],
        };
        assert_eq!(r.lost(), 0);
        assert_eq!(r.loss_fraction(), 0.0);
    }

    #[test]
    fn pair_gaps_skip_reorder_inverted_arrivals() {
        // seq 1 overtook seq 0 on the wire (reordering): the (0,1) pair
        // has a negative output gap and must be skipped, not panic; the
        // (1,2) pair is intact and survives
        let r = StreamResult {
            spec: StreamSpec::Periodic {
                rate_bps: 10e6,
                size: 1500,
                count: 3,
            },
            stream_id: 0,
            records: vec![
                record(0, 0, 2_000),
                record(1, 500, 1_500),
                record(2, 1_000, 2_500),
            ],
        };
        let gaps = r.pair_gaps();
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0].0 - 500e-9).abs() < 1e-15);
        assert!((gaps[0].1 - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn loss_fraction_of_empty_spec_is_zero_not_nan() {
        let r = StreamResult {
            spec: StreamSpec::Periodic {
                rate_bps: 10e6,
                size: 1500,
                count: 0,
            },
            stream_id: 0,
            records: Vec::new(),
        };
        assert_eq!(r.lost(), 0);
        assert_eq!(r.loss_fraction(), 0.0);
        assert!(!r.loss_fraction().is_nan());
    }

    #[test]
    fn output_rate_survives_reordered_records() {
        // records are sequence-sorted, but seq 0 arrived LAST: the
        // arrival span must come from min/max recv_at, not first/last
        let spec = StreamSpec::Periodic {
            rate_bps: 12e6,
            size: 1500,
            count: 3,
        };
        let reordered = StreamResult {
            spec: spec.clone(),
            stream_id: 0,
            records: vec![
                record(0, 0, 3_000_000),
                record(1, 1_000_000, 2_000_000),
                record(2, 2_000_000, 2_500_000),
            ],
        };
        let ro = reordered
            .output_rate_bps()
            .expect("reordering must not erase the rate");
        // span = 3 ms - 2 ms = 1 ms, 2 gaps of 1500 B => 24 Mb/s
        assert!((ro - 24e6).abs() < 1.0, "Ro = {ro}");
        // and an in-order stream with the same span agrees
        let in_order = StreamResult {
            spec,
            stream_id: 1,
            records: vec![
                record(0, 0, 2_000_000),
                record(1, 1_000_000, 2_500_000),
                record(2, 2_000_000, 3_000_000),
            ],
        };
        assert!((in_order.output_rate_bps().unwrap() - ro).abs() < 1.0);
    }

    #[test]
    fn lossy_stream_drains_for_exactly_the_timeout() {
        // total loss: the runner must give up exactly at
        // launch + stream duration + drain timeout, not a slice later
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(50e6, SimDuration::from_millis(2)));
        sim.impair_link(link, abw_netsim::ImpairmentConfig::iid_loss(1.0), 3);
        let path = sim.add_path(vec![link]);
        let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
        let sender = sim.add_agent(Box::new(ProbeSender::new(path, receiver, FlowId(0))));
        let mut runner = ProbeRunner::new(sender, receiver);
        let spec = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 10,
        };
        let t0 = sim.now();
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 0);
        assert_eq!(r.lost(), 10);
        assert_eq!(r.loss_fraction(), 1.0);
        let deadline = t0 + runner.stream_gap + spec.duration() + runner.drain_timeout;
        assert_eq!(sim.now(), deadline, "run_stream overran its drain deadline");
    }

    #[test]
    fn chirp_arrives_complete() {
        let (mut sim, mut runner) = idle_sim();
        let spec = StreamSpec::Chirp {
            start_rate_bps: 5e6,
            gamma: 1.2,
            size: 1000,
            count: 15,
        };
        let r = runner.run_stream(&mut sim, &spec);
        assert_eq!(r.received(), 15);
        assert_eq!(r.pair_gaps().len(), 14);
    }

    /// Forwards to `inner`, recording the stream id of every observation
    /// the session feeds back.
    struct IdTap<E> {
        inner: E,
        ids: Vec<u32>,
    }

    impl<E: Estimator> Estimator for IdTap<E> {
        fn next(&mut self, last: Option<&Observation>) -> Action {
            if let Some(r) = last.and_then(Observation::stream) {
                self.ids.push(r.stream_id);
            }
            self.inner.next(last)
        }

        fn take_events(&mut self) -> Vec<crate::tools::ToolEvent> {
            self.inner.take_events()
        }
    }

    #[test]
    fn one_session_continues_one_stream_id_sequence_across_tools() {
        use crate::tools::capacity::{CapacityConfig, CapacityProber};
        use crate::tools::direct::{DirectConfig, DirectProber};

        // capacity, then direct probing on the same session, as the
        // tight-vs-narrow experiment measures Ct and then probes with it
        let (mut sim, runner) = idle_sim();
        let mut session = Session::new(runner);
        let mut capacity = IdTap {
            inner: CapacityProber::new(CapacityConfig {
                pairs: 5,
                ..CapacityConfig::default()
            })
            .estimator(),
            ids: Vec::new(),
        };
        let mut direct = IdTap {
            inner: DirectProber::new(DirectConfig {
                streams: 3,
                stream_duration: SimDuration::from_millis(10),
                ..DirectConfig::canonical()
            })
            .estimator(),
            ids: Vec::new(),
        };
        session.drive(&mut sim, &mut capacity);
        session.drive(&mut sim, &mut direct);
        assert_eq!(capacity.ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(direct.ids, vec![5, 6, 7], "no reset between rounds");

        // and a stream sent outside any round continues it too
        let spec = StreamSpec::Periodic {
            rate_bps: 20e6,
            size: 1500,
            count: 2,
        };
        let r = session.runner_mut().run_stream(&mut sim, &spec);
        assert_eq!(r.stream_id, 8);
    }
}
