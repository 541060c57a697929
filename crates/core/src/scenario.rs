//! Canonical experiment topologies.
//!
//! The paper's simulations all share one shape: a probing path through one
//! or more store-and-forward links, each loaded by *one-hop persistent*
//! cross traffic (enters at link `i`, exits after link `i`). A
//! [`Scenario`] bundles the simulator, the probing endpoints and the
//! ground-truth bookkeeping so tools and experiments can be written
//! against one object.

use abw_netsim::{
    AgentId, CountingSink, FlowId, ImpairmentConfig, LinkConfig, LinkId, PathId, SimDuration,
    SimTime, Simulator,
};
use abw_trace::AvailBw;
use abw_traffic::{
    ArrivalProcess, Cbr, ParetoInterarrival, ParetoOnOff, PoissonProcess, SizeDist, SourceAgent,
};

use crate::probe::{ProbeReceiver, ProbeRunner, ProbeSender, Session};

pub mod dsl;
pub mod fuzz;

/// Cross-traffic model on a link (Figure 3's three models plus the
/// Pareto-interarrival UDP traffic of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossKind {
    /// Constant bit rate — the packet-level fluid approximation.
    Cbr,
    /// Poisson packet arrivals.
    Poisson,
    /// Pareto ON-OFF bursts (OFF shape 1.5, ON uniform 1–10 packets).
    ParetoOnOff,
    /// Packets with Pareto(2.5) interarrivals.
    ParetoInterarrival,
}

/// One hop of a scenario: a link plus its cross traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct HopSpec {
    /// Link capacity in bits/s.
    pub capacity_bps: f64,
    /// Mean cross-traffic rate entering this hop, in bits/s (0 = idle).
    pub cross_rate_bps: f64,
    /// Cross-traffic arrival model.
    pub cross: CrossKind,
    /// Cross-traffic packet sizes.
    pub cross_sizes: SizeDist,
    /// Propagation delay of the link.
    pub prop_delay: SimDuration,
    /// Queue bound in bytes (`None` = unbounded, the default for probing
    /// experiments so losses do not confound estimates).
    pub queue_bytes: Option<u64>,
    /// Injected faults on this hop's link (`None` = pristine, the
    /// default). The impairment RNG stream is derived from the scenario
    /// seed and the hop index, independently of the cross-traffic
    /// streams.
    pub impairment: Option<ImpairmentConfig>,
}

impl HopSpec {
    /// The paper's canonical tight link: 50 Mb/s capacity, 25 Mb/s cross
    /// traffic (avail-bw 25 Mb/s), 1500 B packets, 1 ms propagation.
    pub fn canonical(cross: CrossKind) -> Self {
        HopSpec {
            capacity_bps: 50e6,
            cross_rate_bps: 25e6,
            cross,
            cross_sizes: SizeDist::Constant(1500),
            prop_delay: SimDuration::from_millis(1),
            queue_bytes: None,
            impairment: None,
        }
    }

    /// Attaches an impairment pipeline to this hop's link.
    pub fn with_impairment(mut self, config: ImpairmentConfig) -> Self {
        self.impairment = Some(config);
        self
    }

    /// Attaches an impairment parsed from a kebab-case spec string
    /// (e.g. `"loss=0.01, jitter=500us"`); see
    /// [`ImpairmentConfig::parse`]. Panics on a malformed spec.
    pub fn with_impairment_spec(self, spec: &str) -> Self {
        let config = ImpairmentConfig::parse(spec)
            .unwrap_or_else(|e| panic!("bad impairment spec `{spec}`: {e}"));
        self.with_impairment(config)
    }

    /// The configured avail-bw of this hop.
    pub fn avail_bps(&self) -> f64 {
        self.capacity_bps - self.cross_rate_bps
    }
}

/// Configuration of the paper's single-hop setup.
#[derive(Debug, Clone)]
pub struct SingleHopConfig {
    /// Link capacity (default 50 Mb/s).
    pub capacity_bps: f64,
    /// Mean cross traffic rate (default 25 Mb/s, so avail-bw = 25 Mb/s).
    pub cross_rate_bps: f64,
    /// Cross-traffic model (default Poisson).
    pub cross: CrossKind,
    /// Cross-traffic packet sizes (default constant 1500 B).
    pub cross_sizes: SizeDist,
    /// Propagation delay (default 1 ms).
    pub prop_delay: SimDuration,
    /// Injected faults on the hop's link (default none).
    pub impairment: Option<ImpairmentConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SingleHopConfig {
    fn default() -> Self {
        SingleHopConfig {
            capacity_bps: 50e6,
            cross_rate_bps: 25e6,
            cross: CrossKind::Poisson,
            cross_sizes: SizeDist::Constant(1500),
            prop_delay: SimDuration::from_millis(1),
            impairment: None,
            seed: 0xD0C5,
        }
    }
}

/// A ready-to-probe simulation: topology, cross traffic, and probing
/// endpoints.
pub struct Scenario {
    /// The simulator (public: experiments drive it directly when needed).
    pub sim: Simulator,
    /// The probing path (crosses every link).
    pub probe_path: PathId,
    /// The links, in path order.
    pub links: Vec<LinkId>,
    /// Hop specifications, in path order.
    pub hops: Vec<HopSpec>,
    /// The [`ProbeSender`] agent.
    pub sender: AgentId,
    /// The [`ProbeReceiver`] agent.
    pub receiver: AgentId,
    /// When the warm-up ended (ground-truth horizons start here).
    pub measure_from: SimTime,
    /// Cross-traffic source of each hop (`None` for idle hops), in path
    /// order — lets experiments retune cross rates mid-simulation.
    cross_sources: Vec<Option<AgentId>>,
}

impl Scenario {
    /// Builds a path from `hops`, wiring one-hop persistent cross traffic
    /// into every hop and probing endpoints across the whole path.
    pub fn from_hops(hops: Vec<HopSpec>, seed: u64) -> Self {
        assert!(!hops.is_empty(), "a scenario needs at least one hop");
        let mut sim = Simulator::new();
        let links: Vec<LinkId> = hops
            .iter()
            .map(|h| {
                let mut cfg = LinkConfig::new(h.capacity_bps, h.prop_delay);
                cfg.queue_bytes = h.queue_bytes;
                sim.add_link(cfg)
            })
            .collect();
        let probe_path = sim.add_path(links.clone());
        let receiver = sim.add_agent(Box::new(ProbeReceiver::new()));
        let sender = sim.add_agent(Box::new(ProbeSender::new(
            probe_path,
            receiver,
            FlowId(u32::MAX),
        )));

        // injected faults: each impaired link gets its own RNG stream,
        // derived from the scenario seed and hop index with a different
        // mix than the cross-traffic seeds so the streams never collide
        for (i, hop) in hops.iter().enumerate() {
            if let Some(config) = &hop.impairment {
                if !config.is_noop() {
                    sim.impair_link(links[i], config.clone(), impairment_seed(seed, i));
                }
            }
        }

        // one-hop persistent cross traffic: a dedicated single-link path
        // and sink per hop
        let mut cross_sources = Vec::with_capacity(hops.len());
        for (i, hop) in hops.iter().enumerate() {
            if hop.cross_rate_bps <= 0.0 {
                cross_sources.push(None);
                continue;
            }
            let cross_path = sim.add_path(vec![links[i]]);
            let cross_sink = sim.add_agent(Box::new(CountingSink::new()));
            let hop_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let process = make_process(hop, hop_seed);
            let source = sim.add_agent(Box::new(SourceAgent::new(
                process,
                cross_path,
                cross_sink,
                FlowId(i as u32),
            )));
            cross_sources.push(Some(source));
        }

        Scenario {
            sim,
            probe_path,
            links,
            hops,
            sender,
            receiver,
            measure_from: SimTime::ZERO,
            cross_sources,
        }
    }

    /// The paper's single-hop setup.
    pub fn single_hop(cfg: &SingleHopConfig) -> Self {
        let hop = HopSpec {
            capacity_bps: cfg.capacity_bps,
            cross_rate_bps: cfg.cross_rate_bps,
            cross: cfg.cross,
            cross_sizes: cfg.cross_sizes.clone(),
            prop_delay: cfg.prop_delay,
            queue_bytes: None,
            impairment: cfg.impairment.clone(),
        };
        Scenario::from_hops(vec![hop], cfg.seed)
    }

    /// Figure 4's topology: `tight_links` canonical tight hops in a row,
    /// all with the given cross model.
    pub fn multi_tight(tight_links: usize, cross: CrossKind, seed: u64) -> Self {
        assert!(tight_links >= 1);
        let hops = (0..tight_links)
            .map(|_| HopSpec::canonical(cross))
            .collect();
        Scenario::from_hops(hops, seed)
    }

    /// Pitfall 5's topology: the *narrow* link (lowest capacity, here
    /// 100 Mb/s Fast Ethernet, idle) is not the *tight* link (the most
    /// loaded, here an OC-3 at 155.52 Mb/s carrying `oc3_cross_bps`).
    pub fn tight_not_narrow(oc3_cross_bps: f64, seed: u64) -> Self {
        let narrow = HopSpec {
            capacity_bps: 100e6,
            cross_rate_bps: 0.0,
            cross: CrossKind::Poisson,
            cross_sizes: SizeDist::Constant(1500),
            prop_delay: SimDuration::from_millis(1),
            queue_bytes: None,
            impairment: None,
        };
        // constant MTU-sized cross packets keep the dispersion histogram
        // cleanly multi-modal, as in the bprobe/pathrate evaluations
        let tight = HopSpec {
            capacity_bps: 155.52e6,
            cross_rate_bps: oc3_cross_bps,
            cross: CrossKind::Poisson,
            cross_sizes: SizeDist::Constant(1500),
            prop_delay: SimDuration::from_millis(1),
            queue_bytes: None,
            impairment: None,
        };
        Scenario::from_hops(vec![narrow, tight], seed)
    }

    /// Runs the simulation for `d` so cross traffic reaches steady state;
    /// ground-truth horizons start after the warm-up.
    pub fn warm_up(&mut self, d: SimDuration) {
        self.sim.run_for(d);
        self.measure_from = self.sim.now();
    }

    /// A probing runner wired to this scenario's endpoints.
    pub fn runner(&self) -> ProbeRunner {
        ProbeRunner::new(self.sender, self.receiver)
    }

    /// A routed [`Session`] over this scenario's endpoints: the driver
    /// for any [`crate::tools::Estimator`], including ones that need
    /// load-ramp probing (BFind).
    pub fn session(&self) -> Session {
        Session::with_route(
            self.runner(),
            self.probe_path,
            self.links.len(),
            self.receiver,
        )
    }

    /// Retunes the mean cross-traffic rate of `hop` mid-simulation
    /// (tracking experiments step the avail-bw this way without
    /// rebuilding the simulator). Returns `false` when the hop has no
    /// cross source (it was built idle) or its arrival process does not
    /// support retuning; the configured rate is updated only on success.
    pub fn set_cross_rate(&mut self, hop: usize, rate_bps: f64) -> bool {
        let Some(Some(id)) = self.cross_sources.get(hop).copied() else {
            return false;
        };
        let changed = self.sim.agent_mut::<SourceAgent>(id).set_rate_bps(rate_bps);
        if changed {
            self.hops[hop].cross_rate_bps = rate_bps;
        }
        changed
    }

    /// Installs an impairment on hop `i`'s link of an already-built
    /// scenario, seeding its RNG stream exactly as
    /// [`Scenario::from_hops`] would with `seed` — so building with the
    /// impairment in the [`HopSpec`] and attaching it afterwards (before
    /// any traffic crosses the link) are bit-identical.
    pub fn impair_hop(&mut self, hop: usize, config: ImpairmentConfig, seed: u64) {
        self.hops[hop].impairment = Some(config.clone());
        self.sim
            .impair_link(self.links[hop], config, impairment_seed(seed, hop));
    }

    /// Configured end-to-end avail-bw: `min` over hops (Equation 3).
    pub fn configured_avail_bps(&self) -> f64 {
        self.hops
            .iter()
            .map(HopSpec::avail_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Index and spec of the tight link (minimum configured avail-bw).
    pub fn tight_hop(&self) -> (usize, &HopSpec) {
        self.hops
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.avail_bps().total_cmp(&b.1.avail_bps()))
            .expect("non-empty")
    }

    /// Capacity of the tight link, `Ct`.
    pub fn tight_capacity_bps(&self) -> f64 {
        self.tight_hop().1.capacity_bps
    }

    /// Capacity of the narrow link, `Cn = min C_i`.
    pub fn narrow_capacity_bps(&self) -> f64 {
        self.hops
            .iter()
            .map(|h| h.capacity_bps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Ground-truth avail-bw process of hop `i` from the end of warm-up
    /// to the current simulation time.
    pub fn ground_truth(&self, hop: usize) -> AvailBw {
        AvailBw::from_link(
            self.sim.link(self.links[hop]),
            self.measure_from,
            self.sim.now(),
        )
    }

    /// Ground-truth *path* avail-bw over `(a, b)`: the minimum over hops
    /// of each hop's avail-bw in that window (Equation 3).
    pub fn path_avail_bps(&self, a: SimTime, b: SimTime) -> f64 {
        self.links
            .iter()
            .map(|&l| AvailBw::from_link(self.sim.link(l), a, b).mean())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Per-hop impairment RNG seed: the scenario seed and hop index mixed
/// with a constant offset so the stream differs from the cross-traffic
/// stream of the same hop (`seed + i` mixed without the offset).
fn impairment_seed(seed: u64, hop: usize) -> u64 {
    seed.wrapping_add(0xFA17_0000 + hop as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
}

fn make_process(hop: &HopSpec, seed: u64) -> Box<dyn ArrivalProcess> {
    match hop.cross {
        CrossKind::Cbr => {
            let size = match &hop.cross_sizes {
                SizeDist::Constant(s) => *s,
                other => other.max(),
            };
            Box::new(Cbr::new(hop.cross_rate_bps, size))
        }
        CrossKind::Poisson => Box::new(PoissonProcess::new(
            hop.cross_rate_bps,
            hop.cross_sizes.clone(),
            seed,
        )),
        CrossKind::ParetoOnOff => {
            let size = match &hop.cross_sizes {
                SizeDist::Constant(s) => *s,
                other => other.max(),
            };
            // bursts at half the link capacity: bursty but not saturating
            Box::new(ParetoOnOff::new(
                hop.cross_rate_bps,
                (hop.capacity_bps * 0.5).max(hop.cross_rate_bps * 1.5),
                size,
                seed,
            ))
        }
        CrossKind::ParetoInterarrival => Box::new(ParetoInterarrival::new(
            hop.cross_rate_bps,
            hop.cross_sizes.clone(),
            2.5,
            seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamSpec;

    #[test]
    fn single_hop_ground_truth_matches_configuration() {
        let mut s = Scenario::single_hop(&SingleHopConfig::default());
        s.warm_up(SimDuration::from_secs(1));
        s.sim.run_for(SimDuration::from_secs(10));
        let gt = s.ground_truth(0);
        let mean = gt.mean();
        assert!(
            (mean - 25e6).abs() / 25e6 < 0.03,
            "ground-truth avail-bw {mean}"
        );
        assert_eq!(s.configured_avail_bps(), 25e6);
        assert_eq!(s.tight_capacity_bps(), 50e6);
    }

    #[test]
    fn cbr_scenario_behaves_like_fluid() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            cross: CrossKind::Cbr,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut runner = s.runner();
        // below avail-bw: no expansion
        let below = runner.run_stream(
            &mut s.sim,
            &StreamSpec::Periodic {
                rate_bps: 20e6,
                size: 1500,
                count: 100,
            },
        );
        let ratio = below.rate_ratio().unwrap();
        assert!(ratio > 0.99, "Ro/Ri = {ratio} below the avail-bw");
        // above avail-bw: fluid-model expansion Ro = Ri*Ct/(Ct+Ri-A)
        let above = runner.run_stream(
            &mut s.sim,
            &StreamSpec::Periodic {
                rate_bps: 40e6,
                size: 1500,
                count: 100,
            },
        );
        let ro = above.output_rate_bps().unwrap();
        let fluid = crate::fluid::output_rate(50e6, 40e6, 25e6);
        assert!(
            (ro - fluid).abs() / fluid < 0.05,
            "Ro = {ro}, fluid predicts {fluid}"
        );
    }

    #[test]
    fn multi_tight_path_has_min_avail() {
        let s = Scenario::multi_tight(3, CrossKind::Poisson, 7);
        assert_eq!(s.links.len(), 3);
        assert_eq!(s.configured_avail_bps(), 25e6);
    }

    #[test]
    fn tight_not_narrow_distinction() {
        let s = Scenario::tight_not_narrow(100e6, 3);
        assert_eq!(s.narrow_capacity_bps(), 100e6);
        assert_eq!(s.tight_capacity_bps(), 155.52e6);
        // tight link avail = 55.52 < narrow link avail = 100
        assert!((s.configured_avail_bps() - 55.52e6).abs() < 1.0);
        assert_eq!(s.tight_hop().0, 1);
    }

    #[test]
    fn impaired_hop_loses_cross_traffic_deterministically() {
        let build = || {
            let mut s = Scenario::single_hop(&SingleHopConfig {
                impairment: Some(ImpairmentConfig::iid_loss(0.05)),
                ..SingleHopConfig::default()
            });
            s.warm_up(SimDuration::from_secs(2));
            s
        };
        let a = build();
        let b = build();
        let lost = a.sim.link(a.links[0]).counters().impaired_pkts;
        assert!(lost > 0, "5% loss over 2 s of 25 Mb/s cross traffic");
        assert_eq!(
            lost,
            b.sim.link(b.links[0]).counters().impaired_pkts,
            "same seed must lose the same packets"
        );
    }

    #[test]
    fn impair_hop_matches_building_with_the_spec() {
        let cfg = ImpairmentConfig::iid_loss(0.02);
        let mut built = Scenario::single_hop(&SingleHopConfig {
            impairment: Some(cfg.clone()),
            ..SingleHopConfig::default()
        });
        let mut attached = Scenario::single_hop(&SingleHopConfig::default());
        attached.impair_hop(0, cfg, SingleHopConfig::default().seed);
        built.warm_up(SimDuration::from_secs(1));
        attached.warm_up(SimDuration::from_secs(1));
        assert_eq!(
            built.sim.link(built.links[0]).counters(),
            attached.sim.link(attached.links[0]).counters(),
        );
    }

    #[test]
    fn pristine_scenario_has_no_impairment_state() {
        let mut s = Scenario::single_hop(&SingleHopConfig::default());
        s.warm_up(SimDuration::from_secs(1));
        assert!(s.sim.link(s.links[0]).impairment().is_none());
        assert_eq!(s.sim.total_impaired(), 0);
    }

    #[test]
    fn path_avail_is_min_over_hops() {
        let mut s = Scenario::multi_tight(2, CrossKind::Poisson, 21);
        s.warm_up(SimDuration::from_secs(1));
        s.sim.run_for(SimDuration::from_secs(5));
        let a = s.path_avail_bps(s.measure_from, s.sim.now());
        assert!((a - 25e6).abs() / 25e6 < 0.05, "path avail {a}");
    }
}
