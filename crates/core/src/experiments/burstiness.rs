//! Pitfall 6 / **Figure 3**: ignoring the effects of cross-traffic
//! burstiness.
//!
//! Under the fluid model, `Ro < Ri` iff `Ri > A`. Real queues build up
//! before the link saturates — so for bursty cross traffic, `Ro/Ri`
//! drops below 1 well before `Ri` reaches the avail-bw, which biases both
//! direct and iterative probing toward *underestimation*. Figure 3 plots
//! the mean `Ro/Ri` over 500 streams against `Ri` for CBR, Poisson and
//! Pareto ON-OFF cross traffic on the canonical 50/25 link.

use abw_exec::Executor;
use abw_netsim::SimDuration;
use abw_stats::running::Running;

use crate::scenario::{CrossKind, Scenario, SingleHopConfig};
use crate::stream::StreamSpec;

/// Configuration of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct BurstinessConfig {
    /// Cross-traffic models to compare (paper: CBR, Poisson, Pareto
    /// ON-OFF).
    pub models: Vec<CrossKind>,
    /// Input rates to sweep, bits/s (paper: 5–30 Mb/s).
    pub rates_bps: Vec<f64>,
    /// Streams averaged per point (paper: 500).
    pub streams_per_point: u32,
    /// Packets per probing stream.
    pub packets_per_stream: u32,
    /// Probing packet size, bytes.
    pub packet_size: u32,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for BurstinessConfig {
    fn default() -> Self {
        BurstinessConfig {
            models: vec![CrossKind::Cbr, CrossKind::Poisson, CrossKind::ParetoOnOff],
            rates_bps: (5..=30).step_by(2).map(|m| m as f64 * 1e6).collect(),
            streams_per_point: 500,
            packets_per_stream: 100,
            packet_size: 1500,
            seed: 0xF163,
        }
    }
}

impl BurstinessConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        BurstinessConfig {
            rates_bps: vec![10e6, 20e6, 24e6, 28e6],
            streams_per_point: 60,
            packets_per_stream: 60,
            ..BurstinessConfig::default()
        }
    }
}

/// One curve of Figure 3.
#[derive(Debug, Clone)]
pub struct BurstinessCurve {
    /// Cross-traffic model.
    pub model: CrossKind,
    /// `(Ri in Mb/s, mean Ro/Ri)` points.
    pub points: Vec<(f64, f64)>,
}

impl BurstinessCurve {
    /// The lowest probed rate at which `Ro/Ri` fell below `threshold` —
    /// the operating point an iterative tool with that threshold would
    /// report as the avail-bw.
    pub fn first_rate_below(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(_, ratio)| ratio < threshold)
            .map(|&(ri, _)| ri)
    }
}

/// The Figure 3 result.
#[derive(Debug, Clone)]
pub struct BurstinessResult {
    /// One curve per cross-traffic model.
    pub curves: Vec<BurstinessCurve>,
}

/// Runs the Figure 3 experiment with the executor configured from
/// `ABW_JOBS`.
pub fn run(config: &BurstinessConfig) -> BurstinessResult {
    run_with(config, &Executor::from_env())
}

/// Runs the Figure 3 experiment, fanning the curves (one per cross
/// model, each with its own seeded scenario) across `exec`.
pub fn run_with(config: &BurstinessConfig, exec: &Executor) -> BurstinessResult {
    let jobs: Vec<_> = config
        .models
        .iter()
        .map(|&model| move || curve(config, model))
        .collect();
    BurstinessResult {
        curves: exec.run(jobs),
    }
}

/// One curve: the rate sweep against cross traffic of `model`.
fn curve(config: &BurstinessConfig, model: CrossKind) -> BurstinessCurve {
    let mut s = Scenario::single_hop(&SingleHopConfig {
        cross: model,
        seed: config.seed.wrapping_add(model as u64),
        ..SingleHopConfig::default()
    });
    s.warm_up(SimDuration::from_millis(500));
    let mut runner = s.runner();
    runner.stream_gap = SimDuration::from_millis(10);
    let points = config
        .rates_bps
        .iter()
        .map(|&ri| {
            let spec = StreamSpec::Periodic {
                rate_bps: ri,
                size: config.packet_size,
                count: config.packets_per_stream,
            };
            let mut ratios = Running::new();
            for _ in 0..config.streams_per_point {
                if let Some(ratio) = runner.run_stream(&mut s.sim, &spec).rate_ratio() {
                    ratios.push(ratio.min(1.0));
                }
            }
            (ri / 1e6, ratios.mean())
        })
        .collect();
    BurstinessCurve { model, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstier_traffic_drops_ratio_earlier() {
        let r = run(&BurstinessConfig::quick());
        let curve = |m: CrossKind| r.curves.iter().find(|c| c.model == m).unwrap();
        let cbr = curve(CrossKind::Cbr);
        let poisson = curve(CrossKind::Poisson);
        let pareto = curve(CrossKind::ParetoOnOff);

        let at = |c: &BurstinessCurve, mbps: f64| {
            c.points
                .iter()
                .find(|p| (p.0 - mbps).abs() < 1e-9)
                .unwrap()
                .1
        };

        // CBR ≈ fluid: essentially no expansion below the avail-bw
        let cbr_at_20 = at(cbr, 20.0);
        assert!(cbr_at_20 > 0.995, "CBR Ro/Ri at 20 Mb/s: {cbr_at_20}");

        // bursty models dip below 1 before Ri reaches 25 Mb/s
        let poisson_at_24 = at(poisson, 24.0);
        assert!(
            poisson_at_24 < 0.999,
            "Poisson should expand below A: {poisson_at_24}"
        );
        let pareto_at_20 = at(pareto, 20.0);
        let poisson_at_20 = at(poisson, 20.0);
        assert!(
            pareto_at_20 <= poisson_at_20,
            "Pareto ({pareto_at_20}) should dip at least as much as Poisson \
             ({poisson_at_20}) at 20 Mb/s"
        );
    }

    #[test]
    fn ratios_decrease_with_rate() {
        let r = run(&BurstinessConfig::quick());
        for c in &r.curves {
            let first = c.points.first().unwrap().1;
            let last = c.points.last().unwrap().1;
            assert!(
                last < first || (first > 0.999 && last > 0.999),
                "{:?}: Ro/Ri should fall with Ri ({first} → {last})",
                c.model
            );
        }
    }
}
