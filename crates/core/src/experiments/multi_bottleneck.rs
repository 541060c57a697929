//! Pitfall 7 / **Figure 4**: ignoring the effects of multiple
//! bottlenecks.
//!
//! On a path with several links of (approximately) equal avail-bw, the
//! probing stream interacts with cross traffic at *every* tight link; the
//! more tight links, the lower `Ro/Ri` at the point `Ri = A` — another
//! source of underestimation. Figure 4 plots the mean `Ro/Ri` against
//! `Ri` for paths of 1, 3 and 5 tight links with one-hop persistent
//! Poisson cross traffic.

use std::cmp::Reverse;

use abw_exec::Executor;
use abw_netsim::SimDuration;
use abw_stats::running::Running;

use crate::scenario::{CrossKind, Scenario};
use crate::stream::StreamSpec;

/// Configuration of the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct MultiBottleneckConfig {
    /// Path lengths (number of tight links) to compare (paper: 1, 3, 5).
    pub tight_link_counts: Vec<usize>,
    /// Input rates to sweep, bits/s.
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

impl Default for MultiBottleneckConfig {
    fn default() -> Self {
        MultiBottleneckConfig {
            tight_link_counts: vec![1, 3, 5],
            rates_bps: (5..=30).step_by(2).map(|m| m as f64 * 1e6).collect(),
            streams_per_point: 500,
            packets_per_stream: 100,
            packet_size: 1500,
            seed: 0xF164,
        }
    }
}

impl MultiBottleneckConfig {
    /// Scaled-down configuration for tests.
    pub fn quick() -> Self {
        MultiBottleneckConfig {
            tight_link_counts: vec![1, 3],
            rates_bps: vec![15e6, 25e6],
            streams_per_point: 50,
            packets_per_stream: 60,
            ..MultiBottleneckConfig::default()
        }
    }
}

/// One curve of Figure 4.
#[derive(Debug, Clone)]
pub struct MultiBottleneckCurve {
    /// Number of tight links on the path.
    pub tight_links: usize,
    /// `(Ri in Mb/s, mean Ro/Ri)` points.
    pub points: Vec<(f64, f64)>,
}

impl MultiBottleneckCurve {
    /// Mean `Ro/Ri` at the probed rate closest to `ri_mbps`.
    pub fn ratio_at(&self, ri_mbps: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| (a.0 - ri_mbps).abs().total_cmp(&(b.0 - ri_mbps).abs()))
            .map(|&(_, ratio)| ratio)
    }
}

/// The Figure 4 result.
#[derive(Debug, Clone)]
pub struct MultiBottleneckResult {
    /// One curve per path length.
    pub curves: Vec<MultiBottleneckCurve>,
}

/// Runs the Figure 4 experiment with the executor configured from
/// `ABW_JOBS`.
pub fn run(config: &MultiBottleneckConfig) -> MultiBottleneckResult {
    run_with(config, &Executor::from_env())
}

/// Runs the Figure 4 experiment, fanning the curves (one per path
/// length, each with its own seeded scenario) across `exec`.
///
/// A curve's cost grows with its number of hops, so the curves are
/// submitted longest path first and the result restores config order.
pub fn run_with(config: &MultiBottleneckConfig, exec: &Executor) -> MultiBottleneckResult {
    let mut order: Vec<usize> = (0..config.tight_link_counts.len()).collect();
    order.sort_by_key(|&i| Reverse(config.tight_link_counts[i]));
    let jobs: Vec<_> = order
        .iter()
        .map(|&i| {
            let n = config.tight_link_counts[i];
            move || curve(config, n)
        })
        .collect();
    let mut curves: Vec<(usize, MultiBottleneckCurve)> =
        order.into_iter().zip(exec.run(jobs)).collect();
    curves.sort_by_key(|&(i, _)| i);
    MultiBottleneckResult {
        curves: curves.into_iter().map(|(_, c)| c).collect(),
    }
}

/// One curve: the rate sweep over a path of `n` tight links.
fn curve(config: &MultiBottleneckConfig, n: usize) -> MultiBottleneckCurve {
    let mut s = Scenario::multi_tight(n, CrossKind::Poisson, config.seed.wrapping_add(n as u64));
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
    MultiBottleneckCurve {
        tight_links: n,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_tight_links_lower_the_ratio_at_the_avail_bw() {
        let r = run(&MultiBottleneckConfig::quick());
        let one = r.curves.iter().find(|c| c.tight_links == 1).unwrap();
        let three = r.curves.iter().find(|c| c.tight_links == 3).unwrap();
        let at_a_one = one.ratio_at(25.0).unwrap();
        let at_a_three = three.ratio_at(25.0).unwrap();
        // Figure 4's main observation
        assert!(
            at_a_three < at_a_one,
            "3 tight links ({at_a_three}) must expand more than 1 ({at_a_one})"
        );
    }

    #[test]
    fn ratio_stays_high_well_below_the_avail_bw() {
        let r = run(&MultiBottleneckConfig::quick());
        for c in &r.curves {
            let at_15 = c.ratio_at(15.0).unwrap();
            assert!(
                at_15 > 0.97,
                "{} links at 15 Mb/s: Ro/Ri = {at_15}",
                c.tight_links
            );
        }
    }
}
