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

/// Idle gap before each probing stream.
const STREAM_GAP: SimDuration = SimDuration::from_millis(10);

/// Runs the Figure 4 experiment, one job per `(path length n, rate
/// index i)` point across `exec`.
///
/// Every point owns a fresh scenario seeded `seed + n + (i << 32)`, the
/// rule `trend_thresholds` uses, so the first point of each curve keeps
/// the seed its whole curve once had. A point costs about `n × (stream
/// duration + gap)` per stream, so the points are submitted costliest
/// first and the result restores config order.
pub fn run_with(config: &MultiBottleneckConfig, exec: &Executor) -> MultiBottleneckResult {
    let rates = config.rates_bps.len();
    let cells: Vec<(usize, usize)> = config
        .tight_link_counts
        .iter()
        .flat_map(|&n| (0..rates).map(move |i| (n, i)))
        .collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&k| {
        let (n, i) = cells[k];
        let per_stream = stream(config, config.rates_bps[i]).duration() + STREAM_GAP;
        Reverse(n as u64 * per_stream.as_nanos())
    });
    let jobs: Vec<_> = order
        .iter()
        .map(|&k| {
            let (n, i) = cells[k];
            move || point(config, n, i)
        })
        .collect();
    let mut ratios = vec![0.0; cells.len()];
    for (k, ratio) in order.into_iter().zip(exec.run(jobs)) {
        ratios[k] = ratio;
    }
    let curves = config
        .tight_link_counts
        .iter()
        .enumerate()
        .map(|(c, &n)| MultiBottleneckCurve {
            tight_links: n,
            points: config
                .rates_bps
                .iter()
                .enumerate()
                .map(|(i, &ri)| (ri / 1e6, ratios[c * rates + i]))
                .collect(),
        })
        .collect();
    MultiBottleneckResult { curves }
}

/// The probing stream of every point at input rate `ri`.
fn stream(config: &MultiBottleneckConfig, ri: f64) -> StreamSpec {
    StreamSpec::Periodic {
        rate_bps: ri,
        size: config.packet_size,
        count: config.packets_per_stream,
    }
}

/// One point: the mean `Ro/Ri` of the rate at index `i` over a path of
/// `n` tight links.
fn point(config: &MultiBottleneckConfig, n: usize, i: usize) -> f64 {
    let seed = config
        .seed
        .wrapping_add(n as u64)
        .wrapping_add((i as u64) << 32);
    let mut s = Scenario::multi_tight(n, CrossKind::Poisson, seed);
    s.warm_up(SimDuration::from_millis(500));
    let mut runner = s.runner();
    runner.stream_gap = STREAM_GAP;
    let spec = stream(config, config.rates_bps[i]);
    let mut ratios = Running::new();
    for _ in 0..config.streams_per_point {
        if let Some(ratio) = runner.run_stream(&mut s.sim, &spec).rate_ratio() {
            ratios.push(ratio.min(1.0));
        }
    }
    ratios.mean()
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
