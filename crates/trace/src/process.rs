//! Exact avail-bw queries over recorded busy intervals.

use abw_netsim::{Link, SimTime};
use abw_stats::running::Running;
use abw_stats::sampling::poisson_instants;
use rand::rngs::StdRng;

/// The available-bandwidth process of one link over a fixed horizon,
/// queryable at any averaging timescale.
///
/// Built from the link's merged busy intervals; `busy(a, b)` is computed
/// from a prefix-sum index in `O(log n)`, so population statistics over
/// thousands of windows stay cheap.
///
/// ```
/// use abw_trace::AvailBw;
/// // a 100 b/s link busy for the first half of a 1000 ns horizon
/// let p = AvailBw::new(100.0, &[(0, 500)], (0, 1000));
/// assert_eq!(p.mean(), 50.0);                // Equation 2
/// assert_eq!(p.avail(500, 1000), 100.0);     // idle half
/// assert_eq!(p.utilization(0, 500), 1.0);    // busy half
/// ```
#[derive(Debug, Clone)]
pub struct AvailBw {
    capacity_bps: f64,
    /// Interval starts (ns), sorted.
    starts: Vec<u64>,
    /// Interval ends (ns), sorted, `ends[i] >= starts[i]`.
    ends: Vec<u64>,
    /// `prefix[i]` = total busy ns in intervals `0..i`.
    prefix: Vec<u64>,
    horizon: (u64, u64),
}

impl AvailBw {
    /// Builds the process from raw `(start_ns, end_ns)` busy intervals.
    ///
    /// Intervals must be sorted, non-overlapping and inside the horizon.
    /// Panics otherwise (the simulator's `BusyLog` guarantees the former).
    pub fn new(capacity_bps: f64, intervals: &[(u64, u64)], horizon: (u64, u64)) -> Self {
        assert!(capacity_bps > 0.0, "capacity must be positive");
        assert!(horizon.1 > horizon.0, "empty horizon");
        let mut starts = Vec::with_capacity(intervals.len());
        let mut ends = Vec::with_capacity(intervals.len());
        let mut prefix = Vec::with_capacity(intervals.len() + 1);
        prefix.push(0);
        let mut prev_end = horizon.0;
        let mut acc = 0u64;
        for &(s, e) in intervals {
            assert!(s >= prev_end, "busy intervals overlap or are unsorted");
            assert!(e >= s, "busy interval ends before it starts");
            assert!(e <= horizon.1, "busy interval beyond horizon");
            starts.push(s);
            ends.push(e);
            acc += e - s;
            prefix.push(acc);
            prev_end = e;
        }
        AvailBw {
            capacity_bps,
            starts,
            ends,
            prefix,
            horizon,
        }
    }

    /// Builds the process from a simulated link's busy log, restricted to
    /// `[t0, t1)`. Intervals straddling the horizon edges are clipped.
    pub fn from_link(link: &Link, t0: SimTime, t1: SimTime) -> Self {
        let clipped: Vec<(u64, u64)> = link.busy_log().clipped(t0, t1).collect();
        AvailBw::new(
            link.capacity_bps(),
            &clipped,
            (t0.as_nanos(), t1.as_nanos()),
        )
    }

    /// Link capacity in bits/s.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// The `(start_ns, end_ns)` horizon this process covers.
    pub fn horizon(&self) -> (u64, u64) {
        self.horizon
    }

    /// Horizon length in seconds.
    pub fn horizon_secs(&self) -> f64 {
        (self.horizon.1 - self.horizon.0) as f64 / 1e9
    }

    /// The merged busy intervals as `(start_ns, end_ns)` pairs.
    pub fn intervals(&self) -> Vec<(u64, u64)> {
        self.starts
            .iter()
            .zip(&self.ends)
            .map(|(&s, &e)| (s, e))
            .collect()
    }

    /// Total busy time in `[0, t)` within the recorded intervals.
    fn busy_before(&self, t: u64) -> u64 {
        // first interval with start >= t
        let i = self.starts.partition_point(|&s| s < t);
        let mut busy = self.prefix[i];
        // the previous interval may straddle t
        if i > 0 && self.ends[i - 1] > t {
            busy -= self.ends[i - 1] - t;
        }
        busy
    }

    /// Busy nanoseconds in the window `[a_ns, b_ns)`.
    pub fn busy_ns(&self, a_ns: u64, b_ns: u64) -> u64 {
        assert!(b_ns >= a_ns, "window ends before it starts");
        self.busy_before(b_ns) - self.busy_before(a_ns)
    }

    /// Average utilisation `u(a, b)` in `[0, 1]` (Equation 1).
    pub fn utilization(&self, a_ns: u64, b_ns: u64) -> f64 {
        assert!(b_ns > a_ns, "empty utilisation window");
        self.busy_ns(a_ns, b_ns) as f64 / (b_ns - a_ns) as f64
    }

    /// Avail-bw `A(a, b) = C * (1 - u(a, b))` in bits/s (Equation 2).
    pub fn avail(&self, a_ns: u64, b_ns: u64) -> f64 {
        self.capacity_bps * (1.0 - self.utilization(a_ns, b_ns))
    }

    /// Avail-bw over a window of `tau_ns` starting at `t_ns`.
    pub fn avail_at(&self, t_ns: u64, tau_ns: u64) -> f64 {
        self.avail(t_ns, t_ns + tau_ns)
    }

    /// Mean avail-bw over the whole horizon — the `A` of Equation (3)'s
    /// stationary process (the mean does not depend on `tau`).
    pub fn mean(&self) -> f64 {
        self.avail(self.horizon.0, self.horizon.1)
    }

    /// Population statistics of `A_tau(t)` over back-to-back windows of
    /// length `tau_ns` covering the horizon.
    pub fn population(&self, tau_ns: u64) -> Running {
        assert!(tau_ns > 0, "zero averaging timescale");
        let mut r = Running::new();
        let mut t = self.horizon.0;
        while t + tau_ns <= self.horizon.1 {
            r.push(self.avail(t, t + tau_ns));
            t += tau_ns;
        }
        r
    }

    /// The sample path `A_tau(t)` on a regular grid with the given step,
    /// as `(window start in seconds, avail-bw in bits/s)` pairs.
    pub fn sample_path(&self, tau_ns: u64, step_ns: u64) -> Vec<(f64, f64)> {
        assert!(tau_ns > 0 && step_ns > 0, "degenerate sample path grid");
        let mut out = Vec::new();
        let mut t = self.horizon.0;
        while t + tau_ns <= self.horizon.1 {
            out.push(((t - self.horizon.0) as f64 / 1e9, self.avail(t, t + tau_ns)));
            t += step_ns;
        }
        out
    }

    /// `k` Poisson-sampled values of `A_tau(t)` (the sampling scheme of the
    /// paper's Figure 1 experiment and of Spruce's pair spacing).
    pub fn poisson_sample(&self, rng: &mut StdRng, tau_ns: u64, k: usize) -> Vec<f64> {
        let end = (self.horizon.1 - tau_ns) as f64;
        let start = self.horizon.0 as f64;
        assert!(end > start, "horizon shorter than the averaging timescale");
        poisson_instants(rng, start, end, k)
            .into_iter()
            .map(|t| self.avail_at(t as u64, tau_ns))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Half-loaded toy process: busy 5 ns of every 10 ns, capacity 100 bps.
    fn half_loaded() -> AvailBw {
        let intervals: Vec<(u64, u64)> = (0..100).map(|i| (i * 10, i * 10 + 5)).collect();
        AvailBw::new(100.0, &intervals, (0, 1000))
    }

    #[test]
    fn utilisation_on_aligned_windows() {
        let p = half_loaded();
        assert_eq!(p.busy_ns(0, 1000), 500);
        assert!((p.utilization(0, 1000) - 0.5).abs() < 1e-12);
        assert!((p.mean() - 50.0).abs() < 1e-12);
        // a window covering exactly one busy half
        assert!((p.utilization(0, 5) - 1.0).abs() < 1e-12);
        assert!((p.utilization(5, 10) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap() {
        let p = half_loaded();
        // window [3, 13): busy in [3,5) and [10,13) = 2 + 3 = 5
        assert_eq!(p.busy_ns(3, 13), 5);
        assert!((p.avail(3, 13) - 50.0).abs() < 1e-12);
        // window inside a busy period
        assert_eq!(p.busy_ns(1, 4), 3);
        assert_eq!(p.avail(1, 4), 0.0);
        // window inside an idle period
        assert_eq!(p.busy_ns(6, 9), 0);
        assert_eq!(p.avail(6, 9), 100.0);
    }

    #[test]
    fn population_mean_matches_global() {
        let p = half_loaded();
        let pop = p.population(10);
        assert_eq!(pop.count(), 100);
        assert!((pop.mean() - 50.0).abs() < 1e-9);
        // aligned 10 ns windows all see exactly 50% utilisation
        assert!(pop.variance() < 1e-12);
    }

    #[test]
    fn variance_grows_at_small_timescales() {
        let p = half_loaded();
        // 5 ns windows alternate between 0% and 100% busy
        let pop = p.population(5);
        assert!(pop.variance() > 1000.0, "var = {}", pop.variance());
    }

    #[test]
    fn poisson_sampling_bounds() {
        let p = half_loaded();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = p.poisson_sample(&mut rng, 10, 50);
        assert_eq!(samples.len(), 50);
        for &s in &samples {
            assert!((0.0..=100.0).contains(&s));
        }
    }

    #[test]
    fn empty_intervals_mean_full_capacity() {
        let p = AvailBw::new(42.0, &[], (0, 100));
        assert_eq!(p.mean(), 42.0);
        assert_eq!(p.busy_ns(0, 100), 0);
    }

    #[test]
    #[should_panic]
    fn overlapping_intervals_rejected() {
        let _ = AvailBw::new(1.0, &[(0, 10), (5, 15)], (0, 100));
    }

    #[test]
    fn busy_before_handles_straddle() {
        let p = AvailBw::new(10.0, &[(10, 20)], (0, 30));
        assert_eq!(p.busy_ns(0, 15), 5);
        assert_eq!(p.busy_ns(15, 30), 5);
        assert_eq!(p.busy_ns(12, 18), 6);
    }

    #[test]
    fn sample_path_grid() {
        let p = half_loaded();
        let path = p.sample_path(10, 10);
        assert_eq!(path.len(), 100);
        assert!((path[0].0 - 0.0).abs() < 1e-12);
        for &(_, a) in &path {
            assert!((a - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn window_split_consistency() {
        // busy(a,c) = busy(a,b) + busy(b,c) for any split point
        let p = half_loaded();
        for b in [1u64, 7, 13, 500, 999] {
            assert_eq!(p.busy_ns(0, 1000), p.busy_ns(0, b) + p.busy_ns(b, 1000));
        }
    }

    #[test]
    fn windowed_from_link_equals_a_full_scan_on_a_multi_epoch_log() {
        use abw_netsim::{CountingSink, FlowId, LinkConfig, LinkId, SimDuration, Simulator};
        use abw_traffic::{PoissonProcess, SizeDist, SourceAgent};

        // 12 s of light Poisson load: three `u32` epochs of busy offsets
        let mut sim = Simulator::new();
        let link = sim.add_link(LinkConfig::new(10e6, SimDuration::ZERO));
        let path = sim.add_path(vec![link]);
        let sink = sim.add_agent(Box::new(CountingSink::new()));
        let proc = PoissonProcess::new(2e6, SizeDist::Constant(1500), 7);
        sim.add_agent(Box::new(SourceAgent::new(
            Box::new(proc),
            path,
            sink,
            FlowId(0),
        )));
        sim.run_until(SimTime::from_nanos(12_000_000_000));
        let link = sim.link(LinkId(0));
        let all: Vec<(u64, u64)> = link.busy_log().intervals().collect();
        let full_scan = |a: u64, b: u64| {
            let clipped: Vec<(u64, u64)> = all
                .iter()
                .filter_map(|&(s, e)| {
                    let (cs, ce) = (s.max(a), e.min(b));
                    (cs < ce).then_some((cs, ce))
                })
                .collect();
            AvailBw::new(link.capacity_bps(), &clipped, (a, b))
        };
        let epoch = u64::from(u32::MAX);
        for (a, b) in [
            (0, 12_000_000_000),
            (epoch - 3_000_000, epoch + 3_000_000),
            (2 * epoch - 1, 2 * epoch + 1),
            (5_000_000_000, 5_000_000_001),
            (all[500].0, all[500].1),
            (all[1200].1, all[1201].0),
            (11_000_000_000, 13_000_000_000),
        ] {
            let windowed = AvailBw::from_link(link, SimTime::from_nanos(a), SimTime::from_nanos(b));
            let reference = full_scan(a, b);
            assert_eq!(windowed.intervals(), reference.intervals(), "[{a}, {b})");
            assert_eq!(windowed.busy_ns(a, b), reference.busy_ns(a, b));
        }
    }
}
