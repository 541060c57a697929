//! Serial-equivalence harness for the parallel executor.
//!
//! The contract `abw-exec` sells is strict: a parallel run is
//! **bit-identical** to a serial run — same estimates (every f64 bit),
//! same rendered tables, same aggregation — for any worker count. These
//! tests pin that contract for every refactored experiment by running
//! each one with an explicit 1-worker and 4-worker executor and
//! comparing the `Debug` renderings (Rust's shortest-round-trip float
//! formatting makes `{:?}` equality equivalent to f64 bit equality).
//!
//! JSONL trace byte-identity is pinned separately in
//! `trace_equivalence.rs` — the process-global recorder it installs
//! must not leak into these tests.

use abw_bench::reports::{loss_sweep_table, shootout_table, table1_table};
use abw_bench::Format;
use abw_core::experiments::burstiness::{self, BurstinessConfig};
use abw_core::experiments::latency_accuracy::{self, LatencyAccuracyConfig};
use abw_core::experiments::loss_sweep::{self, LossSweepConfig};
use abw_core::experiments::multi_bottleneck::{self, MultiBottleneckConfig};
use abw_core::experiments::pairs_vs_trains::{self, PairsVsTrainsConfig};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::experiments::tcp_throughput::{self, TcpThroughputConfig};
use abw_core::experiments::timescale_knob::{self, TimescaleConfig};
use abw_core::experiments::train_length::{self, TrainLengthConfig};
use abw_core::experiments::trend_thresholds::{self, TrendThresholdsConfig};
use abw_core::experiments::variability::{self, VariabilityConfig};
use abw_exec::Executor;

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC01D];

fn serial() -> Executor {
    Executor::new(1)
}

fn parallel() -> Executor {
    Executor::new(4)
}

#[test]
fn shootout_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = ShootoutConfig {
            seeds: vec![seed, seed ^ 0xFF, seed.rotate_left(7)],
            ..ShootoutConfig::quick()
        };
        let a = shootout::run_with(&config, &serial());
        let b = shootout::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
        // the rendered artifact is identical too, not just the numbers
        assert_eq!(
            shootout_table(&a).render(Format::Csv),
            shootout_table(&b).render(Format::Csv)
        );
    }
}

#[test]
fn loss_sweep_is_bit_identical_across_worker_counts() {
    // Impairment RNG streams are per-link and seeded from the scenario
    // seed, so injected faults must not introduce any worker-count
    // dependence either.
    let config = LossSweepConfig {
        loss_rates: vec![0.0, 0.05],
        seeds: vec![0xA11CE, 0xB0B],
        ..LossSweepConfig::quick()
    };
    let a = loss_sweep::run_with(&config, &serial());
    let b = loss_sweep::run_with(&config, &parallel());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        loss_sweep_table(&a).render(Format::Csv),
        loss_sweep_table(&b).render(Format::Csv)
    );
}

#[test]
fn table1_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = PairsVsTrainsConfig {
            seed,
            pool_size: 100,
            ..PairsVsTrainsConfig::quick()
        };
        let a = pairs_vs_trains::run_with(&config, &serial());
        let b = pairs_vs_trains::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
        assert_eq!(
            table1_table(&a).render(Format::Csv),
            table1_table(&b).render(Format::Csv)
        );
    }
}

#[test]
fn tcp_throughput_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = TcpThroughputConfig {
            seed,
            windows: vec![4, 64],
            measure: abw_netsim::SimDuration::from_secs(5),
            ..TcpThroughputConfig::quick()
        };
        let a = tcp_throughput::run_with(&config, &serial());
        let b = tcp_throughput::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
    }
}

#[test]
fn trend_thresholds_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = TrendThresholdsConfig {
            seed,
            streams: 10,
            ..TrendThresholdsConfig::quick()
        };
        let a = trend_thresholds::run_with(&config, &serial());
        let b = trend_thresholds::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
    }
}

#[test]
fn variability_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = VariabilityConfig {
            seed,
            trials: 50,
            ..VariabilityConfig::quick()
        };
        let a = variability::run_with(&config, &serial());
        let b = variability::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
    }
}

#[test]
fn train_length_is_bit_identical_across_worker_counts() {
    for seed in SEEDS {
        let config = TrainLengthConfig {
            seed,
            repetitions: 3,
            packet_budget: 120,
            ..TrainLengthConfig::quick()
        };
        let a = train_length::run_with(&config, &serial());
        let b = train_length::run_with(&config, &parallel());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed:#x}");
    }
}

#[test]
fn multi_bottleneck_is_bit_identical_across_worker_counts() {
    let config = MultiBottleneckConfig::quick();
    let a = multi_bottleneck::run_with(&config, &serial());
    let b = multi_bottleneck::run_with(&config, &parallel());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn burstiness_is_bit_identical_across_worker_counts() {
    let config = BurstinessConfig::quick();
    let a = burstiness::run_with(&config, &serial());
    let b = burstiness::run_with(&config, &parallel());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn timescale_knob_is_bit_identical_across_worker_counts() {
    let config = TimescaleConfig::quick();
    let a = timescale_knob::run_with(&config, &serial());
    let b = timescale_knob::run_with(&config, &parallel());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn latency_accuracy_is_bit_identical_across_worker_counts() {
    let config = LatencyAccuracyConfig::quick();
    let a = latency_accuracy::run_with(&config, &serial());
    let b = latency_accuracy::run_with(&config, &parallel());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
