//! Tests of how the benchmark derives its metrics from raw measurements.
//!
//! Run with `cargo test --offline --manifest-path benchmark/Cargo.toml`.

use abw_obs::prof::Profile;
use abwe_benchmark::{
    beyond, cpu_seconds_from_stat, derive_seed, highest_supported, median, peak_rss_mb_from_status,
    percentile, tool_metric_name, valid_name, Fingerprint, PercentileError, SpanNode, Tally,
    END_TO_END, PER_LAYER, TOOL_METRIC_UNIT,
};

/// A profile shaped like a traced tool_sweep batch: a session drive that
/// contains tool decisions and probing streams, which contain simulator
/// runs, plus a load-ramp run directly under the drive.
fn session_profile() -> SpanNode {
    let mut p = Profile::new();
    p.record_path(&["exec.job"], 2, 1_000);
    p.record_path(&["exec.job", "session.drive"], 2, 900);
    p.record_path(&["exec.job", "session.drive", "pathload"], 6, 50);
    p.record_path(&["exec.job", "session.drive", "probe.stream"], 4, 600);
    p.record_path(
        &["exec.job", "session.drive", "probe.stream", "sim.run_until"],
        40,
        450,
    );
    p.record_path(&["exec.job", "session.drive", "sim.run_until"], 3, 100);
    p.record_path(&["exec.worker.busy"], 2, 1_000);
    SpanNode::parse(&p.to_json()).expect("the profile's own JSON parses")
}

#[test]
fn self_time_is_span_minus_children() {
    let tree = session_profile();
    // 900 - (50 + 600 + 100)
    assert_eq!(tree.self_ns("session.drive"), 150);
    // 600 - 450
    assert_eq!(tree.self_ns("probe.stream"), 150);
    // a leaf's self time is its whole time
    assert_eq!(tree.self_ns("pathload"), 50);
    assert_eq!(tree.self_ns("absent"), 0);
}

#[test]
fn totals_sum_every_node_of_a_name_at_any_depth() {
    let tree = session_profile();
    assert_eq!(tree.totals("sim.run_until"), (43, 550));
    assert_eq!(
        tree.child_totals("probe.stream", "sim.run_until"),
        (40, 450)
    );
    assert_eq!(
        tree.child_totals("session.drive", "sim.run_until"),
        (3, 100)
    );
    assert_eq!(tree.top_level_ns(&["exec.job"]), 1_000);
    assert_eq!(tree.top_level_ns(&["sim.run_until"]), 0, "not a root child");
}

#[test]
fn an_empty_profile_parses_to_an_empty_tree() {
    let tree = SpanNode::parse(&Profile::new().to_json()).unwrap();
    assert!(tree.children.is_empty());
    assert_eq!(tree.totals("sim.run_until"), (0, 0));
    assert!(SpanNode::parse("{\"name\":\"root\"").is_err());
    assert!(SpanNode::parse("{} trailing").is_err());
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(beyond(90.0, 100), 10);
    assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
    assert_eq!(percentile(&hundred, 50.0), Ok(50.0));

    let ninety_nine = &hundred[..99];
    assert_eq!(
        percentile(ninety_nine, 90.0),
        Err(PercentileError::Unsupported {
            pct: 90.0,
            n: 99,
            beyond: 9
        })
    );
    // the median is reported for any non-empty sample
    assert_eq!(percentile(&[7.0], 50.0), Ok(7.0));
    assert_eq!(percentile(&[], 50.0), Err(PercentileError::Empty));
}

#[test]
fn percentile_ignores_sample_order() {
    let mut shuffled: Vec<f64> = (1..=200).map(|i| f64::from((i * 37) % 200 + 1)).collect();
    assert_eq!(percentile(&shuffled, 90.0), Ok(180.0));
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 90.0), Ok(180.0));
}

#[test]
fn highest_supported_percentile_follows_the_sample_count() {
    assert_eq!(highest_supported(10), None);
    assert_eq!(highest_supported(40), Some(75.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(300), Some(95.0));
    assert_eq!(highest_supported(1_000), Some(99.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn failed_frac_counts_failures_against_attempts() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), None, "no base, no ratio");
    for ok in [true, true, false, true] {
        t.record(ok);
    }
    assert_eq!((t.attempted, t.failed), (4, 1));
    assert_eq!(t.failed_frac(), Some(0.25));
    let mut total = Tally::default();
    total.add(t);
    total.add(t);
    assert_eq!((total.attempted, total.failed), (8, 2));
    assert_eq!(total.failed_frac(), Some(0.25));
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for good in [
        "wall_s",
        "netsim.ns_per_pkt",
        "tools.pathchirp.probe_pkts",
        "a-b",
        "9x",
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in [
        "",
        ".hidden",
        "_x",
        "p90 ms",
        "tools/steps",
        "é",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
}

#[test]
fn every_reported_metric_is_valid_unique_and_declared() {
    let declared: String =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root")
            .split_whitespace()
            .collect();
    let tools = abw_core::tools::registry::all()
        .iter()
        .map(|e| (tool_metric_name(e.name), TOOL_METRIC_UNIT));
    let names: Vec<(String, &str)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .chain(tools)
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in &names {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} reported twice");
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(
            declared.contains(&entry),
            "{name} [{unit}] is not declared in BENCHMARK.json"
        );
    }
}

#[test]
fn proc_readers_parse_linux_formats() {
    let stat = "4242 (abwe bench) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0 100";
    assert_eq!(cpu_seconds_from_stat(stat), Some(3.25));
    assert_eq!(cpu_seconds_from_stat("garbage"), None);
    let status = "Name:\tabwe\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
    assert_eq!(peak_rss_mb_from_status(status), Some(20.0));
    assert_eq!(peak_rss_mb_from_status("Name:\tabwe\n"), None);
}

#[test]
fn fingerprints_and_seeds_are_deterministic() {
    let digest = |values: &[f64]| {
        let mut f = Fingerprint::default();
        for &v in values {
            f.f64(v);
        }
        f.value()
    };
    assert_eq!(digest(&[1.0, 2.0]), digest(&[1.0, 2.0]));
    assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
    assert_ne!(digest(&[0.0]), digest(&[-0.0]), "bit patterns, not values");
    assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
    assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
    assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
}
