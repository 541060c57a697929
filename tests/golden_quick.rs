//! Golden regression tests for the `--quick` artifacts.
//!
//! `shootout --quick --csv` and `table1 --quick --csv` must keep
//! producing the exact bytes checked in under `tests/golden/` — the
//! tables are deterministic (seeded simulations, fixed rounding), so
//! any diff is a behaviour change: an estimator edit, a scenario edit,
//! an RNG change, or an executor ordering bug. The tests render through
//! the same `abw_bench::reports` code path the binaries use.
//!
//! The Figure 2 and 6, Pitfall 5 and Fallacy 3 experiments are pinned
//! as the `{:?}` text of their quick-config result, which prints every
//! `f64` exactly, so even a last-bit change in an estimate shows.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! ABW_UPDATE_GOLDEN=1 cargo test --test golden_quick
//! ```
//! then commit the diff under `tests/golden/` with the reason.

use std::path::Path;

use abw_bench::reports::{shootout_table, table1_table};
use abw_bench::Format;
use abw_core::experiments::latency_accuracy::{self, LatencyAccuracyConfig};
use abw_core::experiments::pairs_vs_trains::{self, PairsVsTrainsConfig};
use abw_core::experiments::shootout::{self, ShootoutConfig};
use abw_core::experiments::tight_vs_narrow::{self, TightVsNarrowConfig};
use abw_core::experiments::timescale_knob::{self, TimescaleConfig};
use abw_core::experiments::variation_range::{self, VariationRangeConfig};

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("ABW_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run with ABW_UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the checked-in golden output;\n\
         if the change is intentional, regenerate with \
         ABW_UPDATE_GOLDEN=1 and commit the diff"
    );
}

#[test]
fn shootout_quick_csv_matches_golden() {
    let result = shootout::run(&ShootoutConfig::quick());
    check_golden(
        "shootout_quick.csv",
        &shootout_table(&result).render(Format::Csv),
    );
}

#[test]
fn table1_quick_csv_matches_golden() {
    let result = pairs_vs_trains::run(&PairsVsTrainsConfig::quick());
    check_golden(
        "table1_quick.csv",
        &table1_table(&result).render(Format::Csv),
    );
}

#[test]
fn fig2_quick_result_matches_golden() {
    let result = timescale_knob::run(&TimescaleConfig::quick());
    check_golden("fig2_quick.txt", &format!("{result:?}\n"));
}

#[test]
fn fig6_quick_result_matches_golden() {
    let result = variation_range::run(&VariationRangeConfig::quick());
    check_golden("fig6_quick.txt", &format!("{result:?}\n"));
}

#[test]
fn exp_capacity_quick_result_matches_golden() {
    let result = tight_vs_narrow::run(&TightVsNarrowConfig::quick());
    check_golden("exp_capacity_quick.txt", &format!("{result:?}\n"));
}

#[test]
fn exp_faster_quick_result_matches_golden() {
    let result = latency_accuracy::run(&LatencyAccuracyConfig::quick());
    check_golden("exp_faster_quick.txt", &format!("{result:?}\n"));
}
