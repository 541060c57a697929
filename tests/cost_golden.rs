//! Exact deterministic cost counts, pinned in `tests/golden/costs_quick.txt`.
//!
//! Wall time is noisy; the work a run does is not. Every registry tool,
//! driven once at its quick config on the seed-11 single-hop scenario
//! after a 500 ms warm-up, sends a fixed number of probe packets and
//! pops a fixed number of simulator events. The bare seed-7 single-hop
//! scenario run to 20 s simulates a fixed number of packets and events.
//! Any change to those counts is a behaviour change of the simulator or
//! a tool, and fails here.
//!
//! This file holds exactly one `#[test]` on purpose: the counts come
//! from `abw_obs::prof::snapshot()`, whose totals are process-global,
//! so a second test running concurrently in the same binary would leak
//! into the deltas.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! ABW_UPDATE_GOLDEN=1 cargo test --test cost_golden
//! ```
//! then commit the diff under `tests/golden/` with the reason.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use abw_core::scenario::{Scenario, SingleHopConfig};
use abw_core::tools::registry::{self, ToolConfig};
use abw_netsim::{SimDuration, SimTime};
use abw_obs::prof::{self, Cost};

#[test]
fn cost_counts_match_golden() {
    let mut golden = String::new();
    let mut tool_cost = BTreeMap::new();
    for entry in registry::all() {
        let mut s = Scenario::single_hop(&SingleHopConfig {
            seed: 11,
            ..SingleHopConfig::default()
        });
        s.warm_up(SimDuration::from_millis(500));
        let mut tool = entry.build(&ToolConfig::quick());
        let mut session = s.session();
        let before = prof::snapshot();
        let verdict = session.drive(&mut s.sim, tool.as_mut());
        let events = prof::snapshot().delta(&before).get(Cost::EventsPopped);
        let cost = (verdict.probe_packets(), events);
        tool_cost.insert(entry.name, cost);
        let _ = writeln!(
            golden,
            "tool_{} probe_packets={} events_popped={}",
            entry.name, cost.0, cost.1
        );
    }

    // The micro-loop: ~25 Mb/s of 1500 B Poisson cross traffic and no
    // probing, so the counts are the simulator's own work.
    let mut s = Scenario::single_hop(&SingleHopConfig {
        seed: 7,
        ..SingleHopConfig::default()
    });
    let before = prof::snapshot();
    s.sim.run_until(SimTime::from_nanos(20_000_000_000));
    let d = prof::snapshot().delta(&before);
    let _ = writeln!(
        golden,
        "netsim_microloop packets_simulated={} events_popped={}",
        d.get(Cost::PacketsSimulated),
        d.get(Cost::EventsPopped)
    );

    // Each pair shares one probing engine: `ptr` is the `Igi`
    // gap-increase train with the turning-point rate estimator instead
    // of the IGI formula, and `schirp` sends pathChirp's exact chirp
    // stream and only smooths the receiver-side delay series. Identical
    // probe streams must cost identical packets and events, so an
    // accidental config divergence (or a registry entry built from the
    // wrong constructor) fails here by name, not only as a golden diff.
    for (a, b) in [("igi", "ptr"), ("pathchirp", "schirp")] {
        assert_eq!(
            tool_cost[a], tool_cost[b],
            "`{a}` and `{b}` share a probing engine; their probe cost must match"
        );
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/costs_quick.txt");
    if std::env::var_os("ABW_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &golden).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run with ABW_UPDATE_GOLDEN=1 to create it)",
            path.display()
        )
    });
    assert_eq!(
        golden, expected,
        "cost counts drifted from the checked-in golden;\n\
         if the change is intentional, regenerate with \
         ABW_UPDATE_GOLDEN=1 and commit the diff"
    );
}
