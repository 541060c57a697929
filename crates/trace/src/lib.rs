//! # abw-trace
//!
//! The available-bandwidth *process* — Equations (1)–(3) of the paper —
//! computed exactly from link busy-period records.
//!
//! The avail-bw of link `i` over `(t, t + tau)` is
//! `A_i = C_i * (1 - u_i(t, t + tau))` where `u_i` is the average
//! utilisation in that window. [`AvailBw`] answers such queries in
//! `O(log n)` from the merged busy intervals the simulator records, giving
//! every experiment its ground truth ("population") statistics.
//!
//! [`synthetic`] generates the stand-in for the NLANR packet trace
//! (ANL-1070432720, an OC-3 access link) used by the paper's Figures 1
//! and 6: a simulated 155.52 Mb/s link loaded to ~45% by an aggregate of
//! heavy-tailed ON-OFF sources.

pub mod effective;
pub mod process;
pub mod synthetic;

pub use effective::EffectiveBandwidth;
pub use process::AvailBw;
pub use synthetic::{spawn_trace_sources, SyntheticTrace, SyntheticTraceConfig};
