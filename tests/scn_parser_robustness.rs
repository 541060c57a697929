//! Byte-level robustness of the `.scn` parser: malformed input must come
//! back as `Ok` or `Err`, never as a panic.
//!
//! The inputs are every truncation and every single-byte substitution
//! (from a small alphabet of bytes the grammar gives meaning to) of the
//! committed golden specs, plus seeded random byte strings and grammar
//! soups. Bytes reach the parser the way a file's bytes would, decoded
//! lossily, so invalid UTF-8 is covered too. Each accepted spec is also
//! rendered back with `to_spec`. The fixtures under `tests/fixtures/scn/`
//! are replayed too; an input that ever panics the parser belongs there.

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use abwe::core::scenario::dsl::ScenarioSpec;

const GOLDEN_SPECS: [&str; 3] = ["loss_sweep.scn", "shootout.scn", "tracking.scn"];

/// Substitution alphabet: separators, digits and unit letters, signs,
/// quotes, a comment marker and bytes that are not valid UTF-8 alone.
const ALPHABET: &[u8] = b" \t\n\r=,:.-+\"#09eEkKmMGgsunx_\0\x7f\xc3\xff";

/// Keys of the top-level `key = value` lines.
const TOP_KEYS: &[&str] = &["seeds", "warmup", "rounds", "quick", "tools", "wat"];

/// Keys of the `key=value` items of a `hop` line.
const HOP_KEYS: &[&str] = &[
    "capacity",
    "latency",
    "cross",
    "cross-rate",
    "cross-sizes",
    "queue",
    "impair",
    "wat",
];

/// Keys of an `impair="…"` spec.
const IMPAIR_KEYS: &[&str] = &["loss", "ge-loss", "reorder", "jitter", "flap", "wat"];

/// Value fragments; a value joins one to three of them, so numbers meet
/// units, separators and each other.
const VALUES: &[&str] = &[
    "0",
    "1",
    "-1",
    "0.5",
    "1500",
    "50000000",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "0x",
    "0xffffffffffffffff",
    "1e19",
    "1e300",
    "1e-300",
    "nan",
    "inf",
    "-0",
    "ns",
    "us",
    "ms",
    "s",
    ":",
    ";",
    ",",
    " ",
    "\"",
    "=",
    "true",
    "poisson",
    "cbr",
    "pareto-on-off",
    "internet-mix",
    "direct",
    "bfind",
    "",
];

/// A seeded spec of one to six lines drawn from the grammar's keys with
/// garbled values, so the value parsers see most of the inputs.
fn grammar_soup(rng: &mut StdRng) -> String {
    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.random_range(0..from.len())]
    }
    fn value(rng: &mut StdRng) -> String {
        (0..rng.random_range(1..4))
            .map(|_| pick(rng, VALUES))
            .collect()
    }
    let mut spec = String::from("scenario soup\n");
    for _ in 0..rng.random_range(1..7) {
        if rng.random_bool(0.3) {
            spec += &format!("{} = {}\n", pick(rng, TOP_KEYS), value(rng));
            continue;
        }
        spec += "hop";
        for _ in 0..rng.random_range(0..6) {
            let key = pick(rng, HOP_KEYS);
            if key == "impair" {
                let items: Vec<String> = (0..rng.random_range(0..4))
                    .map(|_| format!("{}={}", pick(rng, IMPAIR_KEYS), value(rng)))
                    .collect();
                spec += &format!(" impair=\"{}\"", items.join(", "));
            } else {
                spec += &format!(" {key}={}", value(rng));
            }
        }
        spec += "\n";
    }
    spec
}

/// Parses `bytes` under `catch_unwind`, rendering an accepted spec back
/// to text. Returns the panic message if anything panicked.
fn panics(bytes: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(bytes).into_owned();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if let Ok(spec) = ScenarioSpec::parse(&text, "robustness.scn") {
            spec.to_spec();
        }
    }));
    outcome.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Every mutated input of the golden specs, then the seeded random
/// ones.
fn inputs() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for name in GOLDEN_SPECS {
        let spec = read(&format!("tests/golden/scenarios/{name}"));
        for len in 0..=spec.len() {
            out.push(spec[..len].to_vec());
        }
        for at in 0..spec.len() {
            for &b in ALPHABET {
                if spec[at] != b {
                    let mut m = spec.clone();
                    m[at] = b;
                    out.push(m);
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5C4_F022);
    for _ in 0..2_000 {
        let len = rng.random_range(0..200);
        out.push((0..len).map(|_| rng.random::<u8>()).collect());
    }
    for _ in 0..4_000 {
        out.push(grammar_soup(&mut rng).into_bytes());
    }
    out
}

#[test]
fn malformed_specs_are_errors_not_panics() {
    // the default hook would print every caught panic; report them once
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut fixtures: Vec<_> = std::fs::read_dir("tests/fixtures/scn")
        .expect("fixture directory exists")
        .map(|e| e.expect("readable fixture entry").path())
        .collect();
    fixtures.sort();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (label, bytes) in fixtures
        .iter()
        .map(|p| (p.display().to_string(), read(&p.display().to_string())))
        .chain(inputs().into_iter().map(|b| ("generated".to_string(), b)))
    {
        checked += 1;
        if let Some(message) = panics(&bytes) {
            failures.push(format!("{label}: {message}\n  input: {bytes:?}"));
        }
    }
    panic::set_hook(hook);
    assert!(checked > 10_000, "only {checked} inputs checked");
    assert!(
        failures.is_empty(),
        "{} of {checked} inputs panicked the parser; first:\n{}",
        failures.len(),
        failures[..failures.len().min(5)].join("\n")
    );
}
