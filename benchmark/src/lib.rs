//! Metric derivation for the abwe benchmark.
//!
//! The benchmark binary (`src/main.rs`) runs the workloads; this library
//! holds the parts that turn raw measurements into reported metrics, so
//! they can be tested on their own: reading the span tree that
//! `abw_obs::prof` records, self time, the percentile rule, failure
//! accounting, metric-name validation, output fingerprints and the
//! `/proc` readers.

use std::fmt;

/// One node of a span profile, as `abw_obs::prof::Profile::to_json`
/// writes it: `{"name":…,"count":…,"total_ns":…,"children":[…]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (`"root"` for the unnamed root).
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Inclusive wall time, nanoseconds.
    pub total_ns: u64,
    /// Child spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Parses the JSON form of a profile tree.
    pub fn parse(json: &str) -> Result<SpanNode, String> {
        let mut p = Parser {
            src: json.as_bytes(),
            at: 0,
        };
        let node = p.node()?;
        p.skip_ws();
        if p.at != p.src.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(node)
    }

    fn visit<'a>(
        &'a self,
        parent: Option<&'a SpanNode>,
        f: &mut dyn FnMut(&'a SpanNode, Option<&'a SpanNode>),
    ) {
        f(self, parent);
        for child in &self.children {
            child.visit(Some(self), f);
        }
    }

    /// `(count, total_ns)` summed over every node named `name`, at any
    /// depth (spans of worker threads merge under their own roots).
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let mut acc = (0u64, 0u64);
        self.visit(None, &mut |node, _| {
            if node.name == name {
                acc.0 += node.count;
                acc.1 += node.total_ns;
            }
        });
        acc
    }

    /// Self time of the spans named `name`: their inclusive time minus
    /// the time their child spans cover, summed over every such node.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut acc = 0u64;
        self.visit(None, &mut |node, _| {
            if node.name == name {
                let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
                acc += node.total_ns.saturating_sub(children);
            }
        });
        acc
    }

    /// `(count, total_ns)` summed over nodes named `child` whose parent
    /// is named `parent`.
    pub fn child_totals(&self, parent: &str, child: &str) -> (u64, u64) {
        let mut acc = (0u64, 0u64);
        self.visit(None, &mut |node, up| {
            if node.name == child && up.is_some_and(|p| p.name == parent) {
                acc.0 += node.count;
                acc.1 += node.total_ns;
            }
        });
        acc
    }

    /// Inclusive time of the root's direct children named in `names`.
    pub fn top_level_ns(&self, names: &[&str]) -> u64 {
        self.children
            .iter()
            .filter(|c| names.contains(&c.name.as_str()))
            .map(|c| c.total_ns)
            .sum()
    }
}

/// A minimal reader for the profile JSON shape (objects, arrays,
/// strings without escapes that matter here, unsigned integers).
struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.src.len() && self.src[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.at).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        while let Some(&b) = self.src.get(self.at) {
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.src.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.at;
        while self.at < self.src.len() && self.src[self.at].is_ascii_digit() {
            self.at += 1;
        }
        std::str::from_utf8(&self.src[start..self.at])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|_| format!("expected an unsigned integer at byte {start}"))
    }

    fn node(&mut self) -> Result<SpanNode, String> {
        self.expect(b'{')?;
        let mut node = SpanNode {
            name: String::new(),
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        };
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(node);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "name" => node.name = self.string()?,
                "count" => node.count = self.number()?,
                "total_ns" => node.total_ns = self.number()?,
                "children" => {
                    self.expect(b'[')?;
                    if self.peek() == Some(b']') {
                        self.at += 1;
                    } else {
                        loop {
                            node.children.push(self.node()?);
                            match self.peek() {
                                Some(b',') => self.at += 1,
                                _ => break,
                            }
                        }
                        self.expect(b']')?;
                    }
                }
                other => return Err(format!("unexpected key `{other}`")),
            }
            match self.peek() {
                Some(b',') => self.at += 1,
                _ => break,
            }
        }
        self.expect(b'}')?;
        Ok(node)
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile cannot be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    Unsupported {
        /// The requested percentile.
        pct: f64,
        /// Sample count.
        n: usize,
        /// Samples beyond the percentile's rank.
        beyond: usize,
    },
}

impl fmt::Display for PercentileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::Unsupported { pct, n, beyond } => write!(
                f,
                "p{pct} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
            ),
        }
    }
}

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    // the tolerance keeps float error (99.9 / 100 * 10000 is
    // 9990.000000000002) from pushing the rank one past the exact value
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `pct` among `n`.
pub fn beyond(pct: f64, n: usize) -> usize {
    n - rank(pct, n)
}

/// The nearest-rank percentile `pct` of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it. The median is exempt:
/// it is reported for any non-empty sample.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, PercentileError> {
    let n = samples.len();
    if n == 0 {
        return Err(PercentileError::Empty);
    }
    if pct > 50.0 && beyond(pct, n) < MIN_BEYOND {
        return Err(PercentileError::Unsupported {
            pct,
            n,
            beyond: beyond(pct, n),
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(pct, n) - 1])
}

/// Percentiles tried, highest first, when reporting the tail.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Items attempted and failed, for `failed_frac`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Items the workload attempted.
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one item.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed items over attempted items; `None` when nothing was
    /// attempted (a ratio with no base is not reported).
    pub fn failed_frac(&self) -> Option<f64> {
        (self.attempted > 0).then(|| self.failed as f64 / self.attempted as f64)
    }
}

/// True when `name` is a valid metric or workload name: 1 to 64
/// characters from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// An FNV-1a digest of a workload's outputs: same inputs, same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Derives an independent sub-seed from a workload seed and a stream tag
/// (SplitMix64 finaliser), so every input of a workload follows from
/// the one seed given on the command line.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads included,
/// from the text of `/proc/self/stat`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    // the command name may hold spaces; fields resume after its `)`
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields 14 and 15 of the file (utime, stime) sit at 11 and 12 here
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MB from the text of `/proc/self/status`.
pub fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics, `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("sim_pkts_per_s", "pkt/s"),
    ("peak_rss_mb", "MB"),
    ("estimate_p50_ms", "ms"),
    ("estimate_p90_ms", "ms"),
    ("est_err_p50", "ratio"),
    ("est_err_p90", "ratio"),
];

/// The per-layer metrics, `(name, unit)`, printed by a traced run,
/// except the per-tool `tools.<name>.probe_pkts` counts (see
/// [`tool_metric_name`]).
pub const PER_LAYER: [(&str, &str); 36] = [
    ("scenario.parse_s", "s"),
    ("scenario.build_s", "s"),
    ("scenario.warmup_s", "s"),
    ("experiments.call_s", "s"),
    ("exec.jobs", "count"),
    ("exec.busy_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.util_frac", "ratio"),
    ("netsim.run_until_calls", "count"),
    ("netsim.busy_s", "s"),
    ("netsim.pkts", "pkt"),
    ("netsim.ns_per_pkt", "ns/pkt"),
    ("netsim.events_per_pkt", "events/pkt"),
    ("netsim.queue_ops_per_pkt", "ops/pkt"),
    ("netsim.fluid_frac", "ratio"),
    ("netsim.ff_skips", "count"),
    ("netsim.impair_draws", "count"),
    ("probe.streams", "count"),
    ("probe.stream_mean_us", "us"),
    ("probe.self_s", "s"),
    ("probe.run_until_per_stream", "calls/stream"),
    ("session.drives", "count"),
    ("session.self_s", "s"),
    ("session.ramp_s", "s"),
    ("tools.steps", "count"),
    ("tools.next_s", "s"),
    ("tools.probe_pkts_per_estimate", "pkt"),
    ("tcp.cells", "count"),
    ("tcp.cell_mean_s", "s"),
    ("tcp.goodput_mbps_mean", "Mb/s"),
    ("trace.generate_s", "s"),
    ("trace.sample_s", "s"),
    ("trace.pkts", "pkt"),
    ("stats.ecdf_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_cover_frac", "ratio"),
];

/// Unit of the per-tool probe packet counts.
pub const TOOL_METRIC_UNIT: &str = "pkt";

/// Name of the per-tool probe packet count of registry tool `tool`.
pub fn tool_metric_name(tool: &str) -> String {
    format!("tools.{tool}.probe_pkts")
}
