//! Repository benchmark: runs one named workload from a seed and prints
//! every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|ingest|regions --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is a JSON report with the host fingerprint, exact counts and
//! the workload's other figures. See `perfbench/README.md`.

mod host;
mod ingest;
mod openloop;
mod regions;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Registry variants whose codec calls the per-layer metrics break out.
pub const VARIANTS: [&str; 6] = ["sz", "sz-rans8", "zfp", "zfp-rans8", "mgard", "mgard-rans8"];

/// The `'static` name of a registry variant, for span tags.
pub fn variant_name(name: &str) -> &'static str {
    VARIANTS.iter().find(|v| **v == name).copied().unwrap_or("other")
}

/// Synthesis seed of the `k`-th field of a run seeded with `seed`.
pub fn field_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k as u64 + 1)
}

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("ratio", "ratio")];

/// Per-layer metrics reported by the traced run: `(name, unit)`. A
/// workload reports 0 for a layer it does not call.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("synth.busy_s", "s"),
        ("synth.fields", "count"),
        ("geostat.global_busy_s", "s"),
        ("geostat.local_busy_s", "s"),
        ("geostat.windows", "count"),
        ("geostat.nan_windows", "count"),
        ("linalg.svd_busy_s", "s"),
        ("linalg.svd_windows", "count"),
        ("linalg.svd_failed", "count"),
        ("core.busy_s", "s"),
        ("core.cells", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for v in VARIANTS {
        out.push((format!("{v}.compress_busy_s"), "s"));
        out.push((format!("{v}.decompress_busy_s"), "s"));
        out.push((format!("{v}.bytes_in"), "bytes"));
        out.push((format!("{v}.bytes_out"), "bytes"));
    }
    out.extend(
        [
            ("archive.add_entry_busy_s", "s"),
            ("archive.finish_busy_s", "s"),
            ("archive.open_busy_s", "s"),
            ("archive.read_entry_busy_s", "s"),
            ("archive.read_region_hit_busy_s", "s"),
            ("archive.read_region_miss_busy_s", "s"),
            ("archive.tiles", "count"),
            ("archive.tiles_from_cache", "count"),
            ("archive.tiles_recovered", "count"),
            ("cache.hits", "count"),
            ("cache.misses", "count"),
            ("cache.evictions", "count"),
            ("cache.hit_rate", "ratio"),
            ("cache.resident_bytes", "bytes"),
            ("par.utilization", "ratio"),
            ("par.pool_calls", "count"),
            ("par.spawn_us", "us"),
            ("bench.wait_p99_us", "us"),
            ("bench.late_p99_us", "us"),
            ("bench.verify_busy_s", "s"),
            ("bench.trace_overhead_s", "s"),
            ("bench.unattributed_share", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every figure the run measured, by metric name.
    pub values: BTreeMap<String, f64>,
    /// Exact counts that repeat for a given seed and run length.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    /// Report the median of `samples` as `name`, with their count and range.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.set(format!("{name}.samples"), samples.len() as f64);
        self.set(format!("{name}.min"), samples.iter().copied().fold(f64::INFINITY, f64::min));
        self.set(format!("{name}.max"), samples.iter().copied().fold(0.0, f64::max));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Arguments every workload receives.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Output directory for span files and the count ledger, inside the
/// benchmark's own directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compare this run's exact counts with those an earlier run of the same
/// workload, seed and length recorded, and record them if none did.
/// Returns the names of counts that differ.
fn check_ledger(args: &Args, counts: &BTreeMap<&'static str, u64>) -> Vec<String> {
    let dir = out_dir().join("counts");
    let path = dir.join(format!("{}-seed{}-{}s.txt", args.workload, args.seed, args.seconds));
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let before: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once('=')).collect();
            counts
                .iter()
                .filter(|(k, v)| before.get(*k).map_or(true, |b| *b != v.to_string()))
                .map(|(k, v)| format!("{k}: {v} now, {} before", before.get(k).unwrap_or(&"none")))
                .collect()
        }
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text))
            {
                eprintln!("perfbench: could not record counts in {}: {e}", path.display());
            }
            Vec::new()
        }
    }
}

/// A JSON number, or `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "study" => study::run(&args, &tracer),
        "ingest" => ingest::run(&args, &tracer),
        "regions" => regions::run(&args, &tracer),
        other => Err(format!("unknown workload {other} (study, ingest, regions)")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mismatches = check_ledger(&args, &outcome.counts);
    for m in &mismatches {
        eprintln!("perfbench: count differs from an earlier run with this seed: {m}");
    }
    outcome.check(mismatches.is_empty());

    if tracer.is_on() {
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::File::create(&path))
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                tracer.write_to(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("perfbench: could not write spans to {}: {e}", path.display());
        }
    }

    let host: Vec<String> =
        host::fingerprint().iter().map(|(k, v)| format!("{}:{}", quoted(k), quoted(v))).collect();
    let counts: Vec<String> =
        outcome.counts.iter().map(|(k, v)| format!("{}:{v}", quoted(k))).collect();
    let values: Vec<String> =
        outcome.values.iter().map(|(k, v)| format!("{}:{}", quoted(k), num(*v))).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{{}}},\"counts\":{{{}}},\"values\":{{{}}}}}",
        quoted(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.join(","),
        counts.join(","),
        values.join(",")
    );

    let selected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = outcome.values.get(name).copied().unwrap_or(0.0);
            format!("{}:{{\"value\":{},\"unit\":{}}}", quoted(name), num(value), quoted(unit))
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the code reports are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|item| {
                    let field = |key: &str| {
                        let at = item.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &item[at + key.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn json_strings_and_numbers_are_escaped() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.125), "0.125");
    }
}
