//! `ingest`: the archive write path, then a full read-back.
//!
//! Three 1028² fields with short, mid and long correlation ranges are
//! archived under each Huffman/rANS8 pair of every codec, at one loose and
//! one tight paper bound, as 64×64 checksummed tiles on a 2-wide pool;
//! then the archive is finished, opened, and every entry is read back and
//! checked against its bound. Codec transforms, LZ77 and the entropy
//! coders do nearly all the work and the statistics none; each pair
//! exposes the entropy back end from outside.

use crate::host::POOL_WIDTH;
use crate::stats::median;
use crate::trace::{self_seconds_by_name, unattributed_share, SpanId, Tracer};
use crate::{field_seed, variant_name, Args, Outcome, VARIANTS};
use lcc::archive::{Archive, ArchiveWriter};
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::par::{parallel_map_with, ThreadPoolConfig};
use lcc::pressio::{Compressor, ErrorBound, FrameScratch};
use lcc::synth::{generate_single_range, GaussianFieldConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const SIZE: usize = 1028;
const RANGES: [f64; 3] = [2.0, 8.944, 40.0];
/// One loose and one tight paper bound.
const BOUNDS: [f64; 2] = [1e-2, 1e-5];
const TILE: usize = 64;
const SETUP_REPEATS: usize = 3;

/// Synthesize `ranges.len()` fields of side `size` over the 2-wide pool.
pub fn synthesize(ranges: &[f64], size: usize, seed: u64, tracer: &Tracer) -> Vec<Field2D> {
    let configs: Vec<GaussianFieldConfig> = ranges
        .iter()
        .enumerate()
        .map(|(k, &r)| GaussianFieldConfig::new(size, size, r, field_seed(seed, k)))
        .collect();
    parallel_map_with(ThreadPoolConfig::with_threads(POOL_WIDTH), &configs, |cfg| {
        tracer.span("synth.generate", "", SpanId::ROOT, 0, |_| generate_single_range(cfg))
    })
}

/// Largest point-wise difference between two fields of one shape.
pub fn max_abs_diff(a: &Field2D, b: &Field2D) -> f64 {
    if a.shape() != b.shape() {
        return f64::INFINITY;
    }
    a.as_slice().iter().zip(b.as_slice()).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

struct Pass {
    write_s: f64,
    read_s: f64,
    archive_bytes: usize,
    tiles: u64,
    /// Stored bytes per variant.
    bytes_out: BTreeMap<&'static str, f64>,
    start_ns: u64,
    end_ns: u64,
}

/// Time `f` and add its duration to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *total += t.elapsed().as_secs_f64();
    out
}

fn pass(
    fields: &[Field2D],
    codecs: &[Arc<dyn Compressor>],
    tracer: &Tracer,
    request: u64,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let pool = ThreadPoolConfig::with_threads(POOL_WIDTH);
    let mut scratch = FrameScratch::new();
    let (mut write_s, mut read_s) = (0.0, 0.0);
    let start_ns = tracer.now_ns();
    let mut writer = ArchiveWriter::new();
    let mut plan = Vec::new();
    for (f, field) in fields.iter().enumerate() {
        for codec in codecs {
            let tag = variant_name(codec.name());
            for &eps in &BOUNDS {
                let bound = ErrorBound::Absolute(eps);
                let added = timed(&mut write_s, || {
                    tracer.span("archive.add_entry", tag, SpanId::ROOT, request, |_| {
                        writer.add_entry(
                            &format!("field{f}"),
                            plan.len() as u64,
                            field,
                            codec.as_ref(),
                            bound,
                            TILE,
                            TILE,
                            pool,
                            &mut scratch,
                        )
                    })
                });
                added.map_err(|e| format!("add_entry {tag} {bound}: {e}"))?;
                plan.push((f, Arc::clone(codec), tag, eps));
            }
        }
    }
    let bytes = timed(&mut write_s, || {
        tracer.span("archive.finish", "", SpanId::ROOT, request, |_| writer.finish())
    });
    let archive_bytes = bytes.len();
    let archive = timed(&mut read_s, || {
        tracer.span("archive.open", "", SpanId::ROOT, request, |_| Archive::open(bytes))
    })
    .map_err(|e| format!("open: {e}"))?;
    let mut out = Field2D::zeros(1, 1);
    let mut tiles = 0;
    let mut bytes_out = BTreeMap::new();
    for (k, (f, codec, tag, eps)) in plan.iter().enumerate() {
        tiles += archive.entry(k).n_tiles() as u64;
        *bytes_out.entry(*tag).or_insert(0.0) += archive.entry(k).length as f64;
        let read = timed(&mut read_s, || {
            tracer.span("archive.read_entry", tag, SpanId::ROOT, request, |_| {
                archive.read_entry(k, codec.as_ref(), pool, &mut scratch, &mut out)
            })
        });
        tracer.span("bench.verify", "", SpanId::ROOT, request, |_| {
            outcome.check(read.is_ok() && max_abs_diff(&out, &fields[*f]) <= *eps)
        });
    }
    Ok(Pass { write_s, read_s, archive_bytes, tiles, bytes_out, start_ns, end_ns: tracer.now_ns() })
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let registry = entropy_ablation_registry();
    let codecs: Vec<Arc<dyn Compressor>> = VARIANTS
        .iter()
        .map(|v| registry.get(v).ok_or_else(|| format!("registry lacks {v}")))
        .collect::<Result<_, _>>()?;

    let mut setup = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        fields = synthesize(&RANGES, SIZE, args.seed, tracer);
        setup.push(t.elapsed().as_secs_f64());
    }
    outcome.set("setup_s", median(&setup));
    let uncompressed = (fields.len() * codecs.len() * BOUNDS.len() * SIZE * SIZE * 8) as f64;

    // One untimed pass first, so that allocator growth and page faults of
    // a first archive are not charged to the first timed pass.
    let off = Tracer::new(false);
    pass(&fields, &codecs, &off, 0, &mut outcome)?;
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let t = Instant::now();
        if args.trace && plain.len() > traced.len() {
            traced.push(pass(&fields, &codecs, tracer, traced.len() as u64 + 1, &mut outcome)?);
        } else {
            plain.push(pass(&fields, &codecs, &off, 0, &mut outcome)?);
        }
        let last = t.elapsed().as_secs_f64();
        let done = !args.trace || !traced.is_empty();
        if done && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }

    let wall: Vec<f64> = plain.iter().map(|p| p.write_s + p.read_s).collect();
    let write: Vec<f64> = plain.iter().map(|p| uncompressed / 1e6 / p.write_s).collect();
    let read: Vec<f64> = plain.iter().map(|p| uncompressed / 1e6 / p.read_s).collect();
    outcome.set_samples("wall_s", &wall);
    outcome.set("write_mb_s", median(&write));
    outcome.set("read_mb_s", median(&read));
    outcome.set("ratio", uncompressed / plain[0].archive_bytes as f64);
    outcome.counts.insert("archive.tiles", plain[0].tiles);
    outcome.counts.insert("archive.entries", (fields.len() * codecs.len() * BOUNDS.len()) as u64);
    if args.trace {
        layer_metrics(&traced, &plain, &fields, tracer, &mut outcome);
    }
    Ok(outcome)
}

fn layer_metrics(
    traced: &[Pass],
    plain: &[Pass],
    fields: &[Field2D],
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let spans = tracer.spans();
    let passes = traced.len() as f64;
    for ((name, tag), secs) in self_seconds_by_name(&spans) {
        let per_pass = secs / passes;
        match name {
            "archive.add_entry" => {
                outcome.add("archive.add_entry_busy_s", per_pass);
                outcome.add(format!("{tag}.compress_busy_s"), per_pass);
            }
            "archive.read_entry" => {
                outcome.add("archive.read_entry_busy_s", per_pass);
                outcome.add(format!("{tag}.decompress_busy_s"), per_pass);
            }
            "archive.finish" => outcome.add("archive.finish_busy_s", per_pass),
            "archive.open" => outcome.add("archive.open_busy_s", per_pass),
            "bench.verify" => outcome.add("bench.verify_busy_s", per_pass),
            "synth.generate" => outcome.add("synth.busy_s", secs / SETUP_REPEATS as f64),
            _ => {}
        }
    }
    let per_variant_in = (fields.len() * BOUNDS.len() * SIZE * SIZE * 8) as f64;
    for (v, stored) in &traced[0].bytes_out {
        outcome.set(format!("{v}.bytes_in"), per_variant_in);
        outcome.set(format!("{v}.bytes_out"), *stored);
    }
    outcome.set("archive.tiles", traced[0].tiles as f64);
    outcome.set("synth.fields", fields.len() as f64);
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.write_s + p.read_s).collect::<Vec<_>>());
    outcome.set("bench.trace_overhead_s", walls(traced) - walls(plain));
    let shares: Vec<f64> = traced
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let own: Vec<_> = spans.iter().filter(|s| s.request == k as u64 + 1).cloned().collect();
            unattributed_share(&own, p.start_ns, p.end_ns)
        })
        .collect();
    outcome.set("bench.unattributed_share", median(&shares));
}
