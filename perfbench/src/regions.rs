//! `regions`: the archive read path, as an open loop.
//!
//! The archive holds three 1028² rANS8 entries in 64×64 tiles. Users ask
//! for 64×64 windows at half-tile offsets, so one read touches up to four
//! tiles, and window popularity follows Zipf(1.1). The decoded entries
//! (~25 MB) are about three times the 8 MB tile-cache budget, so reads
//! both hit and evict; missing tiles are decoded over a 2-wide pool. Every
//! read is checked against a hash of the same window of a full-entry
//! decode, taken at set-up.
//!
//! Phases, all served by one reader thread:
//! 1. warm-up: a fixed number of reads, back to back, to fill the cache;
//! 2. open loop: a seeded Poisson schedule at a nominal rate well below
//!    the knee; latency counts from each request's due time;
//! 3. drain passes: fixed lists of reads served back to back; `wall_s` is
//!    the median time one pass spends inside `read_region`;
//! 4. untraced runs only: a fixed rate ladder for the highest rate whose
//!    p99 stays under the limit without a growing backlog.
//!
//! Cache, tile and pool counts are taken over phases 1 and 2, whose
//! request lists depend only on the seed and the run length.

use crate::host::POOL_WIDTH;
use crate::ingest::synthesize;
use crate::openloop::{poisson_schedule, run_open_loop, OpenLoop, Request, Rng, WallClock, Zipf};
use crate::stats::{beyond, median, percentile};
use crate::trace::{self_seconds_by_name, unattributed_share, SpanId, Tracer};
use crate::{Args, Outcome};
use lcc::archive::{Archive, ArchiveWriter, CacheStats, RegionStats, TileCache};
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::{Field2D, Window};
use lcc::par::{parallel_map_with, ThreadPoolConfig};
use lcc::pressio::{Compressor, ErrorBound, FrameScratch};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

const SIZE: usize = 1028;
const RANGES: [f64; 3] = [2.0, 8.944, 40.0];
const CODECS: [&str; 3] = ["sz-rans8", "zfp-rans8", "mgard-rans8"];
const BOUND: f64 = 1e-3;
const TILE: usize = 64;
const CACHE_BYTES: usize = 8_000_000;
const ZIPF_S: f64 = 1.1;
const POPULARITY_SEED: u64 = 0x0005_eed0_f7e9_10a5;
const SETUP_REPEATS: usize = 3;
const WARMUP_READS: usize = 20_000;
const NOMINAL_RATE: f64 = 5_000.0;
const DRAIN_READS: usize = 4_000;
/// Drain passes a traced run records spans for (three spans per read).
const TRACED_PASSES: usize = 5;
const LADDER: [f64; 6] = [5_000.0, 7_500.0, 10_000.0, 15_000.0, 20_000.0, 30_000.0];
const RUNG_SECONDS: f64 = 0.5;
const P99_LIMIT_US: f64 = 1_000.0;
/// Shares of `--seconds` given to the open loop and to the drain passes;
/// the rest goes to the ladder.
const OPEN_SHARE: f64 = 0.3;
const DRAIN_SHARE: f64 = 0.4;

/// Hash of a window's values, four independent lanes over the bit
/// patterns, so that checking a read costs about a microsecond.
pub fn hash_values(values: &[f64]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [0xcbf2_9ce4_8422_2325u64, 1, 2, 3];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ v.to_bits()).wrapping_mul(PRIME);
        }
    }
    for v in tail {
        lanes[0] = (lanes[0] ^ v.to_bits()).wrapping_mul(PRIME);
    }
    lanes.iter().fold(values.len() as u64, |h, l| (h ^ l).wrapping_mul(PRIME).rotate_left(29))
}

/// Windows of side `TILE` at half-tile steps over the field.
fn windows() -> Vec<Window> {
    let anchors: Vec<usize> =
        (0..).map(|k| k * TILE / 2).take_while(|a| a + TILE <= SIZE).collect();
    let mut out = Vec::with_capacity(anchors.len() * anchors.len());
    for &i0 in &anchors {
        for &j0 in &anchors {
            out.push(Window { i0, j0, height: TILE, width: TILE });
        }
    }
    out
}

struct Served {
    archive: Archive<Vec<u8>>,
    cache: Arc<TileCache>,
    codecs: Vec<Arc<dyn Compressor>>,
    windows: Vec<Window>,
    /// `refs[entry * windows + window]`: hash of that window of a full
    /// decode of the entry.
    refs: Vec<u64>,
    archive_bytes: usize,
}

fn build(seed: u64, codecs: &[Arc<dyn Compressor>], tracer: &Tracer) -> Result<Served, String> {
    let pool = ThreadPoolConfig::with_threads(POOL_WIDTH);
    let mut scratch = FrameScratch::new();
    let fields = synthesize(&RANGES, SIZE, seed, tracer);
    let mut writer = ArchiveWriter::new();
    for (k, (field, codec)) in fields.iter().zip(codecs).enumerate() {
        writer
            .add_entry(
                "region-field",
                k as u64,
                field,
                codec.as_ref(),
                ErrorBound::Absolute(BOUND),
                TILE,
                TILE,
                pool,
                &mut scratch,
            )
            .map_err(|e| format!("add_entry {}: {e}", codec.name()))?;
    }
    let bytes = writer.finish();
    let archive_bytes = bytes.len();
    let cache = Arc::new(TileCache::new(CACHE_BYTES));
    let archive =
        Archive::open(bytes).map_err(|e| format!("open: {e}"))?.with_cache(Arc::clone(&cache));
    let windows = windows();
    let mut refs = Vec::with_capacity(codecs.len() * windows.len());
    let mut full = Field2D::zeros(1, 1);
    for (k, codec) in codecs.iter().enumerate() {
        archive
            .read_entry(k, codec.as_ref(), pool, &mut scratch, &mut full)
            .map_err(|e| format!("read_entry {}: {e}", codec.name()))?;
        for w in &windows {
            let values: Vec<f64> = full.view().window(w).iter().collect();
            refs.push(hash_values(&values));
        }
    }
    Ok(Served { archive, cache, codecs: codecs.to_vec(), windows, refs, archive_bytes })
}

/// The reader: one scratch and output buffer, reused for every request.
struct Reader<'a> {
    served: &'a Served,
    scratch: FrameScratch,
    out: Field2D,
    tiles: u64,
    tiles_from_cache: u64,
    tiles_recovered: u64,
    pool_calls: u64,
}

impl<'a> Reader<'a> {
    fn new(served: &'a Served) -> Self {
        Reader {
            served,
            scratch: FrameScratch::new(),
            out: Field2D::zeros(1, 1),
            tiles: 0,
            tiles_from_cache: 0,
            tiles_recovered: 0,
            pool_calls: 0,
        }
    }

    /// Read item `item` (entry-major over the window table) into `out`.
    fn read(&mut self, item: usize, tracer: &Tracer, parent: SpanId, request: u64) -> bool {
        let n_windows = self.served.windows.len();
        let (entry, window) = (item / n_windows, item % n_windows);
        let codec = self.served.codecs[entry].as_ref();
        let pool = ThreadPoolConfig::with_threads(POOL_WIDTH);
        let result: Result<RegionStats, _> = tracer.span_named("", parent, request, |_| {
            let r = self.served.archive.read_region(
                entry,
                &self.served.windows[window],
                codec,
                pool,
                &mut self.scratch,
                &mut self.out,
            );
            let hit = matches!(&r, Ok(s) if s.tiles == s.tiles_from_cache);
            (r, if hit { "archive.read_region_hit" } else { "archive.read_region_miss" })
        });
        match result {
            Ok(stats) => {
                self.tiles += stats.tiles as u64;
                self.tiles_from_cache += stats.tiles_from_cache as u64;
                self.tiles_recovered += stats.tiles_recovered as u64;
                if stats.tiles - stats.tiles_from_cache >= 2 {
                    self.pool_calls += 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `out` is bit-identical to the reference for `item`.
    fn verify(&self, item: usize) -> bool {
        hash_values(self.out.as_slice()) == self.served.refs[item]
    }
}

/// One drain pass: `items` read back to back. Returns the seconds spent
/// inside the read calls.
fn drain(
    reader: &mut Reader<'_>,
    items: &[usize],
    tracer: &Tracer,
    first_request: u64,
    outcome: &mut Outcome,
) -> f64 {
    let mut busy = 0.0;
    for (k, &item) in items.iter().enumerate() {
        let request = first_request + k as u64;
        tracer.span("bench.request", "", SpanId::ROOT, request, |id| {
            let t = Instant::now();
            let ok = reader.read(item, tracer, id, request);
            busy += t.elapsed().as_secs_f64();
            let ok = ok && tracer.span("bench.verify", "", id, request, |_| reader.verify(item));
            outcome.check(ok);
        });
    }
    busy
}

/// Serve `schedule` as an open loop on the calling thread.
fn open_loop(reader: &RefCell<Reader<'_>>, schedule: &[Request], off: &Tracer) -> OpenLoop {
    run_open_loop(
        schedule,
        2_000_000,
        &mut WallClock::new(),
        |_, r| (r.item, reader.borrow_mut().read(r.item, off, SpanId::ROOT, 0)),
        |(item, ok)| ok && reader.borrow().verify(item),
    )
}

fn cache_delta(after: CacheStats, before: CacheStats) -> (u64, u64, u64) {
    (after.hits - before.hits, after.misses - before.misses, after.evictions - before.evictions)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let registry = entropy_ablation_registry();
    let codecs: Vec<Arc<dyn Compressor>> = CODECS
        .iter()
        .map(|c| registry.get(c).ok_or_else(|| format!("registry lacks {c}")))
        .collect::<Result<_, _>>()?;

    let mut setup = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        served = Some(build(args.seed, &codecs, tracer)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let served = served.expect("set-up ran");
    outcome.set("setup_s", median(&setup));
    outcome.set("ratio", (CODECS.len() * SIZE * SIZE * 8) as f64 / served.archive_bytes as f64);

    let n_items = served.codecs.len() * served.windows.len();
    // Which windows are popular is a property of the workload, fixed
    // across seeds; the seed draws the fields and the request sequence.
    let zipf = Zipf::new(n_items, ZIPF_S, &mut Rng::new(POPULARITY_SEED));
    let mut rng = Rng::new(args.seed);
    let off = Tracer::new(false);
    let reader = RefCell::new(Reader::new(&served));
    let start = Instant::now();

    // 1. Warm-up.
    let before = served.cache.stats();
    for _ in 0..WARMUP_READS {
        let item = zipf.draw(&mut rng);
        let mut r = reader.borrow_mut();
        let ok = r.read(item, &off, SpanId::ROOT, 0) && r.verify(item);
        outcome.check(ok);
    }

    // 2. Open loop at the nominal rate.
    let count = (NOMINAL_RATE * OPEN_SHARE * args.seconds).ceil() as usize;
    let schedule = poisson_schedule(&mut rng, &zipf, NOMINAL_RATE, count);
    let open = open_loop(&reader, &schedule, &off);
    outcome.attempted += schedule.len() as u64;
    outcome.failed += open.failed;
    let (hits, misses, evictions) = cache_delta(served.cache.stats(), before);
    let resident = served.cache.stats().bytes;
    // Which tiles are resident depends on the order in which the pool's
    // two workers insert the tiles of one read, so the cache counts vary
    // by a few in ten thousand between runs; only the tiles a read
    // touches are fixed by the schedule and go into the ledger.
    let r = reader.borrow();
    outcome.counts.insert("archive.tiles", r.tiles);
    for (name, value) in [
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.evictions", evictions),
        ("archive.tiles", r.tiles),
        ("archive.tiles_from_cache", r.tiles_from_cache),
        ("archive.tiles_recovered", r.tiles_recovered),
        ("par.pool_calls", r.pool_calls),
    ] {
        outcome.set(name, value as f64);
    }
    drop(r);
    outcome.set("cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    outcome.set("cache.resident_bytes", resident as f64);
    outcome.set("p50_us", percentile(&open.latency_us, 0.5));
    outcome.set("p99_us", percentile(&open.latency_us, 0.99));
    outcome.set("p99_us.beyond", beyond(&open.latency_us, 0.99) as f64);
    outcome.set("latency.samples", open.latency_us.len() as f64);
    outcome.set("bench.wait_p99_us", percentile(&open.wait_us, 0.99));
    outcome.set("bench.late_p99_us", percentile(&open.late_us, 0.99));

    // 3. Drain passes; traced runs alternate untraced and traced passes.
    let drain_until = start.elapsed().as_secs_f64()
        + DRAIN_SHARE * args.seconds
        + if args.trace { 1.0 - OPEN_SHARE - DRAIN_SHARE } else { 0.0 } * args.seconds;
    let mut plain = Vec::new();
    let mut traced: Vec<(f64, u64, u64)> = Vec::new();
    let mut request = 1u64;
    loop {
        let items: Vec<usize> = (0..DRAIN_READS).map(|_| zipf.draw(&mut rng)).collect();
        if args.trace && plain.len() > traced.len() && traced.len() < TRACED_PASSES {
            let lo = tracer.now_ns();
            let busy = drain(&mut reader.borrow_mut(), &items, tracer, request, &mut outcome);
            traced.push((busy, lo, tracer.now_ns()));
            request += items.len() as u64;
        } else {
            plain.push(drain(&mut reader.borrow_mut(), &items, &off, 0, &mut outcome));
        }
        let enough = plain.len() >= 3 && (!args.trace || traced.len() == TRACED_PASSES);
        if enough && start.elapsed().as_secs_f64() > drain_until {
            break;
        }
    }
    outcome.set_samples("wall_s", &plain);

    // 4. Rate ladder.
    if !args.trace {
        let mut max_rps = 0.0;
        for rate in LADDER {
            if start.elapsed().as_secs_f64() + RUNG_SECONDS > args.seconds {
                break;
            }
            let schedule =
                poisson_schedule(&mut rng, &zipf, rate, (rate * RUNG_SECONDS).ceil() as usize);
            let rung = open_loop(&reader, &schedule, &off);
            outcome.attempted += schedule.len() as u64;
            outcome.failed += rung.failed;
            let p99 = percentile(&rung.latency_us, 0.99);
            outcome.set(format!("ladder.{rate}.p99_us"), p99);
            if p99 > P99_LIMIT_US || rung.final_backlog_us > P99_LIMIT_US || rung.failed > 0 {
                break;
            }
            max_rps = rate;
        }
        outcome.set("max_rps", max_rps);
    }

    if args.trace {
        let spans = tracer.spans();
        let passes = traced.len() as f64;
        for ((name, _), secs) in self_seconds_by_name(&spans) {
            let metric = match name {
                "archive.read_region_hit" => "archive.read_region_hit_busy_s",
                "archive.read_region_miss" => "archive.read_region_miss_busy_s",
                "bench.verify" => "bench.verify_busy_s",
                "synth.generate" => {
                    outcome.add("synth.busy_s", secs / SETUP_REPEATS as f64);
                    continue;
                }
                _ => continue,
            };
            outcome.add(metric, secs / passes);
        }
        let busy: Vec<f64> = traced.iter().map(|t| t.0).collect();
        outcome.set("bench.trace_overhead_s", median(&busy) - median(&plain));
        let shares: Vec<f64> =
            traced.iter().map(|&(_, lo, hi)| unattributed_share(&spans, lo, hi)).collect();
        outcome.set("bench.unattributed_share", median(&shares));
        let pool = ThreadPoolConfig::with_threads(POOL_WIDTH);
        let spawn: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(parallel_map_with(pool, &[0u8, 1], |x| *x));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        outcome.set("par.spawn_us", median(&spawn));
        outcome.set("synth.fields", RANGES.len() as f64);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_table_steps_by_half_tiles() {
        let w = windows();
        assert_eq!(w.len(), 31 * 31);
        assert_eq!(w[1], Window { i0: 0, j0: 32, height: 64, width: 64 });
        assert!(w.iter().all(|w| w.i0 + w.height <= SIZE && w.j0 + w.width <= SIZE));
    }

    #[test]
    fn hash_distinguishes_values_order_and_length() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(hash_values(&a), hash_values(&a.clone()));
        assert_ne!(hash_values(&a), hash_values(&[2.0, 1.0, 3.0, 4.0, 5.0]));
        assert_ne!(hash_values(&a), hash_values(&a[..4]));
        let mut b = a;
        b[4] = f64::from_bits(b[4].to_bits() ^ 1);
        assert_ne!(hash_values(&a), hash_values(&b));
    }
}
