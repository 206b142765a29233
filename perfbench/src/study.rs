//! `study`: the paper's pipeline at paper scale.
//!
//! Four 1028² Gaussian fields with correlation ranges log-spaced from
//! short to long are synthesized, `run_sweep` measures them with every
//! codec of `default_registry()` at the four paper bounds on a 2-wide
//! pool, and `fit_series` fits the paper's log regressions. Synthesis, the
//! variogram and SVD statistics and the scheduler dominate; codec changes
//! barely move it.
//!
//! The traced run drives the job list `run_sweep` builds itself, through
//! `try_parallel_map_with_state` at the same width, so that each job can
//! carry a span; its records must equal the untraced run's bit for bit.

use crate::host::POOL_WIDTH;
use crate::stats::median;
use crate::trace::{self_seconds_by_name, unattributed_share, SpanId, Tracer};
use crate::{field_seed, variant_name, Args, Outcome};
use lcc::core::experiment::{fit_series, FittedSeries};
use lcc::core::{
    default_registry, run_sweep, CorrelationStatistics, ExperimentRecord, LabeledField,
    StatisticKind, SweepConfig,
};
use lcc::geostat::variogram::{estimate_range_view, VariogramFit};
use lcc::geostat::{window_range, window_truncation_level};
use lcc::grid::{stats, Field2D, FieldView};
use lcc::par::{try_parallel_map_with_state, ThreadPoolConfig};
use lcc::pressio::{Compressor, ErrorBound, Metrics, Registry, ScratchArena};
use lcc::synth::{generate_single_range, GaussianFieldConfig};
use std::sync::Arc;
use std::time::Instant;

const SIZE: usize = 1028;
/// Field side of the set-up's warm-up pass.
const WARMUP_SIZE: usize = 256;
const N_FIELDS: usize = 4;
const MIN_RANGE: f64 = 2.0;
const MAX_RANGE: f64 = 40.0;
const SETUP_REPEATS: usize = 3;

fn ranges() -> Vec<f64> {
    let (lo, hi) = (MIN_RANGE.ln(), MAX_RANGE.ln());
    (0..N_FIELDS).map(|k| (lo + (hi - lo) * k as f64 / (N_FIELDS - 1) as f64).exp()).collect()
}

struct Study {
    registry: Registry,
    config: SweepConfig,
    seed: u64,
}

impl Study {
    fn synthesize(&self, size: usize, tracer: &Tracer, request: u64) -> Vec<LabeledField> {
        ranges()
            .into_iter()
            .enumerate()
            .map(|(k, range)| {
                let cfg = GaussianFieldConfig::new(size, size, range, field_seed(self.seed, k));
                let field = tracer.span("synth.generate", "", SpanId::ROOT, request, |_| {
                    generate_single_range(&cfg)
                });
                LabeledField::new(format!("gauss-a{range:.2}"), field, Some(range))
            })
            .collect()
    }
}

/// One pass through the public entry points, as a user runs the study.
fn plain_pass(
    study: &Study,
    size: usize,
) -> Result<(Vec<ExperimentRecord>, Vec<FittedSeries>), String> {
    let off = Tracer::new(false);
    let fields = study.synthesize(size, &off, 0);
    let records = run_sweep(&fields, &study.registry, &study.config).map_err(|e| e.to_string())?;
    let series = fit_series(&records, StatisticKind::GlobalVariogramRange);
    Ok((records, series))
}

/// One unit of the flat sweep schedule, as `run_sweep` builds it.
enum Job<'a> {
    Global,
    RangeWindow { view: FieldView<'a> },
    SvdWindow { view: FieldView<'a> },
    Cell { compressor: usize, bound: usize },
}

enum JobOutput {
    Global(VariogramFit),
    Range(f64),
    Svd(f64),
    Cell(Result<Metrics, String>),
}

/// `run_sweep`'s job list as `(field, job)`: per field, one global fit,
/// one range job per window, one SVD job per full window, then every
/// (codec, bound) cell.
fn jobs<'a>(views: &[FieldView<'a>], study: &Study) -> Vec<(usize, Job<'a>)> {
    let local = study.config.statistics.local_config();
    let w = local.window;
    let n_codecs = study.registry.len();
    let mut jobs = Vec::new();
    for (field, view) in views.iter().enumerate() {
        jobs.push((field, Job::Global));
        for (win, sub) in view.windows(w, w) {
            let full = win.is_full(w, w);
            if full || !local.skip_partial_windows {
                jobs.push((field, Job::RangeWindow { view: sub }));
            }
            if full {
                jobs.push((field, Job::SvdWindow { view: sub }));
            }
        }
        for compressor in 0..n_codecs {
            for bound in 0..study.config.bounds.len() {
                jobs.push((field, Job::Cell { compressor, bound }));
            }
        }
    }
    jobs
}

/// Figures of one traced pass.
struct TracedPass {
    records: Vec<ExperimentRecord>,
    series: Vec<FittedSeries>,
    range_windows: usize,
    nan_windows: usize,
    svd_windows: usize,
    svd_failed: usize,
    utilization: f64,
    start_ns: u64,
    end_ns: u64,
}

/// The same computation as [`plain_pass`], with every job in its own span.
fn traced_pass(study: &Study, tracer: &Tracer, request: u64) -> Result<TracedPass, String> {
    let start_ns = tracer.now_ns();
    let fields = study.synthesize(SIZE, tracer, request);
    let views: Vec<FieldView<'_>> = fields.iter().map(|f| f.field.view()).collect();
    let compressors: Vec<Arc<dyn Compressor>> = study.registry.compressors();
    let names: Vec<&'static str> = compressors.iter().map(|c| variant_name(c.name())).collect();
    let stats_cfg = &study.config.statistics;
    let local = stats_cfg.local_config();
    let bounds = &study.config.bounds;
    let list = jobs(&views, study);

    let map_start = tracer.now_ns();
    let outputs = try_parallel_map_with_state(
        ThreadPoolConfig::with_threads(POOL_WIDTH),
        &list,
        ScratchArena::new,
        |scratch, _, (field, job)| match job {
            Job::Global => {
                JobOutput::Global(tracer.span("geostat.global", "", SpanId::ROOT, request, |_| {
                    estimate_range_view(&views[*field], &stats_cfg.variogram)
                }))
            }
            Job::RangeWindow { view } => {
                JobOutput::Range(tracer.span("geostat.local", "", SpanId::ROOT, request, |_| {
                    window_range(view, &local.variogram)
                }))
            }
            Job::SvdWindow { view } => {
                JobOutput::Svd(tracer.span("linalg.svd", "", SpanId::ROOT, request, |_| {
                    window_truncation_level(view, stats_cfg.svd_fraction)
                        .map_or(f64::NAN, |level| level as f64)
                }))
            }
            Job::Cell { compressor, bound } => {
                let codec = &compressors[*compressor];
                let tag = names[*compressor];
                let view = &views[*field];
                JobOutput::Cell(tracer.span("core.cell", tag, SpanId::ROOT, request, |cell| {
                    // `compress_measured_with` is exactly these three calls;
                    // making them separately splits encode from decode.
                    let stream = tracer
                        .span("compress", tag, cell, request, |_| {
                            codec.compress_view_with(view, bounds[*bound], scratch)
                        })
                        .map_err(|e| format!("{tag}: {e}"))?;
                    let mut recon = Field2D::zeros(1, 1);
                    tracer
                        .span("decompress", tag, cell, request, |_| {
                            codec.decompress_view_with(&stream, scratch, &mut recon)
                        })
                        .map_err(|e| format!("{tag}: {e}"))?;
                    Ok(Metrics::compare_view(view, &recon, stream.len()))
                }))
            }
        },
    )
    .map_err(|panic| format!("sweep job panicked: {panic}"))?;
    let map_end = tracer.now_ns();

    // Aggregate as `run_sweep` does: window results in job order, cells at
    // their (field, codec, bound) slot.
    let n_fields = fields.len();
    let mut global: Vec<Option<VariogramFit>> = vec![None; n_fields];
    let mut ranges: Vec<Vec<f64>> = vec![Vec::new(); n_fields];
    let mut levels: Vec<Vec<f64>> = vec![Vec::new(); n_fields];
    let mut cells: Vec<Vec<Result<Metrics, String>>> = (0..n_fields).map(|_| Vec::new()).collect();
    let (mut range_windows, mut nan_windows, mut svd_windows, mut svd_failed) = (0, 0, 0, 0);
    for ((field, _), output) in list.iter().zip(outputs) {
        match output {
            JobOutput::Global(fit) => global[*field] = Some(fit),
            JobOutput::Range(r) => {
                range_windows += 1;
                if r.is_finite() {
                    ranges[*field].push(r);
                } else {
                    nan_windows += 1;
                }
            }
            JobOutput::Svd(l) => {
                svd_windows += 1;
                if l.is_finite() {
                    levels[*field].push(l);
                } else {
                    svd_failed += 1;
                }
            }
            JobOutput::Cell(m) => cells[*field].push(m),
        }
    }
    let mut records = Vec::new();
    for (f, labeled) in fields.iter().enumerate() {
        let fit = global[f].ok_or("a field lost its global fit")?;
        let statistics = CorrelationStatistics {
            global_range: fit.range,
            global_sill: fit.sill,
            local_range_std: stats::std_dev(&ranges[f]),
            local_svd_std: stats::std_dev(&levels[f]),
        };
        let field_name: Arc<str> = Arc::from(labeled.name.as_str());
        let mut cell = std::mem::take(&mut cells[f]).into_iter();
        for codec in &compressors {
            for &bound in bounds {
                let metrics = cell.next().ok_or("a cell is missing")??;
                records.push(ExperimentRecord {
                    field_name: Arc::clone(&field_name),
                    true_range: labeled.true_range,
                    compressor: Arc::from(codec.name()),
                    bound,
                    compression_ratio: metrics.compression_ratio,
                    max_abs_error: metrics.max_abs_error,
                    psnr: metrics.psnr,
                    statistics,
                });
            }
        }
    }
    let series = tracer.span("core.fit", "", SpanId::ROOT, request, |_| {
        fit_series(&records, StatisticKind::GlobalVariogramRange)
    });
    let end_ns = tracer.now_ns();

    let job_busy: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.request == request && s.parent == 0 && s.start_ns >= map_start)
        .filter(|s| s.name != "core.fit")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let utilization = job_busy as f64 / (POOL_WIDTH as f64 * (map_end - map_start) as f64);
    Ok(TracedPass {
        records,
        series,
        range_windows,
        nan_windows,
        svd_windows,
        svd_failed,
        utilization,
        start_ns,
        end_ns,
    })
}

/// Check the pass's outputs: every cell within its bound, and the paper's
/// finding that compression ratio rises with the global variogram range
/// (β > 0) for `sz` and `zfp` at 1e-2.
fn verify(records: &[ExperimentRecord], series: &[FittedSeries], outcome: &mut Outcome) {
    for r in records {
        outcome.check(r.max_abs_error <= r.bound.raw_epsilon());
    }
    for codec in ["sz", "zfp"] {
        let beta = series
            .iter()
            .find(|s| s.compressor == codec && s.bound == ErrorBound::Absolute(1e-2))
            .map_or(f64::NAN, |s| s.fit.beta);
        outcome.set(format!("beta.{codec}.1e-2"), beta);
        outcome.check(beta > 0.0);
    }
}

/// Total uncompressed bytes over total stored bytes of every cell.
fn ratio(records: &[ExperimentRecord]) -> f64 {
    let n = (SIZE * SIZE * 8) as f64;
    let stored: f64 = records.iter().map(|r| n / r.compression_ratio).sum();
    n * records.len() as f64 / stored
}

fn same_records(a: &[ExperimentRecord], b: &[ExperimentRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.field_name == y.field_name
                && x.compressor == y.compressor
                && x.bound == y.bound
                && x.compression_ratio.to_bits() == y.compression_ratio.to_bits()
                && x.max_abs_error.to_bits() == y.max_abs_error.to_bits()
                && x.statistics.global_range.to_bits() == y.statistics.global_range.to_bits()
                && x.statistics.local_range_std.to_bits() == y.statistics.local_range_std.to_bits()
                && x.statistics.local_svd_std.to_bits() == y.statistics.local_svd_std.to_bits()
        })
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let study = Study {
        registry: default_registry(),
        config: SweepConfig { threads: Some(POOL_WIDTH), ..SweepConfig::default() },
        seed: args.seed,
    };

    // Set-up: the inputs are generated inside the timed pass, so set-up is
    // one small warm-up pass that pays lazy initialisation before timing.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        plain_pass(&study, WARMUP_SIZE)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    outcome.set("setup_s", median(&setup));

    // Exact counts, from the schedule `run_sweep` builds.
    let field = Field2D::zeros(SIZE, SIZE);
    let views = vec![field.view(); N_FIELDS];
    let list = jobs(&views, &study);
    let range_jobs = list.iter().filter(|(_, j)| matches!(j, Job::RangeWindow { .. })).count();
    let cell_jobs = list.iter().filter(|(_, j)| matches!(j, Job::Cell { .. })).count();
    outcome.counts.insert("geostat.windows", range_jobs as u64);
    outcome.counts.insert("core.cells", cell_jobs as u64);
    outcome.counts.insert("synth.fields", N_FIELDS as u64);

    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced: Vec<(f64, TracedPass)> = Vec::new();
    let mut first_records: Option<Vec<ExperimentRecord>> = None;
    let mut verify_s = 0.0;
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        let t = Instant::now();
        let (records, series) = if trace_this {
            let pass = traced_pass(&study, tracer, traced.len() as u64 + 1)?;
            let wall = t.elapsed().as_secs_f64();
            let out = (pass.records.clone(), pass.series.clone());
            traced.push((wall, pass));
            out
        } else {
            let out = plain_pass(&study, SIZE)?;
            plain.push(t.elapsed().as_secs_f64());
            out
        };
        let last = t.elapsed().as_secs_f64();
        let tv = Instant::now();
        tracer.span("bench.verify", "", SpanId::ROOT, 0, |_| {
            verify(&records, &series, &mut outcome);
            match &first_records {
                None => first_records = Some(records),
                Some(first) => outcome.check(same_records(first, &records)),
            }
        });
        verify_s += tv.elapsed().as_secs_f64();
        let done = !args.trace || !traced.is_empty();
        if done && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let records = first_records.expect("at least one pass ran");
    outcome.set_samples("wall_s", &plain);
    outcome.set("ratio", ratio(&records));
    outcome.set("bench.verify_busy_s", verify_s / (plain.len() + traced.len()) as f64);

    if args.trace {
        layer_metrics(&traced, &plain, tracer, &mut outcome);
    }
    Ok(outcome)
}

fn layer_metrics(
    traced: &[(f64, TracedPass)],
    plain: &[f64],
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let spans = tracer.spans();
    let passes = traced.len() as f64;
    let per_pass: Vec<_> = spans.iter().filter(|s| s.request > 0).cloned().collect();
    for ((name, tag), secs) in self_seconds_by_name(&per_pass) {
        let metric = match name {
            "synth.generate" => "synth.busy_s".to_string(),
            "geostat.global" => "geostat.global_busy_s".to_string(),
            "geostat.local" => "geostat.local_busy_s".to_string(),
            "linalg.svd" => "linalg.svd_busy_s".to_string(),
            "core.cell" | "core.fit" => "core.busy_s".to_string(),
            "compress" => format!("{tag}.compress_busy_s"),
            "decompress" => format!("{tag}.decompress_busy_s"),
            _ => continue,
        };
        outcome.add(metric, secs / passes);
    }
    let last = &traced[traced.len() - 1].1;
    outcome.set("synth.fields", N_FIELDS as f64);
    outcome.set("geostat.windows", last.range_windows as f64);
    outcome.set("geostat.nan_windows", last.nan_windows as f64);
    outcome.set("linalg.svd_windows", last.svd_windows as f64);
    outcome.set("linalg.svd_failed", last.svd_failed as f64);
    outcome.set("core.cells", last.records.len() as f64);
    let n = (SIZE * SIZE * 8) as f64;
    for r in &last.records {
        let v = variant_name(&r.compressor);
        outcome.add(format!("{v}.bytes_in"), n);
        outcome.add(format!("{v}.bytes_out"), (n / r.compression_ratio).round());
    }
    let utilization: Vec<f64> = traced.iter().map(|(_, p)| p.utilization).collect();
    outcome.set("par.utilization", median(&utilization));
    let walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
    outcome.set("bench.trace_overhead_s", median(&walls) - median(plain));
    let shares: Vec<f64> = traced
        .iter()
        .enumerate()
        .map(|(k, (_, p))| {
            let own: Vec<_> =
                per_pass.iter().filter(|s| s.request == k as u64 + 1).cloned().collect();
            unattributed_share(&own, p.start_ns, p.end_ns)
        })
        .collect();
    outcome.set("bench.unattributed_share", median(&shares));
}
