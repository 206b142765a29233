//! Host fingerprint recorded with every result, so that figures from
//! different machines are never compared unawares.

/// Worker threads of every pool the benchmark drives.
pub const POOL_WIDTH: usize = 2;

/// `(key, value)` pairs describing the machine and the run's settings.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("llc", last_level_cache()),
        ("simd", lcc::lossless::simd_level().label().to_string()),
        ("pool_width", POOL_WIDTH.to_string()),
    ];
    for key in ["LCC_SIMD", "LCC_THREADS"] {
        if let Ok(value) = std::env::var(key) {
            out.push((key, value));
        }
    }
    out
}

/// Size of the highest-level cache of CPU 0, as the kernel reports it.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().map_or(true, |(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(level, size)| format!("L{level} {size}"))
}
