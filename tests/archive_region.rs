//! Region-read equivalence: for arbitrary fields, tilings and windows,
//! [`Archive::read_region`] must produce **bit-identical** values to
//! slicing the same window out of a full-frame decode — with no cache,
//! with a cold cache, with a warm cache, and at every pool width. The
//! cache and the parallel tile fan-out are allowed to change timing only,
//! never a single bit of output.

use lcc::archive::{Archive, ArchiveWriter, TileCache};
use lcc::grid::{Field2D, Window};
use lcc::par::ThreadPoolConfig;
use lcc::pressio::{CompressError, ErrorBound, FrameScratch};
use lcc::sz::SzCompressor;
use proptest::prelude::*;
use std::sync::Arc;

fn wavy(ny: usize, nx: usize, seed: u64) -> Field2D {
    let mut s = seed | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (i as f64 * 0.11).sin() * 2.0
            + (j as f64 * 0.07).cos()
            + 0.02 * ((s as f64 / u64::MAX as f64) - 0.5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn read_region_equals_windowed_full_decode(
        ny in 1usize..48,
        nx in 1usize..48,
        tile_ny in 1usize..17,
        tile_nx in 1usize..17,
        wi in any::<u32>(),
        wj in any::<u32>(),
        wh in any::<u32>(),
        ww in any::<u32>(),
        seed in any::<u64>(),
    ) {
        // Map the raw draws onto an in-bounds, non-empty window.
        let i0 = wi as usize % ny;
        let j0 = wj as usize % nx;
        let window = Window {
            i0,
            j0,
            height: 1 + wh as usize % (ny - i0),
            width: 1 + ww as usize % (nx - j0),
        };

        let sz = SzCompressor::default();
        let bound = ErrorBound::Absolute(1e-3);
        let field = wavy(ny, nx, seed);
        let mut scratch = FrameScratch::default();
        let mut writer = ArchiveWriter::new();
        writer.add_entry(
            "f", 0, &field, &sz, bound, tile_ny, tile_nx,
            ThreadPoolConfig::with_threads(2), &mut scratch,
        ).unwrap();
        let bytes = writer.finish();

        // Reference: the window of a full-frame decode.
        let uncached = Archive::open(bytes.clone()).unwrap();
        let mut full = Field2D::zeros(1, 1);
        uncached
            .read_entry(0, &sz, ThreadPoolConfig::with_threads(2), &mut scratch, &mut full)
            .unwrap();
        let want: Vec<f64> = full.view().window(&window).iter().collect();

        let cached = Archive::open(bytes).unwrap().with_cache(Arc::new(TileCache::new(1 << 22)));
        let mut out = Field2D::zeros(1, 1);
        for threads in [1usize, 4] {
            let pool = ThreadPoolConfig::with_threads(threads);
            // No cache attached.
            let stats = uncached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            prop_assert!(stats.tiles > 0 && stats.tiles_from_cache == 0);
            // Cache attached: first read fills, second read must be served
            // from it — both bit-identical to the reference.
            let cold = cached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            let hot = cached.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.as_slice(), want.as_slice());
            prop_assert_eq!(hot.tiles, cold.tiles);
            prop_assert_eq!(hot.tiles_from_cache, hot.tiles);
        }
    }

    /// With no faults present, the degraded entry point is a strict
    /// superset of [`Archive::read_region`]: identical window bytes,
    /// identical stats, a complete all-`Ok` tile mask, and zero recoveries.
    #[test]
    fn degraded_reads_match_strict_reads_when_nothing_is_wrong(
        ny in 1usize..40,
        nx in 1usize..40,
        tile_ny in 1usize..13,
        tile_nx in 1usize..13,
        wi in any::<u32>(),
        wj in any::<u32>(),
        wh in any::<u32>(),
        ww in any::<u32>(),
        seed in any::<u64>(),
    ) {
        use lcc::archive::TileStatus;

        let i0 = wi as usize % ny;
        let j0 = wj as usize % nx;
        let window = Window {
            i0,
            j0,
            height: 1 + wh as usize % (ny - i0),
            width: 1 + ww as usize % (nx - j0),
        };

        let sz = SzCompressor::default();
        let field = wavy(ny, nx, seed);
        let mut scratch = FrameScratch::default();
        let mut writer = ArchiveWriter::new();
        writer.add_entry(
            "f", 0, &field, &sz, ErrorBound::Absolute(1e-3), tile_ny, tile_nx,
            ThreadPoolConfig::with_threads(2), &mut scratch,
        ).unwrap();
        let archive = Archive::open(writer.finish()).unwrap();

        let pool = ThreadPoolConfig::with_threads(2);
        let mut strict_out = Field2D::zeros(1, 1);
        let strict =
            archive.read_region(0, &window, &sz, pool, &mut scratch, &mut strict_out).unwrap();

        let mut degraded_out = Field2D::zeros(1, 1);
        let degraded = archive
            .read_region_degraded(0, &window, &sz, pool, &mut scratch, &mut degraded_out)
            .unwrap();

        prop_assert_eq!(degraded_out.as_slice(), strict_out.as_slice());
        prop_assert_eq!(degraded.stats, strict);
        prop_assert!(degraded.is_complete());
        prop_assert_eq!(degraded.tiles.len(), strict.tiles);
        prop_assert_eq!(degraded.stats.tiles_recovered, 0);
        prop_assert!(degraded.tiles.iter().all(|&(_, s)| s == TileStatus::Ok));
    }
}

#[test]
fn degenerate_windows_are_rejected_as_invalid_input() {
    let sz = SzCompressor::default();
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    writer
        .add_entry(
            "f",
            0,
            &wavy(16, 16, 7),
            &sz,
            ErrorBound::Absolute(1e-3),
            8,
            8,
            ThreadPoolConfig::with_threads(1),
            &mut scratch,
        )
        .unwrap();
    let archive = Archive::open(writer.finish()).unwrap();
    let mut out = Field2D::zeros(1, 1);
    let pool = ThreadPoolConfig::with_threads(1);
    for window in [
        Window { i0: 0, j0: 0, height: 0, width: 1 },
        Window { i0: 0, j0: 0, height: 1, width: 0 },
        Window { i0: 8, j0: 0, height: 9, width: 1 },
        Window { i0: 0, j0: 8, height: 1, width: 9 },
        // Extents whose corner + size overflows usize must be InvalidInput,
        // not a wrap-around that sneaks past the bounds check.
        Window { i0: 1, j0: 0, height: usize::MAX, width: 1 },
        Window { i0: 0, j0: 1, height: 1, width: usize::MAX },
    ] {
        match archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out) {
            Err(CompressError::InvalidInput(_)) => {}
            other => panic!("window {window:?}: expected InvalidInput, got {other:?}"),
        }
    }
}

#[test]
fn parallel_misses_fill_the_cache_in_tile_order() {
    // Four 128x128 tiles; the single-shard cache has room for three of them
    // (128 KiB of values each, plus bookkeeping) but not four. Tile 0 holds
    // noise at a tight bound and decodes far slower than the three constant
    // tiles, so the pool's other worker finishes those first. Decoded tiles
    // are still inserted in ascending tile order, so the least recently
    // used tile — the one evicted — is always tile 0.
    let sz = SzCompressor::default();
    let pool = ThreadPoolConfig::with_threads(2);
    let noise = wavy(128, 128, 5);
    let field =
        Field2D::from_fn(256, 256, |i, j| if i < 128 && j < 128 { noise.get(i, j) } else { 0.0 });
    let mut scratch = FrameScratch::default();
    let mut writer = ArchiveWriter::new();
    writer
        .add_entry("f", 0, &field, &sz, ErrorBound::Absolute(1e-9), 128, 128, pool, &mut scratch)
        .unwrap();
    let cache = Arc::new(TileCache::with_shards(7 * 64 * 1024, 1));
    let archive = Archive::open(writer.finish()).unwrap().with_cache(Arc::clone(&cache));
    let window = Window { i0: 0, j0: 0, height: 256, width: 256 };
    let mut out = Field2D::zeros(1, 1);
    for rep in 0..50 {
        cache.clear();
        let stats = archive.read_region(0, &window, &sz, pool, &mut scratch, &mut out).unwrap();
        assert_eq!((stats.tiles, stats.tiles_from_cache), (4, 0), "rep {rep}");
        assert_eq!(cache.stats().evictions, 1, "rep {rep}");
        let resident: Vec<bool> =
            (0..4).map(|t| cache.get(&archive.tile_key(0, t)).is_some()).collect();
        assert_eq!(resident, [false, true, true, true], "rep {rep}: evicted the wrong tile");
    }
}
