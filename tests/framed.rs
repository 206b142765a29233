//! Framed multi-block container: property tests over the real compressors.
//!
//! The frame module's own unit tests pin the container logic against a
//! store-everything codec; this suite drives the actual SZ/ZFP/MGARD
//! pipelines through it:
//!
//! * framed round-trips across block counts 1..=8, including non-divisible
//!   row tails and 1×N / N×1 degenerate fields, always hold the error bound,
//! * a single-block frame is byte-identical to the unframed stream
//!   (version-0 passthrough),
//! * a multi-block frame decodes to exactly the values obtained by
//!   decoding each block's stand-alone stream and stitching the rows,
//! * the scratch-threaded `decompress_view_with` path is bit-identical to
//!   `decompress_field` under heavy arena reuse,
//! * corrupt frames (bad version, truncated table, overflowing/overlapping
//!   lengths) error out instead of panicking for every compressor,
//! * row-band and tiled frames, plain and checksummed, keep the exact bytes
//!   pinned by FNV-1a hash below.

use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::par::ThreadPoolConfig;
use lcc::pressio::frame::{compress_framed, decompress_framed, is_framed};
use lcc::pressio::{
    CompressError, Compressor, ErrorBound, FrameLayout, FrameScratch, FrameSpec, ScratchArena,
    FRAME_MAGIC, FRAME_VERSION,
};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use proptest::prelude::*;

fn compressors() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(SzCompressor::default()),
        Box::new(ZfpCompressor::default()),
        Box::new(MgardCompressor::default()),
    ]
}

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

fn pool(threads: usize) -> ThreadPoolConfig {
    ThreadPoolConfig::with_threads(threads)
}

fn bands(n: usize) -> FrameSpec {
    FrameSpec { layout: FrameLayout::Bands(n), checksums: false }
}

/// Decode a (framed or raw) stream into an owned field with fresh scratch.
fn decode_field(
    comp: &dyn Compressor,
    stream: &[u8],
    pool: ThreadPoolConfig,
) -> Result<Field2D, CompressError> {
    let mut out = Field2D::zeros(1, 1);
    decompress_framed(comp, stream, pool, &mut FrameScratch::new(), &mut out, None)?;
    Ok(out)
}

#[test]
fn single_block_frame_is_byte_identical_to_the_unframed_stream() {
    let field = wavy(48, 37, 5);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let raw = comp.compress_view(&field.view(), bound).unwrap();
        let framed = compress_framed(
            comp.as_ref(),
            &field.view(),
            bound,
            bands(1),
            pool(3),
            &mut FrameScratch::new(),
            None,
        )
        .unwrap();
        assert_eq!(framed, raw, "{}: single-block passthrough", comp.name());
        assert!(!is_framed(&framed), "{}", comp.name());
        // And the framed decoder transparently decodes legacy raw streams.
        let back = decode_field(comp.as_ref(), &raw, pool(3)).unwrap();
        assert_eq!(back, comp.decompress_field(&raw).unwrap(), "{}", comp.name());
    }
}

#[test]
fn framed_roundtrip_holds_the_bound_across_block_counts() {
    // 53 rows: blocks 2..=8 all produce non-divisible row tails.
    let field = wavy(53, 41, 9);
    let eb = 1e-3;
    for comp in compressors() {
        for blocks in 1..=8usize {
            let stream = compress_framed(
                comp.as_ref(),
                &field.view(),
                ErrorBound::Absolute(eb),
                bands(blocks),
                pool(4),
                &mut FrameScratch::new(),
                None,
            )
            .unwrap();
            assert_eq!(is_framed(&stream), blocks > 1, "{} blocks={blocks}", comp.name());
            let back = decode_field(comp.as_ref(), &stream, pool(4)).unwrap();
            assert_eq!(back.shape(), field.shape(), "{} blocks={blocks}", comp.name());
            assert!(
                field.max_abs_diff(&back) <= eb,
                "{} blocks={blocks}: bound violated",
                comp.name()
            );
        }
    }
}

#[test]
fn degenerate_row_and_column_fields_roundtrip() {
    let eb = 1e-4;
    for comp in compressors() {
        // 1×N: the block count clamps to one row → passthrough.
        // N×1: genuinely multi-block single-column frames.
        for (ny, nx) in [(1, 64), (64, 1), (1, 1), (2, 39)] {
            let field = wavy(ny, nx, 11);
            for blocks in [1, 3, 8] {
                let stream = compress_framed(
                    comp.as_ref(),
                    &field.view(),
                    ErrorBound::Absolute(eb),
                    bands(blocks),
                    pool(2),
                    &mut FrameScratch::new(),
                    None,
                )
                .unwrap();
                let back = decode_field(comp.as_ref(), &stream, pool(2)).unwrap();
                assert_eq!(back.shape(), (ny, nx), "{} {ny}x{nx}/{blocks}", comp.name());
                assert!(
                    field.max_abs_diff(&back) <= eb,
                    "{} {ny}x{nx}/{blocks}: bound violated",
                    comp.name()
                );
            }
        }
    }
}

#[test]
fn framed_decode_matches_stitched_per_block_single_streams() {
    // A multi-block frame's decoded values must be exactly what decoding
    // each row band as its own stand-alone stream yields — the frame
    // container adds structure, never distortion.
    let field = wavy(47, 29, 21);
    let bound = ErrorBound::Absolute(1e-3);
    let blocks = 4usize;
    for comp in compressors() {
        let stream = compress_framed(
            comp.as_ref(),
            &field.view(),
            bound,
            bands(blocks),
            pool(4),
            &mut FrameScratch::new(),
            None,
        )
        .unwrap();
        let framed_decode = decode_field(comp.as_ref(), &stream, pool(4)).unwrap();

        let mut stitched = Field2D::zeros(field.ny(), field.nx());
        for range in lcc::par::split_ranges(field.ny(), blocks) {
            let sub = field.view().subview(range.start, 0, range.len(), field.nx());
            let sub_stream = comp.compress_view(&sub, bound).unwrap();
            let sub_back = comp.decompress_field(&sub_stream).unwrap();
            assert_eq!(sub_back.shape(), (range.len(), field.nx()));
            for (k, i) in range.clone().enumerate() {
                stitched.row_mut(i).copy_from_slice(sub_back.row(k));
            }
        }
        assert_eq!(framed_decode, stitched, "{}: framed != stitched blocks", comp.name());
    }
}

#[test]
fn framed_stream_is_deterministic_across_pool_widths() {
    let field = wavy(40, 33, 3);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let mut streams = Vec::new();
        for threads in [1, 2, 7] {
            streams.push(
                compress_framed(
                    comp.as_ref(),
                    &field.view(),
                    bound,
                    bands(5),
                    pool(threads),
                    &mut FrameScratch::new(),
                    None,
                )
                .unwrap(),
            );
        }
        assert_eq!(streams[0], streams[1], "{}", comp.name());
        assert_eq!(streams[0], streams[2], "{}", comp.name());
    }
}

#[test]
fn scratch_decode_is_bit_identical_to_compat_wrapper_under_reuse() {
    // One arena shared across compressors, bounds and rounds — the decode
    // counterpart of the compress-side stream-identity gate.
    let field = wavy(50, 61, 13);
    let mut arena = ScratchArena::new();
    let mut out = Field2D::zeros(1, 1);
    for comp in compressors() {
        for eb in [1e-4, 1e-2] {
            let stream = comp.compress_view(&field.view(), ErrorBound::Absolute(eb)).unwrap();
            let reference = comp.decompress_field(&stream).unwrap();
            for round in 0..3 {
                comp.decompress_view_with(&stream, &mut arena, &mut out).unwrap();
                assert_eq!(out, reference, "{} eb={eb} round={round}", comp.name());
            }
        }
    }
    assert!(!arena.is_empty(), "real codecs materialize decode scratch");
}

#[test]
fn corrupt_frames_error_for_every_compressor() {
    let field = wavy(36, 24, 7);
    let bound = ErrorBound::Absolute(1e-3);
    for comp in compressors() {
        let good = compress_framed(
            comp.as_ref(),
            &field.view(),
            bound,
            bands(4),
            pool(2),
            &mut FrameScratch::new(),
            None,
        )
        .unwrap();
        assert!(is_framed(&good));

        let decode = |bytes: &[u8]| decode_field(comp.as_ref(), bytes, pool(2));

        // Bad version byte.
        let mut bad = good.clone();
        bad[4] = 0x7f;
        assert!(
            matches!(decode(&bad), Err(CompressError::CorruptStream(_))),
            "{}: version",
            comp.name()
        );

        // Truncated frame table (header claims blocks the table can't hold).
        let mut forged = Vec::new();
        forged.extend_from_slice(&FRAME_MAGIC);
        forged.push(FRAME_VERSION);
        forged.extend_from_slice(&512u64.to_le_bytes());
        forged.extend_from_slice(&512u64.to_le_bytes());
        forged.extend_from_slice(&500u32.to_le_bytes());
        forged.extend_from_slice(&[0u8; 16]);
        assert!(
            matches!(decode(&forged), Err(CompressError::CorruptStream(_))),
            "{}: truncated table",
            comp.name()
        );

        // Overflowing block length.
        let mut bad = good.clone();
        bad[25..33].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&bad).is_err(), "{}: overflowing length", comp.name());

        // Overlapping lengths: grow the first entry so the blocks overlap
        // and the sum no longer matches the payload.
        let mut bad = good.clone();
        let first = u64::from_le_bytes(bad[25..33].try_into().unwrap());
        bad[25..33].copy_from_slice(&(first + 7).to_le_bytes());
        assert!(decode(&bad).is_err(), "{}: overlapping lengths", comp.name());

        // Truncated payload.
        assert!(decode(&good[..good.len() - 5]).is_err(), "{}: truncated body", comp.name());

        // Forged giant dimensions over a tiny valid-looking table: all
        // checks up to the allocation guard pass (2 blocks <= 2^40 rows,
        // table fits, lengths sum to the empty body), but the claimed cell
        // count must be rejected before `out` is resized to exabytes.
        let mut forged = Vec::new();
        forged.extend_from_slice(&FRAME_MAGIC);
        forged.push(FRAME_VERSION);
        forged.extend_from_slice(&(1u64 << 40).to_le_bytes());
        forged.extend_from_slice(&(1u64 << 16).to_le_bytes());
        forged.extend_from_slice(&2u32.to_le_bytes());
        forged.extend_from_slice(&0u64.to_le_bytes());
        forged.extend_from_slice(&0u64.to_le_bytes());
        assert!(
            matches!(decode(&forged), Err(CompressError::CorruptStream(_))),
            "{}: forged giant shape",
            comp.name()
        );

        // A block whose substream decodes to the wrong shape: swap the
        // lengths so block boundaries land mid-stream (only meaningful when
        // the two blocks compressed to different sizes).
        let second = u64::from_le_bytes(good[33..41].try_into().unwrap());
        if first != second {
            let mut bad = good.clone();
            bad[25..33].copy_from_slice(&second.to_le_bytes());
            bad[33..41].copy_from_slice(&first.to_le_bytes());
            assert!(decode(&bad).is_err(), "{}: swapped lengths", comp.name());
        }
    }
}

/// How a pinned frame splits its field: row bands or 2D tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Bands(usize),
    Tiles(usize, usize),
}

/// Encode `field` as one frame of `layout`, plain or checksummed.
fn encode_frame(
    comp: &dyn Compressor,
    field: &Field2D,
    bound: ErrorBound,
    layout: Layout,
    checksums: bool,
) -> Vec<u8> {
    let layout = match layout {
        Layout::Bands(n) => FrameLayout::Bands(n),
        Layout::Tiles(ny, nx) => FrameLayout::Tiles { ny, nx },
    };
    let spec = FrameSpec { layout, checksums };
    compress_framed(comp, &field.view(), bound, spec, pool(3), &mut FrameScratch::new(), None)
        .unwrap()
}

/// Decode a (framed or raw) stream into an owned field.
fn decode_frame(comp: &dyn Compressor, stream: &[u8]) -> Field2D {
    decode_field(comp, stream, pool(3)).unwrap()
}

/// FNV-1a over a stream, as the raw-codec stream-identity gate hashes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// (variant, layout, checksummed, frame length, FNV-1a hash) of the frames
/// of `wavy(97, 113, 42)` at an absolute bound of 1e-3.
const PINNED_FRAMES: &[(&str, Layout, bool, usize, u64)] = &[
    ("sz", Layout::Bands(2), false, 7633, 0x580f6982d77035a7),
    ("sz", Layout::Bands(2), true, 7649, 0xa7b3ad8e20fbaa83),
    ("sz", Layout::Bands(4), false, 8467, 0x8697ef2c0048eddd),
    ("sz", Layout::Bands(4), true, 8499, 0xc198e037da895c9b),
    ("sz", Layout::Bands(7), false, 9704, 0x68fc1dd24933292b),
    ("sz", Layout::Bands(7), true, 9760, 0xb3ed0ec8b94fddf6),
    ("sz", Layout::Tiles(64, 64), false, 8489, 0xb28e27359c342691),
    ("sz", Layout::Tiles(64, 64), true, 8521, 0xe7dbe87fad510624),
    ("sz", Layout::Tiles(48, 17), false, 13297, 0xd5363868f13b51df),
    ("sz", Layout::Tiles(48, 17), true, 13465, 0x9fb54d3a4dcfe614),
    ("zfp-rans8", Layout::Bands(2), false, 25016, 0xc85d76f40a9a97db),
    ("zfp-rans8", Layout::Bands(2), true, 25032, 0x6cf2df3122f74124),
    ("zfp-rans8", Layout::Bands(4), false, 26373, 0x5cbb0b641b1fbc43),
    ("zfp-rans8", Layout::Bands(4), true, 26405, 0x9c43e138ec889917),
    ("zfp-rans8", Layout::Bands(7), false, 30329, 0xd11428f8de870aa1),
    ("zfp-rans8", Layout::Bands(7), true, 30385, 0x54604fb9bb574e24),
    ("zfp-rans8", Layout::Tiles(64, 64), false, 26422, 0xdf3972ed56c90980),
    ("zfp-rans8", Layout::Tiles(64, 64), true, 26454, 0xba9fd78f1ecba2f3),
    ("zfp-rans8", Layout::Tiles(48, 17), false, 35631, 0x5e49d5e129589375),
    ("zfp-rans8", Layout::Tiles(48, 17), true, 35799, 0x7dcca962bfd11544),
    ("mgard", Layout::Bands(2), false, 18823, 0x5a8a7ac6528ec772),
    ("mgard", Layout::Bands(2), true, 18839, 0xdc6c993ab3f7fc7a),
    ("mgard", Layout::Bands(4), false, 21863, 0x20460fdfed4fe497),
    ("mgard", Layout::Bands(4), true, 21895, 0x4e690dc04ad5298c),
    ("mgard", Layout::Bands(7), false, 26554, 0x210dda951494c2ea),
    ("mgard", Layout::Bands(7), true, 26610, 0x6803a17193dbfcc7),
    ("mgard", Layout::Tiles(64, 64), false, 22103, 0x62ad2f2ab91fbba0),
    ("mgard", Layout::Tiles(64, 64), true, 22135, 0x39a8ec8068b22977),
    ("mgard", Layout::Tiles(48, 17), false, 33554, 0xbbe8501d33ec99ce),
    ("mgard", Layout::Tiles(48, 17), true, 33722, 0x7650bc2d10c44af5),
];

#[test]
fn framed_and_tiled_bytes_are_pinned() {
    let field = wavy(97, 113, 42);
    let bound = ErrorBound::Absolute(1e-3);
    let variants: [(&str, Box<dyn Compressor>); 3] = [
        ("sz", Box::new(SzCompressor::default())),
        ("zfp-rans8", Box::new(ZfpCompressor::rans8())),
        ("mgard", Box::new(MgardCompressor::default())),
    ];
    let layouts = [
        Layout::Bands(2),
        Layout::Bands(4),
        Layout::Bands(7),
        Layout::Tiles(64, 64),
        Layout::Tiles(48, 17),
    ];
    let mut seen = 0;
    for (name, comp) in &variants {
        assert_eq!(comp.name(), *name);
        for layout in layouts {
            for checksums in [false, true] {
                let frame = encode_frame(comp.as_ref(), &field, bound, layout, checksums);
                let pinned = PINNED_FRAMES
                    .iter()
                    .find(|&&(n, l, c, _, _)| n == *name && l == layout && c == checksums);
                let Some(&(_, _, _, len, hash)) = pinned else {
                    panic!("{name} {layout:?} checksums={checksums}: no pinned frame");
                };
                assert_eq!(frame.len(), len, "{name} {layout:?} checksums={checksums}: length");
                assert_eq!(fnv(&frame), hash, "{name} {layout:?} checksums={checksums}: bytes");
                let back = decode_frame(comp.as_ref(), &frame);
                assert!(field.max_abs_diff(&back) <= 1e-3, "{name} {layout:?}: bound violated");
                seen += 1;
            }
        }
    }
    assert_eq!(seen, PINNED_FRAMES.len(), "every pinned frame is checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary shapes, layouts (row bands or tiles) and checksum flags:
    /// the frame must decode through the one entry point to the right shape
    /// inside the bound, regardless of the worker count.
    #[test]
    fn framed_roundtrip_property(
        ny in 1usize..64,
        nx in 1usize..64,
        tiled in any::<bool>(),
        blocks in 1usize..9,
        tile_ny in 1usize..40,
        tile_nx in 1usize..40,
        checksums in any::<bool>(),
        threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        let field = wavy(ny, nx, seed);
        let eb = 1e-3;
        let layout = if tiled {
            FrameLayout::Tiles { ny: tile_ny, nx: tile_nx }
        } else {
            FrameLayout::Bands(blocks)
        };
        let spec = FrameSpec { layout, checksums };
        for comp in compressors() {
            let stream = compress_framed(
                comp.as_ref(),
                &field.view(),
                ErrorBound::Absolute(eb),
                spec,
                pool(threads),
                &mut FrameScratch::new(),
                None,
            )
            .unwrap();
            let mut out = Field2D::zeros(1, 1);
            decompress_framed(
                comp.as_ref(),
                &stream,
                pool(threads),
                &mut FrameScratch::new(),
                &mut out,
                None,
            )
            .unwrap();
            prop_assert_eq!(out.shape(), (ny, nx));
            prop_assert!(field.max_abs_diff(&out) <= eb, "{} {:?}: bound violated", comp.name(), spec);
        }
    }
}
