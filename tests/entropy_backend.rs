//! Entropy-backend ablation invariants across the whole stack:
//!
//! * the Huffman and rANS backends of every codec decode to **bit-identical**
//!   fields (the entropy stage is lossless, so only size/speed may differ),
//! * every stream self-describes its backend — either compressor variant
//!   decodes the other's output, standalone and through the framed container,
//! * the rANS stream tags harden against corruption the same way the PR 4
//!   corrupt-frame suite pinned the `LCCF` header: truncated frequency
//!   tables, frequencies that do not sum to `1 << 12`, unknown backend/mode
//!   bytes and forged giant headers all surface `CompressError` with
//!   allocation bounded by the actual stream.

use lcc::core::experiment::{run_sweep, SweepConfig};
use lcc::core::registry::entropy_ablation_registry;
use lcc::grid::Field2D;
use lcc::mgard::MgardCompressor;
use lcc::pressio::{
    frame, CompressError, Compressor, ErrorBound, FrameLayout, FrameScratch, FrameSpec,
    ScratchArena,
};
use lcc::sz::SzCompressor;
use lcc::zfp::ZfpCompressor;
use lcc_par::ThreadPoolConfig;

fn wavy(ny: usize, nx: usize, seed: u64) -> Field2D {
    let mut state = seed | 1;
    Field2D::from_fn(ny, nx, |i, j| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state as f64 / u64::MAX as f64) - 0.5;
        (i as f64 * 0.05).sin() * 2.0 + (j as f64 * 0.04).cos() + 0.05 * noise
    })
}

/// Huffman-baseline vs rANS-variant pairs: both the 2-way and the 8-way
/// interleaved backend of every codec, so each pair-driven invariant below
/// (bit-identical decode, cross-decode, scratch stability, framing,
/// truncation) covers the whole backend axis.
fn backend_pairs() -> Vec<(Box<dyn Compressor>, Box<dyn Compressor>)> {
    vec![
        (Box::new(SzCompressor::default()), Box::new(SzCompressor::rans())),
        (Box::new(SzCompressor::default()), Box::new(SzCompressor::rans8())),
        (Box::new(ZfpCompressor::default()), Box::new(ZfpCompressor::rans())),
        (Box::new(ZfpCompressor::default()), Box::new(ZfpCompressor::rans8())),
        (Box::new(MgardCompressor::default()), Box::new(MgardCompressor::rans())),
        (Box::new(MgardCompressor::default()), Box::new(MgardCompressor::rans8())),
    ]
}

#[test]
fn backends_decode_bit_identically_and_cross_decode() {
    let field = wavy(96, 83, 7);
    for (huff, rans) in backend_pairs() {
        for eb in [1e-5, 1e-3] {
            let a = huff.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            let b = rans.compress(&field, ErrorBound::Absolute(eb)).unwrap();
            assert!(
                b.metrics.max_abs_error <= eb,
                "{} violated eb={eb}: {}",
                rans.name(),
                b.metrics.max_abs_error
            );
            assert_eq!(
                a.reconstruction,
                b.reconstruction,
                "{}/{} decode differently at eb={eb}",
                huff.name(),
                rans.name()
            );
            // Self-describing streams: either instance decodes either stream.
            assert_eq!(huff.decompress_field(&b.stream).unwrap(), b.reconstruction);
            assert_eq!(rans.decompress_field(&a.stream).unwrap(), a.reconstruction);
        }
    }
}

#[test]
fn scratch_reuse_is_bit_stable_across_backends() {
    // One arena serving both backends of every codec, repeatedly: streams
    // and decodes must not drift as buffers are recycled across variants.
    let field = wavy(64, 64, 11);
    let bound = ErrorBound::Absolute(1e-3);
    let mut arena = ScratchArena::new();
    let mut out = Field2D::zeros(1, 1);
    for (huff, rans) in backend_pairs() {
        let reference_h = huff.compress_view(&field.view(), bound).unwrap();
        let reference_r = rans.compress_view(&field.view(), bound).unwrap();
        for round in 0..3 {
            let h = huff.compress_view_with(&field.view(), bound, &mut arena).unwrap();
            let r = rans.compress_view_with(&field.view(), bound, &mut arena).unwrap();
            assert_eq!(h, reference_h, "{} round {round}", huff.name());
            assert_eq!(r, reference_r, "{} round {round}", rans.name());
            rans.decompress_view_with(&h, &mut arena, &mut out).unwrap();
            let from_huff = out.clone();
            huff.decompress_view_with(&r, &mut arena, &mut out).unwrap();
            assert_eq!(from_huff, out, "{} round {round}", rans.name());
        }
    }
}

#[test]
fn framed_container_carries_rans_variants() {
    let field = wavy(131, 67, 3);
    let bound = ErrorBound::Absolute(1e-3);
    let pool = ThreadPoolConfig::with_threads(3);
    let bands = |n| FrameSpec { layout: FrameLayout::Bands(n), checksums: false };
    let decode = |comp: &dyn Compressor, stream: &[u8]| {
        let mut out = Field2D::zeros(1, 1);
        frame::decompress_framed(comp, stream, pool, &mut FrameScratch::new(), &mut out, None)
            .unwrap();
        out
    };
    for (huff, rans) in backend_pairs() {
        let mut scratch = FrameScratch::new();
        let view = field.view();
        // Multi-block frame over the rANS variant round-trips and matches
        // the Huffman variant's decode bit for bit.
        let framed_r =
            frame::compress_framed(rans.as_ref(), &view, bound, bands(4), pool, &mut scratch, None)
                .unwrap();
        let framed_h =
            frame::compress_framed(huff.as_ref(), &view, bound, bands(4), pool, &mut scratch, None)
                .unwrap();
        assert!(frame::is_framed(&framed_r));
        let dec_r = decode(rans.as_ref(), &framed_r);
        let dec_h = decode(huff.as_ref(), &framed_h);
        assert_eq!(dec_r, dec_h, "{} framed decode differs", rans.name());

        // Single-block passthrough: the raw rANS container must survive the
        // frame dispatch (its magic cannot read as an LCCF header).
        let single =
            frame::compress_framed(rans.as_ref(), &view, bound, bands(1), pool, &mut scratch, None)
                .unwrap();
        assert_eq!(single, rans.compress_view(&view, bound).unwrap());
        assert!(!frame::is_framed(&single));
        // Passthrough decode equals the direct single-stream decode (framed
        // multi-block decodes differ legitimately: predictors do not see
        // across block seams).
        assert_eq!(decode(rans.as_ref(), &single), rans.decompress_field(&single).unwrap());
    }
}

#[test]
fn sweep_exercises_both_backends() {
    let fields = vec![lcc::core::dataset::LabeledField {
        name: "wavy".into(),
        true_range: None,
        field: wavy(48, 48, 19),
    }];
    let registry = entropy_ablation_registry();
    let config = SweepConfig { bounds: vec![ErrorBound::Absolute(1e-3)], ..SweepConfig::default() };
    let records = run_sweep(&fields, &registry, &config).unwrap();
    assert_eq!(records.len(), 9, "one record per registry variant");
    let names: Vec<&str> = records.iter().map(|r| r.compressor.as_ref()).collect();
    for name in [
        "sz",
        "sz-rans",
        "sz-rans8",
        "zfp",
        "zfp-rans",
        "zfp-rans8",
        "mgard",
        "mgard-rans",
        "mgard-rans8",
    ] {
        assert!(names.contains(&name), "sweep is missing {name}");
    }
    // Backend variants must report identical error metrics (identical decode).
    for base in ["sz", "zfp", "mgard"] {
        let h = records.iter().find(|r| r.compressor.as_ref() == base).unwrap();
        for suffix in ["-rans", "-rans8"] {
            let r = records
                .iter()
                .find(|r| r.compressor.as_ref() == format!("{base}{suffix}"))
                .unwrap();
            assert_eq!(h.max_abs_error, r.max_abs_error, "{base}{suffix} disagrees on error");
            assert!(r.compression_ratio > 1.0);
        }
    }
}

// ---- corrupt-stream hardening for the new tags ------------------------------

/// Hand-assemble an `LSR1` SZ container around the given rANS codes section.
fn forge_sz_rans_container(ny: u64, nx: u64, rans_section: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"LSR1");
    out.extend_from_slice(&ny.to_le_bytes());
    out.extend_from_slice(&nx.to_le_bytes());
    out.extend_from_slice(&1e-3f64.to_le_bytes());
    out.extend_from_slice(&16u32.to_le_bytes()); // block size
    out.extend_from_slice(&32768u32.to_le_bytes()); // radius
                                                    // One Lorenzo mode byte: correct for the ≤16×16 shapes the valid-shape
                                                    // tests forge; the giant-dimension forgeries are rejected before the
                                                    // mode list is ever cross-checked.
    out.extend_from_slice(&1u64.to_le_bytes()); // n_modes
    out.push(0); // Lorenzo
    out.extend_from_slice(&0u64.to_le_bytes()); // n_planes
    out.extend_from_slice(&(rans_section.len() as u64).to_le_bytes());
    out.extend_from_slice(rans_section);
    out.extend_from_slice(&0u64.to_le_bytes()); // n_exact
    out
}

/// A syntactically valid rANS section for `n` copies of one symbol.
fn valid_rans_section(n: u64, symbol: u64) -> Vec<u8> {
    let mut s = vec![0u8]; // mode 0 = rANS
    push_varint(&mut s, n);
    push_varint(&mut s, 1); // alphabet size
    push_varint(&mut s, symbol);
    push_varint(&mut s, 4096); // freq = full scale
    push_varint(&mut s, 8); // payload: just the two seed states
    s.extend_from_slice(&(1u32 << 23).to_le_bytes());
    s.extend_from_slice(&(1u32 << 23).to_le_bytes());
    s
}

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn assert_corrupt(compressor: &dyn Compressor, stream: &[u8], what: &str) {
    match compressor.decompress_field(stream) {
        Err(CompressError::CorruptStream(_)) => {}
        other => panic!("{what}: expected CorruptStream, got {other:?}"),
    }
}

#[test]
fn truncated_rans_frequency_table_is_rejected() {
    let sz = SzCompressor::rans();
    // A section claiming 4096 table entries with almost none present.
    let mut section = vec![0u8];
    push_varint(&mut section, 100); // n_symbols
    push_varint(&mut section, 4096); // alphabet_size
    push_varint(&mut section, 1); // one lonely entry…
    push_varint(&mut section, 2);
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "truncated freq table");
}

#[test]
fn rans_frequencies_must_sum_to_the_12_bit_scale() {
    let sz = SzCompressor::rans();
    let mgard = MgardCompressor::rans();
    let mut section = vec![0u8];
    push_varint(&mut section, 256); // n_symbols (= 16×16 cells)
    push_varint(&mut section, 2);
    push_varint(&mut section, 0);
    push_varint(&mut section, 2048);
    push_varint(&mut section, 1);
    push_varint(&mut section, 2047); // sums to 4095, not 4096
    push_varint(&mut section, 8);
    section.extend_from_slice(&(1u32 << 23).to_le_bytes());
    section.extend_from_slice(&(1u32 << 23).to_le_bytes());
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "bad freq sum (sz)");

    // Same section inside an MGARD `LMR1` container.
    let mut out = Vec::new();
    out.extend_from_slice(b"LMR1");
    out.extend_from_slice(&16u64.to_le_bytes());
    out.extend_from_slice(&16u64.to_le_bytes());
    out.extend_from_slice(&1e-3f64.to_le_bytes());
    out.extend_from_slice(&2u32.to_le_bytes()); // levels
    out.extend_from_slice(&(1u32 << 30).to_le_bytes()); // radius
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(&section);
    out.extend_from_slice(&0u64.to_le_bytes()); // n_exact
    assert_corrupt(&mgard, &out, "bad freq sum (mgard)");
}

#[test]
fn unknown_backend_bytes_are_rejected() {
    // Unknown mode byte inside an otherwise valid rANS section.
    let sz = SzCompressor::rans();
    let mut section = valid_rans_section(256, 40000);
    section[0] = 9;
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "unknown rans mode");

    // Unknown ZFP container tag (3 is now the valid rans8 tag, so the first
    // unknown value is 4).
    let zfp = ZfpCompressor::rans();
    let field = wavy(16, 16, 5);
    let mut stream = zfp.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap();
    assert_eq!(stream[0], 2, "rans container tag");
    stream[0] = 4;
    assert_corrupt(&zfp, &stream, "unknown zfp tag");

    // Forging the 2-way tag into the 8-way tag must be rejected by the
    // rans8 decoder's mode byte (and vice versa) — the formats do not alias.
    stream[0] = 3;
    assert_corrupt(&zfp, &stream, "rans stream behind rans8 tag");
    let zfp8 = ZfpCompressor::rans8();
    let mut stream8 = zfp8.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap();
    assert_eq!(stream8[0], 3, "rans8 container tag");
    stream8[0] = 2;
    assert_corrupt(&zfp8, &stream8, "rans8 stream behind rans tag");
}

#[test]
fn forged_giant_rans_headers_fail_before_allocating() {
    let sz = SzCompressor::rans();
    // ny·nx wrapping to 0 must die at the checked cell count.
    let section = valid_rans_section(0, 0);
    assert_corrupt(&sz, &forge_sz_rans_container(1 << 32, 1 << 32, &section), "wrapping cells");
    // A huge claimed cell count over a tiny near-zero-entropy section must
    // fail the rANS plausibility cap or the code-count check — allocation
    // stays bounded by the actual stream either way.
    let section = valid_rans_section(1 << 40, 7);
    assert_corrupt(&sz, &forge_sz_rans_container(1 << 20, 1 << 20, &section), "implausible count");
}

#[test]
fn truncated_rans_containers_are_rejected_at_every_cut() {
    let field = wavy(32, 32, 23);
    for (_, rans) in backend_pairs() {
        let stream = rans.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap();
        for cut in [1, 4, stream.len() / 3, stream.len() / 2, stream.len() - 1] {
            assert!(
                rans.decompress_field(&stream[..cut]).is_err(),
                "{} accepted a {cut}-byte prefix of {} bytes",
                rans.name(),
                stream.len()
            );
        }
    }
}
