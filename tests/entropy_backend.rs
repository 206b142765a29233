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
//!   allocation bounded by the actual stream,
//! * the retired 2-way rANS forms (mode-0 sections, `LSR1`/`LMR1`
//!   containers, ZFP tag 2) are rejected as corrupt streams.

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

/// Huffman-baseline vs rANS-variant pairs: the 8-way interleaved backend
/// of every codec, so each pair-driven invariant below (bit-identical
/// decode, cross-decode, scratch stability, framing, truncation) covers the
/// whole backend axis.
fn backend_pairs() -> Vec<(Box<dyn Compressor>, Box<dyn Compressor>)> {
    vec![
        (Box::new(SzCompressor::default()), Box::new(SzCompressor::rans8())),
        (Box::new(ZfpCompressor::default()), Box::new(ZfpCompressor::rans8())),
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
    assert_eq!(records.len(), 6, "one record per registry variant");
    let names: Vec<&str> = records.iter().map(|r| r.compressor.as_ref()).collect();
    for name in ["sz", "sz-rans8", "zfp", "zfp-rans8", "mgard", "mgard-rans8"] {
        assert!(names.contains(&name), "sweep is missing {name}");
    }
    // Backend variants must report identical error metrics (identical decode).
    for base in ["sz", "zfp", "mgard"] {
        let h = records.iter().find(|r| r.compressor.as_ref() == base).unwrap();
        let r = records.iter().find(|r| r.compressor.as_ref() == format!("{base}-rans8")).unwrap();
        assert_eq!(h.max_abs_error, r.max_abs_error, "{base}-rans8 disagrees on error");
        assert!(r.compression_ratio > 1.0);
    }
}

// ---- corrupt-stream hardening for the rANS tags ------------------------------

/// Hand-assemble an SZ container with the given magic around the given
/// rANS codes section.
fn forge_sz_container(magic: &[u8; 4], ny: u64, nx: u64, rans_section: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
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

/// Hand-assemble an `LS81` SZ container around the given rANS codes section.
fn forge_sz_rans_container(ny: u64, nx: u64, rans_section: &[u8]) -> Vec<u8> {
    forge_sz_container(b"LS81", ny, nx, rans_section)
}

/// Hand-assemble an MGARD container with the given magic around the given
/// rANS coefficient section.
fn forge_mgard_container(magic: &[u8; 4], rans_section: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.extend_from_slice(&16u64.to_le_bytes());
    out.extend_from_slice(&16u64.to_le_bytes());
    out.extend_from_slice(&1e-3f64.to_le_bytes());
    out.extend_from_slice(&2u32.to_le_bytes()); // levels
    out.extend_from_slice(&(1u32 << 30).to_le_bytes()); // radius
    out.extend_from_slice(&(rans_section.len() as u64).to_le_bytes());
    out.extend_from_slice(rans_section);
    out.extend_from_slice(&0u64.to_le_bytes()); // n_exact
    out
}

/// Append a seeds-only 8-way payload: the payload length, eight 4-byte lane
/// lengths and the eight seed states.
fn push_seed_payload(s: &mut Vec<u8>) {
    push_varint(s, 32);
    for _ in 0..8 {
        push_varint(s, 4);
    }
    for _ in 0..8 {
        s.extend_from_slice(&(1u32 << 23).to_le_bytes());
    }
}

/// A syntactically valid 8-way rANS section for `n` copies of one symbol.
fn valid_rans_section(n: u64, symbol: u64) -> Vec<u8> {
    let mut s = vec![2u8]; // mode 2 = 8-way rANS
    push_varint(&mut s, n);
    push_varint(&mut s, 1); // alphabet size
    push_varint(&mut s, symbol);
    push_varint(&mut s, 4096); // freq = full scale
    push_seed_payload(&mut s);
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
    let sz = SzCompressor::rans8();
    // A section claiming 4096 table entries with almost none present.
    let mut section = vec![2u8];
    push_varint(&mut section, 100); // n_symbols
    push_varint(&mut section, 4096); // alphabet_size
    push_varint(&mut section, 1); // one lonely entry…
    push_varint(&mut section, 2);
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "truncated freq table");
}

#[test]
fn rans_frequencies_must_sum_to_the_12_bit_scale() {
    let sz = SzCompressor::rans8();
    let mgard = MgardCompressor::rans8();
    let mut section = vec![2u8];
    push_varint(&mut section, 256); // n_symbols (= 16×16 cells)
    push_varint(&mut section, 2);
    push_varint(&mut section, 0);
    push_varint(&mut section, 2048);
    push_varint(&mut section, 1);
    push_varint(&mut section, 2047); // sums to 4095, not 4096
    push_seed_payload(&mut section);
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "bad freq sum (sz)");
    // Same section inside an MGARD `LM81` container.
    assert_corrupt(&mgard, &forge_mgard_container(b"LM81", &section), "bad freq sum (mgard)");
}

#[test]
fn unknown_backend_bytes_are_rejected() {
    // Unknown mode byte inside an otherwise valid rANS section.
    let sz = SzCompressor::rans8();
    let mut section = valid_rans_section(256, 40000);
    section[0] = 9;
    assert_corrupt(&sz, &forge_sz_rans_container(16, 16, &section), "unknown rans mode");

    // Unknown ZFP container tag.
    let zfp = ZfpCompressor::rans8();
    let field = wavy(16, 16, 5);
    let mut stream = zfp.compress_field(&field, ErrorBound::Absolute(1e-3)).unwrap();
    assert_eq!(stream[0], 3, "rans8 container tag");
    stream[0] = 4;
    assert_corrupt(&zfp, &stream, "unknown zfp tag");
}

#[test]
fn retired_two_way_rans_streams_are_rejected() {
    // The 2-way rANS format is gone from every layer: its mode-0 sections,
    // the `LSR1`/`LMR1` containers and ZFP container tag 2 are unknown
    // values now, and every decoder rejects them as corrupt (no panic).
    let field = wavy(16, 16, 29);
    let bound = ErrorBound::Absolute(1e-3);

    // A 2-way layout section (mode 0, two seed states) behind the 8-way
    // magics.
    let mut mode0 = vec![0u8];
    push_varint(&mut mode0, 256);
    push_varint(&mut mode0, 1);
    push_varint(&mut mode0, 7);
    push_varint(&mut mode0, 4096);
    push_varint(&mut mode0, 8);
    mode0.extend_from_slice(&(1u32 << 23).to_le_bytes());
    mode0.extend_from_slice(&(1u32 << 23).to_le_bytes());
    let mut mode0_in_valid = valid_rans_section(256, 7);
    mode0_in_valid[0] = 0;

    for (huff, rans) in backend_pairs() {
        let stream = rans.compress_field(&field, bound).unwrap();
        let mut retired = Vec::new();
        match rans.name() {
            "sz-rans8" => {
                assert!(stream.starts_with(b"LS81"));
                for section in [&mode0, &mode0_in_valid] {
                    retired.push(forge_sz_rans_container(16, 16, section));
                    retired.push(forge_sz_container(b"LSR1", 16, 16, section));
                }
                let mut renamed = stream.clone();
                renamed[..4].copy_from_slice(b"LSR1");
                retired.push(renamed);
            }
            "mgard-rans8" => {
                assert!(stream.starts_with(b"LM81"));
                for section in [&mode0, &mode0_in_valid] {
                    retired.push(forge_mgard_container(b"LM81", section));
                    retired.push(forge_mgard_container(b"LMR1", section));
                }
                let mut renamed = stream.clone();
                renamed[..4].copy_from_slice(b"LMR1");
                retired.push(renamed);
            }
            "zfp-rans8" => {
                assert_eq!(stream[0], 3);
                let mut tag2 = stream.clone();
                tag2[0] = 2;
                retired.push(tag2);
                let mut tag3_mode0 = stream.clone();
                tag3_mode0[1] = 0;
                retired.push(tag3_mode0);
            }
            other => panic!("unexpected backend variant {other}"),
        }
        for (k, bad) in retired.iter().enumerate() {
            assert_corrupt(rans.as_ref(), bad, &format!("{} retired form {k}", rans.name()));
            assert_corrupt(huff.as_ref(), bad, &format!("{} retired form {k}", huff.name()));
        }
    }
}

#[test]
fn forged_giant_rans_headers_fail_before_allocating() {
    let sz = SzCompressor::rans8();
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
