//! Bit-identity gate for the table-driven codec rewrite.
//!
//! `tests/fixtures/*.bin` were captured from the pre-refactor (PR 2)
//! `HashMap`-based Huffman encoder and byte-at-a-time LZ77 encoder. The
//! refactored, scratch-driven encoders must reproduce those streams **byte
//! for byte** — every compressor embeds these streams, so a silent encoding
//! change would invalidate all previously written archives and the
//! cross-compressor regression hashes in `tests/stream_identity.rs` (crate
//! `lcc_core`).
//!
//! If a future PR intentionally changes the stream format, it must
//! regenerate the fixtures and say so loudly in its change log.

use lcc_lossless::{
    huffman_decode, huffman_encode, huffman_encode_with, lz77_compress, lz77_compress_with,
    lz77_decompress, rans8_decode, rans8_encode, CodecScratch, RansScratch,
};

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// The inputs behind the Huffman fixtures, regenerated deterministically.
fn huffman_inputs() -> Vec<(&'static str, Vec<u32>)> {
    let mut out: Vec<(&'static str, Vec<u32>)> = vec![
        ("huffman_empty.bin", Vec::new()),
        ("huffman_single_symbol.bin", vec![7u32; 100]),
        ("huffman_two_symbols.bin", vec![0, 1, 0, 0, 1, 0, 0, 0, 1]),
        (
            "huffman_sparse_large.bin",
            vec![0u32, u32::MAX, 123_456_789, 42, u32::MAX, 42, 0, 0, 7, 7, 7],
        ),
    ];
    let mut state = 0x1234_5678u64;
    let skew: Vec<u32> = (0..20_000).map(|_| lcg(&mut state).trailing_zeros() % 24).collect();
    out.push(("huffman_geometric_skew.bin", skew));
    let mut state = 0x9E37_79B9u64;
    let wide: Vec<u32> = (0..3000).map(|_| (lcg(&mut state) & 0xFFFF) as u32).collect();
    out.push(("huffman_uniform_u16.bin", wide));
    out
}

/// The inputs behind the LZ77 fixtures.
fn lz77_inputs() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&'static str, Vec<u8>)> = vec![
        ("lz77_empty.bin", Vec::new()),
        (
            "lz77_repetitive_text.bin",
            b"hello world, ".iter().copied().cycle().take(10_000).collect(),
        ),
        ("lz77_zero_run.bin", vec![0u8; 65_000]),
    ];
    let mut doubles = Vec::new();
    for i in 0..4096 {
        let v = (i / 16) as f64 * 0.125 + 1.0;
        doubles.extend_from_slice(&v.to_le_bytes());
    }
    out.push(("lz77_structured_doubles.bin", doubles));
    let mut s = 0x9E3779B97F4A7C15u64;
    let noise: Vec<u8> = (0..30_000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s & 0xFF) as u8
        })
        .collect();
    out.push(("lz77_incompressible.bin", noise));
    out
}

#[test]
fn huffman_streams_match_pre_refactor_fixtures() {
    let mut scratch = CodecScratch::new();
    for (name, input) in huffman_inputs() {
        let expected = fixture(name);
        assert_eq!(huffman_encode(&input), expected, "{name}: fresh-scratch wrapper diverged");
        let mut with_out = Vec::new();
        huffman_encode_with(&mut scratch, &input, &mut with_out);
        assert_eq!(with_out, expected, "{name}: reused-scratch stream diverged");
        let (decoded, used) = huffman_decode(&expected).expect(name);
        assert_eq!(decoded, input, "{name}: fixture no longer decodes to its input");
        assert_eq!(used, expected.len(), "{name}: consumed length changed");
    }
}

#[test]
fn lz77_streams_match_pre_refactor_fixtures() {
    let mut scratch = CodecScratch::new();
    for (name, input) in lz77_inputs() {
        let expected = fixture(name);
        assert_eq!(lz77_compress(&input), expected, "{name}: fresh-scratch wrapper diverged");
        let mut with_out = Vec::new();
        lz77_compress_with(&mut scratch, &input, &mut with_out);
        assert_eq!(with_out, expected, "{name}: reused-scratch stream diverged");
        assert_eq!(
            lz77_decompress(&expected).expect(name),
            input,
            "{name}: fixture no longer decodes to its input"
        );
    }
}

/// FNV-1a over a stream: the 8-way rANS pins below are hashes rather than
/// fixture files.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Encode `symbols` as an 8-way rANS stream on a reused scratch, checking
/// that the stream decodes back to its input.
fn rans8_u32(scratch: &mut RansScratch, symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    rans8_encode(scratch, symbols, &mut out);
    let mut back: Vec<u32> = Vec::new();
    let used = rans8_decode(scratch, &out, &mut back).expect("rans8 decode");
    assert_eq!(back, symbols, "rans8 stream no longer decodes to its input");
    assert_eq!(used, out.len(), "rans8 consumed length changed");
    out
}

/// [`rans8_u32`] over a byte input.
fn rans8_u8(scratch: &mut RansScratch, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rans8_encode(scratch, bytes, &mut out);
    let mut back: Vec<u8> = Vec::new();
    let used = rans8_decode(scratch, &out, &mut back).expect("rans8 decode");
    assert_eq!(back, bytes, "rans8 stream no longer decodes to its input");
    assert_eq!(used, out.len(), "rans8 consumed length changed");
    out
}

/// (input, stream length, FNV-1a hash) of the 8-way rANS streams over the
/// Huffman inputs (`u32` symbols), the LZ77 inputs (`u8` symbols) and a
/// 6000-symbol alphabet that takes the embedded Huffman fallback (mode 1).
const RANS8_PINNED: &[(&str, usize, u64)] = &[
    ("huffman_empty.bin", 2, 0x08395407b4f1363f),
    ("huffman_single_symbol.bin", 47, 0xf11e6fb0f75319a1),
    ("huffman_two_symbols.bin", 50, 0x2d2c1f02ffb1084b),
    ("huffman_sparse_large.bin", 66, 0xb56ac67dae00a0f3),
    ("huffman_geometric_skew.bin", 5117, 0xcef8fd34aa491b7a),
    ("huffman_uniform_u16.bin", 15530, 0x2b2101f4009405d3),
    ("lz77_empty.bin", 2, 0x08395407b4f1363f),
    ("lz77_repetitive_text.bin", 3860, 0x34c7add6b2e0af92),
    ("lz77_zero_run.bin", 49, 0xdc70bd222a10912c),
    ("lz77_structured_doubles.bin", 9782, 0xf5cd58b2e7ba35c0),
    ("lz77_incompressible.bin", 30789, 0xd845e95a6db7bd50),
    ("wide_alphabet_fallback", 48398, 0x11de49246749e21d),
];

#[test]
fn rans8_streams_are_pinned() {
    let mut scratch = RansScratch::new();
    let mut streams: Vec<(&'static str, Vec<u8>)> = Vec::new();
    for (name, input) in huffman_inputs() {
        streams.push((name, rans8_u32(&mut scratch, &input)));
    }
    for (name, input) in lz77_inputs() {
        streams.push((name, rans8_u8(&mut scratch, &input)));
    }
    let mut state = 0x5EED_0001u64;
    let wide: Vec<u32> =
        (0..20_000).map(|i| (i % 6000) as u32 ^ (lcg(&mut state) as u32 & 3)).collect();
    let fallback = rans8_u32(&mut scratch, &wide);
    assert_eq!(fallback[0], 1, "a 6000-symbol alphabet takes the Huffman fallback");
    streams.push(("wide_alphabet_fallback", fallback));

    assert_eq!(streams.len(), RANS8_PINNED.len(), "one pin per input");
    for ((name, stream), &(pinned_name, len, hash)) in streams.iter().zip(RANS8_PINNED) {
        assert_eq!(*name, pinned_name, "pin order changed");
        assert_eq!(stream.len(), len, "{name}: rans8 stream length changed");
        assert_eq!(fnv(stream), hash, "{name}: rans8 stream bytes changed");
    }
}
