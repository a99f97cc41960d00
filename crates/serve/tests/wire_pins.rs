//! Pins the protocol bytes and the codec's behaviour at the edges.
//!
//! The hex goldens under `tests/golden/` were recorded from the encoders
//! as they stood before the bulk-copy rewrite of `serve::wire`; a frame
//! that differs from them by one byte is a protocol change and needs a
//! `PROTOCOL_VERSION` bump, not a golden refresh. The sweeps compare by
//! `to_bits`, so NaN payloads, `-0.0` and subnormals must survive the
//! wire exactly.

use std::io::Cursor;

use buckwild_serve::wire::{self, status, WireError};

const REQUEST_3X4: &str = include_str!("golden/request_3x4.hex");
const RESPONSE_4: &str = include_str!("golden/response_4.hex");

/// Value counts around the 64-element block size, the benchmark's 64 KiB
/// request and a 1 MiB frame.
const SIZES: [usize; 7] = [1, 7, 63, 64, 65, 16384, 1 << 18];

/// Bit patterns a per-element or vectorised copy could mangle: quiet and
/// signalling NaNs with payloads, both zeros, subnormals, infinities.
const EDGE_BITS: [u32; 12] = [
    0x7fc0_0001, // quiet NaN, payload 1
    0xffc1_2345, // negative quiet NaN with a payload
    0x7f80_0001, // signalling NaN
    0xffbf_ffff, // negative signalling NaN, all payload bits
    0x8000_0000, // -0.0
    0x0000_0000, // +0.0
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7f7f_ffff, // f32::MAX
    0x0080_0000, // f32::MIN_POSITIVE
];

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    assert_eq!(digits.len() % 2, 0, "golden holds whole bytes");
    digits
        .chunks_exact(2)
        .map(|pair| {
            let pair = std::str::from_utf8(pair).expect("ascii");
            u8::from_str_radix(pair, 16).expect("hex digits")
        })
        .collect()
}

/// `n` values: the edge patterns first, then bit patterns spread over the
/// whole `u32` range (so every byte lane carries every value).
fn edge_values(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match EDGE_BITS.get(i % 16) {
            Some(&bits) => f32::from_bits(bits),
            None => f32::from_bits((i as u32).wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995),
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A feature count dividing `n`, so the sweep covers multi-row shapes too.
fn features_for(n: usize) -> usize {
    [64, 7]
        .into_iter()
        .find(|&f| n.is_multiple_of(f))
        .unwrap_or(1)
}

#[test]
fn request_frame_matches_the_recorded_bytes() {
    let batch: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.37).collect();
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, &batch, 4);
    assert_eq!(frame, from_hex(REQUEST_3X4));
    // A buffer that held something longer produces the same bytes.
    let mut reused = vec![0xAAu8; 4096];
    wire::encode_request(&mut reused, &batch, 4);
    assert_eq!(reused, frame);
}

#[test]
fn response_frame_matches_the_recorded_bytes() {
    let scores = [0.5f32, -1.25, f32::MIN_POSITIVE, 3.0e7];
    let mut frame = Vec::new();
    wire::encode_response(&mut frame, status::OK, 41, &scores);
    assert_eq!(frame, from_hex(RESPONSE_4));
    let mut reused = vec![0xAAu8; 4096];
    wire::encode_response(&mut reused, status::OK, 41, &scores);
    assert_eq!(reused, frame);
    assert_eq!(wire::PROTOCOL_VERSION, 1);
}

#[test]
fn edge_values_survive_encode_read_frame_decode_at_every_size() {
    for n in SIZES {
        let values = edge_values(n);
        let features = features_for(n);

        let mut frame = Vec::new();
        wire::encode_request(&mut frame, &values, features);
        assert_eq!(frame.len(), 4 + 10 + 4 * n, "request frame of {n} values");
        let mut payload = Vec::new();
        let mut stream = Cursor::new(&frame);
        assert!(wire::read_frame(&mut stream, &mut payload).expect("request frame"));
        assert_eq!(payload, frame[4..]);
        let mut batch = Vec::new();
        let header = wire::decode_request(&payload, &mut batch).expect("request decodes");
        assert_eq!((header.rows, header.features), (n / features, features));
        assert_eq!(bits(&batch), bits(&values), "request of {n} values");
        assert!(!wire::read_frame(&mut stream, &mut payload).expect("clean EOF"));

        wire::encode_response(&mut frame, status::OK, u64::MAX - n as u64, &values);
        assert_eq!(frame.len(), 4 + 14 + 4 * n, "response frame of {n} values");
        let mut stream = Cursor::new(&frame);
        assert!(wire::read_frame(&mut stream, &mut payload).expect("response frame"));
        let response = wire::decode_response(&payload).expect("response decodes");
        assert_eq!(response.status, status::OK);
        assert_eq!(response.epoch, u64::MAX - n as u64);
        assert_eq!(
            bits(&response.scores),
            bits(&values),
            "response of {n} values"
        );
    }
}

/// The client path of a reused connection: one frame buffer, one payload
/// buffer and one batch buffer carry a 2^18-value frame and then a 7-value
/// one. Nothing of the first may leak into the second.
#[test]
fn a_small_frame_after_a_large_one_decodes_only_its_own_values() {
    let large = edge_values(1 << 18);
    let small: Vec<f32> = edge_values(7).into_iter().rev().collect();
    let (mut frame, mut payload, mut batch) = (Vec::new(), Vec::new(), Vec::new());

    for (values, features) in [(&large, 64), (&small, 7)] {
        wire::encode_request(&mut frame, values, features);
        assert_eq!(frame.len(), 4 + 10 + 4 * values.len());
        assert!(wire::read_frame(&mut Cursor::new(&frame), &mut payload).expect("frame"));
        assert_eq!(payload.len(), 10 + 4 * values.len());
        let header = wire::decode_request(&payload, &mut batch).expect("decodes");
        assert_eq!(header.features, features);
        assert_eq!(bits(&batch), bits(values));
    }
    // One byte short of the shape it declares is still refused, and the
    // refusal does not depend on what the buffers held before.
    assert_eq!(
        wire::decode_request(&payload[..payload.len() - 1], &mut batch),
        Err(WireError::BadLength {
            expected: 10 + 4 * 7,
            got: 10 + 4 * 7 - 1
        })
    );

    for values in [&large, &small] {
        wire::encode_response(&mut frame, status::OK, 3, values);
        assert_eq!(frame.len(), 4 + 14 + 4 * values.len());
        assert!(wire::read_frame(&mut Cursor::new(&frame), &mut payload).expect("frame"));
        assert_eq!(payload.len(), 14 + 4 * values.len());
        let response = wire::decode_response(&payload).expect("decodes");
        assert_eq!(bits(&response.scores), bits(values));
    }
    assert!(matches!(
        wire::decode_response(&payload[..payload.len() - 1]),
        Err(WireError::BadLength { .. })
    ));
}
