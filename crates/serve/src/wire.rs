//! The length-prefixed binary protocol between client and server.
//!
//! One frame = a little-endian `u32` payload length followed by the
//! payload. Encoders build the entire frame (prefix included) into a
//! caller-owned buffer so a request or response is a single `write_all`;
//! decoders parse straight out of the receive buffer.
//!
//! Every payload byte of a steady-state request is written once and read
//! once on each side: the encoder stores the `f32`s into the frame with
//! one bulk little-endian copy (the private `put_f32s`), the transport
//! moves the frame, the receiver `read`s it into its payload buffer, and
//! the decoder loads the `f32`s out with one bulk copy (`get_f32s`).
//! Nothing is pushed element by element and nothing is staged in between.
//!
//! Connections reuse their buffers across frames **without
//! re-initialising them**: a buffer is `resize`d to the frame it is about
//! to hold, never `clear`ed first, so a buffer that already fits is
//! neither re-zeroed nor re-grown and the steady-state hot path allocates
//! and memsets nothing. Only growth beyond a buffer's current length is
//! ever zero-filled. A receive buffer grows as payload bytes *arrive*, not
//! when a length prefix announces them: a peer that declares 64 MiB and
//! sends 10 bytes costs 64 KiB, not 64 MiB.
//!
//! Request payload (opcode [`opcode::PREDICT`]):
//!
//! ```text
//! u8 version | u8 opcode | u32 rows | u32 features | rows*features × f32
//! ```
//!
//! Response payload:
//!
//! ```text
//! u8 version | u8 status | u64 epoch | u32 count | count × f32
//! ```
//!
//! `epoch` tags which published [`EpochSnapshot`] answered the request,
//! making staleness observable at the caller: the load generator reports
//! the lag between served epochs and the newest published one.
//!
//! [`EpochSnapshot`]: buckwild::EpochSnapshot

use std::fmt;
use std::io::{self, Read, Write};

/// Version byte leading every payload; bumped on layout changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a single frame, guarding the server against a
/// malformed length prefix demanding an unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// Request opcodes.
pub mod opcode {
    /// Score a dense row-major batch against the current snapshot.
    pub const PREDICT: u8 = 1;
}

/// Response status codes.
pub mod status {
    /// Scores follow.
    pub const OK: u8 = 0;
    /// The request payload did not parse.
    pub const BAD_REQUEST: u8 = 1;
    /// No snapshot has been published yet (server started before the
    /// first training epoch finished).
    pub const NO_MODEL: u8 = 2;
    /// The request's feature count does not match the model.
    pub const SHAPE_MISMATCH: u8 = 3;
}

const REQUEST_HEADER_BYTES: usize = 1 + 1 + 4 + 4;
const RESPONSE_HEADER_BYTES: usize = 1 + 1 + 8 + 4;

/// A malformed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than its fixed header.
    Truncated {
        /// Bytes the header requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Payload length disagrees with the row/feature counts it declares.
    BadLength {
        /// Bytes the declared shape implies.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Declared shape would exceed [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared row count.
        rows: u32,
        /// Declared feature count.
        features: u32,
    },
    /// Zero rows or zero features.
    EmptyShape,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(
                    f,
                    "payload truncated: header needs {needed} bytes, got {got}"
                )
            }
            WireError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            WireError::BadLength { expected, got } => {
                write!(
                    f,
                    "payload length {got} does not match declared shape ({expected})"
                )
            }
            WireError::Oversized { rows, features } => {
                write!(
                    f,
                    "declared shape {rows}x{features} exceeds the frame limit"
                )
            }
            WireError::EmptyShape => write!(f, "batch must have at least one row and feature"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(err: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Shape of a decoded predict request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Number of examples in the batch.
    pub rows: usize,
    /// Features per example.
    pub features: usize,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// One of the [`status`] codes.
    pub status: u8,
    /// Epoch tag of the snapshot that answered (0 when no model served).
    pub epoch: u64,
    /// One score per request row (empty unless status is [`status::OK`]).
    pub scores: Vec<f32>,
}

impl Response {
    /// True when the request was answered with scores.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == status::OK
    }
}

/// Builds a complete predict-request frame (length prefix included) into
/// `buf`, replacing its contents.
///
/// # Panics
///
/// Panics if `features` is zero or does not divide `batch.len()`.
pub fn encode_request(buf: &mut Vec<u8>, batch: &[f32], features: usize) {
    assert!(features > 0, "features must be positive");
    assert_eq!(
        batch.len() % features,
        0,
        "batch length must be rows * features"
    );
    let rows = batch.len() / features;
    let payload = REQUEST_HEADER_BYTES + 4 * batch.len();
    buf.resize(4 + payload, 0);
    buf[0..4].copy_from_slice(&(payload as u32).to_le_bytes());
    buf[4] = PROTOCOL_VERSION;
    buf[5] = opcode::PREDICT;
    buf[6..10].copy_from_slice(&(rows as u32).to_le_bytes());
    buf[10..14].copy_from_slice(&(features as u32).to_le_bytes());
    put_f32s(&mut buf[4 + REQUEST_HEADER_BYTES..], batch);
}

/// Parses a predict-request payload (the bytes after the length prefix),
/// filling `batch` with the row-major examples.
pub fn decode_request(payload: &[u8], batch: &mut Vec<f32>) -> Result<RequestHeader, WireError> {
    if payload.len() < REQUEST_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: REQUEST_HEADER_BYTES,
            got: payload.len(),
        });
    }
    if payload[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    if payload[1] != opcode::PREDICT {
        return Err(WireError::BadOpcode(payload[1]));
    }
    let rows = u32::from_le_bytes(payload[2..6].try_into().expect("4 bytes"));
    let features = u32::from_le_bytes(payload[6..10].try_into().expect("4 bytes"));
    if rows == 0 || features == 0 {
        return Err(WireError::EmptyShape);
    }
    let numbers = (rows as usize)
        .checked_mul(features as usize)
        .filter(|&n| n <= (MAX_FRAME_BYTES - REQUEST_HEADER_BYTES) / 4)
        .ok_or(WireError::Oversized { rows, features })?;
    let expected = REQUEST_HEADER_BYTES + 4 * numbers;
    if payload.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    batch.resize(numbers, 0.0);
    get_f32s(&payload[REQUEST_HEADER_BYTES..], batch);
    Ok(RequestHeader {
        rows: rows as usize,
        features: features as usize,
    })
}

/// Builds a complete response frame (length prefix included) into `buf`,
/// replacing its contents.
pub fn encode_response(buf: &mut Vec<u8>, status: u8, epoch: u64, scores: &[f32]) {
    let payload = RESPONSE_HEADER_BYTES + 4 * scores.len();
    buf.resize(4 + payload, 0);
    buf[0..4].copy_from_slice(&(payload as u32).to_le_bytes());
    buf[4] = PROTOCOL_VERSION;
    buf[5] = status;
    buf[6..14].copy_from_slice(&epoch.to_le_bytes());
    buf[14..18].copy_from_slice(&(scores.len() as u32).to_le_bytes());
    put_f32s(&mut buf[4 + RESPONSE_HEADER_BYTES..], scores);
}

/// Parses a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    if payload.len() < RESPONSE_HEADER_BYTES {
        return Err(WireError::Truncated {
            needed: RESPONSE_HEADER_BYTES,
            got: payload.len(),
        });
    }
    if payload[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(payload[0]));
    }
    let status = payload[1];
    let epoch = u64::from_le_bytes(payload[2..10].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(payload[10..14].try_into().expect("4 bytes")) as usize;
    let expected = RESPONSE_HEADER_BYTES + 4 * count;
    if payload.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: payload.len(),
        });
    }
    let mut scores = vec![0.0; count];
    get_f32s(&payload[RESPONSE_HEADER_BYTES..], &mut scores);
    Ok(Response {
        status,
        epoch,
        scores,
    })
}

/// Stores `values` into `bytes`, four little-endian bytes each. Both
/// slices are pre-sized, so on a little-endian host this is one block copy.
fn put_f32s(bytes: &mut [u8], values: &[f32]) {
    assert_eq!(bytes.len(), 4 * values.len(), "frame sized for its values");
    for (chunk, value) in bytes.chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&value.to_le_bytes());
    }
}

/// Loads `values` from `bytes`; the inverse of [`put_f32s`].
fn get_f32s(bytes: &[u8], values: &mut [f32]) {
    assert_eq!(bytes.len(), 4 * values.len(), "values sized for the frame");
    for (value, chunk) in values.iter_mut().zip(bytes.chunks_exact(4)) {
        *value = f32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }
}

/// Reads one frame's payload into `buf`. Returns `Ok(false)` on a clean
/// end-of-stream at a frame boundary; mid-frame EOF is an error.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    read_payload(reader, buf, len, |e| e.kind() == io::ErrorKind::Interrupted)?;
    Ok(true)
}

/// What a receive buffer may hold before any of a frame has arrived.
const RECEIVE_STEP: usize = 1 << 16;

/// Reads exactly `len` payload bytes into `buf`, leaving `buf.len() == len`.
/// Errors that `retry` accepts are retried (a frame is committed once its
/// length arrived); end-of-stream inside the payload is `UnexpectedEof`.
///
/// `buf` keeps what it held: bytes the reads below overwrite are not
/// zeroed first, so a buffer that already fits costs one `read` into
/// place. It is grown no further than `max(RECEIVE_STEP, twice the bytes
/// received so far)`, so memory follows what a peer sent, not what its
/// length prefix claimed.
pub(crate) fn read_payload<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    len: usize,
    retry: impl Fn(&io::Error) -> bool,
) -> io::Result<()> {
    buf.truncate(len);
    let mut filled = 0usize;
    while filled < len {
        let room = len.min(RECEIVE_STEP.max(2 * filled));
        if buf.len() < room {
            buf.resize(room, 0);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame payload",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if retry(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes an already-encoded frame (as built by the `encode_*` helpers)
/// and flushes.
pub fn write_frame<W: Write>(writer: &mut W, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_bit_exactly() {
        let batch: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.37).collect();
        let mut frame = Vec::new();
        encode_request(&mut frame, &batch, 4);
        let mut decoded = Vec::new();
        let header = decode_request(&frame[4..], &mut decoded).expect("valid frame");
        assert_eq!(
            header,
            RequestHeader {
                rows: 3,
                features: 4
            }
        );
        let got: Vec<u32> = decoded.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = batch.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn response_round_trips_bit_exactly() {
        let scores = vec![0.5f32, -1.25, f32::MIN_POSITIVE, 3.0e7];
        let mut frame = Vec::new();
        encode_response(&mut frame, status::OK, 41, &scores);
        let resp = decode_response(&frame[4..]).expect("valid frame");
        assert!(resp.is_ok());
        assert_eq!(resp.epoch, 41);
        let got: Vec<u32> = resp.scores.iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = scores.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn frame_io_round_trips_over_a_byte_stream() {
        let mut frame = Vec::new();
        encode_response(&mut frame, status::NO_MODEL, 0, &[]);
        let mut stream = frame.clone();
        encode_request(&mut frame, &[1.0, 2.0], 2);
        stream.extend_from_slice(&frame);

        let mut cursor = io::Cursor::new(stream);
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).expect("frame 1"));
        assert_eq!(
            decode_response(&payload).expect("response").status,
            status::NO_MODEL
        );
        assert!(read_frame(&mut cursor, &mut payload).expect("frame 2"));
        let mut batch = Vec::new();
        let header = decode_request(&payload, &mut batch).expect("request");
        assert_eq!(header.rows, 1);
        assert!(!read_frame(&mut cursor, &mut payload).expect("clean EOF"));
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let mut batch = Vec::new();
        assert_eq!(
            decode_request(&[PROTOCOL_VERSION, opcode::PREDICT], &mut batch),
            Err(WireError::Truncated {
                needed: REQUEST_HEADER_BYTES,
                got: 2
            })
        );

        let mut frame = Vec::new();
        encode_request(&mut frame, &[1.0], 1);
        let mut bad = frame[4..].to_vec();
        bad[0] = 99;
        assert_eq!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadVersion(99))
        );
        let mut bad = frame[4..].to_vec();
        bad[1] = 7;
        assert_eq!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadOpcode(7))
        );
        let mut bad = frame[4..].to_vec();
        bad.pop();
        assert!(matches!(
            decode_request(&bad, &mut batch),
            Err(WireError::BadLength { .. })
        ));

        // A shape whose product overflows the frame limit is refused
        // before any allocation.
        let mut huge = vec![PROTOCOL_VERSION, opcode::PREDICT];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&huge, &mut batch),
            Err(WireError::Oversized { .. })
        ));

        let mut empty = vec![PROTOCOL_VERSION, opcode::PREDICT];
        empty.extend_from_slice(&0u32.to_le_bytes());
        empty.extend_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_request(&empty, &mut batch),
            Err(WireError::EmptyShape)
        );
    }

    /// Hands out `data` at most `chunk` bytes per `read`, recording for
    /// each call how long the offered slice was and whether it still held
    /// only `SENTINEL` bytes.
    struct Dribble<'a> {
        data: &'a [u8],
        chunk: usize,
        offered: Vec<(usize, bool)>,
    }

    const SENTINEL: u8 = 0xAA;

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.offered
                .push((buf.len(), buf.iter().all(|&b| b == SENTINEL)));
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_buffer_that_fits_is_read_into_place_without_being_zeroed() {
        let data = [0x55u8; 1000];
        // A buffer exactly as long as the frame, then one longer than it.
        for held in [1000, 4000] {
            let mut reader = Dribble {
                data: &data,
                chunk: usize::MAX,
                offered: Vec::new(),
            };
            let mut buf = vec![SENTINEL; held];
            read_payload(&mut reader, &mut buf, 1000, |_| false).expect("whole payload");
            assert_eq!(
                reader.offered,
                [(1000, true)],
                "one read, nothing re-zeroed"
            );
            assert_eq!(buf, data);
        }
    }

    #[test]
    fn a_receive_buffer_grows_only_as_bytes_arrive() {
        // 64 MiB declared, 10 bytes sent: the client and the server path
        // both fail with EOF holding one growth step, not the declared size.
        let mut stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&[7u8; 10]);
        let mut buf = Vec::new();
        let err = read_frame(&mut io::Cursor::new(&stream), &mut buf).expect_err("EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 128 << 10, "held {}", buf.capacity());
        let mut buf = Vec::new();
        let mut rest = io::Cursor::new(&stream[4..]);
        let err = read_payload(&mut rest, &mut buf, MAX_FRAME_BYTES, |_| false).expect_err("EOF");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 128 << 10, "held {}", buf.capacity());

        // A 1 MiB payload arriving 1000 bytes at a time: at every read the
        // buffer holds at most max(64 KiB, twice what has arrived), and the
        // payload comes out whole.
        let data: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
        let mut reader = Dribble {
            data: &data,
            chunk: 1000,
            offered: Vec::new(),
        };
        let mut buf = Vec::new();
        read_payload(&mut reader, &mut buf, data.len(), |_| false).expect("whole payload");
        assert_eq!(buf, data);
        for (call, &(room, _)) in reader.offered.iter().enumerate() {
            let arrived = call * 1000;
            assert!(
                arrived + room <= RECEIVE_STEP.max(2 * arrived),
                "{} bytes held with {arrived} received",
                arrived + room
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(stream);
        let mut payload = Vec::new();
        let err = read_frame(&mut cursor, &mut payload).expect_err("over limit");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
