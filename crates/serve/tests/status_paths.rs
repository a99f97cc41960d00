//! The server's refusal paths over a real socket: every non-OK status is
//! answered on the connection (never a silent drop), moves exactly its own
//! `serve.*` counter, and leaves the connection and the shard's reused
//! buffers fit to serve the next healthy request bit-identically.
//! A peer that stops sending mid-frame cannot hold `shutdown`.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use buckwild::prelude::*;
use buckwild::{ModelPrecision, QuantizedModel};
use buckwild_prng::{Prng, Xorshift128};
use buckwild_serve::wire::{self, status, Response};
use buckwild_serve::{metric, PredictServer, ServeConfig, SnapshotHub};

const FEATURES: usize = 7;
const EPOCH: u64 = 5;

/// The counters a request can move; the tests keep one running expectation
/// per entry, in this order.
const COUNTERS: [&str; 5] = [
    metric::REQUESTS,
    metric::BAD_REQUESTS,
    metric::NO_MODEL,
    metric::SHAPE_MISMATCH,
    metric::PREDICTIONS,
];
/// Indices into [`COUNTERS`].
const REQUESTS: usize = 0;
const BAD_REQUESTS: usize = 1;
const NO_MODEL: usize = 2;
const SHAPE_MISMATCH: usize = 3;
const PREDICTIONS: usize = 4;

fn one_shard_server(hub: &Arc<SnapshotHub>) -> PredictServer {
    PredictServer::start(Arc::clone(hub), &ServeConfig::new("127.0.0.1:0").shards(1))
        .expect("bind server")
}

fn model(features: usize) -> Arc<QuantizedModel> {
    let weights: Vec<f32> = (0..features).map(|i| (i as f32 - 2.5) * 0.11).collect();
    Arc::new(QuantizedModel::quantize(&weights, ModelPrecision::I8))
}

fn values(rng: &mut Xorshift128, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One raw connection speaking frames directly, so it can send what
/// `PredictClient` never would.
struct Peer {
    stream: TcpStream,
    payload: Vec<u8>,
}

impl Peer {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // A server that drops the request fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Peer {
            stream,
            payload: Vec::new(),
        }
    }

    /// Sends raw bytes and decodes the one response frame they earn.
    fn send(&mut self, bytes: &[u8]) -> Response {
        wire::write_frame(&mut self.stream, bytes).expect("send");
        assert!(
            wire::read_frame(&mut self.stream, &mut self.payload).expect("response frame"),
            "server closed the connection without responding"
        );
        wire::decode_response(&self.payload).expect("response decodes")
    }

    fn predict(&mut self, batch: &[f32], features: usize) -> Response {
        let mut frame = Vec::new();
        wire::encode_request(&mut frame, batch, features);
        self.send(&frame)
    }
}

/// Reads [`COUNTERS`] once `serve.requests` has reached `requests` (the
/// server counts a request after flushing its response, so the response
/// can arrive first).
fn counters_at(server: &PredictServer, requests: u64) -> [u64; 5] {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = server.metrics();
        let now = COUNTERS.map(|name| metrics.counter(name).unwrap_or(0));
        if now[REQUESTS] >= requests {
            return now;
        }
        assert!(
            Instant::now() < deadline,
            "request {requests} never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A request frame whose bytes the test then corrupts.
fn good_frame(rng: &mut Xorshift128) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, &values(rng, 2 * FEATURES), FEATURES);
    frame
}

fn set_prefix(frame: &mut [u8]) {
    let payload = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&payload.to_le_bytes());
}

/// Walks one connection through every refusal the published model allows
/// and then a healthy request, checking the counters after each step.
/// `seen` is the running expectation for [`COUNTERS`].
fn refusals_then_a_healthy_request(
    server: &PredictServer,
    peer: &mut Peer,
    snapshot: &QuantizedModel,
    rng: &mut Xorshift128,
    seen: &mut [u64; 5],
) {
    let mut step = |peer: &mut Peer, bytes: &[u8], want: u8, moved: usize, by: u64| {
        let response = peer.send(bytes);
        assert_eq!(response.status, want);
        seen[REQUESTS] += 1;
        seen[moved] += by;
        assert_eq!(
            counters_at(server, seen[REQUESTS]),
            *seen,
            "after status {want}"
        );
        response
    };

    // A feature count the model does not have.
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, &values(rng, 2 * 3), 3);
    let response = step(peer, &frame, status::SHAPE_MISMATCH, SHAPE_MISMATCH, 1);
    assert_eq!(response.epoch, EPOCH);
    assert!(response.scores.is_empty());

    // A version byte from the future.
    let mut frame = good_frame(rng);
    frame[4] = wire::PROTOCOL_VERSION + 1;
    let response = step(peer, &frame, status::BAD_REQUEST, BAD_REQUESTS, 1);
    assert_eq!((response.epoch, response.scores.len()), (0, 0));

    // An opcode nobody defined.
    let mut frame = good_frame(rng);
    frame[5] = 0xEE;
    step(peer, &frame, status::BAD_REQUEST, BAD_REQUESTS, 1);

    // A payload longer, then one byte shorter, than its declared shape.
    let mut frame = good_frame(rng);
    frame.extend_from_slice(&1.0f32.to_le_bytes());
    set_prefix(&mut frame);
    step(peer, &frame, status::BAD_REQUEST, BAD_REQUESTS, 1);
    let mut frame = good_frame(rng);
    frame.pop();
    set_prefix(&mut frame);
    step(peer, &frame, status::BAD_REQUEST, BAD_REQUESTS, 1);

    // A payload too short to hold a header.
    step(
        peer,
        &[2, 0, 0, 0, 1, 1],
        status::BAD_REQUEST,
        BAD_REQUESTS,
        1,
    );

    // After all of that the same connection still serves, bit for bit.
    let batch = values(rng, 3 * FEATURES);
    wire::encode_request(&mut frame, &batch, FEATURES);
    let response = step(peer, &frame, status::OK, PREDICTIONS, 3);
    assert_eq!(response.epoch, EPOCH);
    let mut expected = vec![0.0f32; 3];
    snapshot.score_batch(&batch, &mut expected);
    assert_eq!(bits(&response.scores), bits(&expected));
}

#[test]
fn every_refusal_is_answered_and_counted_and_the_connection_keeps_serving() {
    let hub = Arc::new(SnapshotHub::new());
    let server = one_shard_server(&hub);
    let mut rng = Xorshift128::seed_from(22);
    let mut seen = [0u64; 5];

    // Before the first publish a well-formed request has no model to meet.
    let mut peer = Peer::connect(server.local_addr());
    let response = peer.predict(&values(&mut rng, 2 * FEATURES), FEATURES);
    assert_eq!(response.status, status::NO_MODEL);
    assert_eq!((response.epoch, response.scores.len()), (0, 0));
    seen[REQUESTS] += 1;
    seen[NO_MODEL] += 1;
    assert_eq!(counters_at(&server, 1), seen);

    let snapshot = model(FEATURES);
    hub.publish(EpochSnapshot {
        epoch: EPOCH,
        model: Arc::clone(&snapshot),
    });

    // First on the connection that saw NO_MODEL, again on that same
    // (reused) connection, then on a fresh connection served from the
    // shard's already-used scratch buffers.
    refusals_then_a_healthy_request(&server, &mut peer, &snapshot, &mut rng, &mut seen);
    refusals_then_a_healthy_request(&server, &mut peer, &snapshot, &mut rng, &mut seen);
    drop(peer);
    let mut peer = Peer::connect(server.local_addr());
    refusals_then_a_healthy_request(&server, &mut peer, &snapshot, &mut rng, &mut seen);
    drop(peer);

    let metrics = server.shutdown();
    assert_eq!(
        COUNTERS.map(|name| metrics.counter(name).unwrap_or(0)),
        seen
    );
    assert_eq!(metrics.counter(metric::CONNECTIONS), Some(2));
}

/// The server path of a reused connection: one shard's payload and batch
/// buffers carry a 2^18-value request and then a 7-value one. Each row has
/// one feature, so every value sent is visible in its own score.
#[test]
fn a_small_request_after_a_large_one_is_scored_from_its_own_values() {
    let hub = Arc::new(SnapshotHub::new());
    let server = one_shard_server(&hub);
    let snapshot = model(1);
    hub.publish(EpochSnapshot {
        epoch: EPOCH,
        model: Arc::clone(&snapshot),
    });
    let mut rng = Xorshift128::seed_from(23);
    let mut peer = Peer::connect(server.local_addr());

    for rows in [1 << 18, 7, 1 << 18, 7] {
        let batch = values(&mut rng, rows);
        let response = peer.predict(&batch, 1);
        assert_eq!(response.status, status::OK);
        let mut expected = vec![0.0f32; rows];
        snapshot.score_batch(&batch, &mut expected);
        assert_eq!(
            bits(&response.scores),
            bits(&expected),
            "{rows}-row request"
        );
    }

    // A payload one byte short of its shape is refused whatever the
    // buffers held before, and the next request is still served.
    let mut frame = Vec::new();
    wire::encode_request(&mut frame, &values(&mut rng, 7), 1);
    frame.pop();
    set_prefix(&mut frame);
    assert_eq!(peer.send(&frame).status, status::BAD_REQUEST);
    assert_eq!(peer.predict(&values(&mut rng, 7), 1).status, status::OK);

    drop(peer);
    let metrics = server.shutdown();
    assert_eq!(metrics.counter(metric::REQUESTS), Some(6));
    assert_eq!(metrics.counter(metric::BAD_REQUESTS), Some(1));
    assert_eq!(
        metrics.counter(metric::PREDICTIONS),
        Some(2 * (1 << 18) + 3 * 7)
    );
}

/// A length prefix above the frame cap cannot be skipped over, so the
/// connection ends — but with a `BAD_REQUEST` on the wire and in the
/// counters, not a silent drop.
#[test]
fn an_oversized_length_prefix_is_answered_counted_and_closed() {
    let hub = Arc::new(SnapshotHub::new());
    let server = one_shard_server(&hub);
    let mut peer = Peer::connect(server.local_addr());

    let prefix = (wire::MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
    let response = peer.send(&prefix);
    assert_eq!(response.status, status::BAD_REQUEST);
    assert_eq!((response.epoch, response.scores.len()), (0, 0));
    assert!(
        !wire::read_frame(&mut peer.stream, &mut peer.payload).expect("clean close"),
        "the server closes after refusing"
    );
    assert_eq!(counters_at(&server, 1), [1, 1, 0, 0, 0]);

    // The shard is back to accepting.
    let mut peer = Peer::connect(server.local_addr());
    let response = peer.predict(&[0.5; FEATURES], FEATURES);
    assert_eq!(response.status, status::NO_MODEL);
    drop(peer);
    let metrics = server.shutdown();
    assert_eq!(metrics.counter(metric::BAD_REQUESTS), Some(1));
    assert_eq!(metrics.counter(metric::REQUESTS), Some(2));
}

/// Opens a connection, sends the first `sent(frame)` bytes of a healthy
/// request frame and stops, then requires `shutdown` (on another thread)
/// to return within 5 s while the peer still holds the connection open.
fn shutdown_returns_while_a_peer_stalls(sent: impl Fn(&[u8]) -> usize) {
    let hub = Arc::new(SnapshotHub::new());
    let server = one_shard_server(&hub);
    let frame = good_frame(&mut Xorshift128::seed_from(40));
    let mut peer = Peer::connect(server.local_addr());
    peer.stream
        .write_all(&frame[..sent(&frame)])
        .expect("partial frame");
    // The shard must own the connection before the flag is set, or it
    // would stop at its accept loop without ever reading the bytes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().counter(metric::CONNECTIONS) != Some(1) {
        assert!(Instant::now() < deadline, "connection never accepted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown()));
    let metrics = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown must not wait for a peer stalled mid-frame");
    assert_eq!(metrics.counter(metric::REQUESTS).unwrap_or(0), 0);
    drop(peer);
}

#[test]
fn shutdown_returns_while_a_peer_stalls_inside_the_length_prefix() {
    shutdown_returns_while_a_peer_stalls(|_| 3);
}

#[test]
fn shutdown_returns_while_a_peer_stalls_inside_the_payload() {
    shutdown_returns_while_a_peer_stalls(|frame| 4 + (frame.len() - 4) / 2);
}
